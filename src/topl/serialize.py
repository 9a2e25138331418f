"""Stable JSON forms for automata, words, and compiled properties.

Automaton schema (low-level):

    {"arity": n, "registers": m, "states": [...], "initial": q0,
     "store": [value, ...], "final": [...],
     "transitions": [{"from": q, "guard": G, "action": A, "to": q}, ...]}

High-level automata replace "guard"/"action" with
"labels": [{"guard": G, "action": A}, ...].  Values serialize as
{"atom": s} | {"bottom": true} | {"event": {"kind": "call", "method": s}};
guards as {"kind": "eq"|"neq", "reg": i, "pos": j} | {"kind": "true"} |
{"kind": "and", "left": G, "right": G} |
{"kind": "method", "pos": j, "event": "call"|"ret", "patterns": [...],
 "negated": false}; actions as [{"reg": i, "pos": j}, ...].
Compiled properties bundle {"automaton": ..., "events": {"arity": n,
"width": n+2, "variables": {name: register, ...}}}.  The literal values
a property compares against sit in the automaton's store; an "events"
key "constants" written by earlier versions is ignored.

`automaton_from_json` builds and checks an automaton in one walk.
Eq/neq guards and actions come from bounded intern caches keyed by their
JSON fields, so equal pieces, within one automaton and across many, are
built once and shared.  Only fields whose type is exactly `int` are
interned: a JSON `true` equals 1, yet it loads as `Eq(True, 1)` as it
always has.  Each interned piece carries its lowest and highest
indices.  As it builds, the walk collects the state names, the index
bounds of the distinct pieces, and whether every label is non-empty;
`core.is_valid_from_parts` checks those by `validate_automaton`'s rules.
When every piece was interned and the checks hold, the automaton is
recorded as valid and translatable, so no later `require_valid` or
translation walks it again.  Otherwise `require_valid` reports every
diagnostic in its usual order.

`dumps` writes the canonical text: exactly
`json.dumps(obj, sort_keys=True, indent=2)` and a newline.
"""

from __future__ import annotations

import json
from functools import lru_cache

from .core import (
    BOTTOM,
    TRUE,
    And,
    Assign,
    Atom,
    Eq,
    EventId,
    Guard,
    MethodMatch,
    Neq,
    StructureError,
    ToplAutomaton,
    Transition,
    TrueGuard,
    Value,
    is_valid_from_parts,
    require_valid,
)
from .hl import HlAutomaton, HlTransition
from .properties import EventSchema


# ---------------------------------------------------------------------------
# Values
# ---------------------------------------------------------------------------

def value_to_json(v: Value):
    if isinstance(v, Atom):
        return {"atom": v.name}
    if v is BOTTOM:
        return {"bottom": True}
    if isinstance(v, EventId):
        return {"event": {"kind": v.kind, "method": v.method}}
    raise StructureError(f"unserializable value {v!r}")


def value_from_json(obj) -> Value:
    if isinstance(obj, dict):
        if isinstance(obj.get("atom"), str):
            return Atom(obj["atom"])
        if obj.get("bottom"):
            return BOTTOM
        e = obj.get("event")
        if isinstance(e, dict) and e.get("kind") in ("call", "ret") and isinstance(e.get("method"), str):
            return EventId(e["kind"], e["method"])
    raise StructureError(f"bad value {obj!r}")


def _word_value_from_json(obj) -> Value:
    # Word files additionally allow bare strings and null.
    if obj is None:
        return BOTTOM
    if isinstance(obj, str):
        return Atom(obj)
    return value_from_json(obj)


# ---------------------------------------------------------------------------
# Guards and actions
# ---------------------------------------------------------------------------

def guard_to_json(g: Guard):
    if isinstance(g, TrueGuard):
        return {"kind": "true"}
    if isinstance(g, Eq):
        return {"kind": "eq", "reg": g.reg, "pos": g.pos}
    if isinstance(g, Neq):
        return {"kind": "neq", "reg": g.reg, "pos": g.pos}
    if isinstance(g, And):
        return {"kind": "and", "left": guard_to_json(g.left), "right": guard_to_json(g.right)}
    if isinstance(g, MethodMatch):
        return {
            "kind": "method",
            "pos": g.pos,
            "event": g.kind,
            "patterns": list(g.patterns),
            "negated": g.negated,
        }
    raise StructureError(f"unserializable guard {g!r}")


def guard_from_json(obj) -> Guard:
    key = _guard_key(obj)
    if key is not None:
        return _interned_guard(key)[0]
    # A method guard, or one that cannot be interned: a field missing or
    # of another type, a bad kind.
    kind = obj.get("kind") if isinstance(obj, dict) else None
    try:
        if kind == "true":
            return TRUE
        if kind == "eq":
            return Eq(obj["reg"], obj["pos"])
        if kind == "neq":
            return Neq(obj["reg"], obj["pos"])
        if kind == "and":
            return And(guard_from_json(obj["left"]), guard_from_json(obj["right"]))
        if kind == "method":
            return MethodMatch(obj["pos"], obj["event"], tuple(obj["patterns"]), obj.get("negated", False))
    except KeyError as exc:
        raise StructureError(f"bad guard {obj!r}: missing {exc}") from None
    raise StructureError(f"bad guard {obj!r}")


def action_to_json(a: tuple):
    return [{"reg": asg.reg, "pos": asg.pos} for asg in a]


def action_from_json(obj) -> tuple:
    key = _action_key(obj)
    if key is not None:
        return _interned_action(key)[0]
    try:
        return tuple(Assign(item["reg"], item["pos"]) for item in obj)
    except (KeyError, TypeError) as exc:
        raise StructureError(f"bad action {obj!r}: {exc}") from None


# Eq/neq guards and actions are interned: equal JSON forms, within one
# automaton and across many, load as one shared object.  Keys hold only
# indices whose type is exactly `int`, as a JSON `true` equals 1 yet
# loads as `Eq(True, 1)`.

def _guard_key(obj):
    """A hashable key for the guard `obj` describes when it is a
    conjunction of eq/neq atoms with int indices, else None."""
    try:
        kind = obj["kind"]
        if kind == "eq" or kind == "neq":
            reg, pos = obj["reg"], obj["pos"]
            if type(reg) is int and type(pos) is int:
                return (kind, reg, pos)
        elif kind == "true":
            return ("true",)
        elif kind == "and":
            left, right = _guard_key(obj["left"]), _guard_key(obj["right"])
            if left and right:
                return ("and", left, right)
    except (KeyError, TypeError):  # not a dict, or a field missing
        pass
    return None


def _action_key(obj):
    """The (reg, pos) pairs of the action `obj` describes when every
    index is an int, else None."""
    if type(obj) is not list:
        return None
    key = []
    try:
        for item in obj:
            reg, pos = item["reg"], item["pos"]
            if type(reg) is not int or type(pos) is not int:
                return None
            key.append((reg, pos))
    except (KeyError, TypeError):  # not a dict, or a field missing
        return None
    return tuple(key)


def _guard_of(key) -> tuple:
    """The guard of a key of `_guard_key` and its bounds for
    `core.is_valid_from_parts`."""
    kind = key[0]
    if kind == "true":
        return TRUE, (1, 0, 0)
    if kind == "and":
        (left, (llow, lreg, lpos)), (right, (rlow, rreg, rpos)) = _guard_of(key[1]), _guard_of(key[2])
        return And(left, right), (min(llow, rlow), max(lreg, rreg), max(lpos, rpos))
    _, reg, pos = key
    return (Eq if kind == "eq" else Neq)(reg, pos), (min(reg, pos), reg, pos)


# Whole guards are interned; the recursion above stays uncached, so a
# nested conjunction takes one frame per level.
_interned_guard = lru_cache(maxsize=1024)(_guard_of)


@lru_cache(maxsize=1024)
def _interned_action(key: tuple) -> tuple:
    """The action of a key of `_action_key` and its bounds for
    `core.is_valid_from_parts`."""
    regs, poss = [reg for reg, _ in key], [pos for _, pos in key]
    return tuple(Assign(reg, pos) for reg, pos in key), (min(regs + poss, default=1), max(regs, default=0),
                                                         max(poss, default=0))


# ---------------------------------------------------------------------------
# Automata
# ---------------------------------------------------------------------------

def automaton_to_json(a) -> dict:
    base = {
        "arity": a.arity,
        "registers": a.registers,
        "states": sorted(a.states),
        "initial": a.initial,
        "store": [value_to_json(v) for v in a.store],
        "final": sorted(a.final),
    }
    if isinstance(a, HlAutomaton):
        base["transitions"] = [
            {
                "from": t.source,
                "labels": [{"guard": guard_to_json(g), "action": action_to_json(act)} for g, act in t.labels],
                "to": t.target,
            }
            for t in a.transitions
        ]
    elif isinstance(a, ToplAutomaton):
        base["transitions"] = [
            {
                "from": t.source,
                "guard": guard_to_json(t.guard),
                "action": action_to_json(t.action),
                "to": t.target,
            }
            for t in a.transitions
        ]
    else:
        raise StructureError(f"unserializable automaton type {type(a).__name__}")
    return base


def automaton_from_json(obj):
    """Load either automaton flavour; transitions with "labels" make it
    high-level, "guard"/"action" low-level.

    The automaton is built and checked in one walk (see the module
    docstring).  What it builds must pass `require_valid`, so an index
    out of range fails here, not when a run first reaches it.  A valid
    automaton whose guards are all conjunctions of eq/neq atoms is also
    recorded as translatable.
    """
    try:
        raw_transitions = obj["transitions"]
        is_hl = any("labels" in t for t in raw_transitions)
        arity, registers = obj["arity"], obj["registers"]
        states = frozenset(obj["states"])
        initial = obj["initial"]
        store = tuple(map(value_from_json, obj["store"]))
        final = frozenset(obj["final"])
        # What `is_valid_from_parts` reads instead of the transitions; a
        # None bound marks a guard or action that was not interned.
        ends, bounds, labelled = [], set(), True
        transitions = []
        for t in raw_transitions:
            source = t["from"]
            steps = []
            # A low-level transition is its own one label step.
            for step in t["labels"] if is_hl else (t,):
                key = _guard_key(step["guard"])
                guard, gbounds = (guard_from_json(step["guard"]), None) if key is None else _interned_guard(key)
                key = _action_key(step["action"])
                action, abounds = (action_from_json(step["action"]), None) if key is None else _interned_action(key)
                bounds.add(gbounds)
                bounds.add(abounds)
                steps.append((guard, action))
            target = t["to"]
            ends += (source, target)
            if is_hl:
                labelled = labelled and steps != []
                transitions.append(HlTransition(source, tuple(steps), target))
            else:
                transitions.append(Transition(source, *steps[0], target))
        automaton = (HlAutomaton if is_hl else ToplAutomaton)(
            arity=arity, registers=registers, states=states, initial=initial, store=store,
            transitions=tuple(transitions), final=final,
        )
        if None not in bounds and is_valid_from_parts(automaton, ends, labelled, bounds):
            # Every guard was interned, so it is a conjunction of eq/neq atoms.
            automaton.__dict__["_valid"] = automaton.__dict__["_translatable"] = True
        else:
            require_valid(automaton)  # raises with every diagnostic
    except (KeyError, TypeError) as exc:
        raise StructureError(f"bad automaton JSON: {exc}") from None
    return automaton


# ---------------------------------------------------------------------------
# Compiled property bundles
# ---------------------------------------------------------------------------

def schema_to_json(schema: EventSchema) -> dict:
    return {
        "arity": schema.arity,
        "width": schema.width,
        "variables": {name: reg for name, reg in schema.variables},
    }


def schema_from_json(obj) -> EventSchema:
    try:
        arity = obj["arity"]
        variables = tuple(sorted(obj["variables"].items(), key=lambda kv: kv[1]))
    except (KeyError, TypeError, AttributeError) as exc:
        raise StructureError(f"bad events JSON: {exc}") from None
    if not isinstance(arity, int) or arity < 0:
        raise StructureError(f"bad events JSON: arity must be a count, got {arity!r}")
    return EventSchema(arity=arity, variables=variables)


def bundle_to_json(automaton: HlAutomaton, schema: EventSchema) -> dict:
    return {"automaton": automaton_to_json(automaton), "events": schema_to_json(schema)}


def bundle_from_json(obj):
    if not isinstance(obj, dict) or "automaton" not in obj or "events" not in obj:
        raise StructureError("expected a compiled property bundle with 'automaton' and 'events'")
    automaton = automaton_from_json(obj["automaton"])
    if not isinstance(automaton, HlAutomaton):
        # A compiled property always carries label sequences.
        automaton = HlAutomaton(
            arity=automaton.arity,
            registers=automaton.registers,
            states=automaton.states,
            initial=automaton.initial,
            store=automaton.store,
            transitions=tuple(
                HlTransition(t.source, ((t.guard, t.action),), t.target) for t in automaton.transitions
            ),
            final=automaton.final,
        )
    return automaton, schema_from_json(obj["events"])


# ---------------------------------------------------------------------------
# Words
# ---------------------------------------------------------------------------

def word_from_json(obj, arity: int) -> tuple:
    """Word files: array of letters, each an array of values; plain
    strings are atoms and null is the dummy value."""
    if not isinstance(obj, list):
        raise StructureError("a word must be a JSON array of letters")
    word = []
    for letter in obj:
        if not isinstance(letter, list):
            raise StructureError("each letter must be a JSON array of values")
        if len(letter) != arity:
            raise StructureError(f"letter has {len(letter)} values, automaton expects {arity}")
        word.append(tuple(_word_value_from_json(v) for v in letter))
    return tuple(word)


def word_to_json(word) -> list:
    return [[value_to_json(v) for v in letter] for letter in word]


_encode_str = json.encoder.encode_basestring_ascii

# Per nesting depth: the texts that open a list and an object and put
# the first item on its own line, the separator between items, the texts
# that close a list and an object, and the line break at that depth.
# Built once per depth and shared by every container at it.
_LAYOUT: list = []


def _layout(depth: int) -> tuple:
    while len(_LAYOUT) <= depth:
        outer = "\n" + "  " * len(_LAYOUT)
        inner = outer + "  "
        _LAYOUT.append(("[" + inner, "{" + inner, "," + inner, outer + "]", outer + "}", outer))
    return _LAYOUT[depth]


def _write(o, chunks: list, depth: int) -> None:
    """Append the canonical text of `o`, nested `depth` deep, to `chunks`."""
    t = type(o)
    if t is str:
        chunks.append(_encode_str(o))
    elif t is int:
        chunks.append(int.__repr__(o))
    elif t is dict:
        if not o:
            chunks.append("{}")
            return
        layout = _layout(depth)
        sep, mark = layout[1], len(chunks)
        for key, item in sorted(o.items()):
            if type(key) is not str:  # json converts such keys to strings; let it write this object
                del chunks[mark:]
                chunks.append(json.dumps(o, sort_keys=True, indent=2).replace("\n", layout[5]))
                return
            chunks += (sep, _encode_str(key), ": ")
            sep = layout[2]
            _write(item, chunks, depth + 1)
        chunks.append(layout[4])
    elif t is list or t is tuple:
        if not o:
            chunks.append("[]")
            return
        layout = _layout(depth)
        sep = layout[0]
        for item in o:
            chunks.append(sep)
            sep = layout[2]
            # The letters of a verdict path are lists of many strings and
            # ints: write those here, without a call.
            t = type(item)
            if t is str:
                chunks.append(_encode_str(item))
            elif t is int:
                chunks.append(int.__repr__(item))
            else:
                _write(item, chunks, depth + 1)
        chunks.append(layout[3])
    elif o is True:
        chunks.append("true")
    elif o is False:
        chunks.append("false")
    elif o is None:
        chunks.append("null")
    else:  # floats, subclasses and anything json rejects
        chunks.append(json.dumps(o, sort_keys=True, indent=2).replace("\n", _layout(depth)[5]))


def dumps(obj) -> str:
    """Canonical JSON text: sorted keys, two-space indent, non-ASCII and
    control characters as \\uXXXX escapes, and a final newline; exactly
    `json.dumps(obj, sort_keys=True, indent=2) + "\\n"`, whose pure-Python
    encoder this writer replaces."""
    chunks: list = []
    _write(obj, chunks, 0)
    chunks.append("\n")
    return "".join(chunks)
