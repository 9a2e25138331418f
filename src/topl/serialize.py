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
Serialization is deterministic (sorted keys, stable ordering).
"""

from __future__ import annotations

import json

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
    if v is BOTTOM or v == BOTTOM:
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
    try:
        return tuple(Assign(item["reg"], item["pos"]) for item in obj)
    except (KeyError, TypeError) as exc:
        raise StructureError(f"bad action {obj!r}: {exc}") from None


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
    high-level, "guard"/"action" low-level.  What it builds must pass
    `require_valid`, so an index out of range fails here, not when a
    run first reaches it."""
    try:
        raw_transitions = obj["transitions"]
        is_hl = any("labels" in t for t in raw_transitions)
        common = dict(
            arity=obj["arity"],
            registers=obj["registers"],
            states=frozenset(obj["states"]),
            initial=obj["initial"],
            store=tuple(value_from_json(v) for v in obj["store"]),
            final=frozenset(obj["final"]),
        )
        if is_hl:
            transitions = tuple(
                HlTransition(
                    t["from"],
                    tuple((guard_from_json(l["guard"]), action_from_json(l["action"])) for l in t["labels"]),
                    t["to"],
                )
                for t in raw_transitions
            )
            automaton = HlAutomaton(transitions=transitions, **common)
        else:
            transitions = tuple(
                Transition(t["from"], guard_from_json(t["guard"]), action_from_json(t["action"]), t["to"])
                for t in raw_transitions
            )
            automaton = ToplAutomaton(transitions=transitions, **common)
        # A count, index or state name of the wrong JSON type fails here.
        require_valid(automaton)
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


def dumps(obj) -> str:
    """Canonical JSON text: sorted keys, stable separators, newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
