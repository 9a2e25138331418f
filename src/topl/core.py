"""Low-level automata over infinite value alphabets.

Values are opaque atoms compared only by equality.  An automaton with
``registers`` store cells and ``arity``-wide letters moves between states
via transitions labelled with a guard (store/letter comparisons) and an
action (copy letter components into store cells).  All indices are
1-based, both in code and in the serialized form.
"""

from __future__ import annotations

import re
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Union


class StructureError(Exception):
    """An automaton (or an operation on it) is structurally invalid."""


# ---------------------------------------------------------------------------
# Values
# ---------------------------------------------------------------------------

class Atom(str):
    """An opaque value; two atoms are equal iff their names are equal.

    An atom is its name as a `str` subclass, so it hashes and compares
    as fast as the string does.  It equals its name as a plain string
    too, which never matters: plain strings are never values.
    """

    __slots__ = ()

    @property
    def name(self) -> str:
        return str.__str__(self)

    def __repr__(self) -> str:
        return f"Atom({self.name!r})"

    __str__ = __repr__


class EventId(namedtuple("EventId", "kind method")):
    """Identifier of an observable event: a call or return of a method.

    A named tuple (kind, method), so it hashes and compares as fast as
    the tuple does.
    """

    __slots__ = ()

    def __new__(cls, kind: str, method: str):
        if kind not in ("call", "ret"):
            raise ValueError(f"event kind must be 'call' or 'ret', got {kind!r}")
        return tuple.__new__(cls, (kind, method))

    _make = classmethod(lambda cls, fields: cls(*fields))  # so `_replace` checks too

    def __repr__(self) -> str:
        return f"EventId({self.kind} {self.method})"


class _Bottom:
    """The dummy value; equal only to itself."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "BOTTOM"

    def __reduce__(self) -> str:
        return "BOTTOM"  # copies and pickles are the one instance


BOTTOM = _Bottom()

Value = Union[Atom, EventId, _Bottom]

# Letters and stores are fixed-length tuples of values; the owning
# automaton fixes the lengths (arity n and register count m).
Letter = tuple  # tuple[Value, ...], length n >= 1
Store = tuple   # tuple[Value, ...], length m >= 0
Word = tuple    # tuple[Letter, ...]


# ---------------------------------------------------------------------------
# Guards
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Eq:
    """store(reg) == letter(pos)"""

    reg: int
    pos: int


@dataclass(frozen=True)
class Neq:
    """store(reg) != letter(pos)"""

    reg: int
    pos: int


@dataclass(frozen=True)
class TrueGuard:
    """Always satisfied."""


@dataclass(frozen=True)
class And:
    left: "Guard"
    right: "Guard"


@dataclass(frozen=True)
class MethodMatch:
    """letter(pos) is an EventId of `kind` whose method matches a pattern.

    Patterns are alternatives of glob strings (``*`` matches any run of
    characters; matching is exact when no ``*`` is present).  With
    ``negated`` the node is the exact complement: satisfied unless the
    component is a matching event id of that kind.  This node is an
    extension used by the property compiler; the translations to
    register-automaton form and from high-level automata reject it,
    because a pattern cannot be evaluated against a stored value.
    """

    pos: int
    kind: str  # "call" | "ret"
    patterns: tuple  # tuple[str, ...]
    negated: bool = False


TRUE = TrueGuard()

Guard = Union[Eq, Neq, TrueGuard, And, MethodMatch]


def conjuncts(g: Guard) -> list:
    """Flatten nested conjunctions into the list of atomic guards."""
    if isinstance(g, And):
        return conjuncts(g.left) + conjuncts(g.right)
    if isinstance(g, TrueGuard):
        return []
    return [g]


def conjoin(atoms: Iterable[Guard]) -> Guard:
    """Left-associated conjunction of atomic guards; TRUE when empty."""
    result: Guard = None  # type: ignore[assignment]
    for a in atoms:
        result = a if result is None else And(result, a)
    return TRUE if result is None else result


@lru_cache(maxsize=1024)
def _glob_regex(pattern: str) -> "re.Pattern[str]":
    parts = (re.escape(p) for p in pattern.split("*"))
    return re.compile(".*".join(parts) + r"\Z")


def method_matches(patterns: tuple, name: str) -> bool:
    for pat in patterns:
        if "*" in pat:
            if _glob_regex(pat).match(name):
                return True
        elif pat == name:
            return True
    return False


# ---------------------------------------------------------------------------
# Actions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Assign:
    """store(reg) := letter(pos)"""

    reg: int
    pos: int


# An action is an ordered tuple of assignments, applied left to right;
# the empty tuple is the no-op.
Action = tuple  # tuple[Assign, ...]

NOP: Action = ()


# ---------------------------------------------------------------------------
# Automata
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Transition:
    source: str
    guard: Guard
    action: Action
    target: str

    @property
    def labels(self) -> tuple:
        """The transition as a one-step label sequence, as high-level
        transitions spell theirs."""
        return ((self.guard, self.action),)


class _IndexedTransitions:
    """Outgoing-transition index shared by every automaton flavour: an
    automaton with `transitions`, each having a `source`."""

    def outgoing(self, state: str) -> tuple:
        index = self.__dict__.get("_outgoing")
        if index is None:
            index = {}
            for t in self.transitions:
                index.setdefault(t.source, []).append(t)
            index = {q: tuple(ts) for q, ts in index.items()}
            self.__dict__["_outgoing"] = index
        return index.get(state, ())


@dataclass(frozen=True)
class ToplAutomaton(_IndexedTransitions):
    """Finite-state automaton with an m-register store over n-tuple letters.

    A transition fires when its guard holds of (current store, letter);
    its action then updates the store, and the letter is consumed whole.
    A word is accepted when some run from (initial, store) ends in a
    final state.  The empty word is accepted iff the initial state is
    final.
    """

    arity: int
    registers: int
    states: frozenset
    initial: str
    store: Store
    transitions: tuple  # tuple[Transition, ...]
    final: frozenset


class Configuration(namedtuple("Configuration", "state store")):
    """Where a run is: its current state and its register store.

    A named pair, so it hashes and compares as fast as the tuple does.
    """

    __slots__ = ()


# ---------------------------------------------------------------------------
# Semantics
# ---------------------------------------------------------------------------

def _check_reg(reg: int, m: int) -> None:
    if not 1 <= reg <= m:
        raise StructureError(f"register index {reg} out of range 1..{m}")


def _check_pos(pos: int, n: int) -> None:
    if not 1 <= pos <= n:
        raise StructureError(f"letter index {pos} out of range 1..{n}")


def eval_guard(g: Guard, s: Store, l: Letter) -> bool:
    """Truth of guard `g` for store `s` and letter `l` (1-based indices).

    Out-of-bounds indices raise StructureError: a malformed automaton is
    an error, never a quiet False.
    """
    if isinstance(g, TrueGuard):
        return True
    if isinstance(g, Eq):
        _check_reg(g.reg, len(s))
        _check_pos(g.pos, len(l))
        return s[g.reg - 1] == l[g.pos - 1]
    if isinstance(g, Neq):
        _check_reg(g.reg, len(s))
        _check_pos(g.pos, len(l))
        return s[g.reg - 1] != l[g.pos - 1]
    if isinstance(g, And):
        return eval_guard(g.left, s, l) and eval_guard(g.right, s, l)
    if isinstance(g, MethodMatch):
        _check_pos(g.pos, len(l))
        v = l[g.pos - 1]
        hit = isinstance(v, EventId) and v.kind == g.kind and method_matches(g.patterns, v.method)
        return hit != g.negated
    raise StructureError(f"unknown guard node {g!r}")


def apply_action(a: Action, l: Letter, s: Store) -> Store:
    """Store after running the assignments of `a` left to right on `s`."""
    if not a:
        return s
    out = list(s)
    for asg in a:
        _check_reg(asg.reg, len(s))
        _check_pos(asg.pos, len(l))
        out[asg.reg - 1] = l[asg.pos - 1]
    return tuple(out)


def step(a: ToplAutomaton, c: Configuration, l: Letter) -> set:
    """All configurations reachable from `c` by consuming the letter `l`."""
    if len(l) != a.arity:
        raise StructureError(f"letter has arity {len(l)}, automaton expects {a.arity}")
    out = set()
    for t in a.outgoing(c.state):
        if eval_guard(t.guard, c.store, l):
            out.add(Configuration(t.target, apply_action(t.action, l, c.store)))
    return out


def accepts(a: ToplAutomaton, w: Iterable[Letter]) -> bool:
    """Breadth-first set-of-configurations run; True iff some run accepts."""
    frontier = {Configuration(a.initial, a.store)}
    for letter in w:
        nxt = set()
        for c in frontier:
            nxt |= step(a, c, letter)
        frontier = nxt
        if not frontier:
            return False
    return any(c.state in a.final for c in frontier)


def coreachable(a) -> set:
    """States of an automaton of either flavour from which some path of
    transitions reaches a final state, final states included.

    Guards are ignored, so a state outside this set can never accept: a
    low-level run there dies or stays outside, and a high-level skip
    keeps the state.
    """
    sources: dict = {}
    for t in a.transitions:
        sources.setdefault(t.target, []).append(t.source)
    live = set(a.final)
    todo = list(live)
    while todo:
        for q in sources.get(todo.pop(), ()):
            if q not in live:
                live.add(q)
                todo.append(q)
    return live


def live_registers(a) -> dict:
    """Registers live at each state of an automaton of either flavour:
    those some path of transitions reads (an `Eq` or `Neq` atom, in any
    label step) before writing them.

    Only transitions into co-reachable states count, and the keys are
    exactly the co-reachable states: the value of a register dead at a
    state never decides whether a run from there accepts.  For a
    high-level automaton this counts the paths' own reads; whether a
    skip may fire also depends on guards of transitions this leaves out.
    """
    co = coreachable(a)
    live = {q: set() for q in co}
    if not a.registers:
        return live
    into: dict = {}  # state -> (source, registers written) per transition into it
    for t in a.transitions:
        if t.target in co:
            # A step's guard reads the store the earlier steps left; its
            # action writes after it.
            reads, writes = set(), set()
            for g, act in t.labels:
                for atom in conjuncts(g):
                    if isinstance(atom, (Eq, Neq)) and atom.reg not in writes:
                        reads.add(atom.reg)
                writes.update(asg.reg for asg in act)
            live[t.source] |= reads
            into.setdefault(t.target, []).append((t.source, writes))
    todo = list(co)
    while todo:
        q = todo.pop()
        for p, writes in into.get(q, ()):
            new = live[q] - writes - live[p]
            if new:
                live[p] |= new
                todo.append(p)
    return live


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def _guard_diagnostics(g: Guard, m: int, n: int, where: str) -> Iterator[str]:
    for atom in conjuncts(g):
        if isinstance(atom, (Eq, Neq)):
            if not 1 <= atom.reg <= m:
                yield f"{where}: register index out of range ({atom.reg} not in 1..{m})"
            if not 1 <= atom.pos <= n:
                yield f"{where}: letter index out of range ({atom.pos} not in 1..{n})"
        elif isinstance(atom, MethodMatch):
            if not 1 <= atom.pos <= n:
                yield f"{where}: letter index out of range ({atom.pos} not in 1..{n})"
            if atom.kind not in ("call", "ret"):
                yield f"{where}: bad event kind {atom.kind!r}"


def _action_diagnostics(act: tuple, m: int, n: int, where: str) -> Iterator[str]:
    for asg in act:
        if not 1 <= asg.reg <= m:
            yield f"{where}: register index out of range ({asg.reg} not in 1..{m})"
        if not 1 <= asg.pos <= n:
            yield f"{where}: letter index out of range ({asg.pos} not in 1..{n})"


def _header_diagnostics(a) -> Iterator[str]:
    """What is wrong with the counts, states and store of `a`."""
    if a.arity < 1:
        yield f"arity must be >= 1, got {a.arity}"
    if a.registers < 0:
        yield f"register count must be >= 0, got {a.registers}"
    if a.initial not in a.states:
        yield f"initial state unknown ({a.initial!r} not in states)"
    for q in sorted(a.final):
        if q not in a.states:
            yield f"final state unknown ({q!r} not in states)"
    if len(a.store) != a.registers:
        yield f"initial store has length {len(a.store)}, expected {a.registers}"


def validate_automaton(a) -> list:
    """Every violated structural invariant of an automaton of either
    flavour, as human-readable diagnostics.

    A low-level transition is checked as the one-step label sequence
    its `labels` gives.  An empty list means the automaton is well formed.
    `is_valid_from_parts` decides the same without the walk over the
    transitions; a new rule here belongs there too.
    """
    diags = list(_header_diagnostics(a))
    for i, t in enumerate(a.transitions):
        where = f"transition {i} ({t.source}->{t.target})"
        if t.source not in a.states:
            diags.append(f"{where}: source state unknown")
        if t.target not in a.states:
            diags.append(f"{where}: target state unknown")
        if not t.labels:
            diags.append(f"{where}: empty label sequence")
        for g, act in t.labels:
            diags.extend(_guard_diagnostics(g, a.registers, a.arity, where))
            diags.extend(_action_diagnostics(act, a.registers, a.arity, where))
    return diags


def is_valid_from_parts(a, ends: Iterable, labelled: bool, bounds: Iterable) -> bool:
    """Whether `validate_automaton(a)` finds nothing, decided from parts
    collected while `a.transitions` were built, so without a walk over
    them: `ends`, every source and target state; `labelled`, whether
    every transition has a label step; `bounds`, for the guard and the
    action of every label step, (lowest index, highest register index,
    highest letter index) over its eq/neq atoms or assignments, with 1
    and 0 when it has none.  Guards with atoms of any other kind have
    more rules (`_guard_diagnostics`) and cannot be summarised so.

    False also covers a check that raises; `validate_automaton` then
    says what is wrong.  `serialize.automaton_from_json` decides with
    this as it loads.
    """
    m, n = a.registers, a.arity
    try:
        return (
            labelled
            and a.states.issuperset(ends)
            and not any(_header_diagnostics(a))
            and all(low >= 1 and reg <= m and pos <= n for low, reg, pos in bounds)
        )
    except TypeError:  # a count or state name of the wrong type
        return False


def require_valid(a) -> None:
    """Raise StructureError with every diagnostic unless `a` is well
    formed.  Automata are immutable, so a success is recorded on the
    instance, as `outgoing` keeps its index there: a repeat call costs
    O(1)."""
    if "_valid" in a.__dict__:
        return
    diags = validate_automaton(a)
    if diags:
        raise StructureError("invalid automaton: " + "; ".join(diags))
    a.__dict__["_valid"] = True
