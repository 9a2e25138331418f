"""Oracles for the benchmark's outputs, independent of the library.

Nothing here imports `topl`.  Automata are read from their JSON form
(README, "Automaton JSON") and run by plain recursion; values are
represented as tuples: ("atom", s), ("bottom",) and ("event", kind,
method).

* `taint_verdicts` simulates the Taint property as a dataflow over a
  trace and gives the expected verdict indices.
* `replay_path` checks a reported violation path step by step against
  the automaton's guards and actions, skips included.
* `hl_accepts` decides a word by recursion over consume/skip choices;
  `accepted_word_up_to` searches every word up to a length.
"""

from __future__ import annotations

import re
from itertools import product

from gen import CONCAT, EXECUTE_QUERY, GET_PARAMETER

BOTTOM = ("bottom",)


# ---------------------------------------------------------------------------
# Taint dataflow
# ---------------------------------------------------------------------------

def taint_verdicts(events) -> list:
    """Expected verdict indices of the Taint property on `events`.

    A getParameter call directly followed by its return taints the
    returned value; a concat call whose receiver or argument is tainted,
    directly followed by its return, taints the result.  The first
    executeQuery call whose argument is tainted is the violation, and
    since `error` is absorbing every later prefix is a verdict too.
    """
    tainted = set()
    n = len(events)
    for i, e in enumerate(events):
        if e["kind"] != "call":
            continue
        values = e["values"]
        if e["method"] == EXECUTE_QUERY and len(values) == 2 and values[1] in tainted:
            return list(range(i + 1, n + 1))
        ret = events[i + 1] if i + 1 < n else None
        if ret is None or ret["kind"] != "ret" or ret["method"] != e["method"]:
            continue
        if e["method"] == GET_PARAMETER:
            tainted.add(ret["value"])
        elif e["method"] == CONCAT and len(values) == 2 and (values[0] in tainted or values[1] in tainted):
            tainted.add(ret["value"])
    return []


# ---------------------------------------------------------------------------
# Automata from JSON
# ---------------------------------------------------------------------------

def value(obj):
    if obj is None or obj == {"bottom": True}:
        return BOTTOM
    if isinstance(obj, str):
        return ("atom", obj)
    if "atom" in obj:
        return ("atom", obj["atom"])
    return ("event", obj["event"]["kind"], obj["event"]["method"])


def encode(event, width: int) -> tuple:
    """Letter of a trace event: event id, return slot, call values,
    padded with the dummy value to `width`."""
    if event["kind"] == "call":
        letter = [("event", "call", event["method"]), BOTTOM] + [value(v) for v in event["values"]]
    else:
        letter = [("event", "ret", event["method"]), value(event.get("value"))]
    return tuple(letter + [BOTTOM] * (width - len(letter)))


def _glob(pattern: str, name: str) -> bool:
    if "*" not in pattern:
        return pattern == name
    return re.fullmatch(".*".join(re.escape(p) for p in pattern.split("*")), name) is not None


def guard_holds(g, store, letter) -> bool:
    kind = g["kind"]
    if kind == "true":
        return True
    if kind == "and":
        return guard_holds(g["left"], store, letter) and guard_holds(g["right"], store, letter)
    if kind in ("eq", "neq"):
        same = store[g["reg"] - 1] == letter[g["pos"] - 1]
        return same if kind == "eq" else not same
    if kind == "method":
        v = letter[g["pos"] - 1]
        hit = v[0] == "event" and v[1] == g["event"] and any(_glob(p, v[2]) for p in g["patterns"])
        return hit != g.get("negated", False)
    raise ValueError(f"unknown guard kind {kind!r}")


def run_labels(labels, store, letters):
    """Store after matching `labels` against `letters`, or None."""
    for label, letter in zip(labels, letters):
        if not guard_holds(label["guard"], store, letter):
            return None
        store = list(store)
        for asg in label["action"]:
            store[asg["reg"] - 1] = letter[asg["pos"] - 1]
        store = tuple(store)
    return store


class Automaton:
    """A high-level automaton in JSON form, with its values decoded."""

    def __init__(self, obj):
        self.initial = obj["initial"]
        self.final = frozenset(obj["final"])
        self.store = tuple(value(v) for v in obj["store"])
        self.transitions = [(t["from"], t["labels"], t["to"]) for t in obj["transitions"]]

    def moves(self, state, store, rest):
        """Standard moves from (state, store) on the remaining letters:
        (transition index, letters consumed, next store, next state)."""
        out = []
        for idx, (src, labels, dst) in enumerate(self.transitions):
            if src == state and len(labels) <= len(rest):
                store2 = run_labels(labels, store, rest[: len(labels)])
                if store2 is not None:
                    out.append((idx, len(labels), store2, dst))
        return out


def replay_path(a: Automaton, letters, path, k: int) -> str:
    """Empty string when `path` drives `a` from its initial configuration
    through exactly the first `k` letters to a final state, taking a skip
    only where no transition matches; else what went wrong."""
    word = tuple(letters[:k])
    state, store, pos = a.initial, a.store, 0
    for n, step in enumerate(path):
        if step[0] == "skip":
            if step[1] != pos or pos >= k:
                return f"step {n}: skip at {step[1]}, expected {pos}"
            if a.moves(state, store, word[pos:]):
                return f"step {n}: skip at {pos} where a transition matches"
            pos += 1
            continue
        _, idx, start, end = step
        src, labels, dst = a.transitions[idx]
        if start != pos or src != state or end - start != len(labels) or end > k:
            return f"step {n}: transition {idx} over {start}..{end} does not follow {state}@{pos}"
        store2 = run_labels(labels, store, word[start:end])
        if store2 is None:
            return f"step {n}: transition {idx} does not match events {start + 1}..{end}"
        state, store, pos = dst, store2, end
    if pos != k:
        return f"path consumes {pos} events, verdict is {k}"
    if state not in a.final:
        return f"path ends in non-final state {state}"
    return ""


# ---------------------------------------------------------------------------
# Emptiness
# ---------------------------------------------------------------------------

def hl_accepts(a: Automaton, word) -> bool:
    """Some run of standard moves and forced skips consumes `word` and
    ends in a final state; a skip is taken only when no move matches."""
    def walk(state, store, rest):
        if not rest and state in a.final:
            return True
        moves = a.moves(state, store, rest)
        for _, used, store2, dst in moves:
            if walk(dst, store2, rest[used:]):
                return True
        return not moves and bool(rest) and walk(state, store, rest[1:])

    return walk(a.initial, a.store, tuple(word))


# Bounded search for "empty" answers: every word of length <= the bound
# over the store atoms plus one value no automaton stores.
EMPTY_UNIVERSE = ("a", "b", "c", "z")
EMPTY_MAX_LEN = {1: 3, 2: 2}


def accepted_word_up_to(a: Automaton, arity: int):
    """The first accepted word of length <= EMPTY_MAX_LEN[arity] over
    EMPTY_UNIVERSE, or None."""
    letters = [tuple(("atom", v) for v in c) for c in product(EMPTY_UNIVERSE, repeat=arity)]
    for length in range(EMPTY_MAX_LEN[arity] + 1):
        for word in product(letters, repeat=length):
            if hl_accepts(a, word):
                return word
    return None
