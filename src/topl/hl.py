"""High-level automata: transitions labelled with guard/action *sequences*.

A transition with a length-d label consumes d consecutive letters.  When
no transition's label matches the letters from the current position on,
exactly one letter is skipped (state and store unchanged).  Skipping is
only allowed in that case, which is what lets these machines ignore
irrelevant input without losing the matches they care about.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .core import (
    Letter,
    Store,
    StructureError,
    Word,
    _IndexedTransitions,
    apply_action,
    eval_guard,
)

# One label step: a (guard, action) pair consuming a single letter.
LabelStep = tuple  # tuple[Guard, Action]


@dataclass(frozen=True)
class HlTransition:
    source: str
    labels: tuple  # tuple[LabelStep, ...], non-empty
    target: str


@dataclass(frozen=True)
class HlAutomaton(_IndexedTransitions):
    arity: int
    registers: int
    states: frozenset
    initial: str
    store: Store
    transitions: tuple  # tuple[HlTransition, ...]
    final: frozenset

    @property
    def max_label_length(self) -> int:
        """Longest transition label; 1 for an automaton with no transitions."""
        if not self.transitions:
            return 1
        return max(len(t.labels) for t in self.transitions)


# ---------------------------------------------------------------------------
# Sequence matching
# ---------------------------------------------------------------------------

def match_prefix(s: Store, labels: tuple, w: Word) -> Optional[Store]:
    """Store after the label steps of `labels` read the letters of `w`
    one by one; None when some guard fails or the lengths differ.

    Each step's guard reads the store its predecessors left, so a match
    ends in exactly one store.
    """
    if len(w) != len(labels):
        return None
    store = s
    for (g, act), letter in zip(labels, w):
        if not eval_guard(g, store, letter):
            return None
        store = apply_action(act, letter, store)
    return store


# ---------------------------------------------------------------------------
# Skip semantics
# ---------------------------------------------------------------------------

def hl_accepts(a: HlAutomaton, w: Iterable[Letter]) -> bool:
    """True iff some path of standard/skip moves consumes `w` entirely and
    ends in a final state.  The empty word is accepted iff the initial
    state is final.

    One walk over the positions of `w`: `at[p]` holds the (state, store)
    pairs that have read exactly p letters.  A pair at p takes every
    transition whose label matches the letters from p on and adds its
    target and new store at p + d; a pair that takes none skips one
    letter to p + 1, unchanged.  Each set is dropped once walked, so time
    and memory are linear in the length of `w` times the number of pairs
    alive at one position.
    """
    w = tuple(w)
    for letter in w:
        if len(letter) != a.arity:
            raise StructureError(f"letter has arity {len(letter)}, automaton expects {a.arity}")
    n = len(w)
    at = {0: {(a.initial, a.store)}}
    for p in range(n):
        for q, s in at.pop(p, ()):
            moved = False
            for t in a.outgoing(q):
                end = p + len(t.labels)
                if end <= n:
                    s2 = match_prefix(s, t.labels, w[p:end])
                    if s2 is not None:
                        at.setdefault(end, set()).add((t.target, s2))
                        moved = True
            if not moved:
                at.setdefault(p + 1, set()).add((q, s))
    return any(q in a.final for q, _ in at[n])
