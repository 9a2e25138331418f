"""High-level automata: transitions labelled with guard/action *sequences*.

A transition with a length-d label consumes d consecutive letters.  When
no transition's label matches a prefix of the pending word, exactly one
letter is skipped (state and store unchanged).  Skipping is only allowed
in that case, which is what lets these machines ignore irrelevant input
without losing the matches they care about.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional

from .core import (
    Configuration,
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


@dataclass(frozen=True)
class HlConfiguration:
    """A configuration plus the word still to be processed."""

    configuration: Configuration
    pending: Word

    def is_final(self, a: HlAutomaton) -> bool:
        return self.configuration.state in a.final and not self.pending


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
# Configuration-graph semantics
# ---------------------------------------------------------------------------

def hl_successors(a: HlAutomaton, y: HlConfiguration) -> set:
    """Successor edges of `y`: pairs (consumed word, next hl-configuration).

    Standard edges consume a matched prefix; the single skip edge (one
    letter, configuration unchanged) exists iff no standard edge does and
    the pending word is non-empty.
    """
    q, s = y.configuration.state, y.configuration.store
    pending = y.pending
    out = set()
    for t in a.outgoing(q):
        d = len(t.labels)
        if d > len(pending):
            continue
        prefix = pending[:d]
        s2 = match_prefix(s, t.labels, prefix)
        if s2 is not None:
            out.add((prefix, HlConfiguration(Configuration(t.target, s2), pending[d:])))
    if not out and pending:
        out.add((pending[:1], HlConfiguration(y.configuration, pending[1:])))
    return out


def hl_accepts(a: HlAutomaton, w: Iterable[Letter]) -> bool:
    """True iff some path of standard/skip moves consumes `w` entirely and
    ends in a final state.  The empty word is accepted iff the initial
    state is final."""
    w = tuple(w)
    for letter in w:
        if len(letter) != a.arity:
            raise StructureError(f"letter has arity {len(letter)}, automaton expects {a.arity}")
    start = HlConfiguration(Configuration(a.initial, a.store), w)
    seen = {start}
    queue = deque([start])
    while queue:
        y = queue.popleft()
        if y.is_final(a):
            return True
        for _, y2 in hl_successors(a, y):
            if y2 not in seen:
                seen.add(y2)
                queue.append(y2)
    return False
