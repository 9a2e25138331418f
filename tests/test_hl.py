"""Sequence labels, skip semantics, high-level acceptance."""

import random

import pytest

from helpers import (
    UNIVERSE,
    ab_example,
    all_words,
    as_hl,
    atoms,
    brute_hl_accepts,
    build_seq_matcher,
    random_hl,
    random_topl,
    single_eq_automaton,
)
from topl.core import (
    NOP,
    TRUE,
    Assign,
    Atom,
    Configuration,
    Eq,
    StructureError,
    ToplAutomaton,
    Transition,
    accepts,
    validate_automaton,
)
from topl.hl import (
    HlAutomaton,
    HlConfiguration,
    HlTransition,
    hl_accepts,
    hl_successors,
    match_prefix,
)


def _letters(*names):
    return tuple((Atom(n),) for n in names)


class TestSeqMatcher:
    def test_single_guard(self):
        A, B = atoms("A", "B")
        m = build_seq_matcher((A, B), ((Eq(2, 1), NOP),))
        assert m.states == frozenset({"0", "1"})
        assert m.initial == "0" and m.final == frozenset({"1"})
        assert accepts(m, ((B,),))
        assert not accepts(m, ((A,),))

    def test_three_step_chain(self):
        A, B = atoms("A", "B")
        labels = ((Eq(2, 1), NOP), (Eq(1, 1), NOP), (Eq(2, 1), NOP))
        m = build_seq_matcher((A, B), labels)
        assert len(m.states) == 4
        assert accepts(m, _letters("B", "A", "B"))
        assert not accepts(m, _letters("B", "A", "A"))
        assert not accepts(m, _letters("B", "A"))

    def test_true_matches_any_single_letter(self):
        m = build_seq_matcher((), ((TRUE, NOP),))
        for v in UNIVERSE:
            assert accepts(m, ((v,),))
        assert not accepts(m, ())

    def test_empty_labels_rejected(self):
        with pytest.raises(StructureError):
            build_seq_matcher((), ())


class TestMatchPrefix:
    def test_bab_matches_with_unchanged_store(self):
        A, B = atoms("A", "B")
        labels = ((Eq(2, 1), NOP), (Eq(1, 1), NOP), (Eq(2, 1), NOP))
        assert match_prefix((A, B), labels, _letters("B", "A", "B")) == (A, B)

    def test_first_guard_failure(self):
        A, B = atoms("A", "B")
        labels = ((Eq(2, 1), NOP), (Eq(1, 1), NOP), (Eq(2, 1), NOP))
        assert match_prefix((A, B), labels, _letters("A", "A", "B")) is None

    def test_unconditional_write(self):
        x, y = atoms("x", "y")
        assert match_prefix((x,), ((TRUE, (Assign(1, 1),)),), ((y,),)) == (y,)

    def test_length_mismatch_is_no_match(self):
        A, B = atoms("A", "B")
        assert match_prefix((A, B), ((Eq(1, 1), NOP),), _letters("A", "A")) is None

    def test_agrees_with_matcher_automaton(self):
        # Dual route: folding the labels must equal running the chain.
        rng = random.Random(11)
        for _ in range(150):
            m, n, d = rng.randint(0, 2), rng.randint(1, 2), rng.randint(1, 3)
            store = tuple(rng.choice(UNIVERSE) for _ in range(m))
            labels = []
            for _ in range(d):
                g_atoms = [
                    rng.choice((Eq,))(rng.randint(1, m), rng.randint(1, n)) if m else TRUE
                    for _ in range(rng.randint(0, 1))
                ]
                from topl.core import conjoin

                act = tuple(Assign(rng.randint(1, m), rng.randint(1, n)) for _ in range(rng.randint(0, 1))) if m else NOP
                labels.append((conjoin([g for g in g_atoms if g is not TRUE]), act))
            labels = tuple(labels)
            word = tuple(tuple(rng.choice(UNIVERSE) for _ in range(n)) for _ in range(d))
            direct = match_prefix(store, labels, word)
            chain = build_seq_matcher(store, labels)
            # replay the chain manually to recover the ending store
            frontier = {("0", store)}
            for letter in word:
                nxt = set()
                for q, s in frontier:
                    for t in chain.outgoing(q):
                        from topl.core import apply_action, eval_guard

                        if eval_guard(t.guard, s, letter):
                            nxt.add((t.target, apply_action(t.action, letter, s)))
                frontier = nxt
            via_chain = {s for q, s in frontier if q in chain.final}
            assert via_chain == (set() if direct is None else {direct})


class TestHlSuccessors:
    def test_standard_transition_blocks_skip(self):
        ab = ab_example()
        A, B = atoms("A", "B")
        y = HlConfiguration(Configuration("1", (A, B)), _letters("B", "A", "B"))
        got = hl_successors(ab, y)
        assert got == {
            (_letters("B", "A", "B"), HlConfiguration(Configuration("2", (A, B)), ())),
        }

    def test_skip_when_no_transition_starts(self):
        ab = ab_example()
        A, B = atoms("A", "B")
        y = HlConfiguration(Configuration("3", (A, B)), _letters("A", "B"))
        got = hl_successors(ab, y)
        assert got == {
            (_letters("A"), HlConfiguration(Configuration("3", (A, B)), _letters("B"))),
        }

    def test_remark_automaton_skips_mismatches(self):
        hl = as_hl(single_eq_automaton("v"))
        u, v = atoms("u", "v")
        y = HlConfiguration(Configuration("i", (v,)), ((u,), (v,)))
        got = hl_successors(hl, y)
        assert got == {(((u,),), HlConfiguration(Configuration("i", (v,)), ((v,),)))}

    def test_empty_pending_has_no_successors(self):
        ab = ab_example()
        y = HlConfiguration(Configuration("3", ab.store), ())
        assert hl_successors(ab, y) == set()

    def test_skip_exclusivity_and_strict_suffix(self):
        for seed in range(80):
            a = random_hl(seed)
            rng = random.Random(seed * 3 + 1)
            pending = tuple(tuple(rng.choice(UNIVERSE) for _ in range(a.arity)) for _ in range(rng.randint(0, 4)))
            state = rng.choice(sorted(a.states))
            store = tuple(rng.choice(UNIVERSE) for _ in range(a.registers))
            y = HlConfiguration(Configuration(state, store), pending)
            succ = hl_successors(a, y)
            skips = {e for e in succ if e[1].configuration == y.configuration and len(e[0]) == 1
                     and e[1].pending == pending[1:]}
            # a skip edge exists iff there is no standard edge, never both
            standards = succ - skips
            if standards:
                assert not (skips and not standards)
            for consumed, y2 in succ:
                assert consumed + y2.pending == pending
                assert len(y2.pending) < len(pending) or not pending


class TestHlAccepts:
    def test_ab_golden_words(self):
        ab = ab_example()
        assert not hl_accepts(ab, _letters("B", "A", "B"))
        assert not hl_accepts(ab, _letters("B", "B", "A", "B"))
        assert hl_accepts(ab, _letters("A"))
        assert hl_accepts(ab, _letters("A", "A", "B"))

    def test_remark_automaton_contains_letter(self):
        low = single_eq_automaton("v")
        hl = as_hl(low)
        u, v = atoms("u", "v")
        assert accepts(low, ((v,),)) and not accepts(low, ((u,), (v,)))
        assert hl_accepts(hl, ((u,), (v,), (u,)))
        assert hl_accepts(hl, ((v,),))
        assert not hl_accepts(hl, ((u,), (u,)))

    def test_empty_word_iff_initial_final(self):
        ab = ab_example()
        assert not hl_accepts(ab, ())
        relaxed = HlAutomaton(
            arity=ab.arity, registers=ab.registers, states=ab.states, initial=ab.initial,
            store=ab.store, transitions=ab.transitions, final=ab.final | {"1"},
        )
        assert hl_accepts(relaxed, ())

    def test_singleton_total_automata_agree_with_low_level(self):
        # With unit labels and a catch-all loop on every state, no skip can
        # ever fire, so both semantics coincide.
        for seed in range(60):
            low = random_topl(seed, max_arity=1)
            extra = tuple(Transition(q, TRUE, NOP, q) for q in sorted(low.states))
            total = ToplAutomaton(
                arity=low.arity, registers=low.registers, states=low.states, initial=low.initial,
                store=low.store, transitions=low.transitions + extra, final=low.final,
            )
            hl = as_hl(total)
            for w in all_words(UNIVERSE, 1, 3):
                assert hl_accepts(hl, w) == accepts(total, w), (seed, w)

    def test_agrees_with_interleaving_enumeration(self):
        for seed in range(80):
            a = random_hl(seed)
            for w in all_words(UNIVERSE, a.arity, 4):
                assert hl_accepts(a, w) == brute_hl_accepts(a, w), (seed, w)


def test_validate_hl():
    ab = ab_example()
    assert validate_automaton(ab) == []
    broken = HlAutomaton(
        arity=1, registers=1, states=frozenset({"a"}), initial="a", store=(Atom("x"),),
        transitions=(HlTransition("a", (), "a"),), final=frozenset(),
    )
    assert any("empty label" in d for d in validate_automaton(broken))
