"""Guard/action semantics, stepping, acceptance, validation."""

import random

import pytest

from helpers import (
    UNIVERSE,
    all_words,
    as_hl,
    atoms,
    brute_accepts,
    list_cycle_automaton,
    random_topl,
    three_letter_automaton,
)
from topl.core import (
    BOTTOM,
    NOP,
    TRUE,
    And,
    Assign,
    Atom,
    Configuration,
    Eq,
    EventId,
    MethodMatch,
    Neq,
    StructureError,
    ToplAutomaton,
    Transition,
    accepts,
    apply_action,
    conjoin,
    conjuncts,
    coreachable,
    eval_guard,
    live_registers,
    require_valid,
    step,
    validate_automaton,
)
from topl.hl import HlAutomaton, HlTransition


class TestValues:
    def test_atom_equality_is_structural(self):
        assert Atom("a") == Atom("a")
        assert Atom("a") != Atom("b")

    def test_bottom_equals_only_itself(self):
        assert BOTTOM == BOTTOM
        assert BOTTOM != Atom("bottom")
        assert BOTTOM != EventId("call", "m")

    def test_event_ids(self):
        assert EventId("call", "m") == EventId("call", "m")
        assert EventId("call", "m") != EventId("ret", "m")
        with pytest.raises(ValueError):
            EventId("invoke", "m")


class TestEvalGuard:
    def test_eq_identity(self):
        a = Atom("a")
        assert eval_guard(Eq(1, 1), (a,), (a,)) is True

    def test_final_transition_guard(self):
        # store (a, b), letter (c): both registers differ from the letter
        a, b, c = atoms("a", "b", "c")
        g = And(Neq(1, 1), Neq(2, 1))
        assert eval_guard(g, (a, b), (c,)) is True
        assert eval_guard(g, (a, b), (a,)) is False

    def test_neq_on_equal_value(self):
        a = Atom("a")
        assert eval_guard(Neq(1, 1), (a,), (a,)) is False

    def test_true_and_conjunction(self):
        a, b = atoms("a", "b")
        assert eval_guard(TRUE, (), (a,)) is True
        assert eval_guard(And(TRUE, Eq(1, 1)), (a,), (a,)) is True
        assert eval_guard(And(Eq(1, 1), Neq(1, 1)), (a,), (a,)) is False

    def test_method_match(self):
        g = MethodMatch(1, "call", ("java.util.*.next", "next"))
        assert eval_guard(g, (), (EventId("call", "next"),))
        assert eval_guard(g, (), (EventId("call", "java.util.Iterator.next"),))
        assert not eval_guard(g, (), (EventId("ret", "next"),))
        assert not eval_guard(g, (), (Atom("next"),))
        neg = MethodMatch(1, "call", ("next",), negated=True)
        assert not eval_guard(neg, (), (EventId("call", "next"),))
        assert eval_guard(neg, (), (EventId("call", "hasNext"),))
        assert eval_guard(neg, (), (EventId("ret", "next"),))

    def test_out_of_bounds_is_structural_error(self):
        a = Atom("a")
        with pytest.raises(StructureError):
            eval_guard(Eq(2, 1), (a,), (a,))
        with pytest.raises(StructureError):
            eval_guard(Eq(1, 2), (a,), (a,))

    def test_and_true_is_identity(self):
        rng = random.Random(7)
        for _ in range(200):
            m, n = rng.randint(1, 3), rng.randint(1, 3)
            s = tuple(rng.choice(UNIVERSE) for _ in range(m))
            l = tuple(rng.choice(UNIVERSE) for _ in range(n))
            g = conjoin(
                [rng.choice((Eq, Neq))(rng.randint(1, m), rng.randint(1, n)) for _ in range(rng.randint(0, 3))]
            )
            assert eval_guard(And(g, TRUE), s, l) == eval_guard(g, s, l)


class TestApplyAction:
    def test_nop(self):
        a, b, x = atoms("a", "b", "x")
        assert apply_action(NOP, (x,), (a, b)) == (a, b)

    def test_list_cycle_action(self):
        nxt, v0, v1 = atoms("next", "v0", "v1")
        action = (Assign(2, 2), Assign(3, 3))
        assert apply_action(action, (nxt, v0, v1), (nxt, v0, v0)) == (nxt, v0, v1)

    def test_idempotent_overwrite(self):
        a, x = atoms("a", "x")
        assert apply_action((Assign(1, 1), Assign(1, 1)), (x,), (a,)) == (x,)

    def test_deterministic(self):
        a, b, x = atoms("a", "b", "x")
        action = (Assign(1, 1), Assign(2, 1))
        first = apply_action(action, (x,), (a, b))
        assert first == apply_action(action, (x,), (a, b)) == (x, x)

    def test_out_of_bounds(self):
        with pytest.raises(StructureError):
            apply_action((Assign(2, 1),), (Atom("x"),), (Atom("a"),))


class TestStep:
    def test_list_cycle_branches(self):
        lc = list_cycle_automaton()
        nxt, v0, v1 = atoms("next", "v0", "v1")
        got = step(lc, Configuration("q0", (nxt, v0, v0)), (nxt, v0, v1))
        assert got == {
            Configuration("q0", (nxt, v0, v1)),
            Configuration("q1", (nxt, v0, v1)),
        }

    def test_three_letter_final_step(self):
        t3 = three_letter_automaton()
        one, two, three = atoms("1", "2", "3")
        got = step(t3, Configuration("3", (one, two)), (three,))
        assert got == {Configuration("4", (one, two))}

    def test_failing_guard_gives_empty(self):
        t3 = three_letter_automaton()
        one, two = atoms("1", "2")
        assert step(t3, Configuration("3", (one, two)), (one,)) == set()

    def test_results_stay_inside_the_automaton(self):
        for seed in range(40):
            a = random_topl(seed)
            rng = random.Random(seed)
            c = Configuration(a.initial, a.store)
            for _ in range(4):
                letter = tuple(rng.choice(UNIVERSE) for _ in range(a.arity))
                succ = step(a, c, letter)
                for s in succ:
                    assert s.state in a.states
                    assert len(s.store) == a.registers
                if not succ:
                    break
                c = sorted(succ, key=repr)[0]


class TestAccepts:
    def test_three_letter_golden(self):
        t3 = three_letter_automaton()
        one, two, three = atoms("1", "2", "3")
        assert accepts(t3, ((one,), (two,), (three,)))
        assert not accepts(t3, ((one,), (two,), (one,)))

    def test_list_cycle_golden(self):
        lc = list_cycle_automaton()
        nxt, v0, v1, v2 = atoms("next", "v0", "v1", "v2")
        assert accepts(lc, ((nxt, v0, v1), (nxt, v1, v0)))
        assert not accepts(lc, ((nxt, v0, v1), (nxt, v1, v2)))

    def test_empty_word_iff_initial_final(self):
        t3 = three_letter_automaton()
        assert not accepts(t3, ())
        relaxed = ToplAutomaton(
            arity=t3.arity, registers=t3.registers, states=t3.states, initial=t3.initial,
            store=t3.store, transitions=t3.transitions, final=t3.final | {"1"},
        )
        assert accepts(relaxed, ())

    def test_agrees_with_path_enumeration(self):
        for seed in range(120):
            a = random_topl(seed)
            for w in all_words(UNIVERSE, a.arity, 3):
                assert accepts(a, w) == brute_accepts(a, w), (seed, w)


class TestValidate:
    """Validation of low-level automata; TestValidateHl reruns every test
    on the same automata lifted to singleton-label high-level ones."""

    lift = staticmethod(lambda a: a)

    def test_golden_automata_are_valid(self):
        assert validate_automaton(self.lift(three_letter_automaton())) == []
        assert validate_automaton(self.lift(list_cycle_automaton())) == []

    def test_unknown_initial_state(self):
        t3 = three_letter_automaton()
        broken = ToplAutomaton(
            arity=1, registers=2, states=t3.states, initial="nope", store=t3.store,
            transitions=t3.transitions, final=t3.final,
        )
        diags = validate_automaton(self.lift(broken))
        assert any("initial state unknown" in d for d in diags)

    def test_register_out_of_range(self):
        broken = ToplAutomaton(
            arity=1, registers=2, states=frozenset({"a", "b"}), initial="a",
            store=(BOTTOM, BOTTOM),
            transitions=(Transition("a", Eq(3, 1), NOP, "b"),),
            final=frozenset({"b"}),
        )
        diags = validate_automaton(self.lift(broken))
        assert any("register index out of range" in d for d in diags)

    def test_negative_register_count(self):
        broken = ToplAutomaton(
            arity=1, registers=-1, states=frozenset({"a"}), initial="a", store=(),
            transitions=(), final=frozenset(),
        )
        diags = validate_automaton(self.lift(broken))
        assert any("register count must be >= 0" in d for d in diags)
        with pytest.raises(StructureError, match="register count"):
            require_valid(self.lift(broken))

    def test_reports_every_violation(self):
        broken = ToplAutomaton(
            arity=1, registers=1, states=frozenset({"a"}), initial="zz",
            store=(),  # wrong length
            transitions=(Transition("a", Eq(1, 2), (Assign(9, 1),), "gone"),),
            final=frozenset({"ghost"}),
        )
        diags = validate_automaton(self.lift(broken))
        assert len(diags) >= 4


class TestValidateHl(TestValidate):
    lift = staticmethod(as_hl)


def test_conjuncts_flattening():
    g = And(And(Eq(1, 1), Neq(2, 1)), Eq(2, 1))
    assert conjuncts(g) == [Eq(1, 1), Neq(2, 1), Eq(2, 1)]
    assert conjuncts(TRUE) == []
    assert conjoin([]) == TRUE
    assert conjoin([Eq(1, 1)]) == Eq(1, 1)


@pytest.mark.parametrize("lift", [lambda a: a, as_hl])
def test_coreachable_ignores_guards(lift):
    # 1 -> 2 -> 3 -> 4 (final); 5 leads to 1, 6 is reached from 1 only.
    t3 = three_letter_automaton()
    a = ToplAutomaton(
        arity=1, registers=2, states=t3.states | {"5", "6"}, initial="1", store=t3.store,
        transitions=t3.transitions + (Transition("5", Eq(1, 1), NOP, "1"), Transition("1", TRUE, NOP, "6")),
        final=t3.final,
    )
    assert coreachable(lift(a)) == {"1", "2", "3", "4", "5"}
    assert coreachable(lift(ToplAutomaton(
        arity=1, registers=2, states=a.states, initial="1", store=t3.store,
        transitions=a.transitions, final=frozenset(),
    ))) == set()


@pytest.mark.parametrize("lift", [lambda a: a, as_hl])
def test_live_registers_read_before_written(lift):
    # 1 -(set 1)-> 2 -(set 2)-> 3 -(neq 1 and neq 2)-> 4: state 3 reads
    # both registers, and each is dead before the transition writing it.
    assert live_registers(lift(three_letter_automaton())) == {"1": set(), "2": {1}, "3": {1, 2}, "4": set()}


@pytest.mark.parametrize("lift", [lambda a: a, as_hl])
def test_live_registers_ignore_transitions_into_dead_states(lift):
    # The only read of register 2 at state 2 leads to a state that
    # cannot reach a final state, which has no entry.
    t3 = three_letter_automaton()
    a = ToplAutomaton(
        arity=1, registers=2, states=t3.states | {"5"}, initial="1", store=t3.store,
        transitions=t3.transitions + (Transition("2", Eq(2, 1), NOP, "5"),), final=t3.final,
    )
    assert live_registers(lift(a)) == {"1": set(), "2": {1}, "3": {1, 2}, "4": set()}
    b = ToplAutomaton(
        arity=1, registers=2, states=a.states, initial="1", store=t3.store,
        transitions=a.transitions, final=t3.final | {"5"},
    )
    assert live_registers(lift(b)) == {"1": {2}, "2": {1, 2}, "3": {1, 2}, "4": set(), "5": set()}


def test_live_registers_follow_label_steps():
    # s -> f assigns register 1 in step 1 and reads registers 1 and 2 in
    # step 2; f's loop reads register 1 in the step that writes it.
    a = HlAutomaton(
        arity=1, registers=2, states=frozenset({"s", "f"}), initial="s", store=(BOTTOM, BOTTOM),
        transitions=(
            HlTransition("s", ((TRUE, (Assign(1, 1),)), (And(Eq(1, 1), Eq(2, 1)), NOP)), "f"),
            HlTransition("f", ((Eq(1, 1), (Assign(1, 1),)),), "f"),
        ),
        final=frozenset({"f"}),
    )
    assert live_registers(a) == {"s": {2}, "f": {1}}
