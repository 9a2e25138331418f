"""Translations between automaton flavours, emptiness, closures."""

import hashlib
import itertools
import json
import random
from dataclasses import replace

import pytest

from helpers import (
    UNIVERSE,
    ab_example,
    all_words,
    as_hl,
    atoms,
    brute_hl_accepts,
    language,
    list_cycle_automaton,
    random_hl,
    random_ra,
    random_topl,
    reference_emptiness,
    single_eq_automaton,
    three_letter_automaton,
)
from topl.core import (
    BOTTOM,
    NOP,
    TRUE,
    And,
    Assign,
    Atom,
    Eq,
    EventId,
    MethodMatch,
    Neq,
    StructureError,
    ToplAutomaton,
    Transition,
    accepts,
    coreachable,
    validate_automaton,
)
from topl import core, hl, translate
from topl.cli import main
from topl.hl import HlAutomaton, HlTransition, hl_accepts
from topl.serialize import automaton_from_json, automaton_to_json, dumps
from topl.translate import (
    RegisterAutomaton,
    _split,
    concat,
    emptiness,
    flatten,
    hl_to_topl,
    intersection,
    negation_dnf,
    ra_emptiness,
    register_automaton_diagnostics,
    topl_to_hl,
    topl_to_ra,
    unflatten,
    union,
)


def _letters(*names):
    return tuple((Atom(n),) for n in names)


class TestFlatten:
    def test_pairs(self):
        a, b, c, d = atoms("a", "b", "c", "d")
        assert flatten(((a, b), (c, d))) == ((a,), (b,), (c,), (d,))

    def test_identity_at_arity_one(self):
        a, b = atoms("a", "b")
        assert flatten(((a,), (b,))) == ((a,), (b,))

    def test_triples(self):
        nxt, v0, v1 = atoms("next", "v0", "v1")
        assert flatten(((nxt, v0, v1),)) == ((nxt,), (v0,), (v1,))

    def test_unflatten_roundtrip(self):
        nxt, v0, v1 = atoms("next", "v0", "v1")
        w = ((nxt, v0, v1), (nxt, v1, v0))
        assert unflatten(flatten(w), 3) == w
        with pytest.raises(StructureError):
            unflatten(_letters("a", "b"), 3)


class TestToplToRa:
    def test_three_letter_register_law_and_agreement(self):
        t3 = three_letter_automaton()
        ra = topl_to_ra(t3)
        assert isinstance(ra, RegisterAutomaton)
        assert ra.registers == 2 * t3.registers + 1 == 5
        univ = atoms("1", "2", "3")
        src = language(t3, univ, 3)
        flat = frozenset(flatten(w) for w in src)
        got = language(ra, univ, 3)
        assert {w for w in all_words(univ, 1, 3) if w in flat} == {
            w for w in all_words(univ, 1, 3) if w in got
        }

    def test_empty_language_preserved(self):
        t3 = three_letter_automaton()
        dead = ToplAutomaton(
            arity=1, registers=2, states=t3.states, initial=t3.initial, store=t3.store,
            transitions=t3.transitions, final=frozenset(),
        )
        ra = topl_to_ra(dead)
        assert (len(ra.states), ra.transitions, ra.final) == (1, (), frozenset())
        assert ra.registers == 5
        assert ra_emptiness(ra) is None
        assert emptiness(dead) is None

    def test_dead_registers_are_not_simulated(self):
        # Both registers are written before they are read, so the initial
        # state simulates neither.
        ra = topl_to_ra(three_letter_automaton())
        assert ra.initial == "1|0.0"
        assert (len(ra.states), len(ra.transitions)) == (32, 141)

    def test_every_state_is_co_reachable(self):
        lone, cut = [], []
        for seed in range(200):
            a = random_topl(seed)
            if a.initial not in coreachable(a):
                cut.append(seed)
            ra = topl_to_ra(a)
            if set(ra.states) != coreachable(ra):
                # Only the lone initial state of an empty language.
                assert ra.states == {ra.initial} and not ra.transitions, seed
                assert ra_emptiness(ra) is None, seed
                lone.append(seed)
        # Seed 188's initial state reaches a final state only through a
        # guard that contradicts itself.
        assert lone == sorted(cut + [188])

    def test_cut_and_uncut_inputs_agree(self):
        # Translating `a` or its co-reachable part gives register automata
        # of the same size and the same emptiness witness.
        cut_any = False
        for seed in range(200):
            a = random_topl(seed)
            live = coreachable(a)
            if a.initial not in live or len(live) == len(a.states):
                continue
            cut_any = True
            part = replace(a, states=frozenset(live), transitions=tuple(t for t in a.transitions if t.target in live))
            ra, ra_part = topl_to_ra(a), topl_to_ra(part)
            sizes = [(len(r.states), len(r.transitions), len(r.final)) for r in (ra, ra_part)]
            assert sizes[0] == sizes[1], seed
            assert ra_emptiness(ra) == ra_emptiness(ra_part), seed
        assert cut_any

    def test_list_cycle_cross_simulation(self):
        lc = list_cycle_automaton()
        ra = topl_to_ra(lc)
        assert ra.registers == 7
        nxt, v0, v1, v2 = atoms("next", "v0", "v1", "v2")
        assert accepts(ra, flatten(((nxt, v0, v1), (nxt, v1, v0))))
        assert not accepts(ra, flatten(((nxt, v0, v1), (nxt, v1, v2))))

    def test_random_differential(self):
        for seed in range(40):
            a = random_topl(seed)
            ra = topl_to_ra(a)
            assert ra.registers == 2 * a.registers + 1
            assert register_automaton_diagnostics(ra) == []
            max_len = 3
            src = language(a, UNIVERSE, max_len)
            flat = frozenset(flatten(w) for w in src)
            got = language(ra, UNIVERSE, max_len * a.arity)
            for w in all_words(UNIVERSE, 1, max_len * a.arity):
                assert (w in flat) == (w in got), (seed, w)

    def test_rejects_method_guards(self):
        a = ToplAutomaton(
            arity=1, registers=0, states=frozenset({"a", "b"}), initial="a", store=(),
            transitions=(Transition("a", MethodMatch(1, "call", ("m",)), NOP, "b"),),
            final=frozenset({"b"}),
        )
        with pytest.raises(StructureError):
            topl_to_ra(a)


class TestToplToHl:
    def test_state_law_and_agreement(self):
        t3 = three_letter_automaton()
        h = topl_to_hl(t3)
        assert len(h.states) == len(t3.states) + 1
        univ = atoms("1", "2", "3")
        src = language(t3, univ, 3)
        for w in all_words(univ, 1, 3):
            assert hl_accepts(h, w) == (w in src), w

    def test_true_guard_leaves_sink_unreachable(self):
        a = ToplAutomaton(
            arity=1, registers=0, states=frozenset({"a", "b"}), initial="a", store=(),
            transitions=(Transition("a", TRUE, NOP, "b"),), final=frozenset({"b"}),
        )
        h = topl_to_hl(a)
        (sink,) = h.states - a.states
        assert not [t for t in h.transitions if t.target == sink and t.source == "a"]

    def test_single_eq_no_longer_skips(self):
        low = single_eq_automaton("v")
        h = topl_to_hl(low)
        u, v = atoms("u", "v")
        assert hl_accepts(h, ((v,),))
        assert not hl_accepts(h, ((u,), (v,)))  # the skip is blocked by the sink

    def test_random_differential(self):
        for seed in range(60):
            a = random_topl(seed)
            h = topl_to_hl(a)
            assert len(h.states) == len(a.states) + 1
            src = language(a, UNIVERSE, 3)
            for w in all_words(UNIVERSE, a.arity, 3):
                assert hl_accepts(h, w) == (w in src), (seed, w)

    def test_method_guards_survive(self, tmp_path):
        # A glob, a negated pattern and an eq guard: the sink's guards
        # negate and sort the method atoms too.
        concat = MethodMatch(1, "call", ("*.concat",))
        low = ToplAutomaton(
            arity=2, registers=1, states=frozenset({"s", "t", "f"}), initial="s", store=(Atom("a"),),
            transitions=(
                Transition("s", And(concat, Eq(1, 2)), NOP, "t"),
                Transition("s", MethodMatch(1, "call", ("*.concat",), negated=True), NOP, "s"),
                Transition("t", MethodMatch(1, "ret", ("java.*",)), (Assign(1, 2),), "f"),
                Transition("f", Neq(1, 2), NOP, "f"),
            ),
            final=frozenset({"f"}),
        )
        h = topl_to_hl(low)
        letters = [(EventId(kind, method), v)
                   for kind, method in (("call", "java.lang.String.concat"), ("ret", "java.lang.String.concat"),
                                        ("call", "com.example.Worker.run"))
                   for v in (Atom("a"), Atom("b"), BOTTOM)]
        words = [()] + [tuple(w) for k in (1, 2, 3) for w in itertools.product(letters, repeat=k)]
        assert any(accepts(low, w) for w in words)
        for w in words:
            assert hl_accepts(h, w) == accepts(low, w), w
        src, out = tmp_path / "low.json", tmp_path / "hl.json"
        src.write_text(dumps(automaton_to_json(low)))
        assert main(["translate", str(src), "--to", "hl", "-o", str(out)]) == 0
        assert automaton_from_json(json.loads(out.read_text())) == h


class TestHlToTopl:
    def test_ab_register_law_and_agreement(self):
        ab = ab_example()
        low = hl_to_topl(ab)
        assert low.registers == ab.registers + (ab.max_label_length - 1) * ab.arity == 4
        univ = atoms("A", "B")
        got = language(low, univ, 4)
        for w in all_words(univ, 1, 4):
            assert hl_accepts(ab, w) == (w in got), w

    def test_unit_total_automaton(self):
        low = random_topl(5, max_arity=1)
        extra = tuple(Transition(q, TRUE, NOP, q) for q in sorted(low.states))
        total = ToplAutomaton(
            arity=low.arity, registers=low.registers, states=low.states, initial=low.initial,
            store=low.store, transitions=low.transitions + extra, final=low.final,
        )
        hl = as_hl(total)
        back = hl_to_topl(hl)
        assert back.registers == total.registers
        src = language(total, UNIVERSE, 3)
        got = language(back, UNIVERSE, 3)
        for w in all_words(UNIVERSE, 1, 3):
            assert (w in src) == (w in got), w

    def test_empty_final_set(self):
        ab = ab_example()
        dead = HlAutomaton(
            arity=ab.arity, registers=ab.registers, states=ab.states, initial=ab.initial,
            store=ab.store, transitions=ab.transitions, final=frozenset(),
        )
        low = hl_to_topl(dead)
        assert low.final == frozenset()

    def test_random_differential(self):
        for seed in range(30):
            a = random_hl(seed, max_arity=1)
            low = hl_to_topl(a)
            assert low.registers == a.registers + (a.max_label_length - 1) * a.arity
            got = language(low, UNIVERSE, 4)
            for w in all_words(UNIVERSE, 1, 4):
                assert hl_accepts(a, w) == (w in got), (seed, w)

    def test_random_differential_arity_two(self):
        # One label step writing one register from both letter positions:
        # the smallest such self-loop, and two random automata with one.
        overwrite = HlAutomaton(
            arity=2, registers=1, states=frozenset({"s0"}), initial="s0", store=(Atom("a"),),
            transitions=(HlTransition("s0", ((Eq(1, 2), (Assign(1, 1), Assign(1, 2))),), "s0"),),
            final=frozenset({"s0"}),
        )
        cases = [(seed + 500, random_hl(seed + 500, max_arity=2)) for seed in range(10)]
        cases += [("overwrite", overwrite)]
        cases += [(seed, random_hl(seed, max_arity=2, max_label_len=2)) for seed in (6, 79)]
        for name, a in cases:
            low = hl_to_topl(a)
            got = language(low, UNIVERSE, 3)
            for w in all_words(UNIVERSE, a.arity, 3):
                assert hl_accepts(a, w) == (w in got), (name, w)

    def test_rejects_method_guards(self):
        a = HlAutomaton(
            arity=1, registers=0, states=frozenset({"a", "b"}), initial="a", store=(),
            transitions=(HlTransition("a", ((MethodMatch(1, "call", ("m",)), NOP),), "b"),),
            final=frozenset({"b"}),
        )
        with pytest.raises(StructureError):
            hl_to_topl(a)


class TestRaEmptiness:
    def test_witness_for_three_letter(self):
        ra = topl_to_ra(three_letter_automaton())
        w = ra_emptiness(ra)
        assert w is not None and len(w) == 3
        assert accepts(ra, w)

    def test_no_final_states(self):
        ra = random_ra(3)
        dead = RegisterAutomaton(
            arity=1, registers=ra.registers, states=ra.states, initial=ra.initial,
            store=ra.store, transitions=ra.transitions, final=frozenset(),
        )
        assert ra_emptiness(dead) is None

    def test_initial_final_gives_empty_witness(self):
        ra = random_ra(3)
        live = RegisterAutomaton(
            arity=1, registers=ra.registers, states=ra.states, initial=ra.initial,
            store=ra.store, transitions=ra.transitions, final=ra.final | {ra.initial},
        )
        assert ra_emptiness(live) == ()

    def test_rejects_non_register_labels(self):
        t3 = three_letter_automaton()
        with pytest.raises(StructureError, match="topl_to_ra"):
            ra_emptiness(t3)

    def test_diagnostics_of_shared_guard_objects(self):
        # One guard object on several transitions is classified once, but
        # each transition's action is still judged on its own.
        fresh, eq = And(Neq(1, 1), Neq(2, 1)), Eq(2, 1)
        a = ToplAutomaton(
            arity=1, registers=2, states=frozenset({"p", "q"}), initial="p", store=(BOTTOM, BOTTOM),
            transitions=(
                Transition("q", fresh, NOP, "p"),
                Transition("p", fresh, (Assign(1, 1),), "q"),
                Transition("q", eq, (Assign(2, 1),), "q"),
                Transition("p", eq, NOP, "p"),
                Transition("q", Neq(1, 1), NOP, "q"),
                Transition("q", MethodMatch(1, "call", ("m",)), NOP, "q"),
            ),
            final=frozenset({"q"}),
        )
        assert register_automaton_diagnostics(a) == [
            "transition 0 (q->p): fresh label must store the letter into one register",
            "transition 2 (q->q): eq label must not write any register",
            "transition 4 (q->q): label is neither (fresh, set i) nor (eq i, nop)",
            "transition 5 (q->q): method-pattern guards are not allowed",
        ]

    def test_witnesses_always_replay(self):
        for seed in range(60):
            ra = random_ra(seed)
            w = ra_emptiness(ra)
            if w is not None:
                assert accepts(ra, w), seed


class TestEmptiness:
    def test_ab_example_witness(self):
        ab = ab_example()
        w = emptiness(ab)
        assert w is not None
        assert hl_accepts(ab, w)

    def test_unreachable_final(self):
        a = HlAutomaton(
            arity=1, registers=1, states=frozenset({"a", "b", "c"}), initial="a",
            store=(Atom("v"),),
            transitions=(HlTransition("b", ((TRUE, NOP),), "c"),),
            final=frozenset({"c"}),
        )
        assert emptiness(a) is None

    def test_list_cycle_witness_replays(self):
        lc = list_cycle_automaton()
        w = emptiness(lc)
        assert w is not None
        assert accepts(lc, w)

    def test_same_answers_as_the_uncut_stages(self):
        families = {
            "topl": [random_topl(seed) for seed in range(200)],
            "hl arity 1": [random_hl(seed, max_arity=1, max_label_len=2) for seed in range(100)],
            "hl arity <= 2": [
                random_hl(seed, max_states=3, max_regs=0, max_arity=2, max_label_len=2) for seed in range(100)
            ] + [random_hl(seed, max_regs=1, max_arity=2, max_label_len=1) for seed in range(100)],
        }
        for name, automata in families.items():
            answers = [emptiness(a) for a in automata]
            for i, (a, got) in enumerate(zip(automata, answers)):
                assert got == reference_emptiness(a), (name, i)
            # Each family has answers of both kinds, and automata cut at
            # the start as well as automata only partly co-reachable.
            assert None in answers and any(w is not None for w in answers), name
            assert any(a.initial not in coreachable(a) for a in automata), name
            lows = [hl_to_topl(a) if isinstance(a, HlAutomaton) else a for a in automata]
            lives = [(low, coreachable(low)) for low in lows]
            assert any(low.initial in live and len(live) < len(low.states) for low, live in lives), name
        assert {a.arity for a in families["hl arity <= 2"]} == {1, 2}

    def test_low_level_cut_after_hl_to_topl(self):
        # The hl initial state reaches the final state, but only through
        # a guard no letter satisfies, so the translation has no path
        # from its initial state to a final state.
        a = HlAutomaton(
            arity=1, registers=1, states=frozenset({"s", "f"}), initial="s", store=(Atom("v"),),
            transitions=(HlTransition("s", ((And(Eq(1, 1), Neq(1, 1)), NOP),), "f"),
                         HlTransition("s", ((TRUE, NOP),), "s")),
            final=frozenset({"f"}),
        )
        assert a.initial in coreachable(a)
        low = hl_to_topl(a)
        assert low.initial not in coreachable(low)
        assert emptiness(a) is None
        assert reference_emptiness(a) is None

    def test_loaded_automaton_is_validated_once(self, monkeypatch):
        # Loading checks as it builds and records the success, so neither
        # the load nor `emptiness` and `hl_to_topl` validate the loaded
        # automaton.  Only `hl_to_topl`'s output, a new automaton, is
        # validated.
        checked = []
        real = core.validate_automaton

        def counted(a):
            checked.append(a)
            return real(a)

        monkeypatch.setattr(core, "validate_automaton", counted)
        for seed in range(14):  # answers of both kinds, some cut before `hl_to_topl`
            del checked[:]
            a = automaton_from_json(automaton_to_json(random_hl(seed)))
            emptiness(a)
            assert not any(b is a for b in checked), seed
            assert len(checked) <= 1, seed
        broken = HlAutomaton(
            arity=1, registers=1, states=frozenset({"a"}), initial="a", store=(BOTTOM,),
            transitions=(HlTransition("a", ((Eq(3, 1), NOP),), "a"),), final=frozenset({"a"}),
        )
        for _ in range(2):  # a failure is not recorded
            with pytest.raises(StructureError, match="register index out of range"):
                emptiness(broken)

    def test_checks_come_before_the_cut(self, tmp_path, capsys):
        # Neither automaton can reach its final state, yet both are
        # rejected as before, not answered "empty".
        method = HlAutomaton(
            arity=1, registers=0, states=frozenset({"a", "b"}), initial="a", store=(),
            transitions=(HlTransition("a", ((MethodMatch(1, "call", ("m",)), NOP),), "a"),),
            final=frozenset({"b"}),
        )
        assert method.initial not in coreachable(method)
        with pytest.raises(StructureError, match="only eq/neq/true conjunctions are translatable"):
            emptiness(method)
        aut = tmp_path / "method.json"
        aut.write_text(dumps(automaton_to_json(method)))
        assert main(["emptiness", str(aut)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

        out_of_range = ToplAutomaton(
            arity=1, registers=1, states=frozenset({"a", "b"}), initial="a", store=(BOTTOM,),
            transitions=(Transition("a", Eq(3, 1), NOP, "a"),), final=frozenset({"b"}),
        )
        assert out_of_range.initial not in coreachable(out_of_range)
        with pytest.raises(StructureError, match=r"register index out of range \(3 not in 1..1\)"):
            emptiness(out_of_range)

    def test_initial_final_is_answered_before_any_stage(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("a stage ran")

        for name in ("hl_to_topl", "topl_to_ra", "ra_emptiness"):
            monkeypatch.setattr(translate, name, forbidden)
        hl = replace(ab_example(), final=frozenset({"1", "3"}))
        low = replace(list_cycle_automaton(), final=frozenset({"q0"}))
        for a in (hl, low):
            assert emptiness(a) == ()

    def test_initial_final_checks_come_first(self, tmp_path, capsys):
        method = HlAutomaton(
            arity=1, registers=0, states=frozenset({"a"}), initial="a", store=(),
            transitions=(HlTransition("a", ((MethodMatch(1, "call", ("m",)), NOP),), "a"),),
            final=frozenset({"a"}),
        )
        with pytest.raises(StructureError, match="only eq/neq/true conjunctions are translatable"):
            emptiness(method)
        aut = tmp_path / "method.json"
        aut.write_text(dumps(automaton_to_json(method)))
        assert main(["emptiness", str(aut)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_each_stage_runs_once(self, monkeypatch):
        # The benchmark's tracer wraps exactly these module attributes.
        a = ab_example()
        assert a.initial in coreachable(a) and a.initial not in a.final
        calls = {}
        for name in ("hl_to_topl", "topl_to_ra", "ra_emptiness"):
            def counted(x, name=name, real=getattr(translate, name)):
                calls[name] = calls.get(name, 0) + 1
                return real(x)

            monkeypatch.setattr(translate, name, counted)
        # The witness replay matches labels and evaluates guards through
        # `hl`'s own names, which the tracer counts.
        for name in ("match_prefix", "eval_guard"):
            def counted(*args, name=name, real=getattr(hl, name)):
                calls[name] = calls.get(name, 0) + 1
                return real(*args)

            monkeypatch.setattr(hl, name, counted)
        assert emptiness(a) is not None
        assert {name: calls[name] for name in ("hl_to_topl", "topl_to_ra", "ra_emptiness")} == {
            "hl_to_topl": 1, "topl_to_ra": 1, "ra_emptiness": 1}
        assert calls["match_prefix"] > 0 and calls["eval_guard"] > 0

    def test_shortest_witnesses_on_random_hl(self):
        # One register keeps the uncut stages quick: at two registers and
        # three-letter labels they take up to a minute on one automaton.
        families = [random_hl(seed, max_regs=1, max_arity=1, max_label_len=3) for seed in range(300)]
        families += [random_hl(seed, max_regs=1, max_arity=2, max_label_len=2) for seed in range(300)]
        universe = UNIVERSE + atoms("x")
        empty = split_words = 0
        for i, a in enumerate(families):
            got, want = emptiness(a), reference_emptiness(a)
            assert (got is None) == (want is None), i
            if got is None:
                empty += 1
                continue
            split_words += bool(got) and a.max_label_length > 1
            assert len(got) == len(want) and hl_accepts(a, got), i
            if 0 < len(got) <= (3 if a.arity == 1 else 2):
                assert brute_hl_accepts(a, got), i
                shorter = all_words(universe if a.arity == 1 else UNIVERSE, a.arity, len(got) - 1)
                assert not any(brute_hl_accepts(a, w) for w in shorter), i
        # Both answers occur, and dozens of non-empty witnesses come from
        # automata that were split.
        assert empty > 100 and split_words > 30

    def test_split_witness_may_differ_from_the_uncut_stages(self):
        # An `emptiness-d2` corpus automaton (seed 3, #579): both witnesses
        # are shortest and replay, but they are not the same word.
        a = automaton_from_json({
            "arity": 1, "final": ["s0"], "initial": "s1", "registers": 1, "states": ["s0", "s1"],
            "store": [{"atom": "b"}],
            "transitions": [
                {"from": "s0", "to": "s1", "labels": [{"action": [], "guard": {
                    "kind": "and", "left": {"kind": "eq", "pos": 1, "reg": 1},
                    "right": {"kind": "neq", "pos": 1, "reg": 1}}}]},
                {"from": "s1", "to": "s0", "labels": [
                    {"action": [{"pos": 1, "reg": 1}], "guard": {"kind": "eq", "pos": 1, "reg": 1}}]},
                {"from": "s0", "to": "s1", "labels": [
                    {"action": [{"pos": 1, "reg": 1}, {"pos": 1, "reg": 1}],
                     "guard": {"kind": "neq", "pos": 1, "reg": 1}},
                    {"action": [{"pos": 1, "reg": 1}], "guard": {"kind": "true"}}]},
                {"from": "s1", "to": "s0", "labels": [
                    {"action": [{"pos": 1, "reg": 1}, {"pos": 1, "reg": 1}], "guard": {"kind": "true"}}]},
            ],
        })
        got, uncut = emptiness(a), reference_emptiness(a)
        assert got == ((Atom("b"),),)
        assert uncut == ((Atom("~w1"),),)
        assert hl_accepts(a, got) and hl_accepts(a, uncut)


class TestSplit:
    def test_one_letter_labels_give_the_same_automaton(self):
        a = random_hl(1, max_label_len=1)
        assert _split(a) is a

    def test_one_transition_per_label_step(self):
        for seed in range(40):
            a = random_hl(seed, max_arity=2, max_label_len=3)
            b = _split(a)
            assert b.max_label_length == 1
            assert len(b.transitions) == sum(len(t.labels) for t in a.transitions), seed
            assert [step for t in b.transitions for step in t.labels] == [
                step for t in a.transitions for step in t.labels
            ], seed
            assert b.final == a.final and b.initial == a.initial and b.store == a.store
            assert b.states >= a.states and len(b.states - a.states) == len(b.transitions) - len(a.transitions)
            assert validate_automaton(b) == [], seed
            assert hl_to_topl(b).registers == a.registers, seed

    def test_intermediate_names_never_clash(self):
        a = ab_example()
        names = _split(a).states - a.states
        assert len(names) == 2 and not names & a.final
        # A state that already has a generated name pushes the names aside.
        taken = replace(a, states=a.states | names)
        fresh = _split(taken).states - taken.states
        assert len(fresh) == 2 and not fresh & taken.states
        assert emptiness(taken) == emptiness(a)

    def test_recorded_checks_are_inherited(self):
        a = ab_example()
        assert "_valid" not in _split(a).__dict__  # nothing recorded, nothing inherited
        translate._require_translatable(a)
        b = _split(a)
        assert b.__dict__.get("_valid") and b.__dict__.get("_translatable")


def _single_letter_automaton(name="k"):
    """Accepts exactly one fixed one-letter word."""
    return ToplAutomaton(
        arity=1, registers=1, states=frozenset({"i", "f"}), initial="i",
        store=(Atom(name),), transitions=(Transition("i", Eq(1, 1), NOP, "f"),),
        final=frozenset({"f"}),
    )


class TestClosures:
    def test_union_golden(self):
        t3 = three_letter_automaton()
        k = _single_letter_automaton("a")
        u = union(t3, k)
        lu = language(u, UNIVERSE, 3)
        l3 = language(t3, UNIVERSE, 3)
        lk = language(k, UNIVERSE, 3)
        for w in all_words(UNIVERSE, 1, 3):
            assert (w in lu) == ((w in l3) or (w in lk)), w

    def test_intersection_idempotent_on_language(self):
        t3 = three_letter_automaton()
        both = intersection(t3, t3)
        li = language(both, UNIVERSE, 3)
        l3 = language(t3, UNIVERSE, 3)
        for w in all_words(UNIVERSE, 1, 3):
            assert (w in li) == (w in l3), w

    def test_concat_split_enumeration(self):
        t3 = three_letter_automaton()
        k = _single_letter_automaton("b")
        c = concat(t3, k)
        lc = language(c, UNIVERSE, 4)
        l3 = language(t3, UNIVERSE, 4)
        lk = language(k, UNIVERSE, 4)
        for w in all_words(UNIVERSE, 1, 4):
            want = any(w[:i] in l3 and w[i:] in lk for i in range(len(w) + 1))
            assert (w in lc) == want, w

    def test_random_equivalences(self):
        for seed in range(0, 40, 2):
            a = random_topl(seed, max_arity=1)
            b = random_topl(seed + 1, max_arity=1)
            if a.arity != b.arity:
                continue
            la = language(a, UNIVERSE, 3)
            lb = language(b, UNIVERSE, 3)
            lu = language(union(a, b), UNIVERSE, 3)
            li = language(intersection(a, b), UNIVERSE, 3)
            lc = language(concat(a, b), UNIVERSE, 3)
            for w in all_words(UNIVERSE, 1, 3):
                assert (w in lu) == ((w in la) or (w in lb)), (seed, "union", w)
                assert (w in li) == ((w in la) and (w in lb)), (seed, "inter", w)
                want = any(w[:i] in la and w[i:] in lb for i in range(len(w) + 1))
                assert (w in lc) == want, (seed, "concat", w)

    def test_empty_word_conventions(self):
        accept_eps = ToplAutomaton(
            arity=1, registers=0, states=frozenset({"i"}), initial="i", store=(),
            transitions=(), final=frozenset({"i"}),
        )
        k = _single_letter_automaton("a")
        assert accepts(union(accept_eps, k), ())
        assert not accepts(union(k, k), ())
        assert accepts(intersection(accept_eps, accept_eps), ())
        # concat with an epsilon-accepting right operand keeps left finals
        c = concat(k, accept_eps)
        assert accepts(c, ((Atom("a"),),))
        c2 = concat(accept_eps, k)
        assert accepts(c2, ((Atom("a"),),))

    def test_arity_mismatch(self):
        t3 = three_letter_automaton()
        lc = list_cycle_automaton()
        with pytest.raises(StructureError):
            union(t3, lc)


# sha256 of the serialized `topl_to_ra(random_topl(seed))` for seeds
# 0-99, one per line: pins the bytes `translate --to ra` writes.  Their
# register automata have 573 states and 2,065 transitions in all.
TOPL_TO_RA_SHA256 = "3e06f34b8b0a5a208925a342ba44de28b385bc172ab27782f46f5676a1db9789"


class TestDeterminism:
    def test_topl_to_ra_bytes_are_pinned(self):
        text = "\n".join(dumps(automaton_to_json(topl_to_ra(random_topl(seed)))) for seed in range(100))
        assert hashlib.sha256(text.encode()).hexdigest() == TOPL_TO_RA_SHA256

    def test_translations_are_reproducible(self):
        s1 = dumps(automaton_to_json(topl_to_ra(three_letter_automaton())))
        s2 = dumps(automaton_to_json(topl_to_ra(three_letter_automaton())))
        assert s1 == s2
        h1 = dumps(automaton_to_json(hl_to_topl(ab_example())))
        h2 = dumps(automaton_to_json(hl_to_topl(ab_example())))
        assert h1 == h2
        p1 = dumps(automaton_to_json(topl_to_hl(list_cycle_automaton())))
        p2 = dumps(automaton_to_json(topl_to_hl(list_cycle_automaton())))
        assert p1 == p2


def test_negation_dnf():
    assert negation_dnf([]) == [()]
    assert negation_dnf([TRUE]) == []
    got = negation_dnf([Eq(1, 1), Neq(2, 1)])
    assert got == [(Eq(2, 1), Neq(1, 1))]
    # contradictory combinations are pruned
    got = negation_dnf([Eq(1, 1), Neq(1, 1)])
    assert got == []
