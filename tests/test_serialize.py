"""JSON round trips and schema stability."""

import enum
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    ab_example,
    automaton_text,
    list_cycle_automaton,
    random_hl,
    random_topl,
    reference_automaton_from_json,
    three_letter_automaton,
)
from topl.core import (
    BOTTOM,
    TRUE,
    And,
    Atom,
    Eq,
    EventId,
    MethodMatch,
    Neq,
    StructureError,
    conjuncts,
    validate_automaton,
)
from topl.properties import compile_property, parse_property
from topl.serialize import (
    automaton_from_json,
    automaton_to_json,
    bundle_from_json,
    bundle_to_json,
    dumps,
    guard_from_json,
    guard_to_json,
    value_from_json,
    value_to_json,
    word_from_json,
    word_to_json,
)
from topl.translate import emptiness


class TestValues:
    def test_forms(self):
        assert value_to_json(Atom("s")) == {"atom": "s"}
        assert value_to_json(BOTTOM) == {"bottom": True}
        assert value_to_json(EventId("call", "m")) == {"event": {"kind": "call", "method": "m"}}

    def test_roundtrip(self):
        for v in (Atom("x"), BOTTOM, EventId("ret", "a.b.c")):
            assert value_from_json(value_to_json(v)) == v

    def test_bad_value(self):
        with pytest.raises(StructureError):
            value_from_json({"number": 3})


class TestGuards:
    def test_roundtrip(self):
        guards = [
            TRUE,
            Eq(1, 2),
            Neq(2, 1),
            And(Eq(1, 1), And(Neq(2, 1), TRUE)),
            MethodMatch(1, "call", ("a.*", "b"), True),
        ]
        for g in guards:
            assert guard_from_json(guard_to_json(g)) == g


class TestAutomata:
    def test_low_level_roundtrip(self):
        for a in (three_letter_automaton(), list_cycle_automaton()):
            assert automaton_from_json(automaton_to_json(a)) == a

    def test_high_level_roundtrip(self):
        ab = ab_example()
        assert automaton_from_json(automaton_to_json(ab)) == ab

    def test_schema_keys(self):
        obj = automaton_to_json(three_letter_automaton())
        assert set(obj) == {"arity", "registers", "states", "initial", "store", "final", "transitions"}
        t = obj["transitions"][0]
        assert set(t) == {"from", "guard", "action", "to"}
        hl = automaton_to_json(ab_example())
        assert set(hl["transitions"][0]) == {"from", "labels", "to"}

    def test_method_guards_load_but_do_not_translate(self):
        aut, _ = compile_property(parse_property("property P\nstart -> error: *.sink(*)\n"))
        loaded = automaton_from_json(automaton_to_json(aut))
        assert loaded == aut
        with pytest.raises(StructureError, match="only eq/neq/true conjunctions are translatable"):
            emptiness(loaded)

    def test_deterministic_dumps(self):
        a = three_letter_automaton()
        assert dumps(automaton_to_json(a)) == dumps(automaton_to_json(three_letter_automaton()))


class TestBundle:
    def test_roundtrip(self):
        src = (
            "property P\n"
            "start -> start: *\n"
            'start -> error: *.sink("bad", X)\n'
        )
        aut, schema = compile_property(parse_property(src))
        aut2, schema2 = bundle_from_json(json.loads(dumps(bundle_to_json(aut, schema))))
        assert aut2 == aut
        assert schema2 == schema

    def test_rejects_non_bundle(self):
        with pytest.raises(StructureError):
            bundle_from_json({"automaton": {}})


class TestWords:
    def test_strings_and_null(self):
        w = word_from_json([["a", "b"], [None, "c"]], 2)
        assert w == ((Atom("a"), Atom("b")), (BOTTOM, Atom("c")))

    def test_arity_checked(self):
        with pytest.raises(StructureError):
            word_from_json([["a", "b"]], 1)

    def test_roundtrip_via_objects(self):
        w = ((Atom("a"),), (EventId("call", "m"),))
        assert word_from_json(json.loads(json.dumps(word_to_json(w))), 1) == w


# Quotes, backslashes, the separators, control and non-ASCII characters
# (a surrogate pair, a lone surrogate, U+2028), and anything.
_TEXT = st.text(st.sampled_from('"\\/]:,{[ \n\t\x00\x1f\x7fé€\U0001f600\ud800\u2028a') | st.characters(),
                max_size=6)
_SCALARS = (st.none() | st.booleans() | st.integers() | st.integers(min_value=2**64)
            | st.integers(max_value=-2**64) | st.floats() | _TEXT)
_DOCUMENTS = st.recursive(
    _SCALARS,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(_TEXT, inner, max_size=4)),
    max_leaves=24,
)


class TestDumps:
    """`dumps` writes exactly what `json.dumps(obj, sort_keys=True,
    indent=2)` writes, and a newline."""

    @staticmethod
    def canonical(obj) -> str:
        return json.dumps(obj, sort_keys=True, indent=2) + "\n"

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(_DOCUMENTS)
    def test_equals_the_json_module(self, obj):
        assert dumps(obj) == self.canonical(obj)

    def test_other_keys_and_subclasses(self):
        class Count(enum.IntEnum):
            ONE = 1

        for obj in ({1: "a", 2: [1.5, float("nan")]}, {"a": {None: Count.ONE}, "b": {True: -0.0, False: 1}},
                    [Atom("x"), Count.ONE, {Atom("k"): ()}], [[{}], [[]], {"": {"": []}}]):
            assert dumps(obj) == self.canonical(obj)
        for obj in ({"a": {1: 2, "b": 3}}, [{(1,): 2}], {"a": {1, 2}}):
            with pytest.raises(TypeError) as mine:
                dumps(obj)
            with pytest.raises(TypeError) as theirs:
                self.canonical(obj)
            assert str(mine.value) == str(theirs.value)


def _loaded(load, obj):
    """What `load` makes of `obj`: the automaton and its canonical text,
    or the type and text of the error it raises."""
    try:
        a = load(obj)
    except Exception as exc:
        return "raises", type(exc), str(exc)
    try:
        text = dumps(automaton_to_json(a))
    except TypeError as exc:  # e.g. state names of mixed types cannot be sorted
        text = str(exc)
    return "loads", type(a), a, text


def _steps(obj, which: str) -> list:
    """The label steps of an automaton's JSON form whose guard is an
    eq/neq atom ("guard") or whose action is not empty ("action")."""
    steps = [l for t in obj["transitions"] for l in t.get("labels", [t])]
    if which == "guard":
        return [l for l in steps if l["guard"]["kind"] in ("eq", "neq")]
    return [l for l in steps if l["action"]]


def _corruptions(obj):
    """Copies of an automaton's JSON form with one field corrupted: an
    unknown state, a store or register count that disagree, an index out
    of range or of another JSON type (a `true` or a `"1"`), a bad guard
    kind, a missing field, an empty label."""
    edits = [
        lambda o: o.update(initial="nowhere"),
        lambda o: o["final"].append("nowhere"),
        lambda o: o["transitions"][-1].update({"to": "nowhere"}),
        lambda o: o["transitions"][0].update({"from": ["s0"]}),
        lambda o: o["store"].append({"atom": "extra"}),
        lambda o: o.update(registers=True if o["registers"] == 1 else "1"),
    ]
    for i in range(len(_steps(obj, "guard"))):
        for field, value in (("reg", obj["registers"] + 1), ("pos", 0), ("reg", "1"), ("reg", True),
                             ("pos", True), ("pos", 1.0), ("kind", "approx")):
            edits.append(lambda o, i=i, f=field, v=value: _steps(o, "guard")[i]["guard"].update({f: v}))
        edits.append(lambda o, i=i: _steps(o, "guard")[i]["guard"].pop("pos"))
    for i in range(len(_steps(obj, "action"))):
        for field, value in (("reg", obj["registers"] + 1), ("pos", obj["arity"] + 1), ("reg", 0), ("pos", 0),
                             ("pos", "1"), ("reg", True)):
            edits.append(lambda o, i=i, f=field, v=value: _steps(o, "action")[i]["action"][0].update({f: v}))
        edits.append(lambda o, i=i: _steps(o, "action")[i]["action"][0].pop("reg"))
    if "labels" in obj["transitions"][0]:
        edits.append(lambda o: o["transitions"][0].update(labels=[]))
        edits.append(lambda o: o["transitions"][0]["labels"].append({"guard": {"kind": "true"}}))
    for edit in edits:
        copy = json.loads(json.dumps(obj))
        edit(copy)
        yield copy


class TestLoaderAgreesWithReference:
    """`automaton_from_json` builds and checks in one walk; on every
    input it must do what building then validating did."""

    @staticmethod
    def agree(obj):
        mine = _loaded(automaton_from_json, obj)
        assert mine == _loaded(reference_automaton_from_json, obj)
        if mine[0] == "loads":
            # What the loader records without `validate_automaton` holds.
            a = mine[2]
            if "_valid" in a.__dict__:
                assert validate_automaton(a) == []
            if "_translatable" in a.__dict__:
                assert all(isinstance(atom, (Eq, Neq)) for t in a.transitions for g, _ in t.labels
                           for atom in conjuncts(g))
        return mine

    @pytest.mark.parametrize("seed", range(40))
    def test_random_automata_and_corruptions(self, seed):
        for a in (random_topl(seed), random_hl(seed), random_hl(seed, max_regs=1, max_label_len=2)):
            obj = automaton_to_json(a)
            assert self.agree(obj)[2] == a
            for corrupted in _corruptions(obj):
                self.agree(corrupted)

    def test_corruptions_fail_as_before(self):
        kinds = ("bad automaton JSON", "invalid automaton", "bad guard", "bad action")
        outcomes = set()
        for seed in range(40):
            for corrupted in _corruptions(automaton_to_json(random_hl(seed))):
                outcome = self.agree(corrupted)
                outcomes.add("loads" if outcome[0] == "loads" else
                             next(k for k in kinds if outcome[2].startswith(k)))
        assert outcomes == {"loads", *kinds}

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(text=automaton_text())
    def test_mutated_files(self, text):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError:
            return
        self.agree(obj)

    def test_deep_conjunction(self):
        # Building a nested guard takes one frame per level, as the
        # per-field loader does, and writing it back one more.
        guard = {"kind": "true"}
        for _ in range(600):
            guard = {"kind": "and", "left": guard, "right": {"kind": "eq", "reg": 1, "pos": 1}}
        obj = automaton_to_json(three_letter_automaton())
        obj["transitions"][0]["guard"] = guard
        mine, reference = (_loaded(load, obj) for load in (automaton_from_json, reference_automaton_from_json))
        assert mine[0] == reference[0] == "loads"
        assert mine[3] == reference[3]  # comparing the guards themselves recurses deeper

    def test_true_index_loads_as_before(self):
        obj = automaton_to_json(three_letter_automaton())
        obj["transitions"][1]["guard"] = {"kind": "eq", "reg": True, "pos": 1}
        a = automaton_from_json(obj)
        assert repr(a.transitions[1].guard) == "Eq(reg=True, pos=1)"
        assert '"reg": true' in dumps(automaton_to_json(a))
