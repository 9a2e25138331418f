"""Property language: parsing, well-formedness, compilation."""

import pytest

from test_acceptance import TAINT_SANITIZED
from test_monitor import HAS_NEXT, REOPEN, UNSAFE_ITERATOR
from topl.core import BOTTOM, TRUE, Atom, Eq, EventId, MethodMatch, Neq, conjuncts, validate_automaton
from topl.hl import hl_accepts
from topl.properties import (
    ANY_ARGS,
    ANY_EVENT,
    Bind,
    Call,
    CallRet,
    EventSchema,
    Literal,
    NotRead,
    PropertySyntaxError,
    Read,
    Ret,
    WILDCARD,
    Wildcard,
    check_well_formed,
    compile_property,
    is_well_formed,
    parse_property,
)

TAINT = """\
property Taint
  prefix <javax.servlet.http.HttpServletRequest>
  prefix <java.lang.String>
  prefix <java.sql.Statement>
  start -> start:       *
  start -> tracking:    X := *.getParameter[*]
  tracking -> tracking: *
  tracking -> tracking: X := x.concat(*)
  tracking -> tracking: X := *.concat(x)
  tracking -> error:    *.executeQuery(x)
"""

LITERALS = """\
property Literals
  start -> start: *
  start -> one:   F := *.open("config")
  one -> two:     G := *.open("log")
  two -> error:   f.write(g, "config")
"""


class TestParse:
    def test_taint_listing(self):
        ast = parse_property(TAINT)
        assert ast.name == "Taint"
        assert len(ast.prefixes) == 3
        assert len(ast.transitions) == 6
        assert ast.transitions[0].label == ANY_EVENT
        bind = ast.transitions[1].label
        assert isinstance(bind, CallRet)
        assert bind.result == Bind("x")
        assert bind.receiver == WILDCARD
        assert bind.args is ANY_ARGS

    def test_bare_call_with_wildcard_receiver(self):
        ast = parse_property("property P\nstart -> error: *.executeQuery(x)")
        label = ast.transitions[0].label
        assert isinstance(label, Call)
        assert label.receiver == WILDCARD
        assert label.args == (Read("x"),)
        assert label.method.pattern == "executeQuery"

    def test_callret_with_read_receiver(self):
        ast = parse_property("property P\na -> b: X := c.iterator()")
        label = ast.transitions[0].label
        assert isinstance(label, CallRet)
        assert label.result == Bind("x")
        assert label.receiver == Read("c")
        assert label.args == ()

    def test_ret_form(self):
        ast = parse_property("property P\na -> b: ret X := *.iterator")
        label = ast.transitions[0].label
        assert isinstance(label, Ret)
        assert label.result == Bind("x")
        assert label.receiver == WILDCARD

    def test_pattern_forms(self):
        ast = parse_property('property P\na -> b: m(X, y, !z, "lit", *)')
        label = ast.transitions[0].label
        assert label.args == (Bind("x"), Read("y"), NotRead("z"), Literal(Atom("lit")), WILDCARD)

    def test_negated_method(self):
        ast = parse_property("property P\na -> b: (!sanitize)(*)")
        label = ast.transitions[0].label
        assert isinstance(label, Call)
        assert label.method.negated and label.method.pattern == "sanitize"

    def test_comments_and_blank_lines(self):
        ast = parse_property("# heading\nproperty P\n\n  # note\na -> b: *  # trailing\n")
        assert len(ast.transitions) == 1

    def test_syntax_errors_carry_line_numbers(self):
        with pytest.raises(PropertySyntaxError) as err:
            parse_property("property P\nstart -> error\n")
        assert "line 2" in str(err.value)
        with pytest.raises(PropertySyntaxError):
            parse_property("prefix <x>\n")
        with pytest.raises(PropertySyntaxError):
            parse_property("property P\na -> b: ??\n")

    def test_syntax_errors_carry_columns(self):
        with pytest.raises(PropertySyntaxError) as err:
            parse_property("property P\na -> b: X := ?bad?(x)\n")
        assert err.value.line == 2
        assert err.value.column == 9


class TestWellFormed:
    def test_taint_is_well_formed(self):
        assert is_well_formed(check_well_formed(parse_property(TAINT)))

    def test_double_bind_rejected(self):
        ast = parse_property("property P\nstart -> error: X := *.concat(X)")
        diags = check_well_formed(ast)
        assert any("more than one binding" in d for d in diags)

    def test_read_before_bind_rejected(self):
        ast = parse_property("property P\nstart -> error: *.sink(x)")
        diags = check_well_formed(ast)
        assert any("reads 'x' before any binding" in d for d in diags)

    def test_bind_on_one_path_only_rejected(self):
        ast = parse_property(
            "property P\n"
            "start -> mid: *\n"
            "start -> mid: X := *.source[*]\n"
            "mid -> error: *.sink(x)\n"
        )
        diags = check_well_formed(ast)
        assert any("reads 'x'" in d for d in diags)

    def test_callret_may_read_what_its_call_half_bound(self):
        ast = parse_property("property P\nstart -> error: x := *.dup(X)")
        assert is_well_formed(check_well_formed(ast))

    def test_error_outgoing_is_warning_only(self):
        ast = parse_property("property P\nstart -> error: *\nerror -> error: *\n")
        diags = check_well_formed(ast)
        assert any(d.startswith("warning:") for d in diags)
        assert is_well_formed(diags)

    def test_missing_start_reported(self):
        ast = parse_property("property P\na -> error: *\n")
        assert any("start" in d for d in check_well_formed(ast))

    def test_mixed_arity_is_flagged(self):
        ast = parse_property(
            "property P\nstart -> a: X := *.m(*)\na -> error: *.m(x, x)\n"
        )
        diags = check_well_formed(ast)
        assert any("arities" in d and d.startswith("warning:") for d in diags)
        assert is_well_formed(diags)


class TestCompile:
    def test_taint_automaton_shape(self):
        aut, schema = compile_property(parse_property(TAINT))
        assert aut.max_label_length == 2
        assert aut.initial == "start"
        assert aut.final == frozenset({"error"})
        assert schema.arity == 2
        assert aut.arity == schema.width == 4
        assert schema.variables == (("x", 1),)
        assert validate_automaton(aut) == []

    def test_taint_trace_reaches_error(self):
        aut, schema = compile_property(parse_property(TAINT))
        from topl.monitor import Event, encode_event

        word = tuple(
            encode_event(e, schema)
            for e in (
                Event("call", "getParameter", (Atom("req"), Atom("p"))),
                Event("ret", "getParameter", (Atom("v1"),)),
                Event("call", "java.sql.Statement.executeQuery", (Atom("stmt"), Atom("v1"))),
            )
        )
        assert hl_accepts(aut, word)
        # replacing the tainted argument breaks the match
        clean = word[:2] + (
            encode_event(Event("call", "executeQuery", (Atom("stmt"), Atom("other"))), schema),
        )
        assert not hl_accepts(aut, clean)

    def test_prefix_expansion_in_method_guards(self):
        aut, _ = compile_property(parse_property(TAINT))
        bind = next(t for t in aut.transitions if t.target == "tracking" and len(t.labels) == 2)
        guard = bind.labels[0][0]
        mm = [g for g in conjuncts(guard) if isinstance(g, MethodMatch)]
        assert mm and set(mm[0].patterns) == {
            "getParameter",
            "javax.servlet.http.HttpServletRequest.getParameter",
            "java.lang.String.getParameter",
            "java.sql.Statement.getParameter",
        }

    def test_trivial_error_property(self):
        aut, schema = compile_property(parse_property("property P\nstart -> error: *"))
        from topl.monitor import Event, encode_event

        letter = encode_event(Event("call", "anything", ()), schema)
        assert hl_accepts(aut, (letter,))
        assert not hl_accepts(aut, ())

    def test_constants_are_never_written(self):
        aut, _ = compile_property(parse_property(LITERALS))
        const_regs = {reg for reg, v in enumerate(aut.store, start=1) if v != BOTTOM}
        assert const_regs
        for t in aut.transitions:
            for _, act in t.labels:
                for asg in act:
                    assert asg.reg not in const_regs

    def test_constant_registers_preloaded(self):
        aut, schema = compile_property(parse_property(LITERALS))
        assert not any(isinstance(v, EventId) for v in aut.store)
        # variables first, starting out as the dummy value; then one
        # register per distinct literal, holding it
        assert [schema.register_of(v) for v in ("f", "g")] == [1, 2]
        assert aut.store == (BOTTOM, BOTTOM, Atom("config"), Atom("log"))
        literal_regs = {
            atom.reg
            for t in aut.transitions
            for g, _ in t.labels
            for atom in conjuncts(g)
            if isinstance(atom, Eq) and atom.reg > 2
        }
        assert literal_regs == {3, 4}

    def test_label_lengths_one_or_two(self):
        aut, _ = compile_property(parse_property(TAINT))
        lengths = {len(t.labels) for t in aut.transitions}
        assert lengths <= {1, 2}
        assert 2 in lengths  # the call-return labels

    def test_literal_patterns_use_constant_registers(self):
        aut, _ = compile_property(
            parse_property('property P\nstart -> error: *.open("config")')
        )
        assert aut.store == (Atom("config"),)

    def test_recompilation_is_identical(self):
        a1 = compile_property(parse_property(TAINT))
        a2 = compile_property(parse_property(TAINT))
        assert a1 == a2

    def test_ill_formed_property_rejected(self):
        from topl.core import StructureError

        with pytest.raises(StructureError):
            compile_property(parse_property("property P\nstart -> error: *.sink(x)"))


@pytest.mark.parametrize("source, registers", [
    (TAINT, 1), (TAINT_SANITIZED, 1), (UNSAFE_ITERATOR, 3), (HAS_NEXT, 1), (REOPEN, 1),
], ids=["Taint", "TaintSanitized", "UnsafeIterator", "HasNext", "Reopen"])
def test_every_compiled_register_is_read(source, registers):
    aut, _ = compile_property(parse_property(source))
    read = {
        atom.reg
        for t in aut.transitions
        for g, _ in t.labels
        for atom in conjuncts(g)
        if isinstance(atom, (Eq, Neq))
    }
    assert aut.registers == registers
    assert read == set(range(1, registers + 1))
