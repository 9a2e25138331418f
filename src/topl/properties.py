"""Textual property language: parser, well-formedness checks, compiler.

A property is a list of transition statements between named vertices,
with distinguished ``start`` and ``error`` vertices.  Labels describe
method calls and returns with patterns over their receiver, arguments
and result:

    property Taint
      prefix <java.lang.String>
      start -> start:       *
      start -> tracking:    X := *.getParameter[*]
      tracking -> tracking: X := x.concat(*)
      tracking -> error:    *.executeQuery(x)

Uppercase patterns bind a property variable, lowercase patterns read it,
``!v`` requires a different value, quoted strings match literal values,
``*`` matches anything.  ``R := recv.m(...)`` couples a call with its
return (no event in between); ``call recv.m(...)`` and the bare form
``recv.m(...)`` match the call event alone; ``ret R := *.m`` matches the
return event alone.  A method position also accepts ``(!name)``,
matching any method other than ``name``.

Compilation targets a high-level automaton over letters of width n+2
(event id, return slot, n argument slots, receiver first); see
``EventSchema`` for the register layout.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Union

from .core import (
    BOTTOM,
    NOP,
    TRUE,
    Assign,
    Atom,
    Eq,
    MethodMatch,
    Neq,
    StructureError,
    Value,
    conjoin,
    conjuncts,
    require_valid,
)
from .hl import HlAutomaton, HlTransition


class PropertySyntaxError(ValueError):
    """Raised on malformed property text, with line and column."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


# ---------------------------------------------------------------------------
# Patterns and labels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Bind:
    """Uppercase pattern: matches anything, writes the variable."""

    var: str  # canonical lower-case name


@dataclass(frozen=True)
class Read:
    """Lowercase pattern: matches only the variable's current value."""

    var: str


@dataclass(frozen=True)
class NotRead:
    """!v pattern: matches every value except the variable's."""

    var: str


@dataclass(frozen=True)
class Literal:
    """Quoted pattern: matches exactly one value."""

    value: Value


@dataclass(frozen=True)
class Wildcard:
    pass


WILDCARD = Wildcard()

Pattern = Union[Bind, Read, NotRead, Literal, Wildcard]


@dataclass(frozen=True)
class AnyArgs:
    """[*]: any arguments, any arity; contributes no argument guards."""


ANY_ARGS = AnyArgs()


@dataclass(frozen=True)
class MethodRef:
    """Method name pattern as written, before prefix expansion."""

    pattern: str
    negated: bool = False


@dataclass(frozen=True)
class Call:
    method: MethodRef
    receiver: Pattern
    args: object  # tuple of Pattern, or ANY_ARGS


@dataclass(frozen=True)
class Ret:
    result: Pattern
    method: MethodRef
    receiver: Pattern


@dataclass(frozen=True)
class CallRet:
    result: Pattern
    method: MethodRef
    receiver: Pattern
    args: object


@dataclass(frozen=True)
class AnyEvent:
    pass


ANY_EVENT = AnyEvent()

PropLabel = Union[Call, Ret, CallRet, AnyEvent]


@dataclass(frozen=True)
class PropertyTransition:
    source: str
    target: str
    label: PropLabel
    line: int


@dataclass(frozen=True)
class PropertyAst:
    name: str
    prefixes: tuple  # tuple[str, ...]
    transitions: tuple  # tuple[PropertyTransition, ...]

    def vertices(self) -> list:
        seen = []
        for t in self.transitions:
            for v in (t.source, t.target):
                if v not in seen:
                    seen.append(v)
        return seen


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
_RECV = rf"(?:\*|!{_IDENT}|{_IDENT}|\"[^\"]*\")"
_TRANSITION_RE = re.compile(rf"^({_IDENT})\s*->\s*({_IDENT})\s*:\s*(.+)$")
_PROPERTY_RE = re.compile(rf"^property\s+({_IDENT})$")
_PREFIX_RE = re.compile(r"^prefix\s+<([^<>\s]+)>$")
_RECV_SPLIT_RE = re.compile(rf"^({_RECV})\.(.+)$")
_METHOD_RE = re.compile(r"^[A-Za-z0-9_.*]+$")
_NEG_METHOD_RE = re.compile(r"^\(\s*!\s*([A-Za-z0-9_.*]+)\s*\)$")
_CALLEXPR_RE = re.compile(r"^(.*)?\s*(\[\*\]|\((.*)\))$")
_RET_RE = re.compile(r"^ret\s+(.+?)\s*:=\s*(.+)$")
_ASSIGN_RE = re.compile(r"^(.+?)\s*:=\s*(.+)$")


def _parse_pattern(text: str, line: int, column: int = 1) -> Pattern:
    text = text.strip()
    if text == "*":
        return WILDCARD
    if text.startswith('"') and text.endswith('"') and len(text) >= 2:
        return Literal(Atom(text[1:-1]))
    if text.startswith("!"):
        name = text[1:].strip()
        if not re.fullmatch(_IDENT, name):
            raise PropertySyntaxError(f"bad pattern {text!r}", line, column)
        return NotRead(name.lower())
    if not re.fullmatch(_IDENT, text):
        raise PropertySyntaxError(f"bad pattern {text!r}", line, column)
    if text[0].isupper():
        return Bind(text.lower())
    return Read(text.lower())


def _parse_methodref(text: str, line: int, column: int = 1):
    """Split `recv.method` on the first dot; a missing receiver means a
    static call and is treated as a wildcard receiver."""
    text = text.strip()
    m = _RECV_SPLIT_RE.match(text)
    if m:
        recv = _parse_pattern(m.group(1), line, column)
        method_text = m.group(2).strip()
    else:
        recv = WILDCARD
        method_text = text
    neg = _NEG_METHOD_RE.match(method_text)
    if neg:
        return recv, MethodRef(neg.group(1), negated=True)
    if not _METHOD_RE.match(method_text):
        raise PropertySyntaxError(f"bad method pattern {method_text!r}", line, column)
    return recv, MethodRef(method_text)


def _parse_callexpr(text: str, line: int, column: int = 1):
    m = _CALLEXPR_RE.match(text.strip())
    if not m:
        raise PropertySyntaxError(f"expected a call expression, got {text!r}", line, column)
    recv, method = _parse_methodref(m.group(1), line, column)
    if m.group(2) == "[*]":
        args = ANY_ARGS
    else:
        inner = m.group(3).strip()
        if not inner:
            args = ()
        else:
            args = tuple(_parse_pattern(p, line, column) for p in inner.split(","))
    return method, recv, args


def _parse_label(text: str, line: int, column: int = 1) -> PropLabel:
    text = text.strip()
    if text == "*":
        return ANY_EVENT
    m = _RET_RE.match(text)
    if m:
        result = _parse_pattern(m.group(1), line, column)
        recv, method = _parse_methodref(m.group(2), line, column)
        return Ret(result, method, recv)
    if text.startswith("call ") or text.startswith("call\t"):
        method, recv, args = _parse_callexpr(text[4:], line, column)
        return Call(method, recv, args)
    m = _ASSIGN_RE.match(text)
    if m:
        result = _parse_pattern(m.group(1), line, column)
        method, recv, args = _parse_callexpr(m.group(2), line, column)
        return CallRet(result, method, recv, args)
    method, recv, args = _parse_callexpr(text, line, column)
    return Call(method, recv, args)


def parse_property(text: str) -> PropertyAst:
    """Parse property source text; prefixes are stored and expanded at
    compile time."""
    name: Optional[str] = None
    prefixes: list = []
    transitions: list = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if name is None:
            m = _PROPERTY_RE.match(line)
            if not m:
                raise PropertySyntaxError("expected 'property NAME'", lineno)
            name = m.group(1)
            continue
        m = _PREFIX_RE.match(line)
        if m:
            if transitions:
                raise PropertySyntaxError("prefix directives must precede transitions", lineno)
            prefixes.append(m.group(1))
            continue
        m = _TRANSITION_RE.match(line)
        if m:
            label = _parse_label(m.group(3), lineno, raw.find(m.group(3)) + 1)
            transitions.append(PropertyTransition(m.group(1), m.group(2), label, lineno))
            continue
        raise PropertySyntaxError(f"cannot parse {line!r}", lineno)
    if name is None:
        raise PropertySyntaxError("empty property source", 1)
    return PropertyAst(name, tuple(prefixes), tuple(transitions))


# ---------------------------------------------------------------------------
# Well-formedness
# ---------------------------------------------------------------------------

def _label_patterns(label: PropLabel):
    """Patterns of a label in evaluation order: call-half patterns
    (receiver, arguments) first, return-half patterns (result) last."""
    if isinstance(label, AnyEvent):
        return []
    if isinstance(label, Call):
        out = [("receiver", label.receiver)]
        if isinstance(label.args, tuple):
            out += [(f"argument {i}", p) for i, p in enumerate(label.args, start=1)]
        return out
    if isinstance(label, Ret):
        return [("receiver", label.receiver), ("result", label.result)]
    out = [("receiver", label.receiver)]
    if isinstance(label.args, tuple):
        out += [(f"argument {i}", p) for i, p in enumerate(label.args, start=1)]
    out.append(("result", label.result))
    return out


def _binds(label: PropLabel) -> set:
    return {p.var for _, p in _label_patterns(label) if isinstance(p, Bind)}


def check_well_formed(ast: PropertyAst) -> list:
    """Diagnostics for the property; entries starting with 'warning:' do
    not make the property ill-formed.

    Checks: at most one binding pattern per label; every read is
    preceded by a binding on all paths from start (a call-return label
    may read in its return half what its call half just bound); start
    and error vertices exist; returns cannot constrain the receiver.
    """
    diags: list = []
    vertices = ast.vertices()
    if "start" not in vertices:
        diags.append("missing 'start' vertex")
    if "error" not in vertices:
        diags.append("missing 'error' vertex")
    for t in ast.transitions:
        where = f"line {t.line} ({t.source} -> {t.target})"
        n_binds = sum(1 for _, p in _label_patterns(t.label) if isinstance(p, Bind))
        if n_binds > 1:
            diags.append(f"{where}: more than one binding (uppercase) pattern in a label")
        if isinstance(t.label, Ret) and not isinstance(t.label.receiver, Wildcard):
            diags.append(f"{where}: return labels cannot constrain the receiver")
    if any(t.source == "error" for t in ast.transitions):
        diags.append("warning: 'error' has outgoing transitions; they are never taken")

    # One method name used at several explicit arities still compiles
    # (each label constrains only the positions it mentions), but it is
    # usually an oversight.
    arities: dict = {}
    for t in ast.transitions:
        label = t.label
        if isinstance(label, (Call, CallRet)) and isinstance(label.args, tuple):
            arities.setdefault(label.method.pattern, set()).add(len(label.args))
    for name, seen in sorted(arities.items()):
        if len(seen) > 1:
            diags.append(
                f"warning: method '{name}' is used at arities {sorted(seen)}"
            )

    # Forward must-analysis: variables certainly bound on every path.
    all_vars = set()
    for t in ast.transitions:
        for _, p in _label_patterns(t.label):
            if isinstance(p, (Bind, Read, NotRead)):
                all_vars.add(p.var)
    bound_before = {v: set(all_vars) for v in vertices}
    if "start" in bound_before:
        bound_before["start"] = set()
    changed = True
    while changed:
        changed = False
        for t in ast.transitions:
            out = bound_before[t.source] | _binds(t.label)
            new = bound_before[t.target] & out
            if new != bound_before[t.target]:
                bound_before[t.target] = new
                changed = True
    for t in ast.transitions:
        where = f"line {t.line} ({t.source} -> {t.target})"
        avail = set(bound_before[t.source])
        for role, p in _label_patterns(t.label):
            if isinstance(p, (Read, NotRead)) and p.var not in avail:
                diags.append(f"{where}: {role} reads '{p.var}' before any binding of it")
            if isinstance(p, Bind):
                avail.add(p.var)
    return diags


def is_well_formed(diags: list) -> bool:
    return not [d for d in diags if not d.startswith("warning:")]


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EventSchema:
    """Letter layout and register directory of a compiled property.

    Letters have width ``arity + 2``: position 1 is the event id,
    position 2 the return value, positions 3.. the call values (receiver
    first, then arguments, padded with the dummy value).  ``variables``
    maps property variables to their registers.  The registers after
    them hold one literal value each, preloaded in the initial store and
    never written; event ids are matched at position 1 and take none.
    """

    arity: int
    variables: tuple  # tuple[(name, register), ...]

    @property
    def width(self) -> int:
        return self.arity + 2

    def register_of(self, var: str) -> int:
        for name, reg in self.variables:
            if name == var:
                return reg
        raise KeyError(var)


def _label_arity(label: PropLabel) -> int:
    if isinstance(label, (AnyEvent, Ret)):
        return 0
    if isinstance(label.args, tuple):
        return 1 + len(label.args)
    return 0 if isinstance(label.receiver, Wildcard) else 1


def _expand_method(ref: MethodRef, prefixes: tuple) -> tuple:
    return (ref.pattern,) + tuple(f"{p}.{ref.pattern}" for p in prefixes)


def compile_property(ast: PropertyAst):
    """Compile a well-formed property into (HlAutomaton, EventSchema).

    Register layout is deterministic: property variables in first-use
    order, then one constant register per distinct literal value.  Method
    patterns become `MethodMatch` atoms on position 1, the event id, and
    take no register.  Call and return labels become one-letter
    transitions; call-return labels become two-letter transitions, so no
    event can slip in between the call and its return.
    """
    diags = check_well_formed(ast)
    if not is_well_formed(diags):
        raise StructureError("property is not well-formed: " + "; ".join(diags))

    n = max((_label_arity(t.label) for t in ast.transitions), default=0)

    variables: list = []
    literal_values: list = []
    for t in ast.transitions:
        for _, p in _label_patterns(t.label):
            if isinstance(p, (Bind, Read, NotRead)) and p.var not in variables:
                variables.append(p.var)
            if isinstance(p, Literal) and p.value not in literal_values:
                literal_values.append(p.value)

    var_reg = {v: i + 1 for i, v in enumerate(variables)}
    const_reg = {value: len(variables) + i for i, value in enumerate(literal_values, start=1)}
    store = (BOTTOM,) * len(variables) + tuple(literal_values)

    def pattern_step(p: Pattern, pos: int):
        """(guard atoms, action assigns) for one pattern at one position."""
        if isinstance(p, Wildcard):
            return [], []
        if isinstance(p, Bind):
            return [], [Assign(var_reg[p.var], pos)]
        if isinstance(p, Read):
            return [Eq(var_reg[p.var], pos)], []
        if isinstance(p, NotRead):
            return [Neq(var_reg[p.var], pos)], []
        return [Eq(const_reg[p.value], pos)], []

    def call_step(method: MethodRef, receiver: Pattern, args) -> tuple:
        atoms = [MethodMatch(1, "call", _expand_method(method, ast.prefixes), method.negated)]
        assigns = []
        g, a = pattern_step(receiver, 3)
        atoms += g
        assigns += a
        if isinstance(args, tuple):
            for i, p in enumerate(args, start=1):
                g, a = pattern_step(p, 3 + i)
                atoms += g
                assigns += a
        return conjoin(atoms), tuple(assigns)

    def ret_step(method: MethodRef, result: Pattern) -> tuple:
        atoms = [MethodMatch(1, "ret", _expand_method(method, ast.prefixes), method.negated)]
        g, a = pattern_step(result, 2)
        atoms += g
        return conjoin(atoms), tuple(a)

    transitions = []
    for t in ast.transitions:
        label = t.label
        if isinstance(label, AnyEvent):
            steps = ((TRUE, NOP),)
        elif isinstance(label, Call):
            steps = (call_step(label.method, label.receiver, label.args),)
        elif isinstance(label, Ret):
            steps = (ret_step(label.method, label.result),)
        else:
            steps = (
                call_step(label.method, label.receiver, label.args),
                ret_step(label.method, label.result),
            )
        transitions.append(HlTransition(t.source, steps, t.target))

    states = set(ast.vertices()) | {"start", "error"}
    automaton = HlAutomaton(
        arity=n + 2,
        registers=len(store),
        states=frozenset(states),
        initial="start",
        store=store,
        transitions=tuple(transitions),
        final=frozenset({"error"}),
    )
    require_valid(automaton)
    _check_compiled(automaton, set(const_reg.values()))
    schema = EventSchema(arity=n, variables=tuple((v, var_reg[v]) for v in variables))
    return automaton, schema


def _check_compiled(a: HlAutomaton, const_regs: set) -> None:
    for t in a.transitions:
        if not 1 <= len(t.labels) <= 2:
            raise StructureError("internal: compiled label length outside 1..2")
        for _, act in t.labels:
            for asg in act:
                if asg.reg in const_regs:
                    raise StructureError("internal: compiled action writes a constant register")

    # Mirror of well-formedness on the compiled automaton: every guard
    # that reads a variable register is preceded, on all paths, by an
    # action writing it (constant registers are preloaded, never read
    # before they hold their value).
    var_regs = {reg for reg in range(1, a.registers + 1) if reg not in const_regs}
    bound_before = {q: set(var_regs) for q in a.states}
    bound_before[a.initial] = set()
    changed = True
    while changed:
        changed = False
        for t in a.transitions:
            avail = set(bound_before[t.source])
            for _, act in t.labels:
                avail |= {asg.reg for asg in act}
            new = bound_before[t.target] & avail
            if new != bound_before[t.target]:
                bound_before[t.target] = new
                changed = True
    for t in a.transitions:
        avail = set(bound_before[t.source])
        for g, act in t.labels:
            for atom in conjuncts(g):
                if isinstance(atom, (Eq, Neq)) and atom.reg in var_regs and atom.reg not in avail:
                    raise StructureError(
                        f"internal: compiled guard reads register {atom.reg} before any write"
                    )
            avail |= {asg.reg for asg in act}
