"""Runtime verification with register-based automata over event traces.

The package provides three automaton flavours (low-level, high-level
with skip semantics, and register automata), translations between them
with verified witnesses, a compiler from the textual property language
to high-level automata, and an online monitor for recorded call/return
traces.
"""

from .core import (
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
    eval_guard,
    step,
    validate_automaton,
)
from .hl import (
    HlAutomaton,
    HlTransition,
    hl_accepts,
    match_prefix,
)
from .monitor import (
    Event,
    Monitor,
    MonitorOptions,
    Report,
    Verdict,
    encode_event,
    run_trace,
)
from .properties import (
    EventSchema,
    PropertyAst,
    check_well_formed,
    compile_property,
    parse_property,
)
from .translate import (
    RegisterAutomaton,
    concat,
    emptiness,
    flatten,
    hl_to_topl,
    intersection,
    ra_emptiness,
    register_automaton_diagnostics,
    topl_to_hl,
    topl_to_ra,
    unflatten,
    union,
)

__version__ = "0.1.0"

__all__ = [
    "BOTTOM", "NOP", "TRUE", "And", "Assign", "Atom", "Configuration", "Eq",
    "EventId", "MethodMatch", "Neq", "StructureError", "ToplAutomaton",
    "Transition", "accepts", "apply_action", "eval_guard", "step",
    "validate_automaton",
    "HlAutomaton", "HlTransition", "hl_accepts", "match_prefix",
    "Event", "Monitor", "MonitorOptions", "Report", "Verdict", "encode_event",
    "run_trace",
    "EventSchema", "PropertyAst", "check_well_formed", "compile_property",
    "parse_property",
    "RegisterAutomaton", "concat", "emptiness", "flatten", "hl_to_topl",
    "intersection", "ra_emptiness", "register_automaton_diagnostics",
    "topl_to_hl", "topl_to_ra", "unflatten", "union",
]
