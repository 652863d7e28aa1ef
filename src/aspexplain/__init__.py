"""Explain why literals are true or false in an answer set.

Pipeline: parse aspif text, reconstruct the ground program (folding the
grounder's auxiliary atoms back into choice atoms), build the rule and
constraint support tables for a given answer set, compute the minimal
set of atoms that must be assumed false, and emit explanation graphs.
"""

from .aspif import AspifProgram, emit_aspif, parse_aspif
from .assumptions import (
    AssumptionReport,
    derivation_analysis,
    min_cycle_break,
    minimal_assumption_sets,
    tentative_assumptions,
    well_founded,
)
from .constraints import constraint_preprocessing
from .egraph import (
    EEdge,
    ExplanationGraph,
    SupportTable,
    build_egraph,
    egraph_from_json,
    merge_supports,
    to_dot,
    to_json,
    validate_egraph,
)
from .errors import (
    AspExplainError,
    AspifError,
    AuxCycle,
    DuplicateSymbol,
    MalformedHeader,
    MissingTerminator,
    MultiLiteralOutputCondition,
    NoSupport,
    NoValidGraph,
    NotAnAnswerSet,
    ReconstructionError,
    TooLarge,
    TruncatedStatement,
    UnknownLiteral,
    UnsupportedWeightBody,
    UnviolableConstraint,
)
from .ground import (
    ChoiceAtomSpec,
    GroundProgram,
    GroundRule,
    reconstruct,
)
from .oracle import check_answer_set, enumerate_answer_sets, random_program
from .support import (
    build_er,
    dump_table,
    er_key_order,
    supported_sets_false,
    supported_sets_true,
)

__version__ = "0.1.0"

__all__ = [
    "AspExplainError",
    "AspifError",
    "AspifProgram",
    "AssumptionReport",
    "AuxCycle",
    "ChoiceAtomSpec",
    "DuplicateSymbol",
    "EEdge",
    "ExplanationGraph",
    "GroundProgram",
    "GroundRule",
    "MalformedHeader",
    "MissingTerminator",
    "MultiLiteralOutputCondition",
    "NoSupport",
    "NoValidGraph",
    "NotAnAnswerSet",
    "ReconstructionError",
    "SupportTable",
    "TooLarge",
    "TruncatedStatement",
    "UnknownLiteral",
    "UnsupportedWeightBody",
    "UnviolableConstraint",
    "build_egraph",
    "build_er",
    "check_answer_set",
    "constraint_preprocessing",
    "derivation_analysis",
    "dump_table",
    "egraph_from_json",
    "emit_aspif",
    "enumerate_answer_sets",
    "er_key_order",
    "merge_supports",
    "min_cycle_break",
    "minimal_assumption_sets",
    "parse_aspif",
    "random_program",
    "reconstruct",
    "supported_sets_false",
    "supported_sets_true",
    "tentative_assumptions",
    "to_dot",
    "to_json",
    "validate_egraph",
    "well_founded",
]
