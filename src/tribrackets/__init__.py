"""Tribracket algebras and region-coloring counting invariants.

Finite ternary-bracket structures with compatible partial products, axiom
verification with self-certifying counterexamples, exhaustive censuses at
small order, a backtracking region-coloring counter for trivalent
spatial-graph and handlebody-link diagrams, and an executable move-invariance
harness.
"""
from .algebra import (
    AlgebraParseError,
    AxiomReport,
    BracketSlot,
    PartialProduct,
    ProductSlot,
    ShapeError,
    Tribracket,
    TribracketAlgebra,
    Violation,
    alexander_tribracket,
    load_bundled_algebra,
    parse_algebra,
    product_solve,
    recheck_violation,
    serialize_algebra,
    tribracket_solve,
    verify_algebra,
    verify_tribracket,
)
from .coloring import (
    BruteForceCapError,
    Coloring,
    HandlebodyModeError,
    ObstructionCase,
    count_colorings,
    count_colorings_bruteforce,
    enumerate_colorings,
    verify_k2_obstruction,
)
from .diagram import (
    Constraint,
    ConstraintKind,
    Diagram,
    DiagramKind,
    DiagramParseError,
    builtin_diagrams,
    load_bundled_diagram,
    parse_diagram,
    serialize_diagram,
)
from .enumeration import (
    EnumerationBudget,
    EnumerationResult,
    UnverifiedTribracketError,
    enumerate_idempotent_products,
    enumerate_products,
    enumerate_tribrackets,
)
from .moves import (
    LocalMovePair,
    MoveCheckReport,
    MoveFragment,
    builtin_move_pairs,
    check_move_invariance,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraParseError",
    "AxiomReport",
    "BracketSlot",
    "BruteForceCapError",
    "Coloring",
    "Constraint",
    "ConstraintKind",
    "Diagram",
    "DiagramKind",
    "DiagramParseError",
    "EnumerationBudget",
    "EnumerationResult",
    "HandlebodyModeError",
    "LocalMovePair",
    "MoveCheckReport",
    "MoveFragment",
    "ObstructionCase",
    "PartialProduct",
    "ProductSlot",
    "ShapeError",
    "Tribracket",
    "TribracketAlgebra",
    "UnverifiedTribracketError",
    "Violation",
    "alexander_tribracket",
    "builtin_diagrams",
    "builtin_move_pairs",
    "check_move_invariance",
    "count_colorings",
    "count_colorings_bruteforce",
    "enumerate_colorings",
    "enumerate_idempotent_products",
    "enumerate_products",
    "enumerate_tribrackets",
    "load_bundled_algebra",
    "load_bundled_diagram",
    "parse_algebra",
    "parse_diagram",
    "product_solve",
    "recheck_violation",
    "serialize_algebra",
    "serialize_diagram",
    "tribracket_solve",
    "verify_algebra",
    "verify_k2_obstruction",
    "verify_tribracket",
]
