"""Algebraicity of 2x2 integral matrices over subgroups of PSL2(Z).

Given h_1..h_s and g in PSL2(Z), decide whether g satisfies a nontrivial
equation w(x) = 1 with coefficients in H = <h_1..h_s> and compute finitely
many equations that normally generate the ideal of all of them.
"""

__version__ = "0.1.0"

from .enumeration import CrossCheckResult, EnumerationResult, cross_check, enumerate_kernel
from .equations import (
    EqWord,
    HContext,
    HEquation,
    evaluate,
    format_eq_word,
    parse_eq_word,
    reduce_equation,
    render_equation,
    rewrite_values,
    substitute,
)
from .freewords import (
    FreeWord,
    NotInKernel,
    format_free_word,
    free_reduce,
    invert_word,
    matrix_to_free_word,
    parse_free_word,
    pq_to_matrix,
)
from .pipeline import (
    AnalysisReport,
    VERDICT_ALGEBRAIC,
    VERDICT_TRANSCENDENTAL,
    VerificationResult,
    analyze,
    verify,
)
from .psl2 import IDENTITY, MAT_A, MAT_B, MAT_P, MAT_Q, NotUnimodular, ProjMat2
from .schreier import SchreierGraph, build_schreier, subgroup_generators
from .stallings import (
    PresentationOnGenerators,
    StallingsAutomaton,
    fold_generators,
    subgroup_presentation,
)
from .words import (
    ABWord,
    abelianize,
    decompose,
    eval_ab,
    format_ab_word,
    image_pair,
    quotient_order,
)

__all__ = [
    "ABWord",
    "AnalysisReport",
    "CrossCheckResult",
    "EnumerationResult",
    "EqWord",
    "FreeWord",
    "HContext",
    "HEquation",
    "IDENTITY",
    "MAT_A",
    "MAT_B",
    "MAT_P",
    "MAT_Q",
    "NotInKernel",
    "NotUnimodular",
    "PresentationOnGenerators",
    "ProjMat2",
    "SchreierGraph",
    "StallingsAutomaton",
    "VERDICT_ALGEBRAIC",
    "VERDICT_TRANSCENDENTAL",
    "VerificationResult",
    "abelianize",
    "analyze",
    "build_schreier",
    "cross_check",
    "decompose",
    "enumerate_kernel",
    "eval_ab",
    "evaluate",
    "fold_generators",
    "format_ab_word",
    "format_eq_word",
    "format_free_word",
    "free_reduce",
    "image_pair",
    "invert_word",
    "matrix_to_free_word",
    "parse_eq_word",
    "parse_free_word",
    "pq_to_matrix",
    "quotient_order",
    "reduce_equation",
    "render_equation",
    "rewrite_values",
    "subgroup_generators",
    "subgroup_presentation",
    "substitute",
    "verify",
]
