"""Loop-nest intermediate representation and dependence analysis.

Models the paper's algorithm domain (§2.1): perfectly nested FOR loops
with affine bounds, a single-assignment statement over one array, and
uniform constant dependencies expressed as dependence vectors.
"""

from repro.loops import kexpr
from repro.loops.reference import ArrayRef
from repro.loops.nest import LoopNest, Statement
from repro.loops.dependence import (
    uniform_dependences,
    nest_dependences,
    dependence_matrix,
    is_lexicographically_positive,
    validate_dependences,
)
from repro.loops.skewing import (
    skew_nest,
    skewed_dependences,
    is_legal_skew,
    find_skew_for_rectangular_tiling,
)
from repro.loops.pretty import format_nest

__all__ = [
    "ArrayRef",
    "LoopNest",
    "Statement",
    "kexpr",
    "uniform_dependences",
    "nest_dependences",
    "dependence_matrix",
    "is_lexicographically_positive",
    "validate_dependences",
    "skew_nest",
    "skewed_dependences",
    "is_legal_skew",
    "find_skew_for_rectangular_tiling",
    "format_nest",
]
