"""Quivers, finite-dimensional Hilbert representations, intertwiner spaces,
structural verdicts, canonical operator models and subspace systems."""

from .errors import NumericalFailure, SizeLimitExceeded, ValidationError
from .numerics import DEFAULT_TOL, Tolerances
from .quiver import Arrow, Quiver, build_canonical
from .rep import Representation, canonically_simple, direct_sum, restrict, zero_representation
from .intertwiner import HomBasis, IsoResult, are_isomorphic, end, hom, intertwining_residual
from .structure import (AlgebraBasis, Analysis, DecompositionTree, SimpleResult, analyze,
                        decompose, generated_algebra, is_canonically_simple,
                        is_strongly_irreducible, radical_dimension, star_closed_end_dim)
from .kronecker import KroneckerFamily, build_family, jordan_block, kronecker_rep, loop_rep
from .operators import (HrrEndReport, bilateral_shift, diagonal, end_recursion_check,
                        example_reps, hrr_max_truncation, hrr_model, perturbation_model,
                        rank_one, shift)
from .subspaces import (SubspaceSystem, from_operator, make_system, preserved_end,
                        remove_loops, rep_to_system, system_end_dimension, system_to_rep)

__version__ = "0.1.0"

__all__ = [
    "Arrow", "Quiver", "build_canonical",
    "Representation", "canonically_simple", "direct_sum", "restrict", "zero_representation",
    "HomBasis", "IsoResult", "hom", "end", "are_isomorphic", "intertwining_residual",
    "AlgebraBasis", "Analysis", "DecompositionTree", "SimpleResult", "analyze",
    "decompose", "generated_algebra", "is_canonically_simple",
    "is_strongly_irreducible", "radical_dimension", "star_closed_end_dim",
    "KroneckerFamily", "build_family", "jordan_block", "kronecker_rep", "loop_rep",
    "HrrEndReport", "shift", "bilateral_shift", "diagonal", "rank_one",
    "perturbation_model", "hrr_model", "hrr_max_truncation",
    "end_recursion_check", "example_reps",
    "SubspaceSystem", "make_system", "system_end_dimension", "from_operator",
    "system_to_rep", "rep_to_system", "remove_loops", "preserved_end",
    "Tolerances", "DEFAULT_TOL",
    "ValidationError", "NumericalFailure", "SizeLimitExceeded",
]
