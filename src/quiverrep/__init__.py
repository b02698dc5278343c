"""Quivers, finite-dimensional Hilbert representations, intertwiner spaces,
structural verdicts, canonical operator models and subspace systems."""

from .errors import NumericalFailure, SizeLimitExceeded, ValidationError
from .numerics import DEFAULT_TOL, Tolerances
from .quiver import Arrow, Path, Quiver, build_canonical
from .rep import (Representation, canonically_simple, direct_sum,
                  is_isomorphism_compatible, restrict, zero_representation)
from .intertwiner import (HomBasis, IsoResult, are_isomorphic, end, hom,
                          intertwining_residual, relatively_prime)
from .structure import (AlgebraBasis, Analysis, DecompositionTree, IndecomposableResult,
                        SimpleResult, analyze, decompose, end_algebra, generated_algebra,
                        is_canonically_simple, is_indecomposable, is_irreducible,
                        is_simple, is_strongly_irreducible, is_transitive,
                        radical_dimension, single_jordan_block_criterion,
                        star_closed_end_dim)
from .kronecker import (KroneckerFamily, KroneckerReduction, build_family,
                        jordan_block, kronecker_rep, polynomial_model,
                        reduce_invertible_first, reduce_pencil)
from .operators import (CrossHomReport, HrrEndReport, SimilarityEvidence,
                        bilateral_shift, cross_model_hom, diagonal,
                        end_recursion_check, example_reps, hrr_max_truncation,
                        hrr_model, perturbation_model, rank_one, shift,
                        weighted_shift_similarity)
from .subspaces import (SubspaceSystem, from_operator, make_system,
                        remove_loops, rep_to_system, system_end, system_to_rep)

__version__ = "0.1.0"

__all__ = [
    "Arrow", "Quiver", "Path", "build_canonical",
    "Representation", "canonically_simple", "direct_sum", "restrict",
    "zero_representation", "is_isomorphism_compatible",
    "HomBasis", "IsoResult", "hom", "end", "are_isomorphic",
    "relatively_prime", "intertwining_residual",
    "AlgebraBasis", "Analysis", "DecompositionTree", "IndecomposableResult",
    "SimpleResult", "analyze", "decompose", "end_algebra", "generated_algebra",
    "is_canonically_simple", "is_indecomposable", "is_irreducible", "is_simple",
    "is_strongly_irreducible", "is_transitive", "radical_dimension",
    "single_jordan_block_criterion", "star_closed_end_dim",
    "KroneckerFamily", "KroneckerReduction", "build_family", "jordan_block",
    "kronecker_rep", "polynomial_model", "reduce_invertible_first", "reduce_pencil",
    "CrossHomReport", "HrrEndReport", "SimilarityEvidence",
    "shift", "bilateral_shift", "diagonal", "rank_one",
    "perturbation_model", "hrr_model", "hrr_max_truncation",
    "end_recursion_check", "cross_model_hom", "weighted_shift_similarity",
    "example_reps",
    "SubspaceSystem", "make_system", "system_end", "from_operator",
    "system_to_rep", "rep_to_system", "remove_loops",
    "Tolerances", "DEFAULT_TOL",
    "ValidationError", "NumericalFailure", "SizeLimitExceeded",
]
