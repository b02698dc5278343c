"""Shared numerical policy: SVD rank thresholds, nullspaces, orthonormal bases.

Every rank decision in the package goes through :func:`nullspace` /
:func:`numerical_rank` so that the threshold rule is stated in exactly one
place: a singular value is discarded when it falls below
``max(m, n) * eps * sigma_max * svd_factor``, with sigma_max floored by an
optional reference scale (see :func:`nullspace`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ValidationError

EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds used across the toolkit.

    ``global_scale`` multiplies every threshold and is the single knob the
    CLI exposes as ``--tol-scale``.
    """

    svd_factor: float = 10.0    # multiplies the max(m,n)*eps*sigma_max cutoff
    hom_rel: float = 1e-8       # intertwining residual, relative to arrow scale
    inv_rel: float = 1e-8       # smallest/largest singular value for invertibility
    range_rel: float = 1e-9     # subspace-invariance residual in restrict()
    cluster_rel: float = 1e-6   # eigenvalue clustering, relative to spectral radius
    idem_rel: float = 1e-6      # acceptance bound for ||P^2 - P|| / ||P||
    weight_floor: float = 1e-8  # smallest admissible realized weight
    global_scale: float = 1.0

    def rescaled(self, factor: float) -> "Tolerances":
        if factor <= 0:
            raise ValidationError(f"tolerance scale must be positive, got {factor}")
        return replace(self, global_scale=self.global_scale * factor)

    def svd_cutoff(self, m: int, n: int, sigma_max: float) -> float:
        return max(m, n, 1) * EPS * sigma_max * self.svd_factor * self.global_scale

    def hom_tol(self, scale: float) -> float:
        return self.hom_rel * scale * self.global_scale

    def inv_tol(self, sigma_max: float) -> float:
        return self.inv_rel * sigma_max * self.global_scale

    def range_tol(self, scale: float) -> float:
        return self.range_rel * scale * self.global_scale

    def cluster_tol(self, spectral_radius: float) -> float:
        return self.cluster_rel * spectral_radius * self.global_scale

    def as_dict(self) -> dict:
        return {
            "svd_factor": self.svd_factor,
            "hom_rel": self.hom_rel,
            "inv_rel": self.inv_rel,
            "range_rel": self.range_rel,
            "cluster_rel": self.cluster_rel,
            "idem_rel": self.idem_rel,
            "weight_floor": self.weight_floor,
            "global_scale": self.global_scale,
        }


DEFAULT_TOL = Tolerances()


@dataclass(frozen=True)
class NullspaceResult:
    """Orthonormal nullspace basis plus the evidence behind the rank decision.

    ``basis`` holds the basis as rows.  ``gap`` is the ratio of the smallest
    kept singular value to the largest discarded one (``inf`` when either side
    is empty); a small gap flags a borderline rank decision.
    """

    basis: np.ndarray
    rank: int
    gap: float
    cutoff: float
    sigma_max: float

    @property
    def dimension(self) -> int:
        return self.basis.shape[0]


def nullspace(matrix: np.ndarray, tol: Tolerances = DEFAULT_TOL,
              scale: float = 0.0) -> NullspaceResult:
    """Orthonormal basis (as rows) of the numerical nullspace of ``matrix``.

    Only the factors the rank decision reads are computed.  A tall or square
    matrix (m >= n) takes the thin SVD, whose V^H is already the full n x n
    factor; the m x m U is never formed.  A wide matrix needs the full V^H,
    and its U is only m x m.

    ``scale`` floors sigma_max in the cutoff, which becomes
    ``max(m, n) * eps * max(sigma_max, scale) * svd_factor``.  A caller that
    knows the size of the data the matrix was built from passes it, so that a
    matrix of pure rounding noise (sigma_max near 1e-15 from exactly
    cancelling terms) has rank 0, not full rank.  The default 0 leaves the
    cutoff relative to sigma_max alone.
    """
    m, n = matrix.shape
    if n == 0:
        return NullspaceResult(np.zeros((0, 0), dtype=complex), 0, np.inf, 0.0, 0.0)
    if m == 0:
        return NullspaceResult(np.eye(n, dtype=complex), 0, np.inf, 0.0, 0.0)
    _, svals, vh = np.linalg.svd(matrix, full_matrices=m < n)
    sigma_max = float(svals[0]) if svals.size else 0.0
    cutoff = tol.svd_cutoff(m, n, max(sigma_max, scale))
    rank = int(np.count_nonzero(svals > cutoff))
    kept = float(svals[rank - 1]) if rank > 0 else np.inf
    discarded = float(svals[rank]) if rank < svals.size else 0.0
    gap = np.inf if discarded == 0.0 else kept / discarded
    return NullspaceResult(vh[rank:, :].conj(), rank, gap, cutoff, sigma_max)


def numerical_rank(matrix: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> int:
    return nullspace(matrix, tol).rank


def orthonormal_range(matrix: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis (as columns) of the column space of ``matrix``."""
    m, n = matrix.shape
    if n == 0 or m == 0:
        return np.zeros((m, 0), dtype=complex)
    u, svals, _ = np.linalg.svd(matrix, full_matrices=False)
    sigma_max = float(svals[0]) if svals.size else 0.0
    cutoff = tol.svd_cutoff(m, n, sigma_max)
    rank = int(np.count_nonzero(svals > cutoff))
    return u[:, :rank]


def orthonormal_inclusion(matrix: np.ndarray, tol: Tolerances = DEFAULT_TOL,
                          what: str = "inclusion") -> np.ndarray:
    """Orthonormalize a full-column-rank inclusion; reject rank-deficient input."""
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2:
        raise ValidationError(f"{what} must be a matrix, got ndim={matrix.ndim}")
    basis = orthonormal_range(matrix, tol)
    if basis.shape[1] != matrix.shape[1]:
        raise ValidationError(
            f"{what} is rank-deficient: {matrix.shape[1]} columns, rank {basis.shape[1]}"
        )
    return basis


def subspace_intersection_dim(u: np.ndarray, v: np.ndarray,
                              tol: Tolerances = DEFAULT_TOL) -> int:
    """Dimension of the intersection of two subspaces given by orthonormal columns."""
    if u.shape[0] != v.shape[0]:
        raise ValidationError("ambient dimensions differ")
    k1, k2 = u.shape[1], v.shape[1]
    if k1 == 0 or k2 == 0:
        return 0
    return k1 + k2 - numerical_rank(np.hstack([u, v]), tol)


def random_complex(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def frob(matrix: np.ndarray) -> float:
    return float(np.linalg.norm(matrix)) if matrix.size else 0.0


def max_entry(matrix: np.ndarray) -> float:
    return float(np.max(np.abs(matrix))) if matrix.size else 0.0
