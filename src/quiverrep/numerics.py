"""Shared numerical policy: SVD rank thresholds, nullspaces, orthonormal bases,
and the size limit of every linear system a solve builds.

Every rank decision in the package takes one SVD step with its overflow
checks (:func:`_ranked_svd`) and one of four cutoffs:
``max(m, n) * eps * sigma_max * svd_factor``, with sigma_max floored or
replaced by a reference scale (see :func:`nullspace`); for the trace-form
Gram matrix of an End basis, ``cluster_tol(1)^2 sigma_max``
(:func:`gram_nullity`); for invertibility, ``inv_rel * sigma_max``
(:func:`is_invertible`, :func:`inverse`); for the spins of the generated
algebra and of Norton's test, and the ranks of their witnesses,
``range_tol(1)``, the invariance bound of ``rep.restrict`` on unit-scaled
generators (``structure._new_directions``).  No other module takes an SVD of
its own: an orthonormal complement, a one-sided inverse or a condition ratio
comes from :func:`inverse`, an orthonormal range from
:func:`orthonormal_inclusion` or :func:`_ranked_svd`, a pseudo-inverse from
:func:`_pseudo_inverse` of its factors, and a rank or a spectral norm from
:func:`_ranked_svd`.  One decision reads no singular values: whether a
start vector is cyclic for a matrix, so that the matrix is nonderogatory,
from the norms of its Arnoldi steps (:func:`arnoldi`, which End's
:func:`polynomials_in` runs from I / sqrt(n) and a cross Hom from a
vector), at the first cutoff with sigma_max its norm.

A system with more than :data:`MAX_UNKNOWNS` columns is refused by
:func:`check_unknowns` before it is allocated; tests patch the constant.

Three rules keep that step from doing arithmetic no decision reads.  Real
data takes real LAPACK: a complex matrix whose imaginary part is exactly
zero is factored as a real one, and its factors are cast back to complex, so
callers see the same dtypes.  Rank-only decisions (:func:`ranked`,
:func:`is_invertible`, :func:`gram_nullity`, the star-closed core) compute
singular values only.  And a values-only decision on a wide matrix factors
its transpose: the singular values are the same, and LAPACK's tall path
takes about half the time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import NumericalFailure, SizeLimitExceeded, ValidationError

EPS = float(np.finfo(np.float64).eps)
MAX_UNKNOWNS = 250_000  # most columns of a Hom, End or subspace system


# Every threshold is one of these constants times ``Tolerances.global_scale``.
SVD_FACTOR = 10.0     # multiplies the max(m,n)*eps*sigma_max cutoff
HOM_REL = 1e-8        # intertwining residual, relative to the map scale
INV_REL = 1e-8        # smallest/largest singular value for invertibility
RANGE_REL = 1e-9      # invariance residual of restrict() and of a split's lift
CLUSTER_REL = 1e-6    # eigenvalue clustering, relative to spectral radius
IDEM_REL = 1e-6       # idempotent defect ||P^2 - P||, relative to ||P||
WEIGHT_FLOOR = 1e-8   # smallest admissible realized weight
ELIM_GAP = 1e6        # smallest gap a fast path keeps: forest-eliminated Hom, Norton's spins
ZERO_MAP = 1e-12      # largest map entry of a canonically simple representation


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds used across the toolkit.

    ``global_scale`` multiplies every threshold and is the single knob the
    CLI exposes as ``--tol-scale``.
    """

    global_scale: float = 1.0

    def rescaled(self, factor: float) -> "Tolerances":
        """The policy with every threshold scaled by ``factor``.  The SVD
        cutoff may not fall below max(m, n)*eps*sigma_max, the SVD's own
        rounding floor and numpy's rank default, so the scale is at least
        1/SVD_FACTOR; and the invertibility cutoff ``inv_tol(sigma_max)`` may
        not exceed sigma_max, above which not even the identity is
        invertible, so the scale is at most 1/INV_REL."""
        scale = self.global_scale * factor
        if not (1 <= SVD_FACTOR * scale and INV_REL * scale <= 1):
            raise ValidationError(f"tolerance scale must be positive and finite, keep the SVD "
                                  f"cutoff above rounding and the identity invertible; "
                                  f"got {factor}")
        return replace(self, global_scale=scale)

    def svd_cutoff(self, m: int, n: int, sigma_max: float) -> float:
        return max(m, n, 1) * EPS * sigma_max * SVD_FACTOR * self.global_scale

    def hom_tol(self, scale: float) -> float:
        return HOM_REL * scale * self.global_scale

    def inv_tol(self, sigma_max: float) -> float:
        return INV_REL * sigma_max * self.global_scale

    def elim_gap(self) -> float:
        return ELIM_GAP * self.global_scale

    def range_tol(self, scale: float) -> float:
        return RANGE_REL * scale * self.global_scale

    def cluster_tol(self, spectral_radius: float) -> float:
        return CLUSTER_REL * spectral_radius * self.global_scale

    def idem_tol(self, norm: float) -> float:
        return IDEM_REL * norm * self.global_scale

    def min_weight(self) -> float:
        return WEIGHT_FLOOR * self.global_scale

    def zero_map_tol(self) -> float:
        return ZERO_MAP * self.global_scale

    def as_dict(self) -> dict:
        return {"svd_factor": SVD_FACTOR, "hom_rel": HOM_REL, "inv_rel": INV_REL,
                "range_rel": RANGE_REL, "cluster_rel": CLUSTER_REL, "idem_rel": IDEM_REL,
                "weight_floor": WEIGHT_FLOOR, "elim_gap": ELIM_GAP, "zero_map": ZERO_MAP,
                "global_scale": self.global_scale}


DEFAULT_TOL = Tolerances()


@dataclass(frozen=True)
class NullspaceResult:
    """Orthonormal nullspace basis plus the evidence behind the rank decision.

    ``basis`` holds the basis as rows.  ``gap`` is the ratio of the smallest
    kept singular value to the largest discarded one (``inf`` when either side
    is empty); a small gap flags a borderline rank decision.  ``margin`` is
    how far the kept side clears the cutoff, the smallest kept singular value
    over the cutoff (``inf`` when nothing is kept): at most the gap, and the
    one evidence of a full-rank decision, whose gap reads ``inf``.
    """

    basis: np.ndarray
    rank: int
    gap: float
    cutoff: float
    sigma_max: float
    margin: float = np.inf

    @property
    def dimension(self) -> int:
        return self.basis.shape[0]


def check_unknowns(system: str, unknowns: int) -> None:
    """Raise SizeLimitExceeded when ``system`` would have more than
    ``MAX_UNKNOWNS`` unknowns; callers check before they allocate it."""
    if unknowns > MAX_UNKNOWNS:
        raise SizeLimitExceeded(f"{system} has {unknowns} unknowns > limit {MAX_UNKNOWNS}")


def _ranked_svd(matrix: np.ndarray, cutoff_at: Callable[[float], float],
                full_matrices: bool = False, compute_uv: bool = True
                ) -> tuple[np.ndarray | None, np.ndarray, np.ndarray | None, float, float, int]:
    """U, singular values, V^H, sigma_max, cutoff ``cutoff_at(sigma_max)`` and
    rank of ``matrix``; U and V^H are None when ``compute_uv`` is false.  A
    complex matrix whose imaginary part is exactly zero is factored by real
    LAPACK and its factors are cast back to complex: its singular values are
    the same over R and C, and its real singular vectors are complex ones.
    A wide matrix whose singular values alone are asked for is factored as
    its transpose, which has the same singular values and takes LAPACK's
    faster tall path.
    A matrix with no entries has rank 0 and empty factors.  Raises
    NumericalFailure when the matrix or the cutoff is not finite, or when the
    SVD does not converge."""
    m, n = matrix.shape
    if not np.isfinite(matrix).all():
        raise NumericalFailure(f"overflow: the {m} x {n} system has non-finite entries")
    real = np.iscomplexobj(matrix) and not matrix.imag.any()
    data = matrix.real if real else matrix
    try:
        factors = np.linalg.svd(data if compute_uv or m >= n else data.T,
                                full_matrices=full_matrices, compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"SVD of a {m} x {n} system: {exc}") from None
    if compute_uv:
        u, svals, vh = factors
        if real:
            u, vh = u.astype(complex), vh.astype(complex)
    else:
        u, svals, vh = None, factors, None
    sigma_max = float(svals[0]) if svals.size else 0.0
    cutoff = cutoff_at(sigma_max)
    if not np.isfinite(cutoff):
        raise NumericalFailure(f"overflow: the rank cutoff of a {m} x {n} system is {cutoff} "
                               f"(sigma_max {sigma_max:.3e})")
    return u, svals, vh, sigma_max, cutoff, int(np.count_nonzero(svals > cutoff))


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

    Raises NumericalFailure when the matrix or the cutoff has overflowed to a
    non-finite value, or when the SVD does not converge.
    """
    m, n = matrix.shape
    if n == 0:
        return NullspaceResult(np.zeros((0, 0), dtype=complex), 0, np.inf, 0.0, 0.0)
    if m == 0:
        return NullspaceResult(np.eye(n, dtype=complex), 0, np.inf, 0.0, 0.0)
    _, svals, vh, sigma_max, cutoff, rank = _ranked_svd(
        matrix, lambda s: tol.svd_cutoff(m, n, max(s, scale)), full_matrices=m < n)
    margin = float(svals[rank - 1]) / cutoff if rank and cutoff else np.inf
    return NullspaceResult(vh[rank:, :].conj(), rank, _gap(svals, rank), cutoff, sigma_max,
                           margin)


def _gap(svals: np.ndarray, rank: int) -> float:
    """The smallest kept singular value over the largest discarded one,
    ``inf`` when either side is empty or the discarded one is 0."""
    kept = float(svals[rank - 1]) if rank > 0 else np.inf
    discarded = float(svals[rank]) if rank < svals.size else 0.0
    return np.inf if discarded == 0.0 else kept / discarded


def ranked(matrix: np.ndarray, tol: Tolerances = DEFAULT_TOL,
           scale: float = 0.0) -> tuple[int, float]:
    """Rank of ``matrix`` at the cutoff of :func:`nullspace` with the same
    ``scale``, and the gap of that decision, as there, read from the
    singular values alone; an empty matrix has rank 0 and gap ``inf``."""
    m, n = matrix.shape
    if m == 0 or n == 0:
        return 0, np.inf
    _, svals, *_, rank = _ranked_svd(matrix, lambda s: tol.svd_cutoff(m, n, max(s, scale)),
                                     compute_uv=False)
    return rank, _gap(svals, rank)


def gram_nullity(gram: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> int:
    """Nullity of the trace-form Gram matrix of a Frobenius-orthonormal End
    basis, at the resolution of the split search.

    An idempotent of Frobenius norm kappa adds a singular value of about
    1/(2 kappa^2), and in a random unit End element it separates eigenvalues
    by about 1/kappa of the spectral radius.  The split search merges
    eigenvalues closer than ``cluster_tol``, so singular values up to
    ``cluster_tol(1)^2 sigma_max``, floored by the SVD cutoff, count as zero:
    a split is reported only where a witness can be found."""
    k = gram.shape[0]
    return k - _ranked_svd(gram, lambda s: max(tol.cluster_tol(1.0) ** 2 * s,
                                               tol.svd_cutoff(k, k, s)),
                           compute_uv=False)[-1]


def arnoldi(matrix: np.ndarray, start: np.ndarray, tol: Tolerances = DEFAULT_TOL,
            scale: float = 0.0, bound: float = np.inf
            ) -> tuple[np.ndarray | None, np.ndarray, float, float]:
    """Arnoldi on the square n x n ``matrix`` C acting by left product on the
    unit ``start`` v, a vector or a matrix: an orthonormal basis v_0, ...,
    v_(n-1) of span{v, Cv, ..., C^(n-1) v} as rows of row-major vecs, the
    n x (n - 1) Hessenberg coefficients H with C v_k = sum_j H[j, k] v_j for
    k < n - 1, the cutoff and the gap.

    Each element is C times the last, projected off the others twice
    (classical Gram-Schmidt with one reorthogonalization; H sums both
    projections), and its norm h before scaling is its distance from the
    lower powers.  The n elements are independent exactly when v is cyclic
    for C, a rank decision on vectors of v's size N, so it is taken at the
    cutoff ``svd_cutoff(N, N, s)`` with s = ||C||_2 floored by ``scale`` as
    in :func:`nullspace`; the gap is the smallest h over the cutoff (``inf``
    for n = 1, and for a zero cutoff when every h > 0).  The basis is None as
    soon as that gap falls below ``elim_gap``, or, for a matrix start, an
    element's commutator residual ||C T - T C||_F exceeds ``bound``: rounding
    grows by about ||C|| / h per step.  Raises NumericalFailure when C is not
    finite."""
    n, size = matrix.shape[0], start.size
    *_, cutoff, _ = _ranked_svd(matrix, lambda s: tol.svd_cutoff(size, size, max(s, scale)),
                                compute_uv=False)
    rows = np.zeros((n, size), dtype=complex)
    rows[0] = start.reshape(-1)
    conj = rows.conj()
    hessenberg = np.zeros((n, n - 1), dtype=complex)
    gap = np.inf
    for k in range(n):
        t = rows[k].reshape(start.shape)
        w = matrix @ t
        if start.ndim == 2 and not frob(w - t @ matrix) <= bound:
            return None, hessenberg, cutoff, gap
        if k + 1 < n:
            w = w.reshape(-1)
            first = conj[:k + 1] @ w
            w = w - first @ rows[:k + 1]
            second = conj[:k + 1] @ w
            w = w - second @ rows[:k + 1]
            h = frob(w)
            gap = min(gap, h / cutoff if cutoff else (np.inf if h else 0.0))
            if gap < tol.elim_gap():
                return None, hessenberg, cutoff, gap
            hessenberg[:k + 1, k] = first + second
            hessenberg[k + 1, k] = h
            rows[k + 1] = w / h
            conj[k + 1] = rows[k + 1].conj()
    return rows, hessenberg, cutoff, gap


def polynomials_in(matrix: np.ndarray, tol: Tolerances = DEFAULT_TOL, scale: float = 0.0,
                   bound: float = np.inf) -> tuple[np.ndarray | None, float, float]:
    """Orthonormal basis of span{I, C, ..., C^(n-1)} for the square
    ``matrix`` C under the entrywise product, as rows of row-major vecs,
    with the evidence that C is nonderogatory: the cutoff and the gap of
    :func:`arnoldi` from I / sqrt(n), with its ``scale`` and commutator
    ``bound``.  C is nonderogatory exactly when those n powers are
    independent, so the cutoff is that of the commutator system's rank,
    ``svd_cutoff(n^2, n^2, s)``."""
    n = matrix.shape[0]
    rows, _, cutoff, gap = arnoldi(matrix, np.eye(n) / np.sqrt(n), tol, scale, bound)
    return rows, cutoff, gap


def orthonormal_inclusion(matrix: np.ndarray, tol: Tolerances = DEFAULT_TOL,
                          what: str = "inclusion") -> np.ndarray:
    """Orthonormal basis (as columns) of the column space of a full-column-rank
    inclusion, at the cutoff of :func:`nullspace`; rank-deficient input raises
    ValidationError, and overflow NumericalFailure as there."""
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2:
        raise ValidationError(f"{what} must be a matrix, got ndim={matrix.ndim}")
    m, n = matrix.shape
    if m == 0 or n == 0:
        rank, u = 0, np.zeros((m, 0), dtype=complex)
    else:
        u, *_, rank = _ranked_svd(matrix, lambda s: tol.svd_cutoff(m, n, s))
    if rank != n:
        raise ValidationError(f"{what} is rank-deficient: {n} columns, rank {rank}")
    return u[:, :rank]


def is_invertible(matrix: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Full rank at the cutoff ``inv_tol(sigma_max)``; an empty matrix is invertible."""
    return (matrix.size == 0
            or _ranked_svd(matrix, tol.inv_tol, compute_uv=False)[-1] == min(matrix.shape))


def inverse(matrix: np.ndarray, tol: Tolerances = DEFAULT_TOL
            ) -> tuple[np.ndarray | None, np.ndarray | None, float]:
    """One-sided inverse of a matrix of full rank, the orthonormal complement
    its inverse leaves out, and its sigma_min / sigma_max, all from the one
    SVD that decides its rank at the cutoff of :func:`is_invertible`.

    A square matrix has its inverse and an empty complement.  A wide
    (surjective) f has the right inverse f^+ with f f^+ = I, and a basis of
    ker f as columns; a tall (injective) g has the left inverse g^+ with
    g^+ g = I, and a basis of range(g)^perp as columns.  Inverse and
    complement are None when the matrix is rank-deficient at that cutoff.  A
    matrix with no entries has full rank, ratio 1, and the identity as its
    complement when it is not square.
    """
    if matrix.ndim != 2:
        raise ValidationError(f"inverse of an array of shape {matrix.shape}")
    m, n = matrix.shape
    if m == 0 or n == 0:
        complement = np.eye(max(m, n), dtype=complex)[:, min(m, n):]
        return np.zeros((n, m), dtype=complex), complement, 1.0
    u, svals, vh, sigma_max, _, rank = _ranked_svd(matrix, tol.inv_tol, full_matrices=m != n)
    ratio = float(svals[-1]) / sigma_max if sigma_max > 0 else 0.0
    k = min(m, n)
    if rank < k:
        return None, None, ratio
    complement = vh[k:].conj().T if m < n else u[:, k:]
    return _pseudo_inverse(u, svals, vh), complement, ratio


def _pseudo_inverse(u: np.ndarray, svals: np.ndarray, vh: np.ndarray) -> np.ndarray:
    """V S^-1 U^H, the (one-sided) inverse or least-squares solver of a matrix
    of full rank k = min(m, n), from its SVD; U and V^H are read to rank k."""
    k = svals.size
    return (vh[:k].conj().T / svals) @ u[:, :k].conj().T


def random_complex(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def frob(matrix: np.ndarray) -> float:
    return float(np.linalg.norm(matrix)) if matrix.size else 0.0


def max_entry(matrix: np.ndarray) -> float:
    return float(np.max(np.abs(matrix))) if matrix.size else 0.0
