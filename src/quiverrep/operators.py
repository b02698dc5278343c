"""Truncated operator constructions: shifts, diagonals, rank-one perturbations,
and the two transitive Kronecker constructions.

All builders here realize infinite-dimensional operators as plain compressions
P_N T P_N (orthogonal truncation on both sides).  Boundary effects are a
feature to be measured, not hidden: every verdict computed from these models
describes the finite matrices only, and reports downstream carry a
finite-truncation flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .intertwiner import HomBasis, end, hom_scale
from .numerics import DEFAULT_TOL, Tolerances, inverse
from .rep import Representation
from .kronecker import kronecker_rep, loop_rep

EXAMPLE_NAMES = ("ex2", "ex3", "ex4", "ex8", "ex8*", "ex9")


def shift(n: int) -> np.ndarray:
    """Truncated unilateral shift: e_j -> e_{j+1} for j < n, e_n -> 0."""
    if int(n) != n or n < 1:
        raise ValidationError(f"shift size must be an integer >= 1, got {n!r}")
    return np.eye(int(n), k=-1, dtype=complex)


def bilateral_shift(n: int) -> np.ndarray:
    """Truncated bilateral shift on indices -n..n (dimension 2n+1)."""
    if int(n) != n or n < 1:
        raise ValidationError(f"bilateral truncation level must be >= 1, got {n!r}")
    return np.eye(2 * int(n) + 1, k=-1, dtype=complex)


def diagonal(values) -> np.ndarray:
    values = np.asarray(values, dtype=complex)
    if values.ndim != 1:
        raise ValidationError("diagonal expects a vector of coefficients")
    return np.diag(values)


def rank_one(a, b) -> np.ndarray:
    """theta_{a,b}: x -> (x|b) a, as the matrix with entries a_i conj(b_j)."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim != 1 or b.ndim != 1:
        raise ValidationError("rank_one expects two vectors")
    if a.size != b.size:
        raise ValidationError(f"vector lengths differ: {a.size} vs {b.size}")
    return np.outer(a, b.conj())


# ---------------------------------------------------------------------------
# rank-one-perturbed weighted shift model

def default_perturbation_weights(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Reproducible admissible parameters: lam_k = 1 + k/n, w_k = 1/k."""
    k = np.arange(1, n + 1, dtype=float)
    return (1.0 + k / n).astype(complex), (1.0 / k).astype(complex)


def perturbation_model(n: int, lam=None, w=None) -> Representation:
    """Kronecker representation (S, S D_lam + theta_{e_1, conj(w)}).

    The second arrow is a weighted shift perturbed by a rank-one operator:
    first row w_1..w_n, subdiagonal lam_1..lam_{n-1}.  Requires pairwise
    distinct lam and nowhere-zero w.
    """
    if int(n) != n or n < 1:
        raise ValidationError(f"truncation size must be an integer >= 1, got {n!r}")
    n = int(n)
    if lam is None or w is None:
        dlam, dw = default_perturbation_weights(n)
        lam = dlam if lam is None else lam
        w = dw if w is None else w
    lam = np.asarray(lam, dtype=complex)
    w = np.asarray(w, dtype=complex)
    if lam.shape != (n,) or w.shape != (n,):
        raise ValidationError(f"lam and w must each have {n} entries")
    if len(set(lam.tolist())) != n:
        raise ValidationError("diagonal weights lam must be pairwise distinct")
    if np.any(w == 0):
        raise ValidationError("perturbation vector w must have no zero entries")
    s = shift(n)
    t = s @ diagonal(lam) + rank_one(np.eye(n, dtype=complex)[:, 0], w.conj())
    return kronecker_rep(s, t)


def perturbation_structure_residual(n: int, basis: HomBasis) -> float:
    """Largest stray coordinate of an End basis over the structure projections.

    For every End element (phi, psi) of the truncated model: psi's first row
    vanishes past the (1,1) entry, psi's first column vanishes below it, and
    phi's leading (n-1) rows are diagonal.  Returns the max magnitude found in
    those coordinate sets across the basis (phi's last row is the boundary row
    and is exempt).
    """
    if n <= 1:
        return 0.0
    phi, psi = basis.stacks["1"], basis.stacks["2"]
    off = np.abs(phi[:, :n - 1, :])
    off[:, range(n - 1), range(n - 1)] = 0.0
    return float(max(np.max(np.abs(psi[:, 0, 1:]), initial=0.0),
                     np.max(np.abs(psi[:, 1:, 0]), initial=0.0), np.max(off, initial=0.0)))


# ---------------------------------------------------------------------------
# bilateral double-exponential weight model

def hrr_max_truncation(lam: float, tol: Tolerances = DEFAULT_TOL) -> int:
    """Largest n with lam^n <= ln(1/weight_floor), i.e. no weight underflows."""
    if not lam > 1:
        raise ValidationError(f"the weight base must satisfy lam > 1, got {lam}")
    floor = min(tol.min_weight(), 0.5)
    budget = math.log(1.0 / floor)
    return int(math.floor(math.log(budget) / math.log(lam)))


def hrr_weight_logs(n: int, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Natural-log weight sequences (log a, log b) on indices -n..n.

    log a(k) = -lam^k for even k >= 1 (else 0);
    log b(k) = -lam^k for odd  k >= 1 (else 0).
    """
    idx = np.arange(-n, n + 1)
    log_a = np.zeros(2 * n + 1)
    log_b = np.zeros(2 * n + 1)
    pos = idx >= 1
    even = pos & (idx % 2 == 0)
    odd = pos & (idx % 2 == 1)
    log_a[even] = -(lam ** idx[even].astype(float))
    log_b[odd] = -(lam ** idx[odd].astype(float))
    return log_a, log_b


def hrr_log_w(n: int, lam: float) -> np.ndarray:
    """log w_k = log b(k) - log a(k); equals (-lam)^k for k >= 1, 0 otherwise."""
    log_a, log_b = hrr_weight_logs(n, lam)
    return log_b - log_a


def hrr_model(n: int, lam: float, tol: Tolerances = DEFAULT_TOL) -> Representation:
    """Kronecker representation (D_a, U D_b) on indices -n..n.

    Weights are double exponentials held in the log domain until the final
    materialization; the builder rejects truncation levels whose smallest
    realized weight would fall below the admissibility floor, naming the
    largest admissible level.
    """
    if int(n) != n or n < 1:
        raise ValidationError(f"truncation level must be an integer >= 1, got {n!r}")
    n = int(n)
    n_max = hrr_max_truncation(lam, tol)
    if n > n_max:
        raise ValidationError(
            f"weights underflow below the admissibility floor at level {n}; "
            f"the largest admissible level for lam={lam} is {n_max}"
        )
    log_a, log_b = hrr_weight_logs(n, lam)
    a = np.exp(log_a).astype(complex)
    b = np.exp(log_b).astype(complex)
    return kronecker_rep(diagonal(a), bilateral_shift(n) @ diagonal(b))


@dataclass(frozen=True, eq=False)
class HrrElementCheck:
    diagonal_constant: bool
    recursion: bool
    first_map_consistent: bool
    max_residual: float

    @property
    def passed(self) -> bool:
        return self.diagonal_constant and self.recursion and self.first_map_consistent


@dataclass(frozen=True, eq=False)
class HrrEndReport:
    """Structure checks of the computed End space of a bilateral-weight model.

    ``range_ratio`` is the smallest-to-largest singular value ratio of the
    diagonal arrow: the finite-truncation surrogate for the non-closed range
    of the operator being truncated (every finite-dimensional range is
    closed, so the ratio is reported instead of a closedness claim).
    """

    n: int
    lam: float
    dim_end: int
    elements: tuple[HrrElementCheck, ...]
    tolerance: float
    range_ratio: float

    @property
    def pass_rate(self) -> float:
        if not self.elements:
            return 1.0
        return sum(1 for e in self.elements if e.passed) / len(self.elements)

    @property
    def all_passed(self) -> bool:
        return all(e.passed for e in self.elements)


def end_recursion_check(rep: Representation, lam: float,
                        tol: Tolerances = DEFAULT_TOL,
                        basis: HomBasis | None = None) -> HrrEndReport:
    """Check every End basis element of an hrr_model output against the
    weight recursion: constant main diagonal of the second component,
    t[m+1, n+1] = (w_m / w_n) t[m, n] at interior pairs, and first component
    determined entrywise by the diagonal weights.  Report-only."""
    d = rep.dims.get("1", 0)
    if d % 2 != 1 or rep.dims.get("2") != d or len(rep.dims) != 2:
        raise ValidationError("expected a representation built by hrr_model")
    n = (d - 1) // 2
    expected = hrr_model(n, lam, tol)
    if not all(np.allclose(rep.maps[k], expected.maps[k]) for k in rep.maps):
        raise ValidationError(
            f"arrow matrices do not match the bilateral-weight model at lam={lam}"
        )
    log_a, _ = hrr_weight_logs(n, lam)
    log_w = hrr_log_w(n, lam)
    if basis is None:
        basis = end(rep, tol)
    tau = tol.hom_tol(hom_scale(rep, rep))
    first, second = basis.stacks["1"], basis.stacks["2"]
    diag = np.diagonal(second, axis1=1, axis2=2)
    diag_res = np.max(np.abs(diag - diag.mean(axis=1, keepdims=True)), axis=1)
    rec_res = _recursion_residual(second, log_w, log_w)
    amp = np.exp(log_a[None, :] - log_a[:, None])
    first_res = np.max(np.abs(first - amp * second), axis=(1, 2))
    checks = tuple(HrrElementCheck(bool(a <= tau), bool(b <= tau), bool(c <= tau),
                                   float(max(a, b, c)))
                   for a, b, c in zip(diag_res, rec_res, first_res))
    return HrrEndReport(n, lam, basis.dimension, checks, tau, inverse(rep.maps["a1"], tol)[2])


def _recursion_residual(stack: np.ndarray, log_w_dst: np.ndarray,
                        log_w_src: np.ndarray) -> np.ndarray:
    """Largest |t2[m+1, n+1] - (w_dst[m] / w_src[n]) t2[m, n]| of each t2 in
    the (k, d, d) ``stack``, weights given by their logs."""
    d = stack.shape[1]
    ratio = np.exp(log_w_dst[:d - 1, None] - log_w_src[None, :d - 1])
    return np.max(np.abs(stack[:, 1:, 1:] - ratio * stack[:, :-1, :-1]), axis=(1, 2),
                  initial=0.0)


# ---------------------------------------------------------------------------
# named truncated example representations

def example_reps(name: str, n: int, lam: complex = 0.0) -> Representation:
    """Truncations of the named constructions.

    ex2(n):      one-loop representation of the shift
    ex3(n):      two-loop representation (S, S*)
    ex4(n):      3-arrow Kronecker representation (S, S*, I)
    ex8(lam, n): Kronecker representation (I, lam I + S)
    ex8*(lam,n): Kronecker representation (I, lam I + S*)
    ex9(n):      Kronecker representation (S, S*)

    The adjoint is the conjugate transpose of the truncated shift
    (compression commutes with the adjoint).
    """
    if name == "ex8s":
        name = "ex8*"
    if name not in EXAMPLE_NAMES:
        raise ValidationError(f"unknown example {name!r}; choose from {EXAMPLE_NAMES}")
    if int(n) != n or n < 1:
        raise ValidationError(f"truncation size must be an integer >= 1, got {n!r}")
    n = int(n)
    s = shift(n)
    eye = np.eye(n, dtype=complex)
    if name == "ex2":
        return loop_rep(s)
    if name == "ex3":
        return loop_rep(s, s.conj().T)
    if name == "ex4":
        return kronecker_rep(s, s.conj().T, eye)
    if name == "ex8":
        return kronecker_rep(eye, lam * eye + s)
    if name == "ex8*":
        return kronecker_rep(eye, lam * eye + s.conj().T)
    return kronecker_rep(s, s.conj().T)  # ex9
