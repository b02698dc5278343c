"""Builders for the Weierstrass-Kronecker families on the 2-arrow Kronecker
quiver, the invertible-arrow and pencil reductions, and the polynomial model
on the (n+1)-arrow Kronecker quiver."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .numerics import DEFAULT_TOL, Tolerances, is_invertible
from .quiver import build_canonical
from .rep import Representation

FAMILY_KINDS = ("jordan_first", "jordan_second", "wide", "tall")


@dataclass(frozen=True)
class KroneckerFamily:
    """One member of the classification list.

    jordan_first(lam, n):  (lam I + J_n, I_n)          n >= 1
    jordan_second(lam, n): (I_n, lam I + J_n)          n >= 1
    wide(n):               dims (n+1, n), ([I 0], [0 I])   n >= 0
    tall(n):               dims (n, n+1), ([I; 0], [0; I]) n >= 0
    """

    kind: str
    n: int
    lam: complex = 0.0

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise ValidationError(f"unknown family kind {self.kind!r}; choose from {FAMILY_KINDS}")
        minimum = 1 if self.kind.startswith("jordan") else 0
        if int(self.n) != self.n or self.n < minimum:
            raise ValidationError(f"family {self.kind!r} needs integer n >= {minimum}, got {self.n!r}")


def jordan_block(lam: complex, n: int) -> np.ndarray:
    """lam I + nilpotent shift (ones on the subdiagonal)."""
    if n < 1:
        raise ValidationError(f"jordan block size must be >= 1, got {n}")
    return lam * np.eye(n, dtype=complex) + np.eye(n, k=-1, dtype=complex)


def build_family(family: KroneckerFamily) -> Representation:
    """The representation exactly as classified, on the canonical Kronecker quiver."""
    q = build_canonical("kronecker", 2)
    n = int(family.n)
    if family.kind == "jordan_first":
        dims = {"1": n, "2": n}
        maps = {"a1": jordan_block(family.lam, n), "a2": np.eye(n, dtype=complex)}
    elif family.kind == "jordan_second":
        dims = {"1": n, "2": n}
        maps = {"a1": np.eye(n, dtype=complex), "a2": jordan_block(family.lam, n)}
    elif family.kind == "wide":
        dims = {"1": n + 1, "2": n}
        maps = {"a1": np.eye(n, n + 1, dtype=complex),
                "a2": np.eye(n, n + 1, k=1, dtype=complex)}
    else:  # tall
        dims = {"1": n, "2": n + 1}
        maps = {"a1": np.eye(n + 1, n, dtype=complex),
                "a2": np.eye(n + 1, n, k=-1, dtype=complex)}
    return Representation(q, dims, maps)


def kronecker_rep(a: np.ndarray, b: np.ndarray) -> Representation:
    """Kronecker-quiver representation with the two given square maps."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError("expected two square matrices of equal size")
    n = a.shape[0]
    return Representation(build_canonical("kronecker", 2), {"1": n, "2": n},
                          {"a1": a, "a2": b})


@dataclass(frozen=True, eq=False)
class KroneckerReduction:
    """A reduced representation plus the isomorphism witnessing the reduction.

    ``witness`` maps the original (A, B) representation onto ``reduced``:
    witness[range] . f_arrow = g_arrow . witness[source] for every arrow.
    """

    original: Representation
    reduced: Representation
    witness: dict[str, np.ndarray]


def reduce_invertible_first(a: np.ndarray, b: np.ndarray,
                            tol: Tolerances = DEFAULT_TOL) -> KroneckerReduction:
    """Reduce (A, B) with invertible A to (I, A^{-1}B)."""
    original = kronecker_rep(a, b)
    a = original.maps["a1"]
    b = original.maps["a2"]
    if not is_invertible(a, tol):
        raise ValidationError("first arrow matrix is numerically singular")
    n = a.shape[0]
    a_inv = np.linalg.inv(a)
    reduced = kronecker_rep(np.eye(n, dtype=complex), a_inv @ b)
    witness = {"1": np.eye(n, dtype=complex), "2": a_inv}
    return KroneckerReduction(original, reduced, witness)


def reduce_pencil(a: np.ndarray, b: np.ndarray, x: complex, y: complex,
                  tol: Tolerances = DEFAULT_TOL) -> KroneckerReduction:
    """Reduce (A, B) to (T, (1/y) I - (x/y) T) with T = (xA + yB)^{-1} A."""
    if y == 0:
        raise ValidationError("pencil reduction needs y != 0")
    original = kronecker_rep(a, b)
    a = original.maps["a1"]
    b = original.maps["a2"]
    pencil = x * a + y * b
    if not is_invertible(pencil, tol):
        raise ValidationError("pencil xA + yB is numerically singular")
    n = a.shape[0]
    w = np.linalg.inv(pencil)
    t = w @ a
    second = (1.0 / y) * np.eye(n, dtype=complex) - (x / y) * t
    reduced = kronecker_rep(t, second)
    witness = {"1": np.eye(n, dtype=complex), "2": w}
    return KroneckerReduction(original, reduced, witness)


def polynomial_model(t: np.ndarray, coeffs) -> Representation:
    """Representation of the (n+1)-arrow Kronecker quiver attached to a matrix.

    Arrow a1 carries sum_k coeffs[k] T^k (the constant term must be nonzero);
    arrow a_{k+1} carries T^k for k = 1..n.  Its endomorphisms are the
    diagonal pairs (C, C) with C in the commutant of T, so the representation
    is indecomposable exactly when T is strongly irreducible, and two models
    are isomorphic exactly when the underlying matrices are similar.
    """
    t = np.asarray(t, dtype=complex)
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise ValidationError("expected a square matrix")
    coeffs = [complex(c) for c in coeffs]
    n = len(coeffs) - 1
    if n < 1:
        raise ValidationError("need at least two coefficients (degree >= 1)")
    if coeffs[0] == 0:
        raise ValidationError("the constant coefficient must be nonzero")
    size = t.shape[0]
    q = build_canonical("kronecker", n + 1)
    powers = [np.eye(size, dtype=complex)]
    for _ in range(n):
        powers.append(powers[-1] @ t)
    maps = {"a1": sum(c * p for c, p in zip(coeffs, powers))}
    for k in range(1, n + 1):
        maps[f"a{k + 1}"] = powers[k]
    return Representation(q, {"1": size, "2": size}, maps)
