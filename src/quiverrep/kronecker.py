"""Builders for the Weierstrass-Kronecker families on the 2-arrow Kronecker
quiver, and for loop and Kronecker representations from square maps."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
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
    n = int(family.n)
    if family.kind == "jordan_first":
        return kronecker_rep(jordan_block(family.lam, n), np.eye(n, dtype=complex))
    if family.kind == "jordan_second":
        return kronecker_rep(np.eye(n, dtype=complex), jordan_block(family.lam, n))
    # wide and tall maps are not square, which kronecker_rep requires
    if family.kind == "wide":
        dims = {"1": n + 1, "2": n}
        maps = {"a1": np.eye(n, n + 1, dtype=complex),
                "a2": np.eye(n, n + 1, k=1, dtype=complex)}
    else:  # tall
        dims = {"1": n, "2": n + 1}
        maps = {"a1": np.eye(n + 1, n, dtype=complex),
                "a2": np.eye(n + 1, n, k=-1, dtype=complex)}
    return Representation(build_canonical("kronecker", 2), dims, maps)


def _canonical_rep(kind: str, maps) -> Representation:
    """The canonical ``kind`` quiver with arrow a{i+1} carrying ``maps[i]``;
    every map is square, of one common size, and so is every vertex."""
    maps = [np.asarray(m, dtype=complex) for m in maps]
    shapes = {m.shape for m in maps}
    if len(shapes) != 1 or maps[0].ndim != 2 or maps[0].shape[0] != maps[0].shape[1]:
        raise ValidationError("expected one or more square matrices of equal size")
    q = build_canonical(kind, len(maps))
    return Representation(q, {v: maps[0].shape[0] for v in q.vertices},
                          {f"a{i + 1}": m for i, m in enumerate(maps)})


def loop_rep(*maps: np.ndarray) -> Representation:
    """One-vertex representation with a loop for each given square map."""
    return _canonical_rep("loop", maps)


def kronecker_rep(*maps: np.ndarray) -> Representation:
    """Kronecker-quiver representation with an arrow 1 -> 2 for each given
    square map."""
    return _canonical_rep("kronecker", maps)

