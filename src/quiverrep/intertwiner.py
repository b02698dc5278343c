"""Intertwiner (Hom/End) spaces between Hilbert representations.

Hom((H,f),(K,g)) is the nullspace of the stacked linear system
T_range(a) . f_a - g_a . T_source(a) = 0 over all arrows a, with one unknown
matrix per vertex.  Unknowns are vectorized row-major per vertex; the
numerical nullspace follows the package-wide SVD threshold policy and the
returned basis is orthonormal under the entrywise inner product summed over
vertices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SizeLimitExceeded, ValidationError
from .numerics import (DEFAULT_TOL, Tolerances, frob, is_invertible, nullspace,
                       random_complex)
from .rep import Representation

MAX_UNKNOWNS = 250_000


@dataclass(frozen=True, eq=False)
class HomBasis:
    """Orthonormal basis of the space of intertwiners between two representations."""

    source: Representation
    target: Representation
    basis: tuple[dict[str, np.ndarray], ...]
    dimension: int
    cutoff: float
    gap: float

    def __iter__(self):
        return iter(self.basis)


def _vec_layout(a: Representation, b: Representation) -> tuple[dict[str, int], int]:
    """Column offsets of vec(T_v) blocks, T_v of shape dims_b[v] x dims_a[v]."""
    offsets, pos = {}, 0
    for v in a.quiver.vertices:
        offsets[v] = pos
        pos += a.dims[v] * b.dims[v]
    return offsets, pos


def hom_scale(a: Representation, b: Representation) -> float:
    """Residual scale: the largest Frobenius norm over both arrow families."""
    norms = [frob(m) for m in a.maps.values()] + [frob(m) for m in b.maps.values()]
    return max(norms, default=0.0)


def intertwining_residual(a: Representation, b: Representation,
                          t: dict[str, np.ndarray]) -> float:
    """max over arrows of || T_range f_a - g_a T_source ||_F for the tuple ``t``."""
    worst = 0.0
    for arr in a.quiver.arrows:
        lhs = t[arr.dst] @ a.maps[arr.name]
        rhs = b.maps[arr.name] @ t[arr.src]
        worst = max(worst, frob(lhs - rhs))
    return worst


def hom(a: Representation, b: Representation, tol: Tolerances = DEFAULT_TOL,
        max_unknowns: int | None = None) -> HomBasis:
    """Orthonormal basis of Hom(a, b).

    A degenerate system (no unknowns) yields a dimension-0 basis, not an
    error.  Raises SizeLimitExceeded when the dense solve would be larger
    than ``max_unknowns`` unknowns (module default MAX_UNKNOWNS).
    """
    if a.quiver != b.quiver:
        raise ValidationError("hom requires representations over the same quiver")
    if max_unknowns is None:
        max_unknowns = MAX_UNKNOWNS
    offsets, n_unknowns = _vec_layout(a, b)
    if n_unknowns > max_unknowns:
        raise SizeLimitExceeded(
            f"intertwiner system has {n_unknowns} unknowns > limit {max_unknowns}"
        )
    if n_unknowns == 0:
        return HomBasis(a, b, (), 0, 0.0, np.inf)

    rows = sum(b.dims[arr.dst] * a.dims[arr.src] for arr in a.quiver.arrows)
    system = np.zeros((rows, n_unknowns), dtype=complex)
    row = 0
    for arr in a.quiver.arrows:
        f = a.maps[arr.name]
        g = b.maps[arr.name]
        br, asz = b.dims[arr.dst], a.dims[arr.src]
        height = br * asz
        if height:
            # row-major vec: vec(X M) = (I (x) M^T) vec(X), vec(M X) = (M (x) I) vec(X)
            c = offsets[arr.dst]
            system[row:row + height, c:c + br * a.dims[arr.dst]] += \
                np.kron(np.eye(br), f.T)
            c = offsets[arr.src]
            system[row:row + height, c:c + b.dims[arr.src] * asz] -= \
                np.kron(g, np.eye(asz))
        row += height

    # the largest arrow norm floors sigma_max in the cutoff: a loop system
    # kron(I, f^T) - kron(g, I) cancels to rounding noise when f = g is scalar
    arrow_norm = max((float(np.linalg.norm(m, 2))
                      for m in (*a.maps.values(), *b.maps.values())), default=0.0)
    null = nullspace(system, tol, scale=arrow_norm)
    basis = []
    for vec in null.basis:
        t = {}
        for v in a.quiver.vertices:
            block = vec[offsets[v]:offsets[v] + a.dims[v] * b.dims[v]]
            t[v] = np.ascontiguousarray(block.reshape(b.dims[v], a.dims[v]))
        basis.append(t)
    return HomBasis(a, b, tuple(basis), len(basis), null.cutoff, null.gap)


def end(rep: Representation, tol: Tolerances = DEFAULT_TOL,
        max_unknowns: int | None = None) -> HomBasis:
    return hom(rep, rep, tol, max_unknowns)


@dataclass(frozen=True, eq=False)
class IsoResult:
    """Outcome of an isomorphism test.

    ``probably_no`` means the hom space is nonzero but no sampled intertwiner
    was invertible; invertible intertwiners form a Zariski-open subset, so
    repeated failure is strong (not certified) evidence of emptiness.
    """

    verdict: str  # "yes" | "no" | "probably_no"
    reason: str
    hom_dim: int
    witness: dict[str, np.ndarray] | None = None
    seed: int = 0

    def __bool__(self) -> bool:
        return self.verdict == "yes"


def are_isomorphic(a: Representation, b: Representation, tol: Tolerances = DEFAULT_TOL,
                   seed: int = 0, samples: int = 8) -> IsoResult:
    """Decide isomorphism by sampling random combinations of a Hom basis."""
    if a.quiver != b.quiver:
        raise ValidationError("are_isomorphic requires representations over the same quiver")
    if a.dims != b.dims:
        return IsoResult("no", "dimension vectors differ", 0, seed=seed)
    if a.total_dim == 0:
        witness = {v: np.zeros((0, 0), dtype=complex) for v in a.quiver.vertices}
        return IsoResult("yes", "zero representations", 0, witness, seed)
    basis = hom(a, b, tol)
    if basis.dimension == 0:
        return IsoResult("no", "hom space is zero", 0, seed=seed)
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        coeff = random_complex(rng, (basis.dimension,))
        cand = {v: sum(c * t[v] for c, t in zip(coeff, basis.basis))
                for v in a.quiver.vertices}
        if all(is_invertible(block, tol) for block in cand.values()):
            return IsoResult("yes", "sampled invertible intertwiner", basis.dimension,
                             cand, seed)
    return IsoResult("probably_no",
                     f"no invertible intertwiner in {samples} samples",
                     basis.dimension, seed=seed)


def relatively_prime(a: Representation, b: Representation,
                     tol: Tolerances = DEFAULT_TOL) -> bool:
    """True iff Hom(a, b) and Hom(b, a) are both zero."""
    return hom(a, b, tol).dimension == 0 and hom(b, a, tol).dimension == 0
