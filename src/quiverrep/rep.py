"""Finite-dimensional Hilbert representations of quivers.

A representation assigns a complex dimension to every vertex and a dense
complex matrix to every arrow, of shape dims[range] x dims[source].
Zero-dimensional spaces are fully supported; empty matrices compose as usual.
Values are immutable after construction (arrays are marked read-only).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import ValidationError
from .numerics import DEFAULT_TOL, Tolerances, _pseudo_inverse, _ranked_svd, frob, max_entry
from .quiver import Arrow, Quiver


@dataclass(frozen=True, eq=False)
class Representation:
    quiver: Quiver
    dims: dict[str, int]
    maps: dict[str, np.ndarray]

    def __post_init__(self):
        missing = [v for v in self.quiver.vertices if v not in self.dims]
        if missing:
            raise ValidationError(f"missing dimension for vertices {missing}")
        if set(self.dims) - set(self.quiver.vertices):
            extra = sorted(set(self.dims) - set(self.quiver.vertices))
            raise ValidationError(f"dims given for unknown vertices {extra}")
        for v, d in self.dims.items():
            if isinstance(d, bool) or not isinstance(d, (int, np.integer)) or d < 0:
                raise ValidationError(f"vertex {v!r}: dimension must be a nonnegative integer")
        dims = {v: int(self.dims[v]) for v in self.quiver.vertices}
        maps = {}
        seen = set(self.maps)
        for a in self.quiver.arrows:
            if a.name not in self.maps:
                raise ValidationError(f"missing matrix for arrow {a.name!r}")
            seen.discard(a.name)
            m = np.array(self.maps[a.name], dtype=complex, order="C")
            want = (dims[a.dst], dims[a.src])
            if m.ndim != 2 or m.shape != want:
                raise ValidationError(
                    f"arrow {a.name!r}: matrix shape {m.shape} does not match "
                    f"dims[{a.dst!r}] x dims[{a.src!r}] = {want}"
                )
            if m.size and not (np.all(np.isfinite(m.real)) and np.all(np.isfinite(m.imag))):
                raise ValidationError(f"arrow {a.name!r}: matrix has non-finite entries")
            m.flags.writeable = False
            maps[a.name] = m
        if seen:
            raise ValidationError(f"matrices given for unknown arrows {sorted(seen)}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "maps", maps)

    @property
    def total_dim(self) -> int:
        return sum(self.dims.values())

    def is_zero(self) -> bool:
        return self.total_dim == 0

    def dimension_vector(self) -> dict[str, int]:
        return dict(self.dims)

    def map_scale(self) -> float:
        """Largest absolute matrix entry over all arrows (0 for a map-free rep)."""
        return max((max_entry(m) for m in self.maps.values()), default=0.0)

    def blocks(self) -> dict[str, slice]:
        """The coordinates of each vertex's space in the total space (+)_v H_v,
        the vertices in declaration order."""
        ends = np.cumsum([self.dims[v] for v in self.quiver.vertices]).tolist()
        return {v: slice(end - self.dims[v], end) for v, end in zip(self.quiver.vertices, ends)}

    def extended_map(self, arrow: Arrow) -> np.ndarray:
        """The map of ``arrow`` extended by zero to the total space."""
        blocks = self.blocks()
        m = np.zeros((self.total_dim, self.total_dim), dtype=complex)
        m[blocks[arrow.dst], blocks[arrow.src]] = self.maps[arrow.name]
        return m


def zero_representation(quiver: Quiver, dims: dict[str, int] | None = None) -> Representation:
    """All-zero maps; with default ``dims`` the zero representation itself."""
    dims = {v: 0 for v in quiver.vertices} if dims is None else dims
    maps = {a.name: np.zeros((dims[a.dst], dims[a.src]), dtype=complex)
            for a in quiver.arrows}
    return Representation(quiver, dims, maps)


def canonically_simple(quiver: Quiver, v0: str) -> Representation:
    """One-dimensional space at ``v0``, zero everywhere else, all maps zero."""
    if v0 not in quiver.vertices:
        raise ValidationError(f"unknown vertex {v0!r}")
    return zero_representation(quiver, {v: (1 if v == v0 else 0) for v in quiver.vertices})


def direct_sum(a: Representation, b: Representation) -> Representation:
    """Blockwise direct sum over the same quiver, a's block first."""
    if a.quiver != b.quiver:
        raise ValidationError("direct_sum requires representations over the same quiver")
    dims = {v: a.dims[v] + b.dims[v] for v in a.quiver.vertices}
    maps = {name: sla.block_diag(a.maps[name], b.maps[name]) for name in a.maps}
    return Representation(a.quiver, dims, maps)


def restrict(rep: Representation, inclusions: dict[str, np.ndarray],
             tol: Tolerances = DEFAULT_TOL) -> Representation:
    """Restrict to the subspaces spanned by per-vertex inclusion matrices.

    Each inclusion must have full column rank at the cutoff of
    :func:`numerics.ranked`.  The one SVD that decides it also gives
    the pseudo-inverse iota^+, and the restricted map g = iota_dst^+ f
    iota_src is the least-squares solution of f iota_src = iota_dst g.  Every
    arrow map must carry the source subspace into the range subspace: the
    residual of that equation must not exceed ``tol.range_tol(rep.map_scale())``.
    """
    missing = [v for v in rep.quiver.vertices if v not in inclusions]
    if missing:
        raise ValidationError(f"missing inclusion for vertices {missing}")
    incs, pinvs = {}, {}
    for v in rep.quiver.vertices:
        m = np.asarray(inclusions[v], dtype=complex)
        if m.ndim != 2 or m.shape[0] != rep.dims[v]:
            raise ValidationError(
                f"vertex {v!r}: inclusion must have {rep.dims[v]} rows, got shape {m.shape}"
            )
        u, svals, vh, _, _, rank = _ranked_svd(m, lambda s: tol.svd_cutoff(*m.shape, s))
        if rank != m.shape[1]:
            raise ValidationError(f"vertex {v!r}: inclusion is rank-deficient")
        incs[v], pinvs[v] = m, _pseudo_inverse(u, svals, vh)
    threshold = tol.range_tol(rep.map_scale())
    maps = {}
    for a in rep.quiver.arrows:
        target = rep.maps[a.name] @ incs[a.src]
        g = pinvs[a.dst] @ target
        residual = frob(incs[a.dst] @ g - target)
        if residual > threshold:
            raise ValidationError(
                f"arrow {a.name!r}: subspaces are not invariant "
                f"(residual {residual:.3e} > tolerance {threshold:.3e})"
            )
        maps[a.name] = g
    return Representation(rep.quiver, {v: m.shape[1] for v, m in incs.items()}, maps)


def is_isomorphism_compatible(a: Representation, b: Representation) -> bool:
    """Necessary condition for isomorphism: equal dimension vectors."""
    if a.quiver != b.quiver:
        raise ValidationError("representations live over different quivers")
    return a.dims == b.dims


def rep_allclose(a: Representation, b: Representation, atol: float = 1e-12) -> bool:
    """Structural equality up to entrywise tolerance (same quiver and dims)."""
    if a.quiver != b.quiver or a.dims != b.dims:
        return False
    return all(np.allclose(a.maps[k], b.maps[k], atol=atol) for k in a.maps)
