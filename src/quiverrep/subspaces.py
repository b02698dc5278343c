"""Systems of subspaces and the End-preserving bridges between operators,
quiver representations, and subspace systems.

A system is an ambient space with an ordered tuple of subspaces, stored as
orthonormalized inclusion matrices.  Its endomorphism algebra consists of the
operators leaving every subspace invariant; a system (equivalently, the
lattice it generates) is transitive when that algebra is the scalars.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure, ValidationError
from .intertwiner import end
from .numerics import (DEFAULT_TOL, Tolerances, nullspace, orthonormal_inclusion)
from .quiver import Arrow, Quiver, build_canonical
from .rep import Representation
from .structure import AlgebraBasis, block_offsets


@dataclass(frozen=True, eq=False)
class SubspaceSystem:
    """Ambient dimension plus ordered inclusions with orthonormal columns."""

    ambient_dim: int
    inclusions: tuple[np.ndarray, ...]

    @property
    def n_subspaces(self) -> int:
        return len(self.inclusions)

    def subspace_dims(self) -> tuple[int, ...]:
        return tuple(inc.shape[1] for inc in self.inclusions)


def make_system(ambient_dim: int, inclusions,
                tol: Tolerances = DEFAULT_TOL) -> SubspaceSystem:
    """Validate and orthonormalize raw inclusion matrices."""
    if int(ambient_dim) != ambient_dim or ambient_dim < 0:
        raise ValidationError(f"ambient dimension must be a nonnegative integer, got {ambient_dim!r}")
    ambient_dim = int(ambient_dim)
    stored = []
    for i, raw in enumerate(inclusions):
        raw = np.asarray(raw, dtype=complex)
        if raw.ndim != 2 or raw.shape[0] != ambient_dim:
            raise ValidationError(
                f"subspace {i + 1}: inclusion must have {ambient_dim} rows, got shape {raw.shape}"
            )
        basis = orthonormal_inclusion(raw, tol, what=f"subspace {i + 1} inclusion")
        basis.flags.writeable = False
        stored.append(basis)
    return SubspaceSystem(ambient_dim, tuple(stored))


def system_end(system: SubspaceSystem, tol: Tolerances = DEFAULT_TOL) -> AlgebraBasis:
    """Orthonormal basis of { T : (I - P_i) T P_i = 0 for every subspace }.

    With the stored inclusion U_i (orthonormal columns) and an orthonormal
    complement Q_i, the condition reads Q_i^H T U_i = 0.  Each subspace of
    dimension k_i adds k_i (d - k_i) rows, Q_i^H (x) U_i^T, to the system, so
    it has sum_i k_i (d - k_i) rows instead of one d^2 x d^2 projector block
    per subspace.  The projector block is kron(Q_i, conj U_i) times this one,
    a factor with orthonormal columns, so the singular values and the right
    singular vectors are the same.
    """
    d = system.ambient_dim
    if d == 0:
        return AlgebraBasis(0, (), 0, 0.0)
    blocks = [np.zeros((0, d * d), dtype=complex)]
    for inc in system.inclusions:
        k = inc.shape[1]
        if 0 < k < d:
            comp = np.linalg.qr(inc, mode="complete")[0][:, k:]
            # row-major vec(Q^H T U) = (Q^H (x) U^T) vec(T)
            blocks.append(np.kron(comp.conj().T, inc.T))
    null = nullspace(np.vstack(blocks), tol)
    basis = tuple(np.ascontiguousarray(row.reshape(d, d)) for row in null.basis)
    return AlgebraBasis(d, basis, len(basis), null.cutoff, null.gap)


def from_operator(matrix: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> SubspaceSystem:
    """Four-subspace system attached to a single operator on C^k.

    On C^k (+) C^k: the two coordinate axes, the graph of the operator, and
    the diagonal.  Its endomorphism algebra is isomorphic to the commutant of
    the operator, and the system is indecomposable exactly when the operator
    is strongly irreducible.
    """
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValidationError("expected a square matrix")
    k = matrix.shape[0]
    eye = np.eye(k, dtype=complex)
    zero = np.zeros((k, k), dtype=complex)
    e1 = np.vstack([eye, zero])
    e2 = np.vstack([zero, eye])
    e3 = np.vstack([eye, matrix])
    e4 = np.vstack([eye, eye])
    return make_system(2 * k, [e1, e2, e3, e4], tol)


def system_to_rep(system: SubspaceSystem, tol: Tolerances = DEFAULT_TOL,
                  check: bool = True) -> Representation:
    """Representation of the subspace quiver with the inclusions as arrow maps.

    Restricting an endomorphism of the system to each subspace realizes the
    algebra isomorphism onto End of the representation; the dimension equality
    is asserted when ``check`` is set.
    """
    n = system.n_subspaces
    if n == 0:
        raise ValidationError("a system needs at least one subspace")
    q = build_canonical("subspace", n)
    sink = str(n + 1)
    dims = {str(i + 1): inc.shape[1] for i, inc in enumerate(system.inclusions)}
    dims[sink] = system.ambient_dim
    maps = {f"a{i + 1}": np.asarray(inc) for i, inc in enumerate(system.inclusions)}
    rep = Representation(q, dims, maps)
    if check:
        lhs = system_end(system, tol).dimension
        rhs = end(rep, tol).dimension
        if lhs != rhs:
            raise NumericalFailure(
                f"End dimension mismatch across the bridge: system {lhs}, representation {rhs}"
            )
    return rep


def rep_to_system(rep: Representation, tol: Tolerances = DEFAULT_TOL,
                  check: bool = True) -> SubspaceSystem:
    """Graph-subspace system of a loop-free representation.

    The ambient space is the direct sum over vertices; the subspaces are the
    vertex coordinate embeddings followed by, for each arrow, the graph of its
    map inside source-block (+) range-block.  End dimensions agree and are
    asserted when ``check`` is set.
    """
    if rep.quiver.has_loops():
        raise ValidationError(
            "the quiver has self-loops; apply remove_loops first"
        )
    d = rep.total_dim
    offsets = block_offsets(rep)
    inclusions = []
    for v in rep.quiver.vertices:
        k = rep.dims[v]
        inc = np.zeros((d, k), dtype=complex)
        inc[offsets[v]:offsets[v] + k, :] = np.eye(k)
        inclusions.append(inc)
    for a in rep.quiver.arrows:
        k = rep.dims[a.src]
        inc = np.zeros((d, k), dtype=complex)
        inc[offsets[a.src]:offsets[a.src] + k, :] = np.eye(k)
        inc[offsets[a.dst]:offsets[a.dst] + rep.dims[a.dst], :] = rep.maps[a.name]
        inclusions.append(inc)
    system = make_system(d, inclusions, tol)
    if check:
        lhs = end(rep, tol).dimension
        rhs = system_end(system, tol).dimension
        if lhs != rhs:
            raise NumericalFailure(
                f"End dimension mismatch across the bridge: representation {lhs}, system {rhs}"
            )
    return system


def remove_loops(rep: Representation, tol: Tolerances = DEFAULT_TOL,
                 check: bool = True) -> Representation:
    """Replace the loops at each vertex by parallel arrows to a fresh twin vertex.

    A vertex v with loops gets a twin v' carrying the same dimension placed
    immediately after it; each loop becomes an arrow v -> v' with its matrix,
    one extra identity arrow v -> v' is added, and every non-loop arrow out of
    v is re-sourced from v'.  End dimension is preserved (and asserted when
    ``check`` is set).  Loop-free representations are returned unchanged.
    """
    loop_vertices = [v for v in rep.quiver.vertices if rep.quiver.loops_at(v)]
    if not loop_vertices:
        return rep

    def twin(v: str) -> str:
        return v + "'"

    vertices = []
    for v in rep.quiver.vertices:
        vertices.append(v)
        if v in loop_vertices:
            if twin(v) in rep.quiver.vertices:
                raise ValidationError(
                    f"vertex name {twin(v)!r} already taken; rename before removing loops"
                )
            vertices.append(twin(v))
    arrows = []
    maps = {}
    taken = {a.name for a in rep.quiver.arrows}
    for a in rep.quiver.arrows:
        if a.src == a.dst:
            arrows.append(Arrow(a.name, a.src, twin(a.src)))
            maps[a.name] = rep.maps[a.name]
        elif a.src in loop_vertices:
            arrows.append(Arrow(a.name, twin(a.src), a.dst))
            maps[a.name] = rep.maps[a.name]
        else:
            arrows.append(a)
            maps[a.name] = rep.maps[a.name]
    for v in loop_vertices:
        name = f"id_{v}"
        while name in taken:
            name += "'"
        taken.add(name)
        arrows.append(Arrow(name, v, twin(v)))
        maps[name] = np.eye(rep.dims[v], dtype=complex)

    dims = {}
    for v in rep.quiver.vertices:
        dims[v] = rep.dims[v]
        if v in loop_vertices:
            dims[twin(v)] = rep.dims[v]
    out = Representation(Quiver(tuple(vertices), tuple(arrows)), dims, maps)
    if check:
        lhs = end(rep, tol).dimension
        rhs = end(out, tol).dimension
        if lhs != rhs:
            raise NumericalFailure(
                f"loop removal changed the End dimension: {lhs} -> {rhs}"
            )
    return out
