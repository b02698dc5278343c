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
from .kronecker import loop_rep
from .numerics import (DEFAULT_TOL, Tolerances, check_unknowns, inverse, nullspace,
                       orthonormal_inclusion, ranked)
from .quiver import Arrow, Quiver, build_canonical
from .rep import Representation
from .structure import AlgebraBasis


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


def _equations(comp: np.ndarray, inc: np.ndarray, rows: np.ndarray,
               cols: np.ndarray) -> np.ndarray:
    """The rows Q^H (x) U^T of one subspace on the unknowns T[rows[j], cols[j]]:
    row (a, b) and column j hold conj(Q[rows[j], a]) U[cols[j], b], the
    entry of np.kron(Q^H, U^T) at column rows[j] d + cols[j], since
    row-major vec(Q^H T U) = (Q^H (x) U^T) vec(T)."""
    return (comp.conj()[rows].T[:, None, :] * inc[cols].T[None, :, :]).reshape(-1, rows.size)


def _system_matrix(system: SubspaceSystem, tol: Tolerances,
                   eliminate: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """The system whose nullspace is the endomorphism algebra, with the mask
    of the row-major entries of T it solves for (see :func:`system_end`).

    Every proper nonzero subspace adds its rows Q_i^H (x) U_i^T, except,
    under ``eliminate``, a coordinate one: an inclusion with exactly k_i
    nonzero rows R (the exact test ``inc.any(axis=1)``, no tolerance) spans
    span{e_r : r in R}, so T leaves it invariant exactly when T[r', r] = 0
    for every r in R and r' outside R.  Those k_i (d - k_i) entries leave
    the unknowns with its k_i (d - k_i) rows, and the other subspaces' rows
    are built on the entries left free, the same products as on all d^2.
    Raises SizeLimitExceeded before anything is allocated when the d^2
    unknowns are more than :func:`numerics.check_unknowns` allows."""
    d = system.ambient_dim
    check_unknowns("subspace system", d * d)
    free = np.ones((d, d), dtype=bool)
    equations = []
    for inc in system.inclusions:
        if not 0 < inc.shape[1] < d:
            continue
        support = inc.any(axis=1)
        if eliminate and np.count_nonzero(support) == inc.shape[1]:
            free[np.ix_(~support, support)] = False
        else:
            equations.append(inc)
    rows, cols = np.nonzero(free)
    blocks = [np.zeros((0, rows.size), dtype=complex)]
    blocks += [_equations(inverse(inc, tol)[1], inc, rows, cols) for inc in equations]
    return np.vstack(blocks), free.reshape(-1)


def system_end(system: SubspaceSystem, tol: Tolerances = DEFAULT_TOL) -> AlgebraBasis:
    """Orthonormal basis of { T : (I - P_i) T P_i = 0 for every subspace }.

    With the stored inclusion U_i (orthonormal columns) and an orthonormal
    complement Q_i, the condition reads Q_i^H T U_i = 0.  Each subspace of
    dimension k_i adds k_i (d - k_i) rows, Q_i^H (x) U_i^T, to the system, so
    it has sum_i k_i (d - k_i) rows instead of one d^2 x d^2 projector block
    per subspace.  The projector block is kron(Q_i, conj U_i) times this one,
    a factor with orthonormal columns, so the singular values and the right
    singular vectors are the same.

    A coordinate subspace fixes its k_i (d - k_i) entries of T to 0 instead
    (:func:`_system_matrix`), and the nullspace of the system left on the
    free entries is lifted with zeros in the fixed ones.  That decision is
    kept only when its gap is at least ``elim_gap``: its cutoff, relative to
    a smaller system, is lower than the full system's.  Otherwise End is the
    nullspace of the full d^2-unknown system.  Raises SizeLimitExceeded, as
    :func:`_system_matrix` does, when the d^2 unknowns are too many.
    """
    d = system.ambient_dim
    if d == 0:
        return AlgebraBasis(0, np.zeros((0, 0, 0), dtype=complex), 0, 0.0)
    for eliminate in (True, False):
        matrix, free = _system_matrix(system, tol, eliminate)
        null = nullspace(matrix, tol)
        if null.gap >= tol.elim_gap() or free.all():
            break
    basis = np.zeros((null.dimension, d * d), dtype=complex)
    basis[:, free] = null.basis
    return AlgebraBasis(d, basis.reshape(-1, d, d), null.dimension, null.cutoff, null.gap)


def system_end_dimension(system: SubspaceSystem, tol: Tolerances = DEFAULT_TOL) -> int:
    """``system_end(system, tol).dimension`` from the singular values alone:
    the free unknowns minus the rank of the same system at the same cutoff,
    since :func:`system_end` takes its nullspace with scale 0, on the full
    system when the reduced decision's gap is below ``elim_gap`` as there."""
    for eliminate in (True, False):
        matrix, free = _system_matrix(system, tol, eliminate)
        rank, gap = ranked(matrix, tol)
        if gap >= tol.elim_gap() or free.all():
            break
    return int(np.count_nonzero(free)) - rank


def preserved_end(source, target, tol: Tolerances = DEFAULT_TOL) -> tuple[int, int]:
    """The End dimensions of a bridge's ``source`` and ``target``, each a
    representation or a system, in that order; raises NumericalFailure when
    they differ.  The bridges run it under ``check=True``."""

    def dimension(x) -> int:
        if isinstance(x, SubspaceSystem):
            return system_end_dimension(x, tol)
        return end(x, tol).dimension

    before, after = dimension(source), dimension(target)
    if before != after:
        raise NumericalFailure(f"End dimension not preserved by conversion: {before} -> {after}")
    return before, after


def from_operator(matrix: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> SubspaceSystem:
    """Four-subspace system attached to a single operator on C^k.

    On C^k (+) C^k: the two coordinate axes, the graph of the operator, and
    the diagonal, that is, :func:`rep_to_system` of :func:`remove_loops` of
    the one-loop representation.  Its endomorphism algebra is isomorphic to
    the commutant of the operator, and the system is indecomposable exactly
    when the operator is strongly irreducible.
    """
    return rep_to_system(remove_loops(loop_rep(matrix), tol, check=False), tol, check=False)


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
        preserved_end(system, rep, tol)
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
    blocks = rep.blocks()
    eye = np.eye(d, dtype=complex)
    # the graph of f_a is the src columns of I + f_a extended by zero
    inclusions = [eye[:, block] for block in blocks.values()]
    inclusions += [(eye + rep.extended_map(a))[:, blocks[a.src]] for a in rep.quiver.arrows]
    system = make_system(d, inclusions, tol)
    if check:
        preserved_end(rep, system, tol)
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
    q = rep.quiver
    twin = {v: v + "'" for v in q.vertices if q.loops_at(v)}
    if not twin:
        return rep
    taken = [t for t in twin.values() if t in q.vertices]
    if taken:
        raise ValidationError(
            f"vertex name {taken[0]!r} already taken; rename before removing loops")
    placed = [(w, v) for v in q.vertices for w in (v, twin.get(v)) if w is not None]
    vertices = [w for w, _ in placed]
    dims = {w: rep.dims[v] for w, v in placed}
    arrows = [Arrow(a.name, a.src, twin[a.src]) if a.src == a.dst
              else Arrow(a.name, twin.get(a.src, a.src), a.dst) for a in q.arrows]
    maps = dict(rep.maps)
    for v, t in twin.items():
        name = f"id_{v}"
        while name in maps:
            name += "'"
        arrows.append(Arrow(name, v, t))
        maps[name] = np.eye(rep.dims[v], dtype=complex)
    out = Representation(Quiver(tuple(vertices), tuple(arrows)), dims, maps)
    if check:
        preserved_end(rep, out, tol)
    return out
