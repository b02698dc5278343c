"""Systems of subspaces and the End-preserving bridges between operators,
quiver representations, and subspace systems.

A system is an ambient space with an ordered tuple of subspaces, stored as
orthonormalized inclusion matrices.  Its endomorphism algebra consists of the
operators leaving every subspace invariant; a system (equivalently, the
lattice it generates) is transitive when that algebra is the scalars.  That
algebra is End of the system's subspace-quiver representation read at the
sink, and Hom's forest (:mod:`intertwiner`) solves it there: this module
builds no equations of its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure, ValidationError
from .intertwiner import _assemble, _spanning_forest, end
from .kronecker import loop_rep
from .numerics import DEFAULT_TOL, Tolerances, check_unknowns, orthonormal_inclusion, ranked
from .quiver import Arrow, Quiver, build_canonical
from .rep import Representation


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


def system_end_dimension(system: SubspaceSystem, tol: Tolerances = DEFAULT_TOL) -> int:
    """dim End of :func:`system_to_rep` of ``system``, read from the singular
    values alone: the kept unknowns of the forest system of the subspace-quiver
    representation minus its rank, at the cutoff and scale its nullspace is
    taken at (:func:`intertwiner._assemble`), when that decision's gap is at
    least ``elim_gap``; otherwise End of the representation, as there."""
    d = system.ambient_dim
    check_unknowns("subspace system", d * d)
    if d == 0 or not system.inclusions:
        return d * d
    rep = system_to_rep(system, tol, check=False)
    matrix, scale, _ = _assemble(rep, rep, tol, _spanning_forest(rep, rep, tol))
    rank, gap = ranked(matrix, tol, scale)
    return matrix.shape[1] - rank if gap >= tol.elim_gap() else end(rep, tol).dimension


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
    asserted when ``check`` is set.  Raises SizeLimitExceeded, as the
    system's End would, before the d x d ambient identity is built.
    """
    if rep.quiver.has_loops():
        raise ValidationError(
            "the quiver has self-loops; apply remove_loops first"
        )
    d = rep.total_dim
    check_unknowns("subspace system", d * d)
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
