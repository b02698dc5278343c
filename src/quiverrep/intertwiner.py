"""Intertwiner (Hom/End) spaces between Hilbert representations.

Hom((H,f),(K,g)) is the nullspace of the stacked linear system
T_range(a) . f_a - g_a . T_source(a) = 0 over all arrows a.  An arrow whose
source map f is square and well conditioned determines its range's unknown
from its source's: T_range = g T_source f^-1, the paper's reduction
(A, B) -> (I, A^-1 B) applied to Hom.  Hom eliminates along a spanning forest
of such arrows, so every vertex has T_v = L_v T_root R_v, and solves the
remaining arrows' equations in the root unknowns only; the dense system, one
unknown matrix per vertex, is the fallback.  Unknowns are vectorized
row-major; the numerical nullspace follows the package-wide SVD threshold
policy and the returned basis is orthonormal under the entrywise inner
product summed over vertices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SizeLimitExceeded, ValidationError
from .numerics import (DEFAULT_TOL, Tolerances, inverse, is_invertible, max_entry,
                       nullspace, random_complex)
from .quiver import Arrow
from .rep import Representation

MAX_UNKNOWNS = 250_000
# Random Hom elements tried by are_isomorphic before it answers probably_no.
ISO_SAMPLES = 8


@dataclass(frozen=True, eq=False)
class HomBasis:
    """Orthonormal basis of the space of intertwiners between two representations.

    ``stacks[v]`` holds the basis elements' blocks at vertex v, shape
    (dimension, target.dims[v], source.dims[v]); iterating yields one vertex
    tuple per element.  ``cutoff`` and ``gap`` are the evidence of the rank
    decision, taken on the system that ``path`` names ("forest" for the
    eliminated one, "dense" for one unknown matrix per vertex); ``unknowns``
    is that system's column count.
    """

    source: Representation
    target: Representation
    stacks: dict[str, np.ndarray]
    dimension: int
    cutoff: float
    gap: float
    path: str = "dense"
    unknowns: int = 0

    def __iter__(self):
        return ({v: b[i] for v, b in self.stacks.items()} for i in range(self.dimension))


@dataclass(frozen=True)
class _Forest:
    """T_v = left[v] @ X @ right[v] for the unknown X of ``root[v]``; a root
    has identity factors.  ``arrows`` are the eliminated arrows."""

    root: dict[str, str]
    left: dict[str, np.ndarray]
    right: dict[str, np.ndarray]
    arrows: frozenset[str]


def _forest(a: Representation, b: Representation,
            incoming: dict[str, tuple[Arrow, np.ndarray]]) -> _Forest:
    """The factors of the forest whose arrows are ``incoming``, which maps a
    vertex to its one kept incoming arrow and that arrow's f^-1 in ``a``.
    With no arrows every vertex is its own root: the dense system."""
    vertices = a.quiver.vertices
    root = {v: v for v in vertices}
    left = {v: np.eye(b.dims[v]) for v in vertices}
    right = {v: np.eye(a.dims[v]) for v in vertices}

    def settle(v):
        # along src -> v: T_v = g T_src f^-1 = (g L_src) X (R_src f^-1)
        if v in incoming and root[v] == v:
            arr, f_inv = incoming[v]
            settle(arr.src)
            root[v] = root[arr.src]
            left[v] = b.maps[arr.name] @ left[arr.src]
            right[v] = right[arr.src] @ f_inv

    for v in incoming:
        settle(v)
    return _Forest(root, left, right, frozenset(arr.name for arr, _ in incoming.values()))


def _spanning_forest(a: Representation, b: Representation, tol: Tolerances) -> _Forest:
    """A spanning forest of the arrows Hom(a, b) may eliminate through, by Kruskal.

    An arrow is admitted when it is no loop and its map f in ``a`` is square
    and nonempty with sigma_min >= ``elim_tol(sigma_max)``.  Arrows are taken
    best conditioned first (declaration order breaks ties).  One is kept when
    its range has no kept incoming arrow yet and is not the root of its
    source's tree; so every tree has one root, and every kept arrow points
    away from it.
    """
    admitted = []
    for arr in a.quiver.arrows:
        f = a.maps[arr.name]
        if arr.src != arr.dst and f.size and f.shape[0] == f.shape[1]:
            f_inv, ratio = inverse(f, tol)
            if f_inv is not None and ratio >= tol.elim_tol(1.0):
                admitted.append((ratio, arr, f_inv))
    incoming = {}

    def root_of(v):
        while v in incoming:
            v = incoming[v][0].src
        return v

    for _, arr, f_inv in sorted(admitted, key=lambda item: -item[0]):
        if arr.dst not in incoming and root_of(arr.src) != arr.dst:
            incoming[arr.dst] = (arr, f_inv)
    return _forest(a, b, incoming)


def hom_scale(a: Representation, b: Representation) -> float:
    """Residual scale: the larger ``map_scale`` of the two representations."""
    return max(a.map_scale(), b.map_scale())


def intertwining_residual(a: Representation, b: Representation,
                          t: dict[str, np.ndarray]) -> float:
    """max over arrows of || T_range f_a - g_a T_source ||_F for the tuple
    ``t``, or the max of that over the elements of a stack, shape
    (k, b.dims[v], a.dims[v]) at every vertex v."""
    worst = 0.0
    for arr in a.quiver.arrows:
        diff = t[arr.dst] @ a.maps[arr.name] - b.maps[arr.name] @ t[arr.src]
        worst = max(worst, float(np.max(np.linalg.norm(diff, axis=(-2, -1)), initial=0.0)))
    return worst


def _solve(a: Representation, b: Representation, tol: Tolerances, forest: _Forest,
           max_unknowns: int) -> HomBasis:
    """Hom(a, b) from the equations of the arrows ``forest`` did not
    eliminate, in its roots' unknowns.  Raises SizeLimitExceeded before the
    system is allocated when it has more than ``max_unknowns`` columns."""
    path = "forest" if forest.arrows else "dense"
    vertices = a.quiver.vertices
    offsets, n_unknowns = {}, 0
    for v in vertices:
        if forest.root[v] == v:
            offsets[v] = n_unknowns
            n_unknowns += a.dims[v] * b.dims[v]
    if n_unknowns > max_unknowns:
        raise SizeLimitExceeded(
            f"{path} intertwiner system has {n_unknowns} unknowns > limit {max_unknowns}"
        )
    rest = [arr for arr in a.quiver.arrows if arr.name not in forest.arrows]
    rows = sum(b.dims[arr.dst] * a.dims[arr.src] for arr in rest)
    system = np.zeros((rows, n_unknowns), dtype=complex)
    # the scale floors sigma_max in the cutoff: a loop system
    # kron(I, f^T) - kron(g, I) cancels to rounding noise when f = g is scalar
    scale = hom_scale(a, b)
    row = 0
    # an entry that overflows is reported by nullspace as a NumericalFailure
    with np.errstate(over="ignore", invalid="ignore"):
        for arr in rest:
            f = a.maps[arr.name]
            g = b.maps[arr.name]
            height = b.dims[arr.dst] * a.dims[arr.src]
            if height:
                # row-major vec: vec(L X R) = (L (x) R^T) vec(X), so
                # T_dst f = L X (R f) and g T_src = (g L) X R
                for v, term in (
                        (arr.dst, np.kron(forest.left[arr.dst], (forest.right[arr.dst] @ f).T)),
                        (arr.src, -np.kron(g @ forest.left[arr.src], forest.right[arr.src].T))):
                    c = offsets[forest.root[v]]
                    system[row:row + height, c:c + term.shape[1]] += term
                    scale = max(scale, max_entry(term))
            row += height

    null = nullspace(system, tol, scale=scale)
    k = null.dimension
    stacks = {}
    for v in vertices:
        r = forest.root[v]
        x = null.basis[:, offsets[r]:offsets[r] + a.dims[r] * b.dims[r]]
        x = x.reshape(k, b.dims[r], a.dims[r])
        stacks[v] = x if v == r else forest.left[v] @ x @ forest.right[v]
    if forest.arrows and k:
        # the lift is no longer orthonormal: one QR under the summed product
        q, _ = np.linalg.qr(np.hstack([stacks[v].reshape(k, -1) for v in vertices]).T)
        sizes = np.cumsum([a.dims[v] * b.dims[v] for v in vertices])[:-1]
        stacks = {v: block.reshape(k, b.dims[v], a.dims[v])
                  for v, block in zip(vertices, np.split(q.T, sizes, axis=1))}
    stacks = {v: np.ascontiguousarray(x) for v, x in stacks.items()}
    for x in stacks.values():
        x.flags.writeable = False  # iteration hands out views
    return HomBasis(a, b, stacks, k, null.cutoff, null.gap, path, n_unknowns)


def hom(a: Representation, b: Representation, tol: Tolerances = DEFAULT_TOL,
        max_unknowns: int | None = None) -> HomBasis:
    """Orthonormal basis of Hom(a, b).

    Solves by elimination along a spanning forest of invertible arrows
    (:func:`_spanning_forest`) when one exists.  Its answer is kept only when
    its nullspace gap is at least ``elim_gap`` and every basis element's
    intertwining residual is at most ``hom_tol(hom_scale)``: the
    elimination's rounding error grows with the arrows' condition numbers,
    the cutoff does not.  Otherwise the dense system is solved.

    A degenerate system (no unknowns) yields a dimension-0 basis, not an
    error.  Raises SizeLimitExceeded when the system about to be solved has
    more than ``max_unknowns`` unknowns (module default MAX_UNKNOWNS).
    """
    if a.quiver != b.quiver:
        raise ValidationError("hom requires representations over the same quiver")
    if max_unknowns is None:
        max_unknowns = MAX_UNKNOWNS
    forest = _spanning_forest(a, b, tol)
    if forest.arrows:
        basis = _solve(a, b, tol, forest, max_unknowns)
        tau = tol.hom_tol(hom_scale(a, b))
        if basis.gap >= tol.elim_gap() and intertwining_residual(a, b, basis.stacks) <= tau:
            return basis
    return _dense_hom(a, b, tol, max_unknowns)


def _dense_hom(a: Representation, b: Representation, tol: Tolerances = DEFAULT_TOL,
               max_unknowns: int = MAX_UNKNOWNS) -> HomBasis:
    """Hom(a, b) from the dense system, one unknown matrix per vertex."""
    return _solve(a, b, tol, _forest(a, b, {}), max_unknowns)


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
                   seed: int = 0) -> IsoResult:
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
    for _ in range(ISO_SAMPLES):
        coeff = random_complex(rng, (basis.dimension,))
        cand = {v: np.tensordot(coeff, b, axes=1) for v, b in basis.stacks.items()}
        if all(is_invertible(block, tol) for block in cand.values()):
            return IsoResult("yes", "sampled invertible intertwiner", basis.dimension,
                             cand, seed)
    return IsoResult("probably_no",
                     f"no invertible intertwiner in {ISO_SAMPLES} samples",
                     basis.dimension, seed=seed)


def relatively_prime(a: Representation, b: Representation,
                     tol: Tolerances = DEFAULT_TOL) -> bool:
    """True iff Hom(a, b) and Hom(b, a) are both zero."""
    return hom(a, b, tol).dimension == 0 and hom(b, a, tol).dimension == 0
