"""Intertwiner (Hom/End) spaces between Hilbert representations.

Hom((H,f),(K,g)) is the nullspace of the stacked linear system
T_range(a) . f_a - g_a . T_source(a) = 0 over all arrows a.  An arrow can
determine one end's unknown from the other's: a square invertible f
gives T_range = g T_source f^-1, the paper's reduction (A, B) -> (I, A^-1 B)
applied to Hom; a surjective f gives T_range = g T_source f^+ and an
injective g gives T_source = g^+ T_range f, each leaving the part of the
arrow's equation the one-sided inverse cannot see.  Hom eliminates along a
spanning forest of such steps, so every vertex has T_v = L_v T_root R_v,
and solves the remaining equations in the root unknowns only; the dense
system, one unknown matrix per vertex, is the fallback when that answer
fails its guards; an injective map spanned by coordinate vectors, such as
a subspace system's inclusion, instead fixes entries of T_root to 0, which
leave the unknowns.  When the forest has one root and its square steps
leave equations X C_a = C_b X in the unknown X at an end of some arrow,
from a loop or from an arrow such as g of a Kronecker pair (f, g) reduced
to (I, C = f^-1 g), Hom is first read from one Arnoldi run on one such C_a,
whatever the two representations (:func:`hom`): for a nonderogatory C_a it
lies in a family of at most n elements, the n polynomials in C when both
sides hold the same data (End), else the X whose image of the run's first
vector lies in ker p_a(C_b), an m x m decision; the other equations cut
that family down in an orthonormal basis of it, with no n m x n m system.
Unknowns are vectorized row-major; the numerical nullspace follows the
package-wide SVD threshold policy and the returned basis is orthonormal
under the entrywise inner product summed over vertices.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import SizeLimitExceeded, ValidationError
from .numerics import (DEFAULT_TOL, EPS, Tolerances, arnoldi, check_unknowns, frob, inverse,
                       is_invertible, max_entry, nullspace, orthonormal_inclusion, polynomials_in,
                       random_complex)
from .quiver import Arrow
from .rep import Representation

# Random Hom elements tried by are_isomorphic before it answers probably_no.
ISO_SAMPLES = 8


@dataclass(frozen=True, eq=False)
class HomBasis:
    """Orthonormal basis of the space of intertwiners between two representations.

    ``stacks[v]`` holds the basis elements' blocks at vertex v, shape
    (dimension, b.dims[v], a.dims[v]) for Hom(a, b); iterating yields one vertex
    tuple per element.  ``cutoff`` and ``gap`` are the evidence of the rank
    decision, taken on the system that ``path`` names ("forest" for the
    eliminated one, "dense" for one unknown matrix per vertex, "krylov" for
    a Hom read from one Arnoldi run (:func:`hom`), End's polynomials in one
    matrix or a cross Hom's ker p_a(C_b), decided on the Arnoldi steps, on
    p_a(C_b) and on the system of the other equations, whichever has the
    smallest gap); ``unknowns`` is that system's column count, for "krylov"
    the forest system's: the n m of the unknown X, n^2 for End.
    """

    stacks: dict[str, np.ndarray]
    dimension: int
    cutoff: float
    gap: float
    path: str = "dense"
    unknowns: int = 0

    def __iter__(self):
        return ({v: b[i] for v, b in self.stacks.items()} for i in range(self.dimension))


@dataclass(frozen=True)
class _Step:
    """T_child = left @ T_parent @ right, the elimination through ``arrow``;
    ``leftover`` is the part (v, lhs, rhs) of the arrow's equation it leaves,
    lhs T_v rhs = 0, with no rows when the arrow is square; ``zeros``, if
    set, masks the entries of T_v that the leftover says are 0, all it says."""

    arrow: str
    parent: str
    child: str
    left: np.ndarray
    right: np.ndarray
    leftover: tuple[str, np.ndarray, np.ndarray]
    zeros: np.ndarray | None = None


def _admits(m: np.ndarray, m_inv: np.ndarray, ratio: float, tol: Tolerances) -> bool:
    """Whether Hom eliminates through ``m``, of full rank at ``inv_tol``, with
    one-sided inverse ``m_inv`` and singular value ratio ``ratio``.

    A one-sided map must be an isometry up to scale: singular values equal
    at ``inv_tol``.  A square map's eliminated system is exact for maps
    perturbed by the inverse's backward error ``m m_inv - I``, which spoils
    a rank decision at a gap of about error / eps; :func:`hom` flags gaps
    under ``elim_gap``, so the error may be at most ``elim_gap`` eps.  It is
    measured, not bounded by the condition number: a diagonal inverse is
    exact however ill conditioned."""
    if m.shape[0] != m.shape[1]:
        return 1.0 - ratio <= tol.inv_tol(1.0)
    return max_entry(m @ m_inv - np.eye(len(m))) <= tol.elim_gap() * EPS


def _spanning_forest(a: Representation, b: Representation,
                     tol: Tolerances) -> dict[str, _Step]:
    """A spanning forest of the steps Hom(a, b) may eliminate through, by
    Kruskal, as the map from each child vertex to the one kept step into it.

    An arrow src -> dst that is no loop, with maps f in ``a`` and g in ``b``,
    offers a step through a nonempty map that :func:`_admits`:

    - f square or wide (surjective): T_dst = g T_src f^+, leaving
      g T_src Q = 0 for Q spanning ker f;
    - g tall (injective): T_src = g^+ T_dst f, leaving Q^H T_dst f = 0 for
      Q spanning range(g)^perp, so the step runs against the arrow.  When f
      equals g entrywise (as in End, of one object or of two copies) with
      exactly k nonzero rows R, by the exact test ``g.any(axis=1)``,
      range(g) = span{e_r : r in R} and g[R] is invertible, so the leftover
      says T_dst[r', r] = 0 for r in R and r' outside it: the step's
      ``zeros``.

    A square arrow leaves nothing, and a square g offers no step.  The
    leftover equations are the arrow's own, projected onto Q: the residual
    is -g T_src Q Q^H (or Q Q^H T_dst f), whose norm is that of the
    leftover, so its singular values are unchanged.  Steps are taken best
    conditioned first (declaration order breaks ties).  One is kept when its
    child has no kept step into it yet and is not the root of its parent's
    tree; so every tree has one root, and every kept step points away from it.
    """
    admitted = []
    for arr in a.quiver.arrows:
        if arr.src == arr.dst:
            continue
        f, g = a.maps[arr.name], b.maps[arr.name]
        if f.size and f.shape[0] <= f.shape[1]:
            f_inv, kernel, ratio = inverse(f, tol)
            if f_inv is not None and _admits(f, f_inv, ratio, tol):
                leftover = (arr.src, g, kernel)
                admitted.append((ratio, _Step(arr.name, arr.src, arr.dst, g, f_inv, leftover)))
        if g.size and g.shape[0] > g.shape[1]:
            g_inv, cokernel, ratio = inverse(g, tol)
            if g_inv is not None and _admits(g, g_inv, ratio, tol):
                leftover = (arr.dst, cokernel.conj().T, f)
                rows = g.any(axis=1)
                zeros = (np.outer(~rows, rows)
                         if rows.sum() == g.shape[1] and np.array_equal(f, g) else None)
                step = _Step(arr.name, arr.dst, arr.src, g_inv, f, leftover, zeros)
                admitted.append((ratio, step))
    incoming = {}

    def root_of(v):
        while v in incoming:
            v = incoming[v].parent
        return v

    for _, step in sorted(admitted, key=lambda item: -item[0]):
        if step.child not in incoming and root_of(step.parent) != step.child:
            incoming[step.child] = step
    return incoming


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


def _fixed(steps: dict[str, _Step]) -> dict[str, np.ndarray]:
    """At each root some step's ``zeros`` falls on, the entries of T_root
    they fix to 0, the union of those masks; every root's other unknowns
    are kept."""
    fixed = {}
    for s in steps.values():
        v = s.leftover[0]
        if s.zeros is not None and v not in steps:
            fixed[v] = fixed[v] | s.zeros if v in fixed else s.zeros
    return fixed


def _settled(a: Representation, b: Representation, steps: dict[str, _Step]
             ) -> tuple[dict[str, str], dict[str, np.ndarray], dict[str, np.ndarray],
                        dict[str, np.ndarray]]:
    """The forest of kept ``steps`` composed: each vertex's root; left[v],
    right[v] with T_v = left[v] @ T_root[v] @ right[v]; and each root's kept
    unknowns, the mask of the entries no step's ``zeros`` fixes to 0 there
    (:func:`_fixed`)."""
    vertices = a.quiver.vertices
    root = {v: v for v in vertices}
    left = {v: np.eye(b.dims[v]) for v in vertices}
    right = {v: np.eye(a.dims[v]) for v in vertices}

    def settle(v):
        # T_v = S_l T_parent S_r = (S_l L_parent) X (R_parent S_r)
        if v in steps and root[v] == v:
            step = steps[v]
            settle(step.parent)
            root[v] = root[step.parent]
            left[v] = step.left @ left[step.parent]
            right[v] = right[step.parent] @ step.right

    for v in steps:
        settle(v)
    fixed = _fixed(steps)
    kept = {v: ~fixed[v] if v in fixed else np.ones((b.dims[v], a.dims[v]), dtype=bool)
            for v in vertices if v not in steps}
    return root, left, right, kept


def _kron_on(p: np.ndarray, q: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """The columns of np.kron(p, q) at the entries ``kept`` of the unknown X
    only, with the same products: p[i, r] q[j, c] for kept[r, c]."""
    rows, cols = np.nonzero(kept)
    return (p[:, rows][:, None, :] * q[:, cols][None, :, :]).reshape(len(p) * len(q), -1)


def _assemble(a: Representation, b: Representation, tol: Tolerances,
              steps: dict[str, _Step]) -> tuple[np.ndarray, float, tuple]:
    """The system of Hom(a, b) eliminated along the forest whose kept
    ``steps`` map a vertex to the step into it, its cutoff's scale floor,
    and the composed forest (:func:`_settled`): T_v = left[v] @ X @ right[v]
    for the unknown X of ``root[v]``, and the system is the equations of the
    arrows no step eliminated and the leftovers of those it did, except the
    ``zeros`` at a root, in the roots' kept unknowns.  With no steps every
    vertex is its own root: the dense system.  Raises SizeLimitExceeded
    before the forest is composed or the system allocated when it has more
    columns than :func:`numerics.check_unknowns` allows."""
    fixed = _fixed(steps)
    roots = [v for v in a.quiver.vertices if v not in steps]
    widths = [b.dims[r] * a.dims[r] - (int(fixed[r].sum()) if r in fixed else 0) for r in roots]
    check_unknowns(f"{'forest' if steps else 'dense'} intertwiner system", sum(widths))
    settled = root, left, right, kept = _settled(a, b, steps)
    offsets = dict(zip(roots, np.cumsum([0] + widths)))
    # each equation is a sum of terms lhs T_v rhs, all of the first's height
    eliminated = {s.arrow for s in steps.values()}
    equations = [((arr.dst, np.eye(b.dims[arr.dst]), a.maps[arr.name]),
                  (arr.src, -b.maps[arr.name], np.eye(a.dims[arr.src])))
                 for arr in a.quiver.arrows if arr.name not in eliminated]
    equations += [(s.leftover,) for s in steps.values()
                  if s.zeros is None or s.leftover[0] not in kept]
    heights = [lhs.shape[0] * rhs.shape[1] for (_, lhs, rhs), *_ in equations]
    system = np.zeros((sum(heights), sum(widths)), dtype=complex)
    # the scale floors sigma_max in the cutoff: a loop system
    # kron(I, f^T) - kron(g, I) cancels to rounding noise when f = g is scalar
    scale = hom_scale(a, b)
    row = 0
    # an entry that overflows is reported by nullspace as a NumericalFailure
    with np.errstate(over="ignore", invalid="ignore"):
        for terms, h in zip(equations, heights):
            if h:
                for v, lhs, rhs in terms:
                    # row-major vec: vec(lhs L X R rhs) = (lhs L (x) (R rhs)^T) vec(X)
                    r = root[v]
                    term = _kron_on(lhs @ left[v], (right[v] @ rhs).T, kept[r])
                    system[row:row + h, offsets[r]:offsets[r] + term.shape[1]] += term
                    scale = max(scale, max_entry(term))
            row += h
    return system, scale, settled


def _solve(a: Representation, b: Representation, tol: Tolerances,
           steps: dict[str, _Step],
           null: tuple[np.ndarray, float, float] | None = None) -> HomBasis:
    """Hom(a, b) from the nullspace of :func:`_assemble`'s system along the
    forest of kept ``steps``, lifted with zeros in the unknowns a coordinate
    step fixed and by T_v = left[v] @ X @ right[v] to every vertex.  ``null``,
    when given, is that system's nullspace found without building it, as
    (rows, cutoff, gap), orthonormal rows: the Krylov basis
    (:func:`_krylov`), and only the lift is done."""
    path = "krylov" if null else "forest" if steps else "dense"
    if null is None:
        system, scale, settled = _assemble(a, b, tol, steps)
        found = nullspace(system, tol, scale=scale)
        null = found.basis, found.cutoff, found.gap
    else:
        settled = _settled(a, b, steps)
    root, left, right, kept = settled
    rows, cutoff, gap = null
    k = len(rows)
    at_root, col = {}, 0
    for r, mask in kept.items():
        at_root[r] = np.zeros((k, *mask.shape), dtype=complex)
        at_root[r][:, mask] = rows[:, col:col + mask.sum()]
        col += int(mask.sum())
    vertices = a.quiver.vertices
    stacks = {v: at_root[v] if v == root[v] else left[v] @ at_root[root[v]] @ right[v]
              for v in vertices}
    if steps and k:
        # the lift is no longer orthonormal: one QR under the summed product
        q, _ = np.linalg.qr(np.hstack([stacks[v].reshape(k, -1) for v in vertices]).T)
        sizes = np.cumsum([a.dims[v] * b.dims[v] for v in vertices])[:-1]
        stacks = {v: block.reshape(k, b.dims[v], a.dims[v])
                  for v, block in zip(vertices, np.split(q.T, sizes, axis=1))}
    stacks = {v: np.ascontiguousarray(x) for v, x in stacks.items()}
    for x in stacks.values():
        x.flags.writeable = False  # iteration hands out views
    return HomBasis(stacks, k, cutoff, gap, path, col)


def hom(a: Representation, b: Representation, tol: Tolerances = DEFAULT_TOL) -> HomBasis:
    """Orthonormal basis of Hom(a, b); Hom(rep, rep) is End (:func:`end`).

    Solves by elimination along a spanning forest of square invertible and
    one-sided isometric arrows (:func:`_spanning_forest`) when one exists.
    Its answer is kept only when its nullspace gap is at least ``elim_gap``
    and every basis element's intertwining residual is at most
    ``hom_tol(hom_scale)``: the elimination's rounding error grows with its
    inverses' backward errors, the cutoff does not.  These two guards alone
    judge the answer; otherwise the dense system is solved.

    When that forest has one root and square steps, it leaves equations
    X C_a = C_b X at either end u of each arrow it does not eliminate, in
    X = T_u (the paper's reduction (A, B) -> (I, A^-1 B) on both sides), and
    Hom is first read from one Arnoldi run (:func:`_krylov`).  For a
    nonderogatory C_a, Hom lies in a family of at most n elements
    (Gantmacher, Theory of Matrices I, ch. VIII).  When a and b hold the same
    data, Hom is End and the family is the n polynomials in C, which one
    Arnoldi run on I, C, ..., C^(n-1) (:func:`numerics.polynomials_in`) both
    decides, at a gap of at least ``elim_gap``, and orthonormalizes, keeping
    each element's commutator residual at most ``hom_tol(hom_scale)``.
    Otherwise it is the X whose image X v of the run's cyclic vector v lies
    in ker p_a(C_b), an m x m decision at O(n^4) (:func:`_kernel_family`),
    kept when C_a's steps clear their cutoff by ``elim_gap``, the kept
    singular values of p_a(C_b) clear its cutoff, at the recurrence's own
    rounding scale, by ``elim_gap`` (``NullspaceResult.margin``), and each
    element of its orthonormal basis has residual at most
    ``hom_tol(hom_scale)``, as End's.  The candidates are tried smallest
    norm first; the first family that passes is cut down by the other
    equations X D_a = D_b X in one nullspace at ``hom_scale``, kept when
    both its gap and its margin are at least ``elim_gap`` (the rounding of
    a true element's commutators can sit just above the cutoff, where the
    gap alone reads infinite), and lifted by :func:`_solve`, with no
    n^2 x n^2 SVD.  That basis has path "krylov", the n m unknowns of X and
    the cutoff and gap of the decision with the smallest gap, and is kept
    only when every element's intertwining residual is at most
    ``hom_tol(hom_scale)``.  On any doubt the forest answers.  Only the data
    decides: ``hom(rep, copy)`` is ``hom(rep, rep)``.

    A degenerate system (no unknowns) yields a dimension-0 basis, not an
    error.  Raises SizeLimitExceeded when the system about to be solved has
    more unknowns than :func:`numerics.check_unknowns` allows.  End checks
    its n^2 unknowns before it reduces C, so it refuses what the forest
    refuses; a cross Hom's recurrence stack of n m^2 entries over that limit
    leaves the answer to the forest, which checks its own.  No draw is made:
    Hom reads no seed and no start vector.
    """
    if a.quiver != b.quiver:
        raise ValidationError("hom requires representations over the same quiver")
    steps = _spanning_forest(a, b, tol)
    # an entry that overflows fails a guard here, and the forest reports it
    with np.errstate(over="ignore", invalid="ignore"):
        basis = _krylov(a, b, tol, steps)
    if basis is not None:
        return basis
    if steps:
        basis = _solve(a, b, tol, steps)
        tau = tol.hom_tol(hom_scale(a, b))
        if basis.gap >= tol.elim_gap() and intertwining_residual(a, b, basis.stacks) <= tau:
            return basis
    return _dense_hom(a, b, tol)


def _dense_hom(a: Representation, b: Representation, tol: Tolerances = DEFAULT_TOL) -> HomBasis:
    """Hom(a, b) from the dense system, one unknown matrix per vertex."""
    return _solve(a, b, tol, {})


def _rerooted(steps: dict[str, _Step], u: str, inverses: dict[str, np.ndarray],
              maps: dict[str, np.ndarray]) -> dict[str, _Step]:
    """The forest of square steps T_child = g T_parent f^-1 with the root of
    u's tree moved to u: each step on the path from u up to the root runs
    the other way, T_parent = g^-1 T_child f, with g^-1 the ``inverses`` of
    the step's child and f its arrow's map in ``maps``."""
    steps = dict(steps)
    step = steps.pop(u, None)
    while step is not None:
        above = steps.pop(step.parent, None)
        steps[step.parent] = replace(step, parent=step.child, child=step.parent,
                                     left=inverses[step.child], right=maps[step.arrow])
        step = above
    return steps


def _framed(c: np.ndarray, u: str, arr: Arrow, left: dict[str, np.ndarray],
            right: dict[str, np.ndarray]) -> np.ndarray:
    """The map ``c`` of ``arr`` seen at u along a forest of square steps of
    one representation: T_v = (L_v R_u) T_u (L_u R_v) turns T_dst c = c T_src
    into T_u C = C T_u."""
    if u != arr.dst:
        c = left[u] @ right[arr.dst] @ c
    if u != arr.src:
        c = c @ left[arr.src] @ right[u]
    return c


def _kernel_family(c_a: np.ndarray, c_b: np.ndarray, tol: Tolerances, floor: float,
                   bound: float) -> tuple[np.ndarray | None, float, float]:
    """The X with X C_a = C_b X as a stack (r, m, n), with the cutoff and
    gap of the smaller-gap decision, for a nonderogatory C_a; None when a
    guard fails (:func:`hom`).  X is read off its image x = X v_0 of the
    first of C_a's Arnoldi vectors v_k, run at the cutoff floor ``floor``:
    X v_k = W_k x, where W_0 = I and C_b W_k = sum_j H[j, k] W_j carries on
    the recurrence C_a v_k = sum_j H[j, k] v_j, so x spans the nullspace of
    its last equation K = p_a(C_b) / prod h, and X = sum_k W_k x v_k^H.
    Their span is returned orthonormal, as End's polynomials are, and each
    element's residual ||X C_a - C_b X||_F must be at most ``bound``."""
    n, m = len(c_a), len(c_b)
    arnoldi_rows, hessenberg, cutoff, gap = arnoldi(c_a, np.ones(n) / np.sqrt(n), tol, floor)
    if arnoldi_rows is None:
        return None, cutoff, gap
    # C_a v_(n-1) lies in the span of the v_k: its coefficients close the recurrence
    last = arnoldi_rows.conj() @ (c_a @ arnoldi_rows[-1])
    hessenberg = np.column_stack([hessenberg, last])
    stack = np.zeros((n, m, m), dtype=complex)
    stack[0] = np.eye(m)
    norms = np.zeros(n)
    norms[0] = np.sqrt(m)
    # the rounding scale: the largest norm summed in a step, over its h; C_b
    # is known to the map scale, which floors its term as it floors the cutoff
    noise = 0.0
    for k in range(n):
        image = c_b @ stack[k]
        w = image - (hessenberg[:k + 1, k] @ stack[:k + 1].reshape(k + 1, -1)).reshape(m, m)
        largest = max(frob(image), floor * norms[k],
                      float(np.max(np.abs(hessenberg[:k + 1, k]) * norms[:k + 1])))
        if k + 1 < n:
            h = hessenberg[k + 1, k].real
            stack[k + 1] = w / h
            norms[k + 1] = frob(stack[k + 1])
            noise = max(noise, largest / h)
        else:
            noise = max(noise, largest)
    if not (np.isfinite(w).all() and np.isfinite(noise)):
        return None, cutoff, gap
    found = nullspace(w, tol, scale=noise)
    if found.margin < tol.elim_gap():
        return None, cutoff, gap
    family = np.einsum("kiz,kj->zij", stack @ found.basis.T, arnoldi_rows.conj())
    try:
        # ||X||_F >= |X v_0| = |x|, so only rounding can make the X dependent
        span = orthonormal_inclusion(family.reshape(len(family), m * n).T, tol, "kernel family")
    except ValidationError:
        return None, cutoff, gap
    family = span.T.reshape(family.shape)
    if np.max(np.linalg.norm(family @ c_a - c_b @ family, axis=(1, 2)), initial=0.0) > bound:
        return None, cutoff, gap
    return family, *min((cutoff, gap), (found.cutoff, found.margin), key=lambda e: e[1])


def _krylov(a: Representation, b: Representation, tol: Tolerances,
            steps: dict[str, _Step]) -> HomBasis | None:
    """Hom(a, b) along a forest of square ``steps`` with one root, from the
    equations it leaves, X D_a = D_b X in X = T_u at either end u of each
    arrow no step eliminated (a loop's one vertex); None when a guard fails
    (:func:`hom`).  Each side is framed at u by its own forest, b's step maps
    inverted as the forest inverts a's.  The candidates (C_a, C_b) are tried
    smallest ||C_a||_F first, the nearer to normal (Henrici), in which
    Arnoldi's rounding grows more slowly, and the first whose family passes
    its guards is used: End's polynomials in C when a and b hold the same
    data, otherwise :func:`_kernel_family`; either is orthonormal.  It is cut
    down by the other equations and lifted along the forest rerooted at u."""
    vertices = a.quiver.vertices
    n, m = (a.dims[vertices[0]], b.dims[vertices[0]]) if vertices else (0, 0)
    if (not n * m or len(vertices) - len(steps) != 1
            or any((a.dims[v], b.dims[v]) != (n, m) for v in vertices)):
        return None
    same = n == m and all(np.array_equal(f, b.maps[name]) for name, f in a.maps.items())
    if same:
        check_unknowns("krylov intertwiner system", n * n)
    else:
        try:
            # the n x m x m recurrence stack and a's n x n frames, before either is built
            check_unknowns("krylov recurrence stack", n * max(n, m * m))
        except SizeLimitExceeded:
            return None  # the forest checks its own n m unknowns
    inverses = {}
    for v, step in steps.items():
        g_inv, _, ratio = inverse(step.left, tol)
        if g_inv is None or not _admits(step.left, g_inv, ratio, tol):
            return None
        inverses[v] = g_inv
    left_a, right_a = _settled(a, a, {v: replace(step, left=a.maps[step.arrow])
                                      for v, step in steps.items()})[1:3]
    left_b, right_b = _settled(b, b, {v: replace(step, right=inverses[v])
                                      for v, step in steps.items()})[1:3]

    def framed(arr, u):
        return (_framed(a.maps[arr.name], u, arr, left_a, right_a),
                _framed(b.maps[arr.name], u, arr, left_b, right_b))

    eliminated = {s.arrow for s in steps.values()}
    equations = [arr for arr in a.quiver.arrows if arr.name not in eliminated]
    candidates = [(*framed(arr, u), u, arr)
                  for arr in equations for u in dict.fromkeys((arr.src, arr.dst))]
    norms = [frob(c_a) for c_a, *_ in candidates]
    if not np.isfinite(norms).all():
        return None  # C_a, or its norm, overflows: hom reports it; C_b fails the recurrence
    scale = hom_scale(a, b)
    tau = tol.hom_tol(scale)
    for _, (c_a, c_b, u, arr) in sorted(zip(norms, candidates), key=lambda item: item[0]):
        # the forest system's equation of arr is L_dst (X C_a - C_b X) R_src
        # in the root's X, and the map scale floors its cutoff
        floor = scale / (max_entry(left_b[arr.dst]) * max_entry(right_a[arr.src]))
        if same:
            powers, cutoff, gap = polynomials_in(c_a, tol, floor, tau)
            family = None if powers is None else powers.reshape(n, n, n)
        else:
            family, cutoff, gap = _kernel_family(c_a, c_b, tol, floor, tau)
        if family is not None:
            break
    else:
        return None
    r = len(family)
    rows = family.reshape(r, n * m)
    others = [framed(other, u) for other in equations if other != arr]
    if others:
        # X D_a = D_b X for every other equation's (D_a, D_b): r unknowns, not n m
        system = np.vstack([(family @ d_a - d_b @ family).reshape(r, n * m).T
                            for d_a, d_b in others])
        if not np.isfinite(system).all():
            return None
        reduced = nullspace(system, tol, scale=scale)
        if min(reduced.gap, reduced.margin) < tol.elim_gap():
            return None
        cutoff, gap = min((cutoff, gap), (reduced.cutoff, reduced.gap), key=lambda e: e[1])
        rows = reduced.basis @ rows
    basis = _solve(a, b, tol, _rerooted(steps, u, inverses, a.maps), (rows, cutoff, gap))
    return basis if intertwining_residual(a, b, basis.stacks) <= tau else None


def end(rep: Representation, tol: Tolerances = DEFAULT_TOL) -> HomBasis:
    """Orthonormal basis of End(rep), which is Hom(rep, rep) as :func:`hom`
    solves it: the polynomials in one C where the forest leaves a
    nonderogatory one, else the forest, else the dense system."""
    return hom(rep, rep, tol)


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

