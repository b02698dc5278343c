"""Independent brute-force oracles for derived test values.

These deliberately avoid the library's vectorized solver: constraint systems
are assembled entry by entry and solved exactly over the rationals (sympy) or
by an enumeration argument, so that hom dimensions asserted in the tests are
computed along a second, independent path.  The paper's Kronecker reductions
are stated here as well, outside Hom's forest, which eliminates through the
same inverse.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np
import sympy as sp

from quiverrep import Representation, ValidationError, kronecker_rep
from quiverrep.numerics import DEFAULT_TOL, Tolerances, _ranked_svd, inverse


def _exactify(x: complex):
    return sp.Rational(float(np.real(x))) + sp.I * sp.Rational(float(np.imag(x)))


def exact_hom_dim(a, b) -> int:
    """Exact dimension of Hom(a, b) over Q(i), entries taken as exact binary
    rationals.  Elementwise construction, sympy rank."""
    verts = list(a.quiver.vertices)
    offsets, pos = {}, 0
    for v in verts:
        offsets[v] = pos
        pos += b.dims[v] * a.dims[v]
    n_unknowns = pos
    if n_unknowns == 0:
        return 0

    def unknown(v, p, q):
        return offsets[v] + p * a.dims[v] + q

    rows = []
    for arr in a.quiver.arrows:
        f = a.maps[arr.name]
        g = b.maps[arr.name]
        for i in range(b.dims[arr.dst]):
            for j in range(a.dims[arr.src]):
                # scalar equation: sum_k T_dst[i,k] f[k,j] - sum_l g[i,l] T_src[l,j] = 0
                row = [sp.Integer(0)] * n_unknowns
                for k in range(a.dims[arr.dst]):
                    row[unknown(arr.dst, i, k)] += _exactify(f[k, j])
                for l in range(b.dims[arr.src]):
                    row[unknown(arr.src, l, j)] -= _exactify(g[i, l])
                rows.append(row)
    if not rows:
        return n_unknowns
    return n_unknowns - sp.Matrix(rows).rank()


def exact_end_dim(rep) -> int:
    return exact_hom_dim(rep, rep)


def exact_commutant_dim(matrix: np.ndarray) -> int:
    """Exact dimension of { T : TM = MT } for a matrix with rational entries."""
    n = matrix.shape[0]
    m = sp.Matrix(n, n, lambda i, j: _exactify(matrix[i, j]))
    t = sp.Matrix(n, n, lambda i, j: sp.Symbol(f"t_{i}_{j}"))
    eqs = (t * m - m * t).reshape(n * n, 1)
    symbols = list(t)
    coeff = sp.Matrix([[eq.coeff(s) for s in symbols] for eq in eqs])
    return n * n - coeff.rank()


def nilpotent_commutant_dim(block_sizes) -> int:
    """Commutant dimension of a nilpotent matrix with given Jordan block sizes:
    sum over block pairs of the smaller size."""
    return sum(min(bi, bj) for bi in block_sizes for bj in block_sizes)


def single_jordan_block_criterion(matrix: np.ndarray) -> bool:
    """One eigenvalue and geometric multiplicity one, read from the spectrum
    rather than from End.

    With c the mean eigenvalue, N = A - cI must be nilpotent: the coefficient
    of x^(n-j) in the characteristic polynomial of N, taken from the computed
    eigenvalues, may be no larger than what their backward error
    eta = ``svd_cutoff(n, n, ||A||)`` can put there, j binom(n, j) eta
    ||N||^(j-1).  Then A - cI must have nullity one at the SVD cutoff.

    Weak where eigenvalues are close: the first-order bound grows with
    ||A||^2, which a basis change inflates, so under a badly conditioned
    basis two nearby eigenvalues read as one and two blocks as one block.
    """
    matrix = np.asarray(matrix, dtype=complex)
    n = matrix.shape[0]
    eigs = np.linalg.eigvals(matrix)
    center = complex(np.mean(eigs))
    shifted = matrix - center * np.eye(n)

    def cutoff_at(sigma_max):
        return DEFAULT_TOL.svd_cutoff(n, n, sigma_max)

    eta = _ranked_svd(matrix, cutoff_at, compute_uv=False)[4]
    *_, shifted_norm, _, rank = _ranked_svd(shifted, cutoff_at, compute_uv=False)
    j = np.arange(2, n + 1)
    bound = j * np.array([comb(n, i) for i in j]) * eta * shifted_norm ** (j - 1)
    if np.any(np.abs(np.poly(eigs - center)[2:]) > bound):
        return False
    return n - rank == 1


def exact_generated_algebra_dim(generators: list[np.ndarray]) -> int:
    """Dimension of the unital algebra generated by integer matrices, by
    breadth-first word enumeration and exact rank."""
    d = generators[0].shape[0]
    words = [np.eye(d, dtype=object)] + [g.astype(object) for g in generators]
    basis_rows = [w.reshape(-1) for w in words]
    rank = sp.Matrix([[sp.Integer(int(x)) for x in row] for row in basis_rows]).rank()
    frontier = list(words)
    while True:
        new_words = []
        for w in frontier:
            for g in generators:
                new_words.append(w @ g.astype(object))
        candidate = basis_rows + [w.reshape(-1) for w in new_words]
        mat = sp.Matrix([[sp.Integer(int(x)) for x in row] for row in candidate])
        new_rank = mat.rank()
        if new_rank == rank:
            return rank
        rank = new_rank
        basis_rows = candidate
        frontier = new_words


def bilateral_free_parameter_count(n: int) -> int:
    """Hom dimension of the truncated bilateral-weight models by enumeration.

    Mark every entry of the second component as free, then apply the two
    entrywise constraint families of the arrow equations: the first row past
    its corner is forced to zero (the shifted arrow has an empty first row),
    and every entry (i+1, j+1) is determined by (i, j) through the weight
    recursion with a nonzero ratio.  The diagonal arrow is invertible, so the
    first component adds no freedom, and the remaining free seeds count the
    dimension.
    """
    d = 2 * n + 1
    state = [["free"] * d for _ in range(d)]
    for j in range(1, d):
        state[0][j] = "zero"
    for i in range(d - 1):
        for j in range(d - 1):
            state[i + 1][j + 1] = "determined"
    return sum(1 for i in range(d) for j in range(d) if state[i][j] == "free")


def numpy_hom_dim(a, b) -> float:
    """Float-arithmetic cross-check of a hom dimension: elementwise system,
    numpy matrix_rank with its own default tolerance."""
    verts = list(a.quiver.vertices)
    offsets, pos = {}, 0
    for v in verts:
        offsets[v] = pos
        pos += b.dims[v] * a.dims[v]
    if pos == 0:
        return 0
    rows = []
    for arr in a.quiver.arrows:
        f = a.maps[arr.name]
        g = b.maps[arr.name]
        for i in range(b.dims[arr.dst]):
            for j in range(a.dims[arr.src]):
                row = np.zeros(pos, dtype=complex)
                for k in range(a.dims[arr.dst]):
                    row[offsets[arr.dst] + i * a.dims[arr.dst] + k] += f[k, j]
                for l in range(b.dims[arr.src]):
                    row[offsets[arr.src] + l * a.dims[arr.src] + j] -= g[i, l]
                rows.append(row)
    if not rows:
        return pos
    return pos - np.linalg.matrix_rank(np.array(rows))


def dense_system_end_dim(system) -> int:
    """End dimension of a subspace system through the projector formulation:
    one d^2 x d^2 block (I - P_i) (x) P_i^T per subspace, stacked, with the
    rank cut at max(m, n) * eps * sigma_max * 10 of the stacked shape."""
    d = system.ambient_dim
    if d == 0:
        return 0
    eye = np.eye(d, dtype=complex)
    blocks = []
    for inc in system.inclusions:
        proj = inc @ inc.conj().T
        blocks.append(np.kron(eye - proj, proj.T))
    if not blocks:
        return d * d
    stacked = np.vstack(blocks)
    svals = np.linalg.svd(stacked, compute_uv=False)
    cutoff = max(stacked.shape) * np.finfo(float).eps * svals[0] * 10.0
    return d * d - int(np.count_nonzero(svals > cutoff))


def stacked_star_dim(basis, tol: Tolerances = DEFAULT_TOL) -> int:
    """Dimension of the star-closed core of End from an orthonormal End
    basis: 2k minus the rank of its k tuples stacked on their adjoints, a
    2k x N matrix factored as it stands, with the rank cut at
    ``svd_cutoff(2k, N, sigma_max)`` of its own singular values."""
    k = basis.dimension
    if k == 0:
        return 0
    stacks = basis.stacks.values()
    vecs = np.hstack([b.reshape(k, -1) for b in stacks])
    star = np.hstack([b.conj().transpose(0, 2, 1).reshape(k, -1) for b in stacks])
    stacked = np.vstack([vecs, star])
    svals = np.linalg.svd(stacked, compute_uv=False)
    cutoff = tol.svd_cutoff(*stacked.shape, float(svals[0]))
    return 2 * k - int(np.count_nonzero(svals > cutoff))


def agglomerative_two_group_split(values, threshold):
    """Reference single linkage: merge the two closest groups, measured by
    their closest pair, until two groups remain.  Returns the two groups of
    values (the first holds values[0]), or None when the distance between
    them is at most ``threshold``.  Takes O(n^4) time; for small inputs only."""
    n = len(values)
    if n < 2:
        return None
    groups = [[i] for i in range(n)]
    while len(groups) > 2:
        best, best_pair = np.inf, (0, 1)
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                d = min(abs(values[a] - values[b]) for a in groups[i] for b in groups[j])
                if d < best:
                    best, best_pair = d, (i, j)
        i, j = best_pair
        groups[i] = groups[i] + groups[j]
        del groups[j]
    gap = min(abs(values[a] - values[b]) for a in groups[0] for b in groups[1])
    if gap <= threshold:
        return None
    return tuple(np.array([values[a] for a in g]) for g in groups)


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
    a_inv, _, _ = inverse(a, tol)
    if a_inv is None:
        raise ValidationError("first arrow matrix is numerically singular")
    n = a.shape[0]
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
    # an entry that overflows is reported by inverse as a NumericalFailure
    with np.errstate(over="ignore", invalid="ignore"):
        pencil = x * a + y * b
    w, _, _ = inverse(pencil, tol)
    if w is None:
        raise ValidationError("pencil xA + yB is numerically singular")
    n = a.shape[0]
    t = w @ a
    second = (1.0 / y) * np.eye(n, dtype=complex) - (x / y) * t
    reduced = kronecker_rep(t, second)
    witness = {"1": np.eye(n, dtype=complex), "2": w}
    return KroneckerReduction(original, reduced, witness)
