import numpy as np
import pytest

from quiverrep.errors import NumericalFailure, ValidationError
from quiverrep.numerics import (DEFAULT_TOL, arnoldi, gram_nullity, inverse, is_invertible,
                                nullspace, numerical_rank, orthonormal_inclusion,
                                polynomials_in, random_complex, ranked)


def planted_rank(rng, m, n, r, real=False):
    """An m x n complex matrix of rank r with singular values spread over
    1e-3..1; with ``real`` its imaginary part is exactly zero."""
    draw = rng.standard_normal if real else (lambda shape: random_complex(rng, shape))
    left = np.linalg.qr(draw((m, r)))[0]
    right = np.linalg.qr(draw((n, r)))[0]
    return (left @ np.diag(np.logspace(0, -3, r)) @ right.conj().T).astype(complex)


def full_svd_decision(matrix, tol=DEFAULT_TOL):
    """Rank, cutoff, gap and nullspace rows from the SVD with the full U."""
    m, n = matrix.shape
    _, svals, vh = np.linalg.svd(matrix, full_matrices=True)
    cutoff = tol.svd_cutoff(m, n, float(svals[0]))
    rank = int(np.count_nonzero(svals > cutoff))
    kept = svals[rank - 1] if rank else np.inf
    discarded = svals[rank] if rank < svals.size else 0.0
    gap = np.inf if discarded == 0.0 else kept / discarded
    return rank, cutoff, gap, vh[rank:].conj()


@pytest.mark.parametrize("m, n, r", [
    (60, 12, 7),   # tall: the thin SVD drops the 60 x 60 U
    (12, 12, 5),   # square
    (7, 15, 4),    # wide: the full V^H is still needed
    (40, 9, 9),    # tall and of full column rank: trivial nullspace
])
def test_nullspace_matches_full_svd(m, n, r):
    rng = np.random.default_rng(m * 100 + n)
    matrix = planted_rank(rng, m, n, r)
    res = nullspace(matrix)
    rank, cutoff, gap, basis = full_svd_decision(matrix)
    assert res.rank == rank == r
    assert res.dimension == n - r
    assert res.cutoff == pytest.approx(cutoff, rel=1e-12)
    assert res.gap == pytest.approx(gap, rel=1e-6)
    assert np.allclose(res.basis @ res.basis.conj().T, np.eye(n - r), atol=1e-12)
    # both bases span the same space: equal orthogonal projectors
    assert np.allclose(res.basis.conj().T @ res.basis, basis.conj().T @ basis, atol=1e-10)
    assert np.linalg.norm(matrix @ res.basis.T) < 1e-12


def test_nullspace_empty_shapes_unchanged():
    res = nullspace(np.zeros((3, 0), dtype=complex))
    assert res.basis.shape == (0, 0) and res.rank == 0 and res.gap == np.inf
    res = nullspace(np.zeros((0, 4), dtype=complex))
    assert np.array_equal(res.basis, np.eye(4)) and res.rank == 0
    assert res.cutoff == 0.0 and res.sigma_max == 0.0


def test_nullspace_scale_floors_sigma_max():
    rng = np.random.default_rng(3)
    noise = 1e-16 * random_complex(rng, (8, 4))
    # relative to its own sigma_max, rounding noise has full rank
    assert nullspace(noise).rank == 4
    floored = nullspace(noise, scale=1.0)
    assert floored.rank == 0 and floored.dimension == 4
    assert floored.sigma_max == pytest.approx(float(np.linalg.norm(noise, 2)))
    # a floor below sigma_max changes nothing
    matrix = planted_rank(rng, 10, 6, 3)
    assert nullspace(matrix, scale=1e-3).cutoff == nullspace(matrix).cutoff


def test_gram_nullity_cuts_at_split_resolution():
    # cluster_rel = 1e-6, so singular values up to 1e-12 sigma_max count as
    # zero; the eps cutoff of a 3 x 3 matrix is about 7e-15
    assert gram_nullity(np.diag([2.0, 1e-13, 0.5])) == 1
    assert gram_nullity(np.diag([2.0, 1e-11, 0.5])) == 0
    assert gram_nullity(np.diag([2.0, 1e-11, 0.5]), DEFAULT_TOL.rescaled(10.0)) == 1
    assert gram_nullity(np.zeros((0, 0))) == 0


def test_inverse_from_the_deciding_svd():
    rng = np.random.default_rng(8)
    matrix = planted_rank(rng, 6, 6, 6)  # singular values 1 .. 1e-3
    inv, complement, ratio = inverse(matrix)
    assert np.allclose(inv @ matrix, np.eye(6), atol=1e-10)
    assert complement.shape == (6, 0) and ratio == pytest.approx(1e-3)
    # singular at inv_rel = 1e-8: no inverse, and is_invertible agrees
    singular = np.diag([1.0, 1e-9])
    inv, complement, ratio = inverse(singular)
    assert inv is None and complement is None and ratio == pytest.approx(1e-9)
    assert not is_invertible(singular)
    assert inverse(np.zeros((2, 2)))[0] is None
    empty, complement, ratio = inverse(np.zeros((0, 0), dtype=complex))
    assert empty.shape == complement.shape == (0, 0) and ratio == 1.0
    assert inverse(np.ones((2, 3)))[0] is None
    with pytest.raises(ValidationError):
        inverse(np.ones(3))


@pytest.mark.parametrize("m, n", [(3, 5), (5, 3), (0, 2), (2, 0)])
def test_inverse_of_a_one_sided_matrix(m, n):
    # a wide matrix has a right inverse and its kernel, a tall one a left
    # inverse and the orthogonal complement of its range
    rng = np.random.default_rng(m + n)
    matrix = planted_rank(rng, m, n, min(m, n)) if m and n else np.zeros((m, n))
    inv, complement, ratio = inverse(matrix)
    k = min(m, n)
    assert inv.shape == (n, m) and complement.shape == (max(m, n), max(m, n) - k)
    assert np.allclose(complement.conj().T @ complement, np.eye(max(m, n) - k), atol=1e-12)
    if m <= n:
        assert np.allclose(matrix @ inv, np.eye(m), atol=1e-10)
        assert np.allclose(matrix @ complement, 0, atol=1e-12)
    else:
        assert np.allclose(inv @ matrix, np.eye(n), atol=1e-10)
        assert np.allclose(complement.conj().T @ matrix, 0, atol=1e-12)
    assert ratio == (pytest.approx(1e-3) if k > 1 else 1.0)


def test_orthonormal_inclusion_spans_the_columns_or_rejects_them():
    rng = np.random.default_rng(4)
    matrix = planted_rank(rng, 7, 3, 3)
    basis = orthonormal_inclusion(matrix)
    assert basis.shape == (7, 3)
    assert np.allclose(basis.conj().T @ basis, np.eye(3), atol=1e-12)
    assert np.allclose(basis @ (basis.conj().T @ matrix), matrix, atol=1e-12)
    assert orthonormal_inclusion(np.zeros((4, 0))).shape == (4, 0)
    with pytest.raises(ValidationError, match="rank-deficient: 3 columns, rank 2"):
        orthonormal_inclusion(planted_rank(rng, 7, 3, 2))
    with pytest.raises(ValidationError, match="rank-deficient"):
        orthonormal_inclusion(np.zeros((0, 2)))
    with pytest.raises(NumericalFailure, match="non-finite"):
        orthonormal_inclusion(np.array([[1.0], [np.nan]]))


@pytest.mark.parametrize("m, n, r", [(60, 12, 7), (12, 12, 5), (7, 15, 4)])
def test_real_data_nullspace_matches_complex_lapack(m, n, r):
    # stored as complex with a zero imaginary part: nullspace factors it with
    # real LAPACK, while np.linalg.svd of the same array runs complex LAPACK.
    # The discarded singular values sit at 1e-7, under the cutoff of a 1e8
    # tolerance scale: unlike rounding noise they are accurate to about 1e-9
    # relative, so the two gaps must agree.
    rng = np.random.default_rng(m * 10 + n)
    k = min(m, n)
    left = np.linalg.qr(rng.standard_normal((m, k)))[0]
    right = np.linalg.qr(rng.standard_normal((n, k)))[0]
    svals = np.concatenate([np.logspace(0, -3, r), np.full(k - r, 1e-7)])
    matrix = (left @ np.diag(svals) @ right.T).astype(complex)
    assert matrix.dtype == complex and not matrix.imag.any()
    tol = DEFAULT_TOL.rescaled(1e8)
    res = nullspace(matrix, tol)
    rank, cutoff, gap, basis = full_svd_decision(matrix, tol)
    assert res.rank == rank == r
    assert res.cutoff == pytest.approx(cutoff, rel=1e-12)
    assert res.gap == pytest.approx(gap, rel=1e-6)
    assert res.gap == pytest.approx(1e-3 / 1e-7, rel=1e-3)
    assert np.allclose(res.basis.conj().T @ res.basis, basis.conj().T @ basis, atol=1e-10)
    assert res.basis.dtype == complex and not res.basis.imag.any()
    # exactly rank r at the default scale: the discarded values are rounding
    # noise, which differs between the two LAPACK paths, so the gap is not compared
    exact = planted_rank(rng, m, n, r, real=True)
    res = nullspace(exact)
    rank, cutoff, _, basis = full_svd_decision(exact)
    assert res.rank == rank == r
    assert res.cutoff == pytest.approx(cutoff, rel=1e-12)
    assert np.allclose(res.basis.conj().T @ res.basis, basis.conj().T @ basis, atol=1e-10)
    assert res.basis.dtype == complex


def test_real_data_takes_real_lapack(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        calls.append((a.dtype, kwargs.get("compute_uv", True)))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    rng = np.random.default_rng(5)
    real = planted_rank(rng, 6, 6, 6, real=True)
    inv, _, _ = inverse(real)
    assert inv.dtype == complex and not inv.imag.any()
    assert np.allclose(inv @ real, np.eye(6), atol=1e-10)
    nullspace(real)
    numerical_rank(real)
    is_invertible(real)
    gram_nullity(real @ real.T)
    numerical_rank(planted_rank(rng, 6, 6, 6))
    assert calls == [(np.float64, True), (np.float64, True), (np.float64, False),
                     (np.float64, False), (np.float64, False), (complex, False)]


def full_svd_rank(matrix, cutoff_at):
    svals = np.linalg.svd(matrix, full_matrices=True)[1]
    return int(np.count_nonzero(svals > cutoff_at(float(svals[0]))))


@pytest.mark.parametrize("real", [True, False])
@pytest.mark.parametrize("m, n, r", [
    (40, 9, 5), (12, 12, 7), (12, 12, 12), (7, 15, 4),
    (36, 648, 30),  # the stacked star matrix of an 18-dimensional End at N = 18
])
def test_rank_only_decisions_match_full_svd(real, m, n, r):
    rng = np.random.default_rng(m + n + r)
    matrix = planted_rank(rng, m, n, r, real=real)
    k = min(m, n)
    rank = full_svd_rank(matrix, lambda s: DEFAULT_TOL.svd_cutoff(m, n, s))
    assert numerical_rank(matrix) == rank == r
    assert numerical_rank(matrix) == nullspace(matrix).rank
    # the gap from the singular values alone is the nullspace's; its
    # discarded singular value is rounding, which each LAPACK routine rounds its
    # own way
    rank, gap = ranked(matrix)
    assert rank == r and np.isclose(np.log10(gap), np.log10(nullspace(matrix).gap), atol=0.3)
    inv_rank = full_svd_rank(matrix, DEFAULT_TOL.inv_tol)
    assert is_invertible(matrix) == (inv_rank == k) == (r == k)
    gram = matrix[:, :k].conj().T @ matrix[:, :k]
    gram_rank = full_svd_rank(gram, lambda s: max(DEFAULT_TOL.cluster_tol(1.0) ** 2 * s,
                                                  DEFAULT_TOL.svd_cutoff(k, k, s)))
    assert gram_nullity(gram) == k - gram_rank


def test_numerical_rank_of_empty_shapes():
    for shape in [(0, 0), (3, 0), (0, 4)]:
        assert numerical_rank(np.zeros(shape, dtype=complex)) == 0
        assert ranked(np.zeros(shape, dtype=complex)) == (0, np.inf)


def test_polynomials_in_separates_one_block_from_two():
    rng = np.random.default_rng(4)
    change = np.linalg.qr(random_complex(rng, (5, 5)))[0]
    block = np.eye(5, k=-1) + 0.5 * np.eye(5)
    two = np.diag([0.5] * 5) + np.diag([1.0, 1.0, 0.0, 1.0], -1)  # J_3 + J_2 at 0.5
    for matrix, nonderogatory in ((block, True), (two, False)):
        hidden = change @ matrix @ change.conj().T
        rows, cutoff, gap = polynomials_in(hidden)
        assert cutoff == pytest.approx(DEFAULT_TOL.svd_cutoff(25, 25, np.linalg.norm(hidden, 2)))
        assert (gap >= DEFAULT_TOL.elim_gap()) == nonderogatory == (rows is not None)
    # the basis is orthonormal under the entrywise product and spans the powers
    hidden = change @ block @ change.conj().T
    rows = polynomials_in(hidden)[0]
    powers = np.array([np.linalg.matrix_power(hidden, k).reshape(-1) for k in range(5)])
    assert np.allclose(rows.conj() @ rows.T, np.eye(5))
    assert np.allclose(powers @ rows.conj().T @ rows, powers)


def test_polynomials_in_reads_distinct_eigenvalues():
    # distinct eigenvalues make a diagonal matrix nonderogatory, though each
    # coordinate vector is one of its eigenvectors
    rows, _, gap = polynomials_in(np.diag([0.0, 1.0, 2.0, 3.0]))
    assert rows.shape == (4, 16) and gap >= DEFAULT_TOL.elim_gap()
    # the scale floors the norm in the cutoff, as in nullspace
    rows, _, gap = polynomials_in(1e-20 * np.eye(4, k=-1), scale=1.0)
    assert rows is None and gap < 1.0


def test_arnoldi_from_a_vector_returns_its_hessenberg_recurrence():
    rng = np.random.default_rng(5)
    matrix = random_complex(rng, (6, 6))
    start = np.ones(6) / np.sqrt(6)
    rows, hessenberg, cutoff, gap = arnoldi(matrix, start)
    assert cutoff == pytest.approx(DEFAULT_TOL.svd_cutoff(6, 6, np.linalg.norm(matrix, 2)))
    assert gap >= DEFAULT_TOL.elim_gap()
    assert np.allclose(rows.conj() @ rows.T, np.eye(6))
    assert np.allclose(rows[0], start)
    # C v_k = sum_j H[j, k] v_j for k < 5
    assert hessenberg.shape == (6, 5)
    assert np.allclose(matrix @ rows[:5].T, rows.T @ hessenberg)
    assert np.allclose(np.tril(hessenberg, -2), 0)
    # a coordinate vector is no cyclic vector of a diagonal matrix
    assert arnoldi(np.diag([1.0, 2.0, 3.0]), np.eye(3)[0])[0] is None


def test_nullspace_margin_is_how_far_the_kept_side_clears_the_cutoff():
    matrix = np.diag([1.0, 1e-3, 1e-20])
    res = nullspace(matrix)
    assert res.margin == pytest.approx(1e-3 / res.cutoff) and res.margin <= res.gap
    # full rank: the gap reads inf, the margin does not
    res = nullspace(np.diag([1.0, 1e-13]))
    assert (res.rank, res.gap) == (2, np.inf)
    assert res.margin == pytest.approx(1e-13 / res.cutoff) and res.margin < 1e3
    assert nullspace(np.zeros((2, 2)), scale=1.0).margin == np.inf


def test_polynomials_in_edge_cases():
    rows, cutoff, gap = polynomials_in(np.zeros((1, 1)))
    assert (rows.tolist(), cutoff, gap) == ([[1.0]], 0.0, np.inf)
    # a zero cutoff reads gap inf only when every step is nonzero
    assert polynomials_in(np.zeros((3, 3)))[0::2] == (None, 0.0)
    with pytest.raises(NumericalFailure, match="non-finite"):
        polynomials_in(np.array([[np.nan, 0.0], [1.0, 0.0]]))
