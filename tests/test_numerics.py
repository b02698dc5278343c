import numpy as np
import pytest

from quiverrep.errors import ValidationError
from quiverrep.numerics import (DEFAULT_TOL, gram_nullity, inverse, is_invertible, nullspace,
                                random_complex)


def planted_rank(rng, m, n, r):
    """An m x n matrix of rank r with singular values spread over 1e-3..1."""
    left = np.linalg.qr(random_complex(rng, (m, r)))[0]
    right = np.linalg.qr(random_complex(rng, (n, r)))[0]
    return left @ np.diag(np.logspace(0, -3, r)) @ right.conj().T


def full_svd_decision(matrix):
    """Rank, cutoff, gap and nullspace rows from the SVD with the full U."""
    m, n = matrix.shape
    _, svals, vh = np.linalg.svd(matrix, full_matrices=True)
    cutoff = DEFAULT_TOL.svd_cutoff(m, n, float(svals[0]))
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
    inv, ratio = inverse(matrix)
    assert np.allclose(inv @ matrix, np.eye(6), atol=1e-10)
    assert ratio == pytest.approx(1e-3)
    # singular at inv_rel = 1e-8: no inverse, and is_invertible agrees
    singular = np.diag([1.0, 1e-9])
    inv, ratio = inverse(singular)
    assert inv is None and ratio == pytest.approx(1e-9)
    assert not is_invertible(singular)
    assert inverse(np.zeros((2, 2)))[0] is None
    empty, ratio = inverse(np.zeros((0, 0), dtype=complex))
    assert empty.shape == (0, 0) and ratio == 1.0
    with pytest.raises(ValidationError):
        inverse(np.ones((2, 3)))
