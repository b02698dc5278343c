import itertools
import warnings

import numpy as np
import pytest

from quiverrep import (KroneckerFamily, NumericalFailure, ValidationError, analyze,
                       are_isomorphic, build_family, end, intertwining_residual,
                       is_strongly_irreducible, jordan_block, kronecker_rep, loop_rep, shift)
from quiverrep.intertwiner import hom_scale
from quiverrep.numerics import random_complex

from helpers import polynomial_model
from oracles import (exact_commutant_dim, exact_end_dim, reduce_invertible_first,
                     reduce_pencil)


def test_wide_zero_is_one_zero():
    rep = build_family(KroneckerFamily("wide", 0))
    assert rep.dims == {"1": 1, "2": 0}
    assert rep.maps["a1"].shape == (0, 1)
    assert rep.maps["a2"].shape == (0, 1)


def test_jordan_first_size_one():
    rep = build_family(KroneckerFamily("jordan_first", 1, 0.0))
    assert np.allclose(rep.maps["a1"], [[0.0]])
    assert np.allclose(rep.maps["a2"], [[1.0]])


def test_tall_one_shapes():
    rep = build_family(KroneckerFamily("tall", 1))
    assert rep.dims == {"1": 1, "2": 2}
    assert np.allclose(rep.maps["a1"], [[1.0], [0.0]])
    assert np.allclose(rep.maps["a2"], [[0.0], [1.0]])


def test_wide_matches_block_form():
    rep = build_family(KroneckerFamily("wide", 3))
    assert np.allclose(rep.maps["a1"], np.hstack([np.eye(3), np.zeros((3, 1))]))
    assert np.allclose(rep.maps["a2"], np.hstack([np.zeros((3, 1)), np.eye(3)]))


@pytest.mark.parametrize("kind,n", [("jordan_first", 0), ("jordan_second", -2),
                                    ("wide", -1), ("tall", -1), ("weird", 1)])
def test_family_validation(kind, n):
    with pytest.raises(ValidationError):
        KroneckerFamily(kind, n)


@pytest.mark.parametrize("fam", [KroneckerFamily("wide", n) for n in range(6)]
                         + [KroneckerFamily("tall", n) for n in range(6)]
                         + [KroneckerFamily("jordan_first", 1, 0.7),
                            KroneckerFamily("jordan_second", 1, 0.0)])
def test_wide_tall_and_size_one_jordan_transitive(fam):
    rep = build_family(fam)
    if rep.total_dim:
        assert end(rep).dimension == 1
        assert analyze(rep).transitive


@pytest.mark.parametrize("n", [2, 3, 4])
def test_jordan_family_end_dim_and_indecomposable(n):
    rep = build_family(KroneckerFamily("jordan_first", n, 1.5))
    assert end(rep).dimension == n
    assert exact_end_dim(rep) == n
    assert analyze(rep).indecomposable


def test_families_pairwise_non_isomorphic():
    grid = ([KroneckerFamily("jordan_first", n, lam) for n in (1, 2) for lam in (0.0, 1.0)]
            + [KroneckerFamily("jordan_second", n, 0.0) for n in (1, 2)]
            + [KroneckerFamily("wide", n) for n in (0, 1, 2)]
            + [KroneckerFamily("tall", n) for n in (0, 1, 2)])
    reps = [build_family(f) for f in grid]
    for (fa, a), (fb, b) in itertools.combinations(zip(grid, reps), 2):
        if a.total_dim == 0 or b.total_dim == 0:
            continue
        verdict = are_isomorphic(a, b).verdict
        assert verdict in ("no", "probably_no"), (fa, fb)


def test_reduce_invertible_identity_first():
    b = shift(3)
    red = reduce_invertible_first(np.eye(3), b)
    assert np.allclose(red.reduced.maps["a1"], np.eye(3))
    assert np.allclose(red.reduced.maps["a2"], b)


def test_reduce_invertible_scalar():
    red = reduce_invertible_first(2 * np.eye(3), shift(3))
    assert np.allclose(red.reduced.maps["a2"], shift(3) / 2)


def test_reduce_invertible_random_witness():
    rng = np.random.default_rng(12)
    a = random_complex(rng, (4, 4)) + 3 * np.eye(4)
    b = random_complex(rng, (4, 4))
    red = reduce_invertible_first(a, b)
    tau = 1e-8 * max(hom_scale(red.original, red.reduced), 1.0)
    assert intertwining_residual(red.original, red.reduced, red.witness) <= tau
    assert are_isomorphic(red.original, red.reduced).verdict == "yes"


def test_reduce_invertible_rejects_singular():
    with pytest.raises(ValidationError):
        reduce_invertible_first(np.zeros((2, 2)), np.eye(2))


def test_reduce_pencil_x_zero():
    rng = np.random.default_rng(3)
    a = random_complex(rng, (3, 3))
    b = random_complex(rng, (3, 3)) + 3 * np.eye(3)
    red = reduce_pencil(a, b, 0.0, 1.0)
    assert np.allclose(red.reduced.maps["a1"], np.linalg.inv(b) @ a)
    assert np.allclose(red.reduced.maps["a2"], np.eye(3))


def test_reduce_pencil_identity_pair():
    red = reduce_pencil(np.eye(2), np.eye(2), 0.5, 0.5)
    assert np.allclose(red.reduced.maps["a1"], np.eye(2))
    assert np.allclose(red.reduced.maps["a2"], np.eye(2))


def test_reduce_pencil_random_witness():
    rng = np.random.default_rng(8)
    a = random_complex(rng, (4, 4))
    b = random_complex(rng, (4, 4)) + 3 * np.eye(4)
    red = reduce_pencil(a, b, 0.7, 1.3)
    tau = 1e-8 * max(hom_scale(red.original, red.reduced), 1.0)
    assert intertwining_residual(red.original, red.reduced, red.witness) <= tau
    assert are_isomorphic(red.original, red.reduced).verdict == "yes"


def test_reduce_pencil_overflow_is_numerical_failure():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailure, match="overflow"):
            reduce_pencil(1e308 * np.eye(2), 1e308 * np.eye(2), 1e10, 1e10)


def test_reduce_pencil_rejects_bad_values():
    with pytest.raises(ValidationError):
        reduce_pencil(np.eye(2), np.eye(2), 1.0, 0.0)
    with pytest.raises(ValidationError):
        reduce_pencil(np.eye(2), -np.eye(2), 1.0, 1.0)


def test_polynomial_model_end_is_commutant():
    t = jordan_block(0.0, 3)
    rep = polynomial_model(t, [1.0, 0.0, 0.0])
    assert end(rep).dimension == 3
    assert exact_commutant_dim(t) == 3


def test_polynomial_model_arrows():
    t = jordan_block(0.0, 2)
    rep = polynomial_model(t, [2.0, 3.0])
    assert np.allclose(rep.maps["a1"], 2 * np.eye(2) + 3 * t)
    assert np.allclose(rep.maps["a2"], t)


def test_polynomial_model_indecomposability_tracks_strong_irreducibility():
    t1 = jordan_block(0.0, 2)
    assert is_strongly_irreducible(t1)
    assert analyze(polynomial_model(t1, [1.0, 1.0])).indecomposable
    t2 = np.diag([1.0, 2.0]).astype(complex)
    assert not is_strongly_irreducible(t2)
    assert not analyze(polynomial_model(t2, [1.0, 1.0])).indecomposable


def test_polynomial_model_similarity_transport():
    rng = np.random.default_rng(17)
    t = jordan_block(0.5, 3)
    s = random_complex(rng, (3, 3)) + 2 * np.eye(3)
    conj = s @ t @ np.linalg.inv(s)
    assert are_isomorphic(polynomial_model(t, [1.0, 2.0]),
                          polynomial_model(conj, [1.0, 2.0])).verdict == "yes"


def test_loop_and_kronecker_reps_carry_their_maps_in_order():
    maps = [jordan_block(0.0, 2), np.eye(2), 2 * np.eye(2)]
    loop, kron = loop_rep(*maps), kronecker_rep(*maps)
    assert loop.dims == {"1": 2} and kron.dims == {"1": 2, "2": 2}
    for rep in (loop, kron):
        assert [a.name for a in rep.quiver.arrows] == ["a1", "a2", "a3"]
        assert all(np.array_equal(rep.maps[f"a{i + 1}"], m) for i, m in enumerate(maps))


@pytest.mark.parametrize("builder", [loop_rep, kronecker_rep])
@pytest.mark.parametrize("maps", [(np.zeros((2, 3)),), (np.eye(2), np.eye(3)),
                                  (np.eye(2), np.zeros(2)), ()])
def test_canonical_builders_reject_non_square_or_mixed_maps(builder, maps):
    with pytest.raises(ValidationError, match="square matrices of equal size"):
        builder(*maps)
