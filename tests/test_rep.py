import numpy as np
import pytest

from quiverrep import (Arrow, Quiver, Representation, ValidationError,
                       are_isomorphic, build_canonical, canonically_simple,
                       direct_sum, example_reps, restrict, zero_representation)
from quiverrep.numerics import random_complex

from helpers import loop_rep, rep_allclose


def kron_rep(a, b):
    q = build_canonical("kronecker", 2)
    n = a.shape[0]
    return Representation(q, {"1": n, "2": n}, {"a1": a, "a2": b})


def test_shape_mismatch_rejected():
    q = build_canonical("loop", 1)
    with pytest.raises(ValidationError):
        Representation(q, {"1": 2}, {"a1": np.zeros((2, 3))})


def test_nonfinite_entries_rejected():
    q = build_canonical("loop", 1)
    with pytest.raises(ValidationError):
        Representation(q, {"1": 1}, {"a1": np.array([[np.nan]])})


@pytest.mark.parametrize("dim", [2.5, "2", True, None])
def test_non_integer_dimension_rejected(dim):
    q = build_canonical("loop", 1)
    with pytest.raises(ValidationError, match="nonnegative integer"):
        Representation(q, {"1": dim}, {"a1": np.eye(2)})


def test_numpy_integer_dimension_accepted():
    rep = Representation(build_canonical("loop", 1), {"1": np.int64(2)}, {"a1": np.eye(2)})
    assert rep.dims == {"1": 2} and type(rep.dims["1"]) is int


def test_missing_map_rejected():
    q = build_canonical("kronecker", 2)
    with pytest.raises(ValidationError):
        Representation(q, {"1": 1, "2": 1}, {"a1": np.eye(1)})


def test_missing_dim_rejected():
    q = build_canonical("kronecker", 2)
    with pytest.raises(ValidationError):
        Representation(q, {"1": 1}, {"a1": np.eye(1), "a2": np.eye(1)})


def test_unknown_arrow_map_rejected():
    q = build_canonical("loop", 1)
    with pytest.raises(ValidationError):
        Representation(q, {"1": 1}, {"a1": np.eye(1), "zz": np.eye(1)})


def test_zero_dimensional_matrices_supported():
    q = build_canonical("kronecker", 2)
    rep = Representation(q, {"1": 1, "2": 0},
                         {"a1": np.zeros((0, 1)), "a2": np.zeros((0, 1))})
    assert rep.total_dim == 1


def test_direct_sum_with_zero_is_identity():
    rep = loop_rep(np.array([[2.0, 1.0], [0.0, 2.0]]))
    zero = zero_representation(rep.quiver)
    assert rep_allclose(direct_sum(rep, zero), rep)
    # a vertex that is zero-dimensional on one side only
    q = build_canonical("kronecker", 2)
    left = zero_representation(q, {"1": 1, "2": 0})
    right = kron_rep(np.array([[1.0, 2.0], [3.0, 4.0]]), np.eye(2))
    s = direct_sum(left, right)
    assert s.dims == {"1": 3, "2": 2}
    for name in ("a1", "a2"):
        assert np.array_equal(s.maps[name], np.hstack([np.zeros((2, 1)), right.maps[name]]))
    flipped = direct_sum(right, left)
    assert flipped.dims == s.dims
    for name in ("a1", "a2"):
        assert np.array_equal(flipped.maps[name], np.hstack([right.maps[name], np.zeros((2, 1))]))


def test_direct_sum_one_dimensional_blocks():
    a = loop_rep(np.array([[3.0]]))
    b = loop_rep(np.array([[7.0]]))
    s = direct_sum(a, b)
    assert np.allclose(s.maps["a1"], np.diag([3.0, 7.0]))


def test_direct_sum_quiver_mismatch():
    a = loop_rep(np.eye(1))
    q = build_canonical("kronecker", 2)
    b = Representation(q, {"1": 1, "2": 1}, {"a1": np.eye(1), "a2": np.eye(1)})
    with pytest.raises(ValidationError):
        direct_sum(a, b)


def test_direct_sum_reassociation_is_exact():
    reps = [loop_rep(np.array([[float(k)]])) for k in (1, 2, 3)]
    left = direct_sum(direct_sum(reps[0], reps[1]), reps[2])
    right = direct_sum(reps[0], direct_sum(reps[1], reps[2]))
    assert rep_allclose(left, right, atol=0)


def test_restrict_identity_inclusions():
    rep = kron_rep(np.eye(2, dtype=complex), np.array([[0, 0], [1, 0]], dtype=complex))
    out = restrict(rep, {"1": np.eye(2), "2": np.eye(2)})
    assert rep_allclose(out, rep)


def test_restrict_zero_inclusions_gives_zero_rep():
    rep = kron_rep(np.eye(2, dtype=complex), np.zeros((2, 2)))
    out = restrict(rep, {"1": np.zeros((2, 0)), "2": np.zeros((2, 0))})
    assert out.total_dim == 0


def test_restrict_rank_deficient_inclusion_rejected():
    rep = kron_rep(np.eye(2, dtype=complex), np.zeros((2, 2)))
    bad = np.array([[1.0, 1.0], [0.0, 0.0]])  # two equal columns
    with pytest.raises(ValidationError, match="rank-deficient"):
        restrict(rep, {"1": bad, "2": np.eye(2)})


def test_restrict_non_invariant_names_arrow():
    rep = kron_rep(np.eye(2, dtype=complex), np.array([[0, 1], [1, 0]], dtype=complex))
    inc = {"1": np.array([[1.0], [0.0]]), "2": np.array([[1.0], [0.0]])}
    with pytest.raises(ValidationError, match="a2"):
        restrict(rep, inc)


def test_restrict_example9_odd_even_split():
    rep = example_reps("ex9", 6)
    odd = np.eye(6)[:, 0::2]
    even = np.eye(6)[:, 1::2]
    left = restrict(rep, {"1": odd, "2": even})
    right = restrict(rep, {"1": even, "2": odd})
    assert left.dims == {"1": 3, "2": 3}
    rebuilt = direct_sum(left, right)
    assert are_isomorphic(rebuilt, rep).verdict == "yes"


def test_restrict_then_embed_reproduces_map():
    rep = kron_rep(np.array([[1, 0], [0, 2]], dtype=complex), np.eye(2, dtype=complex))
    inc = {"1": np.array([[1.0], [0.0]]), "2": np.array([[1.0], [0.0]])}
    sub = restrict(rep, inc)
    for name in ("a1", "a2"):
        lhs = rep.maps[name] @ inc["1"]
        rhs = inc["2"] @ sub.maps[name]
        assert np.allclose(lhs, rhs, atol=1e-12)


def _conditioned(rng, n, log_cond):
    u, v = (np.linalg.qr(random_complex(rng, (n, n)))[0] for _ in range(2))
    return u @ np.diag(np.logspace(0, -log_cond, n)) @ v


@pytest.mark.parametrize("seed", range(12))
def test_restrict_non_orthonormal_inclusions_matches_least_squares(seed):
    # block upper triangular maps leave the leading coordinates invariant;
    # a basis change of condition 10 to 1e6 at each vertex and a random
    # basis of each subspace make the inclusions far from orthonormal
    rng = np.random.default_rng(seed)
    q = Quiver(("1", "2"), (Arrow("a1", "1", "2"), Arrow("a2", "1", "2"),
                            Arrow("a3", "2", "2")))
    dims = {v: int(rng.integers(2, 7)) for v in q.vertices}
    ks = {v: int(rng.integers(1, dims[v])) for v in q.vertices}
    change = {v: _conditioned(rng, dims[v], rng.uniform(1, 6)) for v in q.vertices}
    maps = {}
    for a in q.arrows:
        f = random_complex(rng, (dims[a.dst], dims[a.src]))
        f[ks[a.dst]:, :ks[a.src]] = 0
        maps[a.name] = change[a.dst] @ f @ np.linalg.inv(change[a.src])
    rep = Representation(q, dims, maps)
    inc = {v: change[v][:, :ks[v]] @ random_complex(rng, (ks[v], ks[v])) for v in q.vertices}
    sub = restrict(rep, inc)
    assert sub.dims == ks
    for a in q.arrows:
        ref = np.linalg.lstsq(inc[a.dst], maps[a.name] @ inc[a.src], rcond=None)[0]
        assert np.linalg.norm(sub.maps[a.name] - ref) <= 1e-10 * np.linalg.norm(ref)
    # one column short of full rank
    short = inc["2"].copy()
    short[:, -1] = short[:, :-1] @ random_complex(rng, (ks["2"] - 1,))
    with pytest.raises(ValidationError, match="rank-deficient"):
        restrict(rep, dict(inc, **{"2": short}))


def test_canonically_simple_on_subspace_quiver():
    q = build_canonical("subspace", 2)
    rep = canonically_simple(q, "3")
    assert rep.dims == {"1": 0, "2": 0, "3": 1}
    assert all(m.size == 0 for m in rep.maps.values())


def test_canonically_simple_on_loop_quiver():
    q = build_canonical("loop", 1)
    rep = canonically_simple(q, "1")
    assert rep.maps["a1"].shape == (1, 1)
    assert np.all(rep.maps["a1"] == 0)


def test_canonically_simple_on_kronecker_sink():
    q = build_canonical("kronecker", 2)
    rep = canonically_simple(q, "2")
    assert rep.dims == {"1": 0, "2": 1}
    assert rep.maps["a1"].shape == (1, 0)
    assert rep.maps["a2"].shape == (1, 0)


def test_canonically_simple_unknown_vertex():
    with pytest.raises(ValidationError):
        canonically_simple(build_canonical("loop", 1), "7")


def test_canonically_simple_validates_everywhere():
    for kind, n in (("loop", 2), ("kronecker", 3), ("subspace", 3)):
        q = build_canonical(kind, n)
        for v in q.vertices:
            rep = canonically_simple(q, v)
            assert rep.total_dim == 1
