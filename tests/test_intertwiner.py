import numpy as np
import pytest

import quiverrep.numerics
from quiverrep import (Arrow, KroneckerFamily, Quiver, SizeLimitExceeded, ValidationError,
                       are_isomorphic, build_canonical, build_family, canonically_simple,
                       direct_sum, end, example_reps, hom, intertwining_residual,
                       jordan_block, kronecker_rep, perturbation_model,
                       Representation, shift, zero_representation)
from quiverrep.intertwiner import _dense_hom, _solve, _spanning_forest, hom_scale
from quiverrep.numerics import DEFAULT_TOL, polynomials_in
from quiverrep.numerics import random_complex

from helpers import (assert_stacked, forest_hom, loop_rep, polynomial_model, random_quiver,
                     random_rep, relatively_prime, two_subspace_rep)
from oracles import exact_end_dim, exact_hom_dim


def test_end_contains_identity_direction():
    rep = loop_rep(np.array([[0.0, 1.0], [0.0, 0.0]]))
    basis = end(rep)
    assert basis.dimension >= 1
    # the identity tuple must lie in the computed span
    eye = np.eye(2).reshape(-1)
    coeffs = [np.vdot(t["1"].reshape(-1), eye) for t in basis]
    recon = sum(c * t["1"] for c, t in zip(coeffs, basis))
    assert np.allclose(recon, np.eye(2), atol=1e-10)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_jordan_block_end_dimension_oracle(n):
    rep = loop_rep(jordan_block(0.5, n))
    assert end(rep).dimension == n
    if n <= 4:
        assert exact_end_dim(rep) == n


def test_shifted_jordan_pair_hom_zero():
    # (lam - mu) T = S T - T S with nilpotent adjoint action forces T = 0
    a = example_reps("ex8", 3, 0.0)
    b = example_reps("ex8", 3, 1.0)
    assert hom(a, b).dimension == 0
    assert exact_hom_dim(a, b) == 0


def test_hom_residual_invariant():
    rng = np.random.default_rng(11)
    for seed in range(6):
        q = random_quiver(rng)
        a = random_rep(rng, q)
        b = random_rep(rng, q)
        basis = hom(a, b)
        tau = 1e-8 * max(hom_scale(a, b), 1.0)
        for t in basis:
            assert intertwining_residual(a, b, t) <= tau


def test_hom_basis_orthonormal():
    rep = example_reps("ex9", 4)
    basis = end(rep)
    vecs = [np.concatenate([t[v].reshape(-1) for v in rep.quiver.vertices])
            for t in basis]
    gram = np.array([[np.vdot(u, w) for w in vecs] for u in vecs])
    assert np.allclose(gram, np.eye(len(vecs)), atol=1e-12)


def test_hom_dim_unitary_invariance():
    rng = np.random.default_rng(5)
    q = random_quiver(rng)
    a = random_rep(rng, q)
    b = random_rep(rng, q)
    base = hom(a, b).dimension

    def unitary(d):
        m = random_complex(rng, (d, d))
        if d == 0:
            return m
        qmat, _ = np.linalg.qr(m + np.eye(d))
        return qmat

    ua = {v: unitary(a.dims[v]) for v in q.vertices}
    ub = {v: unitary(b.dims[v]) for v in q.vertices}
    a2 = Representation(q, dict(a.dims),
                        {ar.name: ua[ar.dst] @ a.maps[ar.name] @ ua[ar.src].conj().T
                         for ar in q.arrows})
    b2 = Representation(q, dict(b.dims),
                        {ar.name: ub[ar.dst] @ b.maps[ar.name] @ ub[ar.src].conj().T
                         for ar in q.arrows})
    assert hom(a2, b2).dimension == base


def test_end_of_direct_sum_dominates():
    rng = np.random.default_rng(7)
    q = random_quiver(rng)
    a = random_rep(rng, q)
    b = random_rep(rng, q)
    assert end(direct_sum(a, b)).dimension >= end(a).dimension + end(b).dimension


def test_iso_implies_equal_end_dims():
    rng = np.random.default_rng(9)
    for _ in range(4):
        q = random_quiver(rng)
        a = random_rep(rng, q)
        b = random_rep(rng, q)
        if are_isomorphic(a, b).verdict == "yes":
            assert end(a).dimension == end(b).dimension


def test_are_isomorphic_self():
    rep = example_reps("ex3", 3)
    res = are_isomorphic(rep, rep)
    assert res.verdict == "yes"
    assert res.witness is not None


def test_are_isomorphic_dim_mismatch():
    a = loop_rep(np.eye(2))
    b = loop_rep(np.eye(3))
    res = are_isomorphic(a, b)
    assert res.verdict == "no"
    assert "dimension" in res.reason


def test_are_isomorphic_hom_zero():
    a = example_reps("ex8", 4, 0.0)
    b = example_reps("ex8", 4, 1.0)
    res = are_isomorphic(a, b)
    assert res.verdict == "no"
    assert res.hom_dim == 0


def test_are_isomorphic_probably_no():
    # hom is 2-dimensional but every intertwiner is singular
    a = loop_rep(jordan_block(0.0, 2))
    b = loop_rep(np.zeros((2, 2)))
    res = are_isomorphic(a, b)
    assert res.verdict == "probably_no"
    assert res.hom_dim > 0


def test_are_isomorphic_zero_reps():
    q = build_canonical("kronecker", 2)
    res = are_isomorphic(zero_representation(q), zero_representation(q))
    assert res.verdict == "yes"


def test_are_isomorphic_respects_seed():
    rep = example_reps("ex9", 4)
    r1 = are_isomorphic(rep, rep, seed=3)
    r2 = are_isomorphic(rep, rep, seed=3)
    assert np.allclose(r1.witness["1"], r2.witness["1"])


def test_end_dimension_is_iso_invariant_witnessed():
    res = are_isomorphic(example_reps("ex9", 4), example_reps("ex9", 4), seed=1)
    assert res.verdict == "yes"
    # witness satisfies the intertwining equations
    rep = example_reps("ex9", 4)
    assert intertwining_residual(rep, rep, res.witness) <= 1e-8 * hom_scale(rep, rep)


def test_relatively_prime_self_false():
    rep = loop_rep(np.eye(2))
    assert not relatively_prime(rep, rep)


def test_relatively_prime_shifted_pair():
    a = example_reps("ex8", 3, 0.0)
    b = example_reps("ex8", 3, 1.0)
    assert relatively_prime(a, b)
    assert exact_hom_dim(b, a) == 0


def test_relatively_prime_canonically_simple_distinct_sources():
    q = build_canonical("subspace", 2)
    a = canonically_simple(q, "1")
    b = canonically_simple(q, "2")
    assert relatively_prime(a, b)


def test_hom_degenerate_zero_dims():
    q = build_canonical("kronecker", 2)
    z = zero_representation(q)
    assert hom(z, z).dimension == 0


def test_hom_quiver_mismatch():
    a = loop_rep(np.eye(1))
    b = Representation(build_canonical("kronecker", 2), {"1": 1, "2": 1},
                       {"a1": np.eye(1), "a2": np.eye(1)})
    with pytest.raises(ValidationError):
        hom(a, b)


def test_hom_size_limit(monkeypatch):
    rep = loop_rep(np.eye(4))
    monkeypatch.setattr(quiverrep.numerics, "MAX_UNKNOWNS", 8)
    with pytest.raises(SizeLimitExceeded):
        hom(rep, rep)


def test_two_subspace_end_dimension():
    rep = two_subspace_rep(np.pi / 4)
    assert end(rep).dimension == 2
    # oracle with a rational direction: cos = 3/5, sin = 4/5
    q = rep.quiver
    rational = Representation(q, {"1": 1, "2": 1, "3": 2},
                              {"a1": np.array([[1.0], [0.0]]),
                               "a2": np.array([[0.6], [0.8]])})
    assert exact_end_dim(rational) == 2
    assert end(rational).dimension == 2


def test_hom_no_arrows_full_space():
    q = build_canonical("kronecker", 2)
    # hom between reps concentrated on arrow-free data: use zero maps so the
    # only constraints vanish identically
    a = Representation(q, {"1": 1, "2": 0}, {"a1": np.zeros((0, 1)), "a2": np.zeros((0, 1))})
    assert end(a).dimension == 1


def _orthonormality_defect(rep_a, rep_b, basis):
    vecs = np.array([np.concatenate([t[v].reshape(-1) for v in rep_a.quiver.vertices])
                     for t in basis])
    return float(np.max(np.abs(vecs.conj() @ vecs.T - np.eye(len(vecs)))))


@pytest.mark.parametrize("rep, n", [
    (perturbation_model(6), 6), (example_reps("ex8", 5, 0.3), 5),
    (example_reps("ex8*", 4, -1.0), 4), (example_reps("ex4", 5), 5),
    (build_family(KroneckerFamily("jordan_first", 4, 0.0)), 4),
    (build_family(KroneckerFamily("jordan_first", 3, 2.0)), 3),
    (build_family(KroneckerFamily("jordan_second", 4, 0.0)), 4),
    (build_family(KroneckerFamily("jordan_second", 3, 1.0)), 3),
    (polynomial_model(jordan_block(0.5, 5), [2.0, 1.0, 1.0]), 5),
])
def test_end_eliminates_one_vertex_of_kronecker_models(rep, n):
    # End of a two-arrow model is the polynomials in C = f^-1 g, with no
    # system solved; the third arrow of ex4 and of (p(T), T, T^2) cuts them
    # down by one more commutator; the forest alone reads the same answer
    basis = end(rep)
    assert (basis.path, basis.unknowns) == ("krylov", n * n)
    forest = forest_hom(rep, rep)
    assert (forest.path, forest.unknowns) == ("forest", n * n)
    dense = _dense_hom(rep, rep)
    assert (dense.path, dense.unknowns) == ("dense", 2 * n * n)
    assert basis.dimension == forest.dimension == dense.dimension
    assert forest.gap >= dense.gap / 100
    for b in (basis, forest):
        assert _orthonormality_defect(rep, rep, b) < 1e-12
        for t in b:
            assert intertwining_residual(rep, rep, t) <= 1e-12 * max(hom_scale(rep, rep), 1.0)


def test_end_reads_the_commutant_on_the_side_nearer_to_normal():
    # perturbation (S, T): the forest keeps T_2 = T T_1 T^-1, so S offers
    # T^-1 S in T_1 and S T^-1 in T_2.  T^-1 S is far from normal, and
    # Arnoldi's commutator residual on it exceeds the guard at n = 14; S T^-1
    # is diagonal and of smaller norm, so End solves in T_2 and lifts to T_1
    rep = perturbation_model(14)
    (step,) = _spanning_forest(rep, rep, DEFAULT_TOL).values()
    assert (step.arrow, step.parent, step.child) == ("a2", "1", "2")
    s, t = rep.maps["a1"], rep.maps["a2"]
    first, second = np.linalg.solve(t, s), s @ np.linalg.inv(t)
    assert np.linalg.norm(second) < np.linalg.norm(first)
    tau = DEFAULT_TOL.hom_tol(hom_scale(rep, rep))
    assert polynomials_in(first, bound=tau)[0] is None
    assert polynomials_in(second, bound=tau)[0].shape == (14, 196)
    assert (end(rep).path, end(rep).dimension) == ("krylov", 14)


def test_krylov_end_resolves_at_the_forest_systems_scale():
    # C = 1e-20 J is one Jordan block, but against the map scale 1 of (I, C)
    # it is rounding noise, where the forest reads all of M_3; with f scaled
    # alike, both read the polynomials in C, and the dense system agrees
    for f, answer in ((np.eye(3), ("forest", 9)), (1e-20 * np.eye(3), ("krylov", 3))):
        rep = kronecker_rep(f, 1e-20 * jordan_block(0.0, 3))
        basis = end(rep)
        assert (basis.path, basis.dimension) == answer
        assert basis.dimension == _dense_hom(rep, rep).dimension


def _scaled_one_sided(kind, n):
    """``kind``(n) with both maps scaled by diag(1..n) on their n-dimensional
    side: full rank, but no isometry up to scale."""
    rep = build_family(KroneckerFamily(kind, n))
    scale = np.diag(np.arange(1.0, n + 1))
    return Representation(rep.quiver, dict(rep.dims),
                          {a: scale @ m if kind == "wide" else m @ scale
                           for a, m in rep.maps.items()})


@pytest.mark.parametrize("rep", [
    _scaled_one_sided("wide", 4), _scaled_one_sided("tall", 4),
    # derogatory loops: a repeated eigenvalue in every loop leaves End larger
    # than the polynomials in any one of them; for the scalar loop it is M_3
    loop_rep(np.diag([1.0, 1.0, 2.0])),
    loop_rep(np.diag([1.0, 1.0, 2.0]), np.diag([3.0, 3.0, 1.0])),
    loop_rep(np.eye(3)),
])
def test_end_without_an_admissible_arrow_is_dense(rep):
    basis = end(rep)
    assert basis.path == "dense"
    assert basis.unknowns == sum(d * d for d in rep.dims.values())


@pytest.mark.parametrize("name, dim_end", [("ex2", 4), ("ex3", 1)])
def test_end_of_a_shift_loop_takes_krylov(name, dim_end):
    # one vertex, no forest: End is the commutant of the shift S, a single
    # nilpotent Jordan block, so the polynomials in S; ex3 cuts them down
    # by [P(S), S^*] = 0 to the scalars
    rep = example_reps(name, 4)
    basis = end(rep)
    assert (basis.path, basis.unknowns, basis.dimension) == ("krylov", 16, dim_end)
    assert basis.dimension == _dense_hom(rep, rep).dimension
    assert basis.gap >= DEFAULT_TOL.elim_gap()
    assert_stacked(rep, rep, basis)


@pytest.mark.parametrize("kind", ["wide", "tall"])
@pytest.mark.parametrize("n", [1, 3, 4])
def test_end_eliminates_through_isometric_kronecker_arrows(kind, n):
    # wide: T_2 = g T_1 f^+ through the co-isometry [I 0]; tall: T_1 = g^+ T_2 f
    # through the isometry [I; 0], so the n+1 vertex keeps its unknowns, but
    # for the n entries T_2[n, r] that [I; 0] fixes to 0
    rep = build_family(KroneckerFamily(kind, n))
    basis = end(rep)
    assert (basis.path, basis.unknowns) == ("forest", (n + 1) ** 2 - (n if kind == "tall" else 0))
    assert basis.dimension == _dense_hom(rep, rep).dimension == 1
    assert _orthonormality_defect(rep, rep, basis) < 1e-12
    for t in basis:
        assert intertwining_residual(rep, rep, t) <= 1e-12 * max(hom_scale(rep, rep), 1.0)


def test_hom_size_limit_bounds_the_system_solved(monkeypatch):
    rep = example_reps("ex8", 4, 0.5)
    dense = example_reps("ex9", 4)
    assert (end(dense).path, end(dense).unknowns) == ("dense", 32)
    monkeypatch.setattr(quiverrep.numerics, "MAX_UNKNOWNS", 20)
    basis = forest_hom(rep, rep)  # reduced 16, dense 32
    assert (basis.path, basis.unknowns, basis.dimension) == ("forest", 16, 4)
    assert (end(rep).path, end(rep).unknowns) == ("krylov", 16)
    with pytest.raises(SizeLimitExceeded, match="dense"):
        hom(dense, dense)
    monkeypatch.setattr(quiverrep.numerics, "MAX_UNKNOWNS", 15)
    with pytest.raises(SizeLimitExceeded, match="forest"):
        forest_hom(rep, rep)
    # End refuses what the forest refuses, before it reduces C, on one
    # object or on two copies
    copy = Representation(rep.quiver, dict(rep.dims), dict(rep.maps))
    for other in (rep, copy):
        with pytest.raises(SizeLimitExceeded, match="krylov"):
            hom(rep, other)
    with pytest.raises(SizeLimitExceeded, match="krylov"):
        end(rep)


def test_forest_keeps_one_arrow_into_each_vertex():
    # arrows 1 -> 3 and 2 -> 3 are both invertible, but only one may
    # determine T_3; the other stays an equation between two roots
    rng = np.random.default_rng(3)
    q = Quiver(("1", "2", "3"), (Arrow("a1", "1", "3"), Arrow("a2", "2", "3"),
                                 Arrow("a3", "3", "3")))
    maps = {name: random_complex(rng, (2, 2)) + 3.0 * np.eye(2) for name in ("a1", "a2")}
    part = Representation(q, {"1": 2, "2": 2, "3": 2}, dict(maps, a3=np.diag([1.0, 2.0])))
    rep = direct_sum(part, part)
    basis = end(rep)
    assert (basis.path, basis.unknowns) == ("forest", 32)
    assert basis.dimension == _dense_hom(rep, rep).dimension == 8
    assert _orthonormality_defect(rep, rep, basis) < 1e-12


def test_forest_matches_dense_on_random_quivers_of_equal_dims():
    rng = np.random.default_rng(21)
    for _ in range(8):
        q = random_quiver(rng, n_vertices=3, n_arrows=4)
        a = random_rep(rng, q, max_dim=2, min_dim=2)
        b = direct_sum(a, random_rep(rng, q, max_dim=1, min_dim=1))
        for x, y in ((a, b), (b, a), (b, b)):
            basis = hom(x, y)
            assert basis.dimension == _dense_hom(x, y).dimension
            for t in basis:
                assert intertwining_residual(x, y, t) <= 1e-8 * hom_scale(x, y)
            assert_stacked(x, y, basis)


@pytest.mark.parametrize("log_cond, admitted", [(3.9, True), (6.0, True), (7.9, False)])
def test_gap_guard_sends_a_cancelling_reduced_system_to_dense(log_cond, admitted):
    # (F, F) with cond(F) = 10**log_cond and End all of M_4.  F is invertible
    # at inv_rel = 1e-8.  Up to 10^6 its backward error F F^-1 - I (3e3 and
    # 2e5 eps) is within the gap guard's reach, so the forest admits F: the
    # reduced system kron(F, (F^-1 F)^T) - kron(F, I) is zero only up to
    # that error, above its cutoff, so the forest solve alone loses
    # dimensions at a small gap.  At 10^7.9 the error is 1e7 eps, where a
    # lost dimension can leave a large gap, and F is not admitted
    rng = np.random.default_rng(0)
    u, v = (np.linalg.qr(random_complex(rng, (4, 4)))[0] for _ in range(2))
    f = u @ np.diag(np.logspace(0, -log_cond, 4)) @ v
    rep = kronecker_rep(f, f)
    forest = _spanning_forest(rep, rep, DEFAULT_TOL)
    assert bool(forest) == admitted
    if admitted:
        reduced = _solve(rep, rep, DEFAULT_TOL, forest)
        assert reduced.gap < DEFAULT_TOL.elim_gap()
    basis = end(rep)
    assert (basis.path, basis.dimension) == ("dense", 16)


def test_residual_guard_falls_back_to_dense(monkeypatch):
    import quiverrep.intertwiner as intertwiner
    rep = example_reps("ex8", 4, 0.5)
    assert (end(rep).path, forest_hom(rep, rep).path) == ("krylov", "forest")
    # both fast paths fail the guard, so End falls through the forest to dense
    monkeypatch.setattr(intertwiner, "intertwining_residual", lambda *args: np.inf)
    basis = end(rep)
    assert (basis.path, basis.unknowns, basis.dimension) == ("dense", 32, 4)
