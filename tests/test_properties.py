"""Property tests with fixed seeds: hypothesis runs derandomized, so every run
draws the same examples."""

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from quiverrep import (Arrow, KroneckerFamily, NumericalFailure, Quiver, Representation,
                       ValidationError, analyze, are_isomorphic, build_canonical, build_family,
                       decompose, direct_sum, end, end_recursion_check, example_reps,
                       from_operator, generated_algebra, hom, hrr_max_truncation, hrr_model,
                       is_strongly_irreducible, jordan_block, kronecker_rep, make_system,
                       perturbation_model, remove_loops, rep_to_system, restrict, shift,
                       star_closed_end_dim, system_end_dimension, system_to_rep)
from quiverrep.cli import build_model
from quiverrep.intertwiner import _dense_hom, _spanning_forest
from quiverrep.kronecker import FAMILY_KINDS
from quiverrep.numerics import DEFAULT_TOL, random_complex
from quiverrep.structure import _support_witness, widest_two_group_split

from helpers import (assert_stacked, conjugate, conjugated_jordan, forest_hom, loop_rep,
                     random_decomposable, random_quiver, random_rep, real_well_conditioned,
                     rotate, system_end)
from oracles import (agglomerative_two_group_split, dense_system_end_dim, exact_end_dim,
                     reduce_pencil, stacked_star_dim)

# Jordan types of total size 1..5 with eigenvalues in a small set, so that
# blocks often share an eigenvalue
jordan_types = st.lists(
    st.tuples(st.sampled_from([0.0, 1.0, -2.0, 1.5j]), st.integers(1, 3)),
    min_size=1, max_size=4,
).filter(lambda blocks: sum(p for _, p in blocks) <= 5)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(blocks=jordan_types, seed=st.integers(0, 2**32 - 1))
def test_end_preserved_through_from_operator(blocks, seed):
    mat, commutant = conjugated_jordan(np.random.default_rng(seed), blocks)
    assert end(loop_rep(mat)).dimension == commutant
    assert system_end(from_operator(mat)).dimension == commutant


@settings(derandomize=True, deadline=None, max_examples=40)
@given(blocks=jordan_types, seed=st.integers(0, 2**32 - 1))
def test_end_preserved_through_rep_to_system_and_back(blocks, seed):
    mat, commutant = conjugated_jordan(np.random.default_rng(seed), blocks)
    system = rep_to_system(remove_loops(loop_rep(mat), check=False), check=False)
    assert system_end(system).dimension == commutant
    assert end(system_to_rep(system, check=False)).dimension == commutant


# real eigenvalues and a real S: every SVD behind these answers runs real LAPACK
real_jordan_types = st.lists(
    st.tuples(st.sampled_from([0.0, 1.0, -2.0]), st.integers(1, 3)),
    min_size=1, max_size=4,
).filter(lambda blocks: sum(p for _, p in blocks) <= 5)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(blocks=real_jordan_types, seed=st.integers(0, 2**32 - 1))
def test_real_jordan_types_give_the_exact_commutant(blocks, seed):
    rng = np.random.default_rng(seed)
    mat, commutant = conjugated_jordan(rng, blocks, real=True)
    assert not mat.imag.any()
    assert end(loop_rep(mat)).dimension == commutant
    assert system_end(from_operator(mat)).dimension == commutant
    # (P, P M) is a Kronecker rep whose End is the commutant of M, solved
    # through the invertible arrow P
    p = real_well_conditioned(rng, mat.shape[0])
    rep = kronecker_rep(p, p @ mat)
    basis = forest_hom(rep, rep)
    assert basis.path == "forest"
    assert basis.dimension == _dense_hom(rep, rep).dimension == commutant
    # End takes the polynomials in M exactly when M is nonderogatory
    basis = end(rep)
    assert basis.dimension == commutant
    assert (basis.path == "krylov") == (commutant == mat.shape[0])


def _cross_gap(first, second):
    return min(abs(a - b) for a in first for b in second)


# values clustered around a few centres, offset by exact zeros (duplicates)
# and by distances on both sides of 1e-8
clustered_values = st.lists(
    st.tuples(st.sampled_from([0.0, 1.0, -2.0, 1.5j, 0.3 + 0.3j]),
              st.sampled_from([0.0, 0.0, 1e-12, 4e-9, 1e-8, 3e-8, 1e-6, 0.05])),
    min_size=0, max_size=10,
).map(lambda pts: np.array([c + o for c, o in pts], dtype=complex))
free_values = st.lists(st.floats(-3.0, 3.0), min_size=0, max_size=10).map(
    lambda xs: np.array(xs, dtype=complex))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(values=st.one_of(clustered_values, free_values),
       threshold=st.sampled_from([0.0, 1e-12, 5e-9, 1e-8, 1e-6, 0.04, 0.5, 2.0]))
def test_widest_split_matches_agglomerative_reference(values, threshold):
    split = widest_two_group_split(values, threshold)
    reference = agglomerative_two_group_split(values, threshold)
    assert (split is None) == (reference is None)
    if split is not None:
        first, second = split
        assert len(first) + len(second) == len(values)
        assert values[0] in first
        assert _cross_gap(first, second) == _cross_gap(*reference)


def _sum(reps):
    total = reps[0]
    for part in reps[1:]:
        total = direct_sum(total, part)
    return total


families = st.builds(KroneckerFamily, st.sampled_from(FAMILY_KINDS), st.integers(1, 3),
                     st.sampled_from([0.0, 1.0]))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(parts=st.lists(families, min_size=2, max_size=3), seed=st.integers(0, 2**32 - 1))
def test_decompose_leaves_rebuild_a_hidden_kronecker_sum(parts, seed):
    reps = [build_family(f) for f in parts]
    total = _sum(reps)
    rng = np.random.default_rng(seed)
    unitary = {v: np.linalg.qr(random_complex(rng, (k, k)))[0] for v, k in total.dims.items()}
    rep = Representation(total.quiver, dict(total.dims),
                         {a.name: unitary[a.dst] @ total.maps[a.name] @ unitary[a.src].conj().T
                          for a in total.quiver.arrows})
    leaves = decompose(rep, seed=seed).leaf_reps()
    assert are_isomorphic(_sum(leaves), rep).verdict == "yes"
    assert (sorted(tuple(l.dims.values()) for l in leaves)
            == sorted(tuple(r.dims.values()) for r in reps))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(parts=st.lists(families, min_size=3, max_size=3))
def test_dim_hom_is_additive_over_direct_sums(parts):
    a, b, c = (build_family(f) for f in parts)
    ab = direct_sum(a, b)
    assert hom(ab, c).dimension == hom(a, c).dimension + hom(b, c).dimension
    assert hom(c, ab).dimension == hom(c, a).dimension + hom(c, b).dimension


@settings(derandomize=True, deadline=None, max_examples=60)
@given(parts=st.lists(families, min_size=1, max_size=3), seed=st.integers(0, 2**32 - 1))
def test_rep_is_isomorphic_to_its_conjugate(parts, seed):
    rep = _sum([build_family(f) for f in parts])
    rng = np.random.default_rng(seed)
    change = {v: random_complex(rng, (k, k)) + 2.0 * np.eye(k) for v, k in rep.dims.items()}
    conjugate = Representation(rep.quiver, dict(rep.dims),
                               {a.name: change[a.dst] @ rep.maps[a.name]
                                @ np.linalg.inv(change[a.src]) for a in rep.quiver.arrows})
    assert are_isomorphic(rep, conjugate).verdict == "yes"


def _changed(rep, change):
    """``rep`` under the per-vertex change of basis ``change``."""
    return Representation(rep.quiver, dict(rep.dims),
                          {a.name: change[a.dst] @ rep.maps[a.name] @ np.linalg.inv(change[a.src])
                           for a in rep.quiver.arrows})


def _unitary(rng, k):
    return np.linalg.qr(random_complex(rng, (k, k)))[0]


# a Jordan block of the pencil at eigenvalue lam: jordan_first(lam) carries it
# as (lam I + J, I), jordan_second(1 / lam) as (I, I / lam + J), so the second
# form puts the singular-looking arrow first; jordan_second(0) is lam = inf
jordan_sums = st.lists(st.tuples(st.sampled_from([0.5, 1.0, 2.0, np.inf]), st.integers(1, 3),
                                 st.booleans()),
                       min_size=2, max_size=3)


def _jordan_sum(blocks):
    parts = []
    for lam, p, second in blocks:
        if lam == np.inf:
            parts.append(KroneckerFamily("jordan_second", p, 0.0))
        elif second:
            parts.append(KroneckerFamily("jordan_second", p, 1.0 / lam))
        else:
            parts.append(KroneckerFamily("jordan_first", p, lam))
    return _sum([build_family(f) for f in parts])


def _hidden(rep, rng, log_cond):
    """``rep`` under a change of basis of condition number 10**log_cond at every vertex."""
    return _changed(rep, {v: _unitary(rng, k) @ np.diag(np.logspace(0, log_cond, k))
                          @ _unitary(rng, k) for v, k in rep.dims.items()})


@settings(derandomize=True, deadline=None, max_examples=80)
@given(first=jordan_sums, second=jordan_sums, log_cond=st.floats(0.0, 4.0),
       seed=st.integers(0, 2**32 - 1))
def test_forest_hom_matches_dense_and_exact_on_hidden_jordan_sums(first, second, log_cond,
                                                                   seed):
    rng = np.random.default_rng(seed)
    a = _hidden(_jordan_sum(first), rng, log_cond)
    b = _hidden(_jordan_sum(second), rng, log_cond)
    # dim Hom between Jordan blocks J_p(lam) and J_q(lam) is min(p, q), 0 across eigenvalues
    exact = sum(min(p, q) for lam, p, _ in first for mu, q, _ in second if lam == mu)
    basis = hom(a, b)
    assert basis.dimension == _dense_hom(a, b).dimension == exact
    assert_stacked(a, b, basis)
    exact_end = sum(min(p, q) for lam, p, _ in first for mu, q, _ in first if lam == mu)
    assert end(a).dimension == _dense_hom(a, a).dimension == exact_end


def test_krylov_hom_reads_the_rounding_of_p_a_of_c_b_as_zero():
    # p_a(C_b) = 0 here: C_b is 0.5 I.  The recurrence leaves 5e-16 of
    # rounding in it, which a cutoff relative to its own norm reads as full
    # rank, Hom 0; at the recurrence's rounding scale it is zero
    rng = np.random.default_rng(0)
    a = _hidden(_jordan_sum([(0.5, 1, False), (1.0, 2, False)]), rng, 0.0)
    b = _hidden(_jordan_sum([(0.5, 1, False), (0.5, 1, False)]), rng, 0.0)
    assert hom(a, b).dimension == _dense_hom(a, b).dimension == 2


@pytest.mark.parametrize("mu", [1.1, 1.5])
def test_krylov_hom_between_hrr_models_at_base_2_is_the_dense_answer(mu):
    # the models are similar, so p_a(C_b) = 0, but its rounding reaches half
    # its cutoff at mu = 1.1 and reads full rank at 2.2 times it at mu = 1.5;
    # cut at the map scale, both read Hom 0
    a, b = hrr_model(4, 2.0), hrr_model(4, mu)
    assert hom(a, b).dimension == _dense_hom(a, b).dimension == 9


def _near_derogatory_draw():
    """Draw 339 of a survey over rng 1: J_1(0.5) + J_1(0.5 + 10^-5.405) under
    a basis change of condition 10^2.914."""
    rng = np.random.default_rng(1)
    for _ in range(340):
        p, q = rng.integers(1, 4, size=2)
        lam, log_delta, log_cond = (rng.choice([0.0, 1.0, -2.0, 0.5]), rng.uniform(-10, -1),
                                    rng.uniform(0, 3))
        rng.integers(0, 2)
        rep = _hidden(_jordan_sum([(lam, p, False), (lam + 10**log_delta, q, False)]), rng,
                      log_cond)
    return rep


def _copy(rep):
    """The same data in new arrays and a new object."""
    return Representation(rep.quiver, dict(rep.dims), {k: m.copy() for k, m in rep.maps.items()})


def test_krylov_hom_reads_the_hidden_pair_the_forest_reads_one_short():
    # the forest reads Hom(rep, rep) as 1 at a gap of 1.3e6, below the
    # polynomials in C; one Arnoldi run on C gives the dense answer, on one
    # object and across two copies alike
    rep = _near_derogatory_draw()
    assert (forest_hom(rep, rep).dimension, forest_hom(rep, rep).gap > 1e6) == (1, True)
    for other in (rep, _copy(rep)):
        basis = hom(rep, other)
        assert (basis.path, basis.dimension) == ("krylov", 2)
    assert _dense_hom(rep, _copy(rep)).dimension == end(rep).dimension == 2


def _identity_cases():
    rng = np.random.default_rng(7)
    cases = [(_near_derogatory_draw(), ("krylov", 4)),
             (remove_loops(example_reps("ex3", 4), check=False), ("krylov", 16))]
    # the subspace-quiver representation of an operator on C^k: its two axes
    # are coordinate isometries, whose zeros leave 2k^2 of the sink's 4k^2
    # unknowns
    cases += [(system_to_rep(from_operator(conjugated_jordan(rng, [(0.5, k)])[0]), check=False),
               ("forest", 2 * k * k)) for k in (2, 3, 4)]
    cases += [(build_model(name, params)[0], None) for name, params in (
        ("jordan_first", ["n=4", "lam=0.5"]), ("jordan_second", ["n=3"]), ("wide", ["n=3"]),
        ("tall", ["n=3"]), ("perturbation", ["N=6"]), ("hrr", ["N=3", "lam=1.5"]),
        ("ex1", []), ("ex2", ["N=4"]), ("ex3", ["N=5"]), ("ex4", ["N=5"]), ("ex6", []),
        ("ex7", []), ("ex8", ["N=4", "lam=0.5"]), ("ex8s", ["N=4"]), ("ex9", ["N=3"]))]
    cases += [(random_rep(rng, random_quiver(rng), max_dim=3, min_dim=1), None)
              for _ in range(8)]
    return cases


@pytest.mark.parametrize("rep, pinned", _identity_cases())
def test_hom_reads_the_data_not_the_object(rep, pinned):
    # Hom of two copies of one representation is its End, on every path:
    # same system, same unknowns, same decision
    answers = [hom(rep, rep), hom(rep, _copy(rep)), end(rep)]
    assert len({(b.path, b.unknowns, b.dimension, b.cutoff, b.gap) for b in answers}) == 1
    if pinned is not None:
        assert (answers[0].path, answers[0].unknowns) == pinned


# C_a is nonderogatory when no eigenvalue of a has two Jordan blocks
nonderogatory_jordan_sums = st.lists(
    st.tuples(st.sampled_from([0.5, 1.0, 2.0, np.inf]), st.integers(1, 3), st.booleans()),
    min_size=1, max_size=3, unique_by=lambda block: block[0])
krylov_hom_cases = st.one_of(
    st.tuples(st.just("hidden"), nonderogatory_jordan_sums, jordan_sums, st.floats(0.0, 2.0),
              st.integers(0, 2**32 - 1)),
    st.tuples(st.just("loop"), jordan_types.filter(lambda blocks: len({lam for lam, _ in blocks})
                                                   == len(blocks)),
              jordan_types, st.integers(0, 2**32 - 1)),
    st.tuples(st.just("shifted"), st.sampled_from(["ex8", "ex8*"]), st.integers(1, 12),
              st.floats(-1.0, 1.0), st.floats(0.5, 3.0), st.booleans()),
    # several leftover equations: ex4 (S, S*, I) against a unitary copy, and
    # two-loop pairs (M, K) against a unitary copy or against another pair,
    # K a polynomial in M or generic
    st.tuples(st.just("ex4"), st.integers(4, 10), st.integers(0, 2**32 - 1)),
    st.tuples(st.just("pair"), jordan_types.filter(lambda blocks: len({lam for lam, _ in blocks})
                                                   == len(blocks)),
              st.one_of(st.none(), jordan_types), st.booleans(), st.integers(0, 2**32 - 1)),
    # two or three loops, polynomials in one nonderogatory M, each side under
    # its own basis change of condition 10^2-10^3, so C is far from normal;
    # against the same loops, or with the last moved by M / 2, where Hom is
    # the X = q(M) with M X = 0
    st.tuples(st.just("skewed"), st.integers(2, 7), st.integers(1, 2), st.floats(2.0, 3.0),
              st.booleans(), st.integers(0, 2**32 - 1)))


def _jordan_loops(rng, blocks, polynomial):
    m = conjugated_jordan(rng, blocks)[0]
    return loop_rep(m, m @ m + 2.0 * m if polynomial else random_complex(rng, m.shape))


def _skewed_loops(n, extra, log_cond, shifted, seed):
    """One block per eigenvalue, eigenvalues and block sizes drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    lams = rng.choice([0.0, 0.5, 1.0, 2.0, -1.0], size=rng.integers(1, min(n, 4) + 1),
                      replace=False)
    sizes = 1 + np.bincount(rng.integers(len(lams), size=n - len(lams)), minlength=len(lams))
    m = sla.block_diag(*[jordan_block(lam, p) for lam, p in zip(lams, sizes)]).astype(complex)
    loops = [m] + [c[0] * np.eye(len(m)) + c[1] * m + c[2] * m @ m
                   for c in rng.standard_normal((extra, 3))]
    a = _hidden(loop_rep(*loops), rng, log_cond)
    if shifted:
        loops[-1] = loops[-1] + m / 2
    return a, _hidden(loop_rep(*loops), rng, log_cond)


def _assert_krylov_hom(a, b, basis):
    assert basis.unknowns == a.dims["1"] * b.dims["1"]
    vecs = np.hstack([basis.stacks[v].reshape(basis.dimension, basis.unknowns)
                      for v in a.quiver.vertices])
    assert np.allclose(vecs.conj() @ vecs.T, np.eye(basis.dimension), rtol=0, atol=1e-12)
    assert_stacked(a, b, basis)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(case=krylov_hom_cases)
def test_krylov_hom_is_the_dense_answer(case):
    # a cross Hom read from one Arnoldi run on C_a has the dense dimension,
    # wherever its guards let it answer: hidden Kronecker pairs and loops
    # with shared and with disjoint spectra, and shifted shifts; on the
    # sweeps' shapes (ex8 at N = 10, ex8s at N = 12, |lam - mu| > 2) the
    # guards let it.  Where they decline, the forest answers as before, and
    # near |lam - mu| = 0.5 the dense system itself decides at gaps near 100.
    # Further leftover equations cut the family down, in an orthonormal
    # basis of it and only at a clear margin; ex4 always takes it
    kind, *params = case
    if kind == "hidden":
        first, second, log_cond, seed = params
        rng = np.random.default_rng(seed)
        a, b = (_hidden(_jordan_sum(first), rng, log_cond),
                _hidden(_jordan_sum(second), rng, log_cond))
    elif kind == "loop":
        first, second, seed = params
        rng = np.random.default_rng(seed)
        a, b = (loop_rep(conjugated_jordan(rng, blocks)[0]) for blocks in (first, second))
    elif kind == "shifted":
        name, n, lam, distance, below = params
        a = example_reps(name, n, lam)
        b = example_reps(name, n, lam - distance if below else lam + distance)
    elif kind == "ex4":
        n, seed = params
        a = example_reps("ex4", n)
        b = rotate(a, np.random.default_rng(seed))
    elif kind == "skewed":
        a, b = _skewed_loops(*params)
    else:
        first, second, polynomial, seed = params
        rng = np.random.default_rng(seed)
        a = _jordan_loops(rng, first, polynomial)
        b = rotate(a, rng) if second is None else _jordan_loops(rng, second, polynomial)
    basis = hom(a, b)
    if basis.path == "krylov":
        assert basis.dimension == _dense_hom(a, b).dimension
        _assert_krylov_hom(a, b, basis)
    if kind == "ex4":
        assert (basis.path, basis.dimension) == ("krylov", 1)
    if kind == "shifted" and (name, n) in (("ex8", 10), ("ex8*", 12)) and distance > 2:
        assert basis.path == "krylov"


def test_krylov_hom_answers_every_hrr_cell_the_cli_sweeps():
    # lam = 1.05, 1.1 at N 4-10 (README) and lam = 1.1, 2.0 at N 3-5
    # (test_cli), each pair at every level both admit: the models are similar,
    # so Hom has the End dimension 2N + 1, which the sweep tests pin; the
    # dense system costs seconds past N = 5
    cells = [(lam, mu, n) for lam in (1.05, 1.1, 2.0) for mu in (1.05, 1.1, 2.0) if lam != mu
             for n in range(3, min(hrr_max_truncation(lam), hrr_max_truncation(mu), 10) + 1)]
    paths = set()
    for lam, mu, n in cells:
        a, b = hrr_model(n, lam), hrr_model(n, mu)
        basis = hom(a, b)
        assert basis.dimension == 2 * n + 1
        if n <= 5:
            assert basis.dimension == _dense_hom(a, b).dimension
        if basis.path == "krylov":
            _assert_krylov_hom(a, b, basis)
        paths.add(basis.path)
    assert (len(cells), paths) == (24, {"krylov"})


@settings(derandomize=True, deadline=None, max_examples=40)
@given(blocks=jordan_sums, size=st.integers(1, 3), second=st.booleans(), other=jordan_sums,
       log_cond=st.floats(0.0, 2.0), seed=st.integers(0, 2**32 - 1))
def test_cross_hom_from_a_derogatory_hidden_jordan_sum_never_takes_krylov(blocks, size, second,
                                                                         other, log_cond, seed):
    # a second block at the first block's eigenvalue makes C_a derogatory: no
    # vector is cyclic for it, and Arnoldi's steps fall to rounding
    rng = np.random.default_rng(seed)
    a = _hidden(_jordan_sum(blocks + [(blocks[0][0], size, second)]), rng, log_cond)
    b = _hidden(_jordan_sum(other), rng, log_cond)
    assert hom(a, b).path != "krylov"


@settings(derandomize=True, deadline=None, max_examples=60)
@given(blocks=jordan_sums, size=st.integers(1, 3), second=st.booleans(),
       log_cond=st.floats(0.0, 4.0), seed=st.integers(0, 2**32 - 1))
def test_end_of_a_derogatory_hidden_jordan_sum_never_takes_krylov(blocks, size, second,
                                                                 log_cond, seed):
    # a second block at the first block's eigenvalue makes C derogatory:
    # I, C, ..., C^(n-1) are dependent, so End is never answered as the n
    # polynomials in C, of a pencil or of a loop
    rng = np.random.default_rng(seed)
    blocks = blocks + [(blocks[0][0], size, second)]
    rep = _hidden(_jordan_sum(blocks), rng, log_cond)
    basis = end(rep)
    assert basis.path != "krylov"
    assert basis.dimension > rep.dims["1"]
    # the same Jordan type as one loop, the infinite eigenvalue read as 0
    jordan = sla.block_diag(*[jordan_block(0.0 if lam == np.inf else lam, p)
                              for lam, p, _ in blocks])
    loop = _hidden(loop_rep(jordan), rng, log_cond)
    basis = end(loop)
    assert basis.path != "krylov"
    assert basis.dimension > loop.dims["1"]


@settings(derandomize=True, deadline=None, max_examples=150)
@given(p=st.integers(1, 3), q=st.integers(1, 3), lam=st.sampled_from([0.0, 1.0, -2.0, 1.5j]),
       log_delta=st.floats(-10.0, -1.0), log_cond=st.floats(0.0, 3.0),
       second=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_krylov_end_of_a_near_derogatory_pair_is_the_dense_answer(p, q, lam, log_delta,
                                                                   log_cond, second, seed):
    # J_p(lam) + J_q(lam + delta) is nonderogatory for every delta != 0, but
    # near 0 its powers are nearly dependent; an End that takes the
    # polynomials in C must be the dense system's answer.  The forest is no
    # reference here: on one 1 + 1 pair it read 1, below the independent I, C
    kind = "jordan_second" if second else "jordan_first"
    pair = [KroneckerFamily(kind, p, lam), KroneckerFamily(kind, q, lam + 10.0 ** log_delta)]
    rep = _hidden(_sum([build_family(f) for f in pair]), np.random.default_rng(seed), log_cond)
    basis = end(rep)
    if basis.path == "krylov":
        assert basis.dimension == p + q == _dense_hom(rep, rep).dimension
        assert basis.gap >= DEFAULT_TOL.elim_gap()
        assert_stacked(rep, rep, basis)


def test_end_of_a_hidden_pair_of_distinct_jordan_blocks_takes_krylov():
    pair = [KroneckerFamily("jordan_first", 2, 1.0), KroneckerFamily("jordan_first", 1, 1.01)]
    rep = _hidden(_sum([build_family(f) for f in pair]), np.random.default_rng(0), 1.0)
    basis = end(rep)
    assert (basis.path, basis.unknowns, basis.dimension) == ("krylov", 9, 3)
    assert _dense_hom(rep, rep).dimension == 3
    assert_stacked(rep, rep, basis)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(first=jordan_sums, second=jordan_sums, log_cond=st.floats(4.0, 8.0),
       seed=st.integers(0, 2**32 - 1))
def test_ill_conditioned_hidden_jordan_sums_keep_an_exact_forest_or_go_dense(first, second,
                                                                            log_cond, seed):
    # a forest answer that stands is exact; any other is the dense one,
    # which itself misses the exact value on most draws at these conditions
    rng = np.random.default_rng(seed)
    a = _hidden(_jordan_sum(first), rng, log_cond)
    b = _hidden(_jordan_sum(second), rng, log_cond)
    exact = sum(min(p, q) for lam, p, _ in first for mu, q, _ in second if lam == mu)
    exact_end = sum(min(p, q) for lam, p, _ in first for mu, q, _ in first if lam == mu)
    for x, y, want in ((a, b, exact), (a, a, exact_end)):
        basis = hom(x, y)
        if basis.path == "forest":
            assert basis.dimension == want
        else:
            assert basis.dimension == _dense_hom(x, y).dimension


# the paper's pencil reduction (A, B) -> (T, I/y - (x/y) T), T = (xA + yB)^-1 A,
# at these points (x, y)
PENCIL_POINTS = ((1.0, 1.0), (0.7, 1.3), (1j, 1.0), (np.exp(0.7j), 1.0))

pencil_sums = st.lists(st.tuples(st.sampled_from(["jordan_first", "jordan_second"]),
                                 st.integers(1, 2), st.sampled_from([0.0, 1.0, 2.0])),
                       min_size=1, max_size=3)


@settings(derandomize=True, deadline=None, max_examples=220)
@given(case=st.one_of(st.integers(2, 10), pencil_sums), seed=st.integers(0, 2**32 - 1))
def test_end_and_hom_agree_across_the_pencil_reduction(case, seed):
    # the reduced pair is isomorphic to the original, so End of either and Hom
    # between them have one dimension, on whichever path each solve takes;
    # ex9 (S, S*) has no invertible arrow, so its End is the dense one
    if isinstance(case, int):
        rep = example_reps("ex9", case)
    else:
        total = _sum([build_family(KroneckerFamily(kind, n, lam)) for kind, n, lam in case])
        rng = np.random.default_rng(seed)
        rep = _changed(total, {v: random_complex(rng, (k, k)) for v, k in total.dims.items()})
    dimension = end(rep).dimension
    for x, y in PENCIL_POINTS:
        try:
            reduced = reduce_pencil(rep.maps["a1"], rep.maps["a2"], x, y).reduced
        except ValidationError:  # xA + yB is singular at this point
            continue
        assert end(reduced).dimension == dimension == hom(rep, reduced).dimension


# families with n = 0 too: wide(0) and tall(0) are canonically simple
small_families = st.one_of(families, st.builds(KroneckerFamily, st.sampled_from(["wide", "tall"]),
                                               st.just(0)))


def _assert_verdicts_invariant(rep, rng):
    result = analyze(rep)
    verdicts = result.verdicts()
    unitary = {v: _unitary(rng, k) for v, k in rep.dims.items()}
    conjugate = analyze(_changed(rep, unitary))
    assert conjugate.verdicts() == verdicts
    assert conjugate.end_basis.dimension == result.end_basis.dimension
    return verdicts


@settings(derandomize=True, deadline=None, max_examples=40)
@given(parts=st.lists(small_families, min_size=1, max_size=2), seed=st.integers(0, 2**32 - 1))
def test_verdicts_invariant_under_change_of_basis(parts, seed):
    rep = _sum([build_family(f) for f in parts])
    rng = np.random.default_rng(seed)
    verdicts = _assert_verdicts_invariant(rep, rng)
    # irreducibility reads the inner product, which an invertible change moves
    invertible = {v: random_complex(rng, (k, k)) + 2.0 * np.eye(k) for v, k in rep.dims.items()}
    changed = analyze(_changed(rep, invertible)).verdicts()
    del verdicts["irreducible"], changed["irreducible"]
    assert changed == verdicts


@settings(derandomize=True, deadline=None, max_examples=40)
@given(parts=st.lists(small_families, min_size=1, max_size=2), seed=st.integers(0, 2**32 - 1))
def test_real_and_complex_paths_agree_under_unitary_change(parts, seed):
    # a real orthogonal change keeps the maps real but dense, so the real rep
    # runs real LAPACK and its complex unitary conjugate complex LAPACK
    total = _sum([build_family(f) for f in parts])
    rng = np.random.default_rng(seed)
    rep = _changed(total, {v: np.linalg.qr(rng.standard_normal((k, k)))[0]
                           for v, k in total.dims.items()})
    assert not any(m.imag.any() for m in rep.maps.values())
    _assert_verdicts_invariant(rep, rng)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(blocks=jordan_types, seed=st.integers(0, 2**32 - 1))
def test_subspace_quiver_end_solves_in_the_sink_unknowns(blocks, seed):
    # each inclusion is an isometry: T_i = U_i^H T_sink U_i, leaving
    # Q_i^H T_sink U_i = 0; the two axes of C^k (+) C^k are coordinate and
    # fix 2k^2 of the sink's 4k^2 entries to 0 instead
    mat, commutant = conjugated_jordan(np.random.default_rng(seed), blocks)
    system = from_operator(mat)
    rep = system_to_rep(system, check=False)
    basis = end(rep)
    assert (basis.path, basis.unknowns) == ("forest", 2 * mat.shape[0] ** 2)
    assert basis.dimension == _dense_hom(rep, rep).dimension == commutant
    assert basis.dimension == system_end(system).dimension
    assert_stacked(rep, rep, basis)


one_sided_families = st.builds(KroneckerFamily, st.sampled_from(["wide", "tall"]),
                               st.integers(1, 3))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(first=st.lists(one_sided_families, min_size=1, max_size=3),
       second=st.lists(one_sided_families, min_size=1, max_size=2),
       seed=st.integers(0, 2**32 - 1))
def test_forest_hom_matches_dense_on_unitarily_changed_wide_and_tall_sums(first, second, seed):
    # a unitary change keeps an isometric arrow isometric; a sum of one kind
    # has full-rank one-sided maps, a mixed sum singular ones
    rng = np.random.default_rng(seed)
    sums = [_sum([build_family(f) for f in parts]) for parts in (first, second)]
    a, b = (_changed(rep, {v: _unitary(rng, k) for v, k in rep.dims.items()}) for rep in sums)
    for x, y in ((a, a), (a, b), (b, a)):
        basis = hom(x, y)
        assert basis.dimension == _dense_hom(x, y).dimension
        assert_stacked(x, y, basis)
    one_kind = len({f.kind for f in first}) == 1
    side = max(a.dims.values())
    assert (end(a).path, end(a).unknowns) == (("forest", side ** 2) if one_kind
                                              else ("dense", sum(k * k for k in a.dims.values())))


@settings(derandomize=True, deadline=None, max_examples=40)
@given(kind=st.sampled_from(["wide", "tall"]),
       # the one-sided map has sum(sizes) singular values; a single one is
       # always equal to itself, so the map would stay isometric up to scale
       sizes=st.lists(st.integers(1, 3), min_size=1, max_size=3).filter(lambda s: sum(s) >= 2),
       log_cond=st.floats(0.5, 3.0), seed=st.integers(0, 2**32 - 1))
def test_hidden_sum_with_a_non_isometric_one_sided_arrow_stays_dense(kind, sizes, log_cond,
                                                                      seed):
    total = _sum([build_family(KroneckerFamily(kind, n)) for n in sizes])
    rep = _hidden(total, np.random.default_rng(seed), log_cond)
    basis = end(rep)
    assert (basis.path, basis.unknowns) == ("dense", sum(k * k for k in rep.dims.values()))
    assert end(total).path == "forest"
    assert basis.dimension == end(total).dimension


def test_ill_conditioned_invertible_arrow_takes_forest_path():
    # a1 is invertible at inv_rel = 1e-8 with sigma_min / sigma_max = 1e-5;
    # a2 is nilpotent.  The diagonal inverse is exact per entry, so the
    # eliminated answer passes both guards
    rep = kronecker_rep(np.diag([1.0, 1e-5]), jordan_block(0.0, 2))
    basis = forest_hom(rep, rep)
    assert (basis.path, basis.unknowns) == ("forest", 4)
    assert basis.dimension == exact_end_dim(rep) == 2
    # C = diag(1, 1e5) J_2(0) is one nilpotent Jordan block
    basis = end(rep)
    assert (basis.path, basis.unknowns, basis.dimension) == ("krylov", 4, 2)


def test_hidden_scalar_pencil_with_an_inaccurate_inverse_goes_dense():
    # (0.5 I, I) on C^2 under a change of basis of condition 10^4 at each
    # vertex: both arrows are invertible at inv_rel = 1e-8 with backward
    # errors above elim_gap eps.  Eliminated, End came out of dimension 2,
    # not 4, at a nullspace gap of 1.5e7 and with residuals under tau: the
    # noise lifts whole directions, and neither guard sees a missing one
    rep = _hidden(_jordan_sum([(0.5, 1, False)] * 2), np.random.default_rng(0), 4.0)
    assert not _spanning_forest(rep, rep, DEFAULT_TOL)
    basis = end(rep)
    assert (basis.path, basis.dimension) == ("dense", 4)


def test_hrr_end_eliminates_through_its_double_exponential_arrow():
    # a1's sigma_min / sigma_max is 1.1e-7; End is the 2N + 1 polynomials
    # in the weighted shift, and every basis element meets the recursion
    rep = hrr_model(4, 2.0)
    forest, basis = forest_hom(rep, rep), end(rep)
    assert (forest.path, forest.unknowns, forest.dimension) == ("forest", 81, 9)
    assert (basis.path, basis.unknowns, basis.dimension) == ("krylov", 81, 9)
    for b in (forest, basis):
        report = end_recursion_check(rep, 2.0, basis=b)
        assert report.range_ratio == pytest.approx(1.1e-7, rel=0.05)
        assert report.pass_rate == 1.0
    assert analyze(rep).star_dim == 1


# -- simplicity: the support check and Norton's test against the full spin ----

def _loops(maps):
    return Representation(build_canonical("loop", len(maps)), {"1": maps[0].shape[0]},
                          {f"a{i + 1}": m for i, m in enumerate(maps)})


def _generic_loops(rng, d, loops):
    return _loops([random_complex(rng, (d, d)) for _ in range(loops)])


def _basis_change(rng, d, log_cond):
    """A random change of basis of condition number 10**log_cond."""
    return _unitary(rng, d) @ np.diag(np.logspace(0, log_cond, d)) @ _unitary(rng, d)


def _hidden_block_triangular_pair(rng, d, k, log_cond):
    """A generic pair fixing the span of the first k coordinates, under a
    change of basis of condition number 10**log_cond: not simple."""
    pair = [random_complex(rng, (d, d)) for _ in range(2)]
    for m in pair:
        m[k:, :k] = 0
    change = _basis_change(rng, d, log_cond)
    return _loops([change @ m @ np.linalg.inv(change) for m in pair])


def _cyclic(rng, dims):
    """1 -> 2 -> 3 -> 1 with every map nonzero."""
    q = Quiver(("1", "2", "3"), (Arrow("a", "1", "2"), Arrow("b", "2", "3"), Arrow("c", "3", "1")))
    dims = dict(zip(q.vertices, dims))
    return Representation(q, dims, {a.name: random_complex(rng, (dims[a.dst], dims[a.src]))
                                    for a in q.arrows})


def _or_failure(compute):
    try:
        return compute()
    except NumericalFailure:
        return "NumericalFailure"


def _assert_simplicity_matches_the_full_spin(rep):
    """The record's verdict is the full spin's on every seed, or both raise,
    and every witness is a proper nonzero subrepresentation."""
    d = rep.total_dim
    expected = _or_failure(lambda: generated_algebra(rep).dimension == d * d)
    records = [_or_failure(lambda: analyze(rep, seed=seed).simplicity) for seed in range(4)]
    for record in records:
        if isinstance(record, str):
            assert record == expected
            continue
        assert record.simple == expected
        if record.witness is not None:
            assert 0 < restrict(rep, record.witness).total_dim < d
    return records


simple_inputs = st.one_of(
    st.tuples(st.just("loops"), st.integers(1, 7), st.integers(2, 3)),
    st.tuples(st.just("cyclic"), st.tuples(*[st.integers(1, 3)] * 3), st.just(0)),
)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(case=simple_inputs, seed=st.integers(0, 2**32 - 1))
def test_norton_matches_the_full_spin_on_generic_reps(case, seed):
    kind, size, loops = case
    rng = np.random.default_rng(seed)
    rep = _generic_loops(rng, size, loops) if kind == "loops" else _cyclic(rng, size)
    records = _assert_simplicity_matches_the_full_spin(rep)
    # generic loops generate M_d; around the cycle, an eigenvector of the
    # composite map spans a subrepresentation of dimension (1, 1, 1).  Norton
    # decides both without the full spin.
    simple = kind == "loops" or size == (1, 1, 1)
    assert all(r.simple == simple and r.path == "norton" for r in records)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(d=st.integers(2, 12), data=st.data(), log_cond=st.floats(0.0, 4.0),
       seed=st.integers(0, 2**32 - 1))
def test_norton_matches_the_full_spin_on_hidden_block_triangular_pairs(d, data, log_cond,
                                                                      seed):
    k = data.draw(st.integers(1, d - 1))
    rep = _hidden_block_triangular_pair(np.random.default_rng(seed), d, k, log_cond)
    _assert_simplicity_matches_the_full_spin(rep)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(d=st.integers(2, 12), data=st.data(), log_cond=st.floats(2.0, 3.0),
       seed=st.integers(0, 2**32 - 1))
def test_every_spin_reads_hidden_block_triangular_pairs_at_restricts_bound(d, data, log_cond,
                                                                          seed):
    # every spin resolves at restrict's bound, which a basis change of
    # condition 1e2-1e3 leaves the invariant subspace above
    k = data.draw(st.integers(1, d - 1))
    rep = _hidden_block_triangular_pair(np.random.default_rng(seed), d, k, log_cond)
    assert generated_algebra(rep).dimension == d * d - k * (d - k)
    for s in range(4):
        record = analyze(rep, seed=s).simplicity
        assert not record.simple
        assert record.witness is not None
        assert 0 < restrict(rep, record.witness).total_dim < d


def test_norton_redraws_when_restrict_rejects_a_proper_spin():
    # the proper spins of the first two draws fail restrict and the third
    # draw's adjoint spin passes, so Norton decides without the full spin
    rep = _hidden_block_triangular_pair(np.random.default_rng(3), 10, 5, 3.0)
    record = analyze(rep, seed=0).simplicity
    assert (record.simple, record.path, record.algebra_dim) == (False, "norton", 75)
    assert 0 < restrict(rep, record.witness).total_dim < 10


@settings(derandomize=True, deadline=None, max_examples=40)
@given(parts=st.lists(small_families, min_size=1, max_size=2), seed=st.integers(0, 2**32 - 1))
def test_support_check_matches_the_full_spin_on_kronecker_families(parts, seed):
    rep = _sum([build_family(f) for f in parts])
    rng = np.random.default_rng(seed)
    rep = _changed(rep, {v: random_complex(rng, (k, k)) + 2.0 * np.eye(k)
                         for v, k in rep.dims.items()})
    records = _assert_simplicity_matches_the_full_spin(rep)
    # with both vertices nonzero the sink's space is a subrepresentation;
    # wide(0) and tall(0) live on one vertex, which Norton decides
    live = sum(1 for k in rep.dims.values() if k)
    assert all(r.path == ("support" if live == 2 else "norton") for r in records)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**32 - 1))
def test_a_support_witness_is_a_subrepresentation_the_full_spin_cannot_overturn(seed):
    # zero arrows of a random rep until a support witness appears; with every
    # arrow zero each vertex is a summand, so one always does
    rng = np.random.default_rng(seed)
    rep = random_rep(rng, random_quiver(rng), min_dim=1)
    for k in rng.permutation(len(rep.quiver.arrows)):
        if _support_witness(rep) is not None:
            break
        arrow = rep.quiver.arrows[k]
        rep = Representation(rep.quiver, rep.dims,
                             dict(rep.maps, **{arrow.name: 0 * rep.maps[arrow.name]}))
    witness = _support_witness(rep)
    d = rep.total_dim
    assert 0 < restrict(rep, witness).total_dim < d
    # the witness already makes the algebra proper, so spinning it decides nothing
    record = analyze(rep).simplicity
    assert (record.simple, record.path, record.gap) == (False, "support", np.inf)
    assert record.algebra_dim == generated_algebra(rep).dimension < d * d


# -- strong irreducibility: one-loop indecomposability under a basis change ---

def _conjugated_blocks(seed, blocks, log_cond):
    """The Jordan matrix with the given (eigenvalue, size) blocks under a
    change of basis of condition number 10**log_cond."""
    rng = np.random.default_rng(seed)
    n = sum(p for _, p in blocks)
    jordan = sla.block_diag(*[jordan_block(lam, p) for lam, p in blocks]).astype(complex)
    change = _basis_change(rng, n, log_cond)
    return change @ jordan @ np.linalg.inv(change)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(p=st.integers(1, 3), q=st.integers(1, 3), lam=st.complex_numbers(max_magnitude=2.0),
       log_cond=st.floats(2.0, 3.0), seed=st.integers(0, 2**32 - 1))
def test_close_jordan_pairs_under_a_basis_change_are_not_strongly_irreducible(p, q, lam,
                                                                               log_cond, seed):
    # eigenvalues 1e-5 apart: two blocks by construction, which End sees
    mat = _conjugated_blocks(seed, [(lam, p), (lam + 1e-5, q)], log_cond)
    assert is_strongly_irreducible(mat) is False


@settings(derandomize=True, deadline=None, max_examples=40)
@given(n=st.integers(2, 8), lam=st.complex_numbers(max_magnitude=2.0),
       log_cond=st.floats(0.0, 3.0), seed=st.integers(0, 2**32 - 1))
def test_single_jordan_blocks_under_a_basis_change_are_strongly_irreducible(n, lam, log_cond,
                                                                            seed):
    assert is_strongly_irreducible(_conjugated_blocks(seed, [(lam, n)], log_cond)) is True


# -- subspace systems: coordinate subspaces fix their entries of T -------------

# Jordan types of total size 2..7, and scalars, whose reduced systems lose
# their gap first under a basis change
bridge_jordan_types = st.one_of(
    st.lists(st.tuples(st.sampled_from([0.0, 1.0, -2.0, 1.5j]), st.integers(1, 4)),
             min_size=1, max_size=7).filter(lambda blocks: 2 <= sum(p for _, p in blocks) <= 7),
    st.integers(2, 7).map(lambda k: [(2.0, 1)] * k),
)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(blocks=bridge_jordan_types, kind=st.sampled_from(["4-system", "round trip", "rescaled"]),
       log_cond=st.integers(0, 9).map(lambda i: i / 2), seed=st.integers(0, 2**32 - 1))
def test_reduced_system_end_is_the_full_system_answer(blocks, kind, log_cond, seed):
    # the 4-system of a conjugated Jordan operator; rep_to_system of its
    # subspace-quiver representation, up to k = 5 (d = 30: the dense oracle's
    # SVD at d = 42 takes seconds); or its inclusions each times a change of
    # basis of the subspace, which may leave them no longer exactly
    # coordinate
    system = from_operator(_conjugated_blocks(seed, blocks, log_cond))
    if kind == "round trip" and system.ambient_dim <= 10:
        system = rep_to_system(system_to_rep(system, check=False), check=False)
    elif kind == "rescaled":
        rng = np.random.default_rng([seed, 1])
        system = make_system(system.ambient_dim,
                             [inc @ _basis_change(rng, inc.shape[1], log_cond)
                              for inc in system.inclusions])
    d = system.ambient_dim
    alg = system_end(system)
    basis = end(system_to_rep(system, check=False))
    assert (system_end_dimension(system) == alg.dimension == basis.dimension
            == dense_system_end_dim(system))
    for inc in system.inclusions:
        proj = inc @ inc.conj().T
        assert np.linalg.norm((np.eye(d) - proj) @ alg.basis @ proj, axis=(1, 2)).max(
            initial=0.0) < 1e-10


# -- End of loop pairs and pencils: the polynomials in one loop, cut down ------

def _entries(rng, d):
    """A d x d matrix: integer entries in [-2, 2] up to d = 4, where the
    exact oracle runs, Gaussian complex ones above."""
    return rng.integers(-2, 3, (d, d)).astype(complex) if d <= 4 else random_complex(rng, (d, d))


def _loop_pair(rng, kind, d):
    """A pair of d x d loops of one of five kinds: generic; (A, A^2 + 2A),
    whose End is poly(A); block triangular under a basis change of condition
    10^2; ex3's (S, S^*) with the first loop shifted by an integer; and
    (U + lam I, U^2 + c U) for the upper shift U = S^* and integers lam, c,
    whose End is poly(U), with a derogatory second loop when c = 0."""
    if kind == "generic":
        return _entries(rng, d), _entries(rng, d)
    if kind == "polynomial":
        a = _entries(rng, d)
        return a, a @ a + 2 * a
    if kind == "triangular":
        return tuple(_hidden_block_triangular_pair(rng, d, int(rng.integers(1, d)), 2.0)
                     .maps.values())
    s = shift(d)
    if kind == "upper shift":
        u = s.conj().T
        lam, c = rng.integers(-2, 3, 2)
        return u + lam * np.eye(d), u @ u + c * u
    return s + int(rng.integers(-2, 3)) * np.eye(d), s.conj().T


@settings(derandomize=True, deadline=None, max_examples=150)
@given(kind=st.sampled_from(["generic", "polynomial", "triangular", "shifted ex3",
                             "upper shift"]),
       d=st.integers(3, 11), pencil=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_krylov_end_of_loop_pairs_and_pencils_is_the_dense_answer(kind, d, pencil, seed):
    # as a pencil, (P, P A, P B) on the 3-arrow Kronecker quiver, whose End
    # is the commutant of A and B; P = I + N with N strictly upper
    # triangular and integer, so P A and P B stay exact
    rng = np.random.default_rng(seed)
    a, b = _loop_pair(rng, kind, d)
    if pencil:
        p = np.eye(d) + np.triu(rng.integers(-1, 2, (d, d)), 1)
        rep = kronecker_rep(p, p @ a, p @ b)
    else:
        rep = loop_rep(a, b)
    basis = end(rep)
    if basis.path == "krylov":
        assert basis.unknowns == d * d
        assert basis.dimension == _dense_hom(rep, rep).dimension
        assert basis.gap >= DEFAULT_TOL.elim_gap()
        assert_stacked(rep, rep, basis)
        if d <= 4 and kind != "triangular":
            assert basis.dimension == exact_end_dim(rep)


def test_krylov_end_declines_a_reduced_system_without_a_gap():
    # (A^2 + 2A, c A) with c large enough that A^2 + 2A is the smaller loop:
    # it is nonderogatory, but A is a badly conditioned polynomial in it, and
    # [P_k, A] = 0 on its Arnoldi basis P reads nullity 9 at a gap of about
    # 1e2.  End is poly(A), of dimension 10; the reduced system's gap guard
    # sends it to the dense system
    rng = np.random.default_rng(0)
    a = random_complex(rng, (10, 10))
    b = a @ a + 2 * a
    rep = loop_rep(b, 10 * np.linalg.norm(b) / np.linalg.norm(a) * a)
    basis = end(rep)
    assert (basis.path, basis.dimension) == ("dense", 10)
    # with A the smaller loop, its polynomials are End and nothing cuts them
    basis = end(loop_rep(a, b))
    assert (basis.path, basis.unknowns, basis.dimension) == ("krylov", 100, 10)


def test_krylov_cut_declines_what_rounding_decides():
    # three loops, polynomials in M = J_2(0.5) under a basis change of
    # condition 10^2.7: End is both polynomials in M.  The other loops'
    # commutators with the second one are 1.6e-12 of rounding, 6.3 times
    # the cut's cutoff, so the cut kept it and read End as 1 at an infinite
    # gap; that margin is under elim_gap, and End goes dense
    a, _ = _skewed_loops(2, 2, 2.7, False, 3824548412)
    basis = end(a)
    assert (basis.path, basis.dimension) == ("dense", 2)
    # three loops on a 7 x 7 M with eigenvalues 0 and -1, the last moved by
    # M / 2 in b, so Hom is the one q(M) with M q(M) = 0.  On the smallest
    # loop the kernel family has an element whose residual, 1.3e-5, exceeds
    # hom_tol, 1.7e-6; the cut read its rounding as a failed equation, and
    # Hom was 0 at a reported gap of 2.9e7.  The residual bound declines it
    a, b = _skewed_loops(7, 2, 2.7, True, 4257121442)
    basis = hom(a, b)
    assert (basis.path, basis.dimension) == ("dense", 1)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(n=st.integers(2, 5), parents=st.lists(st.tuples(st.integers(0, 3), st.booleans()),
                                             min_size=1, max_size=3),
       extra=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=3),
       seed=st.integers(0, 2**32 - 1))
def test_krylov_end_on_trees_of_invertible_arrows_is_the_dense_answer(n, parents, extra, seed):
    # a tree of invertible arrows in either direction, so the commutators
    # sit at vertices other than the root and End may re-root there; extra
    # arrows and loops anywhere on it
    rng = np.random.default_rng(seed)
    vertices = tuple(str(i + 1) for i in range(len(parents) + 1))
    arrows = []
    for i, (j, forward) in enumerate(parents, start=1):
        ends = (vertices[j % i], vertices[i])
        arrows.append(Arrow(f"t{i}", *(ends if forward else ends[::-1])))
    arrows += [Arrow(f"x{k}", vertices[a % len(vertices)], vertices[b % len(vertices)])
               for k, (a, b) in enumerate(extra)]
    maps = {arr.name: random_complex(rng, (n, n)) + (2.0 * np.eye(n) if arr.name[0] == "t" else 0)
            for arr in arrows}
    rep = Representation(Quiver(vertices, tuple(arrows)), {v: n for v in vertices}, maps)
    basis = end(rep)
    if basis.path == "krylov":
        assert basis.dimension == _dense_hom(rep, rep).dimension
        assert_stacked(rep, rep, basis)


# the star-closed core: its k sines against the 2k-row stack of End on its
# adjoints, on one End basis
STAR_CORE_QUIVERS = [("loop", 2), ("kronecker", 2), ("subspace", 3)]
STAR_CORE_MODELS = [
    ("perturbation", ["N=10"]), ("perturbation", ["N=18"]), ("hrr", ["N=4", "lam=1.1"]),
    ("hrr", ["N=6", "lam=1.5"]), ("hrr", ["N=4", "lam=2.0"]), ("ex8", ["N=8"]),
    ("ex8s", ["N=12"]), ("ex2", ["N=5"]), ("ex3", ["N=4"]), ("ex4", ["N=6"]), ("ex9", ["N=6"]),
    ("jordan_first", ["n=3"]), ("jordan_second", ["n=3"]), ("wide", ["n=3"]),
    ("tall", ["n=3"]), ("ex1", []), ("ex6", []), ("ex7", []),
]
star_core_inputs = st.one_of(
    st.tuples(st.sampled_from(["random", "sum"]), st.sampled_from(STAR_CORE_QUIVERS)),
    st.tuples(st.just("model"), st.sampled_from(STAR_CORE_MODELS)))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(case=star_core_inputs, turn=st.sampled_from([None, rotate, conjugate]),
       seed=st.integers(0, 2**32 - 1))
def test_star_core_from_its_sines_is_the_stacked_reading(case, turn, seed):
    kind, source = case
    rng = np.random.default_rng(seed)
    if kind == "model":
        rep = build_model(*source)[0]
    elif kind == "random":
        rep = random_rep(rng, build_canonical(*source), min_dim=1)
    else:
        rep = random_decomposable(rng, build_canonical(*source))
    if turn is not None:
        rep = turn(rep, rng)
    basis = end(rep)
    assert star_closed_end_dim(rep, basis=basis) == stacked_star_dim(basis)


def _zero_core_decomposable(seed, turn):
    rep = random_decomposable(np.random.default_rng(seed), build_canonical("kronecker", 2), 3)
    return turn(rep, np.random.default_rng(seed))


@pytest.mark.parametrize("build", [
    lambda: conjugate(perturbation_model(12), np.random.default_rng(0)),
    lambda: conjugate(perturbation_model(18), np.random.default_rng(0)),
    lambda: conjugate(perturbation_model(30), np.random.default_rng(0)),
    lambda: conjugate(hrr_model(6, 1.5), np.random.default_rng(0)),
    lambda: conjugate(hrr_model(6, 1.5), np.random.default_rng(1)),
    lambda: conjugate(hrr_model(7, 1.5), np.random.default_rng(0)),
    lambda: conjugate(hrr_model(7, 1.5), np.random.default_rng(1)),
    lambda: rotate(hrr_model(4, 2.0), np.random.default_rng(0)),
    lambda: conjugate(hrr_model(4, 2.0), np.random.default_rng(0)),
    lambda: _zero_core_decomposable(28, rotate),
    lambda: _zero_core_decomposable(72, conjugate),
    lambda: _zero_core_decomposable(263, conjugate),
], ids=["perturbation-12", "perturbation-18", "perturbation-30", "hrr-6-seed-0", "hrr-6-seed-1",
        "hrr-7-seed-0", "hrr-7-seed-1", "hrr-4-base-2-rotated", "hrr-4-base-2",
        "sum-28-rotated", "sum-72", "sum-263"])
def test_star_core_read_without_the_identity_stays_a_numerical_failure(build):
    # draws of the recipe above, conjugated or rotated, whose End basis reads
    # a star-closed core of 0 under either rule, although I = I* lies in it
    result = analyze(build())
    basis = result.end_basis
    assert star_closed_end_dim(result.rep, basis=basis) == stacked_star_dim(basis) == 0
    with pytest.raises(NumericalFailure, match="impossible reading"):
        result.verdicts()
