"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with output visible:  pytest tests/test_acceptance.py -s
Every criterion is desk-scale and uses the tolerances stated with it; derived
expected values were computed by the independent oracles in oracles.py and
are frozen here as literals.
"""

import numpy as np
import pytest

from quiverrep import (KroneckerFamily, analyze, are_isomorphic, build_canonical,
                       build_family, canonically_simple,
                       decompose, diagonal, direct_sum, end,
                       end_recursion_check, example_reps, hom, hrr_model,
                       is_canonically_simple, is_strongly_irreducible, jordan_block,
                       kronecker_rep, remove_loops, rep_to_system, shift,
                       Representation)
from quiverrep.intertwiner import hom_scale
from quiverrep.operators import perturbation_model, perturbation_structure_residual
from quiverrep.structure import star_closed_end_dim

from helpers import (cross_model_hom, example6, example7, loop_rep, random_acyclic_quiver,
                     random_decomposable, random_quiver, random_rep, system_end,
                     two_subspace_rep)
from oracles import nilpotent_commutant_dim, single_jordan_block_criterion

MIN_GAP = 1e3


def report(n, message):
    print(f"\nACCEPTANCE {n} PASS: {message}")


def test_criterion_1_kronecker_classification():
    checked = 0
    for n in range(6):
        for kind in ("wide", "tall"):
            rep = build_family(KroneckerFamily(kind, n))
            if rep.total_dim == 0:
                continue
            basis = end(rep)
            assert basis.dimension == 1, (kind, n)
            assert basis.gap >= MIN_GAP
            assert analyze(rep).transitive
            checked += 1
    for lam in (0.0, 1.0, 2.5 - 1.0j):
        rep = build_family(KroneckerFamily("jordan_first", 1, lam))
        basis = end(rep)
        assert basis.dimension == 1 and basis.gap >= MIN_GAP
        checked += 1
    # oracle-confirmed at n <= 4 (tests/oracles.exact_end_dim): dim End = n
    for n in (2, 3, 4):
        for kind in ("jordan_first", "jordan_second"):
            rep = build_family(KroneckerFamily(kind, n, 0.8))
            basis = end(rep)
            assert basis.dimension == n, (kind, n)
            assert basis.gap >= MIN_GAP
            assert analyze(rep).indecomposable
            checked += 1
    report(1, f"{checked} classification-family checks, dim End exact, SVD gap >= 1e3")


def test_criterion_2_example_fixtures():
    ex6 = analyze(example6())
    assert ex6.transitive
    res6 = ex6.simplicity
    assert not res6.simple and res6.algebra_dim == 3
    ex7 = analyze(example7())
    assert ex7.transitive
    res7 = ex7.simplicity
    assert res7.simple and res7.algebra_dim == 4
    ex1 = two_subspace_rep(np.pi / 4)
    assert not analyze(ex1).indecomposable
    assert star_closed_end_dim(ex1) == 1  # irreducible
    assert end(ex1).dimension == 2
    report(2, "fixtures: transitive/simple verdicts and algebra dims 3, 4; "
              "two-subspace representation decomposable, irreducible, dim End 2")


def test_criterion_3_strong_irreducibility_correspondence():
    suite = []
    for n in (1, 2, 3, 4):
        for lam in (0.0, 1.5, 2.0 - 1.0j):
            suite.append((jordan_block(lam, n), True))
    suite += [
        (np.diag([1.0, 1.0]).astype(complex), False),
        (np.diag([1.0, 1.0, 2.0]).astype(complex), False),
        (np.diag([3.0, 3.0, 3.0]).astype(complex), False),
        (shift(4) @ diagonal([1.0, 2.0, 3.0, 0.0]), True),
        (shift(3) @ diagonal([0.5, 0.5, 0.0]), True),
        (shift(4) @ diagonal([1.0, 0.0, 3.0, 0.0]), False),
        (np.zeros((2, 2), dtype=complex), False),
    ]
    for matrix, expected in suite:
        direct = single_jordan_block_criterion(matrix)
        via_loop = is_strongly_irreducible(matrix)  # the library verdict, from End alone
        via_loop_rep = analyze(loop_rep(matrix)).indecomposable
        kron = kronecker_rep(matrix, np.eye(matrix.shape[0], dtype=complex))
        via_kron = analyze(kron).indecomposable
        assert direct == via_loop == via_loop_rep == via_kron == expected, matrix
    report(3, f"{len(suite)} operators: single-Jordan criterion, one-loop and "
              "(A, I) Kronecker indecomposability all agree")


def test_criterion_4_relative_primeness_at_truncation():
    grid = [-2.0, -1.0, 0.0, 1.0, 2.0]
    checked = 0
    for n in range(3, 9):
        for lam in grid:
            for mu in grid:
                dim = hom(example_reps("ex8", n, lam),
                          example_reps("ex8", n, mu)).dimension
                assert dim == (n if lam == mu else 0), (lam, mu, n)
                checked += 1
    # oracle run at N=3 (tests/oracles.exact_hom_dim) pinned these integers;
    # at every finite truncation Hom vanishes for ALL lam != mu, whereas the
    # infinite-dimensional statement needs |lam - mu| > 2: the discrepancy is
    # a boundary effect of the truncation, recorded in the README
    report(4, f"{checked} shifted-model hom dims: 0 off-diagonal, N on diagonal "
              "(finite-truncation analogue; |lam-mu|>2 not needed at finite N)")


def test_criterion_5_perturbation_model():
    for n in range(2, 9):
        rep = perturbation_model(n)
        basis = end(rep)
        assert basis.dimension == n, n
        tau = 1e-8 * hom_scale(rep, rep)
        residual = perturbation_structure_residual(n, basis)
        assert residual <= tau, (n, residual, tau)
    # dim End oracle-confirmed at N = 3, 4 by exact nullspace (oracles)
    report(5, "rank-one-perturbed model: dim End(N) = N for N = 2..8, structure "
              "projections vanish within 1e-8 x scale")


def test_criterion_6_bilateral_model():
    pinned_end = {4: 9, 6: 13}    # oracle: bilateral_free_parameter_count
    pinned_cross = {4: 9, 6: 13}  # oracle: same enumeration, cross weights
    for lam in (1.05, 1.1):
        for n in (4, 6):
            rep = hrr_model(n, lam)
            rpt = end_recursion_check(rep, lam)
            assert rpt.dim_end == pinned_end[n], (lam, n)
            assert rpt.all_passed and rpt.pass_rate == 1.0
            assert all(e.max_residual <= rpt.tolerance for e in rpt.elements)
    for n in (4, 6):
        cross = cross_model_hom(1.05, 1.1, n)
        assert cross.dimension == pinned_cross[n]
        assert cross.recursion_passed
    report(6, "bilateral-weight model: diagonal constancy and weight recursion "
              "within 1e-8 x scale; End dims {4: 9, 6: 13} and cross dims match "
              "pinned oracle values")


def _bridge_quiver(rng):
    from quiverrep import Arrow, Quiver
    nv = int(rng.integers(2, 4))
    vertices = tuple(str(i + 1) for i in range(nv))
    arrows = [Arrow("a1", "1", "1")]                     # guaranteed loop
    arrows.append(Arrow("a2", "1", str(nv)))             # multi-edge pair
    arrows.append(Arrow("a3", "1", str(nv)))
    for k in range(int(rng.integers(0, 3))):
        src = str(int(rng.integers(1, nv + 1)))
        dst = str(int(rng.integers(1, nv + 1)))
        arrows.append(Arrow(f"a{4 + k}", src, dst))
    return Quiver(vertices, tuple(arrows))


def test_criterion_7_subspace_bridges():
    rng = np.random.default_rng(2027)
    for _ in range(20):
        q = _bridge_quiver(rng)
        rep = random_rep(rng, q, max_dim=4)
        if rep.total_dim == 0:
            continue
        lhs = end(rep).dimension
        flat = remove_loops(rep, check=False)
        system = rep_to_system(flat, check=False)
        assert system_end(system).dimension == lhs
    from quiverrep import from_operator
    operator_suite = [
        (jordan_block(0.0, 2), 2),
        (jordan_block(1.0, 3), 3),
        (jordan_block(0.5 + 0.5j, 4), 4),
        (np.diag([1.0, 2.0, 3.0]).astype(complex), 3),
        (shift(4) @ diagonal([1.0, 2.0, 3.0, 0.0]), 4),
        (shift(3) @ diagonal([1.0, 0.0, 0.0]), nilpotent_commutant_dim([2, 1])),
    ]
    for matrix, commutant_dim in operator_suite:
        assert system_end(from_operator(matrix)).dimension == commutant_dim
    report(7, "20 random representations: End preserved through loop removal "
              "and the graph-subspace system; four-subspace End equals the "
              "commutant dimension on the operator suite")


def test_criterion_8_proposition_suites():
    rng = np.random.default_rng(88)
    simple_seen = 0
    # simple => transitive on 50 representations (planted simple ones included)
    pool = [example7(), example_reps("ex3", 3), example_reps("ex3", 4),
            canonically_simple(build_canonical("subspace", 2), "3"),
            canonically_simple(build_canonical("loop", 2), "1")]
    while len(pool) < 50:
        pool.append(random_rep(rng, random_quiver(rng), max_dim=2))
    for rep in pool:
        if rep.total_dim == 0:
            continue
        result = analyze(rep)
        if result.simple:
            simple_seen += 1
            assert result.transitive
    assert simple_seen >= 5

    # acyclic: simple <=> canonically simple on 50 representations
    equiv_checked = 0
    for i in range(50):
        q = random_acyclic_quiver(rng)
        rep = (canonically_simple(q, q.vertices[int(rng.integers(len(q.vertices)))])
               if i % 5 == 0 else random_rep(rng, q, max_dim=2))
        if rep.total_dim == 0:
            continue
        assert analyze(rep).simple == is_canonically_simple(rep)
        equiv_checked += 1

    # adjoint pairs: transitive <=> simple <=> one-dimensional *-commutant
    q2 = build_canonical("loop", 2)
    mats = [np.asarray(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
            for _ in range(16)]
    mats += [np.diag([1.0, 1.0, 2.0]).astype(complex),
             np.diag([2.0, 2.0, 2.0]).astype(complex),
             np.eye(3, dtype=complex),
             jordan_block(0.0, 3)]
    for t in mats:
        rep = Representation(q2, {"1": 3}, {"a1": t, "a2": t.conj().T})
        result = analyze(rep)
        transitive = result.transitive
        simple = result.simple
        star_one = star_closed_end_dim(rep) == 1
        assert transitive == simple == star_one, t
    report(8, f"propositions: simple=>transitive on 50 reps ({simple_seen} simple), "
              f"acyclic simple<=>canonically-simple on {equiv_checked}, adjoint-pair "
              f"equivalences on {len(mats)}; zero counterexamples")


def test_criterion_9_decomposition_round_trip():
    rng = np.random.default_rng(909)
    quivers = [build_canonical("kronecker", 2), build_canonical("loop", 1),
               build_canonical("subspace", 2)]
    count = 0
    for i in range(18):
        rep = random_decomposable(rng, quivers[i % len(quivers)], max_dim=2)
        if rep.total_dim == 0:
            continue
        leaves = decompose(rep, seed=i).leaf_reps()
        assert len(leaves) >= 2
        rebuilt = leaves[0]
        for leaf in leaves[1:]:
            rebuilt = direct_sum(rebuilt, leaf)
        assert are_isomorphic(rebuilt, rep, seed=i).verdict == "yes", i
        count += 1
    for n in (4, 6):
        rep = example_reps("ex9", n)
        leaves = decompose(rep).leaf_reps()
        assert sorted(tuple(l.dims.values()) for l in leaves) == [(n // 2, n // 2)] * 2
        rebuilt = leaves[0]
        for leaf in leaves[1:]:
            rebuilt = direct_sum(rebuilt, leaf)
        assert are_isomorphic(rebuilt, rep).verdict == "yes"
        count += 1
    assert count == 20
    report(9, f"{count} decomposable representations rebuilt from their leaves "
              "up to isomorphism, including the even shift/adjoint splittings")
