import numpy as np
import pytest

from quiverrep import (Arrow, Quiver, ValidationError, end, example_reps, from_operator,
                       is_indecomposable, is_strongly_irreducible, jordan_block,
                       kronecker_rep, make_system, remove_loops, rep_to_system,
                       shift, diagonal, system_end, system_to_rep)
from quiverrep.numerics import random_complex
from quiverrep.structure import embed_tuple

from helpers import (conjugated_jordan, example6, loop_rep, random_quiver, random_rep,
                     two_subspace_rep)
from oracles import dense_system_end_dim, nilpotent_commutant_dim


def test_make_system_orthonormalizes():
    sys1 = make_system(2, [np.array([[2.0], [0.0]])])
    inc = sys1.inclusions[0]
    assert np.allclose(inc.conj().T @ inc, np.eye(1))


def test_make_system_rejects_rank_deficient():
    with pytest.raises(ValidationError):
        make_system(2, [np.array([[1.0, 1.0], [0.0, 0.0]])])


def test_make_system_rejects_wrong_height():
    with pytest.raises(ValidationError):
        make_system(3, [np.eye(2)])


def test_system_end_whole_space_vacuous():
    sys1 = make_system(2, [np.eye(2)])
    assert system_end(sys1).dimension == 4


def test_system_end_contains_identity():
    sys1 = make_system(3, [np.eye(3)[:, :1], np.eye(3)[:, 1:]])
    alg = system_end(sys1)
    assert alg.dimension >= 1
    assert alg.contains_identity()


def test_system_end_reports_its_svd_gap():
    alg = system_end(from_operator(jordan_block(0.0, 3)))
    assert alg.dimension == 3
    assert np.isfinite(alg.gap) and alg.gap > 1e6


def test_system_end_example1_dimension_two():
    th = np.pi / 4
    sys1 = make_system(2, [np.array([[1.0], [0.0]]),
                           np.array([[np.cos(th)], [np.sin(th)]])])
    assert system_end(sys1).dimension == 2


def test_from_operator_zero_graph_collapses():
    sys1 = from_operator(np.zeros((2, 2)))
    e1, _, e3, _ = sys1.inclusions
    # graph of 0 equals the first coordinate axis
    assert np.allclose(e3 @ e3.conj().T, e1 @ e1.conj().T)


def test_from_operator_identity_graph_is_diagonal():
    sys1 = from_operator(np.eye(2))
    _, _, e3, e4 = sys1.inclusions
    assert np.allclose(e3 @ e3.conj().T, e4 @ e4.conj().T)


def test_from_operator_end_is_commutant():
    assert system_end(from_operator(jordan_block(0.0, 2))).dimension == 2
    for mat, expect in [
        (jordan_block(0.0, 2), 2),
        (jordan_block(1.5, 3), 3),
        (np.diag([1.0, 2.0, 3.0]).astype(complex), 3),
        (shift(4) @ diagonal([1.0, 2.0, 3.0, 0.0]), 4),
        (shift(3) @ diagonal([1.0, 0.0, 0.0]), nilpotent_commutant_dim([2, 1])),
    ]:
        assert system_end(from_operator(mat)).dimension == expect


def test_four_subspace_system_tracks_strong_irreducibility():
    for mat in (jordan_block(0.0, 3), np.diag([1.0, 2.0]).astype(complex)):
        rep = system_to_rep(from_operator(mat))
        assert is_indecomposable(rep).indecomposable == is_strongly_irreducible(mat)


def test_system_to_rep_example1():
    th = np.pi / 4
    sys1 = make_system(2, [np.array([[1.0], [0.0]]),
                           np.array([[np.cos(th)], [np.sin(th)]])])
    rep = system_to_rep(sys1)
    assert rep.dims == {"1": 1, "2": 1, "3": 2}
    assert end(rep).dimension == 2
    assert end(two_subspace_rep(th)).dimension == 2


def test_system_to_rep_trivial():
    sys1 = make_system(1, [np.eye(1)])
    rep = system_to_rep(sys1)
    assert rep.dims == {"1": 1, "2": 1}
    assert np.allclose(np.abs(rep.maps["a1"]), [[1.0]])
    assert end(rep).dimension == 1


def test_rep_to_system_kronecker():
    rep = kronecker_rep(np.eye(2, dtype=complex), jordan_block(0.0, 2))
    sys1 = rep_to_system(rep)
    assert sys1.ambient_dim == 4
    assert sys1.n_subspaces == 4  # 2 vertices + 2 graph subspaces
    assert system_end(sys1).dimension == end(rep).dimension


def test_rep_to_system_zero_maps_duplicate_coordinates():
    rep = kronecker_rep(np.zeros((2, 2)), np.zeros((2, 2)))
    sys1 = rep_to_system(rep)
    e1 = sys1.inclusions[0]
    graph = sys1.inclusions[2]
    assert np.allclose(graph @ graph.conj().T, e1 @ e1.conj().T)


def test_rep_to_system_rejects_loops():
    with pytest.raises(ValidationError, match="remove_loops"):
        rep_to_system(example6())


def test_remove_loops_one_loop_becomes_kronecker():
    a = jordan_block(0.0, 2)
    rep = loop_rep(a)
    out = remove_loops(rep)
    assert out.quiver.vertices == ("1", "1'")
    names = [(ar.name, ar.src, ar.dst) for ar in out.quiver.arrows]
    assert names == [("a1", "1", "1'"), ("id_1", "1", "1'")]
    assert np.allclose(out.maps["a1"], a)
    assert np.allclose(out.maps["id_1"], np.eye(2))
    assert end(out).dimension == end(rep).dimension == 2


def test_remove_loops_example6_transitive_three_kronecker():
    out = remove_loops(example6())
    assert len(out.quiver.arrows) == 3
    assert end(out).dimension == 1


def test_remove_loops_identity_on_loop_free():
    rep = kronecker_rep(np.eye(2, dtype=complex), np.zeros((2, 2)))
    assert remove_loops(rep) is rep


def test_remove_loops_re_sources_outgoing_arrows():
    from quiverrep import Arrow, Quiver
    q = Quiver(("1", "2"), (Arrow("a1", "1", "1"), Arrow("a2", "1", "2"),
                            Arrow("a3", "2", "1")))
    rng = np.random.default_rng(5)
    rep = random_rep(rng, q, max_dim=2, min_dim=1)
    out = remove_loops(rep)
    arrows = {a.name: (a.src, a.dst) for a in out.quiver.arrows}
    assert arrows["a1"] == ("1", "1'")
    assert arrows["a2"] == ("1'", "2")   # outgoing arrow re-sourced to the twin
    assert arrows["a3"] == ("2", "1")    # incoming arrow untouched
    assert end(out).dimension == end(rep).dimension


def test_end_dimension_preserved_through_full_bridge():
    rng = np.random.default_rng(99)
    for _ in range(6):
        q = random_quiver(rng)
        rep = random_rep(rng, q, max_dim=3)
        if rep.total_dim == 0:
            continue
        flat = remove_loops(rep)
        sys1 = rep_to_system(flat)
        assert system_end(sys1).dimension == end(rep).dimension


def test_transitive_lattice_correspondence():
    th = 0.9
    sys1 = make_system(2, [np.array([[1.0], [0.0]]),
                           np.array([[np.cos(th)], [np.sin(th)]])])
    rep = system_to_rep(sys1)
    assert (system_end(sys1).dimension == 1) == (end(rep).dimension == 1)
    # a transitive example: three generic lines in the plane
    sys2 = make_system(2, [np.array([[1.0], [0.0]]),
                           np.array([[0.0], [1.0]]),
                           np.array([[1.0], [1.0]]) / np.sqrt(2)])
    rep2 = system_to_rep(sys2)
    assert system_end(sys2).dimension == 1
    assert end(rep2).dimension == 1


def test_block_diagonal_embedding_lands_in_system_end():
    # the End algebra embeds into the system's endomorphism algebra
    rep = kronecker_rep(jordan_block(0.0, 2), np.eye(2, dtype=complex))
    sys1 = rep_to_system(rep)
    alg = system_end(sys1)
    for t in end(rep):
        embedded = embed_tuple(rep, t)
        assert alg.span_residual(embedded) <= 1e-8


def test_system_end_empty_ambient():
    sys0 = make_system(0, [])
    assert system_end(sys0).dimension == 0


# -- the compressed system_end against the projector formulation ---------------

JORDAN_TYPES = [
    [(0.0, 2)], [(1.0, 1), (1.0, 1)],
    [(0.0, 3)], [(2.0, 1), (2.0, 1), (2.0, 1)], [(0.0, 2), (1.0, 1)],
    [(1.0, 2), (1.0, 2)], [(0.0, 1), (1.0, 3)], [(1.5, 1)] * 4,
    [(0.0, 5)], [(2.0, 2), (2.0, 2), (2.0, 1)], [(1.0, 1)] * 5,
    [(0.0, 3), (0.0, 2), (1.0, 1)], [(2.0, 1)] * 6, [(1.0, 4), (2.0, 2)],
]


def assert_system_end_sound(system, expected=None):
    alg = system_end(system)
    assert alg.dimension == dense_system_end_dim(system)
    if expected is not None:
        assert alg.dimension == expected
    d = system.ambient_dim
    flat = np.array([t.reshape(-1) for t in alg.basis]).reshape(alg.dimension, d * d)
    assert np.allclose(flat @ flat.conj().T, np.eye(alg.dimension), atol=1e-10)
    for inc in system.inclusions:
        proj = inc @ inc.conj().T
        for t in alg.basis:
            assert np.linalg.norm((np.eye(d) - proj) @ t @ proj) < 1e-10


@pytest.mark.parametrize("blocks", JORDAN_TYPES,
                         ids=lambda b: "+".join(f"J{p}({lam:g})" for lam, p in b))
def test_system_end_matches_dense_on_operator_systems(blocks):
    rng = np.random.default_rng(sum(p for _, p in blocks))
    for _ in range(3):
        mat, commutant = conjugated_jordan(rng, blocks)
        assert_system_end_sound(from_operator(mat), commutant)


def test_system_end_matches_dense_on_subspace_quiver_reps():
    rng = np.random.default_rng(11)
    for blocks in ([(0.0, 2)], [(1.0, 1), (1.0, 1)], [(0.0, 2), (1.0, 1)]):
        mat, commutant = conjugated_jordan(rng, blocks)
        rep = system_to_rep(from_operator(mat))
        assert_system_end_sound(rep_to_system(rep), commutant)
    q = Quiver(("1", "2", "3", "4"),
               tuple(Arrow(f"a{i}", str(i), "4") for i in (1, 2, 3)))
    for _ in range(4):
        rep = random_rep(rng, q, max_dim=3)
        assert_system_end_sound(rep_to_system(rep), end(rep).dimension)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_system_end_matches_dense_on_ex3_without_loops(n):
    rep = remove_loops(example_reps("ex3", n))
    assert_system_end_sound(rep_to_system(rep), 1)


def test_system_end_zero_and_whole_subspaces():
    rng = np.random.default_rng(4)
    line = random_complex(rng, (3, 1))
    plane = random_complex(rng, (3, 2))
    zero = np.zeros((3, 0), dtype=complex)
    assert_system_end_sound(make_system(3, [zero]), 9)
    assert_system_end_sound(make_system(3, [zero, np.eye(3)]), 9)
    # a line inside a plane: the upper triangular algebra, 9 - 3
    inside = np.hstack([line, random_complex(rng, (3, 1))])
    assert_system_end_sound(make_system(3, [zero, line, inside, np.eye(3)]), 6)
    # a line and a plane in general position: C^3 = line (+) plane, 1 + 4
    assert_system_end_sound(make_system(3, [line, plane]), 5)


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_conjugated_scalar_operator_end_is_full(k):
    rng = np.random.default_rng(k)
    mat, commutant = conjugated_jordan(rng, [(2.0, 1)] * k)
    assert commutant == k * k
    assert end(loop_rep(mat)).dimension == k * k
    assert system_end(from_operator(mat)).dimension == k * k
