import dataclasses
import json

import numpy as np
import pytest
import scipy.linalg as sla

import quiverrep.intertwiner
import quiverrep.numerics
import quiverrep.subspaces as subspaces
from quiverrep import (Arrow, NumericalFailure, Quiver, Representation, SizeLimitExceeded,
                       ValidationError, analyze, end, example_reps, from_operator,
                       is_strongly_irreducible, jordan_block, kronecker_rep,
                       make_system, remove_loops, rep_to_system, shift, diagonal,
                       system_end_dimension, system_to_rep)
from quiverrep.cli import main
from quiverrep.document import dumps, system_to_json
from quiverrep.intertwiner import _solve, _spanning_forest
from quiverrep.numerics import DEFAULT_TOL, random_complex

from helpers import (conjugated_jordan, example6, loop_rep, random_quiver, random_rep,
                     span_residual, system_end, two_subspace_rep)
from oracles import dense_system_end_dim, nilpotent_commutant_dim


def test_make_system_orthonormalizes():
    sys1 = make_system(2, [np.array([[2.0], [0.0]])])
    inc = sys1.inclusions[0]
    assert np.allclose(inc.conj().T @ inc, np.eye(1))


def test_make_system_rejects_rank_deficient():
    with pytest.raises(ValidationError):
        make_system(2, [np.array([[1.0, 1.0], [0.0, 0.0]])])


def test_make_system_overflow_is_numerical_failure():
    # the inclusion's singular value overflows: the error names the overflow,
    # not a rank deficiency
    with pytest.raises(NumericalFailure, match="overflow"):
        make_system(2, [np.array([[1.7e308], [1.7e308]])])


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
    assert span_residual(alg, np.eye(3)) <= 1e-8 * np.sqrt(3)


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


def test_from_operator_is_the_axes_graph_and_diagonal():
    mat = np.random.default_rng(0).standard_normal((3, 3))
    eye, zero = np.eye(3), np.zeros((3, 3))
    spans = [np.vstack(pair) for pair in ((eye, zero), (zero, eye), (eye, mat), (eye, eye))]
    for inc, span in zip(from_operator(mat).inclusions, spans, strict=True):
        q = np.linalg.qr(span)[0]
        assert np.allclose(inc @ inc.conj().T, q @ q.T)


def test_from_operator_rejects_non_finite_entries():
    with pytest.raises(ValidationError, match="non-finite entries"):
        from_operator(np.array([[1.0, np.inf], [0.0, 1.0]]))


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
        assert analyze(rep).indecomposable == is_strongly_irreducible(mat)


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
    # a zero-dimensional range: the graphs are the source coordinates
    src_only = Representation(rep.quiver, {"1": 2, "2": 0},
                              {"a1": np.zeros((0, 2)), "a2": np.zeros((0, 2))})
    sys0 = rep_to_system(src_only)
    assert (sys0.ambient_dim, sys0.subspace_dims()) == (2, (2, 0, 2, 2))
    assert system_end(sys0).dimension == end(src_only).dimension == 4


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


def test_remove_loops_primes_taken_identity_names_and_refuses_a_taken_twin():
    q = Quiver(("1", "2"), (Arrow("id_1", "1", "1"), Arrow("id_2", "2", "2"),
                            Arrow("b", "1", "2"), Arrow("id_1'", "2", "1")))
    rep = random_rep(np.random.default_rng(3), q, max_dim=2, min_dim=1)
    out = remove_loops(rep)
    assert out.quiver.vertices == ("1", "1'", "2", "2'")
    assert [(a.name, a.src, a.dst) for a in out.quiver.arrows] == [
        ("id_1", "1", "1'"), ("id_2", "2", "2'"), ("b", "1'", "2"), ("id_1'", "2'", "1"),
        ("id_1''", "1", "1'"), ("id_2'", "2", "2'")]
    assert out.dims == {"1": rep.dims["1"], "1'": rep.dims["1"],
                        "2": rep.dims["2"], "2'": rep.dims["2"]}
    for a in q.arrows:
        assert np.array_equal(out.maps[a.name], rep.maps[a.name])
    assert np.array_equal(out.maps["id_2'"], np.eye(rep.dims["2"]))
    taken = Quiver(("1", "2", "2'"), (Arrow("a1", "1", "1"), Arrow("a2", "2", "2")))
    with pytest.raises(ValidationError, match="vertex name \"2'\" already taken"):
        remove_loops(random_rep(np.random.default_rng(3), taken, max_dim=2, min_dim=1))


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
        embedded = sla.block_diag(*(t[v] for v in rep.quiver.vertices))
        assert span_residual(alg, embedded) <= 1e-8


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
    assert system_end_dimension(system) == alg.dimension
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


def _conjugated_scalar_system(seed):
    """The 4-system of 2I under a basis change of condition 10^3.5."""
    rng = np.random.default_rng(seed)
    unitary = [np.linalg.qr(random_complex(rng, (2, 2)))[0] for _ in range(2)]
    change = unitary[0] @ np.diag(np.logspace(0, 3.5, 2)) @ unitary[1]
    return from_operator(change @ (2.0 * np.eye(2)) @ np.linalg.inv(change))


def test_reduced_system_without_a_gap_falls_back_to_the_full_system():
    # the forest system of the subspace-quiver representation, on the 8 sink
    # entries the axes leave free, reads End of dimension 2 at a gap of about
    # 1e2; End falls back to the dense system, which reads 4, the commutant
    # of a scalar
    system = _conjugated_scalar_system(5)
    rep = system_to_rep(system, check=False)
    forest = _solve(rep, rep, DEFAULT_TOL, _spanning_forest(rep, rep, DEFAULT_TOL))
    assert (forest.dimension, forest.unknowns, forest.gap < DEFAULT_TOL.elim_gap()) == (2, 8, True)
    assert (end(rep).path, end(rep).dimension) == ("dense", 4)
    assert system_end_dimension(system) == system_end(system).dimension == 4
    assert dense_system_end_dim(system) == 4


def test_conjugated_scalar_system_keeps_its_end_across_the_bridge(tmp_path, capsys):
    # at rng 15 too the sink system reads 2 without a gap; every reading,
    # the bridge's check included, falls back to the representation's dense
    # system and agrees on 4, the commutant of a scalar
    system = _conjugated_scalar_system(15)
    rep = system_to_rep(system)
    assert (system_end_dimension(system) == system_end(system).dimension == end(rep).dimension
            == dense_system_end_dim(system) == 4)
    path = tmp_path / "sys.json"
    path.write_text(dumps(system_to_json(system)))
    assert main(["convert", "--system-to-rep", str(path)]) == 0
    sidecar = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert sidecar == {"dim_end_before": 4, "dim_end_after": 4, "equal": True}


def test_an_inclusion_with_one_entry_outside_its_rows_is_not_coordinate():
    system = from_operator(jordan_block(0.0, 3))
    axis = system.inclusions[0].copy()
    axis[3, 0] = 1e-300
    axis.flags.writeable = False
    touched = subspaces.SubspaceSystem(6, (axis,) + system.inclusions[1:])
    # only the second axis fixes its 9 entries of T at the sink
    assert end(system_to_rep(system, check=False)).unknowns == 18
    assert end(system_to_rep(touched, check=False)).unknowns == 27
    assert (system_end_dimension(touched) == system_end(touched).dimension
            == system_end_dimension(system) == 3)


def test_bridge_checks_raise_when_end_dimension_changes(monkeypatch):
    rep = example_reps("ex3", 3)
    loop_free = remove_loops(rep, check=False)
    system = from_operator(jordan_block(0.0, 2))
    # every End dimension a check reads becomes the total dimension (plus one
    # for a system), which every bridge changes
    real_end = subspaces.end
    monkeypatch.setattr(subspaces, "end", lambda rep, tol: dataclasses.replace(
        real_end(rep, tol), dimension=rep.total_dim))
    monkeypatch.setattr(subspaces, "system_end_dimension",
                        lambda system, tol: system.ambient_dim + 1)
    for bridge in (lambda: remove_loops(rep), lambda: rep_to_system(loop_free),
                   lambda: system_to_rep(system)):
        with pytest.raises(NumericalFailure, match="End dimension not preserved"):
            bridge()
    # check=False skips the check
    assert system_to_rep(system, check=False).dims["5"] == 4


def test_system_end_size_limit_is_checked_before_the_system_is_built(monkeypatch):
    system = from_operator(jordan_block(0.0, 3))  # d = 6, 36 unknowns
    monkeypatch.setattr(quiverrep.numerics, "MAX_UNKNOWNS", 36)
    assert system_end_dimension(system) == system_end(system).dimension == 3

    def no_blocks(*args, **kwargs):
        raise AssertionError("a system block was built")

    # _assemble builds every system: within the limit, the detector fires
    monkeypatch.setattr(quiverrep.intertwiner, "_assemble", no_blocks)
    monkeypatch.setattr(subspaces, "_assemble", no_blocks)
    for solve in (system_end, system_end_dimension):
        with pytest.raises(AssertionError, match="a system block was built"):
            solve(system)
    monkeypatch.setattr(quiverrep.numerics, "MAX_UNKNOWNS", 35)
    for solve in (system_end, system_end_dimension, lambda s: system_to_rep(s)):
        with pytest.raises(SizeLimitExceeded, match="36 unknowns > limit 35"):
            solve(system)
