import csv
import io
import json
import shlex
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import quiverrep.intertwiner
import quiverrep.numerics
import quiverrep.structure
import quiverrep.subspaces
from quiverrep import (Arrow, NumericalFailure, Quiver, Representation, analyze,
                       build_canonical, end, example_reps, from_operator, generated_algebra,
                       hrr_model, is_canonically_simple, is_strongly_irreducible, jordan_block,
                       kronecker_rep, loop_rep, system_to_rep)
from quiverrep.cli import _build_parser, build_model, main
from quiverrep.document import dumps, operator_to_json, rep_to_json
from quiverrep.numerics import random_complex

from helpers import rotate


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def build_doc(tmp_path, capsys, name, *params, fname=None):
    path = tmp_path / (fname or f"{name}.json")
    args = ["build", name]
    for p in params:
        args += ["--param", p]
    args += ["--out", str(path)]
    code, _, err = run_cli(capsys, *args)
    assert code == 0, err
    return path


# -- analyze -------------------------------------------------------------------

def test_analyze_example6_document(tmp_path, capsys):
    path = build_doc(tmp_path, capsys, "ex6")
    code, out, _ = run_cli(capsys, "analyze", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["verdicts"]["transitive"] is True
    assert report["verdicts"]["simple"] is False
    assert report["evidence"]["generated_algebra_dim"] == 3
    gap = report["evidence"]["generated_algebra_svd_gap"]
    assert gap == "inf" or gap > 1e6
    assert report["finite_truncation"] is False


def test_analyze_example7_builder_model(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--model", "ex7")
    assert code == 0
    report = json.loads(out)
    assert report["verdicts"]["transitive"] is True
    assert report["verdicts"]["simple"] is True
    assert report["evidence"]["generated_algebra_dim"] == 4


@pytest.mark.parametrize("model,params", [("ex3", ["N=4"]), ("ex7", []),
                                          ("perturbation", ["N=5"])])
def test_analyze_stage_timings(capsys, model, params):
    code, out, _ = run_cli(capsys, "analyze", "--model", model,
                           *(a for p in params for a in ("--param", p)))
    assert code == 0
    timings = json.loads(out)["timings"]
    stages = ("end_s", "radical_s", "algebra_s", "star_s")
    assert set(timings) == set(stages) | {"total_s"}
    assert all(timings[k] >= 0 for k in timings)
    # each key is rounded to 1e-6 s, so the disjoint stages may overshoot by that
    assert sum(timings[k] for k in stages) <= timings["total_s"] + 5 * 5e-7


def test_analyze_zero_dim_document_is_validation_error(tmp_path, capsys):
    doc = {"quiver": {"vertices": ["1"], "arrows": []}, "dims": {"1": 0}, "maps": {}}
    path = tmp_path / "zero.json"
    path.write_text(dumps(doc))
    code, _, err = run_cli(capsys, "analyze", str(path))
    assert code == 2
    assert "zero" in err


def test_analyze_parse_failure_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "analyze", str(path))
    assert code == 2
    assert "error" in err


def test_analyze_non_utf8_file_is_validation_error(tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{\x00}\x00")
    code, _, err = run_cli(capsys, "analyze", str(path))
    assert code == 2
    assert "not UTF-8" in err and str(path) in err


def test_analyze_unwritable_out_is_validation_error(tmp_path, capsys):
    out = tmp_path / "missing" / "x.json"
    code, _, err = run_cli(capsys, "analyze", "--model", "ex6", "--out", str(out))
    assert code == 2
    assert "cannot write" in err and str(out) in err


def test_analyze_refuses_a_document_file_with_a_model(tmp_path, capsys):
    path = build_doc(tmp_path, capsys, "ex7")
    for file in (str(path), str(tmp_path / "missing.json")):
        code, out, err = run_cli(capsys, "analyze", file, "--model", "ex6")
        assert code == 2 and out == ""
        assert "not both" in err


def test_analyze_refuses_param_without_a_model(tmp_path, capsys):
    path = build_doc(tmp_path, capsys, "ex6")
    code, out, err = run_cli(capsys, "analyze", str(path), "--param", "N=5")
    assert code == 2 and out == ""
    assert "needs --model" in err


@pytest.mark.parametrize("argv,hint", [
    (["analyze", "--model", "ex3", "--param", "N=3", "--param", "N=5"], False),
    (["build", "ex3", "--param", "N=3", "--param", "N=5"], False),
    (["sweep", "hrr", "--n-range", "2:3", "--param", "lam=1.05", "--param", "lam=1.1"], True),
])
def test_a_parameter_given_twice_is_validation_error(capsys, argv, hint):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "given more than once" in err
    assert ("comma-separated" in err) == hint


@pytest.mark.parametrize("scale", ["nan", "inf", "0", "-1", "1e-320", "1e-200", "1e200",
                                   "0.05", "0.01"])
def test_tol_scale_must_be_positive_and_finite(capsys, scale):
    code, out, err = run_cli(capsys, "--tol-scale", scale, "analyze", "--model", "ex6")
    assert code == 2
    assert out == ""
    assert "tolerance scale must be positive and finite" in err


@pytest.mark.parametrize("scale", ["1.0000001e8", "1e14", "1e20"])
def test_tol_scale_above_the_invertibility_bound_is_validation_error(capsys, scale):
    # above 1e8 the cutoff inv_rel * scale * sigma_max exceeds sigma_max, and
    # not even the identity is invertible; 1e14 once read dim_end 9 for ex3
    code, out, err = run_cli(capsys, "--tol-scale", scale, "analyze", "--model", "ex3",
                             "--param", "N=3")
    assert code == 2
    assert out == ""
    assert "tolerance scale must be positive and finite" in err
    assert "identity invertible" in err


@pytest.mark.parametrize("argv", [
    "--seed -1 analyze --model ex3 --param N=3",
    "--seed -1 sweep ex9 --n-range 2:2",
    "analyze --model hrr --param N=3 --param lam=nan",
    "sweep hrr --n-range 1:2 --param lam=1.1,nan",
])
def test_bad_seed_or_nan_weight_base_is_validation_error(capsys, argv):
    code, out, err = run_cli(capsys, *shlex.split(argv))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_analyze_records_seed_and_tolerances(capsys):
    code, out, _ = run_cli(capsys, "--seed", "7", "--tol-scale", "2.0",
                           "analyze", "--model", "ex3", "--param", "N=3")
    assert code == 0
    report = json.loads(out)
    assert report["seed"] == 7
    assert report["tolerances"]["global_scale"] == 2.0
    assert report["finite_truncation"] is True
    assert "note" in report


@pytest.mark.parametrize("scale, verdict", [("1", False), ("1e3", True)])
def test_tol_scale_reaches_the_zero_map_rule(tmp_path, capsys, scale, verdict):
    # zero_map is 1e-12 at scale 1, so a 1e-10 loop is a nonzero map there
    path = tmp_path / "tiny.json"
    rep = Representation(build_canonical("loop", 1), {"1": 1}, {"a1": [[1e-10]]})
    path.write_text(dumps(rep_to_json(rep)))
    code, out, err = run_cli(capsys, "--tol-scale", scale, "analyze", str(path))
    assert code == 0, err
    assert json.loads(out)["verdicts"]["canonically_simple"] is verdict


@pytest.mark.parametrize("scale", [1.0, 2.0])
def test_analyze_report_pins_tolerances(capsys, scale):
    code, out, _ = run_cli(capsys, "--tol-scale", str(scale),
                           "analyze", "--model", "ex3", "--param", "N=3")
    assert code == 0
    assert json.loads(out)["tolerances"] == {
        "svd_factor": 10.0, "hom_rel": 1e-8, "inv_rel": 1e-8, "range_rel": 1e-9,
        "cluster_rel": 1e-6, "idem_rel": 1e-6, "weight_floor": 1e-8, "elim_gap": 1e6,
        "zero_map": 1e-12, "global_scale": scale}


def test_analyze_perturbation_not_transitive_and_flagged(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--model", "perturbation",
                           "--param", "N=4")
    assert code == 0
    report = json.loads(out)
    assert report["verdicts"]["transitive"] is False
    assert report["finite_truncation"] is True
    assert report["evidence"]["dim_end"] == 4


@pytest.mark.parametrize("model,params,path,unknowns", [
    ("ex8", ["N=4", "lam=0.5"], "krylov", 16), ("perturbation", ["N=5"], "krylov", 25),
    ("ex9", ["N=4"], "dense", 32), ("ex3", ["N=4"], "krylov", 16),
    # tall(3): the isometry [I; 0] fixes 3 of the 16 entries at its sink;
    # ex1: the line e_1 fixes 1 of the plane's 4
    ("tall", ["n=3"], "forest", 13), ("ex1", [], "forest", 3),
])
def test_analyze_reports_the_end_path(capsys, model, params, path, unknowns):
    args = [x for p in params for x in ("--param", p)]
    code, out, _ = run_cli(capsys, "analyze", "--model", model, *args)
    assert code == 0
    evidence = json.loads(out)["evidence"]
    assert (evidence["end_path"], evidence["end_unknowns"]) == (path, unknowns)


def test_large_loop_inputs_keep_the_krylov_end(capsys, monkeypatch):
    # a silent fall back to the dense 2d^2 x d^2 system (about 2.4 s for
    # ex3 at d = 40) fails here rather than only in the benchmark
    code, out, _ = run_cli(capsys, "analyze", "--model", "ex3", "--param", "N=40")
    assert code == 0
    evidence = json.loads(out)["evidence"]
    assert (evidence["end_path"], evidence["end_unknowns"], evidence["dim_end"]) == \
        ("krylov", 1600, 1)
    # a single Jordan block of size 30 under a basis change of condition 10
    rng = np.random.default_rng(0)
    change = (np.linalg.qr(random_complex(rng, (30, 30)))[0] @ np.diag(np.logspace(0, 1, 30))
              @ np.linalg.qr(random_complex(rng, (30, 30)))[0])
    matrix = change @ jordan_block(0.5, 30) @ np.linalg.inv(change)
    paths = []
    original = quiverrep.structure.end

    def recorded(*args, **kwargs):
        basis = original(*args, **kwargs)
        paths.append(basis.path)
        return basis

    monkeypatch.setattr(quiverrep.structure, "end", recorded)
    assert is_strongly_irreducible(matrix) is True
    assert paths == ["krylov"]
    # the upper shift's powers are orthogonal, so no Arnoldi step on them is
    # shorter than 1/sqrt(2)
    for rep in (loop_rep(jordan_block(0.0, 32).T), example_reps("ex8*", 32)):
        basis = end(rep)
        assert (basis.path, basis.dimension) == ("krylov", 32)


@pytest.mark.parametrize("model,params,path,simple", [
    ("ex3", ["N=4"], "norton", True), ("ex7", [], "norton", True),
    ("jordan_first", ["n=3"], "support", False),
])
def test_analyze_reports_the_simple_path(capsys, model, params, path, simple):
    args = [x for p in params for x in ("--param", p)]
    code, out, _ = run_cli(capsys, "analyze", "--model", model, *args)
    assert code == 0
    report = json.loads(out)
    assert report["evidence"]["simple_path"] == path
    assert report["verdicts"]["simple"] is simple


def test_parser_is_built_once_and_param_lists_stay_apart(capsys):
    assert _build_parser() is _build_parser()
    _, first, _ = run_cli(capsys, "analyze", "--model", "ex3", "--param", "N=3")
    _, second, _ = run_cli(capsys, "analyze", "--model", "ex8", "--param", "N=2",
                           "--param", "lam=0.5")
    _, third, _ = run_cli(capsys, "analyze", "--model", "ex3", "--param", "N=4")
    reports = [json.loads(out) for out in (first, second, third)]
    assert [r["input"]["params"] for r in reports] == [{"N": 3}, {"lam": 0.5, "N": 2},
                                                        {"N": 4}]
    assert [r["evidence"]["total_dim"] for r in reports] == [3, 4, 4]
    assert _build_parser().parse_args(["analyze"]).param == []


@pytest.mark.parametrize("model,params", [
    ("ex1", []), ("ex3", ["N=4"]), ("ex6", []), ("ex7", []), ("ex9", ["N=4"]),
    ("perturbation", ["N=4"]), ("jordan_first", ["n=3"]), ("wide", ["n=2"])])
def test_analyze_verdicts_match_library(capsys, model, params):
    argv = ["analyze", "--model", model]
    for p in params:
        argv += ["--param", p]
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    rep, _ = build_model(model, params)
    result = analyze(rep)
    assert json.loads(out)["verdicts"] == {
        "indecomposable": result.indecomposable,
        "transitive": result.transitive,
        "simple": result.simple,
        "canonically_simple": is_canonically_simple(rep),
        "irreducible": result.irreducible,
    }


def test_analyze_shift_pair_is_indecomposable(capsys):
    # (I, S*) at N = 3: End is C[S*], a local algebra with a radical of dimension 2
    code, out, err = run_cli(capsys, "analyze", "--model", "ex8s",
                             "--param", "N=3", "--param", "lam=0")
    assert code == 0, err
    report = json.loads(out)
    assert report["evidence"]["dim_radical"] == 2
    assert report["evidence"]["semisimple_quotient_dim"] == 1
    assert report["verdicts"]["indecomposable"] is True


@pytest.mark.parametrize("rep", [
    # the loop system kron(I, A^T) - kron(A, I) overflows to +-inf
    Representation(build_canonical("loop", 1), {"1": 2},
                   {"a1": np.array([[1e308, 1e308], [0.0, -1e308]])}),
    # finite system, but its largest singular value overflows
    kronecker_rep(np.array([[1.7e308, 1e308], [0.0, -1.7e308]]), np.eye(2)),
], ids=["loop", "kronecker"])
def test_analyze_overflow_is_numerical_failure(tmp_path, capsys, rep):
    path = tmp_path / "huge.json"
    path.write_text(dumps(rep_to_json(rep)))
    with warnings.catch_warnings():
        # the overflow is reported once, as the error, not also as a numpy warning
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(capsys, "analyze", str(path))
    assert code == 3
    assert "overflow" in err
    assert out == ""


def test_analyze_impossible_end_reading_exits_3(tmp_path, capsys):
    # the rotated hrr_model reads a star-closed core of 0 (see test_structure)
    path = tmp_path / "hrr.json"
    path.write_text(dumps(rep_to_json(rotate(hrr_model(6, 1.5), np.random.default_rng(0)))))
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert code == 3
    assert "impossible reading" in err
    assert out == ""


def test_out_of_memory_is_a_size_limit(tmp_path, capsys, monkeypatch):
    # as numpy raises it for the forest's identities at a vertex of dimension 1e5
    def exhausted(*args):
        raise MemoryError("Unable to allocate 74.5 GiB")

    monkeypatch.setattr(quiverrep.intertwiner, "_settled", exhausted)
    path = tmp_path / "wide.json"
    path.write_text(dumps(rep_to_json(Representation(
        build_canonical("subspace", 1), {"1": 1, "2": 3}, {"a1": np.zeros((3, 1))}))))
    for argv in (["analyze", str(path)], ["hom", str(path), str(path)]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 4
        assert err == "size limit: Unable to allocate 74.5 GiB\n"
        assert out == ""


def test_size_limit_is_checked_before_the_forest_is_composed(tmp_path, capsys, monkeypatch):
    # a no-arrow document of dimension 1 + 600: its dense system has 360 001
    # unknowns, refused before any per-vertex identity or mask is built
    def composed(*args):
        raise AssertionError("the forest was composed")

    def built(*args):
        raise AssertionError("the subspace system was built")

    monkeypatch.setattr(quiverrep.intertwiner, "_settled", composed)
    monkeypatch.setattr(quiverrep.subspaces, "make_system", built)
    path = tmp_path / "wide.json"
    path.write_text(dumps({"quiver": {"vertices": ["1", "2"], "arrows": []},
                           "dims": {"1": 1, "2": 600}, "maps": {}}))
    for argv in (["analyze", str(path)], ["hom", str(path), str(path)]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 4
        assert err == "size limit: dense intertwiner system has 360001 unknowns > limit 250000\n"
        assert out == ""
    # its one-vertex version: d^2 = 360 000, before the d x d identity
    path.write_text(dumps({"quiver": {"vertices": ["1"], "arrows": []},
                           "dims": {"1": 600}, "maps": {}}))
    code, out, err = run_cli(capsys, "convert", "--rep-to-system", str(path))
    assert code == 4
    assert err == "size limit: subspace system has 360000 unknowns > limit 250000\n"


# -- hom / iso -------------------------------------------------------------------

def test_hom_between_shifted_models(tmp_path, capsys):
    a = build_doc(tmp_path, capsys, "ex8", "lam=0", "N=3", fname="a.json")
    b = build_doc(tmp_path, capsys, "ex8", "lam=1", "N=3", fname="b.json")
    code, out, _ = run_cli(capsys, "hom", str(a), str(b))
    assert code == 0
    assert json.loads(out)["dim"] == 0
    code, out, _ = run_cli(capsys, "hom", str(a), str(a), "--basis")
    payload = json.loads(out)
    assert payload["dim"] == 3
    assert len(payload["basis"]) == 3


def test_hom_reports_its_path_and_unknowns(tmp_path, capsys):
    # shifted shifts at distinct lam: C_a = lam I + S is nonderogatory, and
    # Hom is read from its Arnoldi run in the root's 4 x 4 unknowns
    a = build_doc(tmp_path, capsys, "ex8", "lam=0", "N=4", fname="a.json")
    b = build_doc(tmp_path, capsys, "ex8", "lam=2.5", "N=4", fname="b.json")
    code, out, err = run_cli(capsys, "hom", str(a), str(b))
    assert code == 0, err
    payload = json.loads(out)
    assert (payload["dim"], payload["path"], payload["unknowns"]) == (0, "krylov", 16)
    # C_a = I is derogatory: the forest answers
    scalar = tmp_path / "scalar.json"
    scalar.write_text(dumps(rep_to_json(kronecker_rep(np.eye(2), np.eye(2)))))
    code, out, err = run_cli(capsys, "hom", str(scalar), str(scalar))
    assert code == 0, err
    payload = json.loads(out)
    assert (payload["dim"], payload["path"], payload["unknowns"]) == (4, "forest", 4)


def test_iso_identical_files(tmp_path, capsys):
    a = build_doc(tmp_path, capsys, "ex9", "N=4")
    code, out, _ = run_cli(capsys, "iso", str(a), str(a))
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "yes"
    assert "witness" in payload


def test_iso_between_jordan_families(tmp_path, capsys):
    a = build_doc(tmp_path, capsys, "jordan_first", "lam=0", "n=2", fname="jf.json")
    b = build_doc(tmp_path, capsys, "jordan_second", "lam=0", "n=2", fname="js.json")
    code, out, _ = run_cli(capsys, "iso", str(a), str(b))
    assert code == 0
    payload = json.loads(out)
    # oracle: hom dims are 0 in both directions, so definitely not isomorphic
    assert payload["verdict"] == "no"
    assert payload["dim_hom"] == 0


def test_hom_quiver_mismatch_exit_code(tmp_path, capsys):
    a = build_doc(tmp_path, capsys, "ex2", "N=2", fname="l1.json")
    b = build_doc(tmp_path, capsys, "ex3", "N=2", fname="l2.json")
    code, _, err = run_cli(capsys, "hom", str(a), str(b))
    assert code == 2


# -- build ----------------------------------------------------------------------

def test_build_perturbation_first_row(tmp_path, capsys):
    path = build_doc(tmp_path, capsys, "perturbation", "N=4")
    doc = json.loads(path.read_text())
    first_row = [entry[0] for entry in doc["maps"]["a2"][0]]
    assert np.allclose(first_row, [1.0, 0.5, 1 / 3, 0.25])
    assert doc["meta"]["finite_truncation"] is True


def test_build_wide_zero(tmp_path, capsys):
    path = build_doc(tmp_path, capsys, "wide", "n=0")
    doc = json.loads(path.read_text())
    assert doc["dims"] == {"1": 1, "2": 0}


def test_build_deterministic(tmp_path, capsys):
    p1 = build_doc(tmp_path, capsys, "ex3", "N=3", fname="one.json")
    p2 = build_doc(tmp_path, capsys, "ex3", "N=3", fname="two.json")
    assert p1.read_text() == p2.read_text()


def test_build_unknown_model_lists_available(capsys):
    code, _, err = run_cli(capsys, "build", "nonsense")
    assert code == 2
    assert "available models" in err
    assert "perturbation" in err


def test_build_stdout_and_stdin_roundtrip(tmp_path, capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "build", "ex6")
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    code, out2, _ = run_cli(capsys, "analyze", "-")
    assert code == 0
    assert json.loads(out2)["verdicts"]["transitive"] is True


# -- sweep ----------------------------------------------------------------------

def test_sweep_perturbation_dim_end_column(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code, _, err = run_cli(capsys, "sweep", "perturbation", "--n-range", "2:6",
                           "--out", str(out_path))
    assert code == 0, err
    rows = list(csv.DictReader(out_path.open()))
    assert [int(r["N"]) for r in rows] == [2, 3, 4, 5, 6]
    assert all(int(r["dim_end"]) == int(r["N"]) for r in rows)
    assert all(r["flags"] == "finite-truncation" for r in rows)
    assert all(r["error"] == "" for r in rows)


def test_sweep_hrr_grid_and_admissibility(tmp_path, capsys):
    code, out, err = run_cli(capsys, "sweep", "hrr", "--n-range", "3:5",
                             "--param", "lam=1.1,2.0")
    assert code == 0, err
    rows = list(csv.DictReader(io.StringIO(out)))
    # lam=2.0 admits only N <= 4: the N=5 row is absent, not an error row
    by_hash = {}
    for r in rows:
        by_hash.setdefault(r["params_hash"], []).append(int(r["N"]))
    lengths = sorted(len(v) for v in by_hash.values())
    assert lengths == [2, 3]
    for r in rows:
        assert int(r["dim_end"]) == 2 * int(r["N"]) + 1
        assert float(r["recursion_pass_rate"]) == 1.0
        assert r["error"] == ""
        # cross dims appear whenever the partner is admissible at this level
        if int(r["N"]) <= 4:
            assert int(r["dim_hom_cross"]) == 2 * int(r["N"]) + 1


def test_sweep_ex9_summand_dims(capsys):
    code, out, _ = run_cli(capsys, "sweep", "ex9", "--n-range", "4:4")
    assert code == 0
    row = next(csv.DictReader(io.StringIO(out)))
    leaves = sorted(tuple(int(x) for x in leaf.split(","))
                    for leaf in row["summand_dims"].split("|"))
    assert leaves == [(2, 2), (2, 2)]


@pytest.mark.parametrize("seed", ["0", "1"])
def test_sweep_ex9_summand_dims_are_sorted(capsys, seed):
    # odd N splits into leaves of dims (k + 1, k) and (k, k + 1), listed in
    # one order whichever side a random split puts first
    code, out, _ = run_cli(capsys, "--seed", seed, "sweep", "ex9", "--n-range", "3:7")
    assert code == 0
    rows = {int(r["N"]): r["summand_dims"] for r in csv.DictReader(io.StringIO(out))}
    assert rows[3] == "1,2|2,1" and rows[5] == "2,3|3,2" and rows[7] == "3,4|4,3"


def test_sweep_solves_end_once_per_row(capsys, monkeypatch):
    calls = []
    original = quiverrep.intertwiner.hom

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(quiverrep.intertwiner, "hom", counted)
    code, out, _ = run_cli(capsys, "sweep", "ex9", "--n-range", "4:5")
    assert code == 0
    assert len(list(csv.DictReader(io.StringIO(out)))) == 2
    assert len(calls) == 2


def test_sweep_deterministic_and_json_format(capsys):
    code1, out1, _ = run_cli(capsys, "sweep", "perturbation", "--n-range", "2:4")
    code2, out2, _ = run_cli(capsys, "sweep", "perturbation", "--n-range", "2:4")
    assert code1 == code2 == 0
    strip = lambda s: [line.rsplit(",", 2)[0] for line in s.splitlines()]  # drop wall_time
    assert strip(out1) == strip(out2)
    code3, out3, _ = run_cli(capsys, "sweep", "perturbation", "--n-range", "2:4",
                             "--format", "json")
    assert code3 == 0
    assert [r["dim_end"] for r in json.loads(out3)] == [2, 3, 4]


def test_sweep_jobs_ordering(capsys):
    code, out, _ = run_cli(capsys, "sweep", "ex8", "--n-range", "2:6",
                           "--param", "lam=0.0,1.0")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [int(r["N"]) for r in rows] == [2, 3, 4, 5, 6] * 2
    assert all(int(r["dim_hom_cross"]) == 0 for r in rows)


def test_sweep_builder_uses_tol_scale(capsys):
    # the builder and the sweep's admissibility filter see the same tolerances
    code, out, err = run_cli(capsys, "--tol-scale", "0.1", "sweep", "hrr",
                             "--n-range", "2:3", "--param", "lam=2.7")
    assert code == 0, err
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [int(r["N"]) for r in rows] == [2, 3]
    assert rows[1]["error"] == ""
    assert int(rows[1]["dim_end"]) == 7
    assert float(rows[1]["recursion_pass_rate"]) == 1.0


def test_sweep_bad_range(capsys):
    code, _, err = run_cli(capsys, "sweep", "perturbation", "--n-range", "x:y")
    assert code == 2


def test_analyze_perturbation_list_parameters(capsys):
    code, out, err = run_cli(capsys, "analyze", "--model", "perturbation", "--param", "N=3",
                             "--param", "lam=1,2,3", "--param", "w=1,1j,2")
    assert code == 0, err
    report = json.loads(out)
    assert report["evidence"]["dim_end"] == 3
    assert report["input"]["params"]["w"] == [1.0, [0.0, 1.0], 2.0]


def test_analyze_perturbation_list_length_is_validation_error(capsys):
    code, out, err = run_cli(capsys, "analyze", "--model", "perturbation", "--param", "N=3",
                             "--param", "lam=1,2")
    assert code == 2
    assert out == ""
    assert "must each have 3 entries" in err


def test_sweep_perturbation_list_parameter_is_one_cell(capsys):
    code, out, err = run_cli(capsys, "sweep", "perturbation", "--n-range", "3:3",
                             "--param", "lam=1,2,3")
    assert code == 0, err
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1
    assert int(rows[0]["dim_end"]) == 3
    assert float(rows[0]["recursion_pass_rate"]) == 1.0


# -- convert ---------------------------------------------------------------------

def test_convert_remove_loops_then_system(tmp_path, capsys):
    l1 = build_doc(tmp_path, capsys, "ex2", "N=2")
    out1 = tmp_path / "flat.json"
    code, _, err = run_cli(capsys, "convert", "--remove-loops", str(l1),
                           "--out", str(out1))
    assert code == 0, err
    check = json.loads((tmp_path / "flat.json.check.json").read_text())
    assert check["equal"] is True and check["dim_end_before"] == 2
    doc = json.loads(out1.read_text())
    assert doc["quiver"]["vertices"] == ["1", "1'"]
    code, out, err2 = run_cli(capsys, "convert", "--rep-to-system", str(out1))
    assert code == 0
    sidecar = json.loads(err2.strip().splitlines()[-1])
    assert sidecar["equal"] is True
    assert json.loads(out)["ambient_dim"] == 4


def test_convert_rep_with_loops_hints_remove_loops(tmp_path, capsys):
    l1 = build_doc(tmp_path, capsys, "ex2", "N=2")
    code, _, err = run_cli(capsys, "convert", "--rep-to-system", str(l1))
    assert code == 2
    assert "remove-loops" in err


def test_convert_operator_to_four_subspaces(tmp_path, capsys):
    path = tmp_path / "op.json"
    path.write_text(dumps(operator_to_json(jordan_block(0.0, 2))))
    code, out, err = run_cli(capsys, "convert", "--operator-to-4system", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["ambient_dim"] == 4
    assert len(doc["inclusions"]) == 4
    sidecar = json.loads(err.strip().splitlines()[-1])
    assert sidecar["dim_end_before"] == sidecar["dim_end_after"] == 2


def test_convert_unwritable_sidecar_is_validation_error(tmp_path, capsys):
    path = tmp_path / "op.json"
    path.write_text(dumps(operator_to_json(jordan_block(0.0, 2))))
    out = tmp_path / "sys.json"
    (tmp_path / "sys.json.check.json").mkdir()
    code, _, err = run_cli(capsys, "convert", "--operator-to-4system", str(path),
                           "--out", str(out))
    assert code == 2
    assert "cannot write" in err and "sys.json.check.json" in err


def test_convert_unwritable_sidecar_leaves_no_document(tmp_path, capsys):
    path = tmp_path / "op.json"
    path.write_text(dumps(operator_to_json(jordan_block(0.0, 2))))
    out = tmp_path / "sys.json"
    (tmp_path / "sys.json.check.json").mkdir()
    code, _, _ = run_cli(capsys, "convert", "--operator-to-4system", str(path),
                         "--out", str(out))
    assert code == 2
    assert not out.exists()


def _convert_inputs(tmp_path):
    """(mode, document path, ambient dimension d of the checked system, the
    entries of T its coordinate subspaces leave free): the two axes of
    C^3 (+) C^3 leave the 2 * 3^2 entries of the diagonal blocks, and the
    vertex blocks of total dimension 2 + 2 + 2 + 2 + 4 leave 4 * 2^2 + 4^2."""
    mat = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 0.0], [0.5, 0.0, 3.0]])
    op = tmp_path / "op.json"
    op.write_text(dumps(operator_to_json(mat)))
    rep = tmp_path / "rep.json"
    rep.write_text(dumps(rep_to_json(system_to_rep(from_operator(jordan_block(0.0, 2))))))
    return [("--operator-to-4system", op, 6, 18), ("--rep-to-system", rep, 12, 32)]


def test_convert_checks_a_system_by_singular_values_only(tmp_path, capsys, monkeypatch):
    # the system's End dimension is its free unknowns minus a rank: the
    # coordinate subspaces' entries leave the system, and no singular
    # vectors are computed at its width or at d^2
    calls = []
    svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        calls.append((a.shape[1], kwargs.get("compute_uv", True)))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    for mode, path, d, free in _convert_inputs(tmp_path):
        calls.clear()
        code, _, err = run_cli(capsys, "convert", mode, str(path))
        assert code == 0, err
        assert json.loads(err.strip().splitlines()[-1])["equal"] is True
        assert (free, False) in calls
        assert (d * d, False) not in calls
        assert (free, True) not in calls and (d * d, True) not in calls


def test_convert_size_limit_exit_code(tmp_path, capsys, monkeypatch):
    # the operator's End has 9 unknowns, its 4-system 36
    monkeypatch.setattr(quiverrep.numerics, "MAX_UNKNOWNS", 20)
    mode, path, *_ = _convert_inputs(tmp_path)[0]
    code, _, err = run_cli(capsys, "convert", mode, str(path))
    assert code == 4
    assert "subspace system has 36 unknowns > limit 20" in err


def test_convert_system_to_rep_roundtrip(tmp_path, capsys):
    path = tmp_path / "op.json"
    path.write_text(dumps(operator_to_json(jordan_block(0.0, 2))))
    sys_path = tmp_path / "sys.json"
    code, _, _ = run_cli(capsys, "convert", "--operator-to-4system", str(path),
                         "--out", str(sys_path))
    assert code == 0
    code, out, err = run_cli(capsys, "convert", "--system-to-rep", str(sys_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["dims"] == {"1": 2, "2": 2, "3": 2, "4": 2, "5": 4}


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_convert_conjugated_scalar_operator(tmp_path, capsys, k):
    # End of a conjugated lam*I is all of M_k, on both sides of the bridge
    s = np.random.default_rng(k).standard_normal((k, k)) + 2.0 * np.eye(k)
    path = tmp_path / "op.json"
    path.write_text(dumps(operator_to_json(s @ (2.0 * np.eye(k)) @ np.linalg.inv(s))))
    code, _, err = run_cli(capsys, "convert", "--operator-to-4system", str(path))
    assert code == 0, err
    sidecar = json.loads(err.strip().splitlines()[-1])
    assert sidecar == {"dim_end_before": k * k, "dim_end_after": k * k, "equal": True}


def test_convert_system_with_nan_entry_is_validation_error(tmp_path, capsys):
    path = tmp_path / "op.json"
    path.write_text(dumps(operator_to_json(jordan_block(0.0, 3))))
    sys_path = tmp_path / "sys.json"
    code, _, _ = run_cli(capsys, "convert", "--operator-to-4system", str(path),
                         "--out", str(sys_path))
    assert code == 0
    system = json.loads(sys_path.read_text())
    system["inclusions"][2][0][0] = [float("nan"), 0.0]
    sys_path.write_text(json.dumps(system))  # written as the JSON literal NaN
    code, _, err = run_cli(capsys, "convert", "--system-to-rep", str(sys_path))
    assert code == 2
    assert "inclusions[2], row 1, column 1" in err


def test_convert_system_overflow_is_numerical_failure(tmp_path, capsys):
    path = tmp_path / "sys.json"
    path.write_text(json.dumps({"ambient_dim": 2,
                                "inclusions": [[[[1.7e308, 0.0]], [[1.7e308, 0.0]]]]}))
    code, out, err = run_cli(capsys, "convert", "--system-to-rep", str(path))
    assert code == 3
    assert "overflow" in err
    assert out == ""


def test_convert_end_mismatch_is_numerical_failure(tmp_path, capsys, monkeypatch):
    import quiverrep.subspaces as subspaces
    inputs = _convert_inputs(tmp_path)
    monkeypatch.setattr(subspaces, "system_end_dimension", lambda system, tol: -1)
    for mode, path, *_ in inputs:
        out = tmp_path / "converted.json"
        code, _, err = run_cli(capsys, "convert", mode, str(path), "--out", str(out))
        assert code == 3
        assert "End dimension not preserved by conversion" in err
        assert not out.exists()


def test_analyze_boolean_entry_is_validation_error(tmp_path, capsys):
    path = build_doc(tmp_path, capsys, "ex3", "N=3")
    rep = json.loads(path.read_text())
    rep["maps"]["a1"][0][0] = [True, False]
    path.write_text(dumps(rep))
    code, _, err = run_cli(capsys, "analyze", str(path))
    assert code == 2
    assert "maps['a1'], row 1, column 1" in err


def test_convert_malformed_inclusion_row_is_validation_error(tmp_path, capsys):
    path = tmp_path / "sys.json"
    path.write_text(json.dumps({"ambient_dim": 1, "inclusions": [[1]]}))
    code, _, err = run_cli(capsys, "convert", "--system-to-rep", str(path))
    assert code == 2
    assert "inclusions[0]" in err


def test_convert_wrong_document_kind(tmp_path, capsys):
    l1 = build_doc(tmp_path, capsys, "ex6")
    code, _, err = run_cli(capsys, "convert", "--system-to-rep", str(l1))
    assert code == 2


# -- docs ------------------------------------------------------------------------

def test_readme_cli_examples_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```", 2)[1]
    lines = [line for line in block.splitlines() if line.startswith("quiverrep ")]
    assert lines
    parser = _build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {line}")


# -- exit codes ------------------------------------------------------------------

def test_size_limit_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(quiverrep.numerics, "MAX_UNKNOWNS", 4)
    path = build_doc(tmp_path, capsys, "ex3", "N=3")
    code, _, err = run_cli(capsys, "analyze", str(path))
    assert code == 4
    assert "size limit" in err


def test_generated_algebra_size_limit_exit_code(tmp_path, capsys, monkeypatch):
    # a 2-cycle with both vertex spaces C^2: no support witness, and End has
    # fewer unknowns than the 16 coordinates of an element of the algebra
    q = Quiver(("1", "2"), (Arrow("a", "1", "2"), Arrow("b", "2", "1")))
    rng = np.random.default_rng(0)
    rep = Representation(q, {"1": 2, "2": 2}, {name: random_complex(rng, (2, 2))
                                               for name in ("a", "b")})
    assert end(rep).unknowns <= 15
    path = tmp_path / "cycle.json"
    path.write_text(dumps(rep_to_json(rep)))
    monkeypatch.setattr(quiverrep.numerics, "MAX_UNKNOWNS", 15)
    monkeypatch.setattr(quiverrep.structure, "_norton", lambda *args: None)
    code, _, err = run_cli(capsys, "analyze", str(path))
    assert code == 4
    assert "size limit: generated algebra has 16 unknowns > limit 15" in err


def test_numerical_failure_exit_code(tmp_path, capsys, monkeypatch):
    import quiverrep.cli as cli_mod
    from quiverrep.errors import NumericalFailure

    def boom(*args, **kwargs):
        raise NumericalFailure("forced")

    monkeypatch.setattr(cli_mod, "analysis_report", boom)
    path = build_doc(tmp_path, capsys, "ex6")
    code, _, err = run_cli(capsys, "analyze", str(path))
    assert code == 3
    assert "numerical failure" in err


def test_generated_algebra_svd_failure_is_numerical_failure(tmp_path, capsys, monkeypatch):
    # only the SVDs of the spin fail, so End is still computed
    real_svd = np.linalg.svd

    def svd_failing_in_spin(*args, **kwargs):
        if sys._getframe(2).f_code.co_name == "_new_directions":
            raise np.linalg.LinAlgError("SVD did not converge")
        return real_svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", svd_failing_in_spin)
    with pytest.raises(NumericalFailure, match="SVD did not converge"):
        generated_algebra(example_reps("ex3", 3))
    path = build_doc(tmp_path, capsys, "ex3", "N=3")
    code, _, err = run_cli(capsys, "analyze", str(path))
    assert code == 3
    assert "SVD did not converge" in err
