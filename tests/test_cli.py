import csv
import io
import json
import shlex
import sys
from pathlib import Path

import numpy as np
import pytest

import quiverrep.intertwiner
from quiverrep import (NumericalFailure, Representation, build_canonical, example_reps,
                       generated_algebra, is_canonically_simple, is_indecomposable,
                       is_irreducible, is_simple, is_transitive, jordan_block,
                       kronecker_rep)
from quiverrep.cli import _build_parser, build_model, main
from quiverrep.document import dumps, operator_to_json, rep_to_json


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


def test_analyze_records_seed_and_tolerances(capsys):
    code, out, _ = run_cli(capsys, "--seed", "7", "--tol-scale", "2.0",
                           "analyze", "--model", "ex3", "--param", "N=3")
    assert code == 0
    report = json.loads(out)
    assert report["seed"] == 7
    assert report["tolerances"]["global_scale"] == 2.0
    assert report["finite_truncation"] is True
    assert "note" in report


def test_analyze_perturbation_not_transitive_and_flagged(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--model", "perturbation",
                           "--param", "N=4")
    assert code == 0
    report = json.loads(out)
    assert report["verdicts"]["transitive"] is False
    assert report["finite_truncation"] is True
    assert report["evidence"]["dim_end"] == 4


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
    assert json.loads(out)["verdicts"] == {
        "indecomposable": is_indecomposable(rep).indecomposable,
        "transitive": is_transitive(rep),
        "simple": is_simple(rep).simple,
        "canonically_simple": is_canonically_simple(rep),
        "irreducible": is_irreducible(rep),
    }


@pytest.mark.filterwarnings("ignore:overflow encountered")
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
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert code == 3
    assert "overflow" in err
    assert out == ""


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
    monkeypatch.setattr(quiverrep.intertwiner, "MAX_UNKNOWNS", 4)
    path = build_doc(tmp_path, capsys, "ex3", "N=3")
    code, _, err = run_cli(capsys, "analyze", str(path))
    assert code == 4
    assert "size limit" in err


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
    # only the SVDs called from structure.py fail, so End is still computed
    real_svd = np.linalg.svd

    def svd_failing_in_structure(*args, **kwargs):
        if sys._getframe(1).f_globals.get("__name__") == "quiverrep.structure":
            raise np.linalg.LinAlgError("SVD did not converge")
        return real_svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", svd_failing_in_structure)
    with pytest.raises(NumericalFailure, match="SVD did not converge"):
        generated_algebra(example_reps("ex3", 3))
    path = build_doc(tmp_path, capsys, "ex3", "N=3")
    code, _, err = run_cli(capsys, "analyze", str(path))
    assert code == 3
    assert "SVD did not converge" in err
