"""Command-line surface: analyze / hom / iso / build / sweep / convert.

Exit codes: 0 success, 2 validation failure, 3 numerical failure, 4 size
limit exceeded or memory exhausted.  All commands are deterministic given
the input, --seed and --tol-scale.  File arguments accept "-" for stdin.
Reports are JSON; ``sweep --format`` picks CSV (the default) or JSON rows.
The verdicts of ``analyze`` are those of :func:`quiverrep.structure.analyze`.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import os
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from . import document as doc
from .errors import NumericalFailure, SizeLimitExceeded, ValidationError
from .intertwiner import HomBasis, are_isomorphic, hom, hom_scale
from .kronecker import KroneckerFamily, build_family, loop_rep
from .numerics import DEFAULT_TOL, Tolerances
from .operators import (end_recursion_check, example_reps, hrr_max_truncation,
                        hrr_model, perturbation_model, perturbation_structure_residual)
from .quiver import build_canonical
from .rep import Representation
from .structure import analyze
from .subspaces import from_operator, preserved_end, remove_loops, rep_to_system, system_to_rep

SWEEP_COLUMNS = ("model", "N", "params_hash", "dim_end", "dim_hom_cross",
                 "recursion_pass_rate", "summand_dims", "flags", "wall_time_s", "error")


# ---------------------------------------------------------------------------
# model registry

@dataclass(frozen=True)
class ParamSpec:
    kind: str  # "int" | "float" | "complex" | "list"
    default: Any = None
    required: bool = False


@dataclass(frozen=True)
class ModelSpec:
    name: str
    params: dict[str, ParamSpec]
    build: Callable[[dict, Tolerances], Representation]
    sweep_cross: bool = False      # hom against another grid value of lam
    sweep_decompose: bool = False  # summand dimension column
    # largest admissible truncation level of a parameter cell; sweeps skip the rest
    max_level: Callable[[dict, Tolerances], int] | None = None
    # End structure-check pass rate, the recursion_pass_rate column
    recursion: Callable[[Representation, dict, HomBasis, Tolerances], float] | None = None

    @property
    def finite_truncation(self) -> bool:
        """Whether the model truncates an operator on infinite-dimensional
        space, that is, has a truncation level ``N``."""
        return "N" in self.params


def _ex1(params: dict, _: Tolerances) -> Representation:
    """Two subspaces of the plane at angle theta."""
    theta = params["theta"]
    q = build_canonical("two_inclusions")
    return Representation(
        q, {"1": 1, "2": 1, "3": 2},
        {"a1": np.array([[1.0], [0.0]], dtype=complex),
         "a2": np.array([[np.cos(theta)], [np.sin(theta)]], dtype=complex)})


def _ex6(*_) -> Representation:
    """Two-loop (E11, E12): transitive, not simple."""
    return loop_rep(np.array([[1, 0], [0, 0]]), np.array([[0, 1], [0, 0]]))


def _ex7(*_) -> Representation:
    """Two-loop (E11, all-ones): transitive and simple."""
    return loop_rep(np.array([[1, 0], [0, 0]]), np.ones((2, 2)))


def _perturbation_recursion(rep: Representation, params: dict, basis: HomBasis,
                            tol: Tolerances) -> float:
    tau = tol.hom_tol(hom_scale(rep, rep))
    return 1.0 if perturbation_structure_residual(params["N"], basis) <= tau else 0.0


MODELS: dict[str, ModelSpec] = {spec.name: spec for spec in (
    ModelSpec("jordan_first", {"lam": ParamSpec("complex", 0.0), "n": ParamSpec("int", required=True)},
              lambda p, _: build_family(KroneckerFamily("jordan_first", p["n"], p["lam"]))),
    ModelSpec("jordan_second", {"lam": ParamSpec("complex", 0.0), "n": ParamSpec("int", required=True)},
              lambda p, _: build_family(KroneckerFamily("jordan_second", p["n"], p["lam"]))),
    ModelSpec("wide", {"n": ParamSpec("int", required=True)},
              lambda p, _: build_family(KroneckerFamily("wide", p["n"]))),
    ModelSpec("tall", {"n": ParamSpec("int", required=True)},
              lambda p, _: build_family(KroneckerFamily("tall", p["n"]))),
    ModelSpec("perturbation",
              {"N": ParamSpec("int", required=True),
               "lam": ParamSpec("list"), "w": ParamSpec("list")},
              lambda p, _: perturbation_model(p["N"], p.get("lam"), p.get("w")),
              recursion=_perturbation_recursion),
    ModelSpec("hrr", {"N": ParamSpec("int", required=True),
                      "lam": ParamSpec("float", required=True)},
              lambda p, tol: hrr_model(p["N"], p["lam"], tol),
              sweep_cross=True,
              max_level=lambda p, tol: hrr_max_truncation(p["lam"], tol),
              recursion=lambda rep, p, basis, tol: end_recursion_check(
                  rep, p["lam"], tol, basis).pass_rate),
    ModelSpec("ex1", {"theta": ParamSpec("float", float(np.pi / 4))}, _ex1),
    ModelSpec("ex2", {"N": ParamSpec("int", required=True)},
              lambda p, _: example_reps("ex2", p["N"])),
    ModelSpec("ex3", {"N": ParamSpec("int", required=True)},
              lambda p, _: example_reps("ex3", p["N"])),
    ModelSpec("ex4", {"N": ParamSpec("int", required=True)},
              lambda p, _: example_reps("ex4", p["N"])),
    ModelSpec("ex6", {}, _ex6),
    ModelSpec("ex7", {}, _ex7),
    ModelSpec("ex8", {"lam": ParamSpec("complex", 0.0), "N": ParamSpec("int", required=True)},
              lambda p, _: example_reps("ex8", p["N"], p["lam"]), sweep_cross=True),
    ModelSpec("ex8s", {"lam": ParamSpec("complex", 0.0), "N": ParamSpec("int", required=True)},
              lambda p, _: example_reps("ex8*", p["N"], p["lam"]), sweep_cross=True),
    ModelSpec("ex9", {"N": ParamSpec("int", required=True)},
              lambda p, _: example_reps("ex9", p["N"]), sweep_decompose=True),
)}


def _parse_value(raw: str, kind: str) -> Any:
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "complex":
            return complex(raw)
        return [complex(x) if ("j" in x or "J" in x) else float(x)  # "list"
                for x in raw.split(",") if x != ""]
    except ValueError as exc:
        raise ValidationError(f"cannot parse {raw!r} as {kind}: {exc}") from None


def parse_params(model: ModelSpec, pairs: list[str], sweep: bool = False) -> dict:
    """Parse key=value parameter pairs, each key at most once.  With ``sweep``
    numeric scalars may be comma-separated lists (sweep grids) and ``N`` is
    not required, since it comes from ``--n-range``."""
    out: dict[str, Any] = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ValidationError(f"parameters are key=value, got {pair!r}")
        key, raw = pair.split("=", 1)
        if key not in model.params:
            raise ValidationError(
                f"model {model.name!r} has no parameter {key!r}; "
                f"expected {sorted(model.params)}"
            )
        if key in out:
            grid = "; give a sweep grid as one comma-separated value" if sweep else ""
            raise ValidationError(f"parameter {key!r} is given more than once{grid}")
        spec = model.params[key]
        if sweep and spec.kind in ("int", "float", "complex") and "," in raw:
            out[key] = [_parse_value(x, spec.kind) for x in raw.split(",") if x]
        else:
            out[key] = _parse_value(raw, spec.kind)
    for key, spec in model.params.items():
        if key in out or (sweep and key == "N"):
            continue
        if spec.required:
            raise ValidationError(f"model {model.name!r} requires parameter {key!r}")
        if spec.default is not None:
            out[key] = spec.default
    return out


def _model_spec(name: str) -> ModelSpec:
    if name not in MODELS:
        raise ValidationError(
            f"unknown model {name!r}; available models: {', '.join(sorted(MODELS))}"
        )
    return MODELS[name]


def build_model(name: str, pairs: list[str],
                tol: Tolerances = DEFAULT_TOL) -> tuple[Representation, dict]:
    spec = _model_spec(name)
    params = parse_params(spec, pairs)
    rep = spec.build(params, tol)
    meta = {
        "model": name,
        "params": _jsonable_params(params),
        "finite_truncation": spec.finite_truncation,
    }
    return rep, meta


def _jsonable_params(params: dict) -> dict:
    out = {}
    for k, v in params.items():
        if isinstance(v, complex):
            out[k] = v.real if v.imag == 0 else [v.real, v.imag]
        elif isinstance(v, (list, np.ndarray)):
            out[k] = [[c.real, c.imag] if isinstance(c, complex) and c.imag != 0
                      else float(np.real(c)) for c in v]
        else:
            out[k] = v
    return out


def params_hash(params: dict) -> str:
    blob = json.dumps(_jsonable_params(params), sort_keys=True)
    return hashlib.sha1(blob.encode()).hexdigest()[:10]


# ---------------------------------------------------------------------------
# analysis reports

def analysis_report(rep: Representation, tol: Tolerances, seed: int,
                    source: dict, finite_truncation: bool) -> dict:
    """The ``analyze`` report: the five verdicts of
    :func:`quiverrep.structure.analyze` and the numeric evidence behind them.

    The verdicts are checked against their implication chain before the
    report is returned.
    """
    t_start = time.perf_counter()
    result = analyze(rep, tol, seed)
    stages = {}
    for key, stage in (("end_s", "end_basis"), ("radical_s", "radical_dim"),
                       ("algebra_s", "simplicity"), ("star_s", "star_dim")):
        t_stage = time.perf_counter()
        getattr(result, stage)
        stages[key] = round(time.perf_counter() - t_stage, 6)
    basis, simplicity = result.end_basis, result.simplicity
    verdicts = result.verdicts()
    # a support witness decides without the generated algebra, so it is not spun
    spun = simplicity.path != "support"
    report = {
        "input": dict(source, seed=seed),
        "dimension_vector": rep.dimension_vector(),
        "verdicts": verdicts,
        "evidence": {
            "total_dim": rep.total_dim,
            "dim_end": basis.dimension,
            "dim_radical": result.radical_dim,
            "semisimple_quotient_dim": result.semisimple_dim,
            "generated_algebra_dim": simplicity.algebra_dim if spun else None,
            "generated_algebra_svd_gap": _finite_or_str(simplicity.gap) if spun else None,
            "star_closed_end_dim": result.star_dim,
            "svd_gap": _finite_or_str(basis.gap),
            "svd_cutoff": basis.cutoff,
            "end_path": basis.path,
            "end_unknowns": basis.unknowns,
            "simple_path": simplicity.path,
        },
        "tolerances": tol.as_dict(),
        "finite_truncation": finite_truncation,
        "seed": seed,
        "timings": dict(stages, total_s=round(time.perf_counter() - t_start, 6)),
    }
    if finite_truncation:
        report["note"] = ("verdicts describe the finite truncation only, not the "
                          "infinite-dimensional model it approximates")
    return report


def _finite_or_str(x: float):
    return x if np.isfinite(x) else "inf"


# ---------------------------------------------------------------------------
# I/O helpers

def _read_json(path: str) -> Any:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read {path!r}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc})") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON ({exc})") from None


def _load_rep(path: str) -> tuple[Representation, dict]:
    return doc.rep_from_json(_read_json(path))


def _write_out(text: str, out: str | None) -> None:
    text = text if text.endswith("\n") else text + "\n"
    if out is None or out == "-":
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write {out!r}: {exc}") from None


# ---------------------------------------------------------------------------
# subcommands

def cmd_analyze(args, tol: Tolerances) -> int:
    if args.model and args.file:
        raise ValidationError("analyze takes a document file or --model, not both")
    if args.param and not args.model:
        raise ValidationError("--param sets a built-in model's parameters and needs --model")
    if args.model:
        rep, meta = build_model(args.model, args.param, tol)
        source = {"source": f"builder:{args.model}", "params": meta["params"]}
        flag = meta["finite_truncation"]
    elif args.file:
        rep, meta = _load_rep(args.file)
        source = {"source": f"file:{args.file}"}
        flag = bool(meta.get("finite_truncation", False))
        if meta.get("model"):
            source["model"] = meta["model"]
    else:
        raise ValidationError("analyze needs a document file or --model")
    report = analysis_report(rep, tol, args.seed, source, flag)
    _write_out(doc.dumps(report), args.out)
    return 0


def cmd_hom(args, tol: Tolerances) -> int:
    rep_a, _ = _load_rep(args.file_a)
    rep_b, _ = _load_rep(args.file_b)
    basis = hom(rep_a, rep_b, tol)
    payload = {
        "dim": basis.dimension,
        "svd_gap": _finite_or_str(basis.gap),
        "svd_cutoff": basis.cutoff,
        "path": basis.path,
        "unknowns": basis.unknowns,
        "tolerances": tol.as_dict(),
    }
    if args.basis:
        payload["basis"] = [
            {v: doc.matrix_to_json(t[v]) for v in rep_a.quiver.vertices}
            for t in basis
        ]
    _write_out(doc.dumps(payload), args.out)
    return 0


def cmd_iso(args, tol: Tolerances) -> int:
    rep_a, _ = _load_rep(args.file_a)
    rep_b, _ = _load_rep(args.file_b)
    result = are_isomorphic(rep_a, rep_b, tol, seed=args.seed)
    payload = {
        "verdict": result.verdict,
        "reason": result.reason,
        "dim_hom": result.hom_dim,
        "seed": result.seed,
    }
    if result.witness is not None:
        payload["witness"] = {v: doc.matrix_to_json(m) for v, m in result.witness.items()}
    _write_out(doc.dumps(payload), args.out)
    return 0


def cmd_build(args, tol: Tolerances) -> int:
    rep, meta = build_model(args.model, args.param, tol)
    meta["seed"] = args.seed
    _write_out(doc.dumps(doc.rep_to_json(rep, meta)), args.out)
    return 0


def _sweep_grid(spec: ModelSpec, params: dict) -> list[dict]:
    """Cartesian product over list-valued parameters, in declaration order."""
    cells = [{}]
    for key in spec.params:
        if key == "N" or key not in params:
            continue
        values = params[key]
        if not isinstance(values, list) or spec.params[key].kind == "list":
            values = [values]
        cells = [dict(cell, **{key: v}) for v in values for cell in cells]
    return cells


def _admissible(spec: ModelSpec, cell: dict, n: int, tol: Tolerances) -> bool:
    return spec.max_level is None or n <= spec.max_level(cell, tol)


def _sweep_row(spec: ModelSpec, cell: dict, n: int, partner: dict | None,
               tol: Tolerances, seed: int) -> dict:
    """One sweep row; ``partner`` is the parameter cell of the cross-Hom target."""
    row = {c: "" for c in SWEEP_COLUMNS}
    row["model"] = spec.name
    row["N"] = n
    row["params_hash"] = params_hash(cell)
    row["flags"] = "finite-truncation" if spec.finite_truncation else ""
    started = time.perf_counter()
    try:
        params = dict(cell, N=n)
        rep = spec.build(params, tol)
        result = analyze(rep, tol, seed)
        basis = result.end_basis
        row["dim_end"] = basis.dimension
        if partner is not None:
            other = spec.build(dict(partner, N=n), tol)
            row["dim_hom_cross"] = hom(rep, other, tol).dimension
        if spec.recursion is not None:
            row["recursion_pass_rate"] = spec.recursion(rep, params, basis, tol)
        if spec.sweep_decompose:
            # sorted: the leaf order follows a random split, not the summands
            leaves = sorted(tuple(leaf.dims[v] for v in leaf.quiver.vertices)
                            for leaf in result.decomposition().leaf_reps())
            row["summand_dims"] = "|".join(",".join(map(str, dims)) for dims in leaves)
    except (ValidationError, NumericalFailure, SizeLimitExceeded) as exc:
        row["error"] = str(exc)
    row["wall_time_s"] = round(time.perf_counter() - started, 4)
    return row


def cmd_sweep(args, tol: Tolerances) -> int:
    spec = _model_spec(args.model)
    if not spec.finite_truncation:
        raise ValidationError(f"model {args.model!r} has no truncation parameter to sweep")
    params = parse_params(spec, args.param, sweep=True)
    if "N" in params:
        raise ValidationError("the truncation level comes from --n-range, not --param N=...")
    try:
        lo, _, hi = args.n_range.partition(":")
        n_values = list(range(int(lo), int(hi or lo) + 1))
    except ValueError:
        raise ValidationError(f"--n-range must be LO:HI, got {args.n_range!r}") from None
    if not n_values:
        raise ValidationError(f"empty N range {args.n_range!r}")
    cells = _sweep_grid(spec, params)
    rows = []
    for cell in cells:
        for n in n_values:
            # admissibility is a grid constraint, not a failure: weights that
            # would underflow simply produce no row
            if not _admissible(spec, cell, n, tol):
                continue
            partner = None
            if spec.sweep_cross:
                # the first other grid value of lam that is admissible at this level
                partner = next((dict(cell, lam=c["lam"]) for c in cells
                                if c["lam"] != cell["lam"]
                                and _admissible(spec, dict(cell, lam=c["lam"]), n, tol)),
                               None)
            rows.append(_sweep_row(spec, cell, n, partner, tol, args.seed))

    if args.format == "json":
        _write_out(doc.dumps(rows), args.out)
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=SWEEP_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
        _write_out(buf.getvalue(), args.out)
    return 0


def cmd_convert(args, tol: Tolerances) -> int:
    data = _read_json(args.file)
    kind = doc.detect_kind(data)
    if args.rep_to_system:
        if kind != "representation":
            raise ValidationError("--rep-to-system expects a representation document")
        source, _ = doc.rep_from_json(data)
        if source.quiver.has_loops():
            raise ValidationError(
                "the quiver has self-loops; run convert --remove-loops first"
            )
        target = rep_to_system(source, tol, check=False)
        out_doc = doc.system_to_json(target)
    elif args.system_to_rep:
        if kind != "system":
            raise ValidationError("--system-to-rep expects a system document")
        source, _ = doc.system_from_json(data, tol)
        target = system_to_rep(source, tol, check=False)
        out_doc = doc.rep_to_json(target)
    elif args.remove_loops:
        if kind != "representation":
            raise ValidationError("--remove-loops expects a representation document")
        source, meta = doc.rep_from_json(data)
        target = remove_loops(source, tol, check=False)
        out_doc = doc.rep_to_json(target, meta or None)
    else:  # operator-to-4system
        if kind != "operator":
            raise ValidationError("--operator-to-4system expects an operator document")
        matrix = doc.operator_from_json(data)
        source = loop_rep(matrix)
        target = from_operator(matrix, tol)
        out_doc = doc.system_to_json(target)
    before, after = preserved_end(source, target, tol)
    sidecar = {"dim_end_before": before, "dim_end_after": after, "equal": True}
    _write_out(doc.dumps(out_doc), args.out)
    if args.out and args.out != "-":
        try:
            _write_out(doc.dumps(sidecar), args.out + ".check.json")
        except ValidationError:
            # a converted document is never left on disk without its check
            os.remove(args.out)
            raise
    else:
        sys.stderr.write(doc.dumps(sidecar) + "\n")
    return 0


# ---------------------------------------------------------------------------
# argument parser

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.  Reuse is safe: argparse
    copies an ``append`` default before extending it, so ``--param`` lists
    never carry over between calls."""
    parser = argparse.ArgumentParser(
        prog="quiverrep",
        description="Quiver representations: intertwiner spaces, structural "
                    "verdicts, canonical models and subspace systems.")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for all randomized checks (default 0)")
    parser.add_argument("--tol-scale", type=float, default=1.0,
                        help="multiply every numerical tolerance (default 1.0)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="structural verdict report for a representation")
    p.add_argument("file", nargs="?", help="representation document ('-' for stdin)")
    p.add_argument("--model", help="analyze a built-in model instead of a file")
    p.add_argument("--param", action="append", default=[], metavar="KEY=VALUE")
    p.add_argument("--out", help="output path (default stdout)")

    p = sub.add_parser("hom", help="dimension (and basis) of Hom(A, B)")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--basis", action="store_true", help="include the basis matrices")
    p.add_argument("--out")

    p = sub.add_parser("iso", help="isomorphism verdict with witness")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--out")

    p = sub.add_parser("build", help="write a built-in model as a document")
    p.add_argument("model")
    p.add_argument("--param", action="append", default=[], metavar="KEY=VALUE")
    p.add_argument("--out")

    p = sub.add_parser("sweep", help="truncation sweep over N (CSV by default)")
    p.add_argument("model")
    p.add_argument("--n-range", required=True, metavar="LO:HI")
    p.add_argument("--param", action="append", default=[], metavar="KEY=VALUE",
                   help="comma-separated values form a grid, e.g. lam=1.05,1.1")
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="row format (default csv)")
    p.add_argument("--out")

    p = sub.add_parser("convert", help="bridges between documents")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--rep-to-system", action="store_true")
    mode.add_argument("--system-to-rep", action="store_true")
    mode.add_argument("--remove-loops", action="store_true")
    mode.add_argument("--operator-to-4system", action="store_true")
    p.add_argument("file")
    p.add_argument("--out")
    return parser


COMMANDS = {
    "analyze": cmd_analyze,
    "hom": cmd_hom,
    "iso": cmd_iso,
    "build": cmd_build,
    "sweep": cmd_sweep,
    "convert": cmd_convert,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.seed < 0:
            raise ValidationError(f"--seed must be nonnegative, got {args.seed}")
        tol = DEFAULT_TOL.rescaled(args.tol_scale)
        return COMMANDS[args.command](args, tol)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (SizeLimitExceeded, MemoryError) as exc:
        print(f"size limit: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
