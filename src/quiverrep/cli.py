"""Command-line surface: analyze / hom / iso / build / sweep / convert.

Exit codes: 0 success, 2 validation failure, 3 numerical failure,
4 size limit exceeded.  All commands are deterministic given the input,
--seed and --tol-scale.  File arguments accept "-" for stdin.  Reports are
JSON; ``sweep --format`` picks CSV (the default) or JSON rows.  The verdicts
of ``analyze`` are those of :func:`quiverrep.structure.analyze`.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from . import document as doc
from .errors import NumericalFailure, SizeLimitExceeded, ValidationError
from .intertwiner import HomBasis, are_isomorphic, end, hom, hom_scale
from .kronecker import KroneckerFamily, build_family
from .numerics import DEFAULT_TOL, Tolerances
from .operators import (end_recursion_check, example_reps, hrr_max_truncation,
                        hrr_model, perturbation_model, perturbation_structure_residual)
from .quiver import build_canonical
from .rep import Representation
from .structure import analyze, decompose
from .subspaces import from_operator, remove_loops, rep_to_system, system_end, system_to_rep

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
    finite_truncation: bool
    doc: str
    sweep_cross: bool = False      # hom against another grid value of lam
    sweep_decompose: bool = False  # summand dimension column
    # largest admissible truncation level of a parameter cell; sweeps skip the rest
    max_level: Callable[[dict, Tolerances], int] | None = None
    # End structure-check pass rate, the recursion_pass_rate column
    recursion: Callable[[Representation, dict, HomBasis, Tolerances], float] | None = None


def _ex1(params: dict, _: Tolerances) -> Representation:
    theta = params["theta"]
    q = build_canonical("two_inclusions")
    return Representation(
        q, {"1": 1, "2": 1, "3": 2},
        {"a1": np.array([[1.0], [0.0]], dtype=complex),
         "a2": np.array([[np.cos(theta)], [np.sin(theta)]], dtype=complex)})


def _ex6(*_) -> Representation:
    q = build_canonical("loop", 2)
    return Representation(q, {"1": 2},
                          {"a1": np.array([[1, 0], [0, 0]], dtype=complex),
                           "a2": np.array([[0, 1], [0, 0]], dtype=complex)})


def _ex7(*_) -> Representation:
    q = build_canonical("loop", 2)
    return Representation(q, {"1": 2},
                          {"a1": np.array([[1, 0], [0, 0]], dtype=complex),
                           "a2": np.ones((2, 2), dtype=complex)})


def _perturbation_recursion(rep: Representation, params: dict, basis: HomBasis,
                            tol: Tolerances) -> float:
    tau = tol.hom_tol(hom_scale(rep, rep))
    return 1.0 if perturbation_structure_residual(params["N"], basis) <= tau else 0.0


MODELS: dict[str, ModelSpec] = {}


def _register(spec: ModelSpec) -> None:
    MODELS[spec.name] = spec


_register(ModelSpec("jordan_first", {"lam": ParamSpec("complex", 0.0), "n": ParamSpec("int", required=True)},
                    lambda p, _: build_family(KroneckerFamily("jordan_first", p["n"], p["lam"])),
                    False, "Kronecker family (lam I + J_n, I_n)"))
_register(ModelSpec("jordan_second", {"lam": ParamSpec("complex", 0.0), "n": ParamSpec("int", required=True)},
                    lambda p, _: build_family(KroneckerFamily("jordan_second", p["n"], p["lam"])),
                    False, "Kronecker family (I_n, lam I + J_n)"))
_register(ModelSpec("wide", {"n": ParamSpec("int", required=True)},
                    lambda p, _: build_family(KroneckerFamily("wide", p["n"])),
                    False, "Kronecker family dims (n+1, n), maps [I 0], [0 I]"))
_register(ModelSpec("tall", {"n": ParamSpec("int", required=True)},
                    lambda p, _: build_family(KroneckerFamily("tall", p["n"])),
                    False, "Kronecker family dims (n, n+1), maps [I; 0], [0; I]"))
_register(ModelSpec("perturbation",
                    {"N": ParamSpec("int", required=True),
                     "lam": ParamSpec("list"), "w": ParamSpec("list")},
                    lambda p, _: perturbation_model(p["N"], p.get("lam"), p.get("w")),
                    True, "rank-one-perturbed weighted shift Kronecker model",
                    recursion=_perturbation_recursion))
_register(ModelSpec("hrr", {"N": ParamSpec("int", required=True),
                            "lam": ParamSpec("float", required=True)},
                    lambda p, tol: hrr_model(p["N"], p["lam"], tol),
                    True, "bilateral double-exponential-weight Kronecker model",
                    sweep_cross=True,
                    max_level=lambda p, tol: hrr_max_truncation(p["lam"], tol),
                    recursion=lambda rep, p, basis, tol: end_recursion_check(
                        rep, p["lam"], tol, basis).pass_rate))
_register(ModelSpec("ex1", {"theta": ParamSpec("float", float(np.pi / 4))},
                    _ex1, False, "two subspaces of the plane at angle theta"))
_register(ModelSpec("ex2", {"N": ParamSpec("int", required=True)},
                    lambda p, _: example_reps("ex2", p["N"]), True, "one-loop shift"))
_register(ModelSpec("ex3", {"N": ParamSpec("int", required=True)},
                    lambda p, _: example_reps("ex3", p["N"]), True, "two-loop (S, S*)"))
_register(ModelSpec("ex4", {"N": ParamSpec("int", required=True)},
                    lambda p, _: example_reps("ex4", p["N"]), True, "3-Kronecker (S, S*, I)"))
_register(ModelSpec("ex6", {}, _ex6, False, "two-loop (E11, E12): transitive, not simple"))
_register(ModelSpec("ex7", {}, _ex7, False, "two-loop (E11, all-ones): transitive and simple"))
_register(ModelSpec("ex8", {"lam": ParamSpec("complex", 0.0), "N": ParamSpec("int", required=True)},
                    lambda p, _: example_reps("ex8", p["N"], p["lam"]), True,
                    "Kronecker (I, lam I + S)", sweep_cross=True))
_register(ModelSpec("ex8s", {"lam": ParamSpec("complex", 0.0), "N": ParamSpec("int", required=True)},
                    lambda p, _: example_reps("ex8*", p["N"], p["lam"]), True,
                    "Kronecker (I, lam I + S*)", sweep_cross=True))
_register(ModelSpec("ex9", {"N": ParamSpec("int", required=True)},
                    lambda p, _: example_reps("ex9", p["N"]), True,
                    "Kronecker (S, S*)", sweep_decompose=True))


def _parse_value(raw: str, kind: str) -> Any:
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "complex":
            return complex(raw)
        if kind == "list":
            return [complex(x) if ("j" in x or "J" in x) else float(x)
                    for x in raw.split(",") if x != ""]
    except ValueError as exc:
        raise ValidationError(f"cannot parse {raw!r} as {kind}: {exc}") from None
    raise ValidationError(f"unknown parameter kind {kind!r}")


def parse_params(model: ModelSpec, pairs: list[str], gridded: bool = False,
                 skip_required: frozenset[str] = frozenset()) -> dict:
    """Parse key=value parameter pairs; with ``gridded`` numeric scalars may be
    comma-separated lists (sweep grids)."""
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
        spec = model.params[key]
        if gridded and spec.kind in ("int", "float", "complex") and "," in raw:
            out[key] = [_parse_value(x, spec.kind) for x in raw.split(",") if x]
        else:
            out[key] = _parse_value(raw, spec.kind)
    for key, spec in model.params.items():
        if key in out or key in skip_required:
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
    basis = result.end_basis
    t_end = time.perf_counter()
    verdicts = result.verdicts()
    report = {
        "input": dict(source, seed=seed),
        "dimension_vector": rep.dimension_vector(),
        "verdicts": verdicts,
        "evidence": {
            "total_dim": rep.total_dim,
            "dim_end": basis.dimension,
            "dim_radical": result.radical_dim,
            "semisimple_quotient_dim": result.semisimple_dim,
            "generated_algebra_dim": result.algebra.dimension,
            "generated_algebra_svd_gap": _finite_or_str(result.algebra.gap),
            "star_closed_end_dim": result.star_dim,
            "svd_gap": _finite_or_str(basis.gap),
            "svd_cutoff": basis.cutoff,
        },
        "tolerances": tol.as_dict(),
        "finite_truncation": finite_truncation,
        "seed": seed,
        "timings": {"end_s": round(t_end - t_start, 6),
                    "total_s": round(time.perf_counter() - t_start, 6)},
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
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON ({exc})") from None


def _load_rep(path: str) -> tuple[Representation, dict]:
    return doc.rep_from_json(_read_json(path))


def _write_out(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


# ---------------------------------------------------------------------------
# subcommands

def cmd_analyze(args, tol: Tolerances) -> int:
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
        basis = end(rep, tol)
        row["dim_end"] = basis.dimension
        if partner is not None:
            other = spec.build(dict(partner, N=n), tol)
            row["dim_hom_cross"] = hom(rep, other, tol).dimension
        if spec.recursion is not None:
            row["recursion_pass_rate"] = spec.recursion(rep, params, basis, tol)
        if spec.sweep_decompose:
            leaves = decompose(rep, tol, seed).leaf_reps()
            row["summand_dims"] = "|".join(
                ",".join(str(leaf.dims[v]) for v in leaf.quiver.vertices)
                for leaf in leaves)
    except (ValidationError, NumericalFailure, SizeLimitExceeded) as exc:
        row["error"] = str(exc)
    row["wall_time_s"] = round(time.perf_counter() - started, 4)
    return row


def cmd_sweep(args, tol: Tolerances) -> int:
    spec = _model_spec(args.model)
    if "N" not in spec.params:
        raise ValidationError(f"model {args.model!r} has no truncation parameter to sweep")
    params = parse_params(spec, args.param, gridded=True, skip_required=frozenset({"N"}))
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
        rep, _ = doc.rep_from_json(data)
        if rep.quiver.has_loops():
            raise ValidationError(
                "the quiver has self-loops; run convert --remove-loops first"
            )
        before = end(rep, tol).dimension
        system = rep_to_system(rep, tol, check=False)
        after = system_end(system, tol).dimension
        out_doc = doc.system_to_json(system)
    elif args.system_to_rep:
        if kind != "system":
            raise ValidationError("--system-to-rep expects a system document")
        system, _ = doc.system_from_json(data, tol)
        before = system_end(system, tol).dimension
        rep = system_to_rep(system, tol, check=False)
        after = end(rep, tol).dimension
        out_doc = doc.rep_to_json(rep)
    elif args.remove_loops:
        if kind != "representation":
            raise ValidationError("--remove-loops expects a representation document")
        rep, meta = doc.rep_from_json(data)
        before = end(rep, tol).dimension
        converted = remove_loops(rep, tol, check=False)
        after = end(converted, tol).dimension
        out_doc = doc.rep_to_json(converted, meta or None)
    else:  # operator-to-4system
        if kind != "operator":
            raise ValidationError("--operator-to-4system expects an operator document")
        matrix = doc.operator_from_json(data)
        loop = build_canonical("loop", 1)
        commutant = end(Representation(loop, {"1": matrix.shape[0]}, {"a1": matrix}),
                        tol).dimension
        system = from_operator(matrix, tol)
        before, after = commutant, system_end(system, tol).dimension
        out_doc = doc.system_to_json(system)
    sidecar = {"dim_end_before": before, "dim_end_after": after,
               "equal": before == after}
    if not sidecar["equal"]:
        raise NumericalFailure(
            f"End dimension not preserved by conversion: {before} -> {after}"
        )
    _write_out(doc.dumps(out_doc), args.out)
    if args.out and args.out != "-":
        with open(args.out + ".check.json", "w", encoding="utf-8") as fh:
            fh.write(doc.dumps(sidecar) + "\n")
    else:
        sys.stderr.write(json.dumps(sidecar) + "\n")
    return 0


# ---------------------------------------------------------------------------
# argument parser

def _build_parser() -> argparse.ArgumentParser:
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
        tol = DEFAULT_TOL.rescaled(args.tol_scale)
        return COMMANDS[args.command](args, tol)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except SizeLimitExceeded as exc:
        print(f"size limit: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
