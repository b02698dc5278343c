"""The benchmark's workloads: inputs made from a seed, the ops run on them, and
the answer each op must give, known from how its input was built.

A workload is a pool of cycles.  Every cycle holds the same op kinds at the
same sizes in a seeded order; only the random matrices differ between cycles
and seeds.  The run loop executes whole cycles, so every run has the same
composition and its throughput and percentiles do not depend on where a
time limit happened to cut the op sequence.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import time
import zlib
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

import numpy as np

import quiverrep as qr
from quiverrep import cli, document as doc

# Exit codes of quiverrep.cli.main and the typed errors they stand for.
EXIT_ERRORS = {2: "ValidationError", 3: "NumericalFailure", 4: "SizeLimitExceeded"}
# A sweep row whose error column holds one of those errors, caught by the sweep.
SWEEP_ROW_ERROR = "SweepRowError"


class ProgramError(Exception):
    """A CLI op that ended with a nonzero exit code; ``kind`` names the typed error."""

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


@dataclass(frozen=True)
class Op:
    family: str                      # op kind without its size, e.g. "analyze ex3"
    size: int                        # the size its cost grows with (d, N, k or total dim)
    call: Callable[[int], Any]       # runs the program with per-op seed = op index
    observe: Callable[[Any], Any]    # reads the answer from call's result or output files
    expected: Any
    in_path: str | None = None
    out_path: str | None = None

    @property
    def label(self) -> str:
        return f"{self.family} size={self.size}"


@dataclass
class Workload:
    name: str
    cycles: list[list[Op]]
    fingerprint: str
    # Share of ops that may return a wrong answer before the run counts as
    # incorrect.  Nonzero only where the program has a known wrong-answer
    # defect on these inputs; such answers still count in failed and ok_share.
    wrong_allowance: float = 0.0

    def warmup_ops(self) -> list[Op]:
        """The smallest op of each command (analyze, sweep, ...) in the first cycle."""
        smallest: dict[str, Op] = {}
        for op in self.cycles[0]:
            command = op.family.split()[0]
            if command not in smallest or op.size < smallest[command].size:
                smallest[command] = op
        return list(smallest.values())


class Inputs:
    """Writes the generated documents and hashes them in order of creation."""

    def __init__(self, workdir: str):
        self.dir = os.path.join(workdir, "in")
        self.out = os.path.join(workdir, "out")
        os.makedirs(self.dir, exist_ok=True)
        os.makedirs(self.out, exist_ok=True)
        self.hash = hashlib.sha256()
        self.count = 0

    def write(self, obj: dict) -> str:
        text = doc.dumps(obj) + "\n"
        self.hash.update(text.encode())
        path = os.path.join(self.dir, f"{self.count:05d}.json")
        self.count += 1
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def note(self, value: Any) -> None:
        """Hash an input that is passed as arguments rather than as a document."""
        self.hash.update(json.dumps(value, sort_keys=True).encode())

    def out_path(self, family: str) -> str:
        return os.path.join(self.out, family.replace(" ", "_") + ".json")


# ---------------------------------------------------------------------------
# the closed-loop client

class Sample(NamedTuple):
    index: int
    op: Op
    wall: float
    outcome: dict      # {"status": "ok" | "wrong" | exception type, ...details}
    io_bytes: int      # input document read plus output written; only when traced


def execute(op: Op, index: int, tracer=None) -> Sample:
    """Run one op with per-op seed ``index`` and check its answer.  Never raises."""
    if tracer is not None:
        tracer.op = index
    io_bytes = 0
    started = time.perf_counter()
    try:
        raw = op.call(index)
        with tracer.span("bench.check") if tracer is not None else contextlib.nullcontext():
            actual = op.observe(raw)
            if tracer is not None:
                io_bytes = sum(os.path.getsize(p) for p in (op.in_path, op.out_path) if p)
        outcome = {"status": "ok"} if actual == op.expected else \
            {"status": "wrong", "expected": op.expected, "actual": actual}
    except ProgramError as exc:
        outcome = {"status": exc.kind, "message": str(exc)}
    except Exception as exc:  # an escaped exception is a finding; keep running
        outcome = {"status": type(exc).__name__, "message": str(exc)}
    return Sample(index, op, time.perf_counter() - started, outcome, io_bytes)


# at least 10 samples lie beyond the 90th percentile
MIN_OPS = 100


def run_cycles(workload: Workload, seconds: float | None, tracer=None,
               n_cycles: int | None = None) -> tuple[list[Sample], float, int]:
    """Run whole cycles for about ``seconds`` and at least MIN_OPS ops, or
    exactly ``n_cycles``.

    Returns the samples, the elapsed time and the cycle count.  Op indices,
    and so per-op seeds, start at 0 on every call.
    """
    samples: list[Sample] = []
    started = time.perf_counter()
    done = 0
    while True:
        for op in workload.cycles[done % len(workload.cycles)]:
            samples.append(execute(op, len(samples), tracer))
        done += 1
        elapsed = time.perf_counter() - started
        if n_cycles is not None:
            if done >= n_cycles:
                break
        elif elapsed + 0.5 * elapsed / done >= seconds and len(samples) >= MIN_OPS:
            break  # stop where the end lands nearest to the time limit
    return samples, time.perf_counter() - started, done


def op_at(workload: Workload, index: int) -> Op:
    """The op that run_cycles executes at ``index``."""
    n = len(workload.cycles[0])
    return workload.cycles[(index // n) % len(workload.cycles)][index % n]


# ---------------------------------------------------------------------------
# running the CLI in-process

def run_cli(argv: list[str], out: str) -> None:
    """``quiverrep <argv> --out <out>`` in-process; a nonzero exit raises ProgramError."""
    for stale in (out, out + ".check.json"):  # an answer must come from this op
        if os.path.exists(stale):
            os.remove(stale)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main([*argv, "--out", out])
    if code != 0:
        raise ProgramError(EXIT_ERRORS.get(code, f"exit code {code}"), err.getvalue().strip())


def cli_op(family: str, size: int, args: list[str], inputs: Inputs,
           observe: Callable[[str], Any], expected: Any, in_path: str | None = None) -> Op:
    """``quiverrep --seed <op index> <args>``; the answer is read from the output file."""
    out = inputs.out_path(family)
    return Op(family, size,
              call=lambda i: run_cli(["--seed", str(i), *args], out),
              observe=lambda _: observe(out), expected=expected,
              in_path=in_path, out_path=out)


def _read_json(path: str) -> Any:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def report_fields(*keys: str) -> Callable[[str], dict]:
    def observe(path):
        report = _read_json(path)
        merged = dict(report["evidence"], **report["verdicts"])
        return {k: merged[k] for k in keys}
    return observe


def sidecar(path: str) -> dict:
    return _read_json(path + ".check.json")


SWEEP_FIELDS = ("dim_end", "dim_hom_cross", "recursion_pass_rate", "summand_dims", "error")


def sweep_rows(path: str) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = [{k: row[k] for k in SWEEP_FIELDS} for row in csv.DictReader(fh)]
    errors = [row["error"] for row in rows if row["error"]]
    if errors:
        raise ProgramError(SWEEP_ROW_ERROR, "; ".join(errors))
    return rows


def sweep_row(dim_end, cross="", rate="", summands="") -> dict:
    return dict(zip(SWEEP_FIELDS, (str(dim_end), str(cross), str(rate), summands, "")))


def sweep_op(inputs: Inputs, model: str, n: int, lams, rows: list[dict]) -> Op:
    """Single-cell ``quiverrep sweep MODEL --n-range N:N``, checked row by row."""
    args = ["sweep", model, "--n-range", f"{n}:{n}"]
    if lams:
        args += ["--param", "lam=" + ",".join(f"{x:g}" for x in lams)]
    inputs.note(args)
    return cli_op(f"sweep {model}", n, args, inputs, sweep_rows, rows)


def _shuffled(rng: np.random.Generator, ops: list[Op]) -> list[Op]:
    return [ops[i] for i in rng.permutation(len(ops))]


def random_matrix(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(random_matrix(rng, n, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


# ---------------------------------------------------------------------------
# loop-analyze: one vertex, two loops; structure.generated_algebra dominates

def _loop_doc(a: np.ndarray, b: np.ndarray, meta: dict) -> dict:
    rep = qr.Representation(qr.build_canonical("loop", 2), {"1": a.shape[0]}, {"a1": a, "a2": b})
    return doc.rep_to_json(rep, meta)


def _loop_analyze(ops: list[Op], inputs: Inputs, family: str, d: int, document: dict,
                  alg_dim: int) -> None:
    path = inputs.write(document)
    expected = {"dim_end": 1, "generated_algebra_dim": alg_dim, "simple": alg_dim == d * d}
    ops.append(cli_op(family, d, ["analyze", path], inputs,
                      report_fields("dim_end", "generated_algebra_dim", "simple"), expected, path))


def loop_analyze_cycle(rng: np.random.Generator, inputs: Inputs) -> list[Op]:
    # (S, S*) and a generic pair both generate all of M_d and commute only with
    # scalars; ex3 starts at d = 5 so that a cycle holds an odd number of ops
    ops: list[Op] = []
    for d in range(5, 12):
        _loop_analyze(ops, inputs, "analyze ex3", d,
                      doc.rep_to_json(qr.example_reps("ex3", d),
                                      {"model": "ex3", "finite_truncation": True}), d * d)
    for d in range(6, 12):
        _loop_analyze(ops, inputs, "analyze generic", d,
                      _loop_doc(random_matrix(rng, d, d), random_matrix(rng, d, d), {}), d * d)
    return _shuffled(rng, ops)


# ---------------------------------------------------------------------------
# kronecker-end: End and cross-Hom solves on Kronecker quivers

def kronecker_end_cycle(rng: np.random.Generator, inputs: Inputs) -> list[Op]:
    observe = report_fields("dim_end")
    ops = []

    def analyze(family, size, rep, dim_end):
        path = inputs.write(doc.rep_to_json(rep, {"model": family.split()[-1]}))
        ops.append(cli_op(family, size, ["analyze", path], inputs, observe,
                          {"dim_end": dim_end}, path))

    def sweep(model, n, lams, rows):
        ops.append(sweep_op(inputs, model, n, lams, rows))

    def distinct_pair():
        # |lam - mu| > 2, the separation the limiting argument asks for; closer
        # pairs make the Sylvester system's smallest singular value, about
        # |lam - mu|^(2N-1) / binom(2N-2, N-1), fall under the rank cutoff
        lam = round(float(rng.uniform(-1.0, 1.0)), 3)
        return lam, round(lam + float(rng.choice([-1, 1]) * rng.uniform(2.1, 3.0)), 3)

    for n in (10, 14, 18):
        # random admissible parameters: distinct diagonal weights, nonzero perturbation
        lam = 1.0 + np.sort(rng.uniform(0.0, 1.0, n))
        w = rng.uniform(0.2, 1.5, n) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, n))
        analyze("analyze perturbation", n, qr.perturbation_model(n, lam, w), n)
    for n in (4, 6, 8):
        analyze("analyze hrr", n, qr.hrr_model(n, float(rng.choice([1.05, 1.1]))), 2 * n + 1)
    # End of (I, lam I + S) is the commutant of one Jordan block
    for name, n in (("ex8", 8), ("ex8*", 12), ("ex8", 16)):
        lam = round(float(rng.uniform(-1.0, 1.0)), 3)
        analyze("analyze " + name.replace("*", "s"), n, qr.example_reps(name, n, lam), n)
    analyze("analyze ex4", 10, qr.example_reps("ex4", 10), 1)
    analyze("analyze jordan_first", 6,
            qr.build_family(qr.KroneckerFamily("jordan_first", 6, float(rng.integers(0, 3)))), 6)
    analyze("analyze jordan_second", 9,
            qr.build_family(qr.KroneckerFamily("jordan_second", 9, float(rng.integers(0, 3)))), 9)
    analyze("analyze wide", 8, qr.build_family(qr.KroneckerFamily("wide", 8)), 1)
    analyze("analyze tall", 8, qr.build_family(qr.KroneckerFamily("tall", 8)), 1)

    # the bilateral models at two bases are diagonally similar at every finite
    # level, so their cross Hom has the End dimension 2N+1; shifted shifts at
    # distinct lam have no cross Hom at all
    n = 6
    sweep("hrr", n, (1.05, 1.1), [sweep_row(2 * n + 1, 2 * n + 1, 1.0)] * 2)
    for model, n in (("ex8", 10), ("ex8s", 12)):
        sweep(model, n, distinct_pair(), [sweep_row(n, 0)] * 2)
    for n in (8, 12):
        sweep("perturbation", n, None, [sweep_row(n, rate=1.0)])
    return _shuffled(rng, ops)


# ---------------------------------------------------------------------------
# hidden-decompose: qr.decompose on direct sums hidden by a change of basis

SUMMAND_KINDS = ("jordan_first", "jordan_second", "wide", "tall")


def _dims(rep: qr.Representation) -> tuple[int, int]:
    return rep.dims["1"], rep.dims["2"]


def hidden_sum_op(rng: np.random.Generator, inputs: Inputs, m: int) -> Op:
    parts = [qr.build_family(qr.KroneckerFamily(str(rng.choice(SUMMAND_KINDS)),
                                                int(rng.integers(1, 4)),
                                                float(rng.integers(0, 3))))
             for _ in range(m)]
    total = parts[0]
    for p in parts[1:]:
        total = qr.direct_sum(total, p)
    change = {v: random_matrix(rng, k, k) for v, k in total.dims.items()}
    maps = {a.name: change[a.dst] @ total.maps[a.name] @ np.linalg.inv(change[a.src])
            for a in total.quiver.arrows}
    hidden = qr.Representation(total.quiver, total.dims, maps)
    path = inputs.write(doc.rep_to_json(hidden, {"summands": [list(_dims(p)) for p in parts]}))
    with open(path, encoding="utf-8") as fh:
        rep, _ = doc.rep_from_json(json.load(fh))
    # Krull-Schmidt: the leaves are the summands up to isomorphism, so their
    # dimension vectors agree as multisets
    return Op(f"decompose m={m}", rep.total_dim,
              call=lambda i: qr.decompose(rep, seed=i),
              observe=lambda tree: sorted(_dims(leaf) for leaf in tree.leaf_reps()),
              expected=sorted(_dims(p) for p in parts))


def hidden_decompose_cycle(rng: np.random.Generator, inputs: Inputs) -> list[Op]:
    return _shuffled(rng, [hidden_sum_op(rng, inputs, m) for m in (2, 3, 4) for _ in range(3)])


# ---------------------------------------------------------------------------
# bridges: convert between operators, subspace systems and representations

def jordan_operator(rng: np.random.Generator, k: int,
                    scalar: bool = False) -> tuple[np.ndarray, int]:
    """A randomly conjugated Jordan-form operator and the dimension of its commutant.

    The commutant has dimension sum over eigenvalues of sum_{i,j} min(p_i, p_j)
    over the sizes p of the Jordan blocks at that eigenvalue.  The Jordan type
    is never scalar unless ``scalar`` asks for a nonzero multiple of the
    identity: conversions of those fail (see known_defects_cycle).
    """
    if scalar:
        blocks = [(float(rng.integers(1, 3)), 1)] * k
    else:
        blocks = [(0.0, 1)] * k
        while len({lam for lam, _ in blocks}) == 1 and all(p == 1 for _, p in blocks):
            blocks, left = [], k
            while left:
                p = int(rng.integers(1, left + 1))
                blocks.append((float(rng.integers(0, 3)), p))
                left -= p
    jordan = np.zeros((k, k), dtype=complex)
    pos = 0
    for lam, p in blocks:
        jordan[pos:pos + p, pos:pos + p] = qr.jordan_block(lam, p)
        pos += p
    s = random_matrix(rng, k, k)
    commutant = sum(min(p, q) for lam, p in blocks for mu, q in blocks if lam == mu)
    return s @ jordan @ np.linalg.inv(s), commutant


def convert_op(inputs: Inputs, mode: str, family: str, size: int, document: dict,
               dim_end: int) -> Op:
    """``quiverrep convert MODE FILE``; the sidecar must report End preserved."""
    path = inputs.write(document)
    return cli_op(family, size, ["convert", mode, path], inputs, sidecar,
                  {"dim_end_after": dim_end, "dim_end_before": dim_end, "equal": True}, path)


def bridges_cycle(rng: np.random.Generator, inputs: Inputs) -> list[Op]:
    ops = []

    def convert(mode, family, size, document, dim_end):
        ops.append(convert_op(inputs, mode, family, size, document, dim_end))

    for k in (3, 4, 5, 6, 3, 4, 5, 6):
        a, dim = jordan_operator(rng, k)
        convert("--operator-to-4system", "operator-to-4system", k, doc.operator_to_json(a), dim)
        a, dim = jordan_operator(rng, k)
        convert("--system-to-rep", "system-to-rep", k,
                doc.system_to_json(qr.from_operator(a)), dim)
    # the subspace-quiver representation of a 4-system on C^3 (+) C^3 has total
    # dimension 18; rep-to-system solves a 9*18^2 x 18^2 system there
    a, dim = jordan_operator(rng, 3)
    rep = qr.system_to_rep(qr.from_operator(a), check=False)
    convert("--rep-to-system", "rep-to-system", rep.total_dim, doc.rep_to_json(rep), dim)
    for n in (3, 5, 7, 9):
        ex3 = qr.example_reps("ex3", n)
        convert("--remove-loops", "remove-loops ex3", n,
                doc.rep_to_json(ex3, {"model": "ex3", "finite_truncation": True}), 1)
        convert("--rep-to-system", "rep-to-system", 2 * n,
                doc.rep_to_json(qr.remove_loops(ex3, check=False)), 1)
    return _shuffled(rng, ops)


# ---------------------------------------------------------------------------
# known-defects: the op kinds on which the program fails, kept out of the
# recorded workloads, whose ops must all succeed

def known_defects_cycle(rng: np.random.Generator, inputs: Inputs) -> list[Op]:
    ops = []
    for d in range(7, 12):
        # a generic pair fixing a k-dimensional subspace generates the block upper
        # triangular algebra, of dimension d^2 - k(d-k); its commutant is the
        # scalars.  generated_algebra sometimes raises LinAlgError here, or
        # calls the pair simple.
        k = d // 2
        a, b = random_matrix(rng, d, d), random_matrix(rng, d, d)
        a[k:, :k] = 0
        b[k:, :k] = 0
        u = random_unitary(rng, d)
        _loop_analyze(ops, inputs, "analyze block", d,
                      _loop_doc(u @ a @ u.conj().T, u @ b @ u.conj().T, {"invariant_dim": k}),
                      d * d - k * (d - k))
    # decompose inside the sweep fails in restrict for some per-op seeds
    n = 10
    ops.append(sweep_op(inputs, "ex9", n, None,
                        [sweep_row(n, summands=f"{n // 2},{n // 2}|{n // 2},{n // 2}")]))
    # a conjugated nonzero scalar operator: End of the operator comes out k, not k^2
    for k in (3, 4, 5, 6):
        a, dim = jordan_operator(rng, k, scalar=True)
        ops.append(convert_op(inputs, "--operator-to-4system", "operator-to-4system scalar",
                              k, doc.operator_to_json(a), dim))
    return _shuffled(rng, ops)


# ---------------------------------------------------------------------------

WORKLOADS = {
    # name: (cycle generator, cycles in the pool, wrong-answer allowance).  A 2%
    # allowance sits above the wrong-answer rates measured when the benchmark
    # was introduced (generated_algebra calling a block triangular pair simple,
    # 3 of 330 known-defects ops at seed 1; decompose leaves that are not the
    # summands, about 1 op in 10000), yet a defect that returns wrong answers
    # on 1 op in 50 still shows.
    "loop-analyze": (loop_analyze_cycle, 12, 0.0),
    "kronecker-end": (kronecker_end_cycle, 12, 0.0),
    "bridges": (bridges_cycle, 12, 0.0),
    "hidden-decompose": (hidden_decompose_cycle, 112, 0.02),
    "known-defects": (known_defects_cycle, 12, 0.02),
}


def build(name: str, seed: int, workdir: str) -> Workload:
    make_cycle, n_cycles, wrong_allowance = WORKLOADS[name]
    rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
    inputs = Inputs(workdir)
    cycles = [make_cycle(rng, inputs) for _ in range(n_cycles)]
    return Workload(name, cycles, inputs.hash.hexdigest()[:16], wrong_allowance)
