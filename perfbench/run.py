"""quiverrep benchmark: one closed-loop client driving quiverrep.cli.main and
quiverrep.decompose in-process, checking every answer.

    python3 perfbench/run.py --workload loop-analyze --seed 1 --seconds 35 --trace 0

Run from the repository root.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
lines before it print every metric with its unit, then a ``detail`` line with
the environment, the input fingerprint and the failures by type; stderr
carries one record per failed op.  ``--replay INDEX`` re-runs the single op
with that index and prints its outcome.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("loop-analyze", "kronecker-end", "bridges", "hidden-decompose",
                  "known-defects")
SETUP_REPEATS = 3
# fixed for every run and never above the usable cores; two threads measured
# faster than one on a two-core machine
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--replay", type=int, metavar="INDEX",
                   help="run only the op with this index and print its outcome")
    return p.parse_args(argv)


def environment(seed):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unavailable (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        commit = head.read_text().strip()
        if commit.startswith("ref: "):
            ref = ROOT / ".git" / commit[5:]
            commit = ref.read_text().strip() if ref.is_file() else commit
    sources = hashlib.sha256()
    for path in sorted((SRC / "quiverrep").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "git_commit": commit,
        "source_sha256": sources.hexdigest()[:16],
        "workload_seed": seed,
    }


# ---------------------------------------------------------------------------
# metrics

def nearest_rank(sorted_values, q):
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def outcome_metrics(samples):
    """Failure shares and sample counts, printed beside the recorded metrics."""
    attempted = len(samples)
    failed = sum(1 for s in samples if s.outcome["status"] != "ok")
    wrong = sum(1 for s in samples if s.outcome["status"] == "wrong")
    walls = sorted(s.wall for s in samples)
    p90 = nearest_rank(walls, 0.9)
    return {
        "fail_share": (failed / attempted, "share"),
        "wrong_share": (wrong / attempted, "share"),
        "ops": (attempted, "count"),
        "ops_beyond_p90": (sum(1 for w in walls if w > p90), "count"),
    }


def end_to_end(samples, elapsed, setup_s):
    walls = sorted(s.wall for s in samples)
    failed = sum(1 for s in samples if s.outcome["status"] != "ok")
    return {
        "ops_per_s": (len(samples) / elapsed, "1/s"),
        "op_s_p50": (nearest_rank(walls, 0.5), "s"),
        "op_s_p90": (nearest_rank(walls, 0.9), "s"),
        # 1 - fail_share: never 0, so a relative bound applies to it
        "ok_share": (1 - failed / len(samples), "share"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }


def print_metrics(metrics):
    for key, (value, unit) in metrics.items():
        print(f"{key:44s} {value:.6g} {unit}")


def as_json(metrics):
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "quiverrep" / "__init__.py").is_file():
        print(f"error: no quiverrep sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0 or (args.replay is not None and args.replay < 0):
        print("error: --seconds must be positive and --replay nonnegative", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)  # read once, when numpy loads BLAS
    sys.path.insert(0, str(SRC))

    started = time.perf_counter()
    import quiverrep
    import quiverrep.cli  # noqa: F401
    import scipy.linalg  # noqa: F401
    import_s = time.perf_counter() - started
    if Path(quiverrep.__file__).resolve().parent != SRC / "quiverrep":
        print(f"error: imported quiverrep from {quiverrep.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    try:
        return measure(args, str(workdir), import_s, quiverrep)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it


def measure(args, workdir, import_s, package) -> int:
    import spans
    import workloads

    setups, fingerprints = [], set()
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        started = time.perf_counter()
        workload = workloads.build(args.workload, args.seed, workdir)
        for op in workload.warmup_ops():
            workloads.execute(op, 0)
        setups.append(time.perf_counter() - started)
        fingerprints.add(workload.fingerprint)
    if len(fingerprints) != 1:
        print(f"error: one seed gave different inputs: {sorted(fingerprints)}", file=sys.stderr)
        return 1
    setup_s = import_s + statistics.median(setups)

    if args.replay is not None:
        sample = workloads.execute(workloads.op_at(workload, args.replay), args.replay)
        print(json.dumps({"workload": args.workload, "seed": args.seed, "op": sample.index,
                          "label": sample.op.label, "wall_s": sample.wall, **sample.outcome},
                         default=str))
        return 0

    detail = {"workload": args.workload, "env": environment(args.seed),
              "input_fingerprint": workload.fingerprint, "closed_loop_clients": 1,
              "import_s": import_s, "setup_runs_s": setups}
    if args.trace == 0:
        samples, elapsed, cycles = workloads.run_cycles(workload, args.seconds)
        metrics = end_to_end(samples, elapsed, setup_s)
    else:
        # the same ops twice: untraced, as the base for the tracing overhead, then traced
        base, base_s, cycles = workloads.run_cycles(workload, args.seconds / 2)
        tracer = spans.Tracer()
        tracer.install(package)
        try:
            samples, traced_s, _ = workloads.run_cycles(workload, None, tracer, n_cycles=cycles)
        finally:
            tracer.uninstall()
        # outcomes must repeat op by op at a fixed seed; list any that did not
        detail["repeat_mismatches"] = [a.index for a, b in zip(base, samples)
                                       if a.outcome["status"] != b.outcome["status"]]
        metrics = spans.layer_metrics(tracer.spans, len(samples),
                                      {s.index: s.wall for s in samples},
                                      sum(s.io_bytes for s in samples), traced_s / base_s - 1)
    extra = outcome_metrics(samples)
    print_metrics({**metrics, **extra})

    failures = [s for s in samples if s.outcome["status"] != "ok"]
    for s in failures:
        record = {"workload": args.workload, "seed": args.seed, "op": s.index,
                  "label": s.op.label, **s.outcome}
        print("failure " + json.dumps(record, default=str), file=sys.stderr)
    by_type = {}
    for s in failures:
        by_type[s.outcome["status"]] = by_type.get(s.outcome["status"], 0) + 1
    detail.update(cycles=cycles, failures_by_type=by_type, metrics=as_json(extra))
    print("detail " + json.dumps(detail, default=str))

    # correct: the answers that came back passed their checks, up to the
    # workload's allowance for a known defect; exceptions count in failed only
    wrong = sum(1 for s in samples if s.outcome["status"] == "wrong")
    correct = wrong <= workload.wrong_allowance * len(samples)
    print(json.dumps({"correct": correct, "attempted": len(samples), "failed": len(failures),
                      "metrics": as_json(metrics)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
