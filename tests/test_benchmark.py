"""Smoke test of the benchmark: every recorded workload builds and its first
cycle runs without a failed op, so an API change that would stop
``perfbench/run.py`` fails here."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
workloads = sys.modules["workloads"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

RECORDED = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("name", RECORDED)
def test_recorded_workload_first_cycle_has_no_failed_op(tmp_path, name):
    workload = workloads.build(name, 1, str(tmp_path))
    failed = [(sample.op.label, sample.outcome)
              for sample in (workloads.execute(op, i) for i, op in enumerate(workload.cycles[0]))
              if sample.outcome["status"] != "ok"]
    assert failed == []
