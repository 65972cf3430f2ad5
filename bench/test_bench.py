"""Self-test of the benchmark.

    python3 -m pytest -q bench/test_bench.py

Smoke-runs every workload for one second in both modes, and checks the
outcome check, the tracer's restoration and the refusal to run without
sources.  It is not part of the tier-1 suite, which collects only ``tests/``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _run(workload, trace, cwd=ROOT, bench=BENCH):
    return subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_reports_every_metric_and_no_failed_op(workload, trace, key):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    expected = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    printed = {line.split()[0]: line.split()[1:] for line in lines[:-1]
               if line and not line.startswith("#")}
    for name, unit in expected.items():
        assert printed[name][-1] == unit
    assert printed["failed_ops_ratio"][0] == "0"


def test_tracer_keeps_outcomes_and_restores_every_wrapped_attribute():
    w = workloads.Mismatch()
    plain = workloads.digest(w.outcome(w.op(3, None), None))
    tracer = tracing.Tracer()
    originals = [(owner, attr, original) for owner, attr, original, _ in tracer._patches]
    tracer.install()
    try:
        assert all(vars(owner)[attr] is not original for owner, attr, original in originals)
        traced = workloads.digest(w.outcome(tracer.op(w.op, 3, None), None))
    finally:
        tracer.uninstall()
    assert traced == plain
    assert tracer.not_restored() == []
    assert all(vars(owner)[attr] is original for owner, attr, original in originals)
    assert tracer.counts["controller.calls"] == 2 * w.n_steps
    assert tracer.module_metrics(1)["dynamics.step_calls"] == 2 * w.n_steps


def test_outcome_differing_from_the_reference_fails_the_op():
    runner = run.Runner("mismatch")
    try:
        runner.reference = dict(runner.reference, **{"0": "0" * 64})
        runner.run_op(0)
        runner.run_op(1)
    finally:
        runner.close()
    assert (runner.attempted, runner.failed) == (2, 1)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("invariance", 0, cwd=tmp_path, bench=tmp_path / "bench")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
