"""polycbf benchmark.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout; polycbf is imported from ``src/``.
One workload runs in this single process, with no worker threads.  With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it runs
every warm op twice, untraced and traced, and prints the per-module metrics.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See README.md in this directory.
"""

from __future__ import annotations

import os

# Before numpy loads: the harness is single-threaded, BLAS included.  OpenBLAS
# picks its kernels by CPU, and its AVX2 and AVX-512 kernels round the
# learner's small solves differently, so it is held to its baseline x86-64
# kernels: the outcome digests then match the reference on any x86-64 CPU.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["OPENBLAS_CORETYPE"] = "Prescott"

import argparse
import json
import math
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
COLD_CHILDREN = 6  # extra fresh processes timing set-up and the cold op

# Workload names, and every metric's name and unit, as BENCHMARK.json declares them.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
SCALING_STEPS = {4: 120, 8: 60, 16: 30, 32: 10}

# A shared machine changes speed by tens of percent within seconds, so every
# timed interval is bracketed by CAL_SAMPLES runs of a fixed calibration loop
# on each side, and times are reported in seconds at the reference speed:
# measured seconds x CAL_REF_S over the median calibration time around them.
# CAL_REF_S is the loop's time on the machine where the benchmark was defined,
# when it was quiet (see README.md).
CAL_REF_S = 0.0018
CAL_SAMPLES = 4
_CAL_ROWS = tuple((math.cos(0.7 * k), math.sin(0.7 * k), 1.0 + 0.1 * k) for k in range(12))
_CAL_REPS = 27


def _calibration_loop() -> float:
    """Pair-intersection enumeration over fixed rows: the same kind of
    interpreter work as polycbf's QP core, in code polycbf cannot change."""
    best = math.inf
    rows = _CAL_ROWS
    for _ in range(_CAL_REPS):
        for i, (a1, b1, c1) in enumerate(rows):
            for a2, b2, c2 in rows[i + 1:]:
                det = a1 * b2 - b1 * a2
                if abs(det) < 1e-12:
                    continue
                x = (c1 * b2 - c2 * b1) / det
                y = (a1 * c2 - a2 * c1) / det
                if all(a * x + b * y - c <= 1e-9 for a, b, c in rows):
                    best = min(best, (x - 0.3) ** 2 + (y + 0.2) ** 2)
    return best


def calibrations():
    out = []
    for _ in range(CAL_SAMPLES):
        t = time.perf_counter()
        _calibration_loop()
        out.append(time.perf_counter() - t)
    return out


def timed(fn, *args):
    """(result, measured seconds, seconds at the reference speed)."""
    before = calibrations()
    t = time.perf_counter()
    result = fn(*args)
    dt = time.perf_counter() - t
    speed = statistics.median(before + calibrations())
    return result, dt, dt * CAL_REF_S / speed


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)  # reads package metadata, imports nothing
    except metadata.PackageNotFoundError:
        return "absent"


def environment() -> dict:
    import numpy  # already loaded by polycbf
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": _version("scipy"),
        "commit": _git_commit(),
        "machine": platform.machine(),
        "openblas_coretype": os.environ["OPENBLAS_CORETYPE"],
    }


class Runner:
    """One workload in one process: set-up, ops, outcome checks."""

    def __init__(self, workload: str):
        self.tmp = RUN_DIR / f"tmp-{os.getpid()}"
        _, self.setup_raw_s, self.setup_s = timed(self._setup, workload)
        self.reference = json.loads((BENCH / "reference.json").read_text())["digests"][workload]
        self.attempted = 0
        self.failed = 0

    def _setup(self, workload):
        """Import polycbf from the checkout and build the workload's inputs."""
        sys.path.insert(0, str(SRC))
        import polycbf
        if not Path(polycbf.__file__).resolve().is_relative_to(SRC):
            raise RuntimeError(f"polycbf imported from {polycbf.__file__}, not {SRC}")
        import workloads
        self.w = workloads.WORKLOADS[workload]()
        (self.tmp / "inputs").mkdir(parents=True, exist_ok=True)
        self.pool = self.w.build(self.tmp / "inputs")
        self.digest = workloads.digest

    def run_op(self, index, tracer=None):
        """Run pool entry `index`; returns (measured seconds, seconds at the
        reference speed, digest), all None when the op raised."""
        out = self.tmp / "out"
        out.mkdir(exist_ok=True)
        inp = self.pool[index]
        self.attempted += 1
        try:
            if tracer is None:
                result, raw, dt = timed(self.w.op, inp, out)
            else:
                result, raw, dt = timed(tracer.op, self.w.op, inp, out)
            got = self.digest(self.w.outcome(result, out))
        except Exception:  # an op that raises is a failed op; keep measuring
            self.failed += 1
            print(f"op {index} raised:\n{traceback.format_exc()}", file=sys.stderr)
            return None, None, None
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if got != self.reference.get(str(index)):
            self.failed += 1
            print(f"op {index}: outcome digest {got} differs from the reference",
                  file=sys.stderr)
        return raw, dt, got

    def order(self, seed: int):
        """Pool indices for the warm ops: seeded permutations, one after another."""
        rng = random.Random(f"{self.w.name}:{seed}")
        while True:
            idx = list(range(len(self.pool)))
            rng.shuffle(idx)
            yield from idx

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)


def tail(samples):
    """Highest percentile with at least ten samples beyond it:
    (value, percentile, samples beyond)."""
    s = sorted(samples)
    k = len(s) - 10
    if k < 1:
        return s[-1], 100.0, 0
    return s[k - 1], 100.0 * k / len(s), len(s) - k


def cold_op(runner):
    """(scaled, measured) seconds of the first op, on pool entry 0, or None."""
    raw, dt, _ = runner.run_op(0)
    return None if dt is None else (dt, raw)


def child_main(args) -> int:
    runner = Runner(args.workload)
    try:
        cold = cold_op(runner)
    finally:
        runner.close()
    print(json.dumps({"setup": [runner.setup_s, runner.setup_raw_s], "cold": cold,
                      "failed": runner.failed}))
    return 0


def untraced(args, runner, lines):
    setups, colds = [(runner.setup_s, runner.setup_raw_s)], []
    cold = cold_op(runner)
    if cold is not None:
        colds.append(cold)
    for _ in range(COLD_CHILDREN):
        runner.attempted += 1
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
                 "--seed", str(args.seed), "--child"],
                cwd=ROOT, capture_output=True, text=True, timeout=120)
            child = json.loads(proc.stdout.strip().splitlines()[-1])
        except (subprocess.TimeoutExpired, IndexError, ValueError) as exc:
            proc, child = exc, None
        if child is None or proc.returncode != 0 or child["failed"]:
            runner.failed += 1
            print(f"cold-op child failed:\n{getattr(proc, 'stderr', '')}", file=sys.stderr)
            continue
        setups.append(tuple(child["setup"]))
        colds.append(tuple(child["cold"]))

    times, raws, vsteps = [], [], 0
    deadline = time.perf_counter() + args.seconds
    for index in runner.order(args.seed):
        raw, dt, _ = runner.run_op(index)
        if dt is not None:
            times.append(dt)
            raws.append(raw)
            vsteps += runner.w.vsteps(runner.pool[index])
        if time.perf_counter() >= deadline:
            break
    if not times or not colds:
        return {}
    value, pct, beyond = tail(times)
    med = statistics.median
    lines.append(f"# {len(setups)} set-ups and {len(colds)} cold ops, each in a fresh "
                 f"process (medians reported); {len(times)} warm ops")
    lines.append(f"# op_s.tail is p{pct:.1f} of {len(times)} warm ops, {beyond} beyond it")
    lines.append(f"# measured, unscaled: setup_s {med(r for _, r in setups):.6g}, "
                 f"cold_op_s {med(r for _, r in colds):.6g}, op_s.p50 {med(raws):.6g}, "
                 f"op_s.tail {tail(raws)[0]:.6g}; machine speed against the reference "
                 f"{med(t / r for t, r in zip(times, raws)):.4g}")
    return {
        "setup_s": med(t for t, _ in setups),
        "cold_op_s": med(t for t, _ in colds),
        "op_s.p50": med(times),
        "op_s.tail": value,
        "vsteps_per_s": vsteps / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }


def traced(args, runner, lines):
    from tracing import Tracer
    import workloads

    runner.run_op(0)  # cold op, untraced
    tracer = Tracer()
    plain, with_trace = [], []
    deadline = time.perf_counter() + args.seconds
    for index in runner.order(args.seed):
        _, dt0, d0 = runner.run_op(index)
        tracer.install()
        try:
            _, dt1, d1 = runner.run_op(index, tracer)
        finally:
            tracer.uninstall()
        if d0 is not None and d1 is not None and d0 != d1:
            runner.failed += 1
            print(f"op {index}: traced digest differs from untraced", file=sys.stderr)
        if dt0 is not None and dt1 is not None:
            plain.append(dt0)
            with_trace.append(dt1)
        if time.perf_counter() >= deadline:
            break
    if not with_trace:
        return {}
    metrics = tracer.module_metrics(len(with_trace))
    metrics["bench.trace_overhead"] = statistics.median(with_trace) / statistics.median(plain)

    # Platoon scaling: QP size and engine cost as the roster grows.
    not_restored = []
    for n, steps in SCALING_STEPS.items():
        scale = Tracer()
        scale.install()
        try:
            scale.op(workloads.scenario.simulate, workloads.platoon_config(0, n=n, n_steps=steps))
        finally:
            scale.uninstall()
        _, rows_mean, us_per_qp = scale.qp_summary()
        metrics[f"scaling.n{n}.controller.rows_mean"] = rows_mean
        metrics[f"scaling.n{n}.controller.us_per_qp"] = us_per_qp
        metrics[f"scaling.n{n}.scenario.self_us_per_vstep"] = (
            1e6 * scale.scenario_self_s() / scale.counts["scenario.vsteps"])
        not_restored += scale.not_restored()

    not_restored += tracer.not_restored()
    if not_restored:
        runner.failed += 1
        print(f"wrapped attributes not restored: {not_restored}", file=sys.stderr)
    if tracer.missing:
        lines.append(f"# not traced (absent from the code): {', '.join(tracer.missing)}")
    lines.append(f"# {len(with_trace)} ops traced, each also run untraced; "
                 "counts and seconds are per traced op")

    RUN_DIR.mkdir(exist_ok=True)
    out = RUN_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    out.write_text(json.dumps({"environment": environment(), "spans": tracer.spans,
                               "frames": tracer.agg}, indent=0))
    lines.append(f"# spans written to {out.relative_to(ROOT)}")
    return metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in SPEC["workloads"]])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not (SRC / "polycbf" / "__init__.py").is_file():
        print(f"error: no polycbf sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.child:
        return child_main(args)

    runner = Runner(args.workload)
    scipy_before = "scipy" in sys.modules
    lines = []
    try:
        metrics = (traced if args.trace else untraced)(args, runner, lines)
    finally:
        runner.close()
    env = environment()
    print(f"# polycbf benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# scipy loaded before the cold op: {'yes' if scipy_before else 'no'}; "
          f"at exit: {'yes' if 'scipy' in sys.modules else 'no'}")
    for line in lines:
        print(line)
    for name, value in metrics.items():
        print(f"{name:44s} {value:.6g} {UNITS[name]}")
    ratio = runner.failed / runner.attempted if runner.attempted else 1.0
    print(f"{'failed_ops_ratio':44s} {ratio:.6g} ({runner.failed} of {runner.attempted} ops)")
    if not metrics:
        print("error: no op completed", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
