"""The four benchmark workloads: their input pools, one op each, and outcomes.

Every workload draws its ops from a fixed pool of inputs.  Pool entry 0 is
the workload's canonical input and is the cold op of every run; warm ops walk
seeded permutations of the whole pool.  Each entry has a reference digest of
its outcome in reference.json, recorded at the commit that defined the
benchmark, so an op with any workload seed is checked against a reference.

An op calls into polycbf through module attributes (``cli.main``,
``scenario.simulate``, ``adaptive.experiment_assumption_mismatch``) so that
the traced run's wrappers see the call.
"""

from __future__ import annotations

import configparser
import contextlib
import csv
import hashlib
import io
import json
from importlib import resources
from pathlib import Path

import numpy as np

import polycbf.adaptive as adaptive
import polycbf.cli as cli
import polycbf.scenario as scenario
from polycbf import AlphaVector, ScenarioConfig, VehicleSpec, default_geometry


class OpFailed(Exception):
    """The program under test returned a failure for an op."""


def _g17(x) -> str:
    return format(float(x), ".17g")


def digest(outcome) -> str:
    text = json.dumps(outcome, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _read_columns(path: Path, columns):
    """Selected CSV columns by header name; a missing column reads as None,
    so columns added later do not change the digest and removed ones do."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return {c: [r.get(c) for r in rows] for c in columns}


def _run_cli(argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise OpFailed(f"polycbf {' '.join(argv)} exited {code}")


class Invariance:
    """``polycbf run invariance --seed s --trials 2`` on the shipped preset."""

    name = "invariance"
    pool_size = 64
    trials = 2
    n_steps = 1200  # the shipped preset's trial length
    # Columns of metrics.csv at the commit that defined the benchmark.
    columns = ("trial", "collision", "infeasible_steps", "min_h",
               "merge_step:ego", "merge_step:other")

    def build(self, work_dir: Path):
        return list(range(self.pool_size))

    def vsteps(self, seed) -> int:
        # K trials plus the CLI's replay of the worst one, two vehicles each.
        return (self.trials + 1) * self.n_steps * 2

    def op(self, seed, out_dir: Path):
        _run_cli(["run", "invariance", "--seed", str(seed),
                  "--trials", str(self.trials), "--out", str(out_dir)])

    def outcome(self, result, out_dir: Path):
        return _read_columns(out_dir / "invariance" / "metrics.csv", self.columns)


class Adaptive:
    """``polycbf run adaptive --config f``: the shipped preset with the
    object's style drawn uniformly from the unit square (entry 0 keeps the
    preset's own style)."""

    name = "adaptive"
    pool_size = 16
    runs = 2  # prediction enabled and disabled
    metrics_columns = ("run", "prediction_enabled", "collision", "infeasible_steps",
                       "min_h", "merge_step:lead", "merge_step:object",
                       "merge_step:ego", "ego_merge_step", "overall_step",
                       "converged_at", "selected_alpha_0", "selected_alpha_1")
    estimates_columns = ("sample_index", "step", "alpha_0", "alpha_1",
                         "raw_0", "raw_1")

    def build(self, work_dir: Path):
        text = resources.files("polycbf").joinpath("presets", "adaptive.cfg").read_text(
            encoding="utf-8")
        paths = []
        for i in range(self.pool_size):
            cp = configparser.ConfigParser(interpolation=None)
            cp.read_string(text)
            if i > 0:
                a = np.random.default_rng(i).uniform(0.0, 1.0, size=2)
                cp.set("vehicle.object", "alpha", f"{float(a[0])!r} {float(a[1])!r}")
            path = work_dir / f"adaptive_{i:02d}.cfg"
            with open(path, "w", encoding="utf-8") as fh:
                cp.write(fh)
            paths.append(path)
        self._n_steps = cp.getint("scenario", "n_steps")
        self._n_vehicles = sum(1 for s in cp.sections() if s.startswith("vehicle."))
        return paths

    def vsteps(self, path) -> int:
        return self.runs * self._n_steps * self._n_vehicles

    def op(self, path, out_dir: Path):
        _run_cli(["run", "adaptive", "--config", str(path), "--out", str(out_dir)])

    def outcome(self, result, out_dir: Path):
        d = out_dir / "adaptive"
        return {"metrics": _read_columns(d / "metrics.csv", self.metrics_columns),
                "estimates": _read_columns(d / "estimates.csv", self.estimates_columns)}


def platoon_config(seed: int, n: int = 16, n_steps: int = 90) -> ScenarioConfig:
    """n vehicles, half on the ramp and half on the main road of an 8 degree
    merge, 10-14 m apart within each lane, both lanes' leaders 38-44 m before
    the merge, so cross-lane pairs meet inside the run."""
    rng = np.random.default_rng(seed)
    vehicles = []
    for lane, count in (("ramp", n - n // 2), ("main", n // 2)):
        progress = -38.0 - rng.uniform(0.0, 6.0)
        for k in range(count):
            vehicles.append(VehicleSpec(
                name=f"{lane}{k}", route=lane, start_progress=progress,
                speed=rng.uniform(9.0, 10.5), desired_speed=rng.uniform(9.0, 10.5),
                gain=0.8, alpha=AlphaVector(tuple(rng.uniform(0.0, 1.0, size=2)))))
            progress -= rng.uniform(10.0, 14.0)
    return ScenarioConfig(geometry=default_geometry(ramp_angle_deg=8.0),
                          vehicles=tuple(vehicles), dt=0.01, n_steps=n_steps)


class Platoon:
    """One ``simulate(cfg)`` on a 16-vehicle two-lane roster."""

    name = "platoon"
    pool_size = 32

    def build(self, work_dir: Path):
        return [platoon_config(i) for i in range(self.pool_size)]

    def vsteps(self, cfg) -> int:
        return cfg.n_steps * len(cfg.vehicles)

    def op(self, cfg, out_dir: Path):
        return scenario.simulate(cfg)

    def outcome(self, rec, out_dir: Path):
        m = rec.metrics
        return {"min_h": {f"{a}:{b}": _g17(h) for (a, b), h in m.min_h.items()},
                "merge_step": m.merge_step,
                "infeasible_steps": m.infeasible_step_count,
                "collision": bool(m.collision),
                "relaxed_steps": rec.relaxed_steps}


class Mismatch:
    """One ``experiment_assumption_mismatch(n_trials=1, seed=s)``."""

    name = "mismatch"
    pool_size = 64
    n_steps = 1200  # the experiment's default trial length

    def build(self, work_dir: Path):
        return list(range(self.pool_size))

    def vsteps(self, seed) -> int:
        return self.n_steps * 2

    def op(self, seed, out_dir: Path):
        return adaptive.experiment_assumption_mismatch(n_trials=1, seed=seed)

    def outcome(self, trials, out_dir: Path):
        return [{"alpha_i": [_g17(c) for c in t.alpha_i.coefficients],
                 "alpha_j": [_g17(c) for c in t.alpha_j.coefficients],
                 "min_h": _g17(t.min_h),
                 "ego_row_infeasible": t.ego_row_infeasible,
                 "object_infeasible": t.object_infeasible} for t in trials]


WORKLOADS = {w.name: w for w in (Invariance, Adaptive, Platoon, Mismatch)}
