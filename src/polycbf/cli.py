"""Command-line front end: run shipped experiments, write their artifacts,
validate configuration files.

Every run leaves a self-describing output directory: one or more CSV files
plus a manifest.json naming each emitted file with its SHA-256 checksum.
All floats are written with 17 significant digits, so parsing a CSV back
recovers the in-memory values exactly, and rerunning the same config with
the same seed reproduces every CSV byte for byte.

Trajectory CSV columns, in order: step, vehicle, x, y, vx, vy, ux, uy,
feasible, then one ``h:<A>:<B>`` clearance column per vehicle pair.  Each
step contributes one row per vehicle; the clearance columns repeat on every
row of the step.

Exit codes: 0 on success, 2 for unknown subcommands or experiments (usage
error), 3 for a config that cannot be parsed or fails construction, 4 when
a run completes but flags a collision (artifacts are still written).

The default output directory is ``polycbf-out`` under the current
directory; set POLYCBF_OUT or pass --out to move it.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import dataclasses
import hashlib
import json
import math
import os
import sys
from importlib import resources
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .adaptive import StylePolicy
from .barrier import AlphaVector, SafetyConfig
from .controller import ControlLimits
from .errors import ConfigurationError, DomainError
from .learner import RidgeConfig
from .scenario import (COLLISION_TOL, ScenarioConfig, TrajectoryLog, VehicleSpec,
                       adaptive_preset_config, default_geometry,
                       experiment_behavior_sweep, experiment_invariance,
                       experiment_prediction, experiment_prediction_in_loop,
                       invariance_trial_setup, prediction_trial_setup, run_trial,
                       sweep_trial_config)

__all__ = [
    "main",
    "read_trajectory_csv",
    "write_trajectory_csv",
    "EXPERIMENTS",
    "OUT_ENV",
]

EXPERIMENTS = ("predict", "sweep", "adaptive", "invariance")
OUT_ENV = "POLYCBF_OUT"

TRAJECTORY_COLUMNS = ("step", "vehicle", "x", "y", "vx", "vy", "ux", "uy",
                      "feasible")


def _g17(x: float) -> str:
    return format(float(x), ".17g")


def _opt(value: Optional[int]) -> str:
    return "" if value is None else str(value)


# ---------------------------------------------------------------------------
# Config parsing.  Flat INI sections; float lists are whitespace separated,
# style lists separate entries with "|".

def _parse_config(text: str) -> configparser.ConfigParser:
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigurationError(f"config does not parse: {exc}") from exc
    return cp


def _load_config(path: Path) -> configparser.ConfigParser:
    return _parse_config(path.read_text(encoding="utf-8"))


def _preset_text(name: str) -> str:
    ref = resources.files("polycbf").joinpath("presets").joinpath(f"{name}.cfg")
    try:
        return ref.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ConfigurationError(f"no shipped preset named {name!r}")


def _get(cp, section: str, key: str, default=None, required: bool = False) -> Optional[str]:
    if cp.has_option(section, key):
        return cp.get(section, key)
    if required:
        raise ConfigurationError(f"[{section}] is missing required key {key!r}")
    return default


def _get_float(cp, section: str, key: str, default: float) -> float:
    raw = _get(cp, section, key)
    if raw is None:
        return default
    try:
        return float(raw)
    except ValueError:
        raise ConfigurationError(f"[{section}] {key} = {raw!r} is not a number")


def _get_int(cp, section: str, key: str, default: Optional[int]) -> Optional[int]:
    raw = _get(cp, section, key)
    if raw is None or raw.strip() == "":
        return default
    try:
        return int(raw)
    except ValueError:
        raise ConfigurationError(f"[{section}] {key} = {raw!r} is not an integer")


def _get_bool(cp, section: str, key: str, default: bool) -> bool:
    raw = _get(cp, section, key)
    if raw is None:
        return default
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigurationError(f"[{section}] {key} = {raw!r} is not a boolean")


def _parse_floats(raw: str, where: str, n: Optional[int] = None) -> Tuple[float, ...]:
    parts = raw.replace(",", " ").split()
    try:
        vals = tuple(float(p) for p in parts)
    except ValueError:
        raise ConfigurationError(f"{where}: expected numbers, got {raw!r}")
    if n is not None and len(vals) != n:
        raise ConfigurationError(f"{where}: expected {n} numbers, got {len(vals)}")
    return vals


def _get_pair(cp, section: str, key: str, default: Tuple[float, float]) -> Tuple[float, float]:
    raw = _get(cp, section, key)
    if raw is None:
        return default
    vals = _parse_floats(raw, f"[{section}] {key}", n=2)
    return (vals[0], vals[1])


def _parse_styles(raw: str, where: str) -> List[AlphaVector]:
    out: List[AlphaVector] = []
    for chunk in raw.split("|"):
        coeffs = _parse_floats(chunk, where)
        if not coeffs:
            raise ConfigurationError(f"{where}: empty style entry")
        out.append(AlphaVector(coeffs))
    return out


def _get_alpha(cp, section: str, key: str, default: Optional[AlphaVector]) -> Optional[AlphaVector]:
    raw = _get(cp, section, key)
    if raw is None:
        return default
    styles = _parse_styles(raw, f"[{section}] {key}")
    if len(styles) != 1:
        raise ConfigurationError(f"[{section}] {key}: expected a single style")
    return styles[0]


def _build_safety(cp) -> SafetyConfig:
    return SafetyConfig(r_safe=_get_float(cp, "safety", "r_safe", 5.0),
                        q=_get_int(cp, "safety", "q", 2))


def _build_ridge(cp, safety: SafetyConfig) -> Optional[RidgeConfig]:
    if not cp.has_section("ridge"):
        return None
    thr_raw = _get(cp, "ridge", "admission_threshold")
    if thr_raw is not None and thr_raw.strip().lower() == "none":
        threshold: Optional[float] = None
    else:
        threshold = _get_float(cp, "ridge", "admission_threshold", 0.01)
    return RidgeConfig(
        regularizer=_get_float(cp, "ridge", "regularizer", 1e-8),
        q_hypothesis=_get_int(cp, "ridge", "q_hypothesis", safety.q),
        convergence_tol=_get_float(cp, "ridge", "convergence_tol", 1e-6),
        convergence_window=_get_int(cp, "ridge", "convergence_window", 5),
        admission_threshold=threshold,
    )


def _build_policy(cp) -> Optional[StylePolicy]:
    if not cp.has_section("policy"):
        return None
    raw = _get(cp, "policy", "presets", required=True)
    presets = tuple(_parse_styles(raw, "[policy] presets"))
    return StylePolicy(presets=presets,
                       reference_h=_get_float(cp, "policy", "reference_h", 25.0))


def _build_limits(cp, section: str) -> Optional[ControlLimits]:
    lo_raw = _get(cp, section, "accel_min")
    hi_raw = _get(cp, section, "accel_max")
    if lo_raw is None and hi_raw is None:
        return None
    if lo_raw is None or hi_raw is None:
        raise ConfigurationError(f"[{section}] needs both accel_min and accel_max")
    lo = _parse_floats(lo_raw, f"[{section}] accel_min", n=2)
    hi = _parse_floats(hi_raw, f"[{section}] accel_max", n=2)
    return ControlLimits(lo, hi)


def _build_vehicle(cp, section: str) -> VehicleSpec:
    name = section[len("vehicle."):]
    if not name or name != name.strip() or any(c in name for c in ":,"):
        raise ConfigurationError(
            f"[{section}]: vehicle names must be non-empty and free of ':' and ','")
    alpha = _get_alpha(cp, section, "alpha", None)
    if alpha is None:
        raise ConfigurationError(f"[{section}] is missing required key 'alpha'")
    kwargs = dict(
        name=name,
        role=_get(cp, section, "role", "neighbor"),
        route=_get(cp, section, "route", "main"),
        start_progress=_get_float(cp, section, "start_progress", -80.0),
        speed=_get_float(cp, section, "speed", 10.0),
        desired_speed=_get_float(cp, section, "desired_speed", 10.0),
        gain=_get_float(cp, section, "gain", 0.8),
        alpha=alpha,
    )
    limits = _build_limits(cp, section)
    if limits is not None:
        kwargs["limits"] = limits
    pos_raw = _get(cp, section, "start_position")
    if pos_raw is not None:
        kwargs["start_position"] = tuple(_parse_floats(pos_raw, f"[{section}] start_position", n=2))
    head_raw = _get(cp, section, "heading")
    if head_raw is not None:
        kwargs["heading"] = tuple(_parse_floats(head_raw, f"[{section}] heading", n=2))
    return VehicleSpec(**kwargs)


def _build_geometry(cp):
    geom = default_geometry(
        merge_x=_get_float(cp, "scenario", "merge_x", 100.0),
        ramp_angle_deg=_get_float(cp, "scenario", "ramp_angle_deg", 15.0),
        ramp_length=_get_float(cp, "scenario", "ramp_length", 120.0))
    look = _get_float(cp, "scenario", "lookahead", geom.lookahead)
    if look != geom.lookahead:
        geom = dataclasses.replace(geom, lookahead=look)
    return geom


def _vehicle_sections(cp) -> List[str]:
    return [s for s in cp.sections() if s.startswith("vehicle.")]


def _build_scenario(cp, seed: int) -> ScenarioConfig:
    # Section order in the file is roster order; the adaptive observer
    # watches the object against the first neighbor, so order matters.
    vehicles = tuple(_build_vehicle(cp, s) for s in _vehicle_sections(cp))
    if not vehicles:
        raise ConfigurationError("config declares no [vehicle.*] sections")
    return ScenarioConfig(
        geometry=_build_geometry(cp),
        vehicles=vehicles,
        dt=_get_float(cp, "scenario", "dt", 0.01),
        n_steps=_get_int(cp, "scenario", "n_steps", 3000),
        safety=_build_safety(cp),
        seed=seed,
    )


# ---------------------------------------------------------------------------
# CSV emission and re-parsing.

def write_trajectory_csv(path: Path, log: TrajectoryLog) -> None:
    """One row per (step, vehicle); clearances repeat on each row of a step."""
    n_rows, n_veh = log.states.shape[0], log.states.shape[1]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        pair_cols = [f"h:{log.names[i]}:{log.names[j]}" for i, j in log.pairs]
        w.writerow(list(TRAJECTORY_COLUMNS) + pair_cols)
        for t in range(n_rows):
            hvals = [_g17(log.pair_h[t, p]) for p in range(len(log.pairs))]
            for v in range(n_veh):
                w.writerow([t, log.names[v],
                            _g17(log.states[t, v, 0]), _g17(log.states[t, v, 1]),
                            _g17(log.states[t, v, 2]), _g17(log.states[t, v, 3]),
                            _g17(log.inputs[t, v, 0]), _g17(log.inputs[t, v, 1]),
                            int(bool(log.feasible[t, v]))] + hvals)


def read_trajectory_csv(path: Path, dt: float) -> TrajectoryLog:
    """Rebuild a TrajectoryLog from its CSV; exact because floats are written
    with 17 significant digits.  dt is not stored in the file (the manifest's
    config carries it), so the caller supplies it."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ConfigurationError(f"{path}: empty trajectory file")
    header, body = rows[0], rows[1:]
    base = list(header[:len(TRAJECTORY_COLUMNS)])
    if base != list(TRAJECTORY_COLUMNS):
        raise ConfigurationError(f"{path}: unexpected columns {base}")
    names: List[str] = []
    for row in body:
        if row[1] in names:
            break
        names.append(row[1])
    n_veh = len(names)
    if n_veh == 0 or len(body) % n_veh != 0:
        raise ConfigurationError(f"{path}: ragged trajectory body")
    n_rows = len(body) // n_veh
    index = {n: i for i, n in enumerate(names)}
    pairs: List[Tuple[int, int]] = []
    for col in header[len(TRAJECTORY_COLUMNS):]:
        tag, a, b = col.split(":")
        if tag != "h":
            raise ConfigurationError(f"{path}: unexpected column {col!r}")
        pairs.append((index[a], index[b]))
    states = np.zeros((n_rows, n_veh, 4))
    inputs = np.zeros((n_rows, n_veh, 2))
    pair_h = np.zeros((n_rows, len(pairs)))
    feasible = np.ones((n_rows, n_veh), dtype=bool)
    for k, row in enumerate(body):
        t, v = k // n_veh, k % n_veh
        if int(row[0]) != t or row[1] != names[v]:
            raise ConfigurationError(f"{path}: rows out of order at line {k + 2}")
        states[t, v] = [float(c) for c in row[2:6]]
        inputs[t, v] = [float(c) for c in row[6:8]]
        feasible[t, v] = bool(int(row[8]))
        if v == 0:
            pair_h[t] = [float(c) for c in row[9:]]
    return TrajectoryLog(names=tuple(names), pairs=tuple(pairs), dt=dt,
                         states=states, inputs=inputs, pair_h=pair_h,
                         feasible=feasible)


def _write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(list(header))
        for row in rows:
            w.writerow(list(row))


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(out_dir: Path, experiment: str, config_label: str,
                    seed: int, files: Sequence[Path]) -> Path:
    entries = [{"name": f.name, "sha256": _sha256(f), "bytes": f.stat().st_size}
               for f in sorted(files, key=lambda f: f.name)]
    doc = {
        "experiment": experiment,
        "config": config_label,
        "seed": seed,
        "out_dir": str(out_dir),
        "files": entries,
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# Experiment runners.  Each returns (stdout lines, emitted files, collision
# diagnostic or None).

def _run_predict(cp, seed: int, trials: Optional[int], out_dir: Path):
    safety = _build_safety(cp)
    ridge = _build_ridge(cp, safety)
    q = ridge.q_hypothesis if ridge is not None else safety.q
    mode = _get(cp, "predict", "mode", "analytic")
    dt = _get_float(cp, "predict", "dt", 0.01)
    n_steps = _get_int(cp, "predict", "n_steps", 4000)
    closing = _get_pair(cp, "predict", "closing_range", (0.5, 0.9))
    margin = _get_pair(cp, "predict", "margin_range", (1.0, 2.5))
    cap = _get_int(cp, "predict", "sample_cap", None)
    n_trials = trials if trials is not None else _get_int(cp, "predict", "trials", 30)

    summary = experiment_prediction(n_trials=n_trials, seed=seed, mode=mode,
                                    ridge=ridge, safety=safety, dt=dt,
                                    n_steps=n_steps, closing_range=closing,
                                    margin_range=margin, sample_cap=cap)

    header = (["trial"] + [f"truth_{k}" for k in range(q)]
              + [f"estimate_{k}" for k in range(q)]
              + ["rmse", "converged_at", "n_admitted"])
    rows = []
    est_rows = []
    for idx, t in enumerate(summary.trials):
        rows.append([idx] + [_g17(c) for c in t.truth.coefficients]
                    + [_g17(c) for c in t.estimate_alpha]
                    + [_g17(t.rmse), _opt(t.converged_at), t.n_admitted])
        for s, est in enumerate(t.estimate_series):
            est_rows.append([idx, s] + [_g17(c) for c in est])
    metrics = out_dir / "metrics.csv"
    _write_csv(metrics, header, rows)
    estimates = out_dir / "estimates.csv"
    _write_csv(estimates, ["trial", "sample_index"] + [f"alpha_{k}" for k in range(q)],
               est_rows)

    # Trajectory of the hardest trial (largest estimation error).
    worst = max(range(n_trials), key=lambda k: summary.trials[k].rmse)
    _, cfg = prediction_trial_setup(worst, seed=seed, q=q, safety=safety, dt=dt,
                                    n_steps=n_steps, closing_range=closing,
                                    margin_range=margin)
    rec = run_trial(cfg)
    trajectory = out_dir / "trajectory.csv"
    write_trajectory_csv(trajectory, rec.log)

    lines = [
        f"predict: {n_trials} trials, mode {mode}",
        f"mean rmse {summary.mean_rmse:.6e}, worst rmse {summary.trials[worst].rmse:.6e} (trial {worst})",
    ]
    conv = summary.max_convergence_samples
    lines.append("all trials converged within %d admitted samples" % conv
                 if conv is not None else "not every trial converged")
    diag = None
    if rec.metrics.collision:
        diag = f"collision flagged in the trajectory of trial {worst}"
    return lines, [metrics, estimates, trajectory], diag


def _sweep_kwargs(cp) -> dict:
    return dict(
        other_alpha=_get_alpha(cp, "sweep", "other_alpha", AlphaVector((0.75, 0.25))),
        safety=_build_safety(cp),
        dt=_get_float(cp, "sweep", "dt", 0.01),
        n_steps=_get_int(cp, "sweep", "n_steps", 3200),
        ramp_angle_deg=_get_float(cp, "sweep", "ramp_angle_deg", 30.0),
        ego_progress=_get_float(cp, "sweep", "ego_progress", -40.0),
        other_progress=_get_float(cp, "sweep", "other_progress", -40.0),
        ego_speed=_get_float(cp, "sweep", "ego_speed", 3.0),
        other_speed=_get_float(cp, "sweep", "other_speed", 3.0),
        accel_bound=_get_float(cp, "sweep", "accel_bound", 8.0),
    )


def _run_sweep(cp, seed: int, out_dir: Path):
    raw = _get(cp, "sweep", "styles", required=True)
    styles = _parse_styles(raw, "[sweep] styles")
    kwargs = _sweep_kwargs(cp)
    entries = experiment_behavior_sweep(styles, **kwargs)

    q = max(len(s.coefficients) for s in styles)
    header = (["style_index"] + [f"alpha_{k}" for k in range(q)]
              + ["min_distance", "min_h", "ego_merge_step", "other_merge_step",
                 "merge_order", "infeasible_steps"])
    rows = []
    files = []
    width = max(2, len(str(len(entries) - 1)))
    for idx, e in enumerate(entries):
        coeffs = list(e.alpha.coefficients) + [0.0] * (q - len(e.alpha.coefficients))
        rows.append([idx] + [_g17(c) for c in coeffs]
                    + [_g17(e.min_distance), _g17(e.min_h),
                       _opt(e.ego_merge_step), _opt(e.other_merge_step),
                       e.merge_order or "", e.infeasible_step_count])
        dist = out_dir / f"distance_style_{idx:0{width}d}.csv"
        _write_csv(dist, ["step", "distance"],
                   [[t, _g17(d)] for t, d in enumerate(e.distance)])
        files.append(dist)
    metrics = out_dir / "metrics.csv"
    _write_csv(metrics, header, rows)

    # Trajectory of the tightest style (smallest clearance margin).
    worst = min(range(len(entries)), key=lambda k: entries[k].min_h)
    rec = run_trial(sweep_trial_config(styles[worst], **kwargs))
    trajectory = out_dir / "trajectory.csv"
    write_trajectory_csv(trajectory, rec.log)

    orders = "".join((e.merge_order or "?")[0].upper() for e in entries)
    lines = [
        f"sweep: {len(entries)} styles, merge orders {orders}",
        "min distance per style: " + ", ".join("%.3f" % e.min_distance for e in entries),
        f"tightest clearance {min(e.min_h for e in entries):.6f} (style {worst})",
    ]
    diag = None
    if any(e.min_h < COLLISION_TOL for e in entries):
        bad = [i for i, e in enumerate(entries) if e.min_h < COLLISION_TOL]
        diag = f"collision flagged for style indices {bad}"
    return lines, [metrics, trajectory] + files, diag


def _run_adaptive(cp, seed: int, out_dir: Path):
    if _vehicle_sections(cp):
        cfg = _build_scenario(cp, seed)
    else:
        cfg = adaptive_preset_config(seed=seed)
    ridge = _build_ridge(cp, cfg.safety)
    policy = _build_policy(cp)
    budget = _get_int(cp, "adaptive", "phase_budget", 300)
    hdot_mode = _get(cp, "adaptive", "hdot_mode", "analytic")

    comparison = experiment_prediction_in_loop(seed=seed, cfg=cfg, policy=policy,
                                               ridge=ridge, phase_budget=budget,
                                               hdot_mode=hdot_mode)
    enabled, disabled = comparison.enabled, comparison.disabled
    q = cfg.safety.q

    names = [v.name for v in cfg.vehicles]
    header = (["run", "prediction_enabled", "collision", "infeasible_steps", "min_h"]
              + [f"merge_step:{n}" for n in names]
              + ["ego_merge_step", "overall_step", "converged_at"]
              + [f"selected_alpha_{k}" for k in range(q)])
    rows = []
    for label, record, ego_step, overall in (
            ("enabled", enabled, comparison.ego_step_enabled, comparison.overall_enabled),
            ("disabled", disabled, comparison.ego_step_disabled, comparison.overall_disabled)):
        m = record.trial.metrics
        selected = record.selected_alpha.coefficients if record.selected_alpha else ()
        rows.append([label, int(record.prediction_enabled), int(m.collision),
                     m.infeasible_step_count, _g17(min(m.min_h.values()))]
                    + [_opt(m.merge_step[n]) for n in names]
                    + [ego_step, overall, _opt(record.converged_at)]
                    + [_g17(c) for c in selected] + [""] * (q - len(selected)))
    metrics = out_dir / "metrics.csv"
    _write_csv(metrics, header, rows)

    est_rows = [[k, step] + [_g17(c) for c in est.alpha_hat.coefficients]
                + [_g17(c) for c in est.raw]
                for k, (step, est) in enumerate(zip(enabled.sample_steps,
                                                    enabled.estimate_history))]
    estimates = out_dir / "estimates.csv"
    _write_csv(estimates,
               ["sample_index", "step"] + [f"alpha_{k}" for k in range(q)]
               + [f"raw_{k}" for k in range(q)],
               est_rows)

    traj_on = out_dir / "trajectory_enabled.csv"
    write_trajectory_csv(traj_on, enabled.trial.log)
    traj_off = out_dir / "trajectory_disabled.csv"
    write_trajectory_csv(traj_off, disabled.trial.log)

    lines = [
        "adaptive: ego merge step %d with prediction vs %d without (%.1f%% earlier)"
        % (comparison.ego_step_enabled, comparison.ego_step_disabled,
           comparison.ego_delta_pct),
        "overall completion %d vs %d (%.1f%% earlier)"
        % (comparison.overall_enabled, comparison.overall_disabled,
           comparison.overall_delta_pct),
    ]
    if enabled.selected_alpha is not None:
        lines.append("selected style (%s) after converging at sample %s"
                     % (", ".join(_g17(c) for c in enabled.selected_alpha.coefficients),
                        enabled.converged_at))
    else:
        lines.append("estimate never converged; ego kept its configured style")
    diag = None
    flagged = [label for label, record in (("enabled", enabled), ("disabled", disabled))
               if record.trial.metrics.collision]
    if flagged:
        diag = f"collision flagged in {' and '.join(flagged)} run"
    return lines, [metrics, estimates, traj_on, traj_off], diag


def _run_invariance(cp, seed: int, trials: Optional[int], out_dir: Path):
    n_trials = trials if trials is not None else _get_int(cp, "invariance", "trials", 100)
    kwargs = dict(
        safety=_build_safety(cp),
        dt=_get_float(cp, "invariance", "dt", 0.01),
        n_steps=_get_int(cp, "invariance", "n_steps", 1200),
        ramp_angle_deg=_get_float(cp, "invariance", "ramp_angle_deg", 8.0),
        speed_range=_get_pair(cp, "invariance", "speed_range", (9.0, 10.5)),
        progress_range=_get_pair(cp, "invariance", "progress_range", (-90.0, -60.0)),
    )
    metrics_list = experiment_invariance(n_trials=n_trials, seed=seed, **kwargs)

    rows = []
    for idx, m in enumerate(metrics_list):
        rows.append([idx, int(m.collision), m.infeasible_step_count,
                     _g17(min(m.min_h.values())),
                     _opt(m.merge_step.get("ego")), _opt(m.merge_step.get("other"))])
    metrics = out_dir / "metrics.csv"
    _write_csv(metrics, ["trial", "collision", "infeasible_steps", "min_h",
                         "merge_step:ego", "merge_step:other"], rows)

    worst = min(range(n_trials), key=lambda k: min(metrics_list[k].min_h.values()))
    rec = run_trial(invariance_trial_setup(worst, seed=seed, **kwargs))
    trajectory = out_dir / "trajectory.csv"
    write_trajectory_csv(trajectory, rec.log)

    n_collisions = sum(m.collision for m in metrics_list)
    worst_h = min(min(m.min_h.values()) for m in metrics_list)
    total_inf = sum(m.infeasible_step_count for m in metrics_list)
    lines = [
        f"invariance: {n_trials} randomized trials, {n_collisions} collisions",
        f"worst clearance {worst_h:.6f} (trial {worst}), "
        f"{total_inf} infeasible filter steps in total",
    ]
    diag = None
    if n_collisions:
        bad = [i for i, m in enumerate(metrics_list) if m.collision]
        diag = f"collision flagged in trials {bad}"
    return lines, [metrics, trajectory], diag


def _cmd_run(args) -> int:
    experiment = args.experiment
    if args.config is not None:
        config_path = Path(args.config)
        cp = _load_config(config_path)
        config_label = str(args.config)
    else:
        preset = "sweep_weights" if experiment == "sweep" else experiment
        cp = _parse_config(_preset_text(preset))
        config_label = f"preset:{preset}"

    declared = _get(cp, "run", "experiment", experiment)
    if declared != experiment:
        raise ConfigurationError(
            f"config declares experiment {declared!r} but {experiment!r} was requested")
    _rule_counts(cp)
    seed = args.seed if args.seed is not None else _get_int(cp, "run", "seed", 0)
    if seed < 0:
        raise ConfigurationError(f"seed = {seed} is not >= 0")
    if args.trials is not None and args.trials < 1:
        raise ConfigurationError(f"--trials = {args.trials} is not >= 1")
    if args.trials is not None and experiment in ("sweep", "adaptive"):
        print(f"note: --trials has no effect on {experiment}", file=sys.stderr)

    base = Path(args.out) if args.out is not None else \
        Path(os.environ.get(OUT_ENV, "polycbf-out"))
    out_dir = base / experiment
    out_dir.mkdir(parents=True, exist_ok=True)

    if experiment == "predict":
        lines, files, diag = _run_predict(cp, seed, args.trials, out_dir)
    elif experiment == "sweep":
        lines, files, diag = _run_sweep(cp, seed, out_dir)
    elif experiment == "adaptive":
        lines, files, diag = _run_adaptive(cp, seed, out_dir)
    else:
        lines, files, diag = _run_invariance(cp, seed, args.trials, out_dir)

    manifest = _write_manifest(out_dir, experiment, config_label, seed, files)
    for line in lines:
        print(line)
    print(f"wrote {len(files) + 1} files to {out_dir}")
    if diag is not None:
        print(f"SAFETY: {diag}; see {manifest}", file=sys.stderr)
        return 4
    return 0


# ---------------------------------------------------------------------------
# validate: per-rule diagnostics, always exits 0 unless the file is unreadable.

def _rule_experiment(cp) -> str:
    declared = _get(cp, "run", "experiment", required=True)
    if declared not in EXPERIMENTS:
        raise ConfigurationError(f"unknown experiment {declared!r}")
    return f"experiment {declared!r}"


def _rule_seed(cp) -> str:
    seed = _get_int(cp, "run", "seed", 0)
    if seed < 0:
        raise ConfigurationError(f"[run] seed = {seed} is not >= 0")
    return f"seed {seed}"


def _rule_timestep(cp) -> str:
    found = []
    for section in cp.sections():
        if cp.has_option(section, "dt"):
            dt = _get_float(cp, section, "dt", 0.0)
            if not (math.isfinite(dt) and dt > 0.0):
                raise ConfigurationError(f"[{section}] dt = {dt} is not > 0")
            found.append(f"[{section}] {dt}")
    return "; ".join(found) if found else "no dt keys declared (defaults apply)"


def _rule_counts(cp) -> str:
    found = []
    for section in cp.sections():
        for key in ("n_steps", "trials", "phase_budget"):
            if cp.has_option(section, key):
                value = _get_int(cp, section, key, 0)
                if value < 1:
                    raise ConfigurationError(f"[{section}] {key} = {value} is not >= 1")
                found.append(f"[{section}] {key}={value}")
    return "; ".join(found) if found else "no count keys declared (defaults apply)"


def _rule_safety(cp) -> str:
    safety = _build_safety(cp)
    return f"r_safe {safety.r_safe}, order {safety.q}"


def _rule_styles(cp) -> str:
    n = 0
    for section, key in (("sweep", "styles"), ("sweep", "other_alpha"),
                         ("policy", "presets")):
        raw = _get(cp, section, key)
        if raw is not None:
            n += len(_parse_styles(raw, f"[{section}] {key}"))
    for section in _vehicle_sections(cp):
        if _get_alpha(cp, section, "alpha", None) is not None:
            n += 1
    return f"{n} style vectors parsed, all coefficients non-negative" if n \
        else "no style keys declared"


def _rule_vehicles(cp) -> str:
    sections = _vehicle_sections(cp)
    for section in sections:
        _build_vehicle(cp, section)
    return f"{len(sections)} vehicle sections valid" if sections \
        else "no vehicle sections declared"


def _rule_geometry(cp) -> str:
    geom = _build_geometry(cp)
    return (f"merge at x={geom.merge_point[0]:g}, "
            f"lookahead {geom.lookahead:g}")


def _rule_roster(cp) -> str:
    sections = _vehicle_sections(cp)
    if not sections:
        return "no roster declared"
    vehicles = [_build_vehicle(cp, s) for s in sections]
    names = [v.name for v in vehicles]
    if len(names) != len(set(names)):
        raise ConfigurationError(f"duplicate vehicle names in {names}")
    roles = [v.role for v in vehicles]
    if roles.count("ego") > 1:
        raise ConfigurationError("more than one ego vehicle")
    if _get(cp, "run", "experiment") == "adaptive":
        if roles.count("ego") != 1 or roles.count("object") != 1 \
                or roles.count("neighbor") < 1:
            raise ConfigurationError(
                f"adaptive runs need one ego, one object, and a neighbor; got {roles}")
    return f"roster {names} with roles {roles}"


def _rule_ridge(cp) -> str:
    ridge = _build_ridge(cp, _build_safety(cp))
    if ridge is None:
        return "no [ridge] section (defaults apply)"
    return (f"regularizer {ridge.regularizer:g}, "
            f"tol {ridge.convergence_tol:g}, window {ridge.convergence_window}")


def _rule_policy(cp) -> str:
    policy = _build_policy(cp)
    if policy is None:
        return "no [policy] section (defaults apply)"
    return f"{len(policy.presets)} presets, strictly ordered by aggressiveness"


_VALIDATE_RULES = (
    ("experiment", _rule_experiment),
    ("seed", _rule_seed),
    ("timestep", _rule_timestep),
    ("counts", _rule_counts),
    ("safety", _rule_safety),
    ("styles", _rule_styles),
    ("vehicles", _rule_vehicles),
    ("geometry", _rule_geometry),
    ("roster", _rule_roster),
    ("ridge", _rule_ridge),
    ("policy", _rule_policy),
)


def _cmd_validate(args) -> int:
    path = Path(args.config)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1

    results: List[Tuple[str, bool, str]] = []
    cp = None
    try:
        cp = _parse_config(text)
        results.append(("parse", True, "well-formed"))
    except ConfigurationError as exc:
        results.append(("parse", False, str(exc)))
    for name, rule in _VALIDATE_RULES:
        if cp is None:
            results.append((name, False, "not evaluated: config did not parse"))
            continue
        try:
            results.append((name, True, rule(cp)))
        except (ConfigurationError, DomainError) as exc:
            results.append((name, False, str(exc)))

    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    n_fail = sum(1 for _, ok, _ in results if not ok)
    print(f"{len(results) - n_fail} of {len(results)} rules passed")
    return 0


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polycbf",
        description="Safety-filtered merging experiments: run shipped presets "
                    "or your own configs, and validate config files.",
        epilog=f"Output directory: --out, else ${OUT_ENV}, else ./polycbf-out. "
               "Each run writes CSVs plus a manifest.json with checksums.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment and write its artifacts")
    run.add_argument("experiment", choices=EXPERIMENTS,
                     help="which experiment to run")
    run.add_argument("--config", help="config file (defaults to the shipped preset)")
    run.add_argument("--seed", type=int, help="override the config's seed")
    run.add_argument("--trials", type=int,
                     help="override the trial count (predict and invariance)")
    run.add_argument("--out", help="output directory root")

    val = sub.add_parser("validate", help="check a config file rule by rule")
    val.add_argument("config", help="config file to check")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_validate(args)
    except (ConfigurationError, DomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
