"""Adaptive merging: identify the other driver's style, then act on it.

Phase one of the loop watches an interacting pair and fits the observed
vehicle's barrier coefficients from clearance data.  At a fixed step budget
the ego mirrors the estimate through a preset table (the more aggressive the
other driver scores, the more conservative the ego's pick) and, for the rest
of the run, filters its control against every neighbor plus a
compatibility row that keeps its chosen style consistent with the estimate.

The module also declares the adaptive experiment: its settings (the
[adaptive] config section) and the paired driver that sets the loop against
its prediction-off baseline, a plain simulate run; and the
assumption-mismatch stress test of the compatibility row.  The shipped
three-vehicle roster is the adaptive preset file, read by
polycbf.cli.load_preset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .barrier import AlphaVector, SafetyConfig, _kappa, kappa, safety_value
from .controller import ControlLimits, NominalPlan, _solve_scalar, safe_control
from .dynamics import DEFAULT_DT, VehicleState, step
from .errors import ConfigurationError
from .learner import AlphaEstimate, RidgeConfig, StyleLearner
from .scenario import (OBSERVATION_MODES, ScenarioConfig, TrialRecord, _check_counts,
                       _observe_rows, _trial_rng, simulate)

__all__ = [
    "aggressiveness_score",
    "StylePolicy",
    "DEFAULT_POLICY",
    "select_alpha",
    "AdaptiveSettings",
    "AdaptiveRecord",
    "run_adaptive_merge",
    "AdaptiveComparison",
    "experiment_prediction_in_loop",
    "MismatchTrial",
    "experiment_assumption_mismatch",
]


def _style_gap(alpha_i, alpha_j):
    """Coefficient difference alpha_i - alpha_j, both padded to the longer order."""
    q = max(alpha_i.q, alpha_j.q)
    return tuple(ci - cj for ci, cj in zip(alpha_i.padded(q), alpha_j.padded(q)))


def _compat_row(dx_x, dx_y, gap, cfg, dt):
    """Row (ax, ay, b), a.u <= b, tying the ego's braking authority to the
    style mismatch, and the clearance h it is formed at, as (ax, ay, b, h);
    dx is ego minus other and gap the _style_gap of the two styles (ego's
    first): no validation, the adaptive merge's row hook.

    Against an other vehicle whose filter runs alpha_j, an ego running
    alpha_i must not out-brake the clearance budget the two styles disagree
    by: -2 dx . u * dt <= kappa(alpha_i - alpha_j, h).  Equal styles give
    the bound 0, and an ego whose coefficients are componentwise at least the
    other's keeps it non-negative at h >= 0, so the row only ever bites on
    approach.  h = |dx|^2 - r_safe^2 is safety_value's arithmetic on the same
    offset, so the mismatch trial folds it into its closest approach instead
    of measuring the clearance of each state a second time.
    """
    h = dx_x * dx_x + dx_y * dx_y - cfg.r_safe * cfg.r_safe
    return -2.0 * dx_x * dt, -2.0 * dx_y * dt, _kappa(gap, h), h


def aggressiveness_score(alpha: AlphaVector, reference_h: float) -> float:
    """Barrier decay a style tolerates at a reference clearance; higher is pushier."""
    if not (math.isfinite(reference_h) and reference_h > 0.0):
        raise ConfigurationError(f"reference_h must be > 0, got {reference_h}")
    return kappa(alpha, reference_h)


@dataclass(frozen=True)
class StylePolicy:
    """Preset styles ordered least to most aggressive at a reference clearance,
    the [policy] config section.  The default table steps the weight from the
    linear term to the cubic one."""

    presets: Tuple[AlphaVector, ...] = (
        AlphaVector((1.0, 0.0)),
        AlphaVector((0.75, 0.25)),
        AlphaVector((0.5, 0.5)),
        AlphaVector((0.25, 0.75)),
        AlphaVector((0.0, 1.0)),
    )
    reference_h: float = 25.0

    def __post_init__(self):
        if len(self.presets) == 0:
            raise ConfigurationError("policy needs at least one preset")
        scores = self.scores()
        for k in range(1, len(scores)):
            if not scores[k] > scores[k - 1]:
                raise ConfigurationError(
                    f"preset scores must increase strictly, got {scores}")

    def scores(self) -> Tuple[float, ...]:
        return tuple(aggressiveness_score(a, self.reference_h) for a in self.presets)


DEFAULT_POLICY = StylePolicy()


def select_alpha(alpha_j_hat: AlphaVector, policy: StylePolicy) -> AlphaVector:
    """Mirror the estimated style: rank it among the presets, pick the rank's
    reflection, so an aggressive other driver draws a conservative ego.  A
    score exactly between two presets counts as the more aggressive one."""
    s = aggressiveness_score(alpha_j_hat, policy.reference_h)
    scores = policy.scores()
    best_k = 0
    best_d = abs(s - scores[0])
    for k in range(1, len(scores)):
        d = abs(s - scores[k])
        if d <= best_d:
            best_d = d
            best_k = k
    return policy.presets[len(policy.presets) - 1 - best_k]


@dataclass(frozen=True)
class AdaptiveSettings:
    """Settings of experiment_prediction_in_loop, the [adaptive] config section."""

    phase_budget: int = 300
    hdot_mode: str = "analytic"

    def __post_init__(self):
        _check_counts(phase_budget=self.phase_budget)
        if self.hdot_mode not in OBSERVATION_MODES:
            raise ConfigurationError(f"unknown hdot_mode {self.hdot_mode!r}")


def _roster(cfg: ScenarioConfig) -> Tuple[int, int, int]:
    """Indices of the ego, the object and the first neighbor of an adaptive
    roster, which needs exactly one ego, exactly one object and a neighbor.
    A route ego must start before the merge: the runs' deltas are measured
    against its merge step, which would be 0."""
    roles = [v.role for v in cfg.vehicles]
    if roles.count("ego") != 1 or roles.count("object") != 1 or "neighbor" not in roles:
        raise ConfigurationError(
            f"adaptive runs need one ego, one object, and a neighbor; got {roles}")
    ego = cfg.vehicles[roles.index("ego")]
    if ego.route != "fixed" and cfg.geometry.progress(
            ego.route, cfg.geometry.place(ego.route, ego.start_progress)) > 0.0:
        raise ConfigurationError(
            f"adaptive runs need the ego to start before the merge; ego {ego.name!r} "
            f"starts past it, at start_progress {ego.start_progress}")
    return roles.index("ego"), roles.index("object"), roles.index("neighbor")


@dataclass
class AdaptiveRecord:
    """Everything one adaptive run produced.  The prediction-off baseline is
    a plain simulate trial, and its learner fields keep their defaults."""

    trial: TrialRecord
    prediction_enabled: bool
    estimate_history: Tuple[AlphaEstimate, ...] = ()
    sample_steps: Tuple[int, ...] = ()
    selected_alpha: Optional[AlphaVector] = None
    final_estimate: Optional[AlphaEstimate] = None
    converged_at: Optional[int] = None
    converged_within_budget: bool = False


def run_adaptive_merge(cfg: ScenarioConfig,
                       settings: AdaptiveSettings = AdaptiveSettings(),
                       policy: StylePolicy = DEFAULT_POLICY,
                       ridge: RidgeConfig = RidgeConfig()) -> AdaptiveRecord:
    """Two-phase merge: observe and fit for settings.phase_budget steps, then
    drive with the mirrored style (plus the compatibility row once the
    estimate has converged).  Its baseline, the ego keeping its configured
    style, is simulate(cfg) itself.

    The roster must contain exactly one ego, exactly one object (the vehicle
    being identified), and at least one neighbor; the object is observed
    against the first neighbor.  The hooks hand simulate the compatibility
    row as the (ax, ay, b) triple _compat_row forms.
    """
    phase_budget, hdot_mode = settings.phase_budget, settings.hdot_mode
    ego_idx, obj_idx, nbr_idx = _roster(cfg)
    dt = cfg.dt
    safety = cfg.safety
    learner = StyleLearner(ridge)
    ego_alpha = cfg.vehicles[ego_idx].alpha
    selected: Optional[AlphaVector] = None
    gap = None
    sample_steps: List[int] = []

    def alpha_fn(t: int, v: int) -> AlphaVector:
        if v == ego_idx:
            return ego_alpha
        return cfg.vehicles[v].alpha

    def on_step(t_next: int, prev: np.ndarray, cur: np.ndarray):
        nonlocal ego_alpha, selected, gap
        if t_next <= phase_budget and not learner.converged:
            u_obs = (cur[obj_idx, 2:] - prev[obj_idx, 2:]) / dt
            if learner.admits(u_obs):
                learner.add(_observe_rows(hdot_mode, prev, cur, obj_idx, nbr_idx, u_obs,
                                          safety, dt, t_next))
                sample_steps.append(t_next)
        if t_next == phase_budget and learner.estimate is not None:
            selected = ego_alpha = select_alpha(learner.estimate.alpha_hat, policy)
            # The learner takes no sample after the budget, so the estimate
            # and the ego's style, and their gap, are final from here on.
            gap = _style_gap(selected, learner.estimate.alpha_hat)

    def extra_rows_fn(t: int, v: int, cur: np.ndarray):
        if v != ego_idx or t < phase_budget or not learner.converged:
            return ()
        # A learner converged by the budget had an estimate when the ego
        # selected its style, so the gap is set.
        dx_x, dx_y = (cur[ego_idx, :2] - cur[obj_idx, :2]).tolist()
        return (_compat_row(dx_x, dx_y, gap, safety, dt)[:3],)

    trial = simulate(cfg, alpha_fn=alpha_fn, extra_rows_fn=extra_rows_fn,
                     on_step=on_step)

    return AdaptiveRecord(
        trial=trial,
        prediction_enabled=True,
        estimate_history=tuple(learner.history),
        sample_steps=tuple(sample_steps),
        selected_alpha=selected,
        final_estimate=learner.estimate,
        converged_at=learner.converged_at,
        converged_within_budget=learner.converged,
    )


# ---------------------------------------------------------------------------
# Prediction-in-the-loop: the same three-vehicle merge run with the style
# learner and without it.

@dataclass
class AdaptiveComparison:
    enabled: AdaptiveRecord
    disabled: AdaptiveRecord
    ego_step_enabled: int
    ego_step_disabled: int
    overall_enabled: int
    overall_disabled: int

    @property
    def ego_delta_pct(self) -> float:
        return 100.0 * (self.ego_step_disabled - self.ego_step_enabled) / self.ego_step_disabled

    @property
    def overall_delta_pct(self) -> float:
        return 100.0 * (self.overall_disabled - self.overall_enabled) / self.overall_disabled


def experiment_prediction_in_loop(scenario: ScenarioConfig,
                                  settings: AdaptiveSettings = AdaptiveSettings(),
                                  ridge: RidgeConfig = RidgeConfig(),
                                  policy: StylePolicy = DEFAULT_POLICY) -> AdaptiveComparison:
    """Paired runs on the same scenario: run_adaptive_merge with prediction
    on, and simulate(scenario) as the prediction-off baseline, the ego
    keeping its configured style and no hook installed.

    Observation defaults to AdaptiveSettings.hdot_mode, the analytic rate
    (the observer reconstructs the object's acceleration from consecutive
    velocities, which the model makes exact); settings with
    hdot_mode="finite_diff" difference clearances instead.
    """
    enabled = run_adaptive_merge(scenario, settings, policy, ridge)
    disabled = AdaptiveRecord(trial=simulate(scenario), prediction_enabled=False)
    # run_adaptive_merge has checked the roster, so it has exactly one ego.
    ego_name = scenario.vehicles[_roster(scenario)[0]].name

    def completion(record, name):
        s = record.trial.metrics.merge_step[name]
        return s if s is not None else scenario.n_steps + 1

    def overall(record):
        return max(completion(record, v.name) for v in scenario.vehicles)

    return AdaptiveComparison(
        enabled=enabled, disabled=disabled,
        ego_step_enabled=completion(enabled, ego_name),
        ego_step_disabled=completion(disabled, ego_name),
        overall_enabled=overall(enabled),
        overall_disabled=overall(disabled),
    )


# ---------------------------------------------------------------------------
# Sufficiency stress test for the compatibility row.

@dataclass(frozen=True)
class MismatchTrial:
    """One stress trial: the object filtered under a constant-velocity belief
    about the ego while the ego's inputs obeyed only the compatibility row."""

    alpha_i: AlphaVector
    alpha_j: AlphaVector
    min_h: float
    ego_row_infeasible: int
    object_infeasible: int


def experiment_assumption_mismatch(n_trials: int = 100, seed: int = 0) -> List[MismatchTrial]:
    """Pairwise safety when the object's model of the ego is plain wrong.

    The object runs the ordinary safety filter assuming the ego holds
    constant velocity.  The ego ignores safety entirely: each step it draws
    a random forward-biased acceleration and keeps the nearest input that
    satisfies its style-compatibility row against the object.  The ego's
    style is sampled componentwise above the object's, which keeps that row
    satisfiable (zero input always qualifies while clearance is nonnegative),
    and under those two constraint sets alone the pair must stay clear.

    The guarantee presumes both constraint sets are actually enforced, so
    the object gets actuator limits wide enough that its filter never
    saturates against the pressing ego; each trial reports residual
    infeasible steps on either side so that presumption is checkable.

    The setup is fixed: each trial runs 1200 steps of DEFAULT_DT under the
    default SafetyConfig, the ego's acceleration box is [-2.5, 2.5]^2 and
    the object's is [-80, 80]^2.
    """
    _check_counts(n_trials=n_trials)
    safety, dt, n_steps, bound = SafetyConfig(), DEFAULT_DT, 1200, 2.5
    object_limits = ControlLimits((-80.0, -80.0), (80.0, 80.0))
    trials: List[MismatchTrial] = []
    for idx in range(n_trials):
        rng = _trial_rng(seed, idx)
        alpha_j = AlphaVector(tuple(rng.uniform(0.0, 1.0, size=safety.q)))
        alpha_i = AlphaVector(tuple(c + e for c, e in
                                    zip(alpha_j.coefficients,
                                        rng.uniform(0.0, 1.0, size=safety.q))))
        v_obj = rng.uniform(9.0, 10.5)
        v_ego = v_obj + rng.uniform(-0.3, 0.8)
        h0 = rng.uniform(20.0, 60.0)
        d0 = math.sqrt(h0 + safety.r_safe * safety.r_safe)
        ego = VehicleState((0.0, 0.0), (v_ego, 0.0))
        obj = VehicleState((d0, 0.0), (v_obj, 0.0))
        plan_obj = NominalPlan(v_obj, (1.0, 0.0), 0.8)

        gap = _style_gap(alpha_i, alpha_j)
        min_h = math.inf
        ego_bad = obj_bad = 0
        # The ego's raw inputs, drawn at once: the same numbers, in the same
        # order, as one (x, y) draw per step.
        raw = rng.uniform((-0.3 * bound, -0.2), (bound, 0.2), size=(n_steps, 2)).tolist()
        for raw_x, raw_y in raw:
            # safe_control rejects coincident positions before the ego's row.
            sol_j = safe_control(obj, [(ego, None)], alpha_j, plan_obj,
                                 safety, object_limits, dt)
            if not sol_j.feasible:
                obj_bad += 1
            ex, ey = ego.position.tolist()
            ox, oy = obj.position.tolist()
            # h is the clearance of the states this step starts from.
            ax, ay, b, h = _compat_row(ex - ox, ey - oy, gap, safety, dt)
            if h < min_h:
                min_h = h
            ux, uy, ok, _, _ = _solve_scalar(
                raw_x, raw_y, -bound, -bound, bound, bound, ((ax, ay, b),))
            if not ok:
                ego_bad += 1
            ego = step(ego, (ux, uy), dt)
            obj = step(obj, sol_j.u, dt)
        h = safety_value(ego.position, obj.position, safety)
        if h < min_h:
            min_h = h
        trials.append(MismatchTrial(alpha_i, alpha_j, float(min_h),
                                    ego_bad, obj_bad))
    return trials
