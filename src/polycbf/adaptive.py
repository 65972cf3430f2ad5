"""Adaptive merging: identify the other driver's style, then act on it.

Phase one of the loop watches an interacting pair and fits the observed
vehicle's barrier coefficients from clearance data.  At a fixed step budget
the ego mirrors the estimate through the preset table STYLE_PRESETS (the
more aggressive the other driver scores, the more conservative the ego's
pick) and, for the rest of the run, filters its control against every
neighbor plus a compatibility row that keeps its chosen style consistent
with the estimate.

The module also declares the adaptive experiment: its settings (the
[adaptive] config section) and its driver, which makes two runs.  The
prediction-off baseline is a plain simulate run, and its first phase_budget
steps are the observation phase; the loop is a branch that resumes the
baseline's log at the budget under the selected style.  Last comes the
assumption-mismatch stress test of the compatibility row.  The shipped
three-vehicle roster is the adaptive preset file, read by
polycbf.cli.load_preset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

from .barrier import AlphaVector, SafetyConfig, _kappa, kappa, safety_value
from .controller import _cruise, _row_terms, _solve_scalar
from .dynamics import DEFAULT_DT, VehicleState, step
from .errors import ConfigurationError
from .learner import AlphaEstimate, StyleLearner
from .scenario import ScenarioConfig, TrialRecord, _check_counts, _trial_rng, simulate

__all__ = [
    "REFERENCE_H",
    "STYLE_PRESETS",
    "aggressiveness_score",
    "select_alpha",
    "AdaptiveSettings",
    "AdaptiveRecord",
    "AdaptiveComparison",
    "experiment_prediction_in_loop",
    "MismatchTrial",
    "experiment_assumption_mismatch",
]


def _style_gap(alpha_i, alpha_j):
    """Coefficient difference alpha_i - alpha_j, both padded to the longer order."""
    q = max(alpha_i.q, alpha_j.q)
    return tuple(ci - cj for ci, cj in zip(alpha_i.padded(q), alpha_j.padded(q)))


# The ego's style table: preset styles ordered least to most aggressive at
# the reference clearance REFERENCE_H, stepping the weight from the linear
# term to the cubic one.
STYLE_PRESETS: Tuple[AlphaVector, ...] = (
    AlphaVector((1.0, 0.0)),
    AlphaVector((0.75, 0.25)),
    AlphaVector((0.5, 0.5)),
    AlphaVector((0.25, 0.75)),
    AlphaVector((0.0, 1.0)),
)
REFERENCE_H = 25.0


def aggressiveness_score(alpha: AlphaVector) -> float:
    """Barrier decay a style tolerates at REFERENCE_H; higher is pushier."""
    return kappa(alpha, REFERENCE_H)


_PRESET_SCORES = tuple(aggressiveness_score(a) for a in STYLE_PRESETS)


def select_alpha(alpha_j_hat: AlphaVector) -> AlphaVector:
    """Mirror the estimated style: rank it among STYLE_PRESETS, pick the
    rank's reflection, so an aggressive other driver draws a conservative
    ego.  A score exactly between two presets counts as the more aggressive
    one."""
    s = aggressiveness_score(alpha_j_hat)
    best_k = 0
    best_d = abs(s - _PRESET_SCORES[0])
    for k in range(1, len(_PRESET_SCORES)):
        d = abs(s - _PRESET_SCORES[k])
        if d <= best_d:
            best_d = d
            best_k = k
    return STYLE_PRESETS[len(STYLE_PRESETS) - 1 - best_k]


@dataclass(frozen=True)
class AdaptiveSettings:
    """Settings of experiment_prediction_in_loop, the [adaptive] config section."""

    phase_budget: int = 300

    def __post_init__(self):
        _check_counts(phase_budget=self.phase_budget)


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
    a simulate run of the scenario as configured, and its learner fields keep
    their defaults.  The enabled run's trial is that baseline resumed at the
    phase budget under the selected style, so its relaxed_steps counts the
    steps from the budget on; when no style was selected it is the
    baseline's own TrialRecord object."""

    trial: TrialRecord
    prediction_enabled: bool
    estimate_history: Tuple[AlphaEstimate, ...] = ()
    sample_steps: Tuple[int, ...] = ()
    selected_alpha: Optional[AlphaVector] = None
    final_estimate: Optional[AlphaEstimate] = None
    converged_at: Optional[int] = None
    converged_within_budget: bool = False


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


def experiment_prediction_in_loop(
        scenario: ScenarioConfig,
        settings: AdaptiveSettings = AdaptiveSettings()) -> AdaptiveComparison:
    """Paired runs on the same scenario, with prediction on and off.

    The prediction-off baseline is simulate(scenario): the ego keeps its
    configured style and holds no compatibility row.  Its first
    settings.phase_budget steps are the enabled run's observation phase:
    StyleLearner.observe reads the baseline's logged states up to the
    budget (analytic, zero nominal, no box, no cap), watching the object
    against the first neighbor.  At the budget the ego mirrors the
    estimate, if any, and the enabled run is the baseline resumed there
    under the scenario with the ego driving the selected style and, once
    the learner has converged, holding the compatibility row against the
    object.  When no style is selected (no sample admitted by the budget,
    or a run that ends before it) the enabled trial is the baseline's own
    TrialRecord, and no second run is made.

    The roster must contain exactly one ego, exactly one object (the vehicle
    being identified), and at least one neighbor.  The observer takes the
    analytic rate: it reconstructs the object's acceleration from
    consecutive velocities, which the model makes exact.
    """
    phase_budget = settings.phase_budget
    ego_idx, obj_idx, nbr_idx = _roster(scenario)
    baseline = simulate(scenario)
    learner = StyleLearner()
    sample_steps = learner.observe(baseline.log.states[:phase_budget + 1], obj_idx, nbr_idx,
                                   scenario.safety, scenario.dt)
    trial, selected = baseline, None
    if phase_budget <= scenario.n_steps and learner.estimate is not None:
        selected = select_alpha(learner.estimate.alpha_hat)
        ego = replace(scenario.vehicles[ego_idx], alpha=selected)
        if learner.converged:
            ego = replace(ego, compat=(scenario.vehicles[obj_idx].name,
                                       _style_gap(selected, learner.estimate.alpha_hat)))
        styled = replace(scenario, vehicles=tuple(ego if k == ego_idx else v
                                                  for k, v in enumerate(scenario.vehicles)))
        trial = simulate(styled, resume=(baseline.log, phase_budget))
    enabled = AdaptiveRecord(
        trial=trial,
        prediction_enabled=True,
        estimate_history=tuple(learner.history),
        sample_steps=tuple(sample_steps),
        selected_alpha=selected,
        final_estimate=learner.estimate,
        converged_at=learner.converged_at,
        converged_within_budget=learner.converged,
    )
    disabled = AdaptiveRecord(trial=baseline, prediction_enabled=False)
    ego_name = scenario.vehicles[ego_idx].name

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
    the object's is [-80, 80]^2.  The object's program is the one
    simulate's pair loop builds: the _cruise nominal (its start speed along
    +x, gain 0.8) and one _row_terms row with bound s + kappa(alpha_j, h).
    Both programs go to _solve_scalar, and dynamics.step advances the pair.
    """
    _check_counts(n_trials=n_trials)
    safety, dt, n_steps, bound, obj_bound = SafetyConfig(), DEFAULT_DT, 1200, 2.5, 80.0
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

        coeffs_j = alpha_j.coefficients
        gap = _style_gap(alpha_i, alpha_j)
        min_h = math.inf
        ego_bad = obj_bad = 0
        # The ego's raw inputs, drawn at once: the same numbers, in the same
        # order, as one (x, y) draw per step.
        raw = rng.uniform((-0.3 * bound, -0.2), (bound, 0.2), size=(n_steps, 2)).tolist()
        for raw_x, raw_y in raw:
            ex, ey = ego.position.tolist()
            ox, oy = obj.position.tolist()
            ev_x, ev_y = ego.velocity.tolist()
            ov_x, ov_y = obj.velocity.tolist()
            # The ego's compatibility row, as simulate appends it: the
            # direction of its safety row and the bound kappa(gap, h), at the
            # clearance h of the states this step starts from.  h is
            # safety_value's arithmetic on the same offset, so it also feeds
            # the closest approach and the object's row.
            dx, dy = ex - ox, ey - oy
            h = dx * dx + dy * dy - safety.r_safe * safety.r_safe
            ax, ay, _ = _row_terms(dx, dy, ev_x - ov_x, ev_y - ov_y, dt)
            if h < min_h:
                min_h = h
            ub_x, ub_y = _cruise(0.8, v_obj, 1.0, 0.0, ov_x, ov_y,
                                 -obj_bound, -obj_bound, obj_bound, obj_bound)
            oa_x, oa_y, s = _row_terms(ox - ex, oy - ey, ov_x - ev_x, ov_y - ev_y, dt)
            uo_x, uo_y, ok, _, _ = _solve_scalar(
                ub_x, ub_y, -obj_bound, -obj_bound, obj_bound, obj_bound,
                ((oa_x, oa_y, s + _kappa(coeffs_j, h)),))
            if not ok:
                obj_bad += 1
            ux, uy, ok, _, _ = _solve_scalar(
                raw_x, raw_y, -bound, -bound, bound, bound, ((ax, ay, _kappa(gap, h)),))
            if not ok:
                ego_bad += 1
            ego = step(ego, (ux, uy), dt)
            obj = step(obj, (uo_x, uo_y), dt)
        h = safety_value(ego.position, obj.position, safety)
        if h < min_h:
            min_h = h
        trials.append(MismatchTrial(alpha_i, alpha_j, float(min_h),
                                    ego_bad, obj_bad))
    return trials
