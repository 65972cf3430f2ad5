"""Style compatibility rows, preset selection, and the adaptive merge loop."""
import dataclasses
import math

import numpy as np
import pytest

from helpers import safety_row_oracle

from polycbf import (
    REFERENCE_H,
    STYLE_PRESETS,
    AdaptiveSettings,
    AlphaVector,
    ConfigurationError,
    SafetyConfig,
    aggressiveness_score,
    experiment_assumption_mismatch,
    experiment_prediction_in_loop,
    kappa,
    run_adaptive_merge,
    select_alpha,
    simulate,
)
from polycbf.adaptive import _style_gap
from polycbf.barrier import safety_value
from polycbf.cli import load_preset
from polycbf.controller import _row_terms
from polycbf.scenario import _with_compat

CFG = SafetyConfig(r_safe=5.0, q=2)


def compat_row(dx_x, dx_y, gap, cfg, dt):
    """The compatibility row (ax, ay, b) that simulate appends for a vehicle
    at offset dx from the vehicle named in its entry, and their clearance h,
    as (ax, ay, b, h)."""
    rows = [_row_terms(dx_x, dx_y, 0.0, 0.0, dt)]
    r2 = cfg.r_safe * cfg.r_safe
    ax, ay, b = _with_compat(rows, 0, 1, gap, (dx_x, 0.0), (dx_y, 0.0), r2)[-1]
    return ax, ay, b, safety_value((dx_x, dx_y), (0.0, 0.0), cfg)


def preset_config(n_steps):
    """The shipped adaptive roster, cut to n_steps."""
    return dataclasses.replace(load_preset("adaptive")["scenario"], n_steps=n_steps)


def test_compatibility_row_hand_example():
    # distance 6 gives h = 11 with basis (11, 1331); exact halves keep the
    # arithmetic representable
    ax, ay, b, _ = compat_row(6.0, 0.0, _style_gap(AlphaVector((1.0, 0.0)),
                                                   AlphaVector((0.5, 0.5))), CFG, 0.01)
    assert (ax, ay) == pytest.approx((-0.12, 0.0), rel=1e-15, abs=0.0)
    assert b == 0.5 * 11.0 - 0.5 * 1331.0


def test_compatibility_row_pads_mixed_orders():
    gap = _style_gap(AlphaVector((2.0,)), AlphaVector((0.5, 0.25)))
    assert gap == (1.5, -0.25)
    _, _, b, _ = compat_row(6.0, 0.0, gap, CFG, 0.01)
    assert b == pytest.approx(1.5 * 11.0 - 0.25 * 1331.0, rel=1e-12)


def test_compatibility_row_is_safety_margin_difference():
    # b equals the difference of the two styles' safety offsets, and the
    # direction vector is the shared safety row direction
    rng = np.random.default_rng(0)
    dt = 0.01
    r2 = CFG.r_safe * CFG.r_safe
    for _ in range(100):
        dx_x, dx_y = (-rng.uniform(6, 25, 2)).tolist()
        dv_x, dv_y = rng.uniform(-16, 16, 2).tolist()
        ai = AlphaVector(tuple(rng.uniform(0.0, 2.0, 2)))
        aj = AlphaVector(tuple(rng.uniform(0.0, 2.0, 2)))
        ax, ay, b, h = compat_row(dx_x, dx_y, _style_gap(ai, aj), CFG, dt)
        assert h == dx_x * dx_x + dx_y * dx_y - r2
        ax1, ay1, b1 = safety_row_oracle(dx_x, dx_y, dv_x, dv_y, 0.0, 0.0, h,
                                         ai.coefficients, dt)
        ax2, ay2, b2 = safety_row_oracle(dx_x, dx_y, dv_x, dv_y, 0.0, 0.0, h,
                                         aj.coefficients, dt)
        assert (ax, ay) == (ax1, ay1) == (ax2, ay2)
        assert b == pytest.approx(b1 - b2, rel=1e-9, abs=1e-9)


def test_compatibility_bound_is_zero_for_equal_styles_and_nonnegative_under_dominance():
    # equal styles leave the ego no braking budget to spend (bound 0), and an
    # ego whose coefficients are componentwise at least the other's keeps a
    # non-negative bound at every non-negative clearance
    rng = np.random.default_rng(4)
    for _ in range(200):
        aj = AlphaVector(tuple(rng.uniform(0.0, 2.0, int(rng.integers(1, 4)))))
        ai = AlphaVector(tuple(c + e for c, e in
                               zip(aj.padded(3), rng.uniform(0.0, 1.0, 3)
                                   * (rng.random(3) < 0.7))))
        d = rng.uniform(5.0, 60.0)  # h = d^2 - 25 >= 0
        th = rng.uniform(0.0, 2.0 * math.pi)
        dx_x, dx_y = d * math.cos(th), d * math.sin(th)
        assert compat_row(dx_x, dx_y, _style_gap(aj, aj), CFG, 0.01)[2] == 0.0
        assert compat_row(dx_x, dx_y, _style_gap(ai, aj), CFG, 0.01)[2] >= 0.0


def test_aggressiveness_score_is_kappa_at_reference():
    a = AlphaVector((0.9, 0.1))
    assert REFERENCE_H == 25.0
    assert aggressiveness_score(a) == kappa(a, 25.0)


def test_style_presets_scores_increase_strictly():
    # select_alpha ranks an estimate among the presets by score, so the
    # table must be ordered least to most aggressive, with no two alike
    assert STYLE_PRESETS == tuple(AlphaVector((1.0 - w, w))
                                  for w in (0.0, 0.25, 0.5, 0.75, 1.0))
    scores = [aggressiveness_score(a) for a in STYLE_PRESETS]
    assert all(a < b for a, b in zip(scores, scores[1:])), scores


def test_select_alpha_mirrors_the_scale():
    n = len(STYLE_PRESETS)
    # an estimate sitting exactly on preset k answers with preset n-1-k:
    # the more aggressive the neighbor, the more the ego concedes
    for k, p in enumerate(STYLE_PRESETS):
        assert select_alpha(p) == STYLE_PRESETS[n - 1 - k]


def test_select_alpha_nearest_score_and_tie_rule():
    # score((0.9, 0.1)) = 1585 sits nearest the least aggressive preset
    assert select_alpha(AlphaVector((0.9, 0.1))) == STYLE_PRESETS[-1]
    # (79,) scores exactly midway between presets 0 and 1; the tie counts as
    # the more aggressive preset 1, so the answer is presets[3]
    assert select_alpha(AlphaVector((79.0,))) == STYLE_PRESETS[3]


def test_adaptive_roster_validation():
    cfg = preset_config(n_steps=10)
    no_object = dataclasses.replace(
        cfg,
        vehicles=tuple(dataclasses.replace(v, role="neighbor" if v.role == "object" else v.role)
                       for v in cfg.vehicles))
    with pytest.raises(ConfigurationError):
        run_adaptive_merge(no_object)
    two_egos = dataclasses.replace(
        cfg,
        vehicles=tuple(dataclasses.replace(v, role="ego" if v.role == "object" else v.role)
                       for v in cfg.vehicles))
    with pytest.raises(ConfigurationError):
        run_adaptive_merge(two_egos)

    # the runs' deltas divide by the ego's merge step, which is 0 for an ego
    # that starts past the merge; an ego on the merge point has not passed it
    def ego_at(progress):
        return dataclasses.replace(cfg, vehicles=tuple(
            dataclasses.replace(v, start_progress=progress) if v.role == "ego" else v
            for v in cfg.vehicles))

    with pytest.raises(ConfigurationError, match="ego 'ego' starts past it, at start_progress 5.0"):
        experiment_prediction_in_loop(ego_at(5.0))
    assert math.isfinite(experiment_prediction_in_loop(ego_at(0.0)).ego_delta_pct)


def test_adaptive_run_argument_validation():
    with pytest.raises(ConfigurationError):
        AdaptiveSettings(phase_budget=0)
    # the observer is the analytic one, and no setting picks another
    with pytest.raises(TypeError):
        AdaptiveSettings(hdot_mode="analytic")


def object_style(cfg, coefficients):
    """cfg with its object driving the given style."""
    return dataclasses.replace(cfg, vehicles=tuple(
        dataclasses.replace(v, alpha=AlphaVector(coefficients)) if v.role == "object" else v
        for v in cfg.vehicles))


@pytest.mark.parametrize("scenario,selects", [
    (preset_config(3000), True),
    # the learner admits no sample of this object by the phase budget
    (object_style(preset_config(3000), (0.5, 0.5)), False),
    # the run ends before the phase budget
    (preset_config(100), False),
], ids=["preset", "no-sample", "short-run"])
def test_disabled_prediction_reduces_to_plain_trial(scenario, selects):
    # the prediction-off baseline is a plain simulate run of the scenario,
    # bit for bit; a run that selected no style is its own baseline
    comparison = experiment_prediction_in_loop(scenario)
    enabled, disabled = comparison.enabled, comparison.disabled
    assert (enabled.selected_alpha is not None) == selects
    assert (disabled.trial is enabled.trial) == (not selects)
    plain = simulate(scenario)
    assert not disabled.prediction_enabled
    assert disabled.selected_alpha is None
    assert disabled.final_estimate is None
    for name in ("states", "inputs", "pair_h", "feasible"):
        assert (getattr(disabled.trial.log, name).tobytes()
                == getattr(plain.log, name).tobytes())
    assert disabled.trial.metrics == plain.metrics
    assert disabled.trial.relaxed_steps == plain.relaxed_steps == 0


def test_adaptive_run_identifies_and_concedes():
    cfg = preset_config(n_steps=700)
    rec = run_adaptive_merge(cfg, AdaptiveSettings(phase_budget=300))
    assert rec.converged_within_budget
    assert rec.converged_at is not None and rec.converged_at <= 300
    est = rec.final_estimate
    assert est is not None
    # the object in the shipped preset drives a (0.9, 0.1) style
    assert est.alpha_hat.coefficients == pytest.approx((0.9, 0.1), abs=1e-4)
    assert rec.selected_alpha == STYLE_PRESETS[-1]
    assert rec.trial.relaxed_steps == 0
    assert not rec.trial.metrics.collision
    # sampling happened strictly inside the observation phase
    assert rec.sample_steps and max(rec.sample_steps) <= 300
    assert len(rec.estimate_history) == len(rec.sample_steps)


def test_assumption_mismatch_trials_stay_safe():
    trials = experiment_assumption_mismatch(n_trials=8, seed=5)
    assert len(trials) == 8
    for t in trials:
        assert t.min_h >= -1e-9
        assert t.alpha_i.q == t.alpha_j.q
        assert t.object_infeasible >= 0


@pytest.mark.parametrize("n_trials", [0, -1])
def test_assumption_mismatch_rejects_nonpositive_trials(n_trials):
    with pytest.raises(ConfigurationError, match="n_trials must be >= 1"):
        experiment_assumption_mismatch(n_trials=n_trials)
