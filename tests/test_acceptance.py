"""End-to-end acceptance checks, one test per claim the package makes.

Each test prints a single PASS line on success; under pytest -v the test
outcome itself doubles as the per-claim pass/fail record.  Runtime budgets
are asserted with wall-clock measurements around the workload alone.
"""
import time

import numpy as np
import pytest

from helpers import qp_oracle, random_box_qp

from polycbf import (
    AlphaVector,
    InvarianceSettings,
    PredictSettings,
    experiment_assumption_mismatch,
    experiment_behavior_sweep,
    experiment_invariance,
    experiment_prediction,
    experiment_prediction_in_loop,
    kappa,
)
from polycbf import cli
from polycbf.controller import _solve_scalar


def test_barrier_scale_monotone_for_admissible_weights():
    # 1000 random weight vectors, orders 1 through 4, entries in [0, 10]:
    # kappa is zero at zero exactly, non-decreasing on [0, 100], and strictly
    # increasing whenever any weight is positive
    rng = np.random.default_rng(2024)
    grid = np.linspace(0.0, 100.0, 200)
    t0 = time.monotonic()
    for _ in range(1000):
        q = int(rng.integers(1, 5))
        coeffs = rng.uniform(0.0, 10.0, q)
        coeffs[rng.random(q) < 0.25] = 0.0
        alpha = AlphaVector(tuple(coeffs))
        assert kappa(alpha, 0.0) == 0.0
        vals = np.array([kappa(alpha, float(h)) for h in grid])
        diffs = np.diff(vals)
        assert np.all(diffs >= 0.0)
        if np.any(coeffs > 0.0):
            assert np.all(diffs > 0.0)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(f"PASS barrier scale: 1000 weight vectors monotone in {elapsed:.2f}s")


def test_filter_qp_matches_exhaustive_enumeration():
    # 1000 random box QPs with up to three extra rows against an independent
    # KKT active-set enumeration, to 1e-6 in both solution and objective
    rng = np.random.default_rng(77)
    t0 = time.monotonic()
    n_infeasible = 0
    for _ in range(1000):
        u_nom, lo, hi, rows = random_box_qp(rng)
        ux, uy, feasible, objective, _ = _solve_scalar(
            *u_nom.tolist(), *lo.tolist(), *hi.tolist(), [(*a.tolist(), b) for a, b in rows])
        expect = qp_oracle(u_nom, lo, hi, rows)
        if expect is None:
            n_infeasible += 1
            assert not feasible
        else:
            u_star, obj_star = expect
            assert feasible
            assert float(np.linalg.norm(np.array([ux, uy]) - u_star)) <= 1e-6
            assert abs(objective - obj_star) <= 1e-6
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    print(f"PASS filter QP: 1000 programs matched the enumeration oracle "
          f"({n_infeasible} infeasible) in {elapsed:.2f}s")


def test_random_merge_trials_stay_safe_and_feasible():
    # 100 seeded two-vehicle merges with random styles, speeds, and spacing:
    # no collision flag and at most 1% of vehicle steps flagged infeasible
    n_trials, n_steps = 100, 1200
    t0 = time.monotonic()
    metrics = experiment_invariance(InvarianceSettings(trials=n_trials, n_steps=n_steps),
                                    seed=0)
    elapsed = time.monotonic() - t0
    assert len(metrics) == n_trials
    worst = min(min(m.min_h.values()) for m in metrics)
    assert worst >= -1e-9
    assert not any(m.collision for m in metrics)
    infeasible = sum(m.infeasible_step_count for m in metrics)
    frac = infeasible / (n_trials * n_steps * 2)
    assert frac <= 0.01
    assert elapsed < 30.0
    print(f"PASS invariance: 100 trials, worst clearance {worst:.6f}, "
          f"{100 * frac:.3f}% infeasible steps in {elapsed:.2f}s")


def test_style_recovery_meets_error_budget():
    # 30 trials per observation mode, degenerate single-term styles included:
    # analytic rates recover weights to 1e-6 mean RMSE within 10 admitted
    # samples; finite-difference rates stay under 1e-3
    t0 = time.monotonic()
    analytic = experiment_prediction(PredictSettings(trials=30, mode="analytic"), seed=0)
    fd = experiment_prediction(PredictSettings(trials=30, mode="finite_diff",
                                               dt=2.5e-4, n_steps=40000,
                                               closing_range=(0.8, 1.2), sample_cap=8000),
                               seed=0)
    elapsed = time.monotonic() - t0
    truths = [t.truth.coefficients for t in analytic.trials]
    assert any(c[0] == 0.0 for c in truths)
    assert any(c[1] == 0.0 for c in truths)
    assert analytic.mean_rmse <= 1e-6
    assert analytic.max_convergence_samples is not None
    assert analytic.max_convergence_samples <= 10
    assert fd.mean_rmse <= 1e-3
    assert elapsed < 10.0
    print(f"PASS style recovery: analytic mean rmse {analytic.mean_rmse:.3e} "
          f"(converged by {analytic.max_convergence_samples}), finite-diff "
          f"mean rmse {fd.mean_rmse:.3e} in {elapsed:.2f}s")


def test_safety_holds_under_assumption_mismatch():
    # the object models the ego as constant-velocity while the ego applies
    # arbitrary bounded inputs satisfying only the compatibility row: the
    # clearance still never crosses zero
    t0 = time.monotonic()
    trials = experiment_assumption_mismatch(n_trials=100, seed=0)
    elapsed = time.monotonic() - t0
    assert len(trials) == 100
    worst = min(t.min_h for t in trials)
    assert worst >= -1e-9
    assert elapsed < 30.0
    print(f"PASS assumption mismatch: 100 trials, worst clearance "
          f"{worst:.6f} in {elapsed:.2f}s")


def test_style_weights_steer_spacing_and_merge_order():
    # (a) hotter linear weights against an unyielding neighbor shrink the
    # closest approach monotonically; (b) shifting weight from the linear to
    # the cubic term flips the merge order from behind to in front
    gamma_sweep = cli.load_preset("sweep_gamma")
    weight_sweep = cli.load_preset("sweep_weights")
    assert all(s.q == 1 for s in gamma_sweep["settings"].styles)
    t0 = time.monotonic()
    entries = experiment_behavior_sweep(**gamma_sweep)
    mins = [e.min_distance for e in entries]
    for a, b in zip(mins, mins[1:]):
        assert b <= a + 1e-9
    assert mins[-1] < mins[0]
    assert all(e.min_h >= -1e-9 for e in entries)

    entries_w = experiment_behavior_sweep(**weight_sweep)
    orders = [e.merge_order for e in entries_w]
    assert orders[0] == "behind"
    assert orders[-1] == "front"
    flip = orders.index("front")
    assert all(o == "behind" for o in orders[:flip])
    assert all(o == "front" for o in orders[flip:])
    assert all(e.min_h >= -1e-9 for e in entries_w)
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    print(f"PASS style sweeps: closest approach {mins[0]:.3f} down to "
          f"{mins[-1]:.3f}, merge order flips at weight "
          f"{entries_w[flip].alpha.coefficients[0]} "
          f"in {elapsed:.2f}s")


def test_prediction_shortens_the_preset_merge():
    # the shipped three-vehicle merge: identifying the object's style and
    # conceding lets the ego merge strictly earlier, and the whole roster
    # finishes strictly sooner than the prediction-disabled baseline
    preset = cli.load_preset("adaptive")
    t0 = time.monotonic()
    cmp = experiment_prediction_in_loop(**preset)
    elapsed = time.monotonic() - t0
    assert cmp.ego_step_enabled < cmp.ego_step_disabled
    assert cmp.overall_enabled < cmp.overall_disabled
    assert not cmp.enabled.trial.metrics.collision
    assert not cmp.disabled.trial.metrics.collision
    assert cmp.enabled.converged_within_budget
    print(f"PASS adaptive merge: ego {cmp.ego_step_enabled} < "
          f"{cmp.ego_step_disabled}, overall {cmp.overall_enabled} < "
          f"{cmp.overall_disabled} ({cmp.overall_delta_pct:.1f}% sooner) "
          f"in {elapsed:.2f}s")


def test_reruns_emit_byte_identical_artifacts(tmp_path):
    # same preset, same seed, two fresh output roots: every CSV byte-matches
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", "adaptive", "--out", str(out_a)]) == 0
    assert cli.main(["run", "adaptive", "--out", str(out_b)]) == 0
    dir_a, dir_b = out_a / "adaptive", out_b / "adaptive"
    csvs = sorted(p.name for p in dir_a.iterdir() if p.suffix == ".csv")
    assert csvs == sorted(p.name for p in dir_b.iterdir() if p.suffix == ".csv")
    assert len(csvs) >= 3
    for name in csvs:
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()
    print(f"PASS determinism: {len(csvs)} CSV artifacts byte-identical "
          f"across reruns")
