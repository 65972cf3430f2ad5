"""Recovering another driver's barrier weights from watching them drive.

A follower closes in on a leader whose filter runs a hidden weight vector.
Each step where the follower's input departs from quiescent cruising is an
admitted sample: the clearance rate pinned against the barrier basis.  A tiny
ridge regression over those samples recovers the hidden weights to numerical
precision in a handful of samples.
"""
import dataclasses

from polycbf import experiment_prediction, prediction_trial_setup, simulate
from polycbf.cli import load_preset

# The shipped predict preset, cut to six trials.
preset = load_preset("predict")
preset["settings"] = dataclasses.replace(preset["settings"], trials=6)
summary = experiment_prediction(**preset)

print("trial   hidden style        recovered style               rmse   converged at")
for k, t in enumerate(summary.trials):
    truth = ", ".join(f"{c:5.3f}" for c in t.truth.coefficients)
    est = ", ".join(f"{c:12.9f}" for c in t.estimate_alpha)
    print(f"{k:5d}   ({truth})   ({est})   {t.rmse:8.2e}   {t.converged_at}")

print()
worst = max(range(len(summary.trials)), key=lambda k: summary.trials[k].rmse)
t = summary.trials[worst]
print(f"estimate trajectory for the worst trial ({worst}):")
for i, est in enumerate(t.estimate_series):
    vals = ", ".join(f"{c:12.9f}" for c in est)
    print(f"  after sample {i + 1:2d}: ({vals})")

truth, cfg = prediction_trial_setup(worst, preset["settings"], preset["safety"])
rec = simulate(cfg)
print()
print(f"that trial replayed: {rec.log.states.shape[0] - 1} steps, "
      f"min clearance {min(rec.metrics.min_h.values()):.2e}, "
      f"{t.n_admitted} samples admitted")
print(f"mean rmse across trials: {summary.mean_rmse:.2e}")
