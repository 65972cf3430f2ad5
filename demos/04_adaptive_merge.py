"""The adaptive merge, end to end: watch, identify, concede, merge sooner.

Three vehicles head for the same merge point: a slow lead on the ramp, a
pushy object vehicle behind it, and the ego on the main lane.  With
prediction off the ego holds its conservative default style and queues up
behind the conflict.  With prediction on it spends the first phase watching
the object, identifies its style from clearance rates, swaps to the preset
style that mirrors it, and adds a compatibility constraint so its plan stays
honest about what the object will tolerate.  The ego merges earlier and the
whole roster finishes sooner.
"""
from polycbf import experiment_prediction_in_loop
from polycbf.cli import load_preset

preset = load_preset("adaptive")
cmp = experiment_prediction_in_loop(**preset)
enabled, disabled = cmp.enabled, cmp.disabled

est = enabled.final_estimate
print("observation phase:")
print(f"  samples admitted: {len(enabled.sample_steps)}, "
      f"converged at sample {enabled.converged_at}")
print(f"  estimated object style: ({est.alpha_hat.coefficients[0]:.6f}, "
      f"{est.alpha_hat.coefficients[1]:.6f})")
print(f"  selected ego preset:    ({enabled.selected_alpha.coefficients[0]:.2f}, "
      f"{enabled.selected_alpha.coefficients[1]:.2f})")
print(f"  compatibility rows dropped under infeasibility: "
      f"{enabled.trial.relaxed_steps}")

print()
print("merge completion (steps):")
names = sorted(enabled.trial.metrics.merge_step)
print(f"  {'vehicle':10s} {'prediction on':>14s} {'prediction off':>15s}")
for n in names:
    on = enabled.trial.metrics.merge_step[n]
    off = disabled.trial.metrics.merge_step[n]
    print(f"  {n:10s} {on:14d} {off:15d}")
print(f"  ego merges {cmp.ego_step_disabled - cmp.ego_step_enabled} steps "
      f"earlier ({cmp.ego_delta_pct:.1f}%)")
print(f"  roster finishes {cmp.overall_disabled - cmp.overall_enabled} steps "
      f"earlier ({cmp.overall_delta_pct:.1f}%)")

print()
print("safety, both runs:")
for label, rec in (("on", enabled), ("off", disabled)):
    m = rec.trial.metrics
    print(f"  prediction {label:3s}: min clearance {min(m.min_h.values()):.4f}, "
          f"collision={m.collision}, infeasible steps={m.infeasible_step_count}")
