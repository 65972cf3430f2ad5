"""How the barrier weights read as driving styles.

Two sweeps on the ramp-merge scenario.  First, a linear-only style against an
unyielding neighbor: hotter weights brake later and tolerate a smaller closest
approach.  Second, shifting weight from the linear to the cubic term against a
fixed mid-pack neighbor: the cubic style ignores far-off traffic but reacts
hard up close, which is enough to flip who merges first.
"""
from polycbf import experiment_behavior_sweep
from polycbf.cli import load_preset

print("sweep 1: linear weight vs closest approach (unyielding neighbor)")
entries = experiment_behavior_sweep(**load_preset("sweep_gamma"))
print("  gamma   min distance   min h")
for e in entries:
    print(f"  {e.alpha.coefficients[0]:5.1f}   {e.min_distance:12.3f}   {e.min_h:7.4f}")

print()
print("sweep 2: linear-to-cubic weight vs merge order (neighbor at 0.75/0.25)")
entries = experiment_behavior_sweep(**load_preset("sweep_weights"))
print("  weights        ego merges   neighbor merges   order    margin")
for e in entries:
    w_lin, w_cub = e.alpha.coefficients
    margin = e.other_merge_step - e.ego_merge_step
    print(f"  ({w_lin:3.1f}, {w_cub:3.1f})   {e.ego_merge_step:10d}   "
          f"{e.other_merge_step:15d}   {e.merge_order:6s}   {margin:+5d} steps")

print()
print("same gap rules, opposite outcomes: the style parameters alone decide",
      "who concedes")
