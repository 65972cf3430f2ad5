"""Full-log pins of simulate: for six runs that between them take every
branch of its step loop, the sha256 of every logged array (with its shape)
and the merge steps and relaxed-step count, as they were recorded before
simulate kept its input and clearance logs in flat buffers and took merge
steps from its pursuit kernel.

The runs: a lone vehicle (no pairs), invariance trial 0, the adaptive
preset's two-phase run (an observation run the learner reads, resumed at
the phase budget under the selected style with the compatibility row as the
ego's compat entry), a run that ends at the step a vehicle first crosses
the merge, a roster with a fixed-route vehicle and a vehicle placed past
the merge, and the 16-vehicle two-lane merge (the array stage).  No pinned run
calls BLAS or LAPACK: the adaptive run's learner solves its normal equations
on Python floats.
"""
import dataclasses
import hashlib

import numpy as np
import pytest

from test_golden import _two_lane_roster

from polycbf import (AlphaVector, RoadGeometry, ScenarioConfig, VehicleSpec, cli, scenario,
                     experiment_prediction_in_loop, invariance_trial_setup, simulate)


def _lone_vehicle():
    return ScenarioConfig(geometry=RoadGeometry(), dt=0.01, n_steps=400, vehicles=(
        VehicleSpec(name="solo", route="ramp", start_progress=-30.0, speed=10.0,
                    desired_speed=11.0),))


def _merging_trio(n_steps=600):
    return ScenarioConfig(geometry=RoadGeometry(ramp_angle_deg=20.0), dt=0.01,
                          n_steps=n_steps, vehicles=(
        VehicleSpec(name="main", route="main", start_progress=-32.0, speed=9.0,
                    desired_speed=10.0, alpha=AlphaVector((0.6, 0.2))),
        VehicleSpec(name="ramp", route="ramp", start_progress=-30.0, speed=9.5,
                    desired_speed=9.5, alpha=AlphaVector((0.3, 0.4))),
        VehicleSpec(name="tail", route="main", start_progress=-55.0, speed=11.0,
                    desired_speed=11.0, alpha=AlphaVector((0.9, 0.0)))))


# The step at which the ramp vehicle of _merging_trio first has positive
# progress, the first of its vehicles to.
FIRST_MERGE = 312


def _fixed_and_past_merge():
    # A fixed-route vehicle crosses the main road ahead of a main-road
    # vehicle, and a ramp vehicle starts 5 m past the merge.
    return ScenarioConfig(geometry=RoadGeometry(), dt=0.01, n_steps=500, vehicles=(
        VehicleSpec(name="main", route="main", start_progress=-25.0, speed=8.0,
                    desired_speed=9.0, alpha=AlphaVector((0.5, 0.1))),
        VehicleSpec(name="cross", route="fixed", start_position=(110.0, -25.0),
                    heading=(0.2, 1.0), speed=6.0, desired_speed=6.0,
                    alpha=AlphaVector((0.4, 0.3))),
        VehicleSpec(name="past", route="ramp", start_progress=5.0, speed=7.0,
                    desired_speed=7.0, alpha=AlphaVector((0.8, 0.0)))))


def _adaptive_preset():
    preset = cli.load_preset("adaptive")
    return experiment_prediction_in_loop(preset["scenario"], preset["settings"]).enabled.trial


RUNS = {
    "lone_vehicle": lambda: simulate(_lone_vehicle()),
    "invariance_trial_0": lambda: simulate(invariance_trial_setup(0)),
    "adaptive_preset": _adaptive_preset,
    "early_stop": lambda: simulate(_merging_trio(FIRST_MERGE)),
    "fixed_and_past_merge": lambda: simulate(_fixed_and_past_merge()),
    "two_lane_16": lambda: simulate(dataclasses.replace(_two_lane_roster(), n_steps=600)),
}

# (log digest, merge steps, relaxed steps) of each run.
PINS = {
    "lone_vehicle": ("aac697d24c22f03a8876a7e02a0f8ff3a21b5c1a30a2d66fe67da598d9ee6560",
                     {"solo": 284}, 0),
    "invariance_trial_0": ("2734bd74c8821b279a240faeba48bf2c32b8ed3463ff4225a46b7c1303c40c54",
                           {"ego": 620, "other": 704}, 0),
    "adaptive_preset": ("84505a542b356c92603798bcb8457b9cde6273217ca4799c4e0408fbdd2dadda",
                        {"lead": 1002, "object": 1369, "ego": 1362}, 0),
    # 313 steps logged, the ramp vehicle's merge step the last of them
    "early_stop": ("0e03b65356c11b14cfc38824a57218e96463e36a4923e241f8eb838afb65f712",
                   {"main": None, "ramp": 312, "tail": None}, 0),
    "fixed_and_past_merge": ("bae61b64dc54d26265e1a7aae2b05e79cb470ab7be82f56213bf694a4769edda",
                             {"main": 291, "cross": None, "past": 0}, 0),
    "two_lane_16": ("4baea3ca5bb30a741ccacced80e0450242e91a9ebd2cefe9fb4b84aeb13fa1a5",
                    {**{f"{lane}{k}": None for lane in ("ramp", "main") for k in range(8)},
                     "ramp0": 389, "ramp1": 494, "main0": 442, "main1": 536}, 0),
}


def log_digest(log):
    """sha256 over each logged array's shape and little-endian bytes, in
    the order states, inputs, pair_h, feasible."""
    h = hashlib.sha256()
    for a, dtype in ((log.states, "<f8"), (log.inputs, "<f8"), (log.pair_h, "<f8"),
                     (log.feasible, "?")):
        h.update(repr(a.shape).encode())
        h.update(np.ascontiguousarray(a, dtype=dtype).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("run", sorted(RUNS))
def test_full_log_matches_its_pin(run):
    rec = RUNS[run]()
    assert (log_digest(rec.log), rec.metrics.merge_step, rec.relaxed_steps) == PINS[run]


@pytest.mark.parametrize("min_vehicles", [1, 10 ** 9], ids=["arrays", "loop"])
def test_merge_steps_and_log_shapes_in_both_stages(monkeypatch, min_vehicles):
    monkeypatch.setattr(scenario, "_ARRAY_MIN_VEHICLES", min_vehicles)
    cfg = _merging_trio(FIRST_MERGE)
    rec = simulate(cfg)
    log = rec.log
    n_logged = log.states.shape[0]
    assert n_logged == cfg.n_steps + 1
    for v, spec in enumerate(cfg.vehicles):
        merged = [t for t in range(n_logged)
                  if cfg.geometry.progress(spec.route, log.states[t, v, :2]) > 0.0]
        assert rec.metrics.merge_step[spec.name] == (merged[0] if merged else None)
    # the last step, which runs no pursuit, is the ramp vehicle's merge step,
    # and the first merge of any vehicle
    assert not any(cfg.geometry.progress(spec.route, log.states[t, v, :2]) > 0.0
                   for t in range(n_logged - 1) for v, spec in enumerate(cfg.vehicles))
    assert rec.metrics.merge_step["ramp"] == n_logged - 1
    assert [u.hex() for u in log.inputs[-1].ravel().tolist()] == [(0.0).hex()] * 6
    assert log.inputs.shape == (n_logged, 3, 2)
    assert log.pair_h.shape == (n_logged, 3)
    assert log.feasible.shape == (n_logged, 3)

    steps = simulate(_fixed_and_past_merge()).metrics.merge_step
    assert steps["cross"] is None and steps["past"] == 0

    log = simulate(_lone_vehicle()).log
    assert log.pair_h.shape == (401, 0)
    assert log.inputs.shape == (401, 1, 2) and log.feasible.shape == (401, 1)
