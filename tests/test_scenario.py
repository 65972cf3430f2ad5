"""Road geometry, the batch simulation loop, and the canned experiments."""
import dataclasses
import math
import re

import numpy as np
import pytest

from helpers import configs_equal, safety_row_oracle

from polycbf import cli, scenario
from polycbf import (
    AlphaVector,
    ConfigurationError,
    ControlLimits,
    DomainError,
    InvarianceSettings,
    NominalPlan,
    PredictSettings,
    RoadGeometry,
    SafetyConfig,
    ScenarioConfig,
    VehicleSpec,
    VehicleState,
    experiment_assumption_mismatch,
    experiment_behavior_sweep,
    experiment_invariance,
    experiment_prediction,
    invariance_trial_setup,
    nominal_control,
    prediction_trial_setup,
    safe_control,
    simulate,
    sweep_trial_config,
)


# --- geometry ---------------------------------------------------------------

def test_default_geometry_shape():
    g = RoadGeometry()
    assert (g.merge_x, g.ramp_angle_deg, g.lookahead) == (100.0, 15.0, 20.0)
    assert [f.name for f in dataclasses.fields(g)] == ["merge_x", "ramp_angle_deg", "lookahead"]
    assert g.merge_point == pytest.approx([100.0, 0.0])
    assert np.hypot(*g.ramp_dir) == pytest.approx(1.0, rel=1e-12)
    # ramp climbs toward the merge point from below the main lane
    start = g.place("ramp", -120.0)
    assert np.hypot(*(g.merge_point - start)) == pytest.approx(120.0, rel=1e-12)
    assert start[1] < 0.0
    assert np.array_equal(g.main_dir, [1.0, 0.0])
    # the derived vectors are read-only, like the road itself
    with pytest.raises(ValueError):
        g.ramp_dir[0] = 0.0


def test_geometry_validation():
    for field, value, message in [
            ("merge_x", math.nan, "merge_x must be finite, got nan"),
            ("ramp_angle_deg", math.inf, "ramp_angle_deg must be finite, got inf"),
            ("lookahead", -20.0, "lookahead must be finite and > 0, got -20.0"),
            ("lookahead", 0.0, "lookahead must be finite and > 0, got 0.0"),
            ("lookahead", math.inf, "lookahead must be finite and > 0, got inf"),
            ("lookahead", math.nan, "lookahead must be finite and > 0, got nan")]:
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            RoadGeometry(**{field: value})


def test_ramp_dir_is_cos_sin_of_the_angle_bit_for_bit():
    rng = np.random.default_rng(21)
    for angle in rng.uniform(-720.0, 720.0, 10_000).tolist():
        g = RoadGeometry(ramp_angle_deg=angle)
        rad = math.radians(angle)
        assert [c.hex() for c in g.ramp_dir.tolist()] == [math.cos(rad).hex(),
                                                          math.sin(rad).hex()], angle
        assert g._scalars[2:4] == (math.cos(rad), math.sin(rad))


def test_ramp_dir_bits_at_the_preset_angles():
    # the angles of the shipped presets and the benchmark's workloads; these
    # are the bits every pinned trajectory was recorded with
    for angle, bits in [(8.0, ["0x1.fb046a930947ap-1", "0x1.1d06c968d9e19p-3"]),
                        (15.0, ["0x1.ee8dd4748bf15p-1", "0x1.0907dc1930690p-2"]),
                        (30.0, ["0x1.bb67ae8584cabp-1", "0x1.fffffffffffffp-2"])]:
        assert [c.hex() for c in RoadGeometry(ramp_angle_deg=angle).ramp_dir.tolist()] == bits


def test_place_progress_round_trip():
    g = RoadGeometry()
    for route in ("main", "ramp"):
        for s in (-80.0, -30.5, -1.0, 0.0, 2.5, 40.0):
            pos = g.place(route, s)
            assert g.progress(route, pos) == pytest.approx(s, abs=1e-9)
    # past the merge point both routes continue along the main lane
    assert g.place("ramp", 10.0) == pytest.approx(g.place("main", 10.0))


def test_road_serves_main_and_ramp_routes_only():
    # a fixed-route vehicle is placed by start_position and steered by its
    # heading, so the road has no answer for it
    g = RoadGeometry()
    for ask in (lambda: g.progress("fixed", (0.0, 0.0)), lambda: g.place("fixed", -10.0),
                lambda: g.direction("fixed", (0.0, 0.0)), lambda: g.progress("lane", (0.0, 0.0))):
        with pytest.raises(ConfigurationError, match="serves main and ramp routes"):
            ask()


def test_direction_pure_pursuit():
    g = RoadGeometry()
    # on the main lane axis the pursuit direction is the lane tangent
    d = g.direction("main", g.place("main", -40.0))
    assert np.array_equal(d, g.main_dir)
    # displaced above the lane, the direction tips back down toward it
    d = g.direction("main", g.place("main", -40.0) + np.array([0.0, 3.0]))
    assert d[0] > 0.0 and d[1] < 0.0
    assert np.hypot(*d) == pytest.approx(1.0, rel=1e-12)
    # deep on the ramp the aim point is still on the ramp
    d = g.direction("ramp", g.place("ramp", -100.0))
    assert d == pytest.approx(g.ramp_dir, rel=1e-12)
    # near the merge the ramp aim point crosses onto the main lane
    d = g.direction("ramp", g.place("ramp", -5.0))
    assert not np.allclose(d, g.ramp_dir)
    assert d[1] > 0.0  # still climbing


def test_vehicle_spec_initial_state():
    g = RoadGeometry()
    spec = VehicleSpec(name="a", route="ramp", start_progress=-30.0,
                       speed=7.0, alpha=AlphaVector((1.0,)))
    s = spec.initial_state(g)
    assert s.position == pytest.approx(g.place("ramp", -30.0))
    assert np.hypot(*s.velocity) == pytest.approx(7.0, rel=1e-12)
    with pytest.raises(ConfigurationError):
        VehicleSpec(name="b", route="fixed", alpha=AlphaVector((1.0,)))


@pytest.mark.parametrize("field, value", [
    ("desired_speed", math.nan), ("desired_speed", -1.0), ("gain", 0.0), ("gain", -0.8),
    ("gain", math.inf)])
def test_vehicle_spec_applies_the_nominal_plan_rules(field, value):
    # the cruise law a spec declares obeys the rules NominalPlan enforces,
    # with NominalPlan's own message
    plan = {"desired_speed": 10.0, "lane_direction": (1.0, 0.0), "gain": 0.8, field: value}
    with pytest.raises(ConfigurationError) as from_plan:
        NominalPlan(**plan)
    with pytest.raises(ConfigurationError, match=field) as from_spec:
        VehicleSpec(name="a", **{field: value})
    assert str(from_spec.value) == str(from_plan.value)


@pytest.mark.parametrize("field, value", [
    ("speed", math.nan), ("speed", math.inf), ("start_progress", -math.inf),
    ("start_progress", math.nan)])
def test_vehicle_spec_rejects_non_finite_placement(field, value):
    with pytest.raises(ConfigurationError, match=f"{field} must be finite"):
        VehicleSpec(name="a", **{field: value})


@pytest.mark.parametrize("heading, start, error", [
    ((0.0, 0.0), (0.0, 0.0), ConfigurationError),
    ((math.nan, 1.0), (0.0, 0.0), DomainError),
    ((1.0, math.inf), (0.0, 0.0), DomainError),
    ((1.0, 0.0), (math.nan, 0.0), DomainError),
])
def test_fixed_route_needs_a_finite_heading_and_start(heading, start, error):
    with pytest.raises(error):
        VehicleSpec(name="a", route="fixed", heading=heading, start_position=start)


@pytest.mark.parametrize("route", ["main", "ramp"])
@pytest.mark.parametrize("field, value", [
    ("heading", (1.0, 0.0)), ("heading", (0.0, 0.0)), ("start_position", (0.0, 0.0)),
    ("start_position", (math.nan, math.nan))])
def test_route_vehicle_rejects_fixed_route_placement(route, field, value):
    # a route vehicle is placed by start_progress and steered by its route,
    # so a heading or start_position would be read by nothing
    with pytest.raises(ConfigurationError,
                       match=f"^{field} is only read on a fixed route, not on '{route}'$"):
        VehicleSpec(name="a", route=route, **{field: value})


@pytest.mark.parametrize("name", ["a\rb", "a\nb", "\r\n"])
def test_vehicle_name_with_a_line_break_is_rejected(name):
    # csv.writer leaves "\r" unquoted in a trajectory row ending in "\n"
    with pytest.raises(ConfigurationError, match="contains a line break"):
        VehicleSpec(name=name)


def test_scenario_config_validation():
    g = RoadGeometry()
    v = VehicleSpec(name="a", alpha=AlphaVector((1.0,)))
    with pytest.raises(ConfigurationError):
        ScenarioConfig(geometry=g, vehicles=(v, v), dt=0.01, n_steps=10)
    with pytest.raises(ConfigurationError):
        ScenarioConfig(geometry=g, vehicles=(), dt=0.01, n_steps=10)
    with pytest.raises(ConfigurationError):
        ScenarioConfig(geometry=g, vehicles=(v,), dt=0.0, n_steps=10)


# --- the batch loop against the library building blocks ---------------------

def three_vehicle_config(n_steps=1500):
    geom = RoadGeometry()
    safety = SafetyConfig(r_safe=5.0, q=2)
    vehicles = (
        VehicleSpec(name="lead", route="main", start_progress=-20.0, speed=8.5,
                    desired_speed=8.5, gain=0.8, alpha=AlphaVector((0.8, 0.3))),
        VehicleSpec(name="ramp1", route="ramp", start_progress=-28.0, speed=10.5,
                    desired_speed=10.5, gain=0.8, alpha=AlphaVector((0.9, 0.05))),
        VehicleSpec(name="ego", role="ego", route="main", start_progress=-45.0,
                    speed=10.0, desired_speed=10.0, gain=0.8,
                    alpha=AlphaVector((1.0, 0.0))),
    )
    return ScenarioConfig(geometry=geom, vehicles=vehicles, dt=0.01,
                          n_steps=n_steps, safety=safety)


def reference_run(cfg):
    """Drive the same trial through the public per-vehicle API, one call at a
    time, to pin the batch loop's arithmetic."""
    from polycbf import step as integrate

    geom = cfg.geometry
    cur = [v.initial_state(geom) for v in cfg.vehicles]
    states = [np.array([[s.position[0], s.position[1],
                         s.velocity[0], s.velocity[1]] for s in cur])]
    inputs = []
    feas = []
    for _ in range(cfg.n_steps):
        us = []
        ok_row = []
        for v, spec in enumerate(cfg.vehicles):
            d = (spec.heading if spec.route == "fixed"
                 else geom.direction(spec.route, cur[v].position))
            plan = NominalPlan(desired_speed=spec.desired_speed,
                               lane_direction=d, gain=spec.gain)
            others = [(cur[w], None) for w in range(len(cur)) if w != v]
            sol = safe_control(cur[v], others, spec.alpha, plan, cfg.safety,
                               spec.limits, cfg.dt)
            us.append(sol.u)
            ok_row.append(sol.feasible)
        cur = [integrate(cur[v], us[v], cfg.dt) for v in range(len(cur))]
        states.append(np.array([[s.position[0], s.position[1],
                                 s.velocity[0], s.velocity[1]] for s in cur]))
        inputs.append(np.array(us))
        feas.append(ok_row)
    return np.array(states), np.array(inputs), np.array(feas)


def test_simulation_loop_matches_library_calls_exactly():
    cfg = three_vehicle_config()
    rec = simulate(cfg)
    states, inputs, feas = reference_run(cfg)
    assert np.array_equal(rec.log.states, states)
    assert np.array_equal(rec.log.inputs[:-1], inputs)
    assert np.array_equal(rec.log.feasible[:-1], feas)
    # pairwise clearances recompute from positions
    for p, (i, j) in enumerate(rec.log.pairs):
        dx = states[:, i, :2] - states[:, j, :2]
        h = (dx * dx).sum(axis=1) - cfg.safety.r_safe ** 2
        assert np.array_equal(rec.log.pair_h[:, p], h)


def test_simulate_rows_match_row_oracle_both_ways_bit_for_bit(monkeypatch):
    # simulate builds each pair's row terms once and mirrors them; every row
    # handed to the QP must still be the row formula's, bit for bit, from each
    # vehicle's own side.  Fixed-heading vehicles share a lane (dy = 0), match
    # velocities (dv = 0), sit on zeros of opposite sign in x, y and vy,
    # differ by a subnormal and by 1e150, and mix styles of order 1, 2 and 3.
    roster = [
        ("a", (0.0, 0.0), (1.0, 0.0), 2.0, (0.7,)),
        ("b", (-0.0, 30.0), (1.0, -0.0), 2.0, (0.2, 0.05)),
        ("c", (40.0, 0.0), (1.0, 0.0), 2.0, (0.4, 0.0, 0.01)),
        ("d", (5e-324, -40.0), (0.0, 1.0), 1e-300, (1.1, 0.3)),
        ("e", (1e150, -0.0), (-1.0, 0.0), 3.0, (0.5, 0.0, 0.2)),
    ]
    vehicles = tuple(VehicleSpec(name=name, route="fixed", start_position=start, heading=head,
                                 speed=speed, alpha=AlphaVector(coeffs))
                     for name, start, head, speed, coeffs in roster)
    cfg = ScenarioConfig(geometry=RoadGeometry(), vehicles=vehicles, dt=0.01, n_steps=4)
    seen = []
    solve = scenario._solve_scalar

    def spy(*args):
        seen.append(list(args[6]))
        return solve(*args)

    monkeypatch.setattr(scenario, "_solve_scalar", spy)
    log = simulate(cfg).log
    n = len(vehicles)
    r2 = cfg.safety.r_safe * cfg.safety.r_safe
    assert len(seen) == cfg.n_steps * n
    for t in range(cfg.n_steps):
        st = log.states[t].tolist()
        for v in range(n):
            expect = []
            for w in range(n):
                if w == v:
                    continue
                dx_x, dx_y = st[v][0] - st[w][0], st[v][1] - st[w][1]
                h = dx_x * dx_x + dx_y * dx_y - r2
                expect.append(safety_row_oracle(dx_x, dx_y, st[v][2] - st[w][2],
                                                st[v][3] - st[w][3], 0.0, 0.0, h,
                                                vehicles[v].alpha.coefficients, cfg.dt))
            got = [tuple(map(float.hex, row)) for row in seen[t * n + v]]
            assert got == [tuple(map(float.hex, row)) for row in expect], (t, v)


def test_simulation_is_deterministic():
    cfg = three_vehicle_config(n_steps=400)
    a, b = simulate(cfg), simulate(cfg)
    assert np.array_equal(a.log.states, b.log.states)
    assert np.array_equal(a.log.inputs, b.log.inputs)
    assert a.metrics == b.metrics


def test_single_vehicle_follows_nominal_exactly():
    geom = RoadGeometry()
    spec = VehicleSpec(name="solo", route="main", start_progress=-60.0,
                       speed=6.0, desired_speed=9.0, gain=0.5,
                       alpha=AlphaVector((1.0, 0.0)))
    cfg = ScenarioConfig(geometry=geom, vehicles=(spec,), dt=0.01, n_steps=2000)
    rec = simulate(cfg)
    for t in range(0, 2000, 97):
        s = rec.log.states[t]
        state = VehicleState(s[0, :2], s[0, 2:])
        d = geom.direction("main", state.position)
        u = nominal_control(state, NominalPlan(desired_speed=9.0,
                                               lane_direction=d, gain=0.5))
        assert np.array_equal(rec.log.inputs[t, 0], u)
    # converges to the desired cruise speed
    assert np.hypot(*rec.log.states[-1, 0, 2:]) == pytest.approx(9.0, abs=1e-3)


def test_mirrored_head_on_pair_is_symmetric_and_safe():
    # two fixed-route vehicles aimed at each other with equal styles: the
    # trajectories stay exact mirror images and the filter splits the brake
    geom = RoadGeometry()
    base = dict(role="neighbor", route="fixed", speed=2.0, desired_speed=2.0,
                gain=0.8, alpha=AlphaVector((1.0,)))
    cfg = ScenarioConfig(
        geometry=geom,
        safety=SafetyConfig(r_safe=5.0, q=1),
        vehicles=(
            VehicleSpec(name="west", start_position=(-20.0, 0.0),
                        heading=(1.0, 0.0), **base),
            VehicleSpec(name="east", start_position=(20.0, 0.0),
                        heading=(-1.0, 0.0), **base),
        ),
        dt=0.01, n_steps=1500)
    rec = simulate(cfg)
    S = rec.log.states
    assert np.array_equal(S[:, 0, 0], -S[:, 1, 0])
    assert np.array_equal(S[:, 0, 2], -S[:, 1, 2])
    assert np.all(S[:, :, 1] == 0.0) and np.all(S[:, :, 3] == 0.0)
    assert not rec.metrics.collision
    assert rec.metrics.infeasible_step_count == 0
    assert min(rec.metrics.min_h.values()) > 0.0
    # they end up parked just outside the safety bubble, essentially at the
    # closest approach, with nearly no residual speed
    gap = S[-1, 1, 0] - S[-1, 0, 0]
    min_h = min(rec.metrics.min_h.values())
    assert min_h <= gap ** 2 - 25.0 <= min_h + 0.01
    assert abs(S[-1, 0, 2]) < 0.05


def test_unfiltered_head_on_pair_collides():
    # near-zero barrier weight leaves nothing to brake with: flag must trip
    geom = RoadGeometry()
    base = dict(role="neighbor", route="fixed", speed=10.0, desired_speed=10.0,
                gain=0.8, alpha=AlphaVector((1e-9,)))
    cfg = ScenarioConfig(
        geometry=geom,
        safety=SafetyConfig(r_safe=5.0, q=1),
        vehicles=(
            VehicleSpec(name="west", start_position=(-10.0, 0.0),
                        heading=(1.0, 0.0), **base),
            VehicleSpec(name="east", start_position=(10.0, 0.0),
                        heading=(-1.0, 0.0), **base),
        ),
        dt=0.01, n_steps=200)
    rec = simulate(cfg)
    assert rec.metrics.collision
    assert min(rec.metrics.min_h.values()) < 0.0


@pytest.mark.xfail(strict=True, reason=(
    "decentralized filters: each assumes its neighbour holds its velocity, so "
    "both spend the same clearance slack in one synchronous step and the "
    "clearance goes negative while every QP is feasible"))
def test_rear_end_approach_with_feasible_filters_does_not_collide():
    # an ego at cruise speed closing on a stopped lead: every QP stays
    # feasible, yet near h = 0 the two inputs alternate in sign and grow
    wide = ControlLimits((-1e5, -1e5), (1e5, 1e5))
    base = dict(role="neighbor", route="fixed", heading=(1.0, 0.0), gain=0.8,
                alpha=AlphaVector((5.0,)), limits=wide)
    cfg = ScenarioConfig(
        geometry=RoadGeometry(),
        safety=SafetyConfig(q=1),
        vehicles=(
            VehicleSpec(name="ego", start_position=(0.0, 0.0), speed=10.0,
                        desired_speed=10.0, **base),
            VehicleSpec(name="lead", start_position=(30.0, 0.0), speed=0.0,
                        desired_speed=0.0, **base),
        ),
        dt=0.01, n_steps=800)
    rec = simulate(cfg)
    assert rec.metrics.infeasible_step_count == 0
    assert not rec.metrics.collision


def test_merge_step_matches_logged_positions():
    cfg = three_vehicle_config(n_steps=1200)
    rec = simulate(cfg)
    g = cfg.geometry
    for v, spec in enumerate(cfg.vehicles):
        expect = None
        for t in range(rec.log.states.shape[0]):
            if g.progress(spec.route, rec.log.states[t, v, :2]) > 0.0:
                expect = t
                break
        assert rec.metrics.merge_step[spec.name] == expect


def test_on_step_early_stop_truncates_log():
    cfg = three_vehicle_config(n_steps=500)
    seen = []

    def stop_at_five(t_next, prev_states, new_states):
        seen.append((t_next, prev_states.copy(), new_states.copy()))
        assert new_states.shape == (3, 4)
        for rows in (prev_states, new_states):
            with pytest.raises(ValueError):
                rows[0, 0] = 0.0
        return t_next >= 5

    rec = simulate(cfg, on_step=stop_at_five)
    assert [t for t, _, _ in seen] == [1, 2, 3, 4, 5]
    # the hook sees exactly the logged rows of the step it follows
    for t, prev_states, new_states in seen:
        assert np.array_equal(prev_states, rec.log.states[t - 1])
        assert np.array_equal(new_states, rec.log.states[t])
    # the stopping step is still logged, nothing after it
    assert rec.log.states.shape[0] == 6
    assert rec.log.inputs.shape[0] == 6
    assert rec.log.pair_h.shape[0] == 6


def test_hooks_run_in_their_documented_order_and_not_at_the_last_step():
    # within a step: every alpha_fn, then every extra_rows_fn, then on_step;
    # the step logged after the early stop runs no hook
    cfg = three_vehicle_config(n_steps=50)
    calls = []

    def alpha_fn(t, v):
        calls.append(("alpha", t, v))
        return cfg.vehicles[v].alpha

    def extra_rows_fn(t, v, cur):
        calls.append(("extra", t, v))
        return ()

    def on_step(t_next, prev, cur):
        calls.append(("on_step", t_next))
        return t_next == 2

    rec = simulate(cfg, alpha_fn=alpha_fn, extra_rows_fn=extra_rows_fn, on_step=on_step)
    assert calls == [call for t in (0, 1) for call in (
        [("alpha", t, v) for v in range(3)] + [("extra", t, v) for v in range(3)]
        + [("on_step", t + 1)])]
    # the hooks changed nothing: the log is a plain two-step run's
    plain = simulate(dataclasses.replace(cfg, n_steps=2)).log
    for name in ("states", "inputs", "pair_h", "feasible"):
        assert np.array_equal(getattr(rec.log, name), getattr(plain, name))


def test_extra_rows_fn_sees_logged_rows_and_empty_rows_change_nothing():
    cfg = three_vehicle_config(n_steps=300)
    plain = simulate(cfg)
    seen = []

    def no_rows(t, v, cur):
        seen.append((t, v, cur.copy()))
        with pytest.raises(ValueError):
            cur[v, 2] = 0.0
        return ()

    rec = simulate(cfg, extra_rows_fn=no_rows)
    assert [(t, v) for t, v, _ in seen] == [(t, v) for t in range(300) for v in range(3)]
    assert all(np.array_equal(cur, rec.log.states[t]) for t, _, cur in seen)
    for name in ("states", "inputs", "pair_h", "feasible"):
        assert getattr(rec.log, name).tobytes() == getattr(plain.log, name).tobytes()
    assert rec.metrics == plain.metrics


def test_nan_extra_row_is_dropped_and_counted():
    # a NaN extra row makes every step's QP infeasible, so simulate drops it
    # and counts the step, and the run is the plain one
    cfg = three_vehicle_config(n_steps=50)
    plain = simulate(cfg)

    def nan_row(t, v, cur):
        return ((1.0, 0.0, float("nan")),) if v == 0 else ()

    rec = simulate(cfg, extra_rows_fn=nan_row)
    assert rec.relaxed_steps == 50
    for name in ("states", "inputs", "pair_h", "feasible"):
        assert getattr(rec.log, name).tobytes() == getattr(plain.log, name).tobytes()


def test_alpha_fn_hook_overrides_styles():
    # forcing a huge linear gain on the ego reproduces the config with that gain
    cfg = three_vehicle_config(n_steps=300)
    hot = AlphaVector((8.0,))

    def alpha_fn(t, v):
        return hot if v == 2 else cfg.vehicles[v].alpha

    rec = simulate(cfg, alpha_fn=alpha_fn)
    swapped = dataclasses.replace(
        cfg, vehicles=tuple(dataclasses.replace(v, alpha=hot) if k == 2 else v
                            for k, v in enumerate(cfg.vehicles)))
    direct = simulate(swapped)
    assert np.array_equal(rec.log.states, direct.log.states)


# --- canned experiments ------------------------------------------------------

def test_invariance_trials_replay_from_their_setups():
    settings = InvarianceSettings(trials=3, n_steps=300)
    metrics = experiment_invariance(settings, seed=11)
    assert len(metrics) == 3
    for k, m in enumerate(metrics):
        cfg = invariance_trial_setup(k, settings, seed=11)
        again = simulate(cfg).metrics
        assert again == m


def test_trial_setups_depend_only_on_index():
    settings = InvarianceSettings(n_steps=300)
    a = invariance_trial_setup(4, settings, seed=11)
    b = invariance_trial_setup(4, settings, seed=11)
    assert configs_equal(a, b)
    c = invariance_trial_setup(5, settings, seed=11)
    assert not configs_equal(a, c)
    ta, ca = prediction_trial_setup(2, seed=3)
    tb, cb = prediction_trial_setup(2, seed=3)
    assert ta == tb
    assert configs_equal(ca, cb)


@pytest.mark.parametrize("seed", [0, 7, 123456789])
def test_trial_rng_is_the_spawned_child(seed):
    for k in (0, 1, 5, 99):
        child = np.random.SeedSequence(seed).spawn(k + 1)[k]
        want = np.random.Generator(np.random.PCG64(child)).uniform(size=4)
        assert np.array_equal(scenario._trial_rng(seed, k).uniform(size=4), want)


@pytest.mark.parametrize("call, name", [
    (lambda: experiment_invariance(InvarianceSettings(trials=1, n_steps=10), seed=-1), "seed"),
    (lambda: experiment_prediction(PredictSettings(trials=1, n_steps=10), seed=-1), "seed"),
    (lambda: experiment_assumption_mismatch(n_trials=1, seed=-1), "seed"),
    (lambda: invariance_trial_setup(0, seed=-1), "seed"),
    (lambda: prediction_trial_setup(0, seed=-1), "seed"),
    (lambda: invariance_trial_setup(-1), "trial_index"),
    (lambda: prediction_trial_setup(-1), "trial_index"),
])
def test_negative_seed_or_trial_index_is_a_config_error(call, name):
    with pytest.raises(ConfigurationError, match=f"{name} must be >= 0, got -1"):
        call()


def test_prediction_trials_recover_styles():
    summary = experiment_prediction(PredictSettings(trials=3), seed=0)
    assert summary.mode == "analytic"
    assert len(summary.trials) == 3
    for t in summary.trials:
        assert t.rmse <= 1e-6
        assert t.converged_at is not None
        assert t.n_admitted >= t.converged_at


def gamma_sweep_settings(*styles):
    """The sweep_gamma preset's settings with the given styles."""
    return dataclasses.replace(cli.load_preset("sweep_gamma")["settings"], styles=styles)


def test_gamma_sweep_settings_feed_the_sweep():
    entries = experiment_behavior_sweep(
        gamma_sweep_settings(AlphaVector((0.4,)), AlphaVector((2.2,))))
    assert len(entries) == 2
    # a hotter gamma tolerates a smaller closest approach
    assert entries[1].min_distance <= entries[0].min_distance
    for e in entries:
        assert e.min_h >= -1e-9
        # distance trace is consistent with its own minimum
        assert e.min_distance == pytest.approx(float(np.min(e.distance)), rel=1e-12)


def test_sweep_trial_config_reproduces_sweep_entries():
    alpha = AlphaVector((1.0,))
    settings = gamma_sweep_settings(alpha)
    entries = experiment_behavior_sweep(settings)
    # sweep_trial_config reads every field but styles
    cfg = sweep_trial_config(alpha, dataclasses.replace(settings, styles=()))
    rec = simulate(cfg)
    assert min(rec.metrics.min_h.values()) == entries[0].min_h
    assert rec.metrics.merge_step["ego"] == entries[0].ego_merge_step
