"""Road geometry, the batch simulation loop, and the canned experiments."""
import dataclasses
import math
import re

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import configs_equal, cruise_oracle, frozen_solve_scalar, safety_row_oracle
from test_golden import _two_lane_roster

from polycbf import cli, scenario
from polycbf.controller import _admits
from polycbf import (
    AlphaVector,
    ConfigurationError,
    ControlLimits,
    DomainError,
    InvarianceSettings,
    PredictSettings,
    RoadGeometry,
    SafetyConfig,
    ScenarioConfig,
    SweepSettings,
    VehicleSpec,
    experiment_assumption_mismatch,
    experiment_behavior_sweep,
    experiment_invariance,
    experiment_prediction,
    invariance_trial_setup,
    kappa,
    prediction_trial_setup,
    simulate,
    sweep_trial_config,
)
from polycbf.dynamics import VehicleState


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
    x, y, vx, vy = spec.initial_state(g)
    assert (x, y) == pytest.approx(g.place("ramp", -30.0))
    assert math.hypot(vx, vy) == pytest.approx(7.0, rel=1e-12)
    with pytest.raises(ConfigurationError):
        VehicleSpec(name="b", route="fixed", alpha=AlphaVector((1.0,)))


@pytest.mark.parametrize("field, value", [
    ("desired_speed", math.nan), ("desired_speed", -1.0), ("gain", 0.0), ("gain", -0.8),
    ("gain", math.inf)])
def test_vehicle_spec_applies_the_nominal_plan_rules(field, value):
    # the cruise law a spec declares has a finite speed >= 0 and a finite
    # gain > 0
    bound = ">= 0" if field == "desired_speed" else "> 0"
    with pytest.raises(ConfigurationError) as from_spec:
        VehicleSpec(name="a", **{field: value})
    assert str(from_spec.value) == f"{field} must be {bound}, got {value}"


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


# At 10**20 steps numpy refuses a log's shape ("Maximum allowed dimension
# exceeded"), and at 2**62 its size ("array is too big"), before allocating.
@pytest.mark.parametrize("n_steps", [10**20, 2**62], ids=["1e20", "2^62"])
def test_a_log_larger_than_numpy_allows_is_a_config_error(n_steps):
    builders = (lambda: dataclasses.replace(invariance_trial_setup(0), n_steps=n_steps),
                lambda: InvarianceSettings(n_steps=n_steps),
                lambda: PredictSettings(n_steps=n_steps),
                lambda: SweepSettings(styles=(AlphaVector((1.0,)),), n_steps=n_steps))
    for build in builders:
        with pytest.raises(ConfigurationError, match="larger than numpy's largest array"):
            build()


@pytest.mark.parametrize("n, width", [(2, 4 * 2), (16, 16 * 15 // 2)], ids=["states", "pair_h"])
def test_the_largest_log_numpy_allows_is_accepted(n, width):
    # the log's widest array takes width floats a step, over n_steps + 1 steps
    roster = tuple(VehicleSpec(name=f"v{k}", start_progress=-10.0 * k) for k in range(n))
    most = np.iinfo(np.intp).max // (8 * width) - 1
    ScenarioConfig(geometry=RoadGeometry(), vehicles=roster, n_steps=most)
    with pytest.raises(ConfigurationError, match="larger than numpy's largest array"):
        ScenarioConfig(geometry=RoadGeometry(), vehicles=roster, n_steps=most + 1)


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


def reference_run(cfg, restyled=None, t0=0):
    """Drive the same trial one vehicle at a time on the test oracles, the
    cruise law, the safety row against each neighbour held at constant
    velocity and the frozen solve, stepping with dynamics.step, to pin the
    batch loop's arithmetic.  A vehicle's compatibility entry (name, gap)
    appends the safety row oracle's row against that vehicle with the style
    gap and no rate term, and is dropped, the step counted, when the program
    with it is infeasible and the one without it is not.  Given restyled, a
    roster of the same vehicles, each vehicle filters with its restyled
    style and entry from step t0 on.  Returns the states, the inputs, the
    feasible flags and the count of dropped steps from t0 on."""
    from polycbf import step as integrate

    geom = cfg.geometry
    r2 = cfg.safety.r_safe * cfg.safety.r_safe
    cur = [VehicleState(s[:2], s[2:]) for s in (v.initial_state(geom) for v in cfg.vehicles)]
    states = [np.array([[s.position[0], s.position[1],
                         s.velocity[0], s.velocity[1]] for s in cur])]
    inputs = []
    feas = []
    relaxed = 0
    index = {spec.name: v for v, spec in enumerate(cfg.vehicles)}
    for t in range(cfg.n_steps):
        us = []
        ok_row = []
        styles = restyled.vehicles if restyled is not None and t >= t0 else cfg.vehicles
        for v, spec in enumerate(cfg.vehicles):
            d = (spec.heading if spec.route == "fixed"
                 else geom.direction(spec.route, cur[v].position))
            # simulate divides the direction by its norm, pursuit's included
            d_x, d_y = (float(c) for c in d)
            norm = math.hypot(d_x, d_y)
            d_x, d_y = d_x / norm, d_y / norm
            (px, py), (vx, vy) = cur[v].position.tolist(), cur[v].velocity.tolist()
            lo_x, lo_y = spec.limits.u_min.tolist()
            hi_x, hi_y = spec.limits.u_max.tolist()
            ub_x, ub_y = cruise_oracle(spec.gain, spec.desired_speed, d_x, d_y, vx, vy,
                                       lo_x, lo_y, hi_x, hi_y)
            rows = []
            for w in range(len(cur)):
                if w == v:
                    continue
                (ox, oy), (ovx, ovy) = cur[w].position.tolist(), cur[w].velocity.tolist()
                dx_x, dx_y = px - ox, py - oy
                rows.append(safety_row_oracle(dx_x, dx_y, vx - ovx, vy - ovy, 0.0, 0.0,
                                              dx_x * dx_x + dx_y * dx_y - r2,
                                              styles[v].alpha.coefficients, cfg.dt))
            program = rows
            if styles[v].compat is not None:
                name, gap = styles[v].compat
                ox, oy = cur[index[name]].position.tolist()
                dx_x, dx_y = px - ox, py - oy
                program = rows + [safety_row_oracle(dx_x, dx_y, 0.0, 0.0, 0.0, 0.0,
                                                    dx_x * dx_x + dx_y * dx_y - r2, gap, cfg.dt)]
            ux, uy, ok, _, _ = frozen_solve_scalar(ub_x, ub_y, lo_x, lo_y, hi_x, hi_y, program)
            if not ok and program is not rows:
                ux, uy, ok, _, _ = frozen_solve_scalar(ub_x, ub_y, lo_x, lo_y, hi_x, hi_y, rows)
                relaxed += ok and t >= t0
            us.append((ux, uy))
            ok_row.append(ok)
        cur = [integrate(cur[v], us[v], cfg.dt) for v in range(len(cur))]
        states.append(np.array([[s.position[0], s.position[1],
                                 s.velocity[0], s.velocity[1]] for s in cur]))
        inputs.append(np.array(us))
        feas.append(ok_row)
    return np.array(states), np.array(inputs), np.array(feas), relaxed


def test_simulation_loop_matches_library_calls_exactly():
    cfg = three_vehicle_config()
    rec = simulate(cfg)
    states, inputs, feas, _ = reference_run(cfg)
    # the roster's filters turn infeasible, so the fallback is pinned too
    assert (~feas).sum() > 0
    assert np.array_equal(rec.log.states, states)
    assert np.array_equal(rec.log.inputs[:-1], inputs)
    assert np.array_equal(rec.log.feasible[:-1], feas)
    # pairwise clearances recompute from positions
    for p, (i, j) in enumerate(rec.log.pairs):
        dx = states[:, i, :2] - states[:, j, :2]
        h = (dx * dx).sum(axis=1) - cfg.safety.r_safe ** 2
        assert np.array_equal(rec.log.pair_h[:, p], h)


def _oracle_roster(head_on=False):
    # Fixed-heading vehicles share a lane (dy = 0), match velocities
    # (dv = 0), sit on zeros of opposite sign in x, y and vy, differ by a
    # subnormal and by 1e150, and mix styles of order 1, 2 and 3.  No filter
    # binds; head_on adds a vehicle 12 m ahead of "a" driving at it, which
    # leaves both their programs infeasible.
    roster = [
        ("a", (0.0, 0.0), (1.0, 0.0), 2.0, (0.7,)),
        ("b", (-0.0, 30.0), (1.0, -0.0), 2.0, (0.2, 0.05)),
        ("c", (40.0, 0.0), (1.0, 0.0), 2.0, (0.4, 0.0, 0.01)),
        ("d", (5e-324, -40.0), (0.0, 1.0), 1e-300, (1.1, 0.3)),
        ("e", (1e150, -0.0), (-1.0, 0.0), 3.0, (0.5, 0.0, 0.2)),
    ] + [("f", (12.0, 0.0), (-1.0, 0.0), 2.0, (0.7,))] * head_on
    vehicles = tuple(VehicleSpec(name=name, route="fixed", start_position=start, heading=head,
                                 speed=speed, alpha=AlphaVector(coeffs))
                     for name, start, head, speed, coeffs in roster)
    return ScenarioConfig(geometry=RoadGeometry(), vehicles=vehicles, dt=0.01, n_steps=4)


def _oracle_rows(cfg, states, v):
    """safety_row_oracle's rows of vehicle v against each neighbour, in
    ascending order, at the logged states of one step."""
    st = states.tolist()
    r2 = cfg.safety.r_safe * cfg.safety.r_safe
    rows = []
    for w in range(len(st)):
        if w == v:
            continue
        dx_x, dx_y = st[v][0] - st[w][0], st[v][1] - st[w][1]
        h = dx_x * dx_x + dx_y * dx_y - r2
        rows.append(safety_row_oracle(dx_x, dx_y, st[v][2] - st[w][2], st[v][3] - st[w][3],
                                      0.0, 0.0, h, cfg.vehicles[v].alpha.coefficients, cfg.dt))
    return rows


def _hex_rows(rows):
    return [tuple(map(float.hex, row)) for row in rows]


def test_simulate_rows_match_row_oracle_both_ways_bit_for_bit(monkeypatch):
    # The pair loop builds each pair's row terms once and mirrors them; every
    # row handed to the nominal screen must still be the row formula's, bit
    # for bit, from each vehicle's own side.  The screen sees every
    # vehicle-step, and the QP exactly those whose nominal it fails: none on
    # the roster, and the two infeasible programs of its head-on variant.
    screen, solve = scenario._admits, scenario._solve_scalar
    for head_on in (False, True):
        cfg = _oracle_roster(head_on)
        n = len(cfg.vehicles)
        monkeypatch.setattr(scenario, "_ARRAY_MIN_VEHICLES", n + 1)
        seen, failed, solved = [], [], []

        def screen_spy(rows, ux, uy):
            seen.append(list(rows))
            ok = screen(rows, ux, uy)
            if not ok:
                failed.append(seen[-1])
            return ok

        def solve_spy(*args):
            solved.append(list(args[6]))
            return solve(*args)

        monkeypatch.setattr(scenario, "_admits", screen_spy)
        monkeypatch.setattr(scenario, "_solve_scalar", solve_spy)
        log = simulate(cfg).log
        assert len(seen) == cfg.n_steps * n
        assert solved == failed and bool(failed) == head_on
        for t in range(cfg.n_steps):
            for v in range(n):
                expect = _hex_rows(_oracle_rows(cfg, log.states[t], v))
                assert _hex_rows(seen[t * n + v]) == expect, (t, v)


@pytest.mark.parametrize("head_on", [False, True])
def test_array_stage_rows_and_screen_match_row_oracle_bit_for_bit(monkeypatch, head_on):
    # The array stage forms every vehicle's rows from its own side on (n, n)
    # arrays.  Every row, those of nominals the screen passed included, must
    # be the row formula's, each screen verdict _admits' on those rows, and
    # exactly the vehicles the screen failed reach the QP, with those rows.
    cfg = _oracle_roster(head_on)
    n = len(cfg.vehicles)
    monkeypatch.setattr(scenario, "_ARRAY_MIN_VEHICLES", 2)
    screens, solved = [], []
    screen, solve = scenario._admits_rows, scenario._solve_scalar

    def screen_spy(ax, ay, b, ux, uy):
        ok = screen(ax, ay, b, ux, uy)
        screens.append((ax.tolist(), ay.tolist(), b.tolist(), ux[:, 0].tolist(),
                        uy[:, 0].tolist(), ok.tolist()))
        return ok

    def solve_spy(*args):
        solved.append((args[0], args[1], list(args[6])))
        return solve(*args)

    monkeypatch.setattr(scenario, "_admits_rows", screen_spy)
    monkeypatch.setattr(scenario, "_solve_scalar", solve_spy)
    log = simulate(cfg).log
    assert len(screens) == cfg.n_steps
    expect_solved = []
    for t, (ax, ay, b, ux, uy, ok) in enumerate(screens):
        for v in range(n):
            rows = _oracle_rows(cfg, log.states[t], v)
            others = [w for w in range(n) if w != v]
            got = [(ax[v][w], ay[v][w], b[v][w]) for w in others]
            assert _hex_rows(got) == _hex_rows(rows), (t, v)
            verdicts = [ok[v][w] for w in others]
            assert verdicts == [_admits([row], ux[v], uy[v]) for row in rows], (t, v)
            if not all(verdicts):
                expect_solved.append((ux[v], uy[v], _hex_rows(rows)))
    assert bool(expect_solved) == head_on
    assert [(x, y, _hex_rows(rows)) for x, y, rows in solved] == expect_solved


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
        px, py, vx, vy = rec.log.states[t, 0].tolist()
        d_x, d_y = geom.direction("main", (px, py)).tolist()
        norm = math.hypot(d_x, d_y)
        u = cruise_oracle(0.5, 9.0, d_x / norm, d_y / norm, vx, vy, -5.0, -5.0, 5.0, 5.0)
        assert rec.log.inputs[t, 0].tolist() == list(u)
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


def test_diverged_pair_with_nan_clearance_collides():
    # a step this long sends the positions to inf, and inf - inf leaves the
    # clearance NaN: it certifies nothing, so the flag must trip
    cfg = invariance_trial_setup(0, InvarianceSettings(dt=1e300, n_steps=3), seed=0)
    rec = simulate(cfg)
    assert math.isnan(min(rec.metrics.min_h.values()))
    assert rec.metrics.collision


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


# A gap whose row no box of these tests meets at a positive clearance: its
# bound kappa(gap, h) is below -1e5 h, its direction of the size 2 |dx| dt.
UNMEETABLE = (-1e5, -1.0)


def with_compat(cfg, entries):
    """cfg with vehicle v's compatibility entry set to entries[v]."""
    return dataclasses.replace(cfg, vehicles=tuple(
        dataclasses.replace(spec, compat=entries[v]) if v in entries else spec
        for v, spec in enumerate(cfg.vehicles)))


def test_unmeetable_compat_row_is_dropped_and_counted():
    # an unmeetable row makes every step's QP infeasible,
    # so simulate drops it and counts the step, and the run is the plain one
    cfg = three_vehicle_config(n_steps=50)
    plain = simulate(cfg)
    rec = simulate(with_compat(cfg, {0: ("ego", UNMEETABLE)}))
    assert rec.relaxed_steps == 50
    for name in ("states", "inputs", "pair_h", "feasible"):
        assert getattr(rec.log, name).tobytes() == getattr(plain.log, name).tobytes()


@pytest.mark.parametrize("stage", ["loop", "arrays"])
def test_compat_rows_match_the_oracle_with_their_drops(stage):
    # the ego's row against the lead binds, kept in some steps and dropped
    # in others; the lead's row against ramp1 is never met; ramp1's row of
    # order 1 against the ego binds and is always met
    cfg = with_compat(three_vehicle_config(n_steps=600), {
        2: ("lead", (-0.002, 0.0)), 0: ("ramp1", UNMEETABLE), 1: ("ego", (-0.001,))})
    with mock.patch.object(scenario, "_ARRAY_MIN_VEHICLES", 10 ** 9 if stage == "loop" else 2):
        rec = simulate(cfg)
    states, inputs, feas, relaxed = reference_run(cfg)
    assert np.array_equal(rec.log.states, states)
    assert np.array_equal(rec.log.inputs[:-1], inputs)
    assert np.array_equal(rec.log.feasible[:-1], feas)
    assert rec.relaxed_steps == relaxed
    plain = simulate(dataclasses.replace(cfg, vehicles=tuple(
        dataclasses.replace(v, compat=None) for v in cfg.vehicles)))
    # the rows changed the run, and the ego's drops add to the lead's
    assert not np.array_equal(plain.log.states, rec.log.states)
    assert cfg.n_steps < relaxed < 2 * cfg.n_steps


@pytest.mark.parametrize("compat", [
    ("a", (1.0,)), ("b", ()), ("b", (0.5, math.nan)), ("b", (-math.inf,))],
    ids=["itself", "empty", "nan", "inf"])
def test_compat_entry_needs_another_vehicle_and_a_finite_gap(compat):
    with pytest.raises(ConfigurationError, match="needs another vehicle's name and a "
                                                 "non-empty, finite gap, got"):
        VehicleSpec(name="a", compat=compat)
    VehicleSpec(name="a", compat=("b", (-0.9, 0.9)))


def test_compat_entry_names_a_vehicle_of_the_roster():
    a = VehicleSpec(name="a", compat=("b", (-0.9, 0.9)))
    b = VehicleSpec(name="b", start_progress=-40.0)
    ScenarioConfig(geometry=RoadGeometry(), vehicles=(a, b))
    with pytest.raises(ConfigurationError, match="'b', which is not in the roster"):
        ScenarioConfig(geometry=RoadGeometry(), vehicles=(a,))


# --- resuming from a logged step ---------------------------------------------

def assert_resumes_bit_for_bit(cfg, stop, t0):
    """simulate resumed at t0 from the run of cfg cut to stop steps (None:
    not cut) is the fresh run bit for bit; its relaxed_steps count the steps
    from t0 on."""
    source = simulate(cfg if stop is None else dataclasses.replace(cfg, n_steps=stop))
    fresh = simulate(cfg)
    resumed = simulate(cfg, resume=(source.log, t0))
    for name in ("states", "inputs", "pair_h", "feasible"):
        a, b = getattr(fresh.log, name), getattr(resumed.log, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
    assert {k: v.hex() for k, v in fresh.metrics.min_h.items()} == \
        {k: v.hex() for k, v in resumed.metrics.min_h.items()}
    assert fresh.metrics.merge_step == resumed.metrics.merge_step
    assert fresh.metrics.infeasible_step_count == resumed.metrics.infeasible_step_count
    assert fresh.metrics.collision == resumed.metrics.collision
    before = simulate(dataclasses.replace(cfg, n_steps=t0)).relaxed_steps if t0 else 0
    assert resumed.relaxed_steps == fresh.relaxed_steps - before
    return fresh


@st.composite
def _compat_entries(draw, cfg):
    """cfg with a compatibility entry drawn for some vehicles: against
    another vehicle, a gap of order 1-3 with entries of either sign, or the
    unmeetable gap, which simulate drops."""
    n = len(cfg.vehicles)
    entries = {}
    for v in range(n):
        if draw(st.booleans()):
            w = draw(st.integers(0, n - 2))
            gap = draw(st.one_of(st.just(UNMEETABLE), st.lists(
                st.floats(-2.0, 2.0), min_size=1, max_size=3).map(tuple)))
            entries[v] = (cfg.vehicles[w + (w >= v)].name, gap)
    return with_compat(cfg, entries)


@st.composite
def _rosters(draw):
    """2-8 vehicles on both routes near the merge, styles of order 1-3 and
    boxes from +-1 to +-50, so that runs merge, interact and hit infeasible
    steps."""
    q = draw(st.integers(1, 3))
    vehicles = []
    for k in range(draw(st.integers(2, 8))):
        bound = draw(st.floats(1.0, 50.0))
        vehicles.append(VehicleSpec(
            name=f"v{k}", route=draw(st.sampled_from(("main", "ramp"))),
            start_progress=draw(st.floats(-15.0, 3.0)), speed=draw(st.floats(0.0, 15.0)),
            desired_speed=draw(st.floats(0.0, 15.0)), gain=draw(st.floats(0.1, 2.0)),
            alpha=AlphaVector(tuple(draw(st.floats(0.0, 1.0)) for _ in range(q))),
            limits=ControlLimits((-bound, -bound), (bound, bound))))
    return ScenarioConfig(geometry=RoadGeometry(ramp_angle_deg=draw(st.floats(5.0, 40.0))),
                          vehicles=tuple(vehicles), dt=draw(st.sampled_from((0.01, 0.05))),
                          n_steps=draw(st.integers(1, 60)), safety=SafetyConfig(q=q))


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(cfg=_rosters(), stage=st.sampled_from(("loop", "arrays")), compat=st.booleans(),
       data=st.data())
def test_resumed_run_is_a_fresh_run_bit_for_bit(cfg, stage, compat, data):
    # both stages, from a full source log or one of a shorter run
    if compat:
        cfg = data.draw(_compat_entries(cfg))
    stop = data.draw(st.one_of(st.none(), st.integers(1, cfg.n_steps)))
    t0 = data.draw(st.integers(0, cfg.n_steps if stop is None else stop))
    with mock.patch.object(scenario, "_ARRAY_MIN_VEHICLES", 10 ** 9 if stage == "loop" else 2):
        assert_resumes_bit_for_bit(cfg, stop, t0)


@pytest.mark.parametrize("compat", [False, True])
def test_a_large_roster_resumes_bit_for_bit(compat):
    # the array stage at its default size, on a merge with infeasible steps;
    # with compat, one vehicle's row has a negative gap and another's is
    # never met, so rows are kept and dropped
    cfg = _two_lane_roster()
    if compat:
        names = [v.name for v in cfg.vehicles]
        cfg = with_compat(cfg, {0: (names[1], (-0.9, 0.9)), 3: (names[0], UNMEETABLE)})
    assert len(cfg.vehicles) >= scenario._ARRAY_MIN_VEHICLES
    for t0, stop in ((0, None), (1, 1), (37, None), (45, 80), (90, None)):
        fresh = assert_resumes_bit_for_bit(cfg, stop, t0)
    assert fresh.metrics.infeasible_step_count > 0
    assert (fresh.relaxed_steps > 0) == compat


@pytest.mark.parametrize("stage", ["loop", "arrays"])
def test_a_run_resumed_under_a_restyled_roster_switches_styles_at_t0(stage):
    # the adaptive run's mechanism: the run up to t0, resumed under a roster
    # whose ego and lead drive other styles (the ego's of order 3) and whose
    # ego holds a compatibility row against the lead, is the oracle replay
    # with those styles and that row switched on at t0
    cfg = three_vehicle_config(n_steps=700)
    restyled = dataclasses.replace(cfg, vehicles=(
        dataclasses.replace(cfg.vehicles[0], alpha=AlphaVector((0.2, 0.05))),
        cfg.vehicles[1],
        dataclasses.replace(cfg.vehicles[2], alpha=AlphaVector((0.0, 0.3, 0.002)),
                            compat=("lead", (-0.9, 0.9)))))
    t0 = 250
    with mock.patch.object(scenario, "_ARRAY_MIN_VEHICLES", 10 ** 9 if stage == "loop" else 2):
        head = simulate(dataclasses.replace(cfg, n_steps=t0))
        rec = simulate(restyled, resume=(head.log, t0))
    states, inputs, feas, relaxed = reference_run(cfg, restyled, t0)
    assert np.array_equal(rec.log.states, states)
    assert np.array_equal(rec.log.inputs[:-1], inputs)
    assert np.array_equal(rec.log.feasible[:-1], feas)
    assert rec.relaxed_steps == relaxed
    # the switch moved the run off both unswitched ones
    for plain in (simulate(cfg), simulate(restyled)):
        assert not np.array_equal(plain.log.states, rec.log.states)


@pytest.mark.parametrize("stage", ["loop", "arrays"])
def test_a_resumed_run_derives_its_clearances_from_its_states(stage):
    # the source log's clearances are overwritten: the resumed run's come
    # from the copied states, not from the source's pair_h
    cfg = three_vehicle_config(n_steps=200)
    with mock.patch.object(scenario, "_ARRAY_MIN_VEHICLES", 10 ** 9 if stage == "loop" else 2):
        fresh = simulate(cfg)
        garbled = dataclasses.replace(fresh.log, pair_h=np.full_like(fresh.log.pair_h, -1e9))
        resumed = simulate(cfg, resume=(garbled, 150))
    assert resumed.log.pair_h.tobytes() == fresh.log.pair_h.tobytes()
    assert resumed.metrics == fresh.metrics


def test_resume_merge_steps_come_from_the_copied_prefix():
    # every merge lies before t0, so the resumed run reads them all off the
    # copied states
    cfg = three_vehicle_config(n_steps=600)
    fresh = simulate(cfg)
    steps = fresh.metrics.merge_step
    assert all(s is not None and 0 < s < 590 for s in steps.values())
    assert simulate(cfg, resume=(fresh.log, 590)).metrics.merge_step == steps


def test_resume_from_a_foreign_log_or_past_its_end_is_a_config_error():
    cfg = three_vehicle_config(n_steps=40)
    log = simulate(dataclasses.replace(cfg, n_steps=20)).log
    renamed = dataclasses.replace(log, names=("lead", "ramp1", "other"))
    unpaired = dataclasses.replace(log, pairs=((0, 1), (0, 2)))
    for bad, t0, match in ((renamed, 5, "roster"), (unpaired, 5, "roster"),
                           (dataclasses.replace(log, dt=0.02), 5, "dt"),
                           (log, 21, r"\[0, 20\]"), (log, -1, r"\[0, 20\]")):
        with pytest.raises(ConfigurationError, match=match):
            simulate(cfg, resume=(bad, t0))
    # a log longer than the config's run resumes up to the config's last step
    short = dataclasses.replace(cfg, n_steps=10)
    with pytest.raises(ConfigurationError, match=r"\[0, 10\]"):
        simulate(short, resume=(log, 11))
    assert simulate(short, resume=(log, 10)).log.states.shape[0] == 11


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


def activation_clearance_oracle(alpha, closing, r_safe):
    """_activation_clearance as a fixed 200 bisection steps through kappa."""
    def gap(h):
        return kappa(alpha, h) - 2.0 * math.sqrt(h + r_safe * r_safe) * closing

    lo, hi = 0.0, 1.0
    while gap(hi) < 0.0 and hi < 1e6:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if gap(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return hi


def test_activation_clearance_stops_once_its_bracket_stops_moving(monkeypatch):
    # The predict preset's 30 trial setups, then random styles (zero
    # coefficients included), closing speeds and radii.
    cases = []
    record = scenario._activation_clearance
    monkeypatch.setattr(scenario, "_activation_clearance",
                        lambda *args: cases.append(args) or record(*args))
    preset = cli.load_preset("predict")
    for k in range(preset["settings"].trials):
        prediction_trial_setup(k, **preset, seed=0)
    monkeypatch.undo()
    assert len(cases) == 30
    rng = np.random.default_rng(20261020)
    for _ in range(3000):
        q = int(rng.integers(1, 5))
        coeffs = rng.uniform(0.0, 2.0, q) * (rng.random(q) < 0.7)
        coeffs[rng.integers(q)] = rng.uniform(0.05, 2.0)
        cases.append((AlphaVector(tuple(coeffs)), rng.uniform(0.05, 3.0), rng.uniform(0.5, 20.0)))
    calls = []
    kernel = scenario._kappa
    monkeypatch.setattr(scenario, "_kappa", lambda *args: calls.append(1) or kernel(*args))
    for alpha, closing, r_safe in cases:
        calls.clear()
        got = scenario._activation_clearance(alpha, closing, r_safe)
        assert got.hex() == activation_clearance_oracle(alpha, closing, r_safe).hex()
        # at most 21 doublings, then the bisection of a double's bits
        assert 0 < len(calls) <= 100, (alpha, closing, r_safe)


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
