"""simulate's two stages, the pair loop and the array stage, give the same
trials bit for bit, and the array stage's kernels match their scalar twins
element by element.

simulate picks a stage by roster size (_ARRAY_MIN_VEHICLES); each test here
forces both on the same roster.  The 16- and 32-vehicle golden logs in
test_golden.py pin the array stage's output at the default size; these tests
keep the two stages from drifting apart at any size.
"""
import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_contracts import _vehicle
from test_golden import _two_lane_roster
from test_scenario import _hex_rows, _oracle_rows

from polycbf import (AlphaVector, ControlLimits, RoadGeometry, SafetyConfig, ScenarioConfig,
                     VehicleSpec, scenario, simulate)
from polycbf.barrier import _kappa, _kappa_columns, _kappa_rows
from polycbf.controller import _admits, _admits_rows, _row_terms

STAGES = {"loop": 10 ** 9, "arrays": 2}


def run_stage(monkeypatch, stage, cfg, make_kwargs=dict):
    """simulate(cfg) on one stage; make_kwargs() builds its resume afresh
    per run, on that stage."""
    monkeypatch.setattr(scenario, "_ARRAY_MIN_VEHICLES", STAGES[stage])
    return simulate(cfg, **make_kwargs())


def assert_same_trial(a, b):
    for name in ("states", "inputs", "pair_h", "feasible"):
        x, y = getattr(a.log, name), getattr(b.log, name)
        assert x.shape == y.shape and x.tobytes() == y.tobytes(), name
    assert a.log.pairs == b.log.pairs
    assert {k: v.hex() for k, v in a.metrics.min_h.items()} == \
        {k: v.hex() for k, v in b.metrics.min_h.items()}
    assert a.metrics.merge_step == b.metrics.merge_step
    assert a.metrics.infeasible_step_count == b.metrics.infeasible_step_count
    assert a.metrics.collision == b.metrics.collision
    assert a.relaxed_steps == b.relaxed_steps


def both_stages(monkeypatch, cfg, make_kwargs=dict):
    loop = run_stage(monkeypatch, "loop", cfg, make_kwargs)
    arrays = run_stage(monkeypatch, "arrays", cfg, make_kwargs)
    assert_same_trial(loop, arrays)
    return arrays


def with_styles(cfg, style):
    """cfg with vehicle k's style replaced by style(k)."""
    return dataclasses.replace(cfg, vehicles=tuple(
        dataclasses.replace(v, alpha=style(k)) for k, v in enumerate(cfg.vehicles)))


def test_stages_agree_on_the_golden_infeasible_merge(monkeypatch):
    rec = both_stages(monkeypatch, _two_lane_roster())
    assert rec.metrics.infeasible_step_count > 0


@pytest.mark.parametrize("q", [1, 3])
def test_stages_agree_at_styles_of_order_one_and_three(monkeypatch, q):
    # order 3 with a zero middle coefficient, and a zero leading one on some
    # vehicles: the skipped products of the kappa kernels
    def style(k):
        if q == 1:
            return AlphaVector((0.1 + 0.13 * (k % 7),))
        return AlphaVector((0.0 if k % 4 == 0 else 0.2 + 0.1 * (k % 5), 0.0, 0.01 * (k % 3)))

    rec = both_stages(monkeypatch, with_styles(_two_lane_roster(per_lane=6), style))
    assert not rec.log.feasible.all()


def test_stages_agree_with_negative_zero_coefficients(monkeypatch):
    # AlphaVector accepts -0.0, and both kappa kernels skip it as a zero
    def style(k):
        return (AlphaVector((-0.0, 0.3)), AlphaVector((0.4, -0.0, 0.01)),
                cfg.vehicles[k].alpha)[k % 3]

    cfg = _two_lane_roster(per_lane=6)
    both_stages(monkeypatch, with_styles(cfg, style))


def test_stages_agree_under_every_hook(monkeypatch):
    # 12 vehicles: compatibility entries cap two vehicles' approach with
    # negative gaps; the run of 30 steps is resumed there, for 40 more steps,
    # under a roster whose odd vehicles switch to an order-3 style and whose
    # vehicle 0 holds a row that is never met, which is dropped and counted
    cfg = dataclasses.replace(_two_lane_roster(per_lane=6), n_steps=30)
    names = [v.name for v in cfg.vehicles]
    hot = AlphaVector((0.9, 0.0, 0.05))
    cfg = dataclasses.replace(cfg, vehicles=tuple(
        dataclasses.replace(v, compat=(names[k - 1], (-0.002, 0.0))) if k in (3, 8) else v
        for k, v in enumerate(cfg.vehicles)))

    def make_kwargs():
        return {"resume": (simulate(cfg).log, 30)}

    restyled = with_styles(dataclasses.replace(cfg, n_steps=70),
                           lambda k: hot if k % 2 else cfg.vehicles[k].alpha)
    restyled = dataclasses.replace(restyled, vehicles=(
        dataclasses.replace(restyled.vehicles[0], compat=(names[1], (-1e5, -1.0))),
        *restyled.vehicles[1:]))
    rec = both_stages(monkeypatch, restyled, make_kwargs)
    assert rec.log.states.shape[0] == 71
    assert rec.relaxed_steps >= 40
    plain = run_stage(monkeypatch, "arrays", dataclasses.replace(restyled, vehicles=tuple(
        dataclasses.replace(v, compat=None) for v in restyled.vehicles)), make_kwargs)
    assert not np.array_equal(plain.log.states, rec.log.states)


def test_stages_agree_on_fixed_routes(monkeypatch):
    # two crossing columns of fixed-heading vehicles, five a column, on
    # exact lanes (dx or dy is zero within a column) with matched speeds
    # (dv is zero), so the zero-difference rows of the pair loop recur
    vehicles = []
    for k in range(5):
        gap = -30.0 - 9.0 * k
        vehicles.append(VehicleSpec(name=f"e{k}", route="fixed", start_position=(gap, 0.0),
                                    heading=(1.0, 0.0), speed=8.0,
                                    alpha=AlphaVector((0.3 + 0.1 * k, 0.02))))
        vehicles.append(VehicleSpec(name=f"n{k}", route="fixed", start_position=(0.0, gap),
                                    heading=(0.0, 1.0), speed=8.0,
                                    alpha=AlphaVector((0.6, 0.0, 0.001 * k))))
    cfg = ScenarioConfig(geometry=RoadGeometry(), vehicles=tuple(vehicles), dt=0.01, n_steps=400)
    rec = both_stages(monkeypatch, cfg)
    assert not rec.log.feasible.all()
    assert rec.log.inputs[:-1].any()


def program_at(cfg, states, v):
    """Vehicle v's QP rows at the logged states of one step: the row
    oracle's safety rows, then the compatibility row of its entry, if any,
    with that row's direction and the margin kappa(gap, h)."""
    rows = _oracle_rows(cfg, states, v)
    spec = cfg.vehicles[v]
    if spec.compat is not None:
        w = [u.name for u in cfg.vehicles].index(spec.compat[0])
        ax, ay, _ = rows[w if w < v else w - 1]
        dx, dy = (states[v, :2] - states[w, :2]).tolist()
        rows.append((ax, ay, _kappa(spec.compat[1],
                                    dx * dx + dy * dy - cfg.safety.r_safe * cfg.safety.r_safe)))
    return rows


@pytest.mark.parametrize("stage", STAGES)
def test_only_nominals_that_fail_the_screen_reach_the_solver(monkeypatch, stage):
    # 12 vehicles of the golden merge, two of them with compatibility rows,
    # one that cuts off every nominal and one that admits them.
    # _solve_scalar runs on exactly the vehicle-steps whose nominal fails the
    # screen, its own first test: in the box and admitted by every row of
    # the program.  The pair loop screens the whole program, the array stage
    # only the safety rows, so there a vehicle with a compatibility entry
    # always solves.  A screened vehicle-step logs its nominal bit for bit.
    cfg = _two_lane_roster(per_lane=6)
    names = [v.name for v in cfg.vehicles]
    gaps = {3: (-0.002, 0.0), 8: (0.002, 0.0)}
    cfg = dataclasses.replace(cfg, vehicles=tuple(
        dataclasses.replace(v, compat=(names[k - 1], gaps[k])) if k in gaps else v
        for k, v in enumerate(cfg.vehicles)))
    nominals, calls = [], []
    cruise, solve = scenario._cruise, scenario._solve_scalar

    def cruise_spy(*args):
        nominals.append(cruise(*args))
        return nominals[-1]

    def solve_spy(*args):
        result = solve(*args)
        calls.append((args[0].hex(), args[1].hex(), _hex_rows(args[6]), result[2]))
        return result

    monkeypatch.setattr(scenario, "_cruise", cruise_spy)
    monkeypatch.setattr(scenario, "_solve_scalar", solve_spy)
    log = run_stage(monkeypatch, stage, cfg).log
    n = len(cfg.vehicles)
    assert len(nominals) == cfg.n_steps * n
    remaining = iter(calls)
    screened = {False: 0, True: 0}  # vehicle-steps screened, without and with an entry
    for t in range(cfg.n_steps):
        for v, spec in enumerate(cfg.vehicles):
            rows = program_at(cfg, log.states[t], v)
            ux, uy = nominals[t * n + v]
            (lo_x, lo_y), (hi_x, hi_y) = spec.limits.u_min.tolist(), spec.limits.u_max.tolist()
            entry = spec.compat is not None
            if (lo_x <= ux <= hi_x and lo_y <= uy <= hi_y and _admits(rows, ux, uy)
                    and not (entry and stage == "arrays")):
                assert log.inputs[t, v].tobytes() == np.array((ux, uy)).tobytes(), (t, v)
                assert log.feasible[t, v]
                screened[entry] += 1
                continue
            *args, ok = next(remaining)
            assert args == [ux.hex(), uy.hex(), _hex_rows(rows)], (t, v)
            if entry and not ok:
                # the re-solve without the compatibility row
                assert next(remaining)[:3] == (ux.hex(), uy.hex(), _hex_rows(rows[:-1])), (t, v)
    assert next(remaining, None) is None
    # infeasible programs among the solved ones
    assert screened[False] and not all(ok for *_, ok in calls)
    assert bool(screened[True]) == (stage == "loop")


# --- the array kernels against their scalar twins ----------------------------

EDGES = (0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e150, -1e150, 1.7976931348623157e308,
         math.inf, -math.inf, math.nan)


def edge_values(rng, shape):
    """Random normals with about a third of the entries replaced by EDGES."""
    values = rng.normal(scale=10.0, size=shape)
    mask = rng.random(shape) < 0.35
    values[mask] = rng.choice(EDGES, size=int(mask.sum()))
    return values


def hex_all(values):
    return [float(x).hex() for x in np.ravel(values)]


def test_kappa_rows_matches_kappa_elementwise():
    # zero coefficients of either sign, which both kernels skip, and the
    # first column free of zeros, which _kappa_columns leaves unmasked
    rng = np.random.default_rng(23)
    for zero, q in itertools.product((0.0, -0.0), (1, 2, 3, 4)):
        coeffs = rng.uniform(0.0, 2.0, size=(9, q))
        coeffs[rng.random((9, q)) < 0.3] = zero
        coeffs[:, 0] = rng.uniform(0.1, 2.0, size=9)
        if q > 1:
            coeffs[0, -1] = zero  # a padded row
        columns = _kappa_columns(coeffs)
        assert [mask is None for _, mask in columns] == [bool(c.all()) for c in coeffs.T]
        assert columns[0][1] is None and (q == 1 or columns[-1][1] is not None)
        h = edge_values(rng, (9, 11))
        with np.errstate(all="ignore"):
            got = _kappa_rows(columns, h)
        want = [[_kappa(tuple(coeffs[v].tolist()), x) for x in h[v].tolist()] for v in range(9)]
        assert hex_all(got) == hex_all(want)


def test_row_terms_on_arrays_match_floats_elementwise():
    rng = np.random.default_rng(24)
    dx_x, dx_y, dv_x, dv_y = (edge_values(rng, (8, 8)) for _ in range(4))
    with np.errstate(all="ignore"):
        got = _row_terms(dx_x, dx_y, dv_x, dv_y, 0.01)
    want = [_row_terms(*args, 0.01) for args in zip(dx_x.ravel().tolist(), dx_y.ravel().tolist(),
                                                    dv_x.ravel().tolist(), dv_y.ravel().tolist())]
    for k in range(3):
        assert hex_all(got[k]) == hex_all([w[k] for w in want])


def test_admits_rows_matches_admits_elementwise():
    rng = np.random.default_rng(25)
    ax, ay, b = (edge_values(rng, (12, 12)) for _ in range(3))
    ux, uy = edge_values(rng, (12, 1)), edge_values(rng, (12, 1))
    with np.errstate(all="ignore"):
        # rows on their line and near their tolerance
        b[:3] = ax[:3] * ux[:3] + ay[:3] * uy[:3]
        b[3:6] = (ax[3:6] * ux[3:6] + ay[3:6] * uy[3:6]) * (1.0 - 1e-9)
        inputs = [a.tobytes() for a in (ax, ay, b, ux, uy)]
        got = _admits_rows(ax, ay, b, ux, uy)
    # a vehicle that fails the screen builds its rows from b afterwards
    assert [a.tobytes() for a in (ax, ay, b, ux, uy)] == inputs
    rows = np.stack((ax, ay, b), axis=-1).tolist()
    want = [[_admits([row], ux[v, 0].item(), uy[v, 0].item()) for row in rows[v]]
            for v in range(12)]
    assert got.tolist() == want
    assert got.any() and not got.all()


@pytest.mark.parametrize("ramp", [False, True], ids=["main", "ramp"])
def test_progress_rows_matches_progress_elementwise(ramp):
    # simulate reads its merge steps off _progress_rows; positions at the
    # edges, around the merge point, and on a circle about it, which has
    # points past the merge on the main road (progress > 0) that lie behind
    # it along the ramp (along_ramp < 0)
    rng = np.random.default_rng(26)
    circle = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    behind_the_ramp = 0
    for angle in (8.0, 15.0, 30.0, 90.0, -20.0):
        for merge_x in (100.0, 0.0, -0.0, 5e-324, -1e150):
            geom = RoadGeometry(merge_x=merge_x, ramp_angle_deg=angle)
            px = np.concatenate((edge_values(rng, 150), merge_x + edge_values(rng, 150),
                                 merge_x + 10.0 * np.cos(circle)))
            py = np.concatenate((edge_values(rng, 150), edge_values(rng, 150),
                                 10.0 * np.sin(circle)))
            with np.errstate(all="ignore"):
                got = geom._progress_rows(ramp, px, py)
            want = [geom._progress(ramp, x, y) for x, y in zip(px.tolist(), py.tolist())]
            assert hex_all(got) == hex_all(want)
            assert (got > 0.0).tolist() == [p > 0.0 for p in want]
            behind_the_ramp += sum(geom._progress(False, x, y) > 0.0 > geom._progress(True, x, y)
                                   for x, y in zip(px.tolist(), py.tolist()))
    assert behind_the_ramp > 0


# --- numpy's error state -------------------------------------------------------

def log_bytes(rec):
    return [getattr(rec.log, name).tobytes() for name in ("states", "inputs", "pair_h", "feasible")]


@pytest.mark.parametrize("dt", [0.01, 1e300], ids=["merge", "diverged"])
@pytest.mark.parametrize("stage", STAGES)
def test_simulate_does_not_depend_on_numpys_error_state(monkeypatch, stage, dt):
    # at dt = 1e300 the states overflow and every row holds infinities or NaNs
    cfg = dataclasses.replace(_two_lane_roster(), dt=dt)
    want = run_stage(monkeypatch, stage, cfg)
    with np.errstate(all="raise"):
        before = np.geterr()
        got = run_stage(monkeypatch, stage, cfg)
        assert np.geterr() == before
    assert log_bytes(got) == log_bytes(want)
    assert np.isnan(got.log.pair_h).any() == (dt > 1.0)


@pytest.mark.parametrize("stage", STAGES)
def test_simulate_restores_numpys_error_state_when_a_step_raises(monkeypatch, stage):
    solve = scenario._solve_scalar
    calls = []

    def failing_solve(*args):
        calls.append(args)
        if len(calls) == 5:
            raise RuntimeError("solver failed")
        return solve(*args)

    monkeypatch.setattr(scenario, "_solve_scalar", failing_solve)
    with np.errstate(all="raise"):
        before = np.geterr()
        with pytest.raises(RuntimeError, match="solver failed"):
            run_stage(monkeypatch, stage, _two_lane_roster())
        assert np.geterr() == before
    assert len(calls) == 5


# --- generated rosters ---------------------------------------------------------

@st.composite
def mixed_rosters(draw):
    """2-12 vehicles of test_contracts' kinds (both routes and fixed
    headings), styles of order 1-3 with zero coefficients of either sign
    mixed in, boxes from +-1 to +-50, and sometimes a compatibility entry."""
    n = draw(st.integers(2, 12))
    q = draw(st.integers(1, 3))
    coefficient = st.one_of(st.floats(0.0, 1.0), st.sampled_from((0.0, -0.0)))
    vehicles = []
    for k in range(n):
        bound = draw(st.floats(1.0, 50.0))
        spec = dict(draw(_vehicle), limits=ControlLimits((-bound, -bound), (bound, bound)),
                    alpha=AlphaVector(tuple(draw(coefficient)
                                            for _ in range(draw(st.integers(1, q))))))
        vehicles.append(VehicleSpec(name=f"v{k}", **spec))
    if draw(st.booleans()):
        v, w = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        gap = tuple(draw(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=3)))
        vehicles[v] = dataclasses.replace(vehicles[v], compat=(vehicles[w].name, gap))
    return ScenarioConfig(geometry=RoadGeometry(), vehicles=tuple(vehicles),
                          n_steps=draw(st.integers(1, 30)), safety=SafetyConfig(q=q))


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(cfg=mixed_rosters())
def test_stages_agree_on_generated_rosters(cfg):
    with pytest.MonkeyPatch.context() as monkeypatch:
        both_stages(monkeypatch, cfg)
