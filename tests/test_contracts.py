"""Property-based contracts, searched with hypothesis under a fixed budget.

derandomize=True makes each run draw the same examples, so a failure here
reproduces on every machine.
"""
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import frozen_solve_scalar, minimax_oracle, qp_oracle, result_bits

from polycbf import (AlphaVector, SafetyConfig, ScenarioConfig, VehicleSpec, controller,
                     default_geometry, simulate)

_rows = st.lists(st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0),
                           st.floats(-50.0, 50.0)), max_size=4)


def _within_face(u, lo, hi):
    # A box face is a row like any other: the solver screens it with the
    # tolerance _FEAS_TOL * max(1, |bound|), so a result may lie that far
    # past it (test_solve_scalar_result_stays_inside_the_box and
    # test_solve_scalar_nominal_past_a_face_is_kept_outside_the_box record it).
    return (lo - controller._FEAS_TOL * max(1.0, abs(lo)) <= u
            <= hi + controller._FEAS_TOL * max(1.0, abs(hi)))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(ubar=st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
       lo=st.tuples(st.floats(-6.0, 0.0), st.floats(-6.0, 0.0)),
       hi=st.tuples(st.floats(0.0, 6.0), st.floats(0.0, 6.0)),
       rows=_rows)
def test_solve_scalar_result_is_in_the_box_and_flagged_by_the_rows(ubar, lo, hi, rows):
    ux, uy, feasible, objective, t_star = controller._solve_scalar(*ubar, *lo, *hi, rows)
    assert math.isfinite(ux) and math.isfinite(uy)
    assert _within_face(ux, lo[0], hi[0]) and _within_face(uy, lo[1], hi[1])
    assert feasible == controller._admits(rows, ux, uy)
    assert math.isfinite(objective) and math.isfinite(t_star)
    assert (t_star == 0.0) if feasible else (t_star > 0.0)


# Rows near the box and rows far beyond it, which the candidate scans drop.
_mixed_rows = st.lists(st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0),
                                 st.one_of(st.floats(-50.0, 50.0), st.floats(50.0, 1e6))),
                       max_size=8)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(ubar=st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
       lo=st.tuples(st.floats(-6.0, 0.0), st.floats(-6.0, 0.0)),
       hi=st.tuples(st.floats(0.0, 6.0), st.floats(0.0, 6.0)),
       rows=_mixed_rows)
def test_solve_scalar_equals_the_frozen_unscreened_solver(ubar, lo, hi, rows):
    program = (*ubar, *lo, *hi, rows)
    want = frozen_solve_scalar(*program)
    assert result_bits(controller._solve_scalar(*program)) == result_bits(want)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(ubar=st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
       lo=st.tuples(st.floats(-6.0, 0.0), st.floats(-6.0, 0.0)),
       hi=st.tuples(st.floats(0.0, 6.0), st.floats(0.0, 6.0)),
       rows=_rows)
def test_solve_scalar_is_no_worse_than_the_oracles(ubar, lo, hi, rows):
    # A program the KKT oracle solves is solved, with an objective no larger
    # than the oracle's; a program flagged infeasible leaves a worst
    # violation t* no larger than the minimax oracle's.
    ux, uy, feasible, objective, t_star = controller._solve_scalar(*ubar, *lo, *hi, rows)
    pairs = [((ax, ay), b) for ax, ay, b in rows]
    expect = qp_oracle(ubar, lo, hi, pairs)
    if expect is not None:
        assert feasible
        assert objective <= expect[1] + 1e-9 * max(1.0, expect[1])
    if not feasible:
        oracle_t = minimax_oracle(lo, hi, pairs)[1]
        assert t_star <= oracle_t + 1e-9 * max(1.0, abs(oracle_t))


_vehicle = st.one_of(
    st.fixed_dictionaries({
        "route": st.sampled_from(("main", "ramp")),
        "start_progress": st.floats(-120.0, 10.0)}),
    st.fixed_dictionaries({
        "route": st.just("fixed"),
        "start_position": st.tuples(st.floats(-30.0, 130.0), st.floats(-40.0, 10.0)),
        "heading": st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)).filter(
            lambda d: d != (0.0, 0.0))}),
).flatmap(lambda place: st.fixed_dictionaries({
    "speed": st.floats(0.0, 15.0),
    "desired_speed": st.floats(0.0, 15.0),
    "alpha": st.lists(st.floats(0.0, 2.0), min_size=1, max_size=3).map(
        lambda c: AlphaVector(tuple(c))),
    **{key: st.just(value) for key, value in place.items()}}))


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(roster=st.lists(_vehicle, min_size=1, max_size=4),
       r_safe=st.floats(0.5, 8.0), n_steps=st.integers(1, 25))
def test_simulate_pair_h_is_the_clearance_of_the_logged_states(roster, r_safe, n_steps):
    cfg = ScenarioConfig(geometry=default_geometry(),
                         vehicles=tuple(VehicleSpec(name=f"v{k}", **spec)
                                        for k, spec in enumerate(roster)),
                         n_steps=n_steps, safety=SafetyConfig(r_safe=r_safe))
    log = simulate(cfg).log
    n = len(roster)
    assert log.pairs == tuple((i, j) for i in range(n) for j in range(i + 1, n))
    assert log.pair_h.shape == (log.states.shape[0], len(log.pairs))
    for t, row in enumerate(log.states.tolist()):
        for p, (i, j) in enumerate(log.pairs):
            dx = row[i][0] - row[j][0]
            dy = row[i][1] - row[j][1]
            h = dx * dx + dy * dy - r_safe * r_safe
            assert float(log.pair_h[t, p]).hex() == h.hex(), (t, i, j)
