"""Property-based contracts, searched with hypothesis under a fixed budget.

derandomize=True makes each run draw the same examples, so a failure here
reproduces on every machine.
"""
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import frozen_solve_scalar, result_bits

from polycbf import controller

_rows = st.lists(st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0),
                           st.floats(-50.0, 50.0)), max_size=4)


def _within_face(u, lo, hi):
    # A box face is a row like any other: the solver screens it with the
    # tolerance _FEAS_TOL * max(1, |bound|), so a result may lie that far
    # past it (test_solve_qp_result_stays_inside_the_box and
    # test_solve_qp_nominal_past_a_face_is_kept_outside_the_box record it).
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
