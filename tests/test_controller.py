"""Safety filter QP: nominal law, constraint rows, exact solve, fallbacks."""
import itertools
import math
import os
import random
import subprocess
import sys
from collections import namedtuple
from pathlib import Path

import numpy as np
import pytest

from helpers import (cruise_oracle, enumeration_oracle, frozen_solve_scalar, minimax_oracle,
                     qp_oracle, random_box_qp, result_bits, safety_row_oracle)

import polycbf
from polycbf import controller
from polycbf import (
    AlphaVector,
    ConfigurationError,
    ControlLimits,
    DomainError,
    SafetyConfig,
    VehicleState,
    kappa,
)
from polycbf.barrier import _kappa

# One filter solve: the input u, whether the program was feasible, the
# objective and the worst violation of the fallback.
Solution = namedtuple("Solution", "u feasible objective max_violation")


def _solve(u_nom, lo, hi, rows):
    """The filter QP through _solve_scalar, rows being (a, b) pairs that mean
    a.u <= b; the result as a Solution."""
    ux, uy, feasible, objective, t_star = controller._solve_scalar(
        float(u_nom[0]), float(u_nom[1]), float(lo[0]), float(lo[1]),
        float(hi[0]), float(hi[1]), [(float(a[0]), float(a[1]), float(b)) for a, b in rows])
    return Solution(np.array([ux, uy]), feasible, objective, t_star)


def _row(ego, other, alpha, cfg, dt):
    """The safety row (a, b) of ego against an other vehicle held at constant
    velocity, as simulate forms it: _row_terms plus _kappa."""
    dx_x, dx_y = (ego.position - other.position).tolist()
    dv_x, dv_y = (ego.velocity - other.velocity).tolist()
    h = dx_x * dx_x + dx_y * dx_y - cfg.r_safe * cfg.r_safe
    ax, ay, s = controller._row_terms(dx_x, dx_y, dv_x, dv_y, dt)
    return np.array([ax, ay]), s + _kappa(alpha.coefficients, h)


def test_nominal_control_proportional_law():
    # the cruise law along the unit direction (0.6, 0.8), inside the box
    u = controller._cruise(0.5, 8.0, 0.6, 0.8, 2.0, -1.0, -5.0, -5.0, 5.0, 5.0)
    assert u == pytest.approx((0.5 * (8.0 * 0.6 - 2.0), 0.5 * (8.0 * 0.8 + 1.0)), rel=1e-12)


def test_nominal_control_clamps_to_box():
    u = controller._cruise(2.0, 50.0, 1.0, 0.0, 0.0, 0.0, -3.0, -3.0, 3.0, 3.0)
    assert u == (3.0, 0.0)


# NaN, both zeros, both infinities and finite values, some equal to others:
# every (u, lo, hi) drawn from these puts u on a bound, past it or inside,
# and includes lo == hi.
_CLAMP_VALUES = (math.nan, -math.inf, -3.0, -0.0, 0.0, 2.5, 3.0, math.inf)


def _hex(pair):
    return tuple(map(float.hex, pair))


def test_cruise_clamp_matches_min_max_oracle_bit_for_bit():
    for u, lo, hi in itertools.product(_CLAMP_VALUES, repeat=3):
        # speed*d_x is -0.0 and v_x = -u, so the unclamped x input is u
        # itself, -0.0 included; the y axis takes the same values rotated.
        args = (1.0, 1.0, -0.0, -0.0, -u, -lo, lo, hi, hi, u)
        assert _hex(controller._cruise(*args)) == _hex(cruise_oracle(*args)), (u, lo, hi)


@pytest.mark.parametrize("limits", [None, ControlLimits((-3.0, -0.0), (0.0, 3.0)),
                                    ControlLimits((2.0, -1.0), (2.0, -1.0))])
def test_nominal_control_clamp_matches_min_max_oracle_bit_for_bit(limits):
    # _cruise in a box, or unbounded (None), against the builtins' clamp; the
    # gain overflows the larger velocities to infinities
    lo, hi = (-math.inf, -math.inf), (math.inf, math.inf)
    if limits is not None:
        lo, hi = limits.u_min.tolist(), limits.u_max.tolist()
    for d, v in [((1.0, 0.0), (4.0, 0.0)), ((-0.0, 1.0), (0.0, 9.0)), ((0.6, 0.8), (-2.0, 1.0)),
                 ((1.0, -0.0), (-1e308, 1e308)), ((0.6, 0.8), (6.0, 8.0))]:
        args = (1e10, 10.0, *d, *v, lo[0], lo[1], hi[0], hi[1])
        assert _hex(controller._cruise(*args)) == _hex(cruise_oracle(*args)), (d, v)


def test_nominal_plan_validation():
    # the cruise law's rules, which VehicleSpec applies to its speed, gain
    # and fixed heading
    with pytest.raises(ConfigurationError, match="^desired_speed must be >= 0, got -1.0$"):
        controller._check_cruise(-1.0, 0.5)
    with pytest.raises(ConfigurationError, match="^gain must be > 0, got 0.0$"):
        controller._check_cruise(1.0, 0.0)
    with pytest.raises(ConfigurationError, match="^heading must be non-zero$"):
        controller._check_direction("heading", 0.0, 0.0)
    with pytest.raises(DomainError, match="^heading has non-finite components$"):
        controller._check_direction("heading", math.nan, 1.0)
    assert controller._check_direction("heading", 3.0, 4.0) == 5.0


def test_control_limits_ordering():
    with pytest.raises(ConfigurationError):
        ControlLimits((1.0, 0.0), (0.0, 1.0))
    lim = ControlLimits((-2.0, -3.0), (2.0, 3.0))
    with pytest.raises(ValueError):
        lim.u_min[0] = 0.0


def test_solve_qp_matches_kkt_oracle():
    rng = np.random.default_rng(7)
    for _ in range(300):
        u_nom, lo, hi, rows = random_box_qp(rng)
        sol = _solve(u_nom, lo, hi, rows)
        expect = qp_oracle(u_nom, lo, hi, rows)
        if expect is None:
            assert not sol.feasible
            assert sol.max_violation > 0.0
            # the fallback still stays inside the actuator box
            assert np.all(sol.u >= lo - 1e-9) and np.all(sol.u <= hi + 1e-9)
        else:
            u_star, obj_star = expect
            assert sol.feasible
            assert sol.max_violation == 0.0
            assert np.linalg.norm(sol.u - u_star) <= 1e-6
            assert abs(sol.objective - obj_star) <= 1e-6


def test_solve_qp_matches_kkt_oracle_with_many_rows():
    # platoon-sized programs: up to 15 rows plus the box.  Random offsets make
    # most large programs infeasible; mirroring every offset to |b| keeps the
    # origin, which the box always holds, feasible under the same rows.
    rng = np.random.default_rng(11)
    seen = set()
    for _ in range(100):
        u_nom, lo, hi, drawn = random_box_qp(rng, n_rows_max=15)
        for rows in (drawn, [(a, abs(b)) for a, b in drawn]):
            sol = _solve(u_nom, lo, hi, rows)
            expect = qp_oracle(u_nom, lo, hi, rows)
            if expect is None:
                assert not sol.feasible
                assert sol.max_violation > 0.0
                assert np.all(sol.u >= lo - 1e-9) and np.all(sol.u <= hi + 1e-9)
                outcome = "infeasible"
            else:
                u_star, obj_star = expect
                assert sol.feasible
                assert np.linalg.norm(sol.u - u_star) <= 1e-6
                assert abs(sol.objective - obj_star) <= 1e-6
                outcome = "active" if obj_star > 0.0 else "nominal"
            if len(rows) > 8:
                seen.add(outcome)
    assert {"infeasible", "active"} <= seen


def test_solve_qp_returns_nominal_when_slack():
    u_nom = np.array([0.5, -0.25])
    sol = _solve(u_nom, np.array([-5.0, -5.0]), np.array([5.0, 5.0]),
                 ((np.array([1.0, 0.0]), 100.0),))
    assert sol.feasible
    assert np.array_equal(sol.u, u_nom)
    assert sol.objective == 0.0


def test_solve_qp_residuals_nonnegative_within_tolerance():
    rng = np.random.default_rng(8)
    checked = 0
    for _ in range(300):
        u_nom, lo, hi, rows = random_box_qp(rng)
        sol = _solve(u_nom, lo, hi, rows)
        if not sol.feasible:
            continue
        checked += 1
        for a, b in rows:
            assert float(np.asarray(a) @ sol.u) <= b + 1e-9 * max(1.0, abs(b))
    assert checked > 100


def test_solve_qp_nominal_on_a_row_line_is_returned_unchanged():
    # the nominal point satisfies a.u = b exactly; its own projection ties at
    # objective 0, and the nominal itself must come back
    u_nom = np.array([0.25, 0.75])
    sol = _solve(u_nom, np.array([-5.0, -5.0]), np.array([5.0, 5.0]),
                 ((np.array([1.0, 1.0]), 1.0),
                  (np.array([-1.0, 1.0]), 0.5)))
    assert sol.feasible
    assert np.array_equal(sol.u, u_nom)
    assert sol.objective == 0.0


def test_in_box_nominal_cut_by_a_row_is_screened_once(monkeypatch):
    # _solve_scalar's own screen finds the row that cuts the nominal off; the
    # candidate scan then starts from the projections without screening the
    # nominal again
    screened = []
    admits = controller._admits

    def spy(rows, ux, uy):
        screened.append((ux, uy))
        return admits(rows, ux, uy)

    monkeypatch.setattr(controller, "_admits", spy)
    found = controller._solve_scalar(0.5, 0.25, -1.0, -1.0, 1.0, 1.0, [(1.0, 0.0, 0.0)])
    assert found == (0.0, 0.25, True, 0.25, 0.0)
    assert screened.count((0.5, 0.25)) == 1


def test_nan_row_is_never_satisfied():
    # a row whose bound is NaN cannot be evaluated: the nominal does not pass
    # it, no candidate does, and the program is flagged infeasible with a
    # box point; the relaxed re-solve finds nothing either, so the violation
    # is reported as unbounded, not NaN
    nan = float("nan")
    assert controller._solve_scalar(1.0, 0.0, -5.0, -5.0, 5.0, 5.0, [(1.0, 0.0, nan)]) \
        == (-5.0, -5.0, False, 61.0, math.inf)


def test_zero_row_beside_an_overflowing_row_is_not_divided_by():
    # the pair of a zero row and a row whose squared norm overflows has
    # det = 0 and scale = sqrt(0 * inf) = NaN, so the scan skips it on
    # det == 0; the zero row 0.u <= -1 holds nowhere, t* = 1, and the
    # relaxed re-solve keeps the nominal
    rows = [(0.0, 0.0, -1.0), (1e200, 1e200, 1e200)]
    assert controller._solve_scalar(0.5, 0.5, -5.0, -5.0, 5.0, 5.0, rows) \
        == (0.5, 0.5, False, 0.0, 1.0)


def test_solve_qp_duplicated_rows_match_a_single_copy():
    lo, hi = np.array([-4.0, -4.0]), np.array([4.0, 4.0])
    u_nom = np.array([2.0, 1.5])
    row = (np.array([0.6, 0.8]), 0.5)
    single = _solve(u_nom, lo, hi, (row,))
    tripled = _solve(u_nom, lo, hi, (row, row, row))
    assert tripled.feasible and single.feasible
    assert np.array_equal(tripled.u, single.u)
    assert tripled.objective == single.objective
    u_star, obj_star = qp_oracle(u_nom, lo, hi, [row, row, row])
    assert np.linalg.norm(tripled.u - u_star) <= 1e-9
    assert abs(tripled.objective - obj_star) <= 1e-9


def test_solve_qp_row_through_a_box_corner():
    # u_x + u_y <= -2 meets the box [-1, 1]^2 only at the corner (-1, -1):
    # the row/face intersections and the face/face corner tie there
    u_nom = np.array([0.5, 0.2])
    sol = _solve(u_nom, np.array([-1.0, -1.0]), np.array([1.0, 1.0]),
                 ((np.array([1.0, 1.0]), -2.0),))
    assert sol.feasible
    assert np.array_equal(sol.u, [-1.0, -1.0])
    assert sol.objective == 1.5 ** 2 + 1.2 ** 2


def test_solve_qp_tie_goes_to_the_first_generated_candidate():
    # three rows through (1/3, 0.2): their pairwise intersections differ in
    # the last bit of u_y but share one objective, and the first pair wins
    rows = ((np.array([-0.8604435054687407, 0.5095458506323697]), -0.18490533169643963),
            (np.array([0.9197211920964997, -0.3925721956641776]), 0.2280592915659977),
            (np.array([-0.08667408168209619, 0.9962367206465366]), 0.1703559835686086))
    sol = _solve(np.array([-1.008873076676171, 1.9044018657405672]),
                 np.array([-2.0, -2.0]), np.array([2.0, 2.0]), rows)
    assert sol.feasible
    assert sol.u.tolist() == [0.3333333333333333, 0.19999999999999987]
    assert sol.objective == 4.7065037670105285


def _scan_row(rng, family, s, ux, uy):
    """One (ax, ay, b) row of the given family near the nominal (ux, uy)."""
    ax, ay = rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)
    if family == "axis":
        ax, ay = rng.choice(((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0),
                             (1.0, -0.0), (-0.0, -1.0), (2.0, 0.0), (0.0, -3.0),
                             (ax, 1e-170), (1e-170, ay)))
    elif family == "tiny":
        ax, ay = ax * 1e-160, ay * 1e-160
    return ax, ay, ax * ux + ay * uy + s * rng.uniform(-1.0, 3.0)


def _scan_program(rng):
    """One random program for the candidate scan, in the families that stress
    its ordering and rounding: concurrent lines, duplicated and near-parallel
    rows, the nominal on a line or outside the box, unit-coefficient rows, box
    faces at the distance of the best projection, and unit-row pairs that
    undercut the best projection by an ulp.

    Returns (ubar_x, ubar_y, lo_x, lo_y, hi_x, hi_y, rows) with rows
    excluding the box.
    """
    s = 10.0 ** rng.uniform(-2.0, 2.0)
    lo_x, lo_y = -s * rng.uniform(0.2, 6.0), -s * rng.uniform(0.2, 6.0)
    hi_x, hi_y = s * rng.uniform(0.2, 6.0), s * rng.uniform(0.2, 6.0)
    if rng.random() < 0.2:
        ux, uy = s * rng.uniform(-9.0, 9.0), s * rng.uniform(-9.0, 9.0)
    else:
        ux, uy = rng.uniform(lo_x, hi_x), rng.uniform(lo_y, hi_y)
    family = rng.choice(("general", "concurrent", "duplicated", "near_parallel",
                         "on_line", "axis", "tiny", "face_at_reach", "face_pair"))
    n_rows = rng.randint(1, rng.choice((2, 4, 8, 15)))
    rows = [_scan_row(rng, family, s, ux, uy) for _ in range(n_rows)]
    if family == "concurrent":
        qx, qy = ux + s * rng.gauss(0.0, 1.0), uy + s * rng.gauss(0.0, 1.0)
        rows = [(ax, ay, ax * qx + ay * qy) if rng.random() < 0.8 else (ax, ay, b)
                for ax, ay, b in rows]
    elif family == "duplicated":
        for _ in range(rng.randint(1, 4)):
            ax, ay, b = rng.choice(rows)
            k = rng.choice((1.0, 1.0, 2.0, 3.0, 0.1))
            rows.insert(rng.randrange(len(rows) + 1), (k * ax, k * ay, k * b))
    elif family == "near_parallel":
        for _ in range(rng.randint(1, 4)):
            ax, ay, b = rng.choice(rows)
            e = 10.0 ** rng.uniform(-16.0, -8.0)
            rows.append((ax * (1.0 + e), ay, b * (1.0 + rng.choice((-e, 0.0, e)))))
    elif family == "on_line":
        for k in range(rng.randint(1, len(rows))):
            ax, ay, _ = rows[k]
            rows[k] = (ax, ay, ax * ux + ay * uy)
    elif family == "face_at_reach":
        # the first row cuts the nominal; put a box face at its distance
        ax, ay, b = rows[0]
        d = abs(ax * ux + ay * uy - b) / math.sqrt(ax * ax + ay * ay)
        d *= 1.0 + rng.choice((-1, 0, 1, 2, 1e3, 1e4)) * 2.0 ** -52
        if rng.random() < 0.5:
            hi_x = max(ux + d, ux)
        else:
            lo_y = min(uy - d, uy)
    elif family == "face_pair":
        # the unit row ux <= c cuts the nominal, a steep line's projection
        # lies a few ulp of c nearer, and a second line crosses the unit row
        # at the nominal's height: a pair on the unit row can undercut the
        # best projection by an ulp, so it must not be pruned
        c = s * rng.choice((3.0, 1000.0, 1e5))
        d = s * rng.uniform(0.1, 1.0)
        ux = c + d
        hi_x = max(hi_x, ux)
        e = 10.0 ** rng.uniform(-4.0, -1.0)
        n = math.hypot(1.0, e)
        r = d - rng.uniform(0.0, 4e-16) * c
        th = rng.uniform(0.2, 1.3) * rng.choice((1.0, -1.0))
        ax, ay = math.cos(th), math.sin(th)
        rows = [(1.0 / n, e / n, ux / n + e / n * uy - r), (ax, ay, ax * c + ay * uy),
                (1.0, 0.0, c)]
    return ux, uy, lo_x, lo_y, hi_x, hi_y, rows


def _box(rows, lo_x, lo_y, hi_x, hi_y):
    return list(rows) + [(1.0, 0.0, hi_x), (-1.0, 0.0, -lo_x),
                         (0.0, 1.0, hi_y), (0.0, -1.0, -lo_y)]


def test_candidate_scan_matches_frozen_oracle_bit_for_bit():
    # The one-pass scan with its face-distance prune, and _solve_scalar's
    # early return before the box is built, must give exactly the bits of the
    # list-score-sort scan they replaced.
    rng = random.Random(20261018)
    outcomes = {"nominal": 0, "active": 0, "infeasible": 0}
    for _ in range(20000):
        ux, uy, lo_x, lo_y, hi_x, hi_y, rows = _scan_program(rng)
        boxed = _box(rows, lo_x, lo_y, hi_x, hi_y)
        want = enumeration_oracle(ux, uy, boxed)
        assert result_bits(controller._enumerate_min_deviation(ux, uy, boxed)) == result_bits(want)
        if want is None:
            outcomes["infeasible"] += 1
            continue
        outcomes["nominal" if want[2] == 0.0 else "active"] += 1
        got = controller._solve_scalar(ux, uy, lo_x, lo_y, hi_x, hi_y, rows)
        assert result_bits(got) == result_bits((want[0], want[1], True, want[2], 0.0))
    assert min(outcomes.values()) > 4000, outcomes


def _top(ax, ay, lo_x, lo_y, hi_x, hi_y):
    """The row's maximum a.u over the box."""
    return ax * (hi_x if ax > 0.0 else lo_x) + ay * (hi_y if ay > 0.0 else lo_y)


def _margin_bound(ax, ay, ubar_x, ubar_y, lo_x, lo_y, hi_x, hi_y):
    """The bound b at which the row's gap over the box equals the screen's
    documented margin |ax|*e_x + |ay|*e_y + |b|/4 (see _live_rows)."""
    ext_x, ext_y = max(abs(lo_x), abs(hi_x)), max(abs(lo_y), abs(hi_y))
    e_x = 1e-9 * max(1.0, ext_x) + 2.0 ** -40 * (1.0 + ext_x + abs(ubar_x))
    e_y = 1e-9 * max(1.0, ext_y) + 2.0 ** -40 * (1.0 + ext_y + abs(ubar_y))
    c = _top(ax, ay, lo_x, lo_y, hi_x, hi_y) + abs(ax) * e_x + abs(ay) * e_y
    return c / 0.75 if c > 0.0 else c / 1.25


def _far_row(rng, s, lo_x, lo_y, hi_x, hi_y):
    """A row that clears the box by anything from a hair to a mile, as a
    platoon's distant neighbours do."""
    ax, ay = rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)
    k = 10.0 ** rng.uniform(-3.0, 3.0)
    ax, ay = k * ax, k * ay
    gap = (abs(ax) + abs(ay)) * s * 10.0 ** rng.uniform(-12.0, 6.0)
    return ax, ay, _top(ax, ay, lo_x, lo_y, hi_x, hi_y) + gap


def _screen_program(rng):
    """One random program for the row screen, in three families:
    - far: a candidate-scan program with many rows that clear the box;
    - near_margin: rows whose bound lies within a few ulps of the screen's
      margin, on both sides, among far rows;
    - face_tolerance: a box with a corner at the origin and a row whose line
      passes just past that corner, inside the faces' tolerance, with the
      nominal beyond it: the row's own projection is admitted and wins, so
      any smaller margin that drops the row changes the answer.
    Returns (ubar_x, ubar_y, lo_x, lo_y, hi_x, hi_y, rows) with rows
    excluding the box.
    """
    family = rng.choice(("far", "near_margin", "face_tolerance"))
    if family == "face_tolerance":
        s = 10.0 ** rng.uniform(-1.0, 3.0)
        ax, ay = rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)
        lo_x, hi_x = (-s * rng.uniform(0.5, 2.0), 0.0) if ax > 0.0 else (0.0, s)
        lo_y, hi_y = (-s * rng.uniform(0.5, 2.0), 0.0) if ay > 0.0 else (0.0, s)
        f = rng.uniform(0.0, 1.0)
        px = math.copysign(f * 1e-9 * max(1.0, abs(lo_x), abs(hi_x)), ax)
        py = math.copysign(f * 1e-9 * max(1.0, abs(lo_y), abs(hi_y)), ay)
        d = s * rng.uniform(0.1, 3.0) / math.hypot(ax, ay)
        ux, uy = px + d * ax, py + d * ay
        rows = [(ax, ay, ax * px + ay * py)]
        rows += [_far_row(rng, s, lo_x, lo_y, hi_x, hi_y) for _ in range(rng.randint(1, 6))]
        rng.shuffle(rows)
        return ux, uy, lo_x, lo_y, hi_x, hi_y, rows
    ux, uy, lo_x, lo_y, hi_x, hi_y, rows = _scan_program(rng)
    s = max(abs(lo_x), abs(hi_x), abs(lo_y), abs(hi_y))
    extra = [_far_row(rng, s, lo_x, lo_y, hi_x, hi_y) for _ in range(rng.randint(1, 14))]
    if family == "near_margin":
        for k in range(rng.randint(1, 4)):
            ax, ay, _ = extra[k % len(extra)]
            b = _margin_bound(ax, ay, ux, uy, lo_x, lo_y, hi_x, hi_y)
            for _ in range(rng.randint(0, 4)):
                b = math.nextafter(b, rng.choice((-math.inf, math.inf)))
            extra.append((ax, ay, b))
    for row in extra:
        rows.insert(rng.randrange(len(rows) + 1), row)
    return ux, uy, lo_x, lo_y, hi_x, hi_y, rows


def test_solve_scalar_matches_the_frozen_unscreened_solver_bit_for_bit():
    # Dropping the rows that cannot bind must leave every result bit the
    # same on all three paths, ties included, against a copy of the solver
    # in which every scan sees every row.
    rng = random.Random(20261019)
    paths = {"nominal": 0, "active": 0, "infeasible": 0}
    screened = 0
    for _ in range(12000):
        program = _screen_program(rng)
        ux, uy, lo_x, lo_y, hi_x, hi_y, rows = program
        want = frozen_solve_scalar(*program)
        assert result_bits(controller._solve_scalar(*program)) == result_bits(want), program
        paths["infeasible" if not want[2] else "nominal" if want[3] == 0.0 else "active"] += 1
        screened += len(controller._live_rows(rows, ux, uy, lo_x, lo_y, hi_x, hi_y)) < len(rows)
    assert min(paths.values()) > 1000, paths
    assert screened > 6000, screened


@pytest.mark.parametrize("program", [
    # the pair's point rounds onto the corner and ties the optimum's objective
    (2.553522590034735, 2.3855772082455404, -5.0, -5.0, 5.0, 5.0,
     [(-0.7855642988434952, 0.6187800358253841, 7.021721921341518),
      (0.4534897421300905, -0.89126149573668, -6.723756189333853),
      (-0.7855642986273431, 0.6187800358141256, 7.021721920204465)]),
    # the pair's point lands inside the box, within the cutting row's
    # tolerance, and beats the corner by more than rounding
    (4.0067639150727015, 4.910715512743744, -5.0, -5.0, 5.0, 5.0,
     [(-0.237403918668105, -0.9714110061620499, 6.044074632811592),
      (0.934369068899174, 0.35630666999719585, -6.45337869448185),
      (-0.23740393041833194, -0.9714110220817591, 6.044074771161273)]),
    (1.188054732780345, 4.050125105713327, -5.0, -5.0, 5.0, 5.0,
     [(0.007296810000894375, 0.999973377927538, -5.036350939642163),
      (-0.36586030903562883, -0.9306697770684698, 6.482650592797686),
      (-0.36586031100837363, -0.9306697764668498, 6.482650599653311)]),
], ids=["tie", "inside-beats-corner", "inside-along-a-face"])
def test_near_parallel_pair_past_a_corner_stays_in_the_scan(program):
    # A nominal cut by a row through a box corner, and two near-parallel
    # rows whose lines cross just past that corner: they clear the box by
    # less than |b|/4 of _live_rows' margin, so they stay live, and their
    # pair's point, off by Cramer's rounding, is admitted and wins.  A
    # margin without the |b|/4 term drops them and answers with another
    # point; these programs were found by a random search of that shape.
    ux, uy, lo_x, lo_y, hi_x, hi_y, rows = program
    pair = [r for r in rows if r[2] > _top(r[0], r[1], lo_x, lo_y, hi_x, hi_y)]
    assert len(pair) == 2
    assert all(b - _top(ax, ay, lo_x, lo_y, hi_x, hi_y) < 1e-6 for ax, ay, b in pair)
    assert controller._live_rows(rows, ux, uy, lo_x, lo_y, hi_x, hi_y) == rows
    assert result_bits(controller._solve_scalar(*program)) == \
        result_bits(frozen_solve_scalar(*program))


@pytest.mark.parametrize("rows", [
    [(1.0, 0.0, math.nan), (0.3, 0.4, 1e6)],
    [(0.3, 0.4, 1e6), (math.nan, 1.0, 0.0), (-2.0, 1.0, 1e4)],
    [(0.3, 0.4, 1e6), (1.0, math.nan, -1.0)],
    [(0.0, 1.0, -2.0), (0.3, 0.4, 1e6), (1.0, 0.0, math.nan), (-0.5, 0.1, 3e2)],
    [(math.nan, math.nan, math.nan), (1.0, 1.0, 0.5)],
])
@pytest.mark.parametrize("ubar", [(1.0, 0.0), (0.5, 4.0), (9.0, -7.0)])
def test_nan_row_survives_the_screen_bit_for_bit(rows, ubar):
    # a NaN row is never dropped as clear of the box: the program stays
    # infeasible exactly as the unscreened solver reports it
    program = (*ubar, -5.0, -5.0, 5.0, 5.0, rows)
    nan_rows = [r for r in rows if any(math.isnan(c) for c in r)]
    assert all(r in controller._live_rows(rows, *ubar, -5.0, -5.0, 5.0, 5.0)
               for r in nan_rows)
    got = controller._solve_scalar(*program)
    assert result_bits(got) == result_bits(frozen_solve_scalar(*program))
    assert not got[2] and got[4] == math.inf


def test_solve_scalar_screen_keeps_a_lone_row_and_drops_far_ones():
    # a lone row is never screened; of many, only the rows that can bind stay
    far = [(0.2, 0.0, 50.0), (0.0, -0.2, 1e3)]
    assert controller._live_rows([far[0]], 0.0, 0.0, -5.0, -5.0, 5.0, 5.0) == [far[0]]
    near = (1.0, 1.0, 0.5)
    assert controller._live_rows([far[0], near, far[1]], 0.0, 0.0,
                                 -5.0, -5.0, 5.0, 5.0) == [near]


def _projection(ubar_x, ubar_y, ax, ay, b):
    """A row's projection of the nominal and its objective, by the scan's
    expressions in the scan's order."""
    nrm = ax * ax + ay * ay
    t = (ax * ubar_x + ay * ubar_y - b) / nrm
    ux = ubar_x - t * ax
    uy = ubar_y - t * ay
    dxu = ux - ubar_x
    dyu = uy - ubar_y
    return ux, uy, dxu * dxu + dyu * dyu


def _nudge(x, rng, ulps=3):
    for _ in range(rng.randint(0, ulps)):
        x = math.nextafter(x, rng.choice((-math.inf, math.inf)))
    return x


def _crossing_at_reach(rng, s):
    """The face ux = hi_x just past the projection's reach, which the row
    crosses about as near the nominal as it projects it (see
    _one_row_program)."""
    c = s * rng.uniform(0.2, 6.0)
    d = c * 10.0 ** rng.uniform(-8.0, -4.0)
    ux, uy = c - d, rng.uniform(-s, s)
    hi_x = _nudge(ux + d, rng, 2)
    # A line tilted by th from the face's normal, through the point d from
    # the nominal, crosses the face at the nominal's height when
    # th^2/2 = (hi_x - ux - d)/d.
    delta = max(hi_x - ux - d, 1e-300) / d
    th = math.sqrt(2.0 * delta) * rng.uniform(0.5, 1.6) * rng.choice((1.0, -1.0))
    k = 10.0 ** rng.uniform(-3.0, 3.0)
    ax, ay = -k * math.cos(th), -k * math.sin(th)
    b = ax * (ux + d * math.cos(th)) + ay * (uy + d * math.sin(th))
    return ux, uy, -6.0 * s, -6.0 * s, hi_x, 6.0 * s, [(ax, ay, b)]


def _mirrored(program, face):
    """program with its hi_x face moved to face 0-3 (hi_x, lo_x, hi_y, lo_y)
    by exact negations and swaps of the axes."""
    ux, uy, lo_x, lo_y, hi_x, hi_y, rows = program
    if face in (1, 3):
        ux, lo_x, hi_x = -ux, -hi_x, -lo_x
        rows = [(-ax, ay, b) for ax, ay, b in rows]
    if face in (2, 3):
        ux, uy, lo_x, lo_y, hi_x, hi_y = uy, ux, lo_y, lo_x, hi_y, hi_x
        rows = [(ay, ax, b) for ax, ay, b in rows]
    return ux, uy, lo_x, lo_y, hi_x, hi_y, rows


def _one_row_program(rng, family):
    """A program whose nominal lies in (or on) the box and is cut off by one
    row that _live_rows keeps, at the edge of _solve_scalar's one-row
    shortcut:
    - face_reach: a box face at the prune threshold, |c - ubar| = reach or
      reach + 1e-12*|c|, give or take a few ulps, the row tilted toward it;
      or a face 0-2 ulps past reach, far from the origin, and a row tilted
      so that it crosses the face about as near the nominal as its own
      projection: that pair is then within rounding of the best, which the
      prune's 1e-12*|c| term covers;
    - projection_at_face: the projection on a face line, a few ulps or a
      small fraction of the distance inside, or just past it;
    - nominal_on_face: the nominal on a face, a few ulps or a small fraction
      of the box inside it, or just outside;
    - degenerate: zero, NaN and infinite rows, alone or beside the row, and
      rows whose norm overflows;
    - scales: box, nominal and row scaled by 1e-150 to 1e150, the row's
      coefficients by another 1e-8 to 1e12; half the rows pass through the
      origin, where the projection's rounding can exceed the absolute
      tolerance _admits grants small bounds;
    - far_rows: the row among rows that clear the box.
    Returns (ubar_x, ubar_y, lo_x, lo_y, hi_x, hi_y, rows), rows excluding
    the box.
    """
    s = 10.0 ** rng.uniform(-150.0, 150.0) if family == "scales" else \
        10.0 ** rng.uniform(-2.0, 3.0)
    if family == "face_reach" and rng.random() < 0.5:
        return _mirrored(_crossing_at_reach(rng, s), rng.randrange(4))
    lo_x, lo_y = -s * rng.uniform(0.2, 6.0), -s * rng.uniform(0.2, 6.0)
    hi_x, hi_y = s * rng.uniform(0.2, 6.0), s * rng.uniform(0.2, 6.0)
    ux, uy = rng.uniform(lo_x, hi_x), rng.uniform(lo_y, hi_y)
    # The projection moves the nominal by d along (cos th, sin th).
    th = rng.uniform(-math.pi, math.pi)
    d = s * 10.0 ** rng.uniform(-8.0, 0.0)
    face = rng.randrange(4)  # hi_x, lo_x, hi_y, lo_y
    if family in ("face_reach", "projection_at_face", "nominal_on_face"):
        # Head toward the chosen face, tilted by anything from 0 to 1 rad.
        tilt = rng.choice((0.0, 10.0 ** rng.uniform(-9.0, 0.0))) * rng.choice((1, -1))
        th = (0.0, math.pi, 0.5 * math.pi, -0.5 * math.pi)[face] + tilt
    if family == "nominal_on_face":
        c = (hi_x, lo_x, hi_y, lo_y)[face]
        inward = -1.0 if face in (0, 2) else 1.0
        offset = rng.choice((0.0, s * 10.0 ** rng.uniform(-13.0, -2.0)))
        p = _nudge(c + inward * offset, rng)
        if face < 2:
            ux = p
        else:
            uy = p
        # Mostly away from the face, and mostly by less than the offset, so
        # that the projection can stay inside.
        if rng.random() < 0.7:
            th += math.pi
        d = max(offset, s * 1e-9) * 10.0 ** rng.uniform(-3.0, 1.0)
    cos_th, sin_th = math.cos(th), math.sin(th)
    if family == "projection_at_face":
        c = (hi_x, lo_x, hi_y, lo_y)[face]
        step = cos_th if face < 2 else sin_th
        if abs(step) < 1e-3:
            step = math.copysign(1e-3, step)
        u = ux if face < 2 else uy
        inside = rng.choice((0.0, 0.0, abs(c - u) * 10.0 ** rng.uniform(-14.0, -1.0)))
        d = (c - u) / step * (1.0 - inside / max(abs(c - u), 1e-300))
        d = _nudge(abs(d), rng)
    px, py = ux + d * cos_th, uy + d * sin_th
    k = 10.0 ** rng.uniform(-8.0, 12.0) / s if family == "scales" else \
        10.0 ** rng.uniform(-3.0, 3.0)
    ax, ay = -k * cos_th, -k * sin_th
    if family == "scales" and rng.random() < 0.5:
        b = 0.0  # through the origin
        # keep the nominal on the cut side
        if ax * ux + ay * uy <= 0.0:
            ax, ay = -ax, -ay
    else:
        b = ax * px + ay * py
    rows = [(ax, ay, b)]
    if family == "face_reach":
        _, _, obj = _projection(ux, uy, ax, ay, b)
        if obj < math.inf:
            reach = math.sqrt(obj) * (1.0 + 1e-12) + 1e-140
            u = ux if face < 2 else uy
            sign = 1.0 if face in (0, 2) else -1.0
            c0 = u + sign * reach
            c = c0 + sign * rng.choice((0.0, 1.0, rng.uniform(-0.5, 1.5))) * 1e-12 * abs(c0)
            c = _nudge(c, rng, 4)
            if face == 0:
                hi_x = max(c, ux)
            elif face == 1:
                lo_x = min(c, ux)
            elif face == 2:
                hi_y = max(c, uy)
            else:
                lo_y = min(c, uy)
    elif family == "degenerate":
        bad = rng.choice(((0.0, 0.0, -1.0), (0.0, -0.0, s), (0.0, 0.0, 0.0),
                          (math.nan, ay, b), (ax, math.nan, b), (ax, ay, math.nan),
                          (math.inf, ay, b), (ax, -math.inf, b), (ax, ay, math.inf),
                          (ax * 1e300, ay * 1e300, b * 1e300)))
        choice = rng.randrange(3)
        if choice == 0:
            rows = [bad]
        elif choice == 1:
            rows.insert(rng.randrange(2), bad)
        # A zero row with a positive bound clears the box and is dropped.
        # The scan pairs a zero row with an overflowing one and divides by
        # their zero det, so the unscreened solver cannot take both.
        if not any(abs(ax) > 1e250 for ax, _, _ in rows):
            for _ in range(rng.randint(0, 2)):
                rows.insert(rng.randrange(len(rows) + 1),
                            (0.0, 0.0, s * rng.uniform(0.1, 9.0)))
    elif family == "far_rows":
        for _ in range(rng.randint(1, 8)):
            rows.insert(rng.randrange(len(rows) + 1), _far_row(rng, s, lo_x, lo_y, hi_x, hi_y))
    return ux, uy, lo_x, lo_y, hi_x, hi_y, rows


@pytest.mark.parametrize("family, n_programs", [
    ("face_reach", 10000), ("projection_at_face", 3000), ("nominal_on_face", 3000),
    ("degenerate", 3000), ("scales", 3000), ("far_rows", 3000)])
def test_one_live_row_shortcut_matches_the_frozen_solver_bit_for_bit(monkeypatch, family,
                                                                     n_programs):
    # The projection _solve_scalar returns for one live row, before the box
    # is built, must be the bits the full scan returns; in every family the
    # shortcut must both fire and fall back to the scan.  A face crossing
    # within rounding of the best, the case the prune's 1e-12*|c| term
    # covers, turns up in under 1% of face_reach's crossing programs, hence
    # its larger count.
    scans = []
    scan = controller._enumerate_min_deviation

    def spy(*args, **kwargs):
        scans.append(args)
        return scan(*args, **kwargs)

    monkeypatch.setattr(controller, "_enumerate_min_deviation", spy)
    rng = random.Random(f"one live row: {family}")
    fired = fell_back = 0
    for _ in range(n_programs):
        program = _one_row_program(rng, family)
        want = frozen_solve_scalar(*program)
        del scans[:]
        got = controller._solve_scalar(*program)
        assert result_bits(got) == result_bits(want), program
        if scans:
            fell_back += 1
        elif got[:2] != program[:2]:  # not the nominal
            fired += 1
    assert fired > 100 and fell_back > 100, (fired, fell_back)


def test_solve_qp_single_row_projection():
    # nominal outside one half-plane: answer is the Euclidean projection
    a = np.array([1.0, 1.0])
    b = 1.0
    u_nom = np.array([2.0, 2.0])
    sol = _solve(u_nom, np.array([-10.0, -10.0]), np.array([10.0, 10.0]),
                 ((a, b),))
    t = (float(a @ u_nom) - b) / float(a @ a)
    assert sol.feasible
    assert sol.u == pytest.approx(u_nom - t * a, rel=1e-12)


def test_solve_qp_infeasible_single_row_box_corner():
    # u_x <= -2 cannot hold inside [-1, 1]^2; violation minimized at x = -1
    u_nom = np.array([0.2, 0.3])
    sol = _solve(u_nom, np.array([-1.0, -1.0]), np.array([1.0, 1.0]),
                 ((np.array([1.0, 0.0]), -2.0),))
    assert not sol.feasible
    assert sol.max_violation == pytest.approx(1.0, rel=1e-9)
    # relaxed re-solve pins x at the wall and leaves y at the nominal
    assert sol.u[0] == pytest.approx(-1.0, abs=1e-8)
    assert sol.u[1] == pytest.approx(0.3, abs=1e-9)


def test_solve_qp_infeasible_contradictory_rows():
    # u_x <= -1 and u_x >= 1 together: best worst violation is 1 at u_x = 0
    u_nom = np.array([0.0, 0.4])
    sol = _solve(u_nom, np.array([-2.0, -2.0]), np.array([2.0, 2.0]),
                 ((np.array([1.0, 0.0]), -1.0),
                  (np.array([-1.0, 0.0]), -1.0)))
    assert not sol.feasible
    assert sol.max_violation == pytest.approx(1.0, rel=1e-9)
    assert sol.u[0] == pytest.approx(0.0, abs=1e-8)
    # y is unconstrained, so the tie resolves toward the nominal
    assert sol.u[1] == pytest.approx(0.4, abs=1e-9)


def test_solve_qp_infeasible_single_row_keeps_corner_violation():
    # u_x + 2 u_y <= -4 cannot hold in [-1, 1]^2; the corner (-1, -1) leaves
    # the smallest violation, t* = -1 - 2 + 4 = 1
    sol = _solve(np.array([0.3, -0.2]), np.array([-1.0, -1.0]),
                 np.array([1.0, 1.0]), ((np.array([1.0, 2.0]), -4.0),))
    assert not sol.feasible
    assert sol.max_violation == 1.0
    assert sol.u == pytest.approx([-1.0, -1.0], abs=1e-8)


def test_solve_qp_infeasible_multi_row_keeps_minimax_violation():
    # u_x <= -2 and u_y <= -3 in [-1, 1]^2: the LP fallback minimizes the
    # worst violation, max(u_x + 2, u_y + 3) >= 2 at u_y = -1, u_x <= 0
    u_nom = np.array([0.3, 0.4])
    sol = _solve(u_nom, np.array([-1.0, -1.0]), np.array([1.0, 1.0]),
                 ((np.array([1.0, 0.0]), -2.0),
                  (np.array([0.0, 1.0]), -3.0)))
    assert not sol.feasible
    assert sol.max_violation == pytest.approx(2.0, rel=1e-9)
    # the relaxed re-solve keeps u_x at the nominal and pins u_y to the wall
    assert sol.u == pytest.approx([0.0, -1.0], abs=1e-8)


def _check_minimax_fallback(u_nom, lo, hi, rows):
    """The solver's t* equals the oracle's, and its input stays in the box and
    within the relaxed rows, up to the screening tolerance.  Returns the
    oracle's minimizer."""
    sol = _solve(u_nom, lo, hi, rows)
    u_star, t_star = minimax_oracle(lo, hi, rows)
    assert not sol.feasible
    assert sol.max_violation == pytest.approx(t_star, rel=1e-9)
    assert np.all(sol.u >= lo - 1e-8) and np.all(sol.u <= hi + 1e-8)
    worst = max(float(np.asarray(a) @ sol.u) - b for a, b in rows)
    assert worst <= t_star + 1e-8 * max(1.0, abs(t_star))
    return u_star


def test_solve_qp_infeasible_matches_minimax_oracle():
    # rows of random direction and length, each offset so that the row is
    # violated by at least t0 at a point p near the box; the optimum lands
    # at a corner, on an edge or inside the box
    rng = np.random.default_rng(23)
    where = {0: 0, 1: 0, 2: 0}  # box coordinates the optimum sits on
    checked = 0
    while checked < 100:
        lo, hi = -rng.uniform(0.5, 6.0, 2), rng.uniform(0.5, 6.0, 2)
        m = int(rng.integers(2, 16))
        angle = rng.uniform(0.0, 2.0 * np.pi, m)
        a = np.stack([np.cos(angle), np.sin(angle)], 1) * rng.uniform(0.2, 2.0, (m, 1))
        p = rng.uniform(1.3 * lo, 1.3 * hi)
        slack = rng.exponential(0.5, m) * (rng.random(m) < 0.7)
        b = a @ p - rng.uniform(0.1, 2.0) - slack
        rows = [(a[k], float(b[k])) for k in range(m)]
        if minimax_oracle(lo, hi, rows)[1] < 1e-3:
            continue  # feasible, or too close to call
        u_star = _check_minimax_fallback(rng.uniform(-8.0, 8.0, 2), lo, hi, rows)
        on_box = np.isclose(u_star, lo, rtol=0.0, atol=1e-9) | np.isclose(u_star, hi, rtol=0.0,
                                                                          atol=1e-9)
        where[int(on_box.sum())] += 1
        checked += 1
    assert min(where.values()) >= 10, where


E_X, E_Y = np.array([1.0, 0.0]), np.array([0.0, 1.0])
TRIANGLE = [(np.array([np.cos(th), np.sin(th)]), -1.0)
            for th in (0.3, 0.3 + 2.0 * np.pi / 3.0, 0.3 + 4.0 * np.pi / 3.0)]


@pytest.mark.parametrize("rows, t_star", [
    # three rows 120 degrees apart, each twice: optimum inside the box
    (TRIANGLE + TRIANGLE, 1.0),
    # zero components; the bottom edge holds the optimum at u_x = 0
    ([(E_Y, -3.0), (E_X, -2.0), (-E_X, -2.0)], 2.0),
    # two corners tie at 3, yet the optimum is between them at t* = 2
    ([(E_X, -2.0), (-E_X, -2.0)], 2.0),
    # the bottom corners tie at 2 and are both optimal
    ([(E_Y, -3.0), (E_Y, -3.0)], 2.0),
    # a row with a = 0 is violated by -b everywhere
    ([(np.zeros(2), -1.0), (E_X, -0.5)], 1.0),
    # the same two rows, the second far worse than the constant one
    ([(np.zeros(2), -1.0), (E_X + E_Y, -6.0)], 4.0),
], ids=["interior-duplicated", "edge-zero-component", "corner-tie-interior",
        "corner-tie-optimal", "zero-row-dominant", "zero-row-dominated"])
def test_solve_qp_infeasible_degenerate_rows_match_minimax_oracle(rows, t_star):
    lo, hi = np.array([-1.0, -1.0]), np.array([1.0, 1.0])
    _check_minimax_fallback(np.array([0.3, 0.4]), lo, hi, rows)
    assert minimax_oracle(lo, hi, rows)[1] == pytest.approx(t_star, rel=1e-12)


@pytest.mark.xfail(strict=True, reason=(
    "the relaxed re-solve screens the box faces with the rows' relative "
    "tolerance 1e-9*max(1, |bound|), so it accepts a candidate just past a face"))
def test_solve_scalar_result_stays_inside_the_box():
    # the program of invariance_trial_setup(0, seed=8) at its first step
    # whose result left the box: the relaxed re-solve returns u_y = 5 + 1 ulp
    lo, hi = np.array([-5.0, -5.0]), np.array([5.0, 5.0])
    row = (np.array([0.02509599345438389, -0.10519732195659082]), -1.1468220957059856)
    sol = _solve((0.24994105699484095, -0.24406686293342386), lo, hi, (row,))
    assert not sol.feasible
    assert np.all(lo <= sol.u) and np.all(sol.u <= hi), sol.u


@pytest.mark.xfail(strict=True, reason=(
    "the box faces are screened with the rows' relative tolerance "
    "1e-9*max(1, |bound|), so a nominal that far past a face passes as feasible"))
def test_solve_scalar_nominal_past_a_face_is_kept_outside_the_box():
    # found by the _solve_scalar contract in test_contracts.py: the
    # projection onto the face ux = 0 is the nominal itself
    ux, uy, ok, _, _ = controller._solve_scalar(0.0, 1.2297730877117528e-223,
                                                0.0, 0.0, 0.0, 0.0, [])
    assert ok and (ux, uy) == (0.0, 0.0)


def test_package_never_loads_scipy():
    code = "\n".join([
        "import sys",
        "import polycbf",
        "rows = [(1.0, 0.0, -2.0), (0.0, 1.0, -3.0), (-1.0, -1.0, -2.0)]",
        "assert not polycbf.controller._solve_scalar(0.3, 0.4, -1.0, -1.0, 1.0, 1.0, rows)[2]",
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)",
    ])
    src = str(Path(polycbf.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_build_safety_constraint_hand_example():
    cfg = SafetyConfig(r_safe=5.0, q=2)
    ego = VehicleState((0.0, 0.0), (1.0, 0.0))
    other = VehicleState((7.0, 0.0), (-2.0, 0.0))
    alpha = AlphaVector((1.0, 0.5))
    a, b = _row(ego, other, alpha, cfg, 0.01)
    # h = 49 - 25 = 24, dx = (-7, 0), dv = (3, 0)
    assert a == pytest.approx([0.14, 0.0], rel=1e-12, abs=1e-15)
    assert b == pytest.approx(-42.0 + kappa(alpha, 24.0), rel=1e-12)


# Row components whose rounding is special: signed zeros, the smallest
# subnormal, tiny and huge magnitudes, and a sum that needs all 17 digits.
ROW_EDGES = (0.0, -0.0, 5e-324, -1e-300, 0.1 + 0.2, -7.25, 1e150, -1e150)


def _hex_row(row):
    return tuple(float(x).hex() for x in row)


def test_build_safety_constraint_matches_row_oracle_bit_for_bit():
    # Both directions of each pair, _row_terms plus _kappa as simulate adds
    # them, against the row formula as it stood before the pair terms were
    # shared, for a constant-velocity other vehicle; q = 1, 2 and 3.
    rng = random.Random(11)
    cfg = SafetyConfig(r_safe=5.0)
    r2 = cfg.r_safe * cfg.r_safe
    checked = 0
    while checked < 4000:
        pi, pj, vi, vj = ([rng.choice(ROW_EDGES), rng.choice(ROW_EDGES)] for _ in range(4))
        if rng.random() < 0.3:
            pj[1] = pi[1]  # same lane: dy = 0
        if rng.random() < 0.3:
            vj = list(vi)  # dv = 0
        alpha = AlphaVector(tuple(rng.choice((0.0, 0.3, 2.0)) for _ in range(rng.randint(1, 3))))
        dt = rng.choice((0.01, 0.1))
        for (pe, ve), (po, vo) in (((pi, vi), (pj, vj)), ((pj, vj), (pi, vi))):
            dx_x, dx_y = pe[0] - po[0], pe[1] - po[1]
            dv_x, dv_y = ve[0] - vo[0], ve[1] - vo[1]
            h = dx_x * dx_x + dx_y * dx_y - r2
            ax, ay, s = controller._row_terms(dx_x, dx_y, dv_x, dv_y, dt)
            row = (ax, ay, s + _kappa(alpha.coefficients, h))
            expect = safety_row_oracle(dx_x, dx_y, dv_x, dv_y, 0.0, 0.0, h,
                                       alpha.coefficients, dt)
            assert _hex_row(row) == _hex_row(expect), (pe, ve, po, vo)
            checked += 1


def test_constraint_row_certifies_one_step_safety():
    # any u on the feasible side keeps the next-step clearance above
    # h - kappa(alpha, h) dt against an other vehicle at constant velocity
    from polycbf import safety_value, step

    cfg = SafetyConfig(r_safe=5.0, q=2)
    rng = np.random.default_rng(9)
    dt = 0.01
    for _ in range(100):
        ego = VehicleState(rng.uniform(-20, 20, 2), rng.uniform(-8, 8, 2))
        other = VehicleState(ego.position + rng.uniform(6, 30, 2),
                             rng.uniform(-8, 8, 2))
        alpha = AlphaVector(tuple(rng.uniform(0.0, 2.0, 2)))
        a, b = _row(ego, other, alpha, cfg, dt)
        # pick a strictly feasible input
        u = rng.uniform(-5, 5, 2)
        if float(a @ u) > b:
            u = u - a * (float(a @ u) - b + 1.0) / float(a @ a)
        h0 = safety_value(ego.position, other.position, cfg)
        h1 = safety_value(step(ego, u, dt).position,
                          step(other, (0.0, 0.0), dt).position, cfg)
        # discrete constraint: h' - h >= -kappa(alpha, h) dt, up to the
        # strictly helpful ||dv'||^2 dt^2 term
        assert h1 - h0 >= -kappa(alpha, h0) * dt - 1e-9


def test_safe_control_brakes_for_slower_lead():
    # the ego's program, cruise nominal and one row against a slower lead,
    # as simulate builds it
    cfg = SafetyConfig(r_safe=5.0, q=1)
    ego = VehicleState((0.0, 0.0), (10.0, 0.0))
    lead = VehicleState((7.0, 0.0), (2.0, 0.0))
    u_nom = controller._cruise(0.8, 10.0, 1.0, 0.0, 10.0, 0.0, -5.0, -5.0, 5.0, 5.0)
    sol = _solve(u_nom, (-5.0, -5.0), (5.0, 5.0),
                 (_row(ego, lead, AlphaVector((0.5,)), cfg, 0.01),))
    # nominal wants to hold speed; the filter must brake instead
    assert u_nom == (0.0, 0.0)
    assert sol.u[0] < 0.0
