"""Minimal-deviation safety filter for planar vehicles.

Each control step solves a tiny quadratic program: stay as close as possible
to a nominal cruise acceleration while respecting box limits and one linear
half-plane row per neighbor.  A row (a, b) encodes a.u <= b and is derived
from the one-step clearance rate, so satisfying it keeps the clearance decay
within the vehicle's class-K margin.  The module holds the kernels of that
program and no per-vehicle route into it: the callers, simulate and the
assumption-mismatch trial, form the nominal with _cruise and each row with
_row_terms plus barrier._kappa, and hand the floats to _solve_scalar.  Their
data is checked once, where it is configured (VehicleSpec, ControlLimits,
ScenarioConfig), not per step.  The two vehicles of a pair share the
row's terms: their directions a are opposite, the rate term 2 dx.dv is the
same, and only the margin kappa(alpha, h) is each vehicle's own.  _row_terms
is the one kernel for a and the rate term.  simulate's pair loop calls it on
floats once per pair and step and mirrors the result for the second vehicle;
its array stage, for large rosters, calls it once per step on (n, n) arrays
of ego-minus-other differences, adds each vehicle's margins with
barrier._kappa_rows from coefficient columns it prepares once per run, and
screens every nominal input at once with _admits_rows, the elementwise twin
of _admits.  A step of that stage costs numpy's per-call overhead more than
arithmetic, so these kernels keep their calls and temporaries few.

The solver is an active-set enumeration specialized to two decision
variables: the optimum of a strictly convex 2-D projection lies either at the
nominal point, on a single constraint line, or at the intersection of two.
When the nominal point lies in the box and satisfies every row, which is the
common case, it is returned before the box faces are even built.  Otherwise
one pass over the projections and then the pairwise intersections keeps the
best feasible candidate, the first generated among equal objectives.  Rows
whose bound clears their maximum over the box by a proven margin cannot
change that answer, so they are left out of the pass (_live_rows): of a
16-vehicle platoon's 15 neighbour rows, typically one remains.  Pairs
on a box face that lies provably farther away than the best projection are
never formed (the rounding argument is in _enumerate_min_deviation).

Most programs that reach the scan with the nominal in the box keep one live
row, and then the answer is usually that row's projection: the closed-form
step of dual active-set QP methods with one active constraint.  _solve_scalar
returns it before the box faces are built when the scan's own face-distance
prune would leave no face near enough to matter and the row admits the
point; the result is then the scan's, bit for bit.  Anything else, a face
within reach, a degenerate or non-finite row, goes through the scan.

Infeasible programs are flagged and fall back to the smallest worst violation
t* = min over the box of max_i (a_i.u - b_i), found exactly without an LP
solver.  Each row's minimum over the box lies at a corner, and the largest of
those minima bounds t* from below.  When it equals the best corner's worst
row, that corner is optimal, which costs O(m).  Otherwise every vertex of the
LP in (ux, uy, t) is scored: box corners, box-edge points where two rows are
equal, and interior points where three rows are equal.  The input is then
re-solved against the rows relaxed by t*, so ties resolve toward the nominal.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError

__all__ = ["ControlLimits", "DEFAULT_LIMITS"]

# Feasibility slack used when screening candidate points, relative to row scale.
_FEAS_TOL = 1e-9


@dataclass(frozen=True)
class ControlLimits:
    """Componentwise acceleration box [u_min, u_max]."""

    u_min: np.ndarray
    u_max: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.u_min, dtype=np.float64).reshape(2).copy()
        hi = np.asarray(self.u_max, dtype=np.float64).reshape(2).copy()
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise DomainError("control limits must be finite")
        if not (lo <= hi).all():
            raise ConfigurationError(
                f"u_min must be <= u_max, got {tuple(lo.tolist())} vs {tuple(hi.tolist())}")
        lo.flags.writeable = False
        hi.flags.writeable = False
        object.__setattr__(self, "u_min", lo)
        object.__setattr__(self, "u_max", hi)


DEFAULT_LIMITS = ControlLimits(np.array([-5.0, -5.0]), np.array([5.0, 5.0]))


def _check_cruise(desired_speed, gain):
    """VehicleSpec's rules on its cruise law's speed and gain."""
    if not (math.isfinite(desired_speed) and desired_speed >= 0.0):
        raise ConfigurationError(f"desired_speed must be >= 0, got {desired_speed}")
    if not (math.isfinite(gain) and gain > 0.0):
        raise ConfigurationError(f"gain must be > 0, got {gain}")


def _check_direction(name, d_x, d_y):
    """The norm of a lane direction or fixed heading: finite and non-zero."""
    if not (math.isfinite(d_x) and math.isfinite(d_y)):
        raise DomainError(f"{name} has non-finite components")
    norm = math.hypot(d_x, d_y)
    if norm == 0.0:
        raise ConfigurationError(f"{name} must be non-zero")
    return norm


def _cruise(gain, speed, d_x, d_y, v_x, v_y, lo_x, lo_y, hi_x, hi_y):
    """The cruise law gain * (speed * d - v), d a unit direction, clamped
    into the box [lo, hi]: no validation."""
    ux = gain * (speed * d_x - v_x)
    uy = gain * (speed * d_y - v_y)
    # min(max(u, lo), hi) as comparisons, which return the builtins' very
    # operands (NaN and the sign of zero included) without their call cost.
    ux = lo_x if lo_x > ux else ux
    ux = hi_x if hi_x < ux else ux
    uy = lo_y if lo_y > uy else uy
    uy = hi_y if hi_y < uy else uy
    return ux, uy


def _row_terms(dx_x, dx_y, dv_x, dv_y, dt):
    """Terms of the safety row: no validation, called by simulate on floats
    (pair loop) or on (n, n) arrays (array stage), and by the mismatch trial.
    dx and dv are ego minus other.  Returns the row direction
    (ax, ay) = -2 dx dt and the rate term s = 2 dx.dv; for a neighbour
    assumed not to accelerate the row's bound is s + kappa(alpha, h).
    Swapping ego and other negates dx and dv, so the other vehicle's row of
    the pair has direction -a and the same s, and only kappa differs between
    the two."""
    return -2.0 * dx_x * dt, -2.0 * dx_y * dt, 2.0 * (dx_x * dv_x + dx_y * dv_y)


def _admits(rows, ux, uy):
    """True when u satisfies every row a.u <= b to within _FEAS_TOL of its scale.

    A row with a.u - b <= 0 passes before its tolerance is formed.  Both tests
    are written as the row holding, so a NaN violation (from a NaN bound,
    coefficient or input) fails both: a row that cannot be evaluated is never
    satisfied.
    """
    for ax, ay, b in rows:
        v = ax * ux + ay * uy - b
        if not v <= 0.0 and not v <= _FEAS_TOL * max(1.0, abs(b)):
            return False
    return True


def _admits_rows(ax, ay, b, ux, uy):
    """Array twin of _admits' test of one row, elementwise: True where
    a.u <= b holds to within _FEAS_TOL of its scale, for rows ax, ay, b of
    one shape and inputs ux, uy that broadcast against it.

    The tolerance is never NaN (np.fmax keeps Python's max(1.0, nan) == 1.0)
    and always positive, so _admits' first test, v <= 0, is implied by its
    second; a NaN violation fails it.  v and the tolerance are formed in
    place in new arrays, in _admits' order of operations, and the rows are
    left as they were.  Rows with an infinity overflow or form inf - inf, so
    the caller runs this under np.errstate.
    """
    v = ax * ux
    v += ay * uy
    v -= b
    tol = np.abs(b)
    np.fmax(tol, 1.0, out=tol)
    tol *= _FEAS_TOL
    return v <= tol


def _enumerate_min_deviation(ubar_x, ubar_y, rows, nominal_cut=False):
    """Best feasible candidate for min ||u - ubar||^2 over rows a.u <= b.

    rows include the box faces.  Returns (ux, uy, objective) or None when no
    candidate satisfies every row.  The candidates are the nominal point, the
    projection onto each line, then the intersection of each pair (i, j),
    i < j; the answer is the feasible one with the smallest finite objective,
    the first generated among ties.  One pass keeps the running best: a
    candidate replaces it only when its objective is strictly smaller and it
    satisfies every row.  nominal_cut=True tells it that the caller has already
    seen a row cut the nominal point off, so that point is not screened again.

    Pairs on a face row, one with coefficients (+-1, 0) or (0, +-1), are not
    formed when, after the projections, the face line ux = c (c = ax*b,
    exact) lies farther from ubar than the best candidate by a margin:
    |c - ubar_x| > sqrt(best)*(1 + 1e-12) + 1e-12*|c| + 1e-140.  Such a pair
    can never replace the best, which only decreases:
    - its det is the other row's coefficient a, up to sign, exactly, so its
      ux is fl(fl(c*a)/a): within 2.3e-16*|c| of c, plus at most 1.3e-148
      if c*a underflows, since a pair that passes the det/scale test has
      |a| > 1e-14*scale >= 2e-176;
    - so |ux - ubar_x| exceeds both sqrt(best)*(1 + 0.99e-12) and 0.99e-140,
      and the computed objective, which squares ux - ubar_x without underflow
      and adds a non-negative term, exceeds best (a NaN one never wins).
    The y faces are the same with the axes swapped.  Pairs of two general
    rows are always formed: their rounding depends on det, and no cheap bound
    exists.
    """
    if not nominal_cut and _admits(rows, ubar_x, ubar_y):
        return ubar_x, ubar_y, 0.0

    # obj < best_obj also rejects non-finite objectives, which are never the
    # answer.
    best = None
    best_obj = math.inf
    nrms = []
    for ax, ay, b in rows:
        nrm = ax * ax + ay * ay
        nrms.append(nrm)
        if nrm <= 0.0:
            continue
        # Euclidean projection onto the line a.u = b.
        t = (ax * ubar_x + ay * ubar_y - b) / nrm
        ux = ubar_x - t * ax
        uy = ubar_y - t * ay
        dxu = ux - ubar_x
        dyu = uy - ubar_y
        obj = dxu * dxu + dyu * dyu
        if obj < best_obj and _admits(rows, ux, uy):
            best, best_obj = (ux, uy), obj

    live = range(len(rows))
    if best is not None:
        reach = math.sqrt(best_obj) * (1.0 + 1e-12) + 1e-140
        live = []
        for k, (ax, ay, b) in enumerate(rows):
            if ay == 0.0 and abs(ax) == 1.0:
                gap = abs(ax * b - ubar_x)
            elif ax == 0.0 and abs(ay) == 1.0:
                gap = abs(ay * b - ubar_y)
            else:
                gap = 0.0
            if not gap > reach + 1e-12 * abs(b):
                live.append(k)
    for p, i in enumerate(live):
        ax1, ay1, b1 = rows[i]
        nrm1 = nrms[i]
        for j in live[p + 1:]:
            ax2, ay2, b2 = rows[j]
            det = ax1 * ay2 - ay1 * ax2
            scale = math.sqrt(nrm1 * nrms[j])
            # scale is NaN for a zero row beside one whose norm overflows,
            # and then only det == 0 skips the pair.
            if det == 0.0 or scale == 0.0 or abs(det) <= 1e-14 * scale:
                continue
            ux = (b1 * ay2 - b2 * ay1) / det
            uy = (ax1 * b2 - ax2 * b1) / det
            dxu = ux - ubar_x
            dyu = uy - ubar_y
            obj = dxu * dxu + dyu * dyu
            if obj < best_obj and _admits(rows, ux, uy):
                best, best_obj = (ux, uy), obj
    if best is None:
        return None
    return best[0], best[1], best_obj


def _minimax_violation(rows, lo_x, lo_y, hi_x, hi_y):
    """Box point minimizing the worst violation max_i (a_i.u - b_i), exactly.

    rows are (ax, ay, b) triples without the box faces.  Returns (ux, uy, t*).
    Each row's own minimum over the box lies at the corner opposing a, so the
    largest of those minima bounds t* from below; the best corner bounds it
    from above.  When the two meet, that corner is optimal.
    """
    lower = max(ax * (lo_x if ax > 0.0 else hi_x) + ay * (lo_y if ay > 0.0 else hi_y) - b
                for ax, ay, b in rows)
    t_star, cx, cy = min((max(ax * cx + ay * cy - b for ax, ay, b in rows), cx, cy)
                         for cx, cy in ((lo_x, lo_y), (hi_x, lo_y), (lo_x, hi_y), (hi_x, hi_y)))
    if t_star == lower:
        return cx, cy, t_star
    return _minimax_vertices(rows, lo_x, lo_y, hi_x, hi_y)


def _minimax_vertices(rows, lo_x, lo_y, hi_x, hi_y):
    """Vertex enumeration for _minimax_violation when no corner is certified.

    The optimum of the LP in (ux, uy, t) is a vertex: a box corner, a point on
    a box edge where two rows are equal, or an interior point where three rows
    are equal.  Candidates are clipped into the box, so each one bounds t*
    from above and the best of them attains it.
    """
    ax, ay, b = np.array(rows, dtype=np.float64).T
    xs = [np.array([lo_x, hi_x, lo_x, hi_x])]
    ys = [np.array([lo_y, lo_y, hi_y, hi_y])]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        i, j = np.triu_indices(len(b), 1)
        dax, day, db = ax[i] - ax[j], ay[i] - ay[j], b[i] - b[j]
        for c in (lo_x, hi_x):  # edges ux = c
            xs.append(np.full(len(db), c))
            ys.append((db - dax * c) / day)
        for c in (lo_y, hi_y):  # edges uy = c
            xs.append((db - day * c) / dax)
            ys.append(np.full(len(db), c))
        i, j, k = np.array(list(itertools.combinations(range(len(b)), 3)),
                           dtype=np.intp).reshape(-1, 3).T
        d1x, d1y, e1 = ax[i] - ax[j], ay[i] - ay[j], b[i] - b[j]
        d2x, d2y, e2 = ax[i] - ax[k], ay[i] - ay[k], b[i] - b[k]
        det = d1x * d2y - d1y * d2x
        xs.append((e1 * d2y - e2 * d1y) / det)
        ys.append((d1x * e2 - d2x * e1) / det)
    ux, uy = np.concatenate(xs), np.concatenate(ys)
    keep = ~(np.isnan(ux) | np.isnan(uy))
    ux = np.clip(ux[keep], lo_x, hi_x)
    uy = np.clip(uy[keep], lo_y, hi_y)
    # An infinite coefficient times a zero coordinate scores NaN, silently.
    with np.errstate(over="ignore", invalid="ignore"):
        worst = (ax[:, None] * ux + ay[:, None] * uy - b[:, None]).max(axis=0)
    best = int(np.argmin(worst))
    return float(ux[best]), float(uy[best]), float(worst[best])


def _live_rows(rows, ubar_x, ubar_y, lo_x, lo_y, hi_x, hi_y):
    """The rows that can bind in the candidate scan, as a new list.

    A row a.u <= b leaves when its bound clears the row's maximum over the box,
    top = ax*(hi_x if ax > 0 else lo_x) + ay*(hi_y if ay > 0 else lo_y), by
    the margin |ax|*e_x + |ay|*e_y + |b|/4, where
    e_x = _FEAS_TOL*max(1, X) + 2^-40*(1 + X + |ubar_x|), X = max(|lo_x|, |hi_x|),
    and e_y likewise.  The scan returns the same bits without such a row:
    - An admitted candidate passes the face rows, so it lies in the box
      widened by the faces' tolerance, _FEAS_TOL*max(1, X)*(1 + 2^-52) on
      each side in x.  There a.u - b is below -|b|/4 even after rounding, so
      the row admits every admitted candidate and rejects none.
    - The row's own candidates lie near its line a.u = b, which misses that
      widened box by more than their rounding error, so none is admitted and
      none becomes the running best.  A projection is off its line by a few
      ulps of |ax*ubar_x| + |ay*ubar_y| + |b| + |a|*X.  For a pair point in
      the widened box, Cramer's rule is off by at most 3*2^-53*|b|*P/|det|
      plus ulps of |b| and |a|*X, with P = |ax1*ay2| + |ay1*ax2| <= |a1||a2|;
      the pair test |det| > 1e-14*scale bounds P/|det| by 2e14 (twice 1e14
      for subnormal norms), so the error is under 0.07*|b|.  A projection
      whose norm overflows is the nominal point, which the scan rejects.
    The 2^-40 term also covers the rounding of top and of the test itself.
    So the running best moves at the same candidates in the same order, and
    the first generated among ties still wins.  A row with a NaN or an
    infinity fails the test and is kept.  A lone row is kept untested: when
    the nominal lies in the box, the scan runs only after that row cut it,
    so it can bind.
    """
    if len(rows) < 2:
        return list(rows)
    ext_x = max(abs(lo_x), abs(hi_x))
    ext_y = max(abs(lo_y), abs(hi_y))
    e_x = _FEAS_TOL * max(1.0, ext_x) + 2.0 ** -40 * (1.0 + ext_x + abs(ubar_x))
    e_y = _FEAS_TOL * max(1.0, ext_y) + 2.0 ** -40 * (1.0 + ext_y + abs(ubar_y))
    live = []
    for row in rows:
        ax, ay, b = row
        top = ax * (hi_x if ax > 0.0 else lo_x) + ay * (hi_y if ay > 0.0 else lo_y)
        if not b - top > abs(ax) * e_x + abs(ay) * e_y + 0.25 * abs(b):
            live.append(row)
    return live


def _solve_scalar(ubar_x, ubar_y, lo_x, lo_y, hi_x, hi_y, constraint_rows):
    """The filter QP on floats, shared by simulate and the mismatch trial;
    no validation.

    constraint_rows is a sequence of (ax, ay, b) triples excluding the box.
    Returns (ux, uy, feasible, objective, max_violation).  A nominal inside
    the box is screened against constraint_rows alone, once: the face test
    1.0*ux + 0.0*uy - hi is never positive for lo <= ux <= hi.  Both candidate
    scans, the feasible one and the relaxed re-solve, see only the rows that
    can bind (_live_rows) plus the box faces; the minimax fallback sees every
    row.

    When the nominal lies in the box and one row is live, that row's
    projection is returned before the box faces are built, if its objective
    obj is finite, every face passes the scan's prune test
    |c - ubar| > reach + 1e-12*|c| with reach = sqrt(obj)*(1 + 1e-12) + 1e-140
    (c being hi_x, lo_x, hi_y or lo_y, and ubar the matching coordinate), and
    the row admits the point.  The scan returns the same bits:
    - The row is candidate 0, since the nominal was cut off and is not
      screened again.  Its projection is formed by the scan's expressions, so
      it is finite, admitted (shown below for the faces) and becomes the
      running best with objective obj.
    - A pruned face's projection keeps ubar_y and moves ubar_x to
      ux' = fl(ubar_x + fl(c - ubar_x)) for a face ux = c, which is within
      2.3e-16*(|c| + |c - ubar_x|) of c, so
      |ux' - ubar_x| > sqrt(obj)*(1 + 0.99e-12) and > 0.99e-140, and its
      objective, which squares that without underflow and adds 0, exceeds
      obj (or is infinite): the rounding argument of the face pairs in
      _enumerate_min_deviation.  No face projection replaces the best.
    - With the best unchanged, every face is pruned again by the same test,
      so at most the row stays live and no pair is formed.
    - The point is within |dxu|*(1 + 2^-52) < sqrt(obj)*(1 + 1e-12) + 1e-140
      of the nominal in x (the 1e-140 covering a dxu*dxu that underflows),
      and the same in y, so it lies strictly inside the box and every face
      row gives a negative violation: the faces admit it.
    """
    inside = lo_x <= ubar_x <= hi_x and lo_y <= ubar_y <= hi_y
    if inside and _admits(constraint_rows, ubar_x, ubar_y):
        return ubar_x, ubar_y, True, 0.0, 0.0
    rows = _live_rows(constraint_rows, ubar_x, ubar_y, lo_x, lo_y, hi_x, hi_y)
    if inside and len(rows) == 1:
        ax, ay, b = rows[0]
        nrm = ax * ax + ay * ay
        if nrm > 0.0:
            t = (ax * ubar_x + ay * ubar_y - b) / nrm
            ux = ubar_x - t * ax
            uy = ubar_y - t * ay
            dxu = ux - ubar_x
            dyu = uy - ubar_y
            obj = dxu * dxu + dyu * dyu
            if obj < math.inf:
                reach = math.sqrt(obj) * (1.0 + 1e-12) + 1e-140
                if (abs(hi_x - ubar_x) > reach + 1e-12 * abs(hi_x)
                        and abs(lo_x - ubar_x) > reach + 1e-12 * abs(lo_x)
                        and abs(hi_y - ubar_y) > reach + 1e-12 * abs(hi_y)
                        and abs(lo_y - ubar_y) > reach + 1e-12 * abs(lo_y)
                        and _admits(rows, ux, uy)):
                    return ux, uy, True, obj, 0.0
    faces = ((1.0, 0.0, hi_x), (-1.0, 0.0, -lo_x), (0.0, 1.0, hi_y), (0.0, -1.0, -lo_y))
    rows.extend(faces)
    found = _enumerate_min_deviation(ubar_x, ubar_y, rows, nominal_cut=inside)
    if found is not None:
        ux, uy, obj = found
        return ux, uy, True, obj, 0.0

    # No admissible input: take the box point with the smallest worst violation,
    # then resolve ties toward the nominal by re-solving with relaxed rows.
    vx, vy, t_star = _minimax_violation(constraint_rows, lo_x, lo_y, hi_x, hi_y)
    slack = t_star + 1e-9 * max(1.0, abs(t_star))
    relaxed = _live_rows([(ax, ay, b + slack) for ax, ay, b in constraint_rows],
                         ubar_x, ubar_y, lo_x, lo_y, hi_x, hi_y)
    relaxed.extend(faces)  # box faces stay hard
    found = _enumerate_min_deviation(ubar_x, ubar_y, relaxed)
    if found is not None:
        ux, uy, _ = found
    else:
        # The minimax point satisfies the relaxed rows unless a NaN row made
        # t* NaN: no input satisfies that row, so its violation is unbounded.
        ux, uy, t_star = vx, vy, math.inf
    dxu = ux - ubar_x
    dyu = uy - ubar_y
    return ux, uy, False, dxu * dxu + dyu * dyu, t_star
