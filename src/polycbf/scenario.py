"""Ramp-merge world: road geometry, trial engine, and the prediction, sweep
and invariance experiments (the adaptive experiment lives in adaptive).

A scenario is a straight main road met by a straight on-ramp at a merge
point.  Vehicles track a route (main, ramp, or a fixed heading), each running
its own minimal-deviation safety filter against every other vehicle, and all
states advance synchronously from the same previous-step states, so trials
are deterministic functions of their configuration.

Progress along a route is measured as signed arc length to the merge point
(negative before it); a vehicle has completed the merge once its progress
turns positive.

Each experiment declares its settings and their defaults once, in a frozen
*Settings dataclass that its experiment and trial builders take whole, as the
`settings` that polycbf.cli.load_preset returns.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from .barrier import AlphaVector, SafetyConfig, _kappa, _kappa_columns, _kappa_rows
from .controller import (DEFAULT_LIMITS, ControlLimits, _admits, _admits_rows, _check_cruise,
                         _check_direction, _cruise, _row_terms, _solve_scalar)
from .dynamics import DEFAULT_DT, _step
from .errors import ConfigurationError, DomainError, _check_dt
from .learner import OBSERVATION_MODES, StyleLearner

__all__ = [
    "RoadGeometry",
    "VehicleSpec",
    "ScenarioConfig",
    "TrajectoryLog",
    "TrialMetrics",
    "TrialRecord",
    "default_geometry",
    "simulate",
    "PredictSettings",
    "PredictionTrial",
    "PredictionSummary",
    "prediction_trial_setup",
    "experiment_prediction",
    "SweepSettings",
    "SweepEntry",
    "sweep_trial_config",
    "experiment_behavior_sweep",
    "InvarianceSettings",
    "invariance_trial_setup",
    "experiment_invariance",
    "COLLISION_TOL",
]

# A pair is considered in collision when its clearance drops below this.
COLLISION_TOL = -1e-9

ROUTES = ("main", "ramp", "fixed")
ROLES = ("ego", "object", "neighbor")


def _check_counts(**counts: int) -> None:
    for name, value in counts.items():
        if value < 1:
            raise ConfigurationError(f"{name} must be >= 1, got {value}")


def _check_steps(n_steps: int, n_vehicles: int) -> None:
    """Require n_steps >= 1, and a trajectory log of n_steps steps of
    n_vehicles whose largest array, the states or the pair clearances, numpy
    can index: at most np.iinfo(np.intp).max bytes."""
    _check_counts(n_steps=n_steps)
    width = max(4 * n_vehicles, n_vehicles * (n_vehicles - 1) // 2)
    if (int(n_steps) + 1) * width * 8 > np.iinfo(np.intp).max:
        raise ConfigurationError(f"n_steps = {n_steps} makes a trajectory log of {n_vehicles} "
                                 "vehicles larger than numpy's largest array")


def _check_reals(*, nonnegative: bool, **values) -> None:
    """Require each value, a float or a (low, high) range, to be finite and,
    when nonnegative is set, >= 0; a range needs low <= high and a finite width."""
    for name, value in values.items():
        for v in np.ravel(value):
            if not math.isfinite(v) or (nonnegative and v < 0.0):
                rule = "finite and >= 0" if nonnegative else "finite"
                raise ConfigurationError(f"{name} must be {rule}, got {value}")
        if np.ndim(value) and not value[0] <= value[1]:
            raise ConfigurationError(f"{name} must have low <= high, got {value}")
        if np.ndim(value) and not math.isfinite(value[1] - value[0]):
            raise ConfigurationError(f"{name} must have a finite width, got {value}")


def _trial_rng(seed: int, trial_index: int) -> np.random.Generator:
    """Trial trial_index's generator under a parent seed: the child that
    SeedSequence(seed).spawn(trial_index + 1) ends with, built directly."""
    for name, value in (("seed", seed), ("trial_index", trial_index)):
        if value < 0:
            raise ConfigurationError(f"{name} must be >= 0, got {value}")
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(seed, spawn_key=(trial_index,))))


@dataclass(frozen=True)
class RoadGeometry:
    """Main road along +x through (merge_x, 0), met at that merge point by a
    straight ramp climbing from below at ramp_angle_deg.

    Travel directions come from pure pursuit: a vehicle aims at the route
    point `lookahead` metres of arc ahead of its own projection, so a vehicle
    displaced off its lane steers back onto it instead of drifting parallel
    forever, and ramp traffic blends onto the main road through the merge
    rather than turning on a hinge.
    """

    merge_x: float = 100.0
    ramp_angle_deg: float = 15.0
    lookahead: float = 20.0

    def __post_init__(self):
        _check_reals(nonnegative=False, merge_x=self.merge_x,
                     ramp_angle_deg=self.ramp_angle_deg)
        if not (math.isfinite(self.lookahead) and self.lookahead > 0.0):
            raise ConfigurationError(f"lookahead must be finite and > 0, got {self.lookahead}")
        angle = math.radians(self.ramp_angle_deg)
        for name, v in (("merge_point", np.array([self.merge_x, 0.0])),
                        ("ramp_dir", np.array([math.cos(angle), math.sin(angle)])),
                        ("main_dir", np.array([1.0, 0.0]))):
            v.flags.writeable = False
            object.__setattr__(self, name, v)
        object.__setattr__(self, "_scalars", tuple(float(c) for c in (
            *self.merge_point, *self.ramp_dir, *self.main_dir, self.lookahead)))

    @staticmethod
    def _route(route: str) -> bool:
        """Whether a main or ramp route is the ramp."""
        if route not in ("main", "ramp"):
            raise ConfigurationError(f"the road serves main and ramp routes, not {route!r}")
        return route == "ramp"

    def direction(self, route: str, position) -> np.ndarray:
        """Unit travel direction for a main or ramp vehicle at a position."""
        return np.array(self._pursuit(self._route(route), float(position[0]),
                                      float(position[1])))

    def progress(self, route: str, position) -> float:
        """Signed arc length to the merge point along a main or ramp route."""
        return self._progress(self._route(route), float(position[0]), float(position[1]))

    def _progress(self, ramp: bool, px: float, py: float) -> float:
        """Scalar kernel of progress for main (ramp False) and ramp routes."""
        mx, my, rx, ry, ex, ey, _ = self._scalars
        sx, sy = px - mx, py - my
        if ramp:
            along_ramp = sx * rx + sy * ry
            if along_ramp < 0.0:
                return along_ramp
        return sx * ex + sy * ey

    def _progress_rows(self, ramp: bool, px: np.ndarray, py: np.ndarray) -> np.ndarray:
        """Array kernel of _progress, elementwise on positions (px, py) of one
        route: numpy's + - * and a select on along_ramp < 0 give its bits."""
        mx, my, rx, ry, ex, ey, _ = self._scalars
        sx, sy = px - mx, py - my
        progress = sx * ex + sy * ey
        if ramp:
            along_ramp = sx * rx + sy * ry
            progress = np.where(along_ramp < 0.0, along_ramp, progress)
        return progress

    def _pursuit(self, ramp: bool, px: float, py: float) -> Tuple[float, float]:
        """Scalar kernel of direction for main (ramp False) and ramp routes:
        (dir_x, dir_y) toward the route point lookahead metres of progress
        ahead of the position's own."""
        mx, my, rx, ry, ex, ey, look = self._scalars
        target = self._progress(ramp, px, py) + look
        if ramp and target < 0.0:
            dx, dy = rx, ry
        else:
            dx, dy = ex, ey
        ddx = mx + target * dx - px
        ddy = my + target * dy - py
        norm = math.hypot(ddx, ddy)
        if norm <= 1e-9:
            # Standing on the aim point: fall back to the local tangent.
            return dx, dy
        return ddx / norm, ddy / norm

    def place(self, route: str, progress: float) -> np.ndarray:
        """Route point at a given signed arc distance from the merge."""
        d = self.ramp_dir if self._route(route) and progress < 0.0 else self.main_dir
        return self.merge_point + progress * d


# The road under its former builder's name, which the benchmark's workloads import.
default_geometry = RoadGeometry


@dataclass(frozen=True)
class VehicleSpec:
    """One roster entry: identity, route placement, style, limits, and an
    optional compatibility entry compat = (name, gap), the advisory row
    (ax, ay, kappa(gap, h)) that simulate appends to the vehicle's filter,
    (ax, ay) and h being those of its safety row against the vehicle named.
    gap may be negative, so it is not an AlphaVector; no config key sets it."""

    name: str
    role: str = "neighbor"
    route: str = "main"
    start_progress: float = -80.0
    speed: float = 10.0
    desired_speed: float = 10.0
    gain: float = 0.8
    alpha: AlphaVector = AlphaVector((1.0, 0.0))
    limits: ControlLimits = DEFAULT_LIMITS
    start_position: Optional[Tuple[float, float]] = None
    heading: Optional[Tuple[float, float]] = None
    compat: Optional[Tuple[str, Tuple[float, ...]]] = None

    def __post_init__(self):
        # csv.writer leaves a "\r" unquoted when rows end in "\n", so such a
        # name would split its trajectory rows.
        if "\r" in self.name or "\n" in self.name:
            raise ConfigurationError(f"vehicle name {self.name!r} contains a line break")
        if self.role not in ROLES:
            raise ConfigurationError(f"unknown role {self.role!r}")
        if self.route not in ROUTES:
            raise ConfigurationError(f"unknown route {self.route!r}")
        _check_cruise(self.desired_speed, self.gain)
        for name in ("speed", "start_progress"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigurationError(f"{name} must be finite, got {getattr(self, name)}")
        if self.route == "fixed":
            if self.start_position is None or self.heading is None:
                raise ConfigurationError("fixed-route vehicles need start_position and heading")
            _check_direction("heading", *self.heading)
            if not all(math.isfinite(c) for c in self.start_position):
                raise DomainError("start_position has non-finite components")
        else:
            # A route vehicle is placed by start_progress and steered by its
            # route, so these keys would be silently ignored.
            for name in ("heading", "start_position"):
                if getattr(self, name) is not None:
                    raise ConfigurationError(
                        f"{name} is only read on a fixed route, not on {self.route!r}")
        if self.compat is not None and (self.compat[0] == self.name or not self.compat[1]
                                        or not all(map(math.isfinite, self.compat[1]))):
            raise ConfigurationError("a compatibility entry needs another vehicle's name and "
                                     f"a non-empty, finite gap, got {self.compat}")

    def initial_state(self, geom: RoadGeometry) -> Tuple[float, float, float, float]:
        """The vehicle's first logged state (x, y, vx, vy)."""
        if self.route == "fixed":
            d = np.asarray(self.heading, dtype=np.float64)
            d = d / math.hypot(d[0], d[1])
            pos = np.asarray(self.start_position, dtype=np.float64)
        else:
            pos = geom.place(self.route, self.start_progress)
            d = geom.direction(self.route, pos)
        return (*pos.tolist(), *(self.speed * d).tolist())


@dataclass(frozen=True)
class ScenarioConfig:
    """Full trial description; a trial is a deterministic function of this."""

    geometry: RoadGeometry
    vehicles: Tuple[VehicleSpec, ...]
    dt: float = DEFAULT_DT
    n_steps: int = 3000
    safety: SafetyConfig = SafetyConfig()

    def __post_init__(self):
        _check_dt(self.dt)
        _check_steps(self.n_steps, len(self.vehicles))
        names = [v.name for v in self.vehicles]
        if len(names) != len(set(names)):
            raise ConfigurationError(f"vehicle names must be unique, got {names}")
        if len(names) == 0:
            raise ConfigurationError("scenario needs at least one vehicle")
        for v in self.vehicles:
            if v.compat is not None and v.compat[0] not in names:
                raise ConfigurationError(f"vehicle {v.name!r} has a compatibility row against "
                                         f"{v.compat[0]!r}, which is not in the roster")


@dataclass
class TrajectoryLog:
    """Dense per-step record of a trial.

    states[t, v] = (x, y, vx, vy) before step t; row n_steps is the final
    state.  inputs[t, v] is the acceleration applied at step t (zero-filled on
    the final row, where no step follows).  pair_h[t, p] is the clearance of
    pairs[p] in states[t], computed from the states once the trial has run,
    and feasible[t, v] is False where the filter QP had to fall back.
    """

    names: Tuple[str, ...]
    pairs: Tuple[Tuple[int, int], ...]
    dt: float
    states: np.ndarray
    inputs: np.ndarray
    pair_h: np.ndarray
    feasible: np.ndarray


@dataclass
class TrialMetrics:
    """Safety and completion summary of one trial."""

    min_h: Dict[Tuple[str, str], float]
    merge_step: Dict[str, Optional[int]]
    infeasible_step_count: int
    collision: bool


@dataclass
class TrialRecord:
    log: TrajectoryLog
    metrics: TrialMetrics
    relaxed_steps: int = 0


# The roster size from which simulate builds rows and screens nominals on
# (n, n) arrays instead of pair by pair: the measured crossover.  Whole
# simulate time per vehicle-step, in µs, best of 30 taken over ten rounds
# of every size and stage in turn, on the two-lane merges of the golden
# tests (90 steps, the first n vehicles; 2-core x86_64, Python 3.11,
# numpy 2.4).  At 8 vehicles the arrays were faster in 26 of 30 paired
# rounds (by a median 3%), at 7 in none:
#   n        2     4     7     8     9    10    12    16    32
#   arrays 20.6  11.4   7.6   7.0   6.4   6.1   5.9   5.4   4.6
#   loop    6.1   6.2   7.0   7.4   7.8   8.3  10.0  12.5  21.5
_ARRAY_MIN_VEHICLES = 8


def _check_resume(cfg: ScenarioConfig, pairs, log: TrajectoryLog, t0: int) -> None:
    """Require log to be of cfg's roster (names and pairs, not styles or
    compatibility entries) and dt, and t0 one of its logged steps that cfg's
    run reaches; the program from t0 on is cfg's."""
    names = tuple(v.name for v in cfg.vehicles)
    if tuple(log.names) != names or tuple(log.pairs) != pairs:
        raise ConfigurationError(f"a resumed log must hold the roster {names} and its pairs, "
                                 f"got {tuple(log.names)} and {tuple(log.pairs)}")
    if log.dt != cfg.dt:
        raise ConfigurationError(f"a resumed log must have dt {cfg.dt}, got {log.dt}")
    last = min(len(log.states) - 1, cfg.n_steps)
    if not 0 <= t0 <= last:
        raise ConfigurationError(f"resume step must be in [0, {last}], got {t0}")


def _with_compat(rows, v, w, gap, px, py, r2):
    """Vehicle v's safety rows (ascending) and its compatibility row against
    w: the direction of its row against w, bound kappa(gap, h) at their h.
    Equal styles give the bound 0, and a gap componentwise at least 0 keeps
    it non-negative at h >= 0, so the row only bites on approach."""
    ax, ay, _ = rows[w if w < v else w - 1]
    dx, dy = px[v] - px[w], py[v] - py[w]
    return rows + [(ax, ay, _kappa(gap, dx * dx + dy * dy - r2))]


def simulate(cfg: ScenarioConfig,
             resume: Optional[Tuple[TrajectoryLog, int]] = None) -> TrialRecord:
    """Run one synchronous trial of cfg.n_steps steps, each vehicle filtering
    with the style and compatibility entry cfg gives it for the whole run.

    Each step builds every vehicle's safety row against each neighbour
    (ascending), for a neighbour assumed not to accelerate: direction
    -2 dx dt and bound 2 dx.dv + kappa(alpha, h), dx and dv being the
    vehicle minus the neighbour, the arithmetic of _row_terms and _kappa.
    A vehicle with a compatibility entry appends its row after them (see
    VehicleSpec), and solves again without it when the row makes its QP
    infeasible while the safety rows alone are satisfiable.

    A step first computes every vehicle's nominal input, the cruise law
    along its pursuit direction or fixed heading.  The two stages differ
    only in how they then build the rows and screen the nominals.  Below
    _ARRAY_MIN_VEHICLES vehicles a pair loop computes each pair's clearance
    and row terms (a, s) once, from the first vehicle's side; the second
    vehicle's row is (-a, s), and each vehicle's bound is s plus its own
    kappa(alpha, h).  It screens each nominal with _solve_scalar's first
    test on the vehicle's whole program, compatibility row included: a
    nominal in the box that _admits accepts is the QP's answer.  From that
    size up an array stage forms the (n, n) ego-minus-other differences, the
    rows of every vehicle from its own side and their bounds at once, and
    screens every nominal against its safety rows with _admits_rows.  Both
    stages then share one per-vehicle step: a vehicle whose nominal failed
    the screen, or that the array stage screened without its compatibility
    row, solves its QP, and every vehicle steps from the states before the
    step.  Both stages give the same bits.

    The running state is one float list per coordinate.  The loop logs what
    it decides: states and inputs in flat buffers, to which each step
    appends those lists whole, rearranged to (step, vehicle, coordinate)
    once at the end, and the feasible flags.  pair_h and the merge steps are
    computed once after the loop from the logged states: pair_h with the
    rows' clearance arithmetic, and a route vehicle's merge step as the
    first logged step whose progress is positive.

    resume=(log, t0) starts the trial at step t0 of log, a log of the same
    roster (names and pairs) and dt: rows [0, t0) of its states, inputs and
    feasible flags and states[t0] are copied, and the trial steps on from t0
    under cfg's program, whatever program the run that wrote log drove.
    That gives a fresh run's bits wherever the run that wrote log followed
    this call's program before t0 (it may have been shorter, ending at t0 or
    after).  relaxed_steps then counts only the steps from t0 on.
    """
    geom = cfg.geometry
    vehicles = cfg.vehicles
    n = len(vehicles)
    N = cfg.n_steps
    dt = cfg.dt
    r2 = cfg.safety.r_safe * cfg.safety.r_safe
    pairs = tuple((i, j) for i in range(n) for j in range(i + 1, n))
    array_stage = n >= _ARRAY_MIN_VEHICLES
    pursuit = geom._pursuit

    # The logs hold one step after another, and within a step one coordinate
    # (x, y, vx, vy, or ux, uy) across the vehicles after another: the order
    # of the running float lists below, so a step appends each list whole.
    states_log = array("d")
    inputs_log = array("d")
    feasible = np.ones((N + 1, n), dtype=bool)
    t0 = 0
    if resume is None:
        start = [spec.initial_state(geom) for spec in vehicles]
    else:
        log, t0 = resume
        _check_resume(cfg, pairs, log, t0)
        for flat, logged in ((states_log, log.states), (inputs_log, log.inputs)):
            flat.frombytes(np.asarray(logged[:t0], dtype=np.float64).transpose(0, 2, 1).tobytes())
        feasible[:t0] = log.feasible[:t0]
        start = log.states[t0].tolist()
    # The running state before the step, one float list per coordinate, and
    # the lists the step writes the next state into; they swap after it.
    px, py, vx, vy = map(list, zip(*start))
    nx, ny, nvx, nvy = ([0.0] * n for _ in range(4))
    # Each vehicle's (gain, desired speed, on the ramp, heading): a fixed
    # route's heading, normalized once here, or None on the road, where
    # pursuit steers; and its box (lo_x, lo_y, hi_x, hi_y).
    consts, boxes = [], []
    for spec in vehicles:
        heading = None
        if spec.route == "fixed":
            hx, hy = float(spec.heading[0]), float(spec.heading[1])
            nn = math.hypot(hx, hy)
            heading = (hx / nn, hy / nn)
        box = (*map(float, spec.limits.u_min), *map(float, spec.limits.u_max))
        consts.append((spec.gain, spec.desired_speed, spec.route == "ramp", heading, *box))
        boxes.append(box)
    coeffs = [v.alpha.coefficients for v in vehicles]
    names = tuple(v.name for v in vehicles)
    # Each vehicle's compatibility entry as (the other vehicle's index, gap).
    compat = [spec.compat and (names.index(spec.compat[0]), spec.compat[1]) for spec in vehicles]
    # safety[v] holds v's rows (ax, ay, b) against each neighbour w in
    # ascending order (slot w below v, w - 1 above): the pair loop rewrites
    # every slot at each step, the array stage the rows of a vehicle that solves.
    safety = [[None] * (n - 1) for _ in range(n)]
    # Whether each vehicle's nominal passed the array stage's screen of its
    # safety rows; the pair loop screens each vehicle's whole program instead.
    passed = [False] * n
    if array_stage:
        diagonal = np.eye(n, dtype=bool)
        # Each vehicle's coefficients as a row, zero-padded to the longest,
        # in _kappa_rows' per-run form.
        q = max(map(len, coeffs))
        columns = _kappa_columns([c + (0.0,) * (q - len(c)) for c in coeffs])
    # The step's inputs: the nominals, then each vehicle's decision.
    u_x, u_y = [0.0] * n, [0.0] * n

    width = 4 * n
    log_s = states_log.fromlist
    log_u = inputs_log.fromlist
    relaxed = 0

    # Scalar IEEE arithmetic, elementwise, in the array stage: infinities and
    # NaNs flow through as they do on floats, without warnings.
    with np.errstate(all="ignore"):
        for t in range(t0, N):
            log_s(px)
            log_s(py)
            log_s(vx)
            log_s(vy)
            for v, (gain, speed, ramp, heading, lo_x, lo_y, hi_x, hi_y) in enumerate(consts):
                if heading is None:
                    dir_x, dir_y = pursuit(ramp, px[v], py[v])
                    # Pursuit's direction is a unit vector up to rounding.
                    # Dividing by its norm again moves its last bits, and
                    # the pinned logs and golden digests hold those bits.
                    nn = math.hypot(dir_x, dir_y)
                    dir_x, dir_y = dir_x / nn, dir_y / nn
                else:
                    dir_x, dir_y = heading
                u_x[v], u_y[v] = _cruise(gain, speed, dir_x, dir_y, vx[v], vy[v],
                                         lo_x, lo_y, hi_x, hi_y)
            if array_stage:
                # The ego-minus-other differences of x, y, vx and vy at once.
                state = np.frombuffer(states_log[-width:]).reshape(4, n)
                dx, dy, dv_x, dv_y = state[:, :, None] - state[:, None]
                h = dx * dx + dy * dy
                h -= r2
                ax, ay, s = _row_terms(dx, dy, dv_x, dv_y, dt)
                b = _kappa_rows(columns, h)
                b += s
                nominal_x, nominal_y = np.array((u_x, u_y))[:, :, None]
                # A nominal in the box that every row admits is
                # _solve_scalar's answer; a NaN nominal fails every row.
                ok = _admits_rows(ax, ay, b, nominal_x, nominal_y)
                ok |= diagonal
                passed = ok.all(axis=1).tolist()
            else:
                for i, j in pairs:
                    dxx = px[i] - px[j]
                    dyy = py[i] - py[j]
                    h = dxx * dxx + dyy * dyy - r2
                    ax, ay, s = _row_terms(dxx, dyy, vx[i] - vx[j], vy[i] - vy[j], dt)
                    safety[i][j - 1] = (ax, ay, s + _kappa(coeffs[i], h))
                    if dxx and dyy:
                        # A non-zero fl(b - a) is -fl(a - b): j's row is the exact mirror.
                        safety[j][i] = (-ax, -ay, s + _kappa(coeffs[j], h))
                    else:
                        # a - b and b - a are both +0 when a == b, so a zero difference
                        # does not negate: j's terms come from its own side.
                        ax, ay, s = _row_terms(px[j] - px[i], py[j] - py[i],
                                               vx[j] - vx[i], vy[j] - vy[i], dt)
                        safety[j][i] = (ax, ay, s + _kappa(coeffs[j], h))
            for v, box in enumerate(boxes):
                ux, uy = ub_x, ub_y = u_x[v], u_y[v]
                entry = compat[v]
                if not passed[v] or entry is not None:
                    if array_stage:
                        cols = [m[v].tolist() for m in (ax, ay, b)]
                        for col in cols:
                            del col[v]
                        safety[v] = list(zip(*cols))
                    rows = safety[v]
                    if entry is not None:
                        rows = _with_compat(rows, v, *entry, px, py, r2)
                    lo_x, lo_y, hi_x, hi_y = box
                    # The pair loop's screen is _solve_scalar's first branch: a
                    # nominal in the box that every row admits is its answer.
                    if array_stage or not (lo_x <= ux <= hi_x and lo_y <= uy <= hi_y
                                           and _admits(rows, ux, uy)):
                        ux, uy, ok, _, _ = _solve_scalar(ub_x, ub_y, *box, rows)
                        if not ok and entry is not None:
                            # The compatibility row is advisory relative to the
                            # safety rows: rather than let the fallback trade
                            # safety slack for it, drop it for this step and
                            # record that we did.
                            ux, uy, ok, _, _ = _solve_scalar(ub_x, ub_y, *box, safety[v])
                            if ok:
                                relaxed += 1
                        if not ok:
                            feasible[t, v] = False
                        u_x[v], u_y[v] = ux, uy
                nx[v], nvx[v] = _step(px[v], vx[v], ux, dt)
                ny[v], nvy[v] = _step(py[v], vy[v], uy, dt)
            log_u(u_x)
            log_u(u_y)
            # Every vehicle has decided from the states before the step.
            px, py, vx, vy, nx, ny, nvx, nvy = nx, ny, nvx, nvy, px, py, vx, vy

    for column in (px, py, vx, vy):
        log_s(column)
    states = np.frombuffer(states_log).reshape(N + 1, 4, n).transpose(0, 2, 1).copy()
    log_u([0.0] * (2 * n))
    inputs = np.frombuffer(inputs_log).reshape(N + 1, 2, n).transpose(0, 2, 1).copy()
    # The clearances and progress of the logged states, with the arithmetic
    # of the rows and of _progress: numpy's elementwise + - * give the bits
    # the loop's floats do.  A route vehicle merges at the first logged step
    # whose progress is positive; one vehicle's column at a time keeps the
    # temporaries small.
    i, j = [p[0] for p in pairs], [p[1] for p in pairs]
    merge_step: Dict[str, Optional[int]] = dict.fromkeys(names)
    with np.errstate(all="ignore"):
        dx = states[:, i, 0] - states[:, j, 0]
        dy = states[:, i, 1] - states[:, j, 1]
        pair_h = dx * dx + dy * dy - r2
        for v, (_, _, ramp, heading, *_) in enumerate(consts):
            if heading is None:
                merged = geom._progress_rows(ramp, states[:, v, 0], states[:, v, 1]) > 0.0
                first = int(merged.argmax())
                merge_step[names[v]] = first if merged[first] else None
    min_h = {(names[i], names[j]): float(pair_h[:, p].min())
             for p, (i, j) in enumerate(pairs)}
    # A NaN clearance certifies nothing, so it counts as a collision.
    collision = any(not v >= COLLISION_TOL for v in min_h.values())
    metrics = TrialMetrics(
        min_h=min_h,
        merge_step=merge_step,
        infeasible_step_count=int((~feasible[:N]).sum()),
        collision=collision,
    )
    log = TrajectoryLog(names, pairs, dt, states, inputs, pair_h, feasible)
    return TrialRecord(log, metrics, relaxed)


# ---------------------------------------------------------------------------
# Style-prediction experiment: observe a follower/leader interaction and
# recover the follower's style coefficients from clearance data alone.

@dataclass(frozen=True)
class PredictSettings:
    """Settings of experiment_prediction, the [predict] config section;
    sample_cap, when set, ends a trial at that many admitted samples."""

    trials: int = 30
    mode: str = "analytic"
    dt: float = DEFAULT_DT
    n_steps: int = 4000
    closing_range: Tuple[float, float] = (0.5, 0.9)
    margin_range: Tuple[float, float] = (1.0, 2.5)
    sample_cap: Optional[int] = None

    def __post_init__(self):
        _check_dt(self.dt)
        _check_counts(trials=self.trials)
        _check_steps(self.n_steps, n_vehicles=2)
        if self.sample_cap is not None:
            _check_counts(sample_cap=self.sample_cap)
        # The follower closes on the leader from outside its activation clearance.
        _check_reals(nonnegative=True, closing_range=self.closing_range,
                     margin_range=self.margin_range)
        if self.mode not in OBSERVATION_MODES:
            raise ConfigurationError(f"unknown observation mode {self.mode!r}")


@dataclass
class PredictionTrial:
    truth: AlphaVector
    estimate_alpha: Tuple[float, ...]
    rmse: float
    converged_at: Optional[int]
    n_admitted: int
    estimate_series: Tuple[Tuple[float, ...], ...]


@dataclass
class PredictionSummary:
    mode: str
    seed: int
    trials: List[PredictionTrial]

    @property
    def mean_rmse(self) -> float:
        return float(np.mean([t.rmse for t in self.trials]))

    @property
    def max_convergence_samples(self) -> Optional[int]:
        steps = [t.converged_at for t in self.trials]
        if any(s is None for s in steps):
            return None
        return max(steps)


def _sample_truth_alpha(rng: np.random.Generator, trial_index: int, q: int) -> AlphaVector:
    """Random style; every third trial degenerates to a single surviving term
    (the classic one-parameter barrier and its pure high-order counterpart)."""
    coeffs = rng.uniform(0.05, 1.0, size=q)
    if trial_index % 3 == 2:
        keep = (trial_index // 3) % q
        coeffs = np.zeros(q)
        coeffs[keep] = rng.uniform(0.4, 1.0)
    return AlphaVector(tuple(coeffs))


def _activation_clearance(alpha: AlphaVector, closing: float, r_safe: float) -> float:
    """Clearance below which a style's filter starts overriding a pursuit at
    the given closing speed: kappa(alpha, h) = 2 d(h) closing, solved for h.

    The bisection stops at its first step that leaves the bracket as it
    was: every later step would compute the same midpoint and leave it too.
    """
    coeffs = alpha.coefficients

    def gap(h: float) -> float:
        return _kappa(coeffs, h) - 2.0 * math.sqrt(h + r_safe * r_safe) * closing

    lo, hi = 0.0, 1.0
    while gap(hi) < 0.0 and hi < 1e6:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if gap(mid) < 0.0:
            lo, moved = mid, mid != lo
        else:
            hi, moved = mid, mid != hi
        if not moved:
            break
    return hi


def prediction_trial_setup(trial_index: int, settings: PredictSettings = PredictSettings(),
                           safety: SafetyConfig = SafetyConfig(),
                           seed: int = 0) -> Tuple[AlphaVector, ScenarioConfig]:
    """Ground truth and scenario for one identification trial: a follower
    closing slowly on a constant-speed leader in the same lane.

    The leader's style dominates the follower's everywhere, so its own filter
    never binds and it genuinely cruises at constant velocity: every braking
    action seen on the follower is its style speaking.  The follower starts
    just outside its own activation clearance, so the episode begins within a
    bounded sim time and the barrier path stays within actuator limits.

    Trials are addressed by index under a parent seed (child seeds depend
    only on the index), so any single trial can be rebuilt on its own, e.g.
    to dump its trajectory, without rerunning the batch around it.
    """
    rng = _trial_rng(seed, trial_index)
    truth = _sample_truth_alpha(rng, trial_index, safety.q)
    leader_speed = rng.uniform(8.0, 10.0)
    closing = rng.uniform(*settings.closing_range)
    h_start = (_activation_clearance(truth, closing, safety.r_safe)
               + rng.uniform(*settings.margin_range))
    gap = math.sqrt(h_start + safety.r_safe ** 2)
    leader_progress = rng.uniform(-40.0, -30.0)
    leader = VehicleSpec(
        name="leader", role="neighbor", route="main",
        start_progress=leader_progress, speed=leader_speed,
        desired_speed=leader_speed, gain=0.8,
        alpha=AlphaVector((5.0, 5.0)),
    )
    follower = VehicleSpec(
        name="object", role="object", route="main",
        start_progress=leader_progress - gap, speed=leader_speed + closing,
        desired_speed=leader_speed + closing, gain=0.8,
        alpha=truth,
    )
    return truth, ScenarioConfig(geometry=RoadGeometry(), vehicles=(follower, leader),
                                 dt=settings.dt, n_steps=settings.n_steps, safety=safety)


# experiment_prediction's first chunk of a trial, in steps; each later chunk
# doubles the run.  The predict preset's 30 trials stop at steps 22-49 and so
# step 1504 steps in 47 calls; a 4000-step trial that never stops takes 8.
_PREDICT_CHUNK = 32


def experiment_prediction(settings: PredictSettings = PredictSettings(),
                          safety: SafetyConfig = SafetyConfig(),
                          seed: int = 0) -> PredictionSummary:
    """Recover randomized ground-truth styles from observed interactions.

    settings.mode selects the clearance-rate observer: "analytic" rebuilds
    the exact one-step rate from the object's recovered acceleration;
    "finite_diff" differentiates the measured clearance itself and inherits
    an O(dt) bias, so it is best run at a finer dt than the control-rate
    default (with a sample_cap to bound how long each trial keeps collecting).

    The learner reads each trial's logged states with StyleLearner.observe,
    whose admission rule takes the object's gain and actuator box, up to the
    step where it converges or reaches sample_cap.  The trial is simulated
    in chunks that each resume the last one's log, until the chunk of that
    step.
    """
    dt, mode = settings.dt, settings.mode
    cap = math.inf if settings.sample_cap is None else settings.sample_cap
    trials: List[PredictionTrial] = []
    for idx in range(settings.trials):
        truth, cfg = prediction_trial_setup(idx, settings, safety, seed)
        learner = StyleLearner()
        obj = cfg.vehicles[0]
        log, end, stopped = None, 0, False
        while not stopped and end < cfg.n_steps:
            start, end = end, min(2 * end or _PREDICT_CHUNK, cfg.n_steps)
            log = simulate(replace(cfg, n_steps=end),
                           resume=None if log is None else (log, start)).log
            learner.observe(log.states, 0, 1, safety, dt, start, mode=mode, gain=obj.gain,
                            box=(obj.limits.u_min, obj.limits.u_max), cap=cap)
            stopped = learner.converged or len(learner.samples) >= cap
        est = learner.estimate
        alpha_hat = (0.0,) * safety.q if est is None else est.alpha_hat.coefficients
        err = np.array(alpha_hat) - np.array(truth.coefficients)
        rmse = float(np.sqrt(np.mean(err ** 2)))
        trials.append(PredictionTrial(
            truth=truth,
            estimate_alpha=alpha_hat,
            rmse=rmse,
            converged_at=learner.converged_at,
            n_admitted=len(learner.samples),
            estimate_series=tuple(e.alpha_hat.coefficients for e in learner.history),
        ))
    return PredictionSummary(mode=mode, seed=seed, trials=trials)


# ---------------------------------------------------------------------------
# Behavior sweep: hold the other vehicle's style fixed, sweep the ego's, and
# compare approach distance and merge order.

@dataclass(frozen=True)
class SweepSettings:
    """Settings of experiment_behavior_sweep, the [sweep] config section;
    both vehicles get the actuator box [-accel_bound, accel_bound]^2."""

    styles: Tuple[AlphaVector, ...]
    other_alpha: AlphaVector = AlphaVector((0.75, 0.25))
    dt: float = DEFAULT_DT
    n_steps: int = 3200
    ramp_angle_deg: float = 30.0
    ego_progress: float = -40.0
    other_progress: float = -40.0
    ego_speed: float = 3.0
    other_speed: float = 3.0
    accel_bound: float = 8.0

    def __post_init__(self):
        _check_dt(self.dt)
        _check_steps(self.n_steps, n_vehicles=2)
        _check_reals(nonnegative=False, ramp_angle_deg=self.ramp_angle_deg,
                     ego_progress=self.ego_progress, other_progress=self.other_progress)
        # Desired speeds, and the half-width of the actuator box.
        _check_reals(nonnegative=True, ego_speed=self.ego_speed,
                     other_speed=self.other_speed, accel_bound=self.accel_bound)


@dataclass
class SweepEntry:
    alpha: AlphaVector
    distance: np.ndarray
    min_distance: float
    min_h: float
    ego_merge_step: Optional[int]
    other_merge_step: Optional[int]
    infeasible_step_count: int

    @property
    def ego_first(self) -> Optional[bool]:
        if self.ego_merge_step is None or self.other_merge_step is None:
            return None
        return self.ego_merge_step < self.other_merge_step

    @property
    def merge_order(self) -> Optional[str]:
        first = self.ego_first
        if first is None:
            return None
        return "front" if first else "behind"


def sweep_trial_config(alpha: AlphaVector, settings: SweepSettings,
                       safety: SafetyConfig = SafetyConfig()) -> ScenarioConfig:
    """Two-vehicle merge for one point of a style sweep: the ego on the main
    road with the swept style alpha, the other vehicle on the ramp with a
    fixed one.  Reads every field of settings except styles."""
    geom = RoadGeometry(ramp_angle_deg=settings.ramp_angle_deg)
    bound = settings.accel_bound
    limits = ControlLimits((-bound, -bound), (bound, bound))
    ego = VehicleSpec(name="ego", role="ego", route="main",
                      start_progress=settings.ego_progress, speed=settings.ego_speed,
                      desired_speed=settings.ego_speed, gain=0.8, alpha=alpha,
                      limits=limits)
    other = VehicleSpec(name="other", role="neighbor", route="ramp",
                        start_progress=settings.other_progress, speed=settings.other_speed,
                        desired_speed=settings.other_speed, gain=0.8,
                        alpha=settings.other_alpha, limits=limits)
    return ScenarioConfig(geometry=geom, vehicles=(ego, other), dt=settings.dt,
                          n_steps=settings.n_steps, safety=safety)


def experiment_behavior_sweep(settings: SweepSettings,
                              safety: SafetyConfig = SafetyConfig()) -> List[SweepEntry]:
    """One merge trial per ego style of settings.styles against a fixed
    other-vehicle style.

    The default scenario is a steep, slow merge arriving at a dead tie.  The
    steep angle matters: the constraint pushes each vehicle away from the
    other, and the backward (progress-costing) share of that push grows with
    the merge angle, so at shallow angles a yield is a cheap sideways drift
    while here it decides the merge order.  Styles whose filter activates
    farther out than the other vehicle's concede the tie and merge behind;
    styles that activate closer in keep the nominal plan longer, the other
    vehicle concedes first, and the ego merges in front.
    """
    return [entry for entry, _ in _sweep_records(settings, safety)]


def _sweep_records(settings: SweepSettings,
                   safety: SafetyConfig) -> Iterator[Tuple[SweepEntry, TrialRecord]]:
    """experiment_behavior_sweep's trials in style order, each entry with
    its record, so that a caller keeps only the logs it wants."""
    for alpha in settings.styles:
        rec = simulate(sweep_trial_config(alpha, settings, safety))
        # A diverged run's states hold inf - inf: the series then holds NaN.
        with np.errstate(invalid="ignore", over="ignore"):
            delta = rec.log.states[:, 0, 0:2] - rec.log.states[:, 1, 0:2]
            distance = np.hypot(delta[:, 0], delta[:, 1])
        yield SweepEntry(
            alpha=alpha,
            distance=distance,
            min_distance=float(distance.min()),
            min_h=min(rec.metrics.min_h.values()),
            ego_merge_step=rec.metrics.merge_step["ego"],
            other_merge_step=rec.metrics.merge_step["other"],
            infeasible_step_count=rec.metrics.infeasible_step_count,
        ), rec


# ---------------------------------------------------------------------------
# Randomized two-vehicle invariance trials.

@dataclass(frozen=True)
class InvarianceSettings:
    """Settings of experiment_invariance, the [invariance] config section."""

    trials: int = 100
    dt: float = DEFAULT_DT
    n_steps: int = 1200
    ramp_angle_deg: float = 8.0
    speed_range: Tuple[float, float] = (9.0, 10.5)
    progress_range: Tuple[float, float] = (-90.0, -60.0)

    def __post_init__(self):
        _check_dt(self.dt)
        _check_counts(trials=self.trials)
        _check_steps(self.n_steps, n_vehicles=2)
        _check_reals(nonnegative=False, ramp_angle_deg=self.ramp_angle_deg,
                     progress_range=self.progress_range)
        # Drawn as initial and desired speeds.
        _check_reals(nonnegative=True, speed_range=self.speed_range)


def invariance_trial_setup(trial_index: int,
                           settings: InvarianceSettings = InvarianceSettings(),
                           safety: SafetyConfig = SafetyConfig(),
                           seed: int = 0) -> ScenarioConfig:
    """Scenario for one randomized invariance trial, addressable by index."""
    rng = _trial_rng(seed, trial_index)

    def random_alpha() -> AlphaVector:
        return AlphaVector(tuple(rng.uniform(0.0, 1.0, size=safety.q)))

    ego = VehicleSpec(name="ego", role="ego", route="main",
                      start_progress=rng.uniform(*settings.progress_range),
                      speed=rng.uniform(*settings.speed_range),
                      desired_speed=rng.uniform(*settings.speed_range),
                      gain=0.8, alpha=random_alpha())
    other = VehicleSpec(name="other", role="neighbor", route="ramp",
                        start_progress=rng.uniform(*settings.progress_range),
                        speed=rng.uniform(*settings.speed_range),
                        desired_speed=rng.uniform(*settings.speed_range),
                        gain=0.8, alpha=random_alpha())
    return ScenarioConfig(geometry=RoadGeometry(ramp_angle_deg=settings.ramp_angle_deg),
                          vehicles=(ego, other), dt=settings.dt, n_steps=settings.n_steps,
                          safety=safety)


def experiment_invariance(settings: InvarianceSettings = InvarianceSettings(),
                          safety: SafetyConfig = SafetyConfig(),
                          seed: int = 0) -> List[TrialMetrics]:
    """Randomized style pairs merging under their filters; returns per-trial
    metrics.

    The default ranges keep closing speeds at constraint activation within
    what the actuator box can track for every style pair in the unit square:
    the required deceleration while riding the barrier grows like
    kappa'(h) kappa(h) at the activation clearance, so a shallow merge angle
    and a narrow speed band are what make the no-collision guarantee hold
    all the way down to saturation-free operation.
    """
    return [rec.metrics for rec in _invariance_records(settings, safety, seed)]


def _invariance_records(settings: InvarianceSettings, safety: SafetyConfig,
                        seed: int) -> Iterator[TrialRecord]:
    """experiment_invariance's trials in index order, one record at a time,
    so that a caller keeps only the logs it wants."""
    for idx in range(settings.trials):
        yield simulate(invariance_trial_setup(idx, settings, safety, seed))
