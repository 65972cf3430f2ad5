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
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .barrier import AlphaVector, SafetyConfig, _kappa, basis, hdot, kappa, safety_value
from .controller import (DEFAULT_LIMITS, ControlLimits, _check_cruise, _check_direction,
                         _cruise, _row_terms, _solve_scalar)
from .dynamics import DEFAULT_DT, VehicleState, _step
from .errors import ConfigurationError, DomainError, _check_dt
from .learner import BarrierSample, RidgeConfig, StyleLearner, _observe

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
# Clearance-rate observers: "analytic" rebuilds the one-step rate from the
# recovered acceleration, "finite_diff" differences the measured clearance.
OBSERVATION_MODES = ("analytic", "finite_diff")


def _check_counts(**counts: int) -> None:
    for name, value in counts.items():
        if value < 1:
            raise ConfigurationError(f"{name} must be >= 1, got {value}")


def _check_reals(*, nonnegative: bool, **values) -> None:
    """Require each value, a float or a (low, high) range, to be finite and,
    when nonnegative is set, >= 0; a range's width must be finite too."""
    for name, value in values.items():
        for v in np.ravel(value):
            if not math.isfinite(v) or (nonnegative and v < 0.0):
                rule = "finite and >= 0" if nonnegative else "finite"
                raise ConfigurationError(f"{name} must be {rule}, got {value}")
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

    def _pursuit(self, ramp: bool, px: float, py: float) -> Tuple[float, float]:
        """Scalar kernel of direction for main (ramp False) and ramp routes."""
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
    """One roster entry: identity, route placement, style, and limits."""

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

    def initial_state(self, geom: RoadGeometry) -> VehicleState:
        if self.route == "fixed":
            d = np.asarray(self.heading, dtype=np.float64)
            d = d / math.hypot(d[0], d[1])
            return VehicleState(np.asarray(self.start_position, dtype=np.float64),
                                self.speed * d)
        pos = geom.place(self.route, self.start_progress)
        d = geom.direction(self.route, pos)
        return VehicleState(pos, self.speed * d)


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
        _check_counts(n_steps=self.n_steps)
        names = [v.name for v in self.vehicles]
        if len(names) != len(set(names)):
            raise ConfigurationError(f"vehicle names must be unique, got {names}")
        if len(names) == 0:
            raise ConfigurationError("scenario needs at least one vehicle")


@dataclass
class TrajectoryLog:
    """Dense per-step record of a trial.

    states[t, v] = (x, y, vx, vy) before step t; row n_steps is the final
    state.  inputs[t, v] is the acceleration applied at step t (zero-filled on
    the final row, where no step follows).  pair_h[t, p] is the clearance of
    pairs[p] at step t, and feasible[t, v] is False where the filter QP had to
    fall back.
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


def simulate(cfg: ScenarioConfig,
             alpha_fn: Optional[Callable[[int, int], AlphaVector]] = None,
             extra_rows_fn: Optional[Callable[[int, int, np.ndarray],
                                              Sequence[Tuple[float, float, float]]]] = None,
             on_step: Optional[Callable[[int, np.ndarray, np.ndarray], object]] = None,
             ) -> TrialRecord:
    """Run one synchronous trial.

    Hooks see states as the read-only (n, 4) rows [x, y, vx, vy] logged as
    states[t].  alpha_fn(t, v) overrides vehicle v's style at step t;
    extra_rows_fn(t, v, cur) returns QP rows to append as they are, each a
    float triple (ax, ay, b) meaning ax*ux + ay*uy <= b (dropped for the
    step, and counted, if they make the QP infeasible while the safety rows
    alone are satisfiable); on_step(t_next, prev, cur) gets states[t_next - 1]
    and states[t_next] after each advance, and may return truthy to end the
    trial early (the new step is still logged, and all per-step arrays are
    truncated to the steps actually run).  Within a step the hooks run in
    this order: alpha_fn(t, v) for every v, then extra_rows_fn(t, v, cur) for
    every v, then on_step(t + 1, ...).  No hook runs at the last logged step.

    Each step computes every pair's clearance and row terms (a, s) once, from
    the first vehicle's side; the second vehicle's row is (-a, s), and each
    vehicle's bound is s plus its own kappa(alpha, h).  For finite states
    every row is bit-identical to build_safety_constraint's for a neighbour
    assumed not to accelerate.
    """
    geom = cfg.geometry
    vehicles = cfg.vehicles
    n = len(vehicles)
    N = cfg.n_steps
    dt = cfg.dt
    r2 = cfg.safety.r_safe * cfg.safety.r_safe
    pairs = tuple((i, j) for i in range(n) for j in range(i + 1, n))

    states = np.empty((N + 1, n, 4))
    for v, spec in enumerate(vehicles):
        init = spec.initial_state(geom)
        states[0, v] = (*init.position, *init.velocity)
    px, py, vx, vy = (states[0, :, k].tolist() for k in range(4))
    rows_ro = states.view()  # the hooks' view; each row is written once
    rows_ro.flags.writeable = False
    gains = [v.gain for v in vehicles]
    desired = [v.desired_speed for v in vehicles]
    lo_x = [float(v.limits.u_min[0]) for v in vehicles]
    lo_y = [float(v.limits.u_min[1]) for v in vehicles]
    hi_x = [float(v.limits.u_max[0]) for v in vehicles]
    hi_y = [float(v.limits.u_max[1]) for v in vehicles]
    ramp = [v.route == "ramp" for v in vehicles]
    headings = [(float(v.heading[0]), float(v.heading[1])) if v.route == "fixed" else None
                for v in vehicles]
    coeffs = [v.alpha.coefficients for v in vehicles]
    # safety[v] holds v's rows (ax, ay, b) against each neighbour w in
    # ascending order (slot w below v, w - 1 above); every slot is rewritten
    # at each step that runs the filters.
    safety = [[None] * (n - 1) for _ in range(n)]

    inputs = np.zeros((N + 1, n, 2))
    pair_h = np.empty((N + 1, len(pairs)))
    feasible = np.ones((N + 1, n), dtype=bool)
    merge_step: Dict[str, Optional[int]] = {v.name: None for v in vehicles}
    relaxed = 0
    stop = False
    n_logged = N + 1

    for t in range(N + 1):
        last = t == N or stop
        if not last and alpha_fn is not None:
            coeffs = [alpha_fn(t, v).coefficients for v in range(n)]
        hs = []
        for i, j in pairs:
            dxx = px[i] - px[j]
            dyy = py[i] - py[j]
            h = dxx * dxx + dyy * dyy - r2
            hs.append(h)
            if last:
                continue
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
        pair_h[t] = hs
        for v, spec in enumerate(vehicles):
            if merge_step[spec.name] is None and spec.route != "fixed":
                if geom._progress(ramp[v], px[v], py[v]) > 0.0:
                    merge_step[spec.name] = t
        if last:
            n_logged = t + 1
            break

        cur = rows_ro[t]
        new_u = []
        for v in range(n):
            if headings[v] is None:
                dir_x, dir_y = geom._pursuit(ramp[v], px[v], py[v])
            else:
                dir_x, dir_y = headings[v]
            # NominalPlan normalizes the lane direction it is given.
            nn = math.hypot(dir_x, dir_y)
            ub_x, ub_y = _cruise(gains[v], desired[v], dir_x / nn, dir_y / nn,
                                 vx[v], vy[v], lo_x[v], lo_y[v], hi_x[v], hi_y[v])
            rows = safety[v]
            extra = None
            if extra_rows_fn is not None:
                extra = list(extra_rows_fn(t, v, cur))
                rows = rows + extra

            ux, uy, ok, _, _ = _solve_scalar(ub_x, ub_y, lo_x[v], lo_y[v],
                                             hi_x[v], hi_y[v], rows)
            if extra and not ok:
                # The appended rows are advisory relative to the safety rows:
                # rather than let the fallback trade safety slack for them,
                # drop them for this step and record that we did.
                ux, uy, ok, _, _ = _solve_scalar(ub_x, ub_y, lo_x[v], lo_y[v],
                                                 hi_x[v], hi_y[v], safety[v])
                if ok:
                    relaxed += 1
            new_u.append((ux, uy))
            if not ok:
                feasible[t, v] = False
        inputs[t] = new_u

        for v in range(n):
            ux, uy = new_u[v]
            px[v], vx[v] = _step(px[v], vx[v], ux, dt)
            py[v], vy[v] = _step(py[v], vy[v], uy, dt)
        states[t + 1].T[...] = px, py, vx, vy
        if on_step is not None:
            stop = bool(on_step(t + 1, cur, rows_ro[t + 1]))

    states = states[:n_logged]
    inputs = inputs[:n_logged]
    pair_h = pair_h[:n_logged]
    feasible = feasible[:n_logged]
    names = tuple(v.name for v in vehicles)
    min_h = {(names[i], names[j]): float(pair_h[:, p].min())
             for p, (i, j) in enumerate(pairs)}
    collision = any(v < COLLISION_TOL for v in min_h.values()) if min_h else False
    metrics = TrialMetrics(
        min_h=min_h,
        merge_step=dict(merge_step),
        infeasible_step_count=int((~feasible[: n_logged - 1]).sum()),
        collision=collision,
    )
    log = TrajectoryLog(names, pairs, dt, states, inputs, pair_h, feasible)
    return TrialRecord(log, metrics, relaxed)


def _observe_rows(mode, prev, cur, obj, nbr, u_obs, safety, dt, t_next):
    """The learner's sample of vehicle obj against vehicle nbr over the step
    that ended at t_next, from the state rows an on_step hook receives."""
    if mode == "analytic":
        # The exact one-step rate at the states where the object's input
        # u_obs was applied, the neighbour held at constant velocity.
        rate = hdot(prev[obj, :2], prev[nbr, :2], prev[obj, 2:], prev[nbr, 2:],
                    u_obs, (0.0, 0.0), dt)
        h = safety_value(prev[obj, :2], prev[nbr, :2], safety)
        return BarrierSample(rate, basis(h, safety.q), t_next - 1)
    return _observe(safety_value(cur[obj, :2], cur[nbr, :2], safety),
                    safety_value(prev[obj, :2], prev[nbr, :2], safety), safety.q, dt, t_next)


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
        _check_counts(trials=self.trials, n_steps=self.n_steps)
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
    the given closing speed: kappa(alpha, h) = 2 d(h) closing, solved for h."""
    def gap(h: float) -> float:
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


def experiment_prediction(settings: PredictSettings = PredictSettings(),
                          safety: SafetyConfig = SafetyConfig(),
                          ridge: RidgeConfig = RidgeConfig(),
                          seed: int = 0) -> PredictionSummary:
    """Recover randomized ground-truth styles from observed interactions.

    settings.mode selects the clearance-rate observer: "analytic" rebuilds
    the exact one-step rate from the object's recovered acceleration;
    "finite_diff" differentiates the measured clearance itself and inherits
    an O(dt) bias, so it is best run at a finer dt than the control-rate
    default (with a sample_cap to bound how long each trial keeps collecting).

    Admission mirrors what an outside observer can do: the object cruises at
    its initial velocity until the interaction starts, so its task input is
    estimated as a cruise-restoring law toward that initial velocity, and a
    sample is admitted only when the seen input deviates from it (the filter
    is overriding, hence the safety constraint is active).  Steps where the
    object's input sits on its actuator limit are rejected too: a saturated
    input reveals the actuator, not the style.
    """
    dt, mode, sample_cap = settings.dt, settings.mode, settings.sample_cap
    trials: List[PredictionTrial] = []
    for idx in range(settings.trials):
        truth, cfg = prediction_trial_setup(idx, settings, safety, seed)
        learner = StyleLearner(ridge)
        cruise_v = None
        gain = cfg.vehicles[0].gain
        lim = cfg.vehicles[0].limits

        def observe_step(t: int, prev: np.ndarray, cur: np.ndarray):
            nonlocal cruise_v
            if learner.converged:
                return True
            if cruise_v is None:
                cruise_v = prev[0, 2:]
            u_obs = (cur[0, 2:] - prev[0, 2:]) / dt
            u_nominal_est = gain * (cruise_v - prev[0, 2:])
            if not learner.admits(u_obs, u_nominal_est):
                return False
            saturated = any(
                u_obs[c] <= lim.u_min[c] + 1e-3 or u_obs[c] >= lim.u_max[c] - 1e-3
                for c in range(2))
            if saturated:
                return False
            learner.add(_observe_rows(mode, prev, cur, 0, 1, u_obs, safety, dt, t))
            if sample_cap is not None and len(learner.samples) >= sample_cap:
                return True
            return learner.converged

        simulate(cfg, on_step=observe_step)
        est = learner.estimate
        if est is None:
            alpha_hat = tuple(0.0 for _ in range(safety.q))
        else:
            alpha_hat = est.alpha_hat.coefficients
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
        _check_counts(n_steps=self.n_steps)
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
        _check_counts(trials=self.trials, n_steps=self.n_steps)
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
