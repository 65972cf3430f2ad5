"""Identification of a neighbor's driving style from observed clearances.

While a vehicle's safety constraint is active, its clearance rate sits exactly
on the class-K margin: hdot = -kappa(alpha, h).  An observer that logs (h,
hdot) pairs during such episodes can therefore recover alpha by regressing
-hdot on the odd-power basis of h.  Ridge-regularized normal equations keep
the fit defined before enough distinct clearances have been seen.  The fit
sums and solves them on Python floats, by Gaussian elimination in a fixed
order, so its bits do not depend on which BLAS or LAPACK kernels a numpy
build would pick.

The fit takes no settings: its ridge term, its convergence test and its
admission gate are the module constants below.

A sample is a BarrierSample: an observed clearance rate and the clearance
basis it is regressed on.  The fit has one coefficient per basis term, so its
order is the length of its samples' basis, which the observer measures at
the scenario's [safety] q.  The observer, StyleLearner.observe, is the one
pass from a trial's logged states to admitted samples, for the prediction
experiment and the adaptive run alike, in one of two modes.  "finite_diff"
differentiates the measured clearance itself (no knowledge of the
neighbor's input needed, O(dt) discretization error).  "analytic" rebuilds
the one-step rate from the object's acceleration, recovered exactly from
consecutive velocity samples under the semi-implicit integrator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

import numpy as np

from .barrier import AlphaVector, SafetyConfig, basis, hdot, safety_value
from .errors import ConfigurationError

__all__ = [
    "OBSERVATION_MODES",
    "BarrierSample",
    "AlphaEstimate",
    "check_convergence",
    "StyleLearner",
]


@dataclass(frozen=True)
class BarrierSample:
    """One observed clearance rate and the basis of the clearance it is
    regressed on, the tuple (h, h^3, ..., h^(2q-1)) that basis() returns."""

    hdot_obs: float
    basis: tuple[float, ...]
    timestamp: int = 0


# An estimate has converged once every coefficient moved by at most
# _CONVERGENCE_TOL over the last _CONVERGENCE_WINDOW estimates.  A sample is
# admitted when the object's input deviates from its estimated nominal by
# more than _ADMISSION_THRESHOLD in some component, a proxy for "the safety
# constraint is plausibly active" (the whole rule is StyleLearner.observe's).
_REGULARIZER = 1e-8
_CONVERGENCE_TOL = 1e-6
_CONVERGENCE_WINDOW = 5
_ADMISSION_THRESHOLD = 0.01
OBSERVATION_MODES = ("analytic", "finite_diff")
_UNBOUNDED = ((-math.inf, -math.inf), (math.inf, math.inf))


@dataclass(frozen=True)
class AlphaEstimate:
    """Clamped style estimate plus the raw regression solution behind it."""

    alpha_hat: AlphaVector
    raw: tuple
    n_samples: int
    converged: bool = False


def _sample(mode: str, prev, cur, u_obs, safety: SafetyConfig, dt: float, t: int):
    """The sample over the step that ended at t, from the logged rows [x, y,
    vx, vy] of (object, neighbour) at t - 1 (prev) and t (cur): "analytic"
    is the exact one-step rate at prev under the object's input u_obs, the
    neighbour coasting; "finite_diff" the clearance's backward difference,
    with the current clearance's basis."""
    (po, pn), (co, cn) = prev, cur
    h = safety_value(po[:2], pn[:2], safety)
    if mode == "analytic":
        rate = hdot(po[:2], pn[:2], po[2:], pn[2:], u_obs, (0.0, 0.0), dt)
        return BarrierSample(rate, basis(h, safety.q), t - 1)
    h_cur = safety_value(co[:2], cn[:2], safety)
    return BarrierSample((h_cur - h) / dt, basis(h_cur, safety.q), t)


def _ridge_solve(G, rhs, n_samples: int) -> AlphaEstimate:
    """Solve the normal equations G alpha = rhs and clamp to the valid cone.

    G is a list of q rows and rhs a list of q floats.  Gaussian elimination
    with partial pivoting on the first row of largest |pivot| scales each
    multiplier by the pivot's reciprocal, as LAPACK's getf2 does, and
    back-substitutes by division.  A column whose pivot is 0.0 eliminates
    nothing, and its raw coefficient is 0.0: the data do not identify it."""
    m = [row + [r] for row, r in zip(G, rhs)]
    q = len(m)
    for c in range(q):
        p = max(range(c, q), key=lambda r: abs(m[r][c]))
        m[c], m[p] = m[p], m[c]
        pivot_row = m[c]
        if pivot_row[c] == 0.0:
            continue
        inv = 1.0 / pivot_row[c]
        for r in range(c + 1, q):
            row = m[r]
            f = row[c] * inv
            for k in range(c + 1, q + 1):
                row[k] -= f * pivot_row[k]
    raw = [0.0] * q
    for c in reversed(range(q)):
        s = m[c][q]
        for k in range(c + 1, q):
            s -= m[c][k] * raw[k]
        raw[c] = s / m[c][c] if m[c][c] else 0.0
    clamped = tuple(max(v, 0.0) for v in raw)
    return AlphaEstimate(AlphaVector(clamped), tuple(raw), n_samples)


def check_convergence(history: Sequence[AlphaEstimate]) -> bool:
    """True iff the last _CONVERGENCE_WINDOW estimates moved <= _CONVERGENCE_TOL.

    Movement is the largest componentwise spread of alpha_hat across the
    window; histories shorter than the window are never converged.
    """
    if len(history) < _CONVERGENCE_WINDOW:
        return False
    window = [est.alpha_hat.coefficients for est in history[-_CONVERGENCE_WINDOW:]]
    q = len(window[0])
    for coeffs in window:
        if len(coeffs) != q:
            raise ConfigurationError("estimate history mixes hypothesis orders")
    for p in range(q):
        column = [coeffs[p] for coeffs in window]
        if max(column) - min(column) > _CONVERGENCE_TOL:
            return False
    return True


class StyleLearner:
    """Single-owner growing dataset with refit-on-admission and convergence tracking.

    This is the one fit: the normal equations are accumulated incrementally,
    so each admission costs O(q^2) regardless of how many samples came
    before.  The first sample sets the order q, and the sums are sized when
    it is added.
    """

    def __init__(self):
        self.samples: List[BarrierSample] = []
        self.history: List[AlphaEstimate] = []
        self.converged_at: Optional[int] = None
        self._gram = self._moment = None

    @property
    def estimate(self) -> Optional[AlphaEstimate]:
        return self.history[-1] if self.history else None

    @property
    def converged(self) -> bool:
        return self.converged_at is not None

    def admits(self, obj_u_obs, obj_u_nominal_est=(0.0, 0.0)) -> bool:
        """Admission filter: does the object's input deviate from its nominal?"""
        du_x = float(obj_u_obs[0]) - float(obj_u_nominal_est[0])
        du_y = float(obj_u_obs[1]) - float(obj_u_nominal_est[1])
        return max(abs(du_x), abs(du_y)) > _ADMISSION_THRESHOLD

    def add(self, sample: BarrierSample) -> AlphaEstimate:
        """Admit a sample, add it to the sums H^T H and H^T (-hdot), refit,
        and update the convergence flag.  A sample whose order is not that of
        the samples before it is rejected and leaves the learner as it was."""
        q = len(sample.basis)
        if self._moment is None:
            if q < 1:
                raise ConfigurationError("a sample needs a basis of order >= 1")
            self._gram, self._moment = [[0.0] * q for _ in range(q)], [0.0] * q
        elif q != len(self._moment):
            raise ConfigurationError(f"sample basis order {q} does not match "
                                     f"the order {len(self._moment)} of the samples before it")
        phi = sample.basis
        rate = -float(sample.hdot_obs)
        for i, (row, phi_i) in enumerate(zip(self._gram, phi)):
            for j, phi_j in enumerate(phi):
                row[j] += phi_i * phi_j
            self._moment[i] += rate * phi_i
        self.samples.append(sample)
        # G + r I.  The sums start at +0.0, so no entry is -0.0 and adding
        # the identity's 0.0 off the diagonal would change no bit.
        ridged = [[g + _REGULARIZER if i == j else g for j, g in enumerate(row)]
                  for i, row in enumerate(self._gram)]
        est = _ridge_solve(ridged, self._moment, len(self.samples))
        self.history.append(est)
        if self.converged_at is None and check_convergence(self.history):
            self.converged_at = len(self.samples)
        if self.converged:
            est = replace(est, converged=True)
            self.history[-1] = est
        return est

    def observe(self, states, obj: int, nbr: int, safety: SafetyConfig, dt: float, t0: int = 0,
                *, mode: str = "analytic", gain: float = 0.0, box=_UNBOUNDED,
                cap: float = math.inf) -> List[int]:
        """Add the admitted samples of vehicle obj against vehicle nbr over
        steps t0 + 1 ... of a logged states array (states[t, v] = (x, y, vx,
        vy)) in mode, and return the steps admitted.

        The object's input u = (v_t - v_{t-1}) / dt is admitted when admits()
        finds it off its estimated task input, the cruise law gain * (v_0 -
        v_{t-1}) toward its first logged velocity v_0 (the filter overrides,
        so the constraint is active), and it lies more than 1e-3 inside box
        = (u_min, u_max): a saturated input shows the actuator, not the
        style.  Reading stops before the first step whose object or
        neighbour row is not all finite, and once the learner has converged
        or holds cap samples.
        """
        rows = states[t0:, (obj, nbr)]
        finite = np.isfinite(rows).all(axis=(1, 2))
        rows = rows[:len(rows) if finite.all() else int(finite.argmin())].tolist()
        v0_x, v0_y = states[0, obj, 2:].tolist()
        (lo_x, lo_y), (hi_x, hi_y) = ([float(c) for c in corner] for corner in box)
        admitted = []
        for k in range(1, len(rows)):
            if self.converged or len(self.samples) >= cap:
                break
            prev, cur = rows[k - 1], rows[k]
            pv_x, pv_y = prev[0][2:]
            u_x, u_y = (cur[0][2] - pv_x) / dt, (cur[0][3] - pv_y) / dt
            if not self.admits((u_x, u_y), (gain * (v0_x - pv_x), gain * (v0_y - pv_y))) or (
                    u_x <= lo_x + 1e-3 or u_x >= hi_x - 1e-3
                    or u_y <= lo_y + 1e-3 or u_y >= hi_y - 1e-3):
                continue
            self.add(_sample(mode, prev, cur, (u_x, u_y), safety, dt, t0 + k))
            admitted.append(t0 + k)
        return admitted
