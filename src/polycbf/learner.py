"""Identification of a neighbor's driving style from observed clearances.

While a vehicle's safety constraint is active, its clearance rate sits exactly
on the class-K margin: hdot = -kappa(alpha, h).  An observer that logs (h,
hdot) pairs during such episodes can therefore recover alpha by regressing
-hdot on the odd-power basis of h.  Ridge-regularized normal equations keep
the fit defined before enough distinct clearances have been seen.

The fit takes no settings: its ridge term, its convergence test and its
admission gate are the module constants below.

A sample is a BarrierSample: an observed clearance rate and the clearance
basis it is regressed on.  The fit has one coefficient per basis term, so its
order is the length of its samples' basis, which the observers measure at
the scenario's [safety] q.  The simulation hooks (scenario._observe_rows)
make samples in one of two modes.  "finite_diff" differentiates the measured
clearance itself through _observe (no knowledge of the neighbor's input
needed, O(dt) discretization error).  "analytic" rebuilds the one-step rate
from the object's acceleration, recovered exactly from consecutive velocity
samples under the semi-implicit integrator.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

import numpy as np

from .barrier import AlphaVector, basis
from .errors import ConfigurationError

__all__ = [
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
# admitted when the object's input deviates from its estimated nominal
# (cruise ~ zero) by more than _ADMISSION_THRESHOLD in some component, a
# proxy for "the safety constraint is plausibly active".
_REGULARIZER = 1e-8
_CONVERGENCE_TOL = 1e-6
_CONVERGENCE_WINDOW = 5
_ADMISSION_THRESHOLD = 0.01


@dataclass(frozen=True)
class AlphaEstimate:
    """Clamped style estimate plus the raw regression solution behind it."""

    alpha_hat: AlphaVector
    raw: tuple
    n_samples: int
    converged: bool = False


def _observe(h_cur: float, h_prev: float, q: int, dt: float, step: int) -> BarrierSample:
    """Backward-difference clearance rate over one step of length dt, paired
    with the current clearance's basis: the finite_diff sample."""
    return BarrierSample((h_cur - h_prev) / dt, basis(h_cur, q), step)


def _ridge_solve(G: np.ndarray, rhs: np.ndarray, n_samples: int) -> AlphaEstimate:
    """Solve the normal equations G alpha = rhs and clamp to the valid cone."""
    raw = np.linalg.solve(G, rhs)
    clamped = tuple(max(float(v), 0.0) for v in raw)
    return AlphaEstimate(AlphaVector(clamped), tuple(float(v) for v in raw), n_samples)


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
        self._gram = self._moment = self._ridge_eye = None

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
            self._gram, self._moment = np.zeros((q, q)), np.zeros(q)
            self._ridge_eye = _REGULARIZER * np.eye(q)
        elif q != len(self._moment):
            raise ConfigurationError(f"sample basis order {q} does not match "
                                     f"the order {len(self._moment)} of the samples before it")
        phi = np.asarray(sample.basis, dtype=np.float64)
        self._gram += np.outer(phi, phi)
        self._moment += (-sample.hdot_obs) * phi
        self.samples.append(sample)
        est = _ridge_solve(self._gram + self._ridge_eye, self._moment, len(self.samples))
        self.history.append(est)
        if self.converged_at is None and check_convergence(self.history):
            self.converged_at = len(self.samples)
        if self.converged:
            est = replace(est, converged=True)
            self.history[-1] = est
        return est
