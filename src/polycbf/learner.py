"""Identification of a neighbor's driving style from observed clearances.

While a vehicle's safety constraint is active, its clearance rate sits exactly
on the class-K margin: hdot = -kappa(alpha, h).  An observer that logs (h,
hdot) pairs during such episodes can therefore recover alpha by regressing
-hdot on the odd-power basis of h.  Ridge-regularized normal equations keep
the fit defined before enough distinct clearances have been seen.

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

import math
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

import numpy as np

from .barrier import AlphaVector, basis
from .errors import ConfigurationError, InsufficientDataError, RankDeficiencyError

__all__ = [
    "BarrierSample",
    "RidgeConfig",
    "AlphaEstimate",
    "fit",
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


@dataclass(frozen=True)
class RidgeConfig:
    """Regression and convergence-detection settings.  The order of the fit
    is not one of them: it is the length of the samples' basis.

    The regression target is the negated observed rate: active constraints
    satisfy hdot = -kappa(alpha, h), so regressing -hdot recovers +alpha.

    admission_threshold gates samples on the object's acceleration deviating
    from its estimated nominal (cruise ~ zero) by more than the threshold, a
    proxy for "the safety constraint is plausibly active".  None disables the
    filter and admits every sample.
    """

    regularizer: float = 1e-8
    convergence_tol: float = 1e-6
    convergence_window: int = 5
    admission_threshold: Optional[float] = 0.01

    def __post_init__(self):
        if not (math.isfinite(self.regularizer) and self.regularizer >= 0.0):
            raise ConfigurationError(f"regularizer must be >= 0, got {self.regularizer}")
        if not (math.isfinite(self.convergence_tol) and self.convergence_tol > 0.0):
            raise ConfigurationError(f"convergence_tol must be > 0, got {self.convergence_tol}")
        if self.convergence_window < 2:
            raise ConfigurationError(f"convergence_window must be >= 2, got {self.convergence_window}")
        thr = self.admission_threshold
        if thr is not None and not (math.isfinite(thr) and thr >= 0.0):
            raise ConfigurationError(f"admission_threshold must be >= 0 or None, got {thr}")


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


def fit(samples: Sequence[BarrierSample], cfg: RidgeConfig) -> AlphaEstimate:
    """Ridge solution of (H^T H + r I) alpha = H^T (-hdot).

    The order is the first sample's basis length, and every sample must
    share it.  The raw solution is kept verbatim; alpha_hat clamps it to the
    valid non-negative cone componentwise.
    """
    if len(samples) == 0:
        raise InsufficientDataError("cannot fit a style with no samples")
    gram, moment = _zero_sums(samples[0])
    for s in samples:
        _accumulate(gram, moment, s)
    return _ridge_solve(gram + cfg.regularizer * np.eye(len(moment)), moment,
                        cfg.regularizer, len(samples))


def _zero_sums(first: BarrierSample) -> tuple[np.ndarray, np.ndarray]:
    """Zero sums H^T H and H^T (-hdot) of the order of the first sample."""
    q = len(first.basis)
    if q < 1:
        raise ConfigurationError("a sample needs a basis of order >= 1")
    return np.zeros((q, q)), np.zeros(q)


def _accumulate(gram: np.ndarray, moment: np.ndarray, sample: BarrierSample) -> None:
    """Add one sample to the sums H^T H and H^T (-hdot), in place.  fit and
    StyleLearner both sum in sample order through this, so they agree bit for
    bit.  A sample whose order is not that of the sums is rejected."""
    if len(sample.basis) != len(moment):
        raise ConfigurationError(f"sample basis order {len(sample.basis)} does not match "
                                 f"the order {len(moment)} of the samples before it")
    phi = np.asarray(sample.basis, dtype=np.float64)
    gram += np.outer(phi, phi)
    moment += (-sample.hdot_obs) * phi


def _ridge_solve(G: np.ndarray, rhs: np.ndarray, regularizer: float,
                 n_samples: int) -> AlphaEstimate:
    """Solve the normal equations G alpha = rhs and clamp to the valid cone."""
    if regularizer == 0.0:
        cond = np.linalg.cond(G)
        if not np.isfinite(cond) or cond > 1e14:
            raise RankDeficiencyError(
                "normal matrix is singular; add samples at distinct clearances "
                "or use a regularizer > 0")
    raw = np.linalg.solve(G, rhs)
    clamped = tuple(max(float(v), 0.0) for v in raw)
    return AlphaEstimate(AlphaVector(clamped), tuple(float(v) for v in raw), n_samples)


def check_convergence(history: Sequence[AlphaEstimate], cfg: RidgeConfig) -> bool:
    """True iff the last convergence_window estimates moved <= convergence_tol.

    Movement is the largest componentwise spread of alpha_hat across the
    window; histories shorter than the window are never converged.
    """
    w = cfg.convergence_window
    if len(history) < w:
        return False
    window = [est.alpha_hat.coefficients for est in history[-w:]]
    q = len(window[0])
    for coeffs in window:
        if len(coeffs) != q:
            raise ConfigurationError("estimate history mixes hypothesis orders")
    for p in range(q):
        column = [coeffs[p] for coeffs in window]
        if max(column) - min(column) > cfg.convergence_tol:
            return False
    return True


class StyleLearner:
    """Single-owner growing dataset with refit-on-admission and convergence tracking.

    The normal equations are accumulated incrementally, so each admission
    costs O(q^2) regardless of how many samples came before; a batch refit
    via fit() on the same samples gives the same estimate, bit for bit.  The
    first sample sets the order q, and the sums are sized when it is added.
    """

    def __init__(self, ridge: RidgeConfig):
        self.ridge = ridge
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
        thr = self.ridge.admission_threshold
        if thr is None:
            return True
        du_x = float(obj_u_obs[0]) - float(obj_u_nominal_est[0])
        du_y = float(obj_u_obs[1]) - float(obj_u_nominal_est[1])
        return max(abs(du_x), abs(du_y)) > thr

    def add(self, sample: BarrierSample) -> AlphaEstimate:
        """Admit a sample, refit, and update the convergence flag."""
        if self._moment is None:
            self._gram, self._moment = _zero_sums(sample)
            self._ridge_eye = self.ridge.regularizer * np.eye(len(self._moment))
        _accumulate(self._gram, self._moment, sample)
        self.samples.append(sample)
        est = _ridge_solve(self._gram + self._ridge_eye, self._moment,
                           self.ridge.regularizer, len(self.samples))
        self.history.append(est)
        if self.converged_at is None and check_convergence(self.history, self.ridge):
            self.converged_at = len(self.samples)
        if self.converged:
            est = replace(est, converged=True)
            self.history[-1] = est
        return est
