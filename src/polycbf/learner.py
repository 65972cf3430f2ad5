"""Identification of a neighbor's driving style from observed clearances.

While a vehicle's safety constraint is active, its clearance rate sits exactly
on the class-K margin: hdot = -kappa(alpha, h).  An observer that logs (h,
hdot) pairs during such episodes can therefore recover alpha by regressing
-hdot on the odd-power basis of h.  Ridge-regularized normal equations keep
the fit defined before enough distinct clearances have been seen.

A sample is a BarrierSample: an observed clearance rate and the clearance
basis it is regressed on.  The simulation hooks (scenario._observe_rows) make
samples in one of two modes.  "finite_diff" differentiates the measured
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

from .barrier import DEFAULT_Q, AlphaVector, BarrierBasis, basis
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
    """One observed (clearance rate, clearance basis) pair."""

    hdot_obs: float
    basis: BarrierBasis
    timestamp: int = 0


@dataclass(frozen=True)
class RidgeConfig:
    """Regression and convergence-detection settings.

    The regression target is the negated observed rate: active constraints
    satisfy hdot = -kappa(alpha, h), so regressing -hdot recovers +alpha.

    admission_threshold gates samples on the object's acceleration deviating
    from its estimated nominal (cruise ~ zero) by more than the threshold, a
    proxy for "the safety constraint is plausibly active".  None disables the
    filter and admits every sample.
    """

    regularizer: float = 1e-8
    q_hypothesis: int = DEFAULT_Q
    convergence_tol: float = 1e-6
    convergence_window: int = 5
    admission_threshold: Optional[float] = 0.01

    def __post_init__(self):
        if not (math.isfinite(self.regularizer) and self.regularizer >= 0.0):
            raise ConfigurationError(f"regularizer must be >= 0, got {self.regularizer}")
        if self.q_hypothesis < 1:
            raise ConfigurationError(f"q_hypothesis must be >= 1, got {self.q_hypothesis}")
        if not (math.isfinite(self.convergence_tol) and self.convergence_tol > 0.0):
            raise ConfigurationError(f"convergence_tol must be > 0, got {self.convergence_tol}")
        if self.convergence_window < 2:
            raise ConfigurationError(f"convergence_window must be >= 2, got {self.convergence_window}")
        if self.admission_threshold is not None and self.admission_threshold < 0.0:
            raise ConfigurationError("admission_threshold must be >= 0 or None")


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

    The raw solution is kept verbatim; alpha_hat clamps it to the valid
    non-negative cone componentwise.
    """
    if len(samples) == 0:
        raise InsufficientDataError("cannot fit a style with no samples")
    q = cfg.q_hypothesis
    gram, moment = np.zeros((q, q)), np.zeros(q)
    for s in samples:
        _accumulate(gram, moment, s, q)
    return _ridge_solve(gram + cfg.regularizer * np.eye(q), moment, cfg.regularizer,
                        len(samples))


def _accumulate(gram: np.ndarray, moment: np.ndarray, sample: BarrierSample, q: int) -> None:
    """Add one sample to the sums H^T H and H^T (-hdot), in place.  fit and
    StyleLearner both sum in sample order through this, so they agree bit for
    bit."""
    if sample.basis.q != q:
        raise ConfigurationError(
            f"sample basis order {sample.basis.q} does not match q_hypothesis {q}")
    phi = np.asarray(sample.basis.values, dtype=np.float64)
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
    via fit() on the same samples gives the same estimate, bit for bit.
    """

    def __init__(self, ridge: RidgeConfig):
        self.ridge = ridge
        self.samples: List[BarrierSample] = []
        self.history: List[AlphaEstimate] = []
        self.converged_at: Optional[int] = None
        q = ridge.q_hypothesis
        self._gram = np.zeros((q, q))
        self._moment = np.zeros(q)
        self._ridge_eye = ridge.regularizer * np.eye(q)

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
        _accumulate(self._gram, self._moment, sample, self.ridge.q_hypothesis)
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
