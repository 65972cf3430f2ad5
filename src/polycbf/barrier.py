"""Pairwise clearance function and polynomial class-K margins.

The safety margin between two vehicles is the squared-distance clearance

    h = ||x_i - x_j||^2 - r_safe^2        [m^2]

with the safe set {h >= 0}.  How fast a vehicle may let h shrink is governed
by a polynomial class-K function built from odd powers of h,

    kappa(alpha, h) = alpha_1 h + alpha_2 h^3 + ... + alpha_q h^(2q-1),

whose non-negative coefficients alpha act as a driving-style knob: larger
coefficients permit a faster approach, with the single-term alpha = [gamma]
reducing to the familiar linear margin gamma * h.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, DomainError, _check_dt

__all__ = [
    "AlphaVector",
    "SafetyConfig",
    "safety_value",
    "basis",
    "kappa",
    "hdot",
]

DEFAULT_Q = 2


def _as_xy(value, name: str) -> tuple[float, float]:
    """Coerce a 2-vector-like input to a pair of finite floats."""
    arr = np.asarray(value, dtype=np.float64).ravel()
    if arr.shape != (2,):
        raise ConfigurationError(f"{name} must be a 2-vector, got shape {arr.shape}")
    x, y = float(arr[0]), float(arr[1])
    if not (math.isfinite(x) and math.isfinite(y)):
        raise DomainError(f"{name} has non-finite components: ({x}, {y})")
    return x, y


@dataclass(frozen=True)
class AlphaVector:
    """Coefficients of a polynomial class-K margin, lowest odd power first."""

    coefficients: tuple[float, ...]

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coefficients)
        if len(coeffs) < 1:
            raise ConfigurationError("alpha needs at least one coefficient")
        for c in coeffs:
            if not math.isfinite(c):
                raise DomainError(f"non-finite alpha coefficient: {c}")
            if c < 0.0:
                raise ConfigurationError(f"alpha coefficients must be >= 0, got {c}")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def q(self) -> int:
        return len(self.coefficients)

    def padded(self, q: int) -> tuple[float, ...]:
        """Coefficients extended with zeros up to length q."""
        if q < self.q:
            raise ConfigurationError(f"cannot pad alpha of order {self.q} down to {q}")
        return self.coefficients + (0.0,) * (q - self.q)


@dataclass(frozen=True)
class SafetyConfig:
    """Safety radius and polynomial order shared by a whole scenario."""

    r_safe: float = 5.0
    q: int = DEFAULT_Q

    def __post_init__(self):
        # Every clearance subtracts r_safe * r_safe, so the square must be finite too.
        if not (self.r_safe > 0.0 and math.isfinite(self.r_safe * self.r_safe)):
            raise ConfigurationError(
                f"r_safe must be positive with a finite square, got {self.r_safe}")
        if self.q < 1:
            raise ConfigurationError(f"q must be >= 1, got {self.q}")


def safety_value(xi, xj, cfg: SafetyConfig) -> float:
    """Squared-distance clearance ||xi - xj||^2 - r_safe^2 between two positions."""
    xi_x, xi_y = _as_xy(xi, "xi")
    xj_x, xj_y = _as_xy(xj, "xj")
    dx = xi_x - xj_x
    dy = xi_y - xj_y
    return dx * dx + dy * dy - cfg.r_safe * cfg.r_safe


def basis(h: float, q: int) -> tuple[float, ...]:
    """Odd-power basis (h, h^3, ..., h^(2q-1)) evaluated at a clearance h."""
    if q < 1:
        raise ConfigurationError(f"q must be >= 1, got {q}")
    h = float(h)
    if not math.isfinite(h):
        raise DomainError(f"non-finite clearance: {h}")
    values = []
    term = h
    h2 = h * h
    for _ in range(q):
        values.append(term)
        term *= h2
    return tuple(values)


def kappa(alpha: AlphaVector | Sequence[float], h: float) -> float:
    """Polynomial class-K margin alpha . [h, h^3, ...] at a clearance h.

    Exactly zero at h = 0, strictly increasing for h > 0 whenever some
    coefficient is positive.
    """
    return _kappa(*_kappa_args(alpha, h))


def _kappa_args(alpha: AlphaVector | Sequence[float],
                h: float) -> tuple[tuple[float, ...], float]:
    """Validated (coefficients, clearance) arguments for the kappa kernel."""
    coeffs = alpha.coefficients if isinstance(alpha, AlphaVector) else AlphaVector(tuple(alpha)).coefficients
    h = float(h)
    if not math.isfinite(h):
        raise DomainError(f"non-finite clearance: {h}")
    return coeffs, h


def _kappa(coeffs: tuple[float, ...], h: float) -> float:
    """Scalar kernel of kappa: no validation, shared with simulate's pair loop.

    A zero coefficient adds nothing, not 0 * h^(2p+1): that product is NaN
    once the power overflows.  Skipping it leaves every finite result as it
    was, because the running total never holds -0.0 and adding +-0.0 to any
    other value returns it unchanged.
    """
    total = 0.0
    term = h
    h2 = h * h
    for c in coeffs:
        if c:
            total += c * term
        term *= h2
    return total


def _kappa_columns(coeffs: np.ndarray) -> tuple:
    """_kappa_rows' per-run form of the coefficients coeffs (n, q), one row a
    vehicle, zero-padded to a common q: for each power, the (n, 1) column
    and, only when it holds a zero (+0.0 or -0.0, as _kappa's `if c:`
    sees it), the column's non-zero mask."""
    columns = []
    for c in np.asarray(coeffs, dtype=np.float64).T:
        c = c[:, None].copy()
        columns.append((c, None if c.all() else c != 0.0))
    return tuple(columns)


def _kappa_rows(columns: tuple, h: np.ndarray) -> np.ndarray:
    """Array twin of _kappa for simulate's array stage: row v of h (n, m)
    takes vehicle v's coefficients, given as _kappa_columns built them once
    per run.

    Each element is _kappa's, bit for bit: the sum starts from +0.0 and adds
    the terms in the same order, and a zero coefficient adds +0.0 in place
    of its product, which leaves the total unchanged since it never holds
    -0.0; a padding zero does the same.  A column without a zero adds its
    products as they are, which is what the masked add picks there.
    Overflow and 0 * inf happen in the skipped products, so the caller runs
    this under np.errstate.
    """
    total = np.zeros(h.shape)
    term = h
    for k, (c, nonzero) in enumerate(columns):
        if k == 1:
            h2 = h * h
        if k:
            term = term * h2
        if nonzero is None:
            total += c * term
        else:
            total += np.where(nonzero, c * term, 0.0)
    return total


def hdot(xi, xj, vi, vj, ui, uj, dt: float) -> float:
    """One-step rate of the clearance under piecewise-constant accelerations.

    Expanding h across a single integrator step of length dt gives

        2 dx.dv + 2 dx.ui dt - 2 dx.uj dt,

    whose dt terms vanish in the continuous limit, leaving the familiar
    2 dx.dv.  The value is antisymmetric under swapping the two vehicles.
    """
    xi_x, xi_y = _as_xy(xi, "xi")
    xj_x, xj_y = _as_xy(xj, "xj")
    vi_x, vi_y = _as_xy(vi, "vi")
    vj_x, vj_y = _as_xy(vj, "vj")
    ui_x, ui_y = _as_xy(ui, "ui")
    uj_x, uj_y = _as_xy(uj, "uj")
    dt = _check_dt(dt)
    dx_x = xi_x - xj_x
    dx_y = xi_y - xj_y
    dv_x = vi_x - vj_x
    dv_y = vi_y - vj_y
    du_x = ui_x - uj_x
    du_y = ui_y - uj_y
    return 2.0 * (dx_x * dv_x + dx_y * dv_y) + 2.0 * (dx_x * du_x + dx_y * du_y) * dt
