"""Exception types shared across the package, and the one step-length check."""

import math


class DomainError(ValueError):
    """An input lies outside the mathematical domain (non-finite, etc.)."""


class ConfigurationError(ValueError):
    """A parameter violates its declared invariant (q < 1, negative radius, ...)."""


class DegenerateConstraintError(ValueError):
    """A pairwise constraint cannot be formed (coincident positions)."""


class RankDeficiencyError(ValueError):
    """The unregularized normal equations are singular; a positive ridge is needed."""


def _check_dt(dt) -> float:
    """dt as a float, once it is checked to be positive and finite."""
    dt = float(dt)
    if not (math.isfinite(dt) and dt > 0.0):
        raise ConfigurationError(f"dt must be positive and finite, got {dt}")
    return dt
