"""Planar double-integrator vehicle model.

States advance with a semi-implicit Euler step: velocity first, then position
using the updated velocity.  With this ordering the one-step change of the
pairwise clearance matches the discrete rate used by the safety constraints
exactly, so an observer can recover a vehicle's applied acceleration from two
consecutive velocity samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError

__all__ = ["VehicleState", "step", "DEFAULT_DT"]

DEFAULT_DT = 0.01


@dataclass(frozen=True)
class VehicleState:
    """Position and velocity in the plane, both in SI units."""

    position: np.ndarray
    velocity: np.ndarray

    def __post_init__(self):
        pos = np.asarray(self.position, dtype=np.float64).reshape(2).copy()
        vel = np.asarray(self.velocity, dtype=np.float64).reshape(2).copy()
        if not (np.isfinite(pos).all() and np.isfinite(vel).all()):
            raise DomainError("vehicle state has non-finite components")
        pos.flags.writeable = False
        vel.flags.writeable = False
        object.__setattr__(self, "position", pos)
        object.__setattr__(self, "velocity", vel)


def step(state: VehicleState, u, dt: float = DEFAULT_DT) -> VehicleState:
    """Advance one step: v' = v + u dt, then x' = x + v' dt."""
    dt = float(dt)
    if not (math.isfinite(dt) and dt > 0.0):
        raise ConfigurationError(f"dt must be positive and finite, got {dt}")
    u = np.asarray(u, dtype=np.float64).reshape(2)
    if not np.isfinite(u).all():
        raise DomainError("acceleration has non-finite components")
    return VehicleState(*_step(state.position, state.velocity, u, dt))


def _step(x, v, u, dt):
    """Kernel of step along one axis (or both, on arrays): no validation,
    shared with the batch simulator.  Returns (x', v')."""
    v_next = v + u * dt
    return x + v_next * dt, v_next
