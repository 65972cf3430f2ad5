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

from .errors import DomainError, _check_dt

__all__ = ["VehicleState", "step", "DEFAULT_DT"]

DEFAULT_DT = 0.01


@dataclass(frozen=True)
class VehicleState:
    """Position and velocity in the plane, both in SI units."""

    position: np.ndarray
    velocity: np.ndarray

    def __post_init__(self):
        # np.array copies, so each state owns its arrays.
        pos = np.array(self.position, dtype=np.float64)
        vel = np.array(self.velocity, dtype=np.float64)
        if pos.shape != (2,):
            pos = pos.reshape(2).copy()
        if vel.shape != (2,):
            vel = vel.reshape(2).copy()
        x_x, x_y = pos.tolist()
        v_x, v_y = vel.tolist()
        if not (math.isfinite(x_x) and math.isfinite(x_y)
                and math.isfinite(v_x) and math.isfinite(v_y)):
            raise DomainError("vehicle state has non-finite components")
        pos.flags.writeable = False
        vel.flags.writeable = False
        object.__setattr__(self, "position", pos)
        object.__setattr__(self, "velocity", vel)


def step(state: VehicleState, u, dt: float = DEFAULT_DT) -> VehicleState:
    """Advance one step: v' = v + u dt, then x' = x + v' dt."""
    dt = _check_dt(dt)
    u_x, u_y = np.asarray(u, dtype=np.float64).reshape(2).tolist()
    if not (math.isfinite(u_x) and math.isfinite(u_y)):
        raise DomainError("acceleration has non-finite components")
    x_x, x_y = state.position.tolist()
    v_x, v_y = state.velocity.tolist()
    x_x, v_x = _step(x_x, v_x, u_x, dt)
    x_y, v_y = _step(x_y, v_y, u_y, dt)
    return VehicleState((x_x, x_y), (v_x, v_y))


def _step(x, v, u, dt):
    """Kernel of step along one axis (or both, on arrays): no validation,
    shared with the batch simulator.  Returns (x', v')."""
    v_next = v + u * dt
    return x + v_next * dt, v_next
