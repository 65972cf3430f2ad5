"""Integrator checks: the velocity update lands before the position update."""
import numpy as np
import pytest

from polycbf import dynamics

from polycbf import (
    ConfigurationError,
    DomainError,
    SafetyConfig,
    VehicleState,
    hdot,
    safety_value,
    step,
)


def test_step_is_semi_implicit():
    rng = np.random.default_rng(0)
    for _ in range(200):
        s = VehicleState(rng.uniform(-50, 50, 2), rng.uniform(-15, 15, 2))
        u = rng.uniform(-5, 5, 2)
        dt = float(rng.uniform(0.001, 0.1))
        nxt = step(s, u, dt)
        v_new = s.velocity + u * dt
        assert np.array_equal(nxt.velocity, v_new)
        # position advances with the already-updated velocity
        assert np.array_equal(nxt.position, s.position + v_new * dt)


def test_step_clearance_identity():
    # h' - h == hdot * dt + ||dv'||^2 dt^2 for any pair stepped together
    rng = np.random.default_rng(1)
    cfg = SafetyConfig(r_safe=5.0, q=2)
    for _ in range(200):
        si = VehicleState(rng.uniform(-30, 30, 2), rng.uniform(-12, 12, 2))
        sj = VehicleState(rng.uniform(-30, 30, 2), rng.uniform(-12, 12, 2))
        ui, uj = rng.uniform(-5, 5, 2), rng.uniform(-5, 5, 2)
        dt = float(rng.uniform(0.001, 0.05))
        h0 = safety_value(si.position, sj.position, cfg)
        ni, nj = step(si, ui, dt), step(sj, uj, dt)
        h1 = safety_value(ni.position, nj.position, cfg)
        rate = hdot(si.position, sj.position, si.velocity, sj.velocity, ui, uj, dt)
        dv = ni.velocity - nj.velocity
        expect = h0 + rate * dt + float(dv @ dv) * dt * dt
        assert h1 == pytest.approx(expect, rel=1e-12, abs=1e-9)


def test_state_arrays_are_read_only():
    s = VehicleState((1.0, 2.0), (3.0, 4.0))
    with pytest.raises(ValueError):
        s.position[0] = 9.0
    with pytest.raises(ValueError):
        s.velocity[1] = 9.0


def test_state_rejects_nonfinite():
    with pytest.raises(DomainError):
        VehicleState((float("nan"), 0.0), (0.0, 0.0))
    with pytest.raises(DomainError):
        VehicleState((0.0, 0.0), (float("inf"), 0.0))


def test_step_validates_dt():
    s = VehicleState((0.0, 0.0), (1.0, 0.0))
    with pytest.raises(ConfigurationError):
        step(s, (0.0, 0.0), 0.0)
    with pytest.raises(ConfigurationError):
        step(s, (0.0, 0.0), -0.01)


def test_step_rejects_nonfinite_input():
    s = VehicleState((0.0, 0.0), (1.0, 0.0))
    for u in ((float("inf"), 0.0), (0.0, float("nan"))):
        with pytest.raises(DomainError):
            step(s, u, 0.01)


def test_step_matches_the_array_kernel_bit_for_bit():
    # step works on floats; the kernel on numpy arrays is how it stepped before
    rng = np.random.default_rng(4)
    for _ in range(2000):
        s = VehicleState(rng.uniform(-1e3, 1e3, 2), rng.uniform(-30, 30, 2))
        u = rng.uniform(-80, 80, 2)
        dt = float(rng.choice((0.01, 0.05, float(rng.uniform(1e-4, 0.1)))))
        nxt = step(s, tuple(u) if rng.random() < 0.5 else u, dt)
        x, v = dynamics._step(s.position, s.velocity, u, dt)
        assert [c.hex() for c in nxt.position.tolist() + nxt.velocity.tolist()] \
            == [c.hex() for c in x.tolist() + v.tolist()]
