"""Barrier algebra: coefficient vectors, odd-power basis, kappa, clearance rate."""
import math
import random

import numpy as np
import pytest

from polycbf import barrier

from polycbf import (
    AlphaVector,
    ConfigurationError,
    DomainError,
    SafetyConfig,
    basis,
    hdot,
    kappa,
    safety_value,
)


def naive_kappa(coeffs, h):
    # independent evaluation: explicit odd powers, summed highest-first
    return math.fsum(c * h ** (2 * p + 1) for p, c in enumerate(coeffs))


def test_kappa_zero_at_zero_exactly():
    rng = np.random.default_rng(0)
    for _ in range(50):
        q = int(rng.integers(1, 5))
        alpha = AlphaVector(tuple(rng.uniform(0.0, 10.0, q)))
        assert kappa(alpha, 0.0) == 0.0


def test_kappa_matches_naive_power_sum():
    rng = np.random.default_rng(1)
    for _ in range(200):
        q = int(rng.integers(1, 5))
        coeffs = tuple(rng.uniform(0.0, 10.0, q))
        h = float(rng.uniform(0.0, 100.0))
        expect = naive_kappa(coeffs, h)
        got = kappa(AlphaVector(coeffs), h)
        assert got == pytest.approx(expect, rel=1e-12, abs=1e-12)


def _kappa_every_term(coeffs, h):
    # the kappa kernel as it was before zero coefficients were skipped
    total = 0.0
    term = h
    h2 = h * h
    for c in coeffs:
        total += c * term
        term *= h2
    return total


def test_kappa_skipping_zero_coefficients_keeps_every_finite_result():
    # signed coefficients cover the style gaps of compatibility rows
    rng = random.Random(5)
    coeff_pool = (0.0, -0.0, 5e-324, 0.3, -0.3, 2.0, 1e-200, -1e200)
    h_pool = (0.0, -0.0, 5e-324, 1e-100, 24.0, -7.5, 1e100, -1e100, 1e300)
    finite = 0
    for _ in range(20000):
        coeffs = tuple(rng.choice((rng.choice(coeff_pool), rng.uniform(-3.0, 3.0)))
                       for _ in range(rng.randint(1, 4)))
        h = rng.choice((rng.choice(h_pool), rng.uniform(-100.0, 100.0)))
        before = _kappa_every_term(coeffs, h)
        if math.isfinite(before):
            assert barrier._kappa(coeffs, h).hex() == before.hex(), (coeffs, h)
            finite += 1
    assert finite > 15000


def test_kappa_zero_coefficient_ignores_an_overflowed_power():
    # 0 * (1e300)^3 was 0 * inf = NaN
    assert kappa(AlphaVector((0.5, 0.0, 0.2)), 1e300) == math.inf
    assert kappa(AlphaVector((0.5, 0.0)), 1e300) == 0.5e300


def test_kappa_accepts_plain_sequences():
    assert kappa((2.0, 0.5), 3.0) == pytest.approx(2.0 * 3.0 + 0.5 * 27.0, rel=1e-12)


def test_kappa_linear_case_is_exact_product():
    # q = 1 reduces to gamma * h with no extra arithmetic
    rng = np.random.default_rng(2)
    for _ in range(100):
        g = float(rng.uniform(0.0, 10.0))
        h = float(rng.uniform(-50.0, 100.0))
        assert kappa(AlphaVector((g,)), h) == g * h


def test_kappa_nondecreasing_and_strict_when_active():
    rng = np.random.default_rng(3)
    grid = np.linspace(0.0, 100.0, 200)
    for _ in range(100):
        q = int(rng.integers(1, 5))
        coeffs = rng.uniform(0.0, 10.0, q)
        # zero out a random subset so some trials are degenerate
        mask = rng.random(q) < 0.3
        coeffs[mask] = 0.0
        alpha = AlphaVector(tuple(coeffs))
        vals = [kappa(alpha, float(h)) for h in grid]
        diffs = np.diff(vals)
        assert np.all(diffs >= 0.0)
        if np.any(coeffs > 0.0):
            assert np.all(diffs > 0.0)
        else:
            assert np.all(np.asarray(vals) == 0.0)


def test_basis_matches_odd_powers_and_recurrence():
    rng = np.random.default_rng(4)
    for _ in range(100):
        q = int(rng.integers(1, 6))
        h = float(rng.uniform(-20.0, 20.0))
        vals = basis(h, q)
        assert len(vals) == q
        assert vals[0] == h
        for p in range(q - 1):
            # construction order: next term is exactly term * h * h
            assert vals[p + 1] == vals[p] * (h * h)
        for p in range(q):
            assert vals[p] == pytest.approx(h ** (2 * p + 1), rel=1e-12, abs=1e-300)


def test_basis_rejects_bad_order():
    with pytest.raises(ConfigurationError):
        basis(1.0, 0)


def test_alpha_vector_validation():
    with pytest.raises(ConfigurationError):
        AlphaVector(())
    with pytest.raises(ConfigurationError):
        AlphaVector((1.0, -0.1))
    with pytest.raises(DomainError):
        AlphaVector((float("nan"),))
    with pytest.raises(DomainError):
        AlphaVector((float("inf"), 1.0))


def test_alpha_vector_q_and_padding():
    a = AlphaVector((1.0, 2.0))
    assert a.q == 2
    assert a.padded(4) == (1.0, 2.0, 0.0, 0.0)
    assert a.padded(2) == (1.0, 2.0)
    with pytest.raises(ConfigurationError):
        a.padded(1)


def test_safety_value_distance_squared_margin():
    cfg = SafetyConfig(r_safe=5.0, q=2)
    assert safety_value((3.0, 4.0), (0.0, 0.0), cfg) == pytest.approx(0.0, abs=1e-12)
    assert safety_value((7.0, 0.0), (0.0, 0.0), cfg) == pytest.approx(24.0, rel=1e-12)
    # symmetric in the two positions
    rng = np.random.default_rng(5)
    for _ in range(50):
        xi = rng.uniform(-50.0, 50.0, 2)
        xj = rng.uniform(-50.0, 50.0, 2)
        assert safety_value(xi, xj, cfg) == safety_value(xj, xi, cfg)


def test_safety_config_validation():
    with pytest.raises(ConfigurationError):
        SafetyConfig(r_safe=0.0)
    # every clearance subtracts r_safe * r_safe, which must not overflow
    with pytest.raises(ConfigurationError, match="finite square"):
        SafetyConfig(r_safe=1e200)
    assert SafetyConfig(r_safe=1e150).r_safe == 1e150
    with pytest.raises(ConfigurationError):
        SafetyConfig(r_safe=5.0, q=0)


def test_hdot_formula_and_pair_symmetry():
    rng = np.random.default_rng(6)
    dt = 0.01
    for _ in range(100):
        xi, xj = rng.uniform(-20, 20, 2), rng.uniform(-20, 20, 2)
        vi, vj = rng.uniform(-10, 10, 2), rng.uniform(-10, 10, 2)
        ui, uj = rng.uniform(-5, 5, 2), rng.uniform(-5, 5, 2)
        dx = xi - xj
        expect = 2.0 * float(dx @ (vi - vj)) + 2.0 * float(dx @ (ui - uj)) * dt
        got = hdot(xi, xj, vi, vj, ui, uj, dt)
        assert got == pytest.approx(expect, rel=1e-12, abs=1e-12)
        # the clearance belongs to the pair: swapping roles flips every
        # difference twice, so the rate comes back bit for bit
        assert hdot(xj, xi, vj, vi, uj, ui, dt) == got


def test_hdot_requires_positive_dt():
    z = (0.0, 0.0)
    with pytest.raises(ConfigurationError):
        hdot((1.0, 0.0), z, z, z, z, z, 0.0)
