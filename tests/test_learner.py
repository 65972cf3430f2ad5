"""Style identification: clearance-rate samples, ridge fit, convergence."""
import numpy as np
import pytest

from polycbf import (
    AlphaEstimate,
    AlphaVector,
    BarrierSample,
    ConfigurationError,
    InsufficientDataError,
    RankDeficiencyError,
    RidgeConfig,
    SafetyConfig,
    StyleLearner,
    VehicleState,
    basis,
    check_convergence,
    fit,
    hdot,
    kappa,
    safety_value,
    step,
)
from polycbf.scenario import _observe_rows

CFG = SafetyConfig(r_safe=5.0, q=2)


def synthetic_samples(truth, hs, q):
    # a style that rides its constraint produces hdot = -kappa(alpha, h)
    return [BarrierSample(-kappa(truth, h), basis(h, q), t)
            for t, h in enumerate(hs)]


def _rows(*states):
    """States as the (n, 4) rows [x, y, vx, vy] that simulate's hooks see."""
    return np.array([[*s.position, *s.velocity] for s in states])


def test_observe_is_backward_difference_with_current_basis():
    rng = np.random.default_rng(0)
    dt = 0.01
    for _ in range(100):
        prev_o = VehicleState(rng.uniform(-20, 20, 2), rng.uniform(-10, 10, 2))
        prev_n = VehicleState(prev_o.position + rng.uniform(6, 25, 2),
                              rng.uniform(-10, 10, 2))
        o = step(prev_o, rng.uniform(-4, 4, 2), dt)
        nb = step(prev_n, rng.uniform(-4, 4, 2), dt)
        s = _observe_rows("finite_diff", _rows(prev_o, prev_n), _rows(o, nb), 0, 1, None,
                          CFG, dt, 3)
        h_cur = safety_value(o.position, nb.position, CFG)
        h_prev = safety_value(prev_o.position, prev_n.position, CFG)
        assert s.hdot_obs == (h_cur - h_prev) / dt
        assert s.basis == basis(h_cur, CFG.q)
        assert s.timestamp == 3


def test_observe_analytic_matches_kinematics():
    # against the one-step identity: h' - h = rate dt + ||dv'||^2 dt^2,
    # with the neighbor held at constant velocity
    rng = np.random.default_rng(1)
    dt = 0.01
    for _ in range(100):
        o = VehicleState(rng.uniform(-20, 20, 2), rng.uniform(-10, 10, 2))
        nb = VehicleState(o.position + rng.uniform(6, 25, 2), rng.uniform(-10, 10, 2))
        u = rng.uniform(-4, 4, 2)
        # the sample of the step that ended at t_next = 8 is stamped 7, the
        # step at which u was applied
        s = _observe_rows("analytic", _rows(nb, o), _rows(nb, step(o, u, dt)), 1, 0, u,
                          CFG, dt, 8)
        expect = hdot(o.position, nb.position, o.velocity, nb.velocity,
                      u, (0.0, 0.0), dt)
        assert s.hdot_obs == expect
        assert s.timestamp == 7
        h0 = safety_value(o.position, nb.position, CFG)
        h1 = safety_value(step(o, u, dt).position,
                          (nb.position + nb.velocity * dt), CFG)
        dv = (o.velocity + u * dt) - nb.velocity
        assert h1 - h0 == pytest.approx(s.hdot_obs * dt + float(dv @ dv) * dt * dt,
                                        rel=1e-9, abs=1e-9)
        assert s.basis == basis(h0, CFG.q)


def test_fit_recovers_exact_synthetic_style():
    ridge = RidgeConfig(regularizer=1e-8)
    truth = AlphaVector((0.9, 0.1))
    est = fit(synthetic_samples(truth, [1.0, 2.0, 3.5, 5.0, 8.0], 2), ridge)
    assert est.alpha_hat.coefficients == pytest.approx((0.9, 0.1), abs=1e-6)
    assert est.n_samples == 5


def test_fit_handles_degenerate_linear_truth():
    # a pure gamma h style fit with a two-term hypothesis: second weight ~ 0
    ridge = RidgeConfig(regularizer=1e-8)
    truth = AlphaVector((1.7,))
    hs = [0.5, 1.0, 2.0, 4.0, 6.0]
    samples = [BarrierSample(-kappa(truth, h), basis(h, 2), t)
               for t, h in enumerate(hs)]
    est = fit(samples, ridge)
    assert est.alpha_hat.coefficients[0] == pytest.approx(1.7, abs=1e-6)
    assert abs(est.alpha_hat.coefficients[1]) <= 1e-6


def test_fit_clamps_but_keeps_raw():
    # flipping the sign of the rates drives the raw solution negative
    ridge = RidgeConfig(regularizer=1e-8)
    truth = AlphaVector((0.9, 0.1))
    samples = [BarrierSample(+kappa(truth, h), basis(h, 2), t)
               for t, h in enumerate([1.0, 2.0, 3.5, 5.0])]
    est = fit(samples, ridge)
    assert all(a >= 0.0 for a in est.alpha_hat.coefficients)
    assert any(r < 0.0 for r in est.raw)


def test_fit_empty_and_mismatched_inputs():
    ridge = RidgeConfig()
    with pytest.raises(InsufficientDataError):
        fit([], ridge)
    # the first sample sets the order; a later sample of another order is
    # rejected by the batch fit and by the incremental learner alike
    mixed = [BarrierSample(1.0, basis(2.0, 2), 0), BarrierSample(1.0, basis(3.0, 3), 1)]
    with pytest.raises(ConfigurationError, match="order 3 does not match the order 2"):
        fit(mixed, ridge)
    learner = StyleLearner(ridge)
    learner.add(mixed[0])
    with pytest.raises(ConfigurationError, match="order 3 does not match the order 2"):
        learner.add(mixed[1])
    # the rejected sample left the learner as it was
    assert len(learner.samples) == len(learner.history) == 1
    assert learner.add(mixed[0]) == fit([mixed[0]] * 2, ridge)
    empty = BarrierSample(1.0, (), 0)
    with pytest.raises(ConfigurationError, match="order >= 1"):
        fit([empty], ridge)
    with pytest.raises(ConfigurationError, match="order >= 1"):
        StyleLearner(ridge).add(empty)


def test_fit_rank_deficiency_only_without_regularizer():
    # identical clearances give a rank-1 design matrix
    samples = synthetic_samples(AlphaVector((1.0, 0.2)), [4.0, 4.0, 4.0], 2)
    with pytest.raises(RankDeficiencyError):
        fit(samples, RidgeConfig(regularizer=0.0))
    est = fit(samples, RidgeConfig(regularizer=1e-8))
    assert np.isfinite(est.alpha_hat.coefficients).all()


def test_check_convergence_window_spread():
    ridge = RidgeConfig(convergence_tol=1e-3, convergence_window=3)

    def estimate(a):
        return AlphaEstimate(alpha_hat=AlphaVector(a), raw=a, n_samples=1,
                             converged=False)

    flat = [estimate((1.0, 2.0))] * 3
    assert check_convergence(flat, ridge)
    drifting = [estimate((1.0, 2.0)), estimate((1.0, 2.0)), estimate((1.01, 2.0))]
    assert not check_convergence(drifting, ridge)
    assert not check_convergence(flat[:2], ridge)


def test_style_learner_matches_batch_fit():
    rng = np.random.default_rng(2)
    ridge = RidgeConfig(regularizer=1e-8, admission_threshold=None)
    truth = AlphaVector((0.6, 0.35))
    hs = rng.uniform(0.5, 10.0, 12)
    samples = synthetic_samples(truth, hs, 2)
    learner = StyleLearner(ridge)
    for k, s in enumerate(samples):
        est_inc = learner.add(s)
        est_batch = fit(samples[: k + 1], ridge)
        # incremental normal equations agree with the batch solve, bit for bit
        assert est_inc.alpha_hat == est_batch.alpha_hat
        assert est_inc.raw == est_batch.raw
    assert learner.estimate.alpha_hat.coefficients == pytest.approx(
        (0.6, 0.35), abs=1e-6)


def test_style_learner_convergence_is_sticky():
    ridge = RidgeConfig(regularizer=1e-8,
                        convergence_tol=1e-6, convergence_window=3,
                        admission_threshold=None)
    truth = AlphaVector((0.8, 0.05))
    learner = StyleLearner(ridge)
    for t, h in enumerate([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]):
        learner.add(BarrierSample(-kappa(truth, h), basis(h, 2), t))
    assert learner.converged
    first = learner.converged_at
    assert first is not None
    learner.add(BarrierSample(-kappa(truth, 8.0), basis(8.0, 2), 99))
    assert learner.converged_at == first
    assert learner.estimate.converged


def test_style_learner_admission_gate():
    ridge = RidgeConfig(admission_threshold=0.05)
    learner = StyleLearner(ridge)
    # quiescent inputs carry no constraint information
    assert not learner.admits((0.0, 0.0))
    assert not learner.admits((0.04, -0.03))
    assert learner.admits((0.06, 0.0))
    assert learner.admits((1.0, 0.2), obj_u_nominal_est=(1.0, 0.3))
    open_gate = StyleLearner(RidgeConfig(admission_threshold=None))
    assert open_gate.admits((0.0, 0.0))
