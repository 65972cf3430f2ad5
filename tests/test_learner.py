"""Style identification: clearance-rate samples, the StyleLearner ridge fit,
convergence.

The fit solves on Python floats, so the oracle's bit-for-bit checks and the
pinned estimates below hold whichever BLAS kernels numpy runs."""
import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest

from helpers import ridge_oracle
from test_log_pins import PINS, log_digest

from polycbf import (
    AlphaEstimate,
    AlphaVector,
    BarrierSample,
    ConfigurationError,
    PredictSettings,
    SafetyConfig,
    StyleLearner,
    VehicleState,
    basis,
    check_convergence,
    cli,
    experiment_prediction,
    hdot,
    kappa,
    safety_value,
    step,
)
from polycbf.adaptive import run_adaptive_merge
from polycbf.learner import _ridge_solve, _sample
from polycbf.scenario import prediction_trial_setup, simulate

CFG = SafetyConfig(r_safe=5.0, q=2)
# The learner's ridge term, which the oracle is handed.
REGULARIZER = 1e-8


def synthetic_samples(truth, hs, q):
    # a style that rides its constraint produces hdot = -kappa(alpha, h)
    return [BarrierSample(-kappa(truth, h), basis(h, q), t)
            for t, h in enumerate(hs)]


def learn(samples):
    """The estimate of a fresh StyleLearner after it admits the samples in order."""
    learner = StyleLearner()
    for s in samples:
        est = learner.add(s)
    return est


def assert_matches_oracle(est, samples):
    # the same sums in the same order give the oracle's bits
    clamped, raw = ridge_oracle([(s.hdot_obs, s.basis) for s in samples], REGULARIZER)
    assert [v.hex() for v in est.raw] == [v.hex() for v in raw]
    assert [v.hex() for v in est.alpha_hat.coefficients] == [v.hex() for v in clamped]


def _rows(*states):
    """States as the (n, 4) rows [x, y, vx, vy] that simulate logs per step."""
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
        s = _sample("finite_diff", _rows(prev_o, prev_n), _rows(o, nb), None, CFG, dt, 3)
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
        s = _sample("analytic", _rows(o, nb), _rows(step(o, u, dt), nb), u, CFG, dt, 8)
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


def exact_solve(a, b):
    """The solution of a x = b in exact rational arithmetic, as floats."""
    n = len(b)
    m = [[Fraction(x) for x in row] + [Fraction(r)] for row, r in zip(a, b)]
    for c in range(n):
        p = next(r for r in range(c, n) if m[r][c] != 0)
        m[c], m[p] = m[p], m[c]
        for r in range(n):
            if r != c and m[r][c] != 0:
                f = m[r][c] / m[c][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return [float(m[c][n] / m[c][c]) for c in range(n)]


def _observed_trial():
    """Prediction trial 0's log, and StyleLearner.observe's two
    parameterizations of its object: the prediction experiment's (the
    object's gain and actuator box) and the adaptive run's (the defaults:
    a zero nominal and no box)."""
    _, cfg = prediction_trial_setup(0, PredictSettings(n_steps=120), CFG)
    obj = cfg.vehicles[0]
    params = {"predict": dict(gain=obj.gain, box=(obj.limits.u_min, obj.limits.u_max)),
              "adaptive": {}}
    return cfg, simulate(cfg).log.states, params


@pytest.mark.parametrize("rule", ["predict", "adaptive"])
@pytest.mark.parametrize("vehicle", [0, 1], ids=["object", "neighbour"])
@pytest.mark.parametrize("bad", [math.inf, math.nan], ids=["inf", "nan"])
def test_observe_stops_before_a_non_finite_row(rule, vehicle, bad):
    cfg, states, params = _observed_trial()
    clean = StyleLearner().observe(states, 0, 1, CFG, cfg.dt, **params[rule])
    k = clean[3]
    for rows in (slice(k, k + 1), slice(k, None)):
        broken = states.copy()
        broken[rows, vehicle, 0] = bad
        learner = StyleLearner()
        # the steps at and after k are not read, and nothing raises
        assert learner.observe(broken, 0, 1, CFG, cfg.dt, **params[rule]) == clean[:3]
        assert len(learner.samples) == 3


@pytest.mark.parametrize("rule", ["predict", "adaptive"])
def test_observe_resumes_at_t0_and_stops_at_cap(rule):
    cfg, states, params = _observed_trial()
    whole = StyleLearner()
    steps = whole.observe(states, 0, 1, CFG, cfg.dt, **params[rule])
    assert whole.converged and steps == [s.timestamp + 1 for s in whole.samples]
    # the prediction experiment's chunks: each log holds the steps before it
    chunked = StyleLearner()
    split = steps[2]
    assert (chunked.observe(states[:split + 1], 0, 1, CFG, cfg.dt, **params[rule])
            + chunked.observe(states, 0, 1, CFG, cfg.dt, split, **params[rule])) == steps
    assert (chunked.samples, chunked.history) == (whole.samples, whole.history)
    capped = StyleLearner()
    assert capped.observe(states, 0, 1, CFG, cfg.dt, cap=2, **params[rule]) == steps[:2]
    assert capped.observe(states, 0, 1, CFG, cfg.dt, steps[2], cap=2, **params[rule]) == []


def test_observe_estimates_the_nominal_toward_the_first_logged_velocity():
    # the object drops from 10 to 9 m/s at step 1, then follows the cruise
    # law back toward 10 m/s with gain 0.8: from step 2 on its input is the
    # estimated nominal up to rounding, which only a zero gain admits
    dt, gain, n = 0.01, 0.8, 40
    v = [10.0, 9.0]
    while len(v) <= n:
        v.append(v[-1] + dt * gain * (10.0 - v[-1]))
    states = np.zeros((n + 1, 2, 4))
    states[:, 0, 0], states[:, 0, 2] = np.cumsum(v) * dt, v
    states[:, 1, 0], states[:, 1, 2] = 100.0 + 10.0 * dt * np.arange(n + 1), 10.0
    for t0 in (0, 1):
        assert StyleLearner().observe(states, 0, 1, CFG, dt, t0, gain=gain) == [1][t0:]
    assert StyleLearner().observe(states, 0, 1, CFG, dt, 1)[:3] == [2, 3, 4]


def test_observe_rejects_inputs_within_1e3_of_a_box_face():
    cfg, states, _ = _observed_trial()
    steps = StyleLearner().observe(states, 0, 1, CFG, cfg.dt)
    u_x = {t: (states[t, 0, 2] - states[t - 1, 0, 2]) / cfg.dt for t in steps}
    lo, hi = min(u_x.values()), max(u_x.values())
    assert lo < hi
    for margin, rejected in ((2e-3, set()), (5e-4, {lo, hi})):
        box = ((lo - margin, -10.0), (hi + margin, 10.0))
        got = StyleLearner().observe(states, 0, 1, CFG, cfg.dt, box=box)
        assert [t for t in steps if u_x[t] not in rejected] == [t for t in got if t in u_x]
        assert not rejected & {u_x.get(t) for t in got}


# sha256 over the hex of every estimate of a three-trial finite_diff
# prediction run, and its trials' admitted counts, recorded while the
# observation loop lived in scenario.
FINITE_DIFF_PIN = ("98ef2de2fc1b1b3b9f4308fc783344853a98da83e18dabadcd048f57adfcfa96",
                   [1795, 1756, 16])


def test_finite_diff_prediction_is_pinned():
    summary = experiment_prediction(PredictSettings(
        trials=3, mode="finite_diff", dt=2.5e-4, n_steps=40000, closing_range=(0.8, 1.2),
        sample_cap=8000))
    text = "\n".join(" ".join(v.hex() for v in a)
                     for trial in summary.trials for a in trial.estimate_series)
    assert (hashlib.sha256(text.encode()).hexdigest(),
            [trial.n_admitted for trial in summary.trials]) == FINITE_DIFF_PIN


def test_fit_recovers_exact_synthetic_style():
    samples = synthetic_samples(AlphaVector((0.9, 0.1)), [1.0, 2.0, 3.5, 5.0, 8.0], 2)
    est = learn(samples)
    assert est.alpha_hat.coefficients == pytest.approx((0.9, 0.1), abs=1e-6)
    assert est.n_samples == 5
    assert_matches_oracle(est, samples)
    # the solve itself, against exact rationals, on well-conditioned Gram
    # systems of every order the fit is run at
    rng = np.random.default_rng(3)
    for q in (1, 2, 3):
        for _ in range(50):
            H = rng.uniform(-1.0, 1.0, (2 * q + 2, q))
            G = (H.T @ H + REGULARIZER * np.eye(q)).tolist()
            rhs = rng.uniform(-1.0, 1.0, q).tolist()
            exact = exact_solve(G, rhs)
            raw = _ridge_solve(G, rhs, 1).raw
            assert max(abs(x - e) for x, e in zip(raw, exact)) <= 1e-12 * max(map(abs, exact))


def test_fit_handles_degenerate_linear_truth():
    # a pure gamma h style fit with a two-term hypothesis: second weight ~ 0
    truth = AlphaVector((1.7,))
    hs = [0.5, 1.0, 2.0, 4.0, 6.0]
    samples = [BarrierSample(-kappa(truth, h), basis(h, 2), t)
               for t, h in enumerate(hs)]
    est = learn(samples)
    assert est.alpha_hat.coefficients[0] == pytest.approx(1.7, abs=1e-6)
    assert abs(est.alpha_hat.coefficients[1]) <= 1e-6
    assert_matches_oracle(est, samples)


def test_fit_clamps_but_keeps_raw():
    # flipping the sign of the rates drives the raw solution negative
    truth = AlphaVector((0.9, 0.1))
    samples = [BarrierSample(+kappa(truth, h), basis(h, 2), t)
               for t, h in enumerate([1.0, 2.0, 3.5, 5.0])]
    est = learn(samples)
    assert all(a >= 0.0 for a in est.alpha_hat.coefficients)
    assert any(r < 0.0 for r in est.raw)
    assert_matches_oracle(est, samples)


def test_fit_empty_and_mismatched_inputs():
    assert StyleLearner().estimate is None
    # the first sample sets the order; a later sample of another order is
    # rejected
    mixed = [BarrierSample(1.0, basis(2.0, 2), 0), BarrierSample(1.0, basis(3.0, 3), 1)]
    learner = StyleLearner()
    learner.add(mixed[0])
    with pytest.raises(ConfigurationError, match="order 3 does not match the order 2"):
        learner.add(mixed[1])
    # the rejected sample left the learner as it was
    assert len(learner.samples) == len(learner.history) == 1
    assert_matches_oracle(learner.add(mixed[0]), [mixed[0]] * 2)
    with pytest.raises(ConfigurationError, match="order >= 1"):
        StyleLearner().add(BarrierSample(1.0, (), 0))


def test_fit_rank_deficiency_only_without_regularizer():
    # identical clearances give a rank-1 design matrix, which only the
    # learner's ridge term makes solvable
    samples = synthetic_samples(AlphaVector((1.0, 0.2)), [4.0, 4.0, 4.0], 2)
    assert ridge_oracle([(s.hdot_obs, s.basis) for s in samples], 0.0) is None
    est = learn(samples)
    assert np.isfinite(est.alpha_hat.coefficients).all()
    assert_matches_oracle(est, samples)
    # a single sample is rank deficient too; the first sample of every run
    # is one
    assert_matches_oracle(learn(samples[:1]), samples[:1])


def test_fits_at_large_clearances_have_no_zero_pivot_division():
    # From h of a few thousand m^2 the ridge term is below the rounding of
    # the normal matrix's diagonal, and elimination can leave a pivot of
    # exactly 0.0 (867 of the grid's single-sample fits).  That column
    # eliminates nothing and its raw coefficient is 0.0.
    truth = AlphaVector((0.9, 0.1))
    unidentified = 0
    for h in np.geomspace(10.0, 1e7, 4000).tolist():
        est = learn([BarrierSample(-kappa(truth, h), basis(h, 2), 0)])
        assert all(math.isfinite(v) for v in est.raw), h
        unidentified += est.raw[1] == 0.0
    assert unidentified >= 867
    # fits of 1-6 samples of order 1-3 over the same clearances
    rng = np.random.default_rng(7)
    for _ in range(4000):
        q = int(rng.integers(1, 4))
        alpha = AlphaVector(tuple(rng.uniform(0.0, 1.0, q).tolist()))
        hs = (10.0 ** rng.uniform(1.0, 7.0, int(rng.integers(1, 7)))).tolist()
        est = learn(synthetic_samples(alpha, hs, q))
        assert all(math.isfinite(v) for v in est.raw), (alpha, hs)


def test_check_convergence_window_spread():
    def estimate(a):
        return AlphaEstimate(alpha_hat=AlphaVector(a), raw=a, n_samples=1,
                             converged=False)

    # the window is the last 5 estimates, the tolerance 1e-6 per coefficient
    flat = [estimate((1.0, 2.0))] * 5
    assert check_convergence(flat)
    assert not check_convergence(flat[:4])
    within = flat[:4] + [estimate((1.0 + 1e-6, 2.0))]
    assert check_convergence(within)
    drifting = flat[:4] + [estimate((1.0, 2.0 + 2e-6))]
    assert not check_convergence(drifting)
    # an old estimate outside the window does not count
    assert check_convergence([estimate((9.0, 9.0))] + flat)


def test_style_learner_matches_batch_fit():
    rng = np.random.default_rng(2)
    truth = AlphaVector((0.6, 0.35))
    hs = rng.uniform(0.5, 10.0, 12)
    samples = synthetic_samples(truth, hs, 2)
    learner = StyleLearner()
    for k, s in enumerate(samples):
        # the incremental normal equations agree with the oracle's batch
        # solve on every prefix, bit for bit
        assert_matches_oracle(learner.add(s), samples[: k + 1])
    assert learner.estimate.alpha_hat.coefficients == pytest.approx(
        (0.6, 0.35), abs=1e-6)


def test_style_learner_convergence_is_sticky():
    truth = AlphaVector((0.8, 0.05))
    learner = StyleLearner()
    for t, h in enumerate([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]):
        learner.add(BarrierSample(-kappa(truth, h), basis(h, 2), t))
    assert learner.converged
    first = learner.converged_at
    # no earlier than a full window of estimates
    assert first is not None and first >= 5
    learner.add(BarrierSample(-kappa(truth, 8.0), basis(8.0, 2), 99))
    assert learner.converged_at == first
    assert learner.estimate.converged


def test_style_learner_admission_gate():
    learner = StyleLearner()
    # quiescent inputs carry no constraint information: the gate opens
    # strictly above 0.01 in either component
    assert not learner.admits((0.0, 0.0))
    assert not learner.admits((0.01, -0.01))
    assert not learner.admits((0.009, -0.008))
    assert learner.admits((0.011, 0.0))
    assert learner.admits((0.0, -0.011))
    assert learner.admits((1.0, 0.2), obj_u_nominal_est=(1.0, 0.3))
    assert not learner.admits((1.0, 0.2), obj_u_nominal_est=(1.005, 0.195))


# sha256 over the hex of every estimate of the adaptive preset's learner (its
# raw solutions) and of the three-trial prediction run's learners (their
# estimate series), recorded while the fit still called np.linalg.solve, under
# OpenBLAS's Prescott kernels.
FIT_DIGEST = "5f0d635a6f9f4637803742c2e36ca8bac0eae6589d3d7b207773422ec356e92c"


def test_shipped_fits_never_reach_lapack(monkeypatch):
    def no_lapack(*args, **kwargs):
        raise AssertionError("the fit called np.linalg.solve")

    monkeypatch.setattr(np.linalg, "solve", no_lapack)
    preset = cli.load_preset("adaptive")
    rec = run_adaptive_merge(preset["scenario"], preset["settings"])
    summary = experiment_prediction(PredictSettings(trials=3))
    assert log_digest(rec.trial.log) == PINS["adaptive_preset"][0]
    series = [est.raw for est in rec.estimate_history]
    series += [a for trial in summary.trials for a in trial.estimate_series]
    text = "\n".join(" ".join(v.hex() for v in a) for a in series)
    assert hashlib.sha256(text.encode()).hexdigest() == FIT_DIGEST
