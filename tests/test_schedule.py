"""Schedule and reverse-transition checks.

The frozen coefficient values at (s, t) = (0.5, 0.8) are worked out by hand
from the consistency conditions A alpha_t + B = alpha_s and
A^2 sigma_t^2 + Sigma = sigma_s^2; everything else is identity or Monte
Carlo verification against those conditions.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guidefit.rng import stream
from guidefit.schedule import SCHEDULE, ddim_transition, noise_sample


def test_alpha_sigma_endpoints_exact():
    alpha, sigma = SCHEDULE.alpha_sigma(np.array([0.0, 0.25, 1.0]))
    assert alpha.tolist() == [1.0, 0.75, 0.0]
    assert sigma.tolist() == [0.0, 0.25, 1.0]


def test_logsnr_matches_definition():
    t = np.array([0.2, 0.5, 0.9])
    expected = 2.0 * (np.log(1.0 - t) - np.log(t))
    assert np.allclose(SCHEDULE.logsnr(t), expected, rtol=0.0, atol=1e-15)
    assert SCHEDULE.logsnr(0.0) == np.inf
    assert SCHEDULE.logsnr(1.0) == -np.inf


def test_noise_sample_replay():
    x0 = stream(0, "test/x0").standard_normal((5, 2))
    x1, eps = noise_sample(x0, 0.4, stream(1, "test/noise"))
    x2, _ = noise_sample(x0, 0.4, noise=eps)
    assert np.array_equal(x1, x2)
    assert np.allclose(x1, 0.6 * x0 + 0.4 * eps, atol=1e-15)


def test_transition_coefficients_frozen_values():
    det = ddim_transition(0.5, 0.8, churn=0.0)
    assert float(det.mean_coeff_xt) == pytest.approx(0.625, abs=1e-15)
    assert float(det.mean_coeff_x0) == pytest.approx(0.375, abs=1e-15)
    assert float(det.cov_scale) == 0.0
    anc = ddim_transition(0.5, 0.8, churn=1.0)
    assert float(anc.mean_coeff_xt) == pytest.approx(0.15625, abs=1e-15)
    assert float(anc.mean_coeff_x0) == pytest.approx(0.46875, abs=1e-15)
    assert float(anc.cov_scale) == pytest.approx(0.234375, abs=1e-15)


def test_consistency_identities_random_pairs():
    rng = stream(0, "test/schedule")
    s = rng.uniform(0.05, 0.85, size=200)
    t = s + rng.uniform(0.02, 0.95 - s)
    alpha_s, sigma_s = SCHEDULE.alpha_sigma(s)
    alpha_t, sigma_t = SCHEDULE.alpha_sigma(t)
    for churn in (0.0, 0.3, 0.7, 1.0):
        trans = ddim_transition(s, t, churn)
        mean_res = trans.mean_coeff_xt * alpha_t + trans.mean_coeff_x0 - alpha_s
        var_res = trans.mean_coeff_xt**2 * sigma_t**2 + trans.cov_scale - sigma_s**2
        assert np.max(np.abs(mean_res)) < 1e-12
        assert np.max(np.abs(var_res)) < 1e-12


@settings(max_examples=300, deadline=None)
@given(u=st.floats(0.0, 1.0), v=st.floats(0.0, 1.0), churn=st.floats(0.0, 1.0))
def test_consistency_identities_property(u, v, churn):
    """For every 0 <= s < t <= 1 and churn: both consistency identities and Sigma >= 0."""
    s, t = min(u, v), max(u, v)
    if s == t:
        with pytest.raises(ValueError):
            ddim_transition(s, t, churn)
        return
    alpha_s, sigma_s = SCHEDULE.alpha_sigma(s)
    alpha_t, sigma_t = SCHEDULE.alpha_sigma(t)
    trans = ddim_transition(s, t, churn)
    a, b, var = trans.mean_coeff_xt, trans.mean_coeff_x0, trans.cov_scale
    assert abs(a * alpha_t + b - alpha_s) <= 1e-12
    assert abs(a**2 * sigma_t**2 + var - sigma_s**2) <= 1e-12
    assert var >= 0.0


def test_transition_validation():
    with pytest.raises(ValueError):
        ddim_transition(0.5, 0.8, churn=1.5)
    with pytest.raises(ValueError):
        ddim_transition(0.8, 0.5, churn=0.0)
    with pytest.raises(ValueError):
        ddim_transition(np.array([0.2, 0.6]), np.array([0.5, 0.5]), churn=0.0)


def test_transition_sample_replay():
    trans = ddim_transition(0.3, 0.7, churn=0.5)
    x0 = stream(2, "test/x0").standard_normal((6, 2))
    x_t, _ = noise_sample(x0, 0.7, stream(3, "test/xt"))
    xs1, eps = trans.sample(x0, x_t, stream(4, "test/trans"))
    xs2, _ = trans.sample(x0, x_t, noise=eps)
    assert np.array_equal(xs1, xs2)


def test_composed_marginal_single_pair_monte_carlo():
    # light version of the full 9-combination acceptance check
    s, t, churn = 0.3, 0.7, 0.5
    x0 = np.array([1.5, -0.7])
    k = 50_000
    rng = stream(5, "test/marginal")
    x_t, _ = noise_sample(np.broadcast_to(x0, (k, 2)), t, rng)
    trans = ddim_transition(s, t, churn)
    x_s, _ = trans.sample(x0, x_t, rng)
    alpha_s, sigma_s = SCHEDULE.alpha_sigma(s)
    mean_tol = 4.0 * sigma_s / np.sqrt(k)
    var_tol = 4.0 * sigma_s**2 * np.sqrt(2.0 / (k - 1))
    assert np.max(np.abs(x_s.mean(axis=0) - alpha_s * x0)) < mean_tol
    assert np.max(np.abs(x_s.var(axis=0, ddof=1) - sigma_s**2)) < var_tol
