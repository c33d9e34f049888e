"""Sampler checks: per-chain randomness, trajectories, distribution recovery."""

import numpy as np
import pytest

from guidefit.denoisers import AnalyticDenoiser, DenoiserTrainConfig, train_neural_denoiser
from guidefit.guidance import ConstantWeight, GuidanceNet, guided_denoise
from guidefit.rng import stream
from guidefit.sampler import SampleConfig, _chain_draws, sample, sample_trajectory
from guidefit.schedule import SCHEDULE, ddim_transition
from mixture_oracles import OracleDenoiser


def test_sample_config_validation_and_grid():
    with pytest.raises(ValueError):
        SampleConfig(steps=0)
    with pytest.raises(ValueError):
        SampleConfig(churn=1.5)
    grid = SampleConfig(steps=4).grid()
    assert grid.shape == (5,)
    assert grid[0] == 0.01
    assert grid[-1] == 0.99


def test_chains_do_not_depend_on_count(exact, mog):
    big = SampleConfig(steps=5, count=5)
    small = SampleConfig(steps=5, count=3)
    fn = ConstantWeight(0.0)
    x5, c5 = sample(big, exact, exact, fn, class_weights=mog.weights, seed=4)
    x3, c3 = sample(small, exact, exact, fn, class_weights=mog.weights, seed=4)
    assert np.array_equal(x5[:3], x3)
    assert np.array_equal(c5[:3], c3)


def test_trajectory_matches_full_run(exact, mog):
    config = SampleConfig(steps=6, count=4, churn=0.5)
    fn = ConstantWeight(0.7)
    x, c = sample(config, exact, exact, fn, class_weights=mog.weights, seed=9)
    x_run, c_run, times, states, omegas = sample_trajectory(
        config, exact, exact, fn, class_weights=mog.weights, seed=9, chain=2)
    assert x_run.tobytes() == x.tobytes() and np.array_equal(c_run, c)
    assert times.shape == (7,)
    assert times[0] == 0.99 and times[-1] == 0.01
    assert states.shape == (7, 2)
    assert np.array_equal(states[-1], x[2])
    assert np.array_equal(omegas, np.full(6, 0.7))


def test_sampler_takes_one_denoiser(exact, mog):
    """uncond keeps its position in sample's arguments but must be cond itself:
    the denoiser answers c = None, so a second denoiser would go unqueried."""
    config = SampleConfig(steps=2, count=3)
    for run in (sample, sample_trajectory):
        with pytest.raises(ValueError, match="uncond"):
            run(config, exact, AnalyticDenoiser(mog), ConstantWeight(0.0),
                class_weights=mog.weights)


def test_neural_trajectory_is_the_sampled_row(mog):
    # the neural teacher rounds a row differently by how many rows share a
    # call, so the trajectory has to come from the full run itself
    den, _ = train_neural_denoiser(mog, DenoiserTrainConfig(iterations=30, seed=1))
    config = SampleConfig(steps=5, count=256)
    fn = ConstantWeight(1.0)
    x, c = sample(config, den, den, fn, class_weights=mog.weights, seed=2)
    for chain in (1, 2, 100, 254, 255):
        x_run, c_run, _, states, _ = sample_trajectory(
            config, den, den, fn, class_weights=mog.weights, seed=2, chain=chain)
        assert x_run.tobytes() == x.tobytes() and np.array_equal(c_run, c)
        assert states[-1].tobytes() == x[chain].tobytes(), chain


def test_degenerate_class_weights(exact, mog):
    config = SampleConfig(steps=3, count=32)
    weights = np.array([0.0, 0.0, 1.0, 0.0])
    _, c = sample(config, exact, exact, ConstantWeight(0.0),
                  class_weights=weights, seed=1)
    assert np.all(c == 2)


def test_unguided_sampler_lands_on_class_means(exact, mog):
    # with the exact denoiser each conditional chain should end near its
    # component; the broad first component gets a wider allowance
    config = SampleConfig(steps=10, count=400)
    x, c = sample(config, exact, exact, ConstantWeight(0.0),
                  class_weights=mog.weights, seed=3)
    assert np.all(np.isfinite(x))
    for cls in range(4):
        got = x[c == cls].mean(axis=0)
        assert np.max(np.abs(got - mog.means[cls])) < 0.5


def test_churn_one_also_recovers_means(exact, mog):
    config = SampleConfig(steps=10, count=300, churn=1.0)
    x, c = sample(config, exact, exact, ConstantWeight(0.0),
                  class_weights=mog.weights, seed=5)
    for cls in range(4):
        got = x[c == cls].mean(axis=0)
        assert np.max(np.abs(got - mog.means[cls])) < 0.6


def _omega0_law(spec, config, cls):
    """Exact mean (d,) and per-coordinate variance of class cls's samples at
    omega = 0 with the analytic teacher. Its conditional denoiser is affine in
    x_t, g_t x_t + h_t mu_c, so each transition N(A x_t + B xhat0, Sigma I) maps
    a Gaussian to a Gaussian: with L = A + B g_t,
    m <- L m + B h_t mu_c and v <- L^2 v + Sigma, from m = 0, v = sigma_top^2."""
    grid = config.grid()
    s2 = spec.variances[cls]
    m, v = np.zeros(spec.dim), SCHEDULE.alpha_sigma(grid[-1])[1] ** 2
    for k in range(config.steps - 1, -1, -1):
        alpha, sigma = SCHEDULE.alpha_sigma(grid[k + 1])
        trans = ddim_transition(grid[k], grid[k + 1], config.churn)
        a, b = trans.mean_coeff_xt, trans.mean_coeff_x0
        denom = alpha**2 * s2 + sigma**2
        lin = a + b * alpha * s2 / denom
        m = lin * m + b * (sigma**2 / denom) * spec.means[cls]
        v = lin**2 * v + trans.cov_scale
    return m, v


@pytest.mark.parametrize("churn", [0.0, 1.0])
def test_unguided_sampler_matches_exact_gaussian_law(exact, mog, churn):
    """At omega = 0 each class's samples are exactly N(m_c, v_c I) (_omega0_law);
    their means and variances lie within 4 SE of it. Ten steps leave a
    discretization error, a variance well below s_c^2, that this pins."""
    config = SampleConfig(steps=10, count=4096, churn=churn)
    x, c = sample(config, exact, exact, ConstantWeight(0.0),
                  class_weights=mog.weights, seed=11)
    for cls in range(mog.n_classes):
        pts = x[c == cls]
        n, d = pts.shape
        m, v = _omega0_law(mog, config, cls)
        assert np.all(np.abs(pts.mean(axis=0) - m) < 4.0 * np.sqrt(v / n)), cls
        var_se = v * np.sqrt(2.0 / (d * (n - 1)))
        assert abs(pts.var(axis=0, ddof=1).mean() - v) < 4.0 * var_se, cls
        # the law is not the data's: the test sees the discretization error
        assert abs(v - mog.variances[cls]) > 4.0 * var_se, cls


def test_seed_changes_samples(exact, mog):
    config = SampleConfig(steps=4, count=8)
    x1, _ = sample(config, exact, exact, ConstantWeight(0.0),
                   class_weights=mog.weights, seed=0)
    x2, _ = sample(config, exact, exact, ConstantWeight(0.0),
                   class_weights=mog.weights, seed=1)
    assert not np.array_equal(x1, x2)


class _CountingWeight:
    """Forwards to a weight function and records the rows of every call."""

    def __init__(self, fn):
        self.fn = fn
        self.rows = []

    def weight(self, s, t, c):
        self.rows.append(np.shape(c))
        return self.fn.weight(s, t, c)


def _per_row_sample(config, denoiser, fn, class_weights, seed):
    """The sampler loop with omega evaluated on every chain's own row."""
    grid = config.grid()
    u, x_init, z = _chain_draws(config.count, config.steps, denoiser.dim, seed)
    c = np.minimum(np.searchsorted(np.cumsum(class_weights), u), denoiser.n_classes - 1)
    x = SCHEDULE.alpha_sigma(grid[-1])[1] * x_init
    for k in range(config.steps - 1, -1, -1):
        s, t = grid[k], grid[k + 1]
        guided, _ = guided_denoise(denoiser, x, t, c, fn.weight(s, t, c))
        trans = ddim_transition(s, t, config.churn)
        x = (trans.mean_coeff_xt * x + trans.mean_coeff_x0 * guided
             + np.sqrt(trans.cov_scale) * z[:, k])
    return x, c


def _test_net(mog):
    return GuidanceNet.create(mog.n_classes, stream(0, "test/sampler_net"), embed_hidden=16,
                              embed_dim=16, trunk_hidden=8, trunk_layers=2, zero_init=False)


def test_net_weight_is_evaluated_once_per_step_and_class(exact, mog):
    net = _test_net(mog)
    config = SampleConfig(steps=5, count=64, churn=0.5)
    counting = _CountingWeight(net)
    x, c = sample(config, exact, exact, counting, class_weights=mog.weights, seed=6)
    assert counting.rows == [(mog.n_classes,)] * config.steps
    # the same chains with omega evaluated row by row: the net's matmuls
    # round differently at 4 rows than at 64, so agreement is to rounding
    want_x, want_c = _per_row_sample(config, exact, net, mog.weights, seed=6)
    assert np.array_equal(c, want_c)
    np.testing.assert_allclose(x, want_x, rtol=1e-12, atol=1e-12)


def test_net_weighted_chains_reproduce_bytewise(exact, mog):
    net = _test_net(mog)
    config = SampleConfig(steps=5, count=24, churn=0.5)
    x, c = sample(config, exact, exact, net, class_weights=mog.weights, seed=8)
    x_few, c_few = sample(SampleConfig(steps=5, count=3, churn=0.5), exact, exact, net,
                          class_weights=mog.weights, seed=8)
    assert x_few.tobytes() == x[:3].tobytes()
    assert np.array_equal(c_few, c[:3])
    grid = config.grid()
    for chain in range(config.count):
        _, c_run, _, states, omegas = sample_trajectory(
            config, exact, exact, net, class_weights=mog.weights, seed=8, chain=chain)
        assert states[-1].tobytes() == x[chain].tobytes()
        cls = c_run[chain]
        assert cls == c[chain]
        per_class = [net.weight(grid[k], grid[k + 1], np.arange(mog.n_classes))[cls]
                     for k in range(config.steps - 1, -1, -1)]
        assert omegas.tobytes() == np.array(per_class).tobytes()


def test_chain_draws_are_kept_read_only_and_do_not_depend_on_count(exact, mog):
    u, x_init, z = _chain_draws(40, 4, 2, 11)
    assert _chain_draws(40, 4, 2, 11)[2] is z  # kept for the next call
    for a in (u, x_init, z):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 1.0
    few = _chain_draws(7, 4, 2, 11)
    for a, b in zip(few, (u, x_init, z)):
        assert a.tobytes() == b[:7].tobytes()
    config = SampleConfig(steps=4, count=40)
    x, c = sample(config, exact, exact, ConstantWeight(1.5), class_weights=mog.weights,
                  seed=11)
    x_few, c_few = sample(SampleConfig(steps=4, count=7), exact, exact, ConstantWeight(1.5),
                          class_weights=mog.weights, seed=11)
    again, _ = sample(config, exact, exact, ConstantWeight(1.5), class_weights=mog.weights,
                      seed=11)
    assert x_few.tobytes() == x[:7].tobytes() and np.array_equal(c_few, c[:7])
    assert again.tobytes() == x.tobytes()


def test_sampler_bytes_match_the_oracle_teacher(exact, mog):
    """4096 chains through the component-first teacher and through the (n, K)
    oracle land on the same bytes, unguided-plus-one and under a learned net."""
    oracle = OracleDenoiser(mog)
    config = SampleConfig(count=4096)
    for weight_fn in (ConstantWeight(1.0), _test_net(mog)):
        x, c = sample(config, exact, exact, weight_fn, class_weights=mog.weights, seed=21)
        want_x, want_c = sample(config, oracle, oracle, weight_fn, class_weights=mog.weights,
                                seed=21)
        assert x.tobytes() == want_x.tobytes()
        assert np.array_equal(c, want_c)
