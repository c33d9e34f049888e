"""Mixture test bed and denoiser checks.

The posterior-mean formula is cross-checked two independent ways: against
self-normalized importance sampling (proposals from the prior, likelihood
weights) and against the score identity
xhat0 = (x_t + sigma_t^2 grad log p_t(x_t)) / alpha_t.
"""

import copy
import dataclasses
import tracemalloc

import numpy as np
import pytest

from guidefit import nn
from guidefit.denoisers import (AnalyticDenoiser, DenoiserTrainConfig, MogSpec, NeuralDenoiser,
                                _logsumexp, mixture_log_density, mixture_score, posterior_mean,
                                train_neural_denoiser)
from guidefit.rng import stream
from guidefit.schedule import LOGSNR_CLIP, SCHEDULE


def is_posterior_mean(spec, x_t, t, c, n, rng):
    """Importance-sampling estimate of E[x0 | x_t, c] with a delta-method SE.

    Proposals come from the prior (component c, or the full mixture when c is
    None), weighted by the forward likelihood N(x_t; alpha_t x0, sigma_t^2 I).
    """
    alpha, sigma = SCHEDULE.alpha_sigma(t)
    if c is None:
        x0, _ = spec.sample_joint(n, rng)
    else:
        x0 = spec.means[c] + np.sqrt(spec.variances[c]) * rng.standard_normal((n, spec.dim))
    log_w = -0.5 * np.sum((x_t - alpha * x0) ** 2, axis=1) / sigma**2
    w = np.exp(log_w - log_w.max())
    w = w / w.sum()
    mean = w @ x0
    se = np.sqrt(np.sum(w[:, None] ** 2 * (x0 - mean) ** 2, axis=0))
    return mean, se


def test_mog_spec_validation():
    with pytest.raises(ValueError):
        MogSpec(means=np.zeros((2, 2)), variances=np.array([1.0]), weights=np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        MogSpec(means=np.zeros((2, 2)), variances=np.array([1.0, -1.0]),
                weights=np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        MogSpec(means=np.zeros((2, 2)), variances=np.array([1.0, 1.0]),
                weights=np.array([0.5, 0.6]))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match=r"means must lie in \(-inf, inf\)"):
            MogSpec(means=np.array([[0.0, bad], [1.0, 1.0]]), variances=np.ones(2),
                    weights=np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="variances must lie in"):
            MogSpec(means=np.zeros((2, 2)), variances=np.array([1.0, bad]),
                    weights=np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match=r"means must be a \(K, d\) matrix, got shape \(1, 1, 2\)"):
        MogSpec(means=[[[1.0, 2.0]]], variances=[1.0], weights=[1.0])


def test_default_mixture_layout(mog):
    assert mog.n_classes == 4
    assert mog.dim == 2
    assert mog.variances[0] == 5.0
    assert np.all(np.abs(mog.means) == 10.0)


def test_sample_joint_class_frequencies(mog):
    n = 20_000
    _, c = mog.sample_joint(n, stream(0, "test/joint"))
    freq = np.bincount(c, minlength=4) / n
    tol = 4.0 * np.sqrt(0.25 * 0.75 / n)
    assert np.max(np.abs(freq - 0.25)) < tol


def test_mixture_log_density_matches_direct_sum(mog):
    x = stream(2, "test/dens").uniform(-12.0, 12.0, size=(20, 2))
    direct = np.zeros(20)
    for k in range(4):
        var = mog.variances[k]
        sq = np.sum((x - mog.means[k]) ** 2, axis=1)
        direct += mog.weights[k] * np.exp(-0.5 * sq / var) / (2.0 * np.pi * var)
    assert np.allclose(mixture_log_density(mog, x), np.log(direct), atol=1e-10)


def test_mixture_score_matches_finite_differences(mog):
    x = stream(3, "test/score").uniform(-12.0, 12.0, size=(10, 2))
    for t in (0.0, 0.4, 0.8):
        score = mixture_score(mog, x, t)
        h = 1e-6
        for j in range(2):
            xp = x.copy()
            xp[:, j] += h
            xm = x.copy()
            xm[:, j] -= h
            fd = (mixture_log_density(mog, xp, t) - mixture_log_density(mog, xm, t)) / (2.0 * h)
            assert np.max(np.abs(score[:, j] - fd)) < 1e-6


def test_posterior_mean_matches_importance_sampling(mog):
    rng = stream(4, "test/is")
    for trial in range(2):
        x0, c = mog.sample_joint(1, rng)
        t = rng.uniform(0.45, 0.9)
        x_t = (1.0 - t) * x0[0] + t * rng.standard_normal(2)
        for cond in (int(c[0]), None):
            est, se = is_posterior_mean(mog, x_t, t, cond, 200_000, rng)
            exact = posterior_mean(mog, x_t, t, cond)
            assert np.all(np.abs(est - exact) < 4.0 * se + 1e-12)


def test_posterior_mean_score_identity(mog):
    # xhat0 = (x + sigma^2 score) / alpha on a grid of points and times
    grid = np.linspace(-14.0, 14.0, 7)
    x = np.stack(np.meshgrid(grid, grid), axis=-1).reshape(-1, 2)
    for t in (0.1, 0.3, 0.5, 0.7, 0.9):
        alpha, sigma = SCHEDULE.alpha_sigma(t)
        tweedie = (x + sigma**2 * mixture_score(mog, x, t)) / alpha
        assert np.max(np.abs(posterior_mean(mog, x, t) - tweedie)) < 1e-8


def test_posterior_mean_single_point_and_scalar_class(mog):
    x = np.array([3.0, -2.0])
    out = posterior_mean(mog, x, 0.6, 2)
    assert out.shape == (2,)
    batch = posterior_mean(mog, x[None], 0.6, np.array([2]))
    assert np.array_equal(out, batch[0])


def test_both_teachers_reject_out_of_range_labels(mog):
    neural, _ = train_neural_denoiser(mog, DenoiserTrainConfig(iterations=0, seed=4))
    k = mog.n_classes
    teachers = {"posterior_mean": lambda x, c: posterior_mean(mog, x, 0.6, c),
                "analytic": lambda x, c: AnalyticDenoiser(mog).denoise(x, 0.6, c),
                "neural": lambda x, c: neural.denoise(x, 0.6, c)}
    x = np.zeros((3, 2))
    for name, denoise in teachers.items():
        for c in (-1, k, np.array([0, k, 1])):
            with pytest.raises(ValueError, match="class label out of range"):
                denoise(x, c)
        assert denoise(x, np.array([0, k - 1, 1])).shape == (3, 2), name


def test_neural_denoiser_rejects_an_odd_or_negative_time_embed_dim():
    for ted in (3, -2):
        with pytest.raises(ValueError, match=f"time_embed_dim must be even and non-negative, "
                                             f"got {ted}"):
            NeuralDenoiser(nn.Mlp([2 + ted + 4, 8, 2]), 4, ted)


def test_posterior_mean_collapses_to_data_at_small_noise(mog):
    # at t -> 0 the conditional posterior mean approaches x_t itself
    x0, c = mog.sample_joint(20, stream(5, "test/small_t"))
    out = posterior_mean(mog, x0, 1e-6, c)
    assert np.max(np.abs(out - x0)) < 1e-3


def test_denoiser_train_config_validation():
    with pytest.raises(ValueError):
        DenoiserTrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        DenoiserTrainConfig(cond_dropout=1.5)
    for bad in ({"hidden": 0}, {"layers": -1}, {"learning_rate": float("nan")},
                {"time_embed_dim": -2}, {"seed": -1}):
        with pytest.raises(ValueError, match=next(iter(bad))):
            DenoiserTrainConfig(**bad)
    with pytest.raises(TypeError, match="time_clamp"):  # training times span [ZETA, 1 - ZETA]
        DenoiserTrainConfig(time_clamp=0.01)


def test_neural_denoiser_training_reduces_loss(mog):
    model, losses = train_neural_denoiser(
        mog, DenoiserTrainConfig(iterations=120, batch_size=64, learning_rate=1e-3, seed=0))
    assert losses.shape == (120,)
    assert losses[-10:].mean() < losses[:10].mean()
    out = model.denoise(np.zeros((3, 2)), 0.5, np.array([0, 1, 2]))
    assert out.shape == (3, 2)
    assert np.all(np.isfinite(out))
    single = model.denoise(np.zeros(2), 0.5, 1)
    assert single.shape == (2,)


def test_neural_denoiser_training_is_deterministic(mog):
    config = DenoiserTrainConfig(iterations=20, batch_size=32, seed=5)
    m1, l1 = train_neural_denoiser(mog, config)
    m2, l2 = train_neural_denoiser(mog, config)
    assert np.array_equal(l1, l2)
    assert np.array_equal(m1.net.params, m2.net.params)


def _gelu(h):
    """Tanh-form GeLU written out, in nn.gelu's order of operations, with its
    constants in h's dtype."""
    c = np.sqrt(2.0 / np.pi)
    ck, c = h.dtype.type(c * 0.044715), h.dtype.type(c)
    return 0.5 * h * (1.0 + np.tanh((h * h * ck + c) * h))


def _prebreak_denoise(den, x_t, t, c=None):
    """NeuralDenoiser.denoise before its first layer was split: one embedding
    row per input row, concatenated features, out-of-place bias add and GeLU."""
    x_t = np.asarray(x_t, dtype=float)
    single = x_t.ndim == 1
    x = np.atleast_2d(x_t)
    snr = np.clip(SCHEDULE.logsnr(t), -LOGSNR_CLIP, LOGSNR_CLIP)
    snr = np.broadcast_to(np.asarray(snr, dtype=float), (x.shape[0],))
    emb = nn.sinusoidal_embedding(snr, den.time_embed_dim)
    h = np.concatenate([x, emb, nn.class_onehot(c, den.n_classes, n=x.shape[0])], axis=1)
    last = len(den.net.weights) - 1
    for i, (w, b) in enumerate(zip(den.net.weights, den.net.biases)):
        h = h @ w.T + b
        if i < last:
            h = _gelu(h)
    return h[0] if single else h


def _oracle_denoise(den, x_t, t, c=None, dtype=np.float32):
    """NeuralDenoiser.denoise written out: layer 0 in float64 as x W_x^T, plus the
    time term emb W_e^T + b0 of each row's run of equal t (runs found by walking
    the rows), plus the class column; then, in dtype on weights cast from
    den.net.params, out-of-place GeLU layers; the output in float64."""
    x_t = np.asarray(x_t, dtype=float)
    single = x_t.ndim == 1
    x = np.atleast_2d(x_t)
    n, d = x.shape
    width = den.time_embed_dim
    w0 = den.net.weights[0]
    run_times, run_of_row = [], []
    for ti in np.broadcast_to(np.asarray(t, dtype=float), (n,)):
        if not run_times or ti != run_times[-1]:
            run_times.append(ti)
        run_of_row.append(len(run_times) - 1)
    snr = np.clip(SCHEDULE.logsnr(np.array(run_times)), -LOGSNR_CLIP, LOGSNR_CLIP)
    time_term = nn.sinusoidal_embedding(snr, width) @ w0[:, d:d + width].T + den.net.biases[0]
    h = x @ w0[:, :d].T + time_term[run_of_row]
    if c is not None:
        h = h + w0[:, d + width:].T[np.broadcast_to(c, (n,))]
    h = _gelu(h.astype(dtype))
    last = len(den.net.weights) - 1
    for i in range(1, last + 1):
        h = h @ den.net.weights[i].astype(dtype).T + den.net.biases[i].astype(dtype)
        if i < last:
            h = _gelu(h)
    h = h.astype(np.float64)
    return h[0] if single else h


def _denoise_cases(mog):
    rng = stream(9, "test/denoise_bytes")
    n = 640
    x = rng.standard_normal((n, 2)) * 6.0
    c = rng.integers(0, mog.n_classes, n)
    few = rng.uniform(0.01, 0.99, 5)
    times = {"runs": np.repeat(rng.uniform(0.01, 0.99, n // 32), 32),
             "unsorted repeats": few[rng.integers(0, 5, n)],
             "all distinct": rng.uniform(0.01, 0.99, n),
             "boundaries": np.repeat([0.0, 1e-9, 0.5, 1.0], n // 4),
             "scalar": 0.37}
    cases = [(name, x, t, cls) for name, t in times.items() for cls in (c, None, 2)]
    return cases + [("single point", x[0], 0.6, 1),
                    ("single row", x[:1], times["all distinct"][:1], c[:1])]


def test_neural_denoiser_bytes_match_split_layer_oracle(mog):
    # layer 0 in float64, the hidden layers and the head in float32
    den, _ = train_neural_denoiser(mog, DenoiserTrainConfig(iterations=3, seed=4))
    for name, x, t, cls in _denoise_cases(mog):
        got = den.denoise(x, t, cls)
        assert got.tobytes() == _oracle_denoise(den, x, t, cls).tobytes(), name


def test_neural_denoiser_matches_per_row_embedding_form(mog):
    # the float64 form before layer 0 was split, up to float32 rounding: the
    # largest difference over these cases is 7.5e-7 of the largest output
    den, _ = train_neural_denoiser(mog, DenoiserTrainConfig(iterations=3, seed=4))
    for name, x, t, cls in _denoise_cases(mog):
        want = _prebreak_denoise(den, x, t, cls)
        np.testing.assert_allclose(den.denoise(x, t, cls), want, rtol=1e-5,
                                   atol=1e-5 * np.max(np.abs(want)), err_msg=name)


def test_neural_denoiser_follows_its_live_params(mog):
    """The model train_neural_denoiser returns, used without a checkpoint round
    trip, denoises with its trained weights, and again after they change in
    place: the float32 weights are cast on every call, not kept."""
    config = DenoiserTrainConfig(iterations=30, learning_rate=1e-3, seed=4)
    den, _ = train_neural_denoiser(mog, config)
    initial, _ = train_neural_denoiser(mog, dataclasses.replace(config, iterations=0))
    rng = stream(12, "test/denoise_live")
    x = rng.standard_normal((512, 2)) * 6.0
    t = rng.uniform(0.01, 0.99, 512)
    c = rng.integers(0, mog.n_classes, 512)
    stale = initial  # what a copy made at construction would denoise with
    for step in range(2):
        got = den.denoise(x, t, c)
        want = _oracle_denoise(den, x, t, c, dtype=np.float64)
        tol = 1e-5 * np.max(np.abs(want))
        assert np.max(np.abs(got - want)) < tol, step
        assert np.max(np.abs(stale.denoise(x, t, c) - want)) > 1e3 * tol, step
        stale = copy.deepcopy(den)  # what a copy made at the first call would hold
        den.net.params *= 0.5


def test_neural_denoiser_returns_float64(mog):
    den, _ = train_neural_denoiser(mog, DenoiserTrainConfig(iterations=3, seed=4))
    x = np.zeros((3, 2), dtype=np.float32)
    for out in (den.denoise(x, 0.5, np.array([0, 1, 2])), den.denoise(x, 0.5),
                den.denoise(x[0], 0.5, 1)):
        assert out.dtype == np.float64


def test_neural_denoiser_keeps_no_tape(mog):
    # A training-step teacher call: 128 items x 32 particles, t repeated per
    # item; then the same rows with every t distinct. With the forward's tape
    # kept the first peaks at 23 MB; before layer 0 was split, 8.9 and 13.0 MB.
    den, _ = train_neural_denoiser(mog, DenoiserTrainConfig(iterations=0, seed=4))
    rng = stream(10, "test/denoise_peak")
    x = rng.standard_normal((4096, 2)) * 6.0
    c = rng.integers(0, mog.n_classes, 4096)
    for t, limit in ((np.repeat(rng.uniform(0.01, 0.99, 128), 32), 6.9e6),
                     (rng.uniform(0.01, 0.99, 4096), 11.6e6)):
        tracemalloc.start()
        try:
            den.denoise(x, t, c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit


def _oracle_stats(spec, t):
    """The earlier per-function rebuild of the noised component stats."""
    alpha, sigma = SCHEDULE.alpha_sigma(t)
    alpha = np.asarray(alpha, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    means = np.expand_dims(alpha, (-2, -1)) * spec.means
    var = np.expand_dims(alpha**2, -1) * spec.variances + np.expand_dims(sigma**2, -1)
    return means, var


def _oracle_log_joint(spec, x, t):
    comp_means, comp_var = _oracle_stats(spec, t)
    if comp_means.ndim == 2:
        comp_means = comp_means[None]
    if comp_var.ndim == 1:
        comp_var = comp_var[None]
    diff = x[:, None, :] - comp_means
    sq = np.sum(diff * diff, axis=-1)
    log_joint = (np.log(spec.weights) - 0.5 * sq / comp_var
                 - 0.5 * spec.dim * np.log(2.0 * np.pi * comp_var))
    return log_joint, comp_means, comp_var


def _oracle_log_responsibilities(spec, x, t):
    from scipy.special import logsumexp

    x = np.atleast_2d(np.asarray(x, dtype=float))
    log_joint, _, _ = _oracle_log_joint(spec, x, t)
    return log_joint - logsumexp(log_joint, axis=-1, keepdims=True)


def _oracle_mixture_log_density(spec, x, t):
    from scipy.special import logsumexp

    x = np.atleast_2d(np.asarray(x, dtype=float))
    log_joint, _, _ = _oracle_log_joint(spec, x, t)
    return logsumexp(log_joint, axis=-1)


def _oracle_mixture_score(spec, x, t):
    x = np.atleast_2d(np.asarray(x, dtype=float))
    resp = np.exp(_oracle_log_responsibilities(spec, x, t))
    _, comp_means, comp_var = _oracle_log_joint(spec, x, t)
    pull = (comp_means - x[:, None, :]) / comp_var[..., None]
    return np.sum(resp[..., None] * pull, axis=1)


def _oracle_posterior_mean(spec, x_t, t, c=None):
    x_t = np.asarray(x_t, dtype=float)
    single = x_t.ndim == 1
    x = np.atleast_2d(x_t)
    alpha, sigma = SCHEDULE.alpha_sigma(t)
    alpha = np.asarray(alpha, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    comp_var = np.expand_dims(alpha**2, -1) * spec.variances + np.expand_dims(sigma**2, -1)
    if comp_var.ndim == 1:
        comp_var = comp_var[None]
    num = (np.expand_dims(sigma**2, (-2, -1)) * spec.means
           + np.expand_dims(alpha, (-2, -1)) * spec.variances[:, None] * x[:, None, :])
    comp_post = num / comp_var[..., None]
    if c is None:
        resp = np.exp(_oracle_log_responsibilities(spec, x, t))
        out = np.sum(resp[..., None] * comp_post, axis=1)
    else:
        c = np.asarray(c)
        if c.ndim == 0:
            c = np.full(x.shape[0], int(c))
        out = comp_post[np.arange(x.shape[0]), c]
    return out[0] if single else out


def _same(got, want):
    return got.shape == want.shape and np.array_equal(got, want) and \
        got.tobytes() == want.tobytes()


def test_mixture_functions_bytes_match_per_function_oracle(mog):
    """One shared log-joint gives the bytes each function computed on its own."""
    rng = stream(11, "test/mixture_bytes")
    n = 257
    x = rng.standard_normal((n, 2)) * 8.0
    c = rng.integers(0, mog.n_classes, n)
    times = {"scalar": 0.43, "per row": rng.uniform(0.01, 0.99, n), "zero": 0.0,
             "zero per row": np.zeros(n)}
    for name, t in times.items():
        for pts in (x, x[3]):
            tt = t if np.ndim(t) == 0 or pts.ndim == 2 else t[3]
            assert _same(mixture_log_density(mog, pts, tt),
                         _oracle_mixture_log_density(mog, pts, tt)), name
            assert _same(mixture_score(mog, pts, tt),
                         _oracle_mixture_score(mog, pts, tt)), name
            for cls in (None, 2, c if pts.ndim == 2 else c[3]):
                assert _same(posterior_mean(mog, pts, tt, cls),
                             _oracle_posterior_mean(mog, pts, tt, cls)), (name, cls)
    den = AnalyticDenoiser(mog)
    assert _same(den.denoise(x, times["per row"], None),
                 _oracle_posterior_mean(mog, x, times["per row"], None))


def test_logsumexp_bytes_match_scipy():
    """The package's log-sum-exp is scipy's, byte for byte and NaN for NaN, on
    finite rows at every scale, tied maxima, -inf, +inf and NaN entries."""
    from scipy.special import logsumexp

    rng = stream(12, "test/logsumexp")
    inf, nan = np.inf, np.nan
    rows = [rng.standard_normal((64, 4)) * scale for scale in (1e-3, 1e-1, 1.0, 1e1, 1e3)]
    rows.append(np.array([[2.5, 2.5, -1.0, 0.3], [-7.0, 0.1, -7.0, 0.1],
                          [3.0, 3.0, 3.0, 3.0], [-1e3, -1e3, -1e3, -1e3]]))
    rows.append(np.array([[-inf, 0.2, -1.5, 4.0], [-inf, -inf, -inf, -inf],
                          [inf, 0.2, -1.5, 4.0], [inf, inf, -inf, 1.0],
                          [nan, 0.2, -1.5, 4.0], [nan, -inf, inf, 1.0]]))
    mixture = rng.standard_normal((32, 4)) * 30.0
    mixture[:, 1] = -inf  # a component of zero weight
    rows.append(mixture)
    for a in rows:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            want = logsumexp(a, axis=-1, keepdims=True)
        got = _logsumexp(a)
        np.testing.assert_array_equal(got, want)
        assert got.tobytes() == want.tobytes()
