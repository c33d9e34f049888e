"""Gaussian-mixture test bed and the denoisers defined on it.

A denoiser estimates E[x0 | x_t, c] (or E[x0 | x_t] when c is None). Two
implementations share that interface:

  * AnalyticDenoiser: the exact posterior mean of an isotropic Gaussian
    mixture under the forward process, conditional or marginal.
  * NeuralDenoiser: a small MLP trained by denoising score matching with
    conditioning dropout, so one net serves both conditional and
    unconditional queries.

The mixture arithmetic runs component-first, on (K, n) and (K, d, n) arrays
with one row of n points per component and coordinate, so each sum over the
K components or d coordinates is elementwise over rows of n, not a numpy
reduction of a trailing axis of 2 or 4 entries, one short call per point.
numpy sums fewer than 8 entries left to right from 0.0, so below 8 components
and coordinates the results keep the component-last bytes; from 8 on numpy
sums in pairwise blocks, and the two agree to rounding.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass

import numpy as np

from . import nn
from .domains import check_fields, within
from .rng import stream
from .schedule import SCHEDULE, ZETA, logsnr_feature, noise_sample


@dataclass(frozen=True)
class MogSpec:
    """Isotropic Gaussian mixture: p0(x) = sum_c weights[c] N(x; means[c], variances[c] I)."""

    means: np.ndarray = within(MISSING, -np.inf, np.inf, "()")   # (K, d)
    variances: np.ndarray = within(MISSING, 0.0, np.inf, "()")   # (K,)
    weights: np.ndarray = within(MISSING, 0.0)                   # (K,), sums to 1

    def __post_init__(self):
        means = np.atleast_2d(np.asarray(self.means, dtype=float))
        variances = np.asarray(self.variances, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "variances", variances)
        object.__setattr__(self, "weights", weights)
        if means.ndim != 2:
            raise ValueError(f"means must be a (K, d) matrix, got shape {means.shape}")
        k = means.shape[0]
        if variances.shape != (k,) or weights.shape != (k,):
            raise ValueError("means, variances, weights must agree on component count")
        check_fields(self)
        # Generator.choice, which draws the classes, allows a sum this far from 1
        if not abs(weights.sum() - 1.0) <= np.sqrt(np.finfo(float).eps):
            raise ValueError(f"weights must sum to 1, got {weights.tolist()}")

    @classmethod
    def default_2d(cls) -> "MogSpec":
        """Four well-separated components; the first is broader than the rest."""
        means = np.array([[10.0, 10.0], [-10.0, 10.0], [10.0, -10.0], [-10.0, -10.0]])
        return cls(means=means, variances=np.array([5.0, 1.0, 1.0, 1.0]),
                   weights=np.full(4, 0.25))

    @property
    def n_classes(self) -> int:
        return self.means.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def sample_joint(self, n: int, rng):
        """Draw (x0, c) with c ~ weights and x0 | c ~ N(means[c], variances[c] I)."""
        c = rng.choice(self.n_classes, size=n, p=self.weights)
        x0 = self.means[c] + np.sqrt(self.variances[c])[:, None] * rng.standard_normal((n, self.dim))
        return x0, c


def _noised_components(spec: MogSpec, t):
    """(alpha_t, sigma_t, component means alpha_t mu_c, variances alpha_t^2 s_c^2 + sigma_t^2),
    component axis first.

    alpha_t and sigma_t have shape (m,), the means (K, d, m) and the variances
    (K, m): m is 1 for a scalar t and n for an (n,) t, one per point.
    """
    alpha, sigma = SCHEDULE.alpha_sigma(np.atleast_1d(t))
    means = spec.means[..., None] * alpha
    var = spec.variances[:, None] * alpha**2 + sigma**2
    return alpha, sigma, means, var


def _log_joint(spec: MogSpec, x_cols, means, var):
    """log(w_c N(x; means_c, var_c I)) per component and point, shape (K, n), at
    points given by coordinate, x_cols (d, n). A point past the square root of
    the float range squares to inf, so its log-joint is -inf."""
    with np.errstate(over="ignore"):
        diff = x_cols - means
        sq = np.sum(diff * diff, axis=1)
    with np.errstate(divide="ignore"):  # a zero weight's log prior is -inf
        log_w = np.log(spec.weights)[:, None]
    return log_w - 0.5 * sq / var - 0.5 * spec.dim * np.log(2.0 * np.pi * var)


def _logsumexp(a):
    """log(sum(exp(a))) over the leading axis, shape a.shape[1:].

    scipy.special.logsumexp's steps for real input, so its bytes are scipy's:
    log1p(rest / m) + log(m) + max, rest the shifted sum without the m entries
    at the column's max; log(sum(exp(a))) where that is not finite.
    """
    a_max = np.max(a, axis=0)
    at_max = a == a_max
    m = np.sum(at_max, axis=0, dtype=a.dtype)
    with np.errstate(divide="ignore", invalid="ignore"):
        rest = np.sum(np.exp(np.where(at_max, -np.inf, a) - a_max), axis=0)
        rest = np.where(rest == 0, rest, rest / m)
        out = np.log1p(rest) + np.log(m) + a_max
    bad = ~np.isfinite(out)
    if bad.any():
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            out[bad] = np.log(np.sum(np.exp(a[:, bad]), axis=0))
    return out


def _responsibilities(log_joint, log_density):
    """p(c | x), shape (K, n): exp of the (K, n) log-joint less its log-sum-exp
    log_density (n,); NaN at a point whose every log-joint is -inf."""
    with np.errstate(invalid="ignore"):
        return np.exp(log_joint - log_density)


def _columns(x):
    """Points x (n, d) as C-ordered float coordinate rows (d, n)."""
    return np.ascontiguousarray(np.asarray(x, dtype=float).T)


def _points(cols):
    """Coordinate rows cols (d, n) as C-ordered points (n, d)."""
    return np.ascontiguousarray(cols.T)


def mixture_log_density(spec: MogSpec, x, t=0.0):
    """log p_t(x) of the noised mixture at points x (n, d), shape (n,); t = 0 gives
    the data density."""
    _, _, means, var = _noised_components(spec, t)
    return _logsumexp(_log_joint(spec, _columns(x), means, var))


def mixture_score(spec: MogSpec, x, t=0.0):
    """grad_x log p_t(x) at points x (n, d), shape (n, d): responsibility-weighted
    pull toward the noised means."""
    return mixture_log_density_and_score(spec, x, t)[1]


def mixture_log_density_and_score(spec: MogSpec, x, t=0.0):
    """(mixture_log_density, mixture_score) at points x (n, d), from one log-joint
    and its one log-sum-exp: the same bytes as the two functions."""
    _, _, means, var = _noised_components(spec, t)
    x_cols = _columns(x)
    log_joint = _log_joint(spec, x_cols, means, var)
    density = _logsumexp(log_joint)
    resp = _responsibilities(log_joint, density)  # (K, n)
    pull = (means - x_cols) / var[:, None]        # (K, d, n)
    return density, _points(np.sum(resp[:, None] * pull, axis=0))


def posterior_mean(spec: MogSpec, x_t, t, c=None):
    """E[x0 | x_t, c] in closed form; c = None marginalizes over components.

    Per component, the posterior is the Gaussian product
        m_c = (sigma_t^2 mu_c + alpha_t s_c^2 x_t) / (alpha_t^2 s_c^2 + sigma_t^2);
    at c each point takes its own component's m_c, and the marginal mean
    mixes the m_c with the responsibilities p(c | x_t).

    Args:
        x_t: points of shape (n, d).
        t: scalar or (n,) array.
        c: None, or an int array of labels in [0, K), shape (n,).

    Returns:
        array of shape (n, d).
    """
    x_cols = _columns(x_t)
    if c is not None:
        c = nn.class_labels(c, spec.n_classes)
        alpha, sigma = SCHEDULE.alpha_sigma(np.atleast_1d(t))
        s = np.take(spec.variances, c)
        num = sigma**2 * np.take(spec.means.T, c, axis=1) + (alpha * s) * x_cols
        return _points(num / (alpha**2 * s + sigma**2))
    alpha, sigma, means, var = _noised_components(spec, t)
    log_joint = _log_joint(spec, x_cols, means, var)
    resp = _responsibilities(log_joint, _logsumexp(log_joint))  # (K, n)
    num = sigma**2 * spec.means[..., None] + (alpha * spec.variances[:, None])[:, None] * x_cols
    return _points(np.sum(resp[:, None] * (num / var[:, None]), axis=0))


class AnalyticDenoiser:
    """Exact posterior-mean denoiser of a Gaussian mixture."""

    def __init__(self, spec: MogSpec):
        self.spec = spec

    @property
    def n_classes(self) -> int:
        return self.spec.n_classes

    @property
    def dim(self) -> int:
        return self.spec.dim

    def denoise(self, x_t, t, c=None):
        return posterior_mean(self.spec, x_t, t, c)


class NeuralDenoiser:
    """MLP denoiser: input [x_t, sinusoidal(logSNR t), one-hot c], output xhat0.

    The null token is the all-zeros one-hot row, so the same net answers
    conditional and unconditional queries.
    """

    def __init__(self, net: nn.Mlp, n_classes: int, time_embed_dim: int = 128):
        if time_embed_dim < 0 or time_embed_dim % 2:
            raise ValueError(f"time_embed_dim must be even and non-negative, got {time_embed_dim}")
        if net.sizes[0] != net.sizes[-1] + time_embed_dim + n_classes:
            raise ValueError(f"layer sizes do not fit: net input {net.sizes[0]} != output "
                             f"{net.sizes[-1]} + time_embed_dim {time_embed_dim} "
                             f"+ n_classes {n_classes}")
        self.net = net
        self.n_classes = n_classes
        self.time_embed_dim = time_embed_dim

    @property
    def dim(self) -> int:
        return self.net.sizes[-1]

    def _embedding(self, t):
        """sinusoidal(clipped logSNR t), one row per entry of t."""
        return nn.sinusoidal_embedding(logsnr_feature(t), self.time_embed_dim)

    def _features(self, x, t, onehot):
        """Rows [x, time embedding, onehot]: the net's input in pretraining, where t
        is drawn per row."""
        return np.concatenate([x, self._embedding(t), onehot], axis=1)

    def _layer0(self, x, t, c):
        """Layer 0's pre-activation at rows [x, time embedding, one-hot c], split by
        its weight columns [x | embedding | class]: x W_x^T on every row, plus
        emb W_e^T + b0 once per run of equal t (build_particles repeats each
        item's t over its particles, the sampler passes one t for all chains),
        plus the class column gathered per row (none for the null token)."""
        n, d = x.shape
        w_x, w_e, w_c = np.split(self.net.weights[0], [d, d + self.time_embed_dim], axis=1)
        t = np.broadcast_to(np.asarray(t, dtype=float), (n,))
        starts = np.flatnonzero(np.concatenate([[True], t[1:] != t[:-1]])[:n])
        shared = self._embedding(t[starts]) @ w_e.T
        shared += self.net.biases[0]
        pre0 = x @ w_x.T
        pre0 += np.repeat(shared, np.diff(starts, append=n), axis=0)
        if c is not None:
            pre0 += w_c.T[nn.class_labels(c, self.n_classes)]
        return pre0

    def denoise(self, x_t, t, c=None):
        """xhat0 (n, d) at points x_t (n, d), t a scalar or (n,) and c None or
        labels (n,), in float64. Layer 0 is built in float64; the hidden layers
        and the head run in float32 on weights cast from the live net.params on
        this call: the teacher is frozen while it is queried, and its own error
        dwarfs float32 rounding."""
        x = np.asarray(x_t, dtype=float)
        out, _ = self.net.forward(x, tape=False, pre0=self._layer0(x, t, c), dtype=np.float32)
        return out.astype(float)


@dataclass(frozen=True)
class DenoiserTrainConfig:
    iterations: int = within(10_000, 0)
    batch_size: int = within(128, 1)
    learning_rate: float = within(1e-4, 0.0)
    clip_norm: float = within(1.0, -np.inf, np.inf, "[]")  # inf or <= 0 means no clipping
    hidden: int = within(64, 1)
    layers: int = within(4, 0)
    time_embed_dim: int = within(128, 0)
    cond_dropout: float = within(0.1, 0.0, 1.0, "[]")
    seed: int = within(0, 0)

    def __post_init__(self):
        check_fields(self)


def train_neural_denoiser(spec: MogSpec, config: DenoiserTrainConfig):
    """Fit a NeuralDenoiser by denoising regression on mixture draws.

    Each step draws (x0, c), a time t ~ U[ZETA, 1 - ZETA], noises x0 to x_t,
    drops the conditioning on a cond_dropout fraction of rows, and regresses
    the net output onto x0 with Adam under global-norm clipping.

    Returns:
        (denoiser, losses) with one loss per iteration.
    """
    d = spec.dim
    sizes = ([d + config.time_embed_dim + spec.n_classes]
             + [config.hidden] * config.layers + [d])
    net = nn.Mlp(sizes).init_glorot(stream(config.seed, "denoiser/init"))
    model = NeuralDenoiser(net, spec.n_classes, config.time_embed_dim)

    data_rng = stream(config.seed, "denoiser/data")
    time_rng = stream(config.seed, "denoiser/time")
    noise_rng = stream(config.seed, "denoiser/noise")
    drop_rng = stream(config.seed, "denoiser/drop")
    blocks = net.parameters()
    adam = nn.AdamState.for_params(net.params, lr=config.learning_rate)

    losses = np.zeros(config.iterations)
    for it in range(config.iterations):
        x0, c = spec.sample_joint(config.batch_size, data_rng)
        t = time_rng.uniform(ZETA, 1.0 - ZETA, size=config.batch_size)
        x_t = noise_sample(x0, t, noise_rng.standard_normal(x0.shape))
        onehot = nn.class_onehot(c, spec.n_classes)
        if config.cond_dropout > 0.0:
            onehot[drop_rng.random(config.batch_size) < config.cond_dropout] = 0.0
        pred, tape = net.forward(model._features(x_t, t, onehot))
        resid = pred - x0
        losses[it] = float(np.mean(np.sum(resid * resid, axis=1)))
        grad, _ = net.backward(tape, 2.0 * resid / config.batch_size)
        nn.clip_global_norm(grad, config.clip_norm, blocks)
        nn.adam_step(adam, net.params, grad)
    return model, losses
