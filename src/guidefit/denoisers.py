"""Gaussian-mixture test bed and the denoisers defined on it.

A denoiser estimates E[x0 | x_t, c] (or E[x0 | x_t] when c is None). Two
implementations share that interface:

  * AnalyticDenoiser: the exact posterior mean of an isotropic Gaussian
    mixture under the forward process, conditional or marginal.
  * NeuralDenoiser: a small MLP trained by denoising score matching with
    conditioning dropout, so one net serves both conditional and
    unconditional queries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from . import nn
from .rng import stream
from .schedule import SCHEDULE, noise_sample


@dataclass(frozen=True)
class MogSpec:
    """Isotropic Gaussian mixture: p0(x) = sum_c weights[c] N(x; means[c], variances[c] I)."""

    means: np.ndarray      # (K, d)
    variances: np.ndarray  # (K,)
    weights: np.ndarray    # (K,), sums to 1

    def __post_init__(self):
        means = np.atleast_2d(np.asarray(self.means, dtype=float))
        variances = np.asarray(self.variances, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "variances", variances)
        object.__setattr__(self, "weights", weights)
        k = means.shape[0]
        if variances.shape != (k,) or weights.shape != (k,):
            raise ValueError("means, variances, weights must agree on component count")
        if np.any(variances <= 0.0):
            raise ValueError("variances must be positive")
        if np.any(weights < 0.0) or not np.isclose(weights.sum(), 1.0):
            raise ValueError("weights must be nonnegative and sum to 1")

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
    """(alpha_t, sigma_t, component means alpha_t mu_c, variances alpha_t^2 s_c^2 + sigma_t^2).

    The means have shape (1 or n, K, d) and the variances (1 or n, K): a
    scalar t gets a leading axis of one, an (n,) t one row per point.
    """
    alpha, sigma = SCHEDULE.alpha_sigma(t)
    alpha = np.asarray(alpha, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    means = np.expand_dims(alpha, (-2, -1)) * spec.means
    var = np.expand_dims(alpha**2, -1) * spec.variances + np.expand_dims(sigma**2, -1)
    if means.ndim == 2:
        means, var = means[None], var[None]
    return alpha, sigma, means, var


def _log_joint(spec: MogSpec, x, means, var):
    """log(w_c N(x; means_c, var_c I)) per point and component, shape (n, K)."""
    diff = x[:, None, :] - means
    sq = np.sum(diff * diff, axis=-1)
    return (np.log(spec.weights) - 0.5 * sq / var
            - 0.5 * spec.dim * np.log(2.0 * np.pi * var))


def _log_posterior(log_joint):
    """log p(c | x): the log-joint normalized over components."""
    return log_joint - logsumexp(log_joint, axis=-1, keepdims=True)


def log_responsibilities(spec: MogSpec, x, t):
    """log p(c | x_t) for the noised mixture, shape (n, K). Stable in log space."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    _, _, means, var = _noised_components(spec, t)
    return _log_posterior(_log_joint(spec, x, means, var))


def mixture_log_density(spec: MogSpec, x, t=0.0):
    """log p_t(x) of the noised mixture; t = 0 gives the data density."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    _, _, means, var = _noised_components(spec, t)
    return logsumexp(_log_joint(spec, x, means, var), axis=-1)


def mixture_score(spec: MogSpec, x, t=0.0):
    """grad_x log p_t(x): responsibility-weighted pull toward the noised means."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    _, _, means, var = _noised_components(spec, t)
    resp = np.exp(_log_posterior(_log_joint(spec, x, means, var)))  # (n, K)
    pull = (means - x[:, None, :]) / var[..., None]                # (n, K, d)
    return np.sum(resp[..., None] * pull, axis=1)


def posterior_mean(spec: MogSpec, x_t, t, c=None):
    """E[x0 | x_t, c] in closed form; c = None marginalizes over components.

    Per component, the posterior is the Gaussian product
        m_c = (sigma_t^2 mu_c + alpha_t s_c^2 x_t) / (alpha_t^2 s_c^2 + sigma_t^2);
    the marginal mean mixes the m_c with the responsibilities p(c | x_t).

    Args:
        x_t: points of shape (n, d) (a single (d,) point is promoted).
        t: scalar or (n,) array.
        c: None, an int, or an int array of shape (n,).

    Returns:
        array of shape (n, d), or (d,) when a single point was given.
    """
    x_t = np.asarray(x_t, dtype=float)
    single = x_t.ndim == 1
    x = np.atleast_2d(x_t)
    alpha, sigma, means, var = _noised_components(spec, t)
    num = (np.expand_dims(sigma**2, (-2, -1)) * spec.means
           + np.expand_dims(alpha, (-2, -1)) * spec.variances[:, None] * x[:, None, :])
    comp_post = num / var[..., None]                               # (n, K, d)
    if c is None:
        resp = np.exp(_log_posterior(_log_joint(spec, x, means, var)))
        out = np.sum(resp[..., None] * comp_post, axis=1)
    else:
        c = np.asarray(c)
        if c.ndim == 0:
            c = np.full(x.shape[0], int(c))
        out = comp_post[np.arange(x.shape[0]), c]
    return out[0] if single else out


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

    def __init__(self, net: nn.Mlp, n_classes: int, time_embed_dim: int = 128,
                 logsnr_clip: float = 13.8):
        if net.sizes[0] != net.sizes[-1] + time_embed_dim + n_classes:
            raise ValueError(f"layer sizes do not fit: net input {net.sizes[0]} != output "
                             f"{net.sizes[-1]} + time_embed_dim {time_embed_dim} "
                             f"+ n_classes {n_classes}")
        self.net = net
        self.n_classes = n_classes
        self.time_embed_dim = time_embed_dim
        self.logsnr_clip = logsnr_clip

    @property
    def dim(self) -> int:
        return self.net.sizes[-1]

    def _embedding(self, t):
        """sinusoidal(logSNR t clipped to +-logsnr_clip), one row per entry of t."""
        snr = np.clip(SCHEDULE.logsnr(t), -self.logsnr_clip, self.logsnr_clip)
        return nn.sinusoidal_embedding(snr, self.time_embed_dim)

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
            pre0 += w_c.T[nn.class_labels(c, self.n_classes, n)]
        return pre0

    def denoise(self, x_t, t, c=None):
        x_t = np.asarray(x_t, dtype=float)
        single = x_t.ndim == 1
        x = np.atleast_2d(x_t)
        out, _ = self.net.forward(x, tape=False, pre0=self._layer0(x, t, c))
        return out[0] if single else out


@dataclass(frozen=True)
class DenoiserTrainConfig:
    iterations: int = 10_000
    batch_size: int = 128
    learning_rate: float = 1e-4
    clip_norm: float = 1.0
    hidden: int = 64
    layers: int = 4
    time_embed_dim: int = 128
    cond_dropout: float = 0.1
    time_clamp: float = 1e-2
    seed: int = 0

    def __post_init__(self):
        if self.iterations < 0 or self.batch_size <= 0:
            raise ValueError("iterations must be >= 0 and batch_size > 0")
        if not 0.0 <= self.cond_dropout <= 1.0:
            raise ValueError("cond_dropout must lie in [0, 1]")
        if not 0.0 < self.time_clamp < 0.5:
            raise ValueError(f"time_clamp must lie in (0, 0.5), got {self.time_clamp}")
        if self.hidden < 1:
            raise ValueError(f"hidden must be at least 1, got {self.hidden}")
        if self.layers < 0:
            raise ValueError(f"layers must be at least 0, got {self.layers}")
        if self.learning_rate < 0.0:
            raise ValueError(f"learning_rate must be nonnegative, got {self.learning_rate}")


def train_neural_denoiser(spec: MogSpec, config: DenoiserTrainConfig):
    """Fit a NeuralDenoiser by denoising regression on mixture draws.

    Each step draws (x0, c), a time t ~ U[clamp, 1 - clamp], noises x0 to x_t,
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
    lo, hi = config.time_clamp, 1.0 - config.time_clamp
    for it in range(config.iterations):
        x0, c = spec.sample_joint(config.batch_size, data_rng)
        t = time_rng.uniform(lo, hi, size=config.batch_size)
        x_t, _ = noise_sample(x0, t, noise_rng)
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
