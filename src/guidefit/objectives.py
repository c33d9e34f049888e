"""Training objectives for guidance weights, with analytic omega-gradients.

The self-consistency objective compares, for each batch item (x0, c, s, t),
two ways of reaching time s: target particles noised directly from x0, and
proposal particles noised to time t and then pushed back to s by one guided
transition step. Per item with m particles,

    loss = (1/m) sum_j ||xprop_j - xtgt_j||^beta
         - (lam/2) (1/(m(m-1))) sum_{j != k} ||xprop_j - xprop_k||^beta.

The pairing of proposal j with target j in the cross term keeps the estimator
cheap; the dropped target-target term is constant in omega. Proposals are
affine in omega,

    xprop_j(omega) = A xnoisy_j + B (xhat_c_j + omega delta_j) + sqrt(Sigma) xi_j,

so every loss here reports an exact d loss / d omega alongside its value, and
a ParticleBatch caches all draws so losses can be replayed at any omega.
Guided score matching uses the same batch type with one particle, A = 0,
B = 1, Sigma = 0 and the clean point as target.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .denoisers import MogSpec, mixture_log_density, mixture_score
from .schedule import ddim_transition, noise_sample


@dataclass(frozen=True)
class MmdParams:
    """Energy-kernel exponent beta in (0, 2] and repulsion weight lam >= 0."""

    beta: float = 1.75
    lam: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.beta <= 2.0:
            raise ValueError(f"beta must lie in (0, 2], got {self.beta}")
        if self.lam < 0.0:
            raise ValueError(f"lam must be nonnegative, got {self.lam}")


@dataclass(frozen=True)
class TimePairSampler:
    """Draw training time pairs: s ~ U[s_min, 1 - zeta - delta], t = s + U[delta, 1 - zeta - s]."""

    s_min: float = 0.2
    zeta: float = 1e-2
    delta: float = 0.1

    def __post_init__(self):
        if not 0.0 < self.zeta < 0.5:
            raise ValueError("zeta must lie in (0, 0.5)")
        if self.delta <= 0.0:
            raise ValueError("delta must be positive")
        if not self.zeta <= self.s_min:
            raise ValueError("s_min must be at least zeta")
        if self.s_min + self.delta >= 1.0 - self.zeta:
            raise ValueError("need s_min + delta < 1 - zeta")

    def sample(self, n: int, rng):
        s = rng.uniform(self.s_min, 1.0 - self.zeta - self.delta, size=n)
        dt = rng.uniform(self.delta, 1.0 - self.zeta - s)
        return s, s + dt


def _per_item(omega, n: int):
    """omega as n per-item floats: a scalar is repeated, an (n,) array kept."""
    return np.broadcast_to(np.asarray(omega, dtype=float), (n,))


@dataclass
class ParticleBatch:
    """Cached draws for n batch items with m particles each.

    All m target and m proposal particles of item i share (x0[i], c[i], s[i],
    t[i]). proposals(omega) replays the guided transition at any weight; the
    stored omega is the one the batch was built with. build_gsm's batches
    have m = 1 and target x0 itself.
    """

    x0: np.ndarray          # (n, d)
    c: np.ndarray           # (n,)
    s: np.ndarray           # (n,)
    t: np.ndarray           # (n,)
    targets: np.ndarray     # (n, m, d), x0 noised to s
    prop_noisy: np.ndarray  # (n, m, d), x0 noised to t
    xhat_c: np.ndarray      # (n, m, d), conditional denoiser at prop_noisy
    delta: np.ndarray       # (n, m, d), conditional minus unconditional
    coeff_xt: np.ndarray    # (n,), transition A
    coeff_x0: np.ndarray    # (n,), transition B
    cov_scale: np.ndarray   # (n,), transition Sigma
    trans_noise: np.ndarray  # (n, m, d), xi of the transition
    omega: np.ndarray       # (n,)

    @property
    def n_items(self) -> int:
        return self.x0.shape[0]

    @property
    def n_particles(self) -> int:
        return self.targets.shape[1]

    def _omega(self, omega):
        return self.omega if omega is None else _per_item(omega, self.n_items)

    def guided_estimates(self, omega=None):
        """Guided denoiser outputs xhat_c + omega delta at the proposal points."""
        w = self._omega(omega)[:, None, None]
        return self.xhat_c + w * self.delta

    def proposals(self, omega=None):
        """Proposal particles at the stored omega, or at an override."""
        guided = self.guided_estimates(omega)
        mean = self.coeff_xt[:, None, None] * self.prop_noisy + self.coeff_x0[:, None, None] * guided
        return mean + np.sqrt(self.cov_scale)[:, None, None] * self.trans_noise

    def slope(self):
        """d proposals / d omega = B delta, shape (n, m, d)."""
        return self.coeff_x0[:, None, None] * self.delta


def build_particles(x0, c, s, t, m: int, cond, uncond, omega, churn: float,
                    rng) -> ParticleBatch:
    """Draw targets, proposals, and the transition pieces for a training batch.

    Args:
        x0: clean points (n, d); a single (d,) point is promoted to n = 1.
        c: class labels (n,) or an int.
        s, t: time pairs, scalars or (n,) arrays with s < t elementwise.
        m: particles per item.
        cond, uncond: denoisers evaluated at the proposal noisy points.
        omega: guidance weight, a scalar or one per item (n,).
        churn: transition noise level in [0, 1].
        rng: all draws (target noise, proposal noise, transition noise, in
            that order) come from this generator.
    """
    if m < 1:
        raise ValueError("need at least one particle")
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    n, d = x0.shape
    c = np.broadcast_to(np.asarray(c), (n,))
    s = np.broadcast_to(np.asarray(s, dtype=float), (n,))
    t = np.broadcast_to(np.asarray(t, dtype=float), (n,))

    trans = ddim_transition(s, t, churn)
    targets, _ = noise_sample(x0[:, None, :], s, noise=rng.standard_normal((n, m, d)))
    prop_noisy, _ = noise_sample(x0[:, None, :], t, noise=rng.standard_normal((n, m, d)))

    flat = prop_noisy.reshape(n * m, d)
    t_flat = np.repeat(t, m)
    xc = cond.denoise(flat, t_flat, np.repeat(c, m)).reshape(n, m, d)
    xu = uncond.denoise(flat, t_flat, None).reshape(n, m, d)

    return ParticleBatch(
        x0=x0, c=c, s=s, t=t,
        targets=targets, prop_noisy=prop_noisy,
        xhat_c=xc, delta=xc - xu,
        coeff_xt=np.broadcast_to(trans.mean_coeff_xt, (n,)),
        coeff_x0=np.broadcast_to(trans.mean_coeff_x0, (n,)),
        cov_scale=np.broadcast_to(trans.cov_scale, (n,)),
        trans_noise=rng.standard_normal((n, m, d)),
        omega=np.array(_per_item(omega, n)),
    )


def _dot(a, b):
    """sum_k a[k] b[k] over the leading (coordinate) axis, one coordinate at a time.

    For the few coordinates used here this is the sum np.sum(a * b, axis=-1)
    makes on coordinate-last arrays, without the product array.
    """
    out = a[0] * b[0]
    for k in range(1, a.shape[0]):
        out += a[k] * b[k]
    return out


def _pow_and_factor(sq, beta):
    """||diff||^beta and the chain factor beta ||diff||^(beta-2), 0 at diff = 0,
    from the squared norm sq: one power, factor = beta ||diff||^beta / sq."""
    out_pow = sq ** (0.5 * beta)
    factor = beta * out_pow
    np.divide(factor, sq, out=factor, where=sq > 0.0)
    return out_pow, factor


@lru_cache(maxsize=8)
def _pairs(m: int):
    """Indices (j, k) of the m (m - 1) / 2 particle pairs with j < k, read-only."""
    j, k = np.triu_indices(m, 1)
    j.flags.writeable = k.flags.writeable = False
    return j, k


def mmd_loss(batch: ParticleBatch, params: MmdParams, omega=None):
    """Per-item self-consistency loss and d loss / d omega, both shape (n,).

    omega overrides the stored weights (scalar or (n,)); the cached draws are
    reused, so the map omega -> loss is smooth and exactly replayable. The
    repulsion kernel is symmetric, so its sum over j != k is taken as twice
    the sum over j < k.
    """
    m = batch.n_particles
    # coordinate-first views (d, n, m): each coordinate's pair arrays are contiguous
    props = np.moveaxis(batch.proposals(omega), -1, 0)
    slope = np.moveaxis(batch.slope(), -1, 0)

    u = props - np.moveaxis(batch.targets, -1, 0)
    cross_pow, cross_fac = _pow_and_factor(_dot(u, u), params.beta)
    loss = cross_pow.mean(axis=-1)
    dloss = (cross_fac * _dot(u, slope)).mean(axis=-1)

    if params.lam > 0.0 and m > 1:
        j, k = _pairs(m)
        v = np.take(props, j, axis=-1) - np.take(props, k, axis=-1)
        dv = np.take(slope, j, axis=-1) - np.take(slope, k, axis=-1)
        v_pow, v_fac = _pow_and_factor(_dot(v, v), params.beta)
        norm = 1.0 / (m * (m - 1))
        loss = loss - params.lam * v_pow.sum(axis=-1) * norm
        dloss = dloss - params.lam * norm * (v_fac * _dot(v, dv)).sum(axis=-1)
    return loss, dloss


def l2_loss(batch: ParticleBatch, omega=None):
    """Single-particle squared-error objective: ||xprop - xtgt||^2 per item.

    Requires m = 1. Written directly (not via mmd_loss) so the equivalence
    with the beta = 2, lam = 0 energy loss is a real cross-check.
    """
    if batch.n_particles != 1:
        raise ValueError("the squared-error objective uses exactly one particle")
    u = batch.proposals(omega)[:, 0, :] - batch.targets[:, 0, :]
    residual_slope = batch.slope()[:, 0, :]
    loss = np.sum(u * u, axis=-1)
    return loss, 2.0 * np.sum(u * residual_slope, axis=-1)


class DistanceToMeanReward:
    """R(x, c) = -||x - mu_c||^2: pulls samples toward their class mean."""

    def __init__(self, means):
        self.means = np.atleast_2d(np.asarray(means, dtype=float))

    def value_and_grad(self, x, c):
        x = np.asarray(x, dtype=float)
        mu = self.means[np.asarray(c)]
        diff = x - mu
        return -np.sum(diff * diff, axis=-1), -2.0 * diff


class MixtureLogDensityReward:
    """R(x, c) = log p0(x) under the data mixture (class-independent)."""

    def __init__(self, spec: MogSpec):
        self.spec = spec

    def value_and_grad(self, x, c=None):
        x = np.asarray(x, dtype=float)
        flat = x.reshape(-1, x.shape[-1])
        val = mixture_log_density(self.spec, flat).reshape(x.shape[:-1])
        grad = mixture_score(self.spec, flat).reshape(x.shape)
        return val, grad


def reward_loss(batch: ParticleBatch, reward_fn, omega=None, sign: float = -1.0):
    """Per-item reward term sign * (1/m) sum_j R(xhat_j(omega), c) and its omega-gradient.

    The reward acts on the guided denoiser outputs, so d xhat / d omega is the
    raw conditional-minus-unconditional difference. The default sign = -1
    makes minimizing this maximize the expected reward; sign = +1 flips the
    convention.
    """
    est = batch.guided_estimates(omega)
    c_rep = np.repeat(batch.c, batch.n_particles)
    val, grad = reward_fn.value_and_grad(est.reshape(-1, est.shape[-1]), c_rep)
    val = val.reshape(est.shape[:2])
    grad = grad.reshape(est.shape)
    loss = sign * val.mean(axis=-1)
    dloss = sign * np.sum(grad * batch.delta, axis=-1).mean(axis=-1)
    return loss, dloss


def build_gsm(x0, c, s, t, cond, uncond, omega, rng) -> ParticleBatch:
    """Noise each item to its t once and cache the denoiser pair there.

    The guided-score-matching batch is a ParticleBatch with one particle per
    item and the transition A = 0, B = 1, Sigma = 0: the target is x0
    itself, so proposals() are the guided estimates and the loss regresses
    them onto the clean points. The s values are the other half of the
    (s, t) pairs the weights were evaluated at. omega is the guidance weight,
    a scalar or one per item (n,).
    """
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    n = x0.shape[0]
    c = np.broadcast_to(np.asarray(c), (n,))
    s = np.broadcast_to(np.asarray(s, dtype=float), (n,))
    t = np.broadcast_to(np.asarray(t, dtype=float), (n,))
    x_t, _ = noise_sample(x0, t, rng)
    xc = cond.denoise(x_t, t, c)
    xu = uncond.denoise(x_t, t, None)
    return ParticleBatch(
        x0=x0, c=c, s=s, t=t,
        targets=x0[:, None], prop_noisy=x_t[:, None],
        xhat_c=xc[:, None], delta=(xc - xu)[:, None],
        coeff_xt=np.zeros(n), coeff_x0=np.ones(n), cov_scale=np.zeros(n),
        trans_noise=np.zeros_like(x_t[:, None]),
        omega=np.array(_per_item(omega, n)),
    )


def guided_score_matching_loss(batch: ParticleBatch, omega=None):
    """Per-item ||x0 - guided estimate||^2 and d loss / d omega, shape (n,).

    Reads particle 0 of a build_gsm batch.
    """
    w = batch._omega(omega)[:, None]
    delta = batch.delta[:, 0]
    u = batch.targets[:, 0] - batch.xhat_c[:, 0] - w * delta
    loss = np.sum(u * u, axis=-1)
    return loss, -2.0 * np.sum(u * delta, axis=-1)
