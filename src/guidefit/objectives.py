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

where delta = xhat_c - xhat_None, the teacher denoiser queried at c and at
c = None. Every loss here takes one weight per item, omega (n,), reports an
exact d loss / d omega alongside its value, and a ParticleBatch caches all
draws so losses can be replayed at any omega. Rewards are plain functions
R(spec, x, c) named in REWARDS.
Guided score matching uses the same batch type with one particle, A = 0,
B = 1, Sigma = 0 and the clean point as target. Training time pairs lie in
the schedule's range [ZETA, 1 - ZETA].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .denoisers import MogSpec, mixture_log_density_and_score
from .domains import check_fields, within
from .guidance import guided_denoise
from .schedule import ZETA, DdimTransition, ddim_transition, noise_sample


@dataclass(frozen=True)
class TimePairSampler:
    """Draw training time pairs: s ~ U[s_min, 1 - ZETA - delta], t = s + U[delta, 1 - ZETA - s]."""

    s_min: float = within(0.2, ZETA)
    delta: float = within(0.1, 0.0, np.inf, "()")

    def __post_init__(self):
        check_fields(self)
        if not self.s_min + self.delta < 1.0 - ZETA:
            raise ValueError(f"need s_min + delta < 1 - ZETA = {1.0 - ZETA}, "
                             f"got {self.s_min} + {self.delta}")

    def sample(self, n: int, rng):
        s = rng.uniform(self.s_min, 1.0 - ZETA - self.delta, size=n)
        dt = rng.uniform(self.delta, 1.0 - ZETA - s)
        return s, s + dt


@dataclass
class ParticleBatch:
    """Cached draws for n batch items with m particles each.

    All m target and m proposal particles of item i share its clean point,
    class c[i] and time pair. proposals(omega) replays the guided transition
    at any weights omega (n,). build_gsm's batches have m = 1 and target x0 itself.
    """

    c: np.ndarray            # (n,)
    targets: np.ndarray      # (n, m, d), x0 noised to s
    prop_noisy: np.ndarray   # (n, m, d), x0 noised to t
    xhat_c: np.ndarray       # (n, m, d), denoiser at c at prop_noisy
    delta: np.ndarray        # (n, m, d), denoiser at c minus denoiser at c = None
    trans: DdimTransition    # (n,) coefficients A, B, Sigma of each item's step
    trans_noise: np.ndarray  # (n, m, d), xi of the transition

    @property
    def n_items(self) -> int:
        return self.targets.shape[0]

    @property
    def n_particles(self) -> int:
        return self.targets.shape[1]

    def guided_estimates(self, omega):
        """Guided denoiser outputs xhat_c + omega delta at the proposal points, omega (n,)."""
        return self.xhat_c + omega[:, None, None] * self.delta

    def proposals(self, omega):
        """Proposal particles: the guided transition from prop_noisy at weights omega (n,)."""
        return self.trans.sample(self.guided_estimates(omega), self.prop_noisy, self.trans_noise)

    def slope(self):
        """d proposals / d omega = B delta, shape (n, m, d)."""
        return self.trans.mean_coeff_x0[:, None, None] * self.delta


def build_particles(x0, c, s, t, m: int, denoiser, churn: float, rng) -> ParticleBatch:
    """Draw targets, proposals, and the transition pieces for a training batch.

    Args:
        x0: clean points (n, d).
        c: class labels (n,).
        s, t: time pairs (n,) with s < t elementwise.
        m: particles per item, at least 1 (TrainConfig.particles).
        denoiser: the teacher, queried at c and at c = None at prop_noisy.
        churn: transition noise level in [0, 1].
        rng: all draws (target noise, proposal noise, transition noise, in
            that order) come from this generator.
    """
    n, d = x0.shape

    trans = ddim_transition(s, t, churn)
    targets = noise_sample(x0[:, None, :], s, rng.standard_normal((n, m, d)))
    prop_noisy = noise_sample(x0[:, None, :], t, rng.standard_normal((n, m, d)))

    xc, delta = guided_denoise(denoiser, prop_noisy.reshape(n * m, d), np.repeat(t, m),
                               np.repeat(c, m), 0.0)
    return ParticleBatch(c, targets, prop_noisy, xc.reshape(n, m, d), delta.reshape(n, m, d),
                         trans, rng.standard_normal((n, m, d)))


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


def mmd_loss(batch: ParticleBatch, beta: float, lam: float, omega):
    """Per-item self-consistency loss and d loss / d omega, both shape (n,).

    beta in (0, 2] is the energy-kernel exponent and lam >= 0 the repulsion
    weight, as TrainConfig declares them. omega is one weight per item (n,);
    the cached draws are reused, so the map omega -> loss is smooth and
    exactly replayable. The repulsion kernel is symmetric, so its sum over
    j != k is taken as twice the sum over j < k.
    """
    m = batch.n_particles
    # coordinate-first views (d, n, m): each coordinate's pair arrays are contiguous
    props = np.moveaxis(batch.proposals(omega), -1, 0)
    slope = np.moveaxis(batch.slope(), -1, 0)

    u = props - np.moveaxis(batch.targets, -1, 0)
    cross_pow, cross_fac = _pow_and_factor(_dot(u, u), beta)
    loss = cross_pow.mean(axis=-1)
    dloss = (cross_fac * _dot(u, slope)).mean(axis=-1)

    if lam > 0.0 and m > 1:
        j, k = np.triu_indices(m, 1)
        v = np.take(props, j, axis=-1) - np.take(props, k, axis=-1)
        dv = np.take(slope, j, axis=-1) - np.take(slope, k, axis=-1)
        v_pow, v_fac = _pow_and_factor(_dot(v, v), beta)
        norm = 1.0 / (m * (m - 1))
        loss = loss - lam * v_pow.sum(axis=-1) * norm
        dloss = dloss - lam * norm * (v_fac * _dot(v, dv)).sum(axis=-1)
    return loss, dloss


def l2_loss(batch: ParticleBatch, omega):
    """Single-particle squared-error objective ||xprop - xtgt||^2 per item, omega (n,).

    batch holds one particle per item, as TrainConfig requires of mode 'l2'.
    Written directly (not via mmd_loss) so the equivalence with the beta = 2,
    lam = 0 energy loss is a real cross-check.
    """
    u = batch.proposals(omega)[:, 0, :] - batch.targets[:, 0, :]
    residual_slope = batch.slope()[:, 0, :]
    loss = np.sum(u * u, axis=-1)
    return loss, 2.0 * np.sum(u * residual_slope, axis=-1)


def distance_to_mean(spec: MogSpec, x, c):
    """R(x, c) = -||x - mu_c||^2: pulls samples toward their class mean."""
    diff = x - spec.means[c]
    return -np.sum(diff * diff, axis=-1), -2.0 * diff


def log_density(spec: MogSpec, x, c):
    """R(x, c) = log p0(x) under the data mixture (class-independent)."""
    return mixture_log_density_and_score(spec, x)


# Each reward R(spec, x, c) -> (value (k,), d value / d x (k, d)) on rows x (k, d).
REWARDS = {"distance_to_mean": distance_to_mean, "mixture_log_density": log_density}


def reward_loss(batch: ParticleBatch, reward, omega):
    """Per-item reward term -(1/m) sum_j R(xhat_j(omega), c) and its omega-gradient,
    at weights omega (n,).

    reward(x, c) is a REWARDS entry with its spec bound. The reward acts on
    the guided denoiser outputs, so d xhat / d omega is the raw
    conditional-minus-unconditional difference. Minimizing the term
    maximizes the expected reward; the trainer weights it by gamma_reward,
    whose sign sets the direction of the tilt.
    """
    est = batch.guided_estimates(omega)
    c_rep = np.repeat(batch.c, batch.n_particles)
    val, grad = reward(est.reshape(-1, est.shape[-1]), c_rep)
    val = val.reshape(est.shape[:2])
    grad = grad.reshape(est.shape)
    return -val.mean(axis=-1), -np.sum(grad * batch.delta, axis=-1).mean(axis=-1)


def build_gsm(x0, c, t, denoiser, rng) -> ParticleBatch:
    """Noise each clean point x0 (n, d) to its time t (n,) once and cache the
    denoiser's answers there at its label c (n,) and at c = None.

    The guided-score-matching batch is a ParticleBatch with one particle per
    item and the transition A = 0, B = 1, Sigma = 0: the target is x0
    itself, so proposals() are the guided estimates and the loss regresses
    them onto the clean points.
    """
    n = x0.shape[0]
    x_t = noise_sample(x0, t, rng.standard_normal(x0.shape))
    xc, delta = guided_denoise(denoiser, x_t, t, c, 0.0)
    return ParticleBatch(c, x0[:, None], x_t[:, None], xc[:, None], delta[:, None],
                         DdimTransition(np.zeros(n), np.ones(n), np.zeros(n)),
                         np.zeros_like(x_t[:, None]))


def guided_score_matching_loss(batch: ParticleBatch, omega):
    """Per-item ||x0 - guided estimate||^2 and d loss / d omega at weights omega (n,).

    Reads particle 0 of a build_gsm batch.
    """
    delta = batch.delta[:, 0]
    u = batch.targets[:, 0] - batch.xhat_c[:, 0] - omega[:, None] * delta
    loss = np.sum(u * u, axis=-1)
    return loss, -2.0 * np.sum(u * delta, axis=-1)
