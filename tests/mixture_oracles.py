"""Per-function (n, K) oracles of the mixture arithmetic in denoisers.py.

Each function rebuilds its result the way the package computed it with the
component axis last: points on the leading axis, one (n, K) log-joint per
function, scipy's logsumexp over the trailing axis. The package lays the same
arithmetic out component-first; the byte checks compare the two.

Warnings are silenced here, and only here: a zero weight's log prior, a
squared distance past the float range and the NaN responsibilities of a point
whose every log-joint is -inf are part of what the oracles reproduce.
"""

import numpy as np
from scipy.special import logsumexp

from guidefit.schedule import SCHEDULE

_QUIET = {"divide": "ignore", "over": "ignore", "invalid": "ignore"}


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
    with np.errstate(**_QUIET):
        diff = x[:, None, :] - comp_means
        sq = np.sum(diff * diff, axis=-1)
        log_joint = (np.log(spec.weights) - 0.5 * sq / comp_var
                     - 0.5 * spec.dim * np.log(2.0 * np.pi * comp_var))
    return log_joint, comp_means, comp_var


def _oracle_log_responsibilities(spec, x, t):
    log_joint, _, _ = _oracle_log_joint(spec, x, t)
    with np.errstate(**_QUIET):
        return log_joint - logsumexp(log_joint, axis=-1, keepdims=True)


def _oracle_mixture_log_density(spec, x, t):
    log_joint, _, _ = _oracle_log_joint(spec, x, t)
    with np.errstate(**_QUIET):
        return logsumexp(log_joint, axis=-1)


def _oracle_mixture_score(spec, x, t):
    resp = np.exp(_oracle_log_responsibilities(spec, x, t))
    _, comp_means, comp_var = _oracle_log_joint(spec, x, t)
    pull = (comp_means - x[:, None, :]) / comp_var[..., None]
    return np.sum(resp[..., None] * pull, axis=1)


def _oracle_posterior_mean(spec, x, t, c=None):
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
        return np.sum(resp[..., None] * comp_post, axis=1)
    return comp_post[np.arange(x.shape[0]), c]


class OracleDenoiser:
    """AnalyticDenoiser's interface, answered by _oracle_posterior_mean."""

    def __init__(self, spec):
        self.spec = spec
        self.n_classes = spec.n_classes
        self.dim = spec.dim

    def denoise(self, x_t, t, c=None):
        return _oracle_posterior_mean(self.spec, x_t, t, c)
