"""Noise schedule and DDIM-style reverse transition kernel.

The forward process is x_t = alpha_t x0 + sigma_t xi with the rectified-flow
schedule alpha_t = 1 - t, sigma_t = t on t in [0, 1]. The reverse transition
from time t to s < t is the Gaussian

    x_s | x_t, x0  ~  N(A x_t + B x0, Sigma I)

whose coefficients interpolate, via a churn parameter in [0, 1], between the
deterministic DDIM step (churn = 0) and the ancestral posterior step
(churn = 1). The coefficients are fixed by requiring that composing the
noising marginal at t with the transition reproduces the noising marginal at
s for every x0:

    A alpha_t + B = alpha_s        (mean consistency)
    A^2 sigma_t^2 + Sigma = sigma_s^2   (variance consistency)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Default safety clamp: pipeline times live in [DEFAULT_CLAMP, 1 - DEFAULT_CLAMP]
# so sigma_t > 0 and alpha_t > 0 wherever a transition or denoiser is evaluated.
DEFAULT_CLAMP = 1e-2


class NoiseSchedule:
    """The rectified-flow forward process, the only one defined."""

    def alpha_sigma(self, t):
        """Evaluate (alpha_t, sigma_t) with t clipped to [0, 1].

        Exact at the boundaries: t = 0 gives (1, 0) and t = 1 gives (0, 1).
        """
        t = np.clip(np.asarray(t, dtype=float), 0.0, 1.0)
        return 1.0 - t, t + 0.0

    def logsnr(self, t):
        """log(alpha_t^2 / sigma_t^2); +/-inf at the boundaries."""
        alpha, sigma = self.alpha_sigma(t)
        with np.errstate(divide="ignore"):
            return 2.0 * (np.log(alpha) - np.log(sigma))


# The one schedule. Callers look its methods up at call time
# (SCHEDULE.alpha_sigma(t)), so wrapping them on the class reaches every call.
SCHEDULE = NoiseSchedule()


def noise_sample(x0, t, rng=None, noise=None):
    """Draw x_t = alpha_t x0 + sigma_t xi for xi ~ N(0, I).

    Args:
        x0: clean points, shape (..., d).
        t: scalar or array broadcastable against the leading axes of x0.
        rng: generator used when noise is not supplied.
        noise: optional pre-drawn standard normals, same shape as x0. Passing
            them makes the draw replayable.

    Returns:
        (x_t, noise) with x_t.shape == x0.shape.
    """
    x0 = np.asarray(x0, dtype=float)
    alpha, sigma = SCHEDULE.alpha_sigma(t)
    if noise is None:
        noise = rng.standard_normal(x0.shape)
    alpha = _align(alpha, x0.ndim)
    sigma = _align(sigma, x0.ndim)
    return alpha * x0 + sigma * noise, noise


@dataclass(frozen=True)
class DdimTransition:
    """Coefficients of the reverse transition N(A x_t + B x0, Sigma I).

    Fields may be scalars or arrays (one transition per batch item).
    """

    mean_coeff_xt: np.ndarray
    mean_coeff_x0: np.ndarray
    cov_scale: np.ndarray

    def mean(self, x0, x_t):
        x0 = np.asarray(x0, dtype=float)
        x_t = np.asarray(x_t, dtype=float)
        a = _align(self.mean_coeff_xt, x_t.ndim)
        b = _align(self.mean_coeff_x0, x_t.ndim)
        return a * x_t + b * x0

    def sample(self, x0, x_t, rng=None, noise=None):
        """Draw x_s from the transition; returns (x_s, noise) for replay."""
        mean = self.mean(x0, x_t)
        if noise is None:
            noise = rng.standard_normal(mean.shape)
        std = _align(np.sqrt(self.cov_scale), mean.ndim)
        return mean + std * noise, noise


def ddim_transition(s, t, churn: float) -> DdimTransition:
    """Build the transition from time t down to time s.

    Args:
        s, t: scalars or equal-shape arrays with 0 <= s < t <= 1 elementwise.
        churn: noise-injection level in [0, 1]; 0 is the deterministic DDIM
            step, 1 the ancestral posterior step.

    Returns:
        DdimTransition with mean consistency A alpha_t + B = alpha_s and
        variance consistency A^2 sigma_t^2 + Sigma = sigma_s^2 exact up to
        float rounding.
    """
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    if not 0.0 <= churn <= 1.0:
        raise ValueError(f"churn must lie in [0, 1], got {churn}")
    if np.any(s < 0.0) or np.any(t > 1.0) or np.any(s >= t):
        raise ValueError("need 0 <= s < t <= 1 elementwise")
    alpha_s, sigma_s = SCHEDULE.alpha_sigma(s)
    alpha_t, sigma_t = SCHEDULE.alpha_sigma(t)
    if np.any(sigma_t <= 0.0):
        raise ValueError("transition undefined where sigma_t = 0")
    if np.any(alpha_s <= 0.0):
        raise ValueError("transition undefined where alpha_s = 0")

    ratio_a = alpha_t / alpha_s  # (alpha_t/alpha_s)
    ratio_s = sigma_s / sigma_t  # (sigma_s/sigma_t), std ratio
    e2 = churn * churn
    r11 = ratio_a * ratio_s
    mean_coeff_xt = e2 * ratio_a * ratio_s**2 + (1.0 - e2) * ratio_s
    mean_coeff_x0 = alpha_s * (1.0 - e2 * r11**2 - (1.0 - e2) * r11)
    # exact zero at churn=0; clip guards rounding for churn in (0, 1)
    cov_scale = sigma_s**2 * np.maximum(0.0, 1.0 - (e2 * r11 + (1.0 - e2)) ** 2)
    return DdimTransition(mean_coeff_xt, mean_coeff_x0, cov_scale)


def _align(coeff, ndim: int):
    """Append trailing unit axes so a batch coefficient broadcasts over (..., d)."""
    coeff = np.asarray(coeff, dtype=float)
    while coeff.ndim < ndim:
        coeff = coeff[..., None]
    return coeff
