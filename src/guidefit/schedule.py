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

The module also fixes the pipeline's one time range: ZETA, GRID_DT, LOGSNR_CLIP.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Sampling grids, training times and the weight table live in [ZETA, 1 - ZETA],
# so sigma_t > 0 and alpha_t > 0 wherever a transition or denoiser is evaluated.
# The weight table steps from t to t - GRID_DT. Time features are logSNR clipped
# to +/- LOGSNR_CLIP: |logSNR| < 9.2 on [ZETA, 1 - ZETA], so the clip moves no
# value there and only keeps the features finite at t = 0 and t = 1.
ZETA = 1e-2
GRID_DT = 0.01
LOGSNR_CLIP = 13.8


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


def logsnr_feature(t):
    """SCHEDULE.logsnr(t) clipped to +/- LOGSNR_CLIP: finite at t = 0 and t = 1."""
    return np.clip(SCHEDULE.logsnr(t), -LOGSNR_CLIP, LOGSNR_CLIP)


def noise_sample(x0, t, noise):
    """x_t = alpha_t x0 + sigma_t noise for standard normals noise (x0's shape).

    Args:
        x0: clean points, shape (..., d).
        t: scalar or array broadcastable against the leading axes of x0.
        noise: standard normals, same shape as x0.
    """
    alpha, sigma = SCHEDULE.alpha_sigma(t)
    return _align(alpha, np.ndim(x0)) * x0 + _align(sigma, np.ndim(x0)) * noise


@dataclass(frozen=True)
class DdimTransition:
    """Coefficients of the reverse transition N(A x_t + B x0, Sigma I).

    Fields may be scalars or arrays (one transition per batch item).
    """

    mean_coeff_xt: np.ndarray
    mean_coeff_x0: np.ndarray
    cov_scale: np.ndarray

    def sample(self, x0, x_t, noise):
        """x_s = A x_t + B x0 + sqrt(Sigma) noise for standard normals noise (x_t's shape)."""
        ndim = np.ndim(x_t)
        return (_align(self.mean_coeff_xt, ndim) * x_t + _align(self.mean_coeff_x0, ndim) * x0
                + _align(np.sqrt(self.cov_scale), ndim) * noise)


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
    if not (np.all(0.0 <= s) and np.all(s < t) and np.all(t <= 1.0)):  # false on NaN
        raise ValueError("need 0 <= s < t <= 1 elementwise")
    # so sigma_t = t > s >= 0 and alpha_s = 1 - s > 1 - t >= 0: both ratios are finite
    alpha_s, sigma_s = SCHEDULE.alpha_sigma(s)
    alpha_t, sigma_t = SCHEDULE.alpha_sigma(t)

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
