"""Guidance weight functions omega(s, t, c) and the guided denoiser combination.

The guided estimate is

    xhat(x_t, c; omega) = xhat(x_t, c) + omega * (xhat(x_t, c) - xhat(x_t))

so omega = 0 is the conditional denoiser and omega = -1 the unconditional
one; both endpoints are returned exactly, without arithmetic on the
difference. Two weight functions exist: a constant, the classifier-free
guidance baseline, and a small neural net over (logSNR s, logSNR t, one-hot
c), the learned weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .schedule import DEFAULT_CLAMP, SCHEDULE


def _broadcast_inputs(s, t, c):
    """Common (n,)-shaped views of s, t, c; n = 1 when everything is scalar."""
    arrays = [np.asarray(s, dtype=float), np.asarray(t, dtype=float)]
    scalar = arrays[0].ndim == 0 and arrays[1].ndim == 0
    if c is not None:
        c = np.asarray(c)
        scalar = scalar and c.ndim == 0
    shape = np.broadcast_shapes(*(a.shape for a in arrays),
                                *(() if c is None else (c.shape,)))
    n = int(np.prod(shape)) if shape else 1
    s_b = np.broadcast_to(arrays[0], shape).reshape(n)
    t_b = np.broadcast_to(arrays[1], shape).reshape(n)
    c_b = None if c is None else np.broadcast_to(c, shape).reshape(n)
    return s_b, t_b, c_b, scalar


@dataclass(frozen=True)
class ConstantWeight:
    """omega(s, t, c) = omega everywhere."""

    omega: float = 0.0

    def weight(self, s, t, c=None):
        s_b, _, _, scalar = _broadcast_inputs(s, t, c)
        out = np.full(s_b.shape, float(self.omega))
        return float(out[0]) if scalar else out


@dataclass(frozen=True)
class GuidanceArch:
    """The architecture GuidanceNet.create builds; the config's guidance section."""

    embed_hidden: int = 256
    embed_dim: int = 512
    trunk_hidden: int = 64
    trunk_layers: int = 6
    dropout: float = 0.3
    allow_negative: bool = True
    zero_init: bool = True
    logsnr_clip: float = 13.8

    def __post_init__(self):
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must lie in [0, 1), got {self.dropout}")
        for name, least in (("embed_hidden", 1), ("embed_dim", 1), ("trunk_hidden", 1),
                            ("trunk_layers", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be at least {least}, got {getattr(self, name)}")
        if self.logsnr_clip <= 0.0:  # a nonpositive clip makes the time features constant
            raise ValueError(f"logsnr_clip must be positive, got {self.logsnr_clip}")


class GuidanceNet:
    """Neural omega(s, t, c).

    Both times are mapped to logSNR, clamped to +/- logsnr_clip, embedded by a
    shared two-layer MLP, concatenated with the one-hot class, and fed to a
    GeLU trunk with a scalar linear head. With allow_negative=False the head
    output is passed through ReLU instead.
    """

    def __init__(self, embed: dict, trunk: dict, n_classes: int, params=None,
                 allow_negative: bool = True, logsnr_clip: float = 13.8):
        """embed and trunk are the nn.Mlp arguments of the two nets other than
        params; both nets view the one vector params, embed first (zeros when None)."""
        split = nn.n_params(embed["sizes"])
        self.params = (np.zeros(split + nn.n_params(trunk["sizes"])) if params is None
                       else np.asarray(params, dtype=float))
        self.embed = nn.Mlp(params=self.params[:split], **embed)
        self.trunk = nn.Mlp(params=self.params[split:], **trunk)
        e, t = self.embed.sizes, self.trunk.sizes
        if (e[0], t[0], t[-1]) != (2, e[-1] + n_classes, 1):
            raise ValueError(f"layer sizes do not fit: embed {e}, trunk {t}, n_classes {n_classes}")
        self.n_classes = n_classes
        self.allow_negative = allow_negative
        self.logsnr_clip = logsnr_clip

    @classmethod
    def create(cls, n_classes: int, rng, **arch):
        """Build GuidanceArch(**arch); zero_init starts the net at omega == 0."""
        a = GuidanceArch(**arch)
        head = "identity" if a.allow_negative else "relu"
        net = cls({"sizes": [2, a.embed_hidden, a.embed_dim], "output_activation": "gelu",
                   "dropout_rate": a.dropout},
                  {"sizes": [a.embed_dim + n_classes] + [a.trunk_hidden] * a.trunk_layers + [1],
                   "output_activation": head},
                  n_classes, None, a.allow_negative, a.logsnr_clip)
        net.embed.init_glorot(rng)
        net.trunk.init_glorot(rng, zero_final=a.zero_init)
        return net

    def parameters(self):
        return self.embed.parameters() + self.trunk.parameters()

    def _time_features(self, s_b, t_b):
        clip = self.logsnr_clip
        snr_s = np.clip(SCHEDULE.logsnr(s_b), -clip, clip)
        snr_t = np.clip(SCHEDULE.logsnr(t_b), -clip, clip)
        return np.stack([snr_s, snr_t], axis=-1)

    def weight_with_tape(self, s, t, c, train=False, rng=None, tape=True):
        """omega values (n,) plus the tape needed for backward() (None with tape=False)."""
        s_b, t_b, c_b, _ = _broadcast_inputs(s, t, c)
        feats = self._time_features(s_b, t_b)
        emb, tape_e = self.embed.forward(feats, train=train, rng=rng, tape=tape)
        onehot = nn.class_onehot(c_b, self.n_classes, n=s_b.shape[0])
        out, tape_t = self.trunk.forward(np.concatenate([emb, onehot], axis=1),
                                         train=train, rng=rng, tape=tape)
        return out[:, 0], {"embed": tape_e, "trunk": tape_t} if tape else None

    def backward(self, tape, d_omega):
        """Flat parameter gradient, in the layout of params, for cotangent d_omega (n,)."""
        grad = np.empty_like(self.params)
        split = self.embed.params.size
        _, d_in = self.trunk.backward(tape["trunk"], np.asarray(d_omega)[:, None],
                                      out=grad[split:])
        self.embed.backward(tape["embed"], d_in[:, :-self.n_classes], out=grad[:split])
        return grad

    def weight(self, s, t, c=None):
        _, _, _, scalar = _broadcast_inputs(s, t, c)
        out, _ = self.weight_with_tape(s, t, c, tape=False)
        return float(out[0]) if scalar else out


def guided_denoise(cond, uncond, x_t, t, c, omega):
    """Combine conditional and unconditional denoisers at guidance weight omega.

    Args:
        cond, uncond: denoisers; uncond is queried with c = None.
        omega: scalar or (n,) array of per-row weights.

    Returns:
        (guided, delta) where delta = xhat_c - xhat_uncond. Scalar omega 0
        and -1 return the conditional and unconditional estimates exactly.
    """
    xc = cond.denoise(x_t, t, c)
    xu = uncond.denoise(x_t, t, None)
    delta = xc - xu
    omega_arr = np.asarray(omega, dtype=float)
    if omega_arr.ndim > 0 and omega_arr.size > 0 and np.all(omega_arr == omega_arr.flat[0]):
        omega_arr = omega_arr.flat[0]  # uniform weights take the scalar path
    if omega_arr.ndim == 0:
        w = float(omega_arr)
        if w == 0.0:
            return xc, delta
        if w == -1.0:
            return xu, delta
        return xc + w * delta, delta
    return xc + omega_arr[:, None] * delta, delta


def weight_grid_times(dt: float = 0.01, zeta: float = DEFAULT_CLAMP):
    """Destination/source time pairs (s, t) with s = t - dt covering [zeta, 1 - zeta]."""
    n = int(np.floor((1.0 - 2.0 * zeta) / dt + 1e-9))
    t = zeta + dt * np.arange(1, n + 1)
    return t - dt, t


def export_weight_grid(fn, n_classes: int, dt: float = 0.01, zeta: float = DEFAULT_CLAMP):
    """Tabulate omega(t - dt, t, c) for every class on the standard time grid.

    Each grid time is evaluated on every class at once, the rows the sampler
    evaluates, so the table holds the exact values the sampler would apply
    (a GuidanceNet row's last bits depend on how many rows are evaluated
    together).

    Returns:
        (t, omegas) with t of shape (n,) and omegas of shape (n_classes, n).
    """
    s, t = weight_grid_times(dt, zeta)
    classes = np.arange(n_classes)
    omegas = np.stack([np.asarray(fn.weight(s[j], t[j], classes))
                       for j in range(t.shape[0])], axis=1)
    return t, omegas


def mean_abs_weight(fn, n_classes: int, dt: float = 0.01, zeta: float = DEFAULT_CLAMP) -> float:
    """Mean |omega| over the standard probe grid; the 'how guided is it' scalar."""
    _, omegas = export_weight_grid(fn, n_classes, dt, zeta)
    return float(np.mean(np.abs(omegas)))
