"""Guidance weight functions omega(s, t, c) and the guided denoiser combination.

The guided estimate is

    xhat(x_t, c; omega) = xhat(x_t, c) + omega * (xhat(x_t, c) - xhat(x_t))

so omega = 0 is the conditional denoiser and omega = -1 the unconditional
one. Two weight functions exist: a constant, the classifier-free
guidance baseline, and a small neural net over (logSNR s, logSNR t, one-hot
c), the learned weights. The net's time features and the weight table's time
grid are the schedule's (schedule.logsnr_feature, ZETA, GRID_DT).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .domains import check_fields, within
from .schedule import GRID_DT, ZETA, logsnr_feature


@dataclass(frozen=True)
class ConstantWeight:
    """omega(s, t, c) = omega everywhere."""

    omega: float = 0.0

    def weight(self, s, t, c):
        """omega at each label of c (n,), shape (n,)."""
        return np.full(np.shape(c), float(self.omega))


@dataclass(frozen=True)
class GuidanceArch:
    """The architecture GuidanceNet.create builds; the config's guidance section."""

    embed_hidden: int = within(256, 1)
    embed_dim: int = within(512, 1)
    trunk_hidden: int = within(64, 1)
    trunk_layers: int = within(6, 0)
    dropout: float = within(0.3, 0.0, 1.0, "[)")
    zero_init: bool = True

    def __post_init__(self):
        check_fields(self)


class GuidanceNet:
    """Neural omega(s, t, c).

    Both times are mapped to their clipped logSNR (schedule.logsnr_feature),
    embedded by a shared two-layer MLP, concatenated with the one-hot class,
    and fed to a GeLU trunk with a scalar linear head.
    """

    def __init__(self, embed: dict, trunk: dict, n_classes: int, params=None):
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

    @classmethod
    def create(cls, n_classes: int, rng, **arch):
        """Build GuidanceArch(**arch); zero_init starts the net at omega == 0."""
        a = GuidanceArch(**arch)
        net = cls({"sizes": [2, a.embed_hidden, a.embed_dim], "output_activation": "gelu_tanh",
                   "dropout_rate": a.dropout},
                  {"sizes": [a.embed_dim + n_classes] + [a.trunk_hidden] * a.trunk_layers + [1]},
                  n_classes)
        net.embed.init_glorot(rng)
        net.trunk.init_glorot(rng, zero_final=a.zero_init)
        return net

    def parameters(self):
        return self.embed.parameters() + self.trunk.parameters()

    def weight_with_tape(self, s, t, c, train=False, rng=None, tape=True):
        """omega at labels c (n,) and times s, t (scalars or (n,)), shape (n,), plus
        the tape needed for backward() (None with tape=False)."""
        times = [np.broadcast_to(np.asarray(u, dtype=float), np.shape(c)) for u in (s, t)]
        feats = np.stack([logsnr_feature(u) for u in times], axis=-1)
        emb, tape_e = self.embed.forward(feats, train=train, rng=rng, tape=tape)
        out, tape_t = self.trunk.forward(
            np.concatenate([emb, nn.class_onehot(c, self.n_classes)], axis=1),
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

    def weight(self, s, t, c):
        """omega(s, t, c) at labels c (n,), shape (n,); s and t are scalars or (n,)."""
        return self.weight_with_tape(s, t, c, tape=False)[0]


def guided_denoise(cond, uncond, x_t, t, c, omega):
    """Combine conditional and unconditional denoisers at guidance weight omega.

    Args:
        cond, uncond: denoisers; uncond is queried with c = None.
        omega: scalar or (n,) array of per-row weights.

    Returns:
        (xhat_c + omega delta, delta) where delta = xhat_c - xhat_uncond.
    """
    xc = cond.denoise(x_t, t, c)
    delta = xc - uncond.denoise(x_t, t, None)
    return xc + np.asarray(omega, dtype=float)[..., None] * delta, delta


def weight_grid_times():
    """Destination/source time pairs (s, t) with s = t - GRID_DT covering [ZETA, 1 - ZETA]."""
    n = int(np.floor((1.0 - 2.0 * ZETA) / GRID_DT + 1e-9))
    t = ZETA + GRID_DT * np.arange(1, n + 1)
    return t - GRID_DT, t


def export_weight_grid(fn, n_classes: int):
    """Tabulate omega(t - GRID_DT, t, c) for every class on the standard time grid.

    Each grid time is evaluated on every class at once, the rows the sampler
    evaluates, so the table holds the exact values the sampler would apply
    (a GuidanceNet row's last bits depend on how many rows are evaluated
    together).

    Returns:
        (t, omegas) with t of shape (n,) and omegas of shape (n_classes, n).
    """
    s, t = weight_grid_times()
    classes = np.arange(n_classes)
    omegas = np.stack([fn.weight(s[j], t[j], classes) for j in range(t.shape[0])], axis=1)
    return t, omegas


def mean_abs_weight(fn, n_classes: int) -> float:
    """Mean |omega| over the standard time grid; the 'how guided is it' scalar."""
    _, omegas = export_weight_grid(fn, n_classes)
    return float(np.mean(np.abs(omegas)))
