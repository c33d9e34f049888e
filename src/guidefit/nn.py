"""Minimal dense-network toolkit with hand-written reverse-mode gradients.

Everything here is plain numpy: an Mlp whose forward pass returns a tape and
whose backward pass consumes it, Adam with bias correction, global-norm
gradient clipping, an exponential moving average of parameters, and the
sinusoidal feature embedding used for time conditioning.

Inference (teacher calls, weight evaluation) runs forward(tape=False): no
per-layer arrays are kept and activations run in place, with bit-equal output.
The tape keeps GeLU's 1 + erf(z / sqrt 2), so backward needs no second erf.

Parameter order is canonical everywhere: [W0, b0, W1, b1, ...] with weights
stored (out, in) and flattened row-major. Checkpoints, Adam and EMA states,
and flat parameter vectors all follow it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import erf

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)


def gelu(x, out=None):
    """Exact GeLU x Phi(x) as (0.5 x) (1 + erf(x / sqrt 2)); out=x works in place.

    Returns (y, cdf) with cdf = 1 + erf(x / sqrt 2) = 2 Phi(x), for gelu_grad.
    """
    cdf = x * _INV_SQRT2
    erf(cdf, out=cdf)
    cdf += 1.0
    y = np.multiply(x, 0.5, out=out)
    y *= cdf
    return y, cdf


def gelu_grad(x, cdf):
    """0.5 cdf + x phi(x) = Phi(x) + x phi(x), with cdf from gelu (no second erf)."""
    phi = -0.5 * x
    phi *= x
    np.exp(phi, out=phi)
    phi *= _INV_SQRT2PI
    phi *= x
    grad = cdf * 0.5
    grad += phi
    return grad


# name: (forward(z, out) -> (h, kept for the derivative), derivative(z, kept))
_ACTIVATIONS = {
    "gelu": (gelu, gelu_grad),
    "relu": (lambda x, out=None: (np.maximum(x, 0.0, out=out), None),
             lambda x, _: (x > 0.0).astype(float)),
    "identity": (lambda x, out=None: (x, None), lambda x, _: np.ones_like(x)),
}


class Mlp:
    """Fully connected net: affine layers with an activation after each hidden one.

    forward() returns (y, tape); backward(tape, dy) returns the parameter
    gradients in canonical order plus the gradient with respect to the input,
    so nets can be chained.
    """

    def __init__(self, weights, biases, hidden_activation="gelu",
                 output_activation="identity", dropout_rate=0.0):
        if len(weights) != len(biases) or not weights:
            raise ValueError("need equally many weights and biases, at least one layer")
        for act in (hidden_activation, output_activation):
            if act not in _ACTIVATIONS:
                raise ValueError(f"unknown activation {act!r}")
        if not 0.0 <= dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must lie in [0, 1), got {dropout_rate}")
        self.weights = [np.asarray(w, dtype=float) for w in weights]
        self.biases = [np.asarray(b, dtype=float) for b in biases]
        self.hidden_activation = hidden_activation
        self.output_activation = output_activation
        self.dropout_rate = dropout_rate

    @classmethod
    def create(cls, sizes, rng, hidden_activation="gelu", output_activation="identity",
               dropout_rate=0.0, zero_final=False):
        """Glorot-normal weights (var 2 / (fan_in + fan_out)), zero biases.

        zero_final zeroes the last layer so the net starts as the constant 0.
        """
        if len(sizes) < 2:
            raise ValueError("sizes needs an input and an output dimension")
        weights, biases = [], []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            std = np.sqrt(2.0 / (fan_in + fan_out))
            weights.append(std * rng.standard_normal((fan_out, fan_in)))
            biases.append(np.zeros(fan_out))
        if zero_final:
            weights[-1][:] = 0.0
        return cls(weights, biases, hidden_activation, output_activation, dropout_rate)

    @property
    def sizes(self):
        return [self.weights[0].shape[1]] + [w.shape[0] for w in self.weights]

    def parameters(self):
        """Canonical parameter list [W0, b0, W1, b1, ...] (live arrays)."""
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend((w, b))
        return out

    def forward(self, x, train=False, rng=None, tape=True):
        """Run the net on x of shape (n, d_in).

        Returns (y, tape). Dropout (inverted, rate self.dropout_rate) is applied
        after each hidden activation only when train=True; rng is required then.
        With tape=False the tape is None and each activation overwrites its
        pre-activation: the same operations in the same order, so y is bit-equal.
        """
        h = np.atleast_2d(np.asarray(x, dtype=float))
        del x  # without a tape, the input is freed once the first layer has read it
        act, _ = _ACTIVATIONS[self.hidden_activation]
        out_act, _ = _ACTIVATIONS[self.output_activation]
        use_dropout = train and self.dropout_rate > 0.0
        if use_dropout and rng is None:
            raise ValueError("dropout needs an rng in training mode")
        keep = 1.0 - self.dropout_rate

        pre, post, masks, kept = [], [h] if tape else [], [], []
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = h @ w.T
            z += b
            h, k = (out_act if i == last else act)(z, out=None if tape else z)
            mask = None
            if i < last and use_dropout:
                mask = (rng.random(h.shape) < keep) / keep
                h = h * mask
            if tape:
                pre.append(z)
                kept.append(k)
                post.append(h)
                masks.append(mask)
        return h, {"pre": pre, "post": post, "masks": masks, "kept": kept} if tape else None

    def backward(self, tape, dy):
        """Backpropagate cotangent dy of shape (n, d_out) through the tape.

        Returns (grads, dx): grads in canonical parameter order (summed over
        the batch), dx of shape (n, d_in).
        """
        _, act_grad = _ACTIVATIONS[self.hidden_activation]
        _, out_act_grad = _ACTIVATIONS[self.output_activation]
        pre, post, masks, kept = tape["pre"], tape["post"], tape["masks"], tape["kept"]
        last = len(self.weights) - 1

        g = np.asarray(dy, dtype=float) * out_act_grad(pre[last], kept[last])
        grads = [None] * (2 * len(self.weights))
        for i in range(last, -1, -1):
            grads[2 * i] = g.T @ post[i]      # dW, shape (out, in)
            grads[2 * i + 1] = g.sum(axis=0)  # db
            g = g @ self.weights[i]
            if i > 0:
                if masks[i - 1] is not None:
                    g = g * masks[i - 1]
                g = g * act_grad(pre[i - 1], kept[i - 1])
        return grads, g


def flatten_params(params) -> np.ndarray:
    return np.concatenate([np.asarray(p, dtype=float).ravel() for p in params])


def set_flat_params(params, flat):
    """Write a flat vector back into live parameter arrays (canonical order)."""
    flat = np.asarray(flat, dtype=float)
    offset = 0
    for p in params:
        n = p.size
        p[...] = flat[offset:offset + n].reshape(p.shape)
        offset += n
    if offset != flat.size:
        raise ValueError(f"flat vector has {flat.size} entries, parameters need {offset}")


def clip_global_norm(grads, max_norm):
    """Scale grads so their joint l2 norm is at most max_norm.

    Returns (grads, pre_clip_norm). max_norm None or <= 0 disables clipping.
    """
    norm = float(np.sqrt(sum(float(np.sum(g * g)) for g in grads)))
    if max_norm is None or max_norm <= 0.0 or norm <= max_norm:
        return list(grads), norm
    scale = max_norm / norm
    return [g * scale for g in grads], norm


@dataclass
class AdamState:
    """Adam with bias correction."""

    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)

    @classmethod
    def for_params(cls, params, lr, **kwargs):
        state = cls(lr=lr, **kwargs)
        state.m = [np.zeros_like(p) for p in params]
        state.v = [np.zeros_like(p) for p in params]
        return state


def adam_step(state: AdamState, params, grads):
    """Apply one Adam update in place. Raises on non-finite gradients."""
    if len(params) != len(state.m) or len(params) != len(grads):
        raise ValueError("params, grads, and state must be congruent")
    for i, g in enumerate(grads):
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient in parameter block {i}")
    state.step += 1
    b1, b2 = state.beta1, state.beta2
    bc1 = 1.0 - b1**state.step
    bc2 = 1.0 - b2**state.step
    for p, g, m, v in zip(params, grads, state.m, state.v):
        # m = b1 m + (1 - b1) g and v = b2 v + (1 - b2) g g, then
        # p = p - lr (m / bc1) / (sqrt(v / bc2) + eps), all in place
        m *= b1
        m += (1.0 - b1) * g
        gg = (1.0 - b2) * g
        gg *= g
        v *= b2
        v += gg
        denom = v / bc2
        np.sqrt(denom, out=denom)
        denom += state.eps
        update = m / bc1
        update /= denom
        update *= state.lr
        p -= update


@dataclass
class EmaState:
    """Exponential moving average: shadow <- decay * shadow + (1 - decay) * live."""

    decay: float
    shadow: list

    @classmethod
    def for_params(cls, params, decay):
        if not 0.0 <= decay < 1.0:
            raise ValueError(f"decay must lie in [0, 1), got {decay}")
        return cls(decay=decay, shadow=[np.array(p, dtype=float) for p in params])

    def update(self, params):
        for s, p in zip(self.shadow, params):
            s *= self.decay
            s += (1.0 - self.decay) * p


def sinusoidal_embedding(x, dim: int, max_period: float = 1e4):
    """Map scalars to dim-dimensional [sin, cos] features at geometric frequencies.

    Args:
        x: array of shape (...,).
        dim: even embedding width.

    Returns:
        array of shape (..., dim).
    """
    if dim % 2 != 0:
        raise ValueError(f"embedding dim must be even, got {dim}")
    x = np.asarray(x, dtype=float)
    half = dim // 2
    freqs = np.exp(-np.log(max_period) * np.arange(half) / half)
    angles = x[..., None] * freqs
    return np.concatenate([np.sin(angles), np.cos(angles)], axis=-1)


def class_onehot(c, n_classes: int, n: int | None = None):
    """One-hot rows for class labels; c = None is the null token (all zeros).

    Args:
        c: None, an int, or an int array of shape (n,).
        n_classes: width of the encoding.
        n: row count, required when c is None or scalar and a batch is wanted.
    """
    if c is None:
        if n is None:
            raise ValueError("need n to build null-token rows")
        return np.zeros((n, n_classes))
    c = np.asarray(c)
    if c.ndim == 0:
        c = np.full(n if n is not None else 1, int(c))
    if np.any((c < 0) | (c >= n_classes)):
        raise ValueError("class label out of range")
    out = np.zeros((c.shape[0], n_classes))
    out[np.arange(c.shape[0]), c] = 1.0
    return out
