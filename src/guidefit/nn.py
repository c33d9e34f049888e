"""Minimal dense-network toolkit with hand-written reverse-mode gradients.

Everything here is plain numpy: an Mlp whose forward pass returns a tape and
whose backward pass consumes it, Adam with bias correction, global-norm
gradient clipping, an exponential moving average of parameters, and the
sinusoidal feature embedding used for time conditioning.

Inference (teacher calls, weight evaluation) runs forward(tape=False): no
per-layer arrays are kept and activations run in place, with bit-equal output.
The neural teacher's calls also pass dtype=float32, on weights cast from the
float64 params on every call.
GeLU is the tanh form; the tape keeps its 1 + tanh(u), so backward needs no
transcendental.

Each net's parameters are one contiguous vector in canonical order
[W0, b0, W1, b1, ...], weights stored (out, in) row-major; weights and biases
are views of it. Gradients, Adam's moments, the EMA shadow, training
snapshots and checkpoints share that layout, so Adam and the EMA are one
vector operation each. Only clip_global_norm still walks the blocks: it sums
the squared norm block by block, because one np.sum over the whole vector
pairs the terms differently and would round the norm, and with it every
clipped step, differently.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

# u = sqrt(2 / pi) (x + 0.044715 x^3), computed as x (C + CK x^2)
_C = np.sqrt(2.0 / np.pi)
_CK = _C * 0.044715


def gelu(x, out=None):
    """Tanh-form GeLU 0.5 x (1 + tanh u) (Hendrycks & Gimpel, 2016); out=x works
    in place. Returns (y, cdf) with cdf = 1 + tanh u, for gelu_grad. The
    constants take x's dtype, so float32 input is computed in float32."""
    cdf = x * x
    cdf *= x.dtype.type(_CK)
    cdf += x.dtype.type(_C)
    cdf *= x
    np.tanh(cdf, out=cdf)
    cdf += 1.0
    y = np.multiply(x, 0.5, out=out)
    y *= cdf
    return y, cdf


def gelu_grad(x, cdf):
    """0.5 cdf + 0.5 x u'(x) (1 - tanh^2 u) = (0.5 + 0.5 x u'(x) (2 - cdf)) cdf, as
    1 - tanh^2 u = cdf (2 - cdf), with cdf from gelu. NaN once x^3 overflows
    (|x| > 1e103)."""
    grad = x * x
    grad *= 1.5 * _CK
    grad += 0.5 * _C
    grad *= x
    grad *= 2.0 - cdf
    grad += 0.5
    grad *= cdf
    return grad


# name: (forward(z, out) -> (h, kept for the derivative), derivative(z, kept))
_ACTIVATIONS = {
    "gelu_tanh": (gelu, gelu_grad),
    "identity": (lambda x, out=None: (x, None), lambda x, _: np.ones_like(x)),
}


def n_params(sizes) -> int:
    """Length of the parameter vector of an Mlp with these layer sizes."""
    return sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(sizes[:-1], sizes[1:]))


class Mlp:
    """Fully connected net: affine layers with an activation after each hidden one.

    It views params, a contiguous vector of n_params(sizes) floats (zeros when
    None): weights and biases are views of it. forward() returns (y, tape);
    backward(tape, dy) returns the parameter gradient in the layout of params
    plus the gradient with respect to the input, so nets can be chained.
    """

    def __init__(self, sizes, params=None, hidden_activation="gelu_tanh",
                 output_activation="identity", dropout_rate=0.0):
        self.sizes = [operator.index(s) for s in sizes]
        if len(self.sizes) < 2:
            raise ValueError("sizes needs an input and an output dimension")
        for act in (hidden_activation, output_activation):
            if act not in _ACTIVATIONS:
                raise ValueError(f"unknown activation {act!r}")
        if not 0.0 <= dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must lie in [0, 1), got {dropout_rate}")
        n = n_params(self.sizes)
        self.params = np.zeros(n) if params is None else np.asarray(params, dtype=float)
        if self.params.shape != (n,) or not self.params.flags.c_contiguous:
            raise ValueError(f"sizes {self.sizes} need a contiguous vector of {n} params, "
                             f"got shape {self.params.shape}")
        blocks = self._blocks(self.params)
        self.weights, self.biases = blocks[0::2], blocks[1::2]
        self.hidden_activation = hidden_activation
        self.output_activation = output_activation
        self.dropout_rate = dropout_rate

    def init_glorot(self, rng, zero_final=False):
        """Draw Glorot-normal weights (var 2 / (fan_in + fan_out)) in place, layer by
        layer, and return the net; zero_final zeroes the last layer (constant 0 net)."""
        for w in self.weights:
            w[...] = np.sqrt(2.0 / sum(w.shape)) * rng.standard_normal(w.shape)
        if zero_final:
            self.weights[-1][...] = 0.0
        return self

    def _blocks(self, flat):
        """Views of flat in canonical order [W0, b0, W1, b1, ...], W stored (out, in)."""
        out, lo = [], 0
        for fan_in, fan_out in zip(self.sizes[:-1], self.sizes[1:]):
            mid, hi = lo + fan_in * fan_out, lo + (fan_in + 1) * fan_out
            out += [flat[lo:mid].reshape(fan_out, fan_in), flat[mid:hi]]
            lo = hi
        return out

    def parameters(self):
        """Canonical parameter blocks [W0, b0, W1, b1, ...], views of params."""
        return self._blocks(self.params)

    def forward(self, x, train=False, rng=None, tape=True, pre0=None, dtype=np.float64):
        """Run the net on x of shape (n, d_in).

        Returns (y, tape). Dropout (inverted, rate self.dropout_rate) is applied
        after each hidden activation only when train=True; rng is required then.
        With tape=False the tape is None and each activation overwrites its
        pre-activation: the same operations in the same order, so y is bit-equal.

        pre0, shape (n, sizes[1]), replaces layer 0's affine map x W0^T + b0 for
        a caller that computes it in parts; x is then not read, and pre0 is
        overwritten (or cast to dtype). It needs tape=False.

        dtype is the precision of the activations and of y. In another precision
        than params, the weights and biases are cast from params on every call,
        so the pass follows in-place updates of params.
        """
        h = np.atleast_2d(np.asarray(x, dtype=dtype))
        del x  # without a tape, the input is freed once the first layer has read it
        if pre0 is not None and (tape or pre0.shape != (h.shape[0], self.sizes[1])):
            raise ValueError(f"pre0 needs tape=False and shape {(h.shape[0], self.sizes[1])}")
        weights, biases = self.weights, self.biases
        if h.dtype != self.params.dtype:
            blocks = self._blocks(self.params.astype(h.dtype))
            weights, biases = blocks[0::2], blocks[1::2]
        act, _ = _ACTIVATIONS[self.hidden_activation]
        out_act, _ = _ACTIVATIONS[self.output_activation]
        use_dropout = train and self.dropout_rate > 0.0
        if use_dropout and rng is None:
            raise ValueError("dropout needs an rng in training mode")
        keep = 1.0 - self.dropout_rate

        pre, post, masks, kept = [], [h] if tape else [], [], []
        last = len(weights) - 1
        for i, (w, b) in enumerate(zip(weights, biases)):
            if i == 0 and pre0 is not None:
                z, pre0 = pre0.astype(h.dtype, copy=False), None  # held by z alone
            else:
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
            del k  # without a tape, GeLU's cdf is freed before the next layer's product
        return h, {"pre": pre, "post": post, "masks": masks, "kept": kept} if tape else None

    def backward(self, tape, dy, out=None):
        """Backpropagate cotangent dy of shape (n, d_out) through the tape.

        Returns (grad, dx): grad the parameter gradient (summed over the batch)
        in the layout of params, written into out when given, and dx of shape
        (n, d_in).
        """
        _, act_grad = _ACTIVATIONS[self.hidden_activation]
        _, out_act_grad = _ACTIVATIONS[self.output_activation]
        pre, post, masks, kept = tape["pre"], tape["post"], tape["masks"], tape["kept"]
        last = len(self.weights) - 1

        g = np.asarray(dy, dtype=float) * out_act_grad(pre[last], kept[last])
        grad = np.empty_like(self.params) if out is None else out
        blocks = self._blocks(grad)
        for i in range(last, -1, -1):
            np.matmul(g.T, post[i], out=blocks[2 * i])  # dW, shape (out, in)
            g.sum(axis=0, out=blocks[2 * i + 1])         # db
            g = g @ self.weights[i]
            if i > 0:
                if masks[i - 1] is not None:
                    g = g * masks[i - 1]
                g = g * act_grad(pre[i - 1], kept[i - 1])
        return grad, g


def clip_global_norm(grad, max_norm, blocks):
    """Scale the flat gradient grad in place so its l2 norm is at most max_norm.

    blocks are the parameter blocks grad is laid out as (a net's
    parameters()); the squared norm is summed block by block in their order.
    Returns the norm before clipping. max_norm inf or <= 0 disables clipping.
    """
    ends = np.cumsum([b.size for b in blocks])[:-1]
    norm = float(np.sqrt(sum(float(np.sum(g * g)) for g in np.split(grad, ends))))
    if not (max_norm <= 0.0 or norm <= max_norm):
        grad *= max_norm / norm
    return norm


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """Adam at ADAM_BETA1, ADAM_BETA2, ADAM_EPS, with bias correction; flat m and v."""

    lr: float
    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def for_params(cls, params, lr):
        return cls(lr, np.zeros_like(params), np.zeros_like(params))


def adam_step(state: AdamState, params, grad):
    """Apply one Adam update to the flat params in place. Raises on a non-finite gradient."""
    if params.shape != state.m.shape or grad.shape != params.shape:
        raise ValueError("params, grad, and state must be congruent")
    if not np.all(np.isfinite(grad)):
        raise FloatingPointError("non-finite gradient")
    state.step += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    bc1 = 1.0 - b1**state.step
    bc2 = 1.0 - b2**state.step
    # m = b1 m + (1 - b1) g and v = b2 v + (1 - b2) g g, then
    # p = p - lr (m / bc1) / (sqrt(v / bc2) + eps), all in place
    state.m *= b1
    state.m += (1.0 - b1) * grad
    tmp = (1.0 - b2) * grad
    tmp *= grad
    state.v *= b2
    state.v += tmp
    denom = np.divide(state.v, bc2, out=tmp)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    update = state.m / bc1
    update /= denom
    update *= state.lr
    params -= update


@dataclass
class EmaState:
    """Exponential moving average: shadow <- decay * shadow + (1 - decay) * live."""

    decay: float
    shadow: np.ndarray

    @classmethod
    def for_params(cls, params, decay):
        """A shadow copy of params; decay lies in [0, 1), as TrainConfig.ema_decay."""
        return cls(decay=decay, shadow=np.array(params, dtype=float))

    def update(self, params):
        self.shadow *= self.decay
        self.shadow += (1.0 - self.decay) * params


def sinusoidal_embedding(x, dim: int):
    """Map scalars to dim-dimensional [sin, cos] features at geometric frequencies
    from 1 down to 1 / 1e4.

    Args:
        x: array of shape (...,).
        dim: even embedding width.

    Returns:
        array of shape (..., dim).
    """
    x = np.asarray(x, dtype=float)
    half = dim // 2
    freqs = np.exp(-np.log(1e4) * np.arange(half) / half)
    angles = x[..., None] * freqs
    return np.concatenate([np.sin(angles), np.cos(angles)], axis=-1)


def class_labels(c, n_classes: int):
    """Class labels c, an (n,) int array, checked to lie in [0, n_classes)."""
    c = np.asarray(c)
    if np.any((c < 0) | (c >= n_classes)):
        raise ValueError("class label out of range")
    return c


def class_onehot(c, n_classes: int):
    """One-hot rows, (n, n_classes), for class labels c, an (n,) int array."""
    c = class_labels(c, n_classes)
    out = np.zeros((c.shape[0], n_classes))
    out[np.arange(c.shape[0]), c] = 1.0
    return out
