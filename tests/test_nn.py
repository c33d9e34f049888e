"""Network-toolkit checks: activations, backprop, optimizers, embeddings."""

import numpy as np
import pytest
from scipy.special import erf

from guidefit import nn
from guidefit.rng import stream


def test_gelu_matches_gaussian_cdf_form():
    # the tanh form against exact x Phi(x) and its derivative; worst errors on
    # this grid 4.73e-4 and 8.68e-4
    x = np.linspace(-6.0, 6.0, 120001)
    y, cdf = nn.gelu(x)
    cdf_exact = 1.0 + erf(x / np.sqrt(2.0))
    assert np.max(np.abs(y - 0.5 * x * cdf_exact)) <= 5e-4
    grad_exact = 0.5 * cdf_exact + x * np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)
    assert np.max(np.abs(nn.gelu_grad(x, cdf) - grad_exact)) <= 1e-3


def test_gelu_grad_matches_finite_differences():
    x = np.linspace(-3.0, 3.0, 25)
    h = 1e-6
    fd = (nn.gelu(x + h)[0] - nn.gelu(x - h)[0]) / (2.0 * h)
    assert np.max(np.abs(nn.gelu_grad(x, nn.gelu(x)[1]) - fd)) < 1e-9


def _blocks(net, flat):
    """Views of a vector in net's parameter layout, [W0, b0, W1, b1, ...]."""
    return nn.Mlp(net.sizes, flat).parameters()


def test_mlp_create_shapes_and_zero_final():
    net = nn.Mlp([3, 8, 2]).init_glorot(stream(0, "test/init"), zero_final=True)
    assert net.sizes == [3, 8, 2]
    assert np.all(net.weights[-1] == 0.0)
    x = stream(1, "test/x").standard_normal((4, 3))
    y, _ = net.forward(x)
    assert np.all(y == 0.0)


def test_mlp_backward_matches_finite_differences():
    net = nn.Mlp([3, 8, 8, 2]).init_glorot(stream(2, "test/init"))
    x = stream(3, "test/x").standard_normal((5, 3))
    v = stream(4, "test/v").standard_normal((5, 2))  # fixed cotangent

    def loss():
        y, _ = net.forward(x)
        return float(np.sum(y * v))

    _, tape = net.forward(x)
    gflat, dx = net.backward(tape, v)
    flat = net.params.copy()
    h = 1e-6
    rng = stream(5, "test/coords")
    for i in rng.choice(flat.size, size=40, replace=False):
        fp = flat.copy()
        fp[i] += h
        net.params[:] = fp
        up = loss()
        fp[i] -= 2.0 * h
        net.params[:] = fp
        down = loss()
        net.params[:] = flat
        fd = (up - down) / (2.0 * h)
        assert abs(fd - gflat[i]) < 1e-6 * max(1.0, abs(fd))

    # input cotangent
    for j in range(3):
        xp = x.copy()
        xp[0, j] += h
        yp, _ = net.forward(xp)
        xp[0, j] -= 2.0 * h
        ym, _ = net.forward(xp)
        fd = float(np.sum((yp - ym) * v)) / (2.0 * h)
        assert abs(fd - dx[0, j]) < 1e-6 * max(1.0, abs(fd))


def test_dropout_forward_backward_consistent_with_tape_masks():
    net = nn.Mlp([2, 16, 1], dropout_rate=0.4).init_glorot(stream(6, "test/init"))
    x = stream(7, "test/x").standard_normal((7, 2))
    y, tape = net.forward(x, train=True, rng=stream(8, "test/drop"))
    mask = tape["masks"][0]
    z0 = x @ net.weights[0].T + net.biases[0]
    h0, cdf0 = nn.gelu(z0)
    h = h0 * mask
    assert np.allclose(y, h @ net.weights[1].T + net.biases[1], atol=1e-12)

    dy = np.ones_like(y)
    grad, dx = net.backward(tape, dy)
    grads = _blocks(net, grad)
    g = (dy @ net.weights[1]) * mask * nn.gelu_grad(z0, cdf0)
    assert np.allclose(grads[0], g.T @ x, atol=1e-12)
    assert np.allclose(grads[1], g.sum(axis=0), atol=1e-12)
    assert np.allclose(grads[2], dy.T @ h, atol=1e-12)
    assert np.allclose(dx, g @ net.weights[0], atol=1e-12)


@pytest.mark.parametrize("rows", [1, 3, 4096])
@pytest.mark.parametrize("hidden, output", [("gelu_tanh", "identity"), ("identity", "identity"),
                                            ("gelu_tanh", "gelu_tanh")],
                         ids=["gelu-identity", "identity-identity", "gelu-gelu"])
def test_tape_free_forward_is_bit_equal(hidden, output, rows):
    net = nn.Mlp([6, 32, 32, 3], hidden_activation=hidden,
                 output_activation=output).init_glorot(stream(12, "test/init"))
    for i, b in enumerate(net.biases):
        b[...] = stream(13 + i, "test/b").standard_normal(b.shape)
    x = stream(14, "test/x").standard_normal((rows, 6)) * 3.0
    y, _ = net.forward(x)
    y_free, no_tape = net.forward(x, tape=False)
    assert no_tape is None
    assert y_free.tobytes() == y.tobytes()


def test_forward_from_a_given_first_pre_activation():
    net = nn.Mlp([6, 32, 32, 3]).init_glorot(stream(12, "test/init"))
    x = stream(14, "test/x").standard_normal((5, 6)) * 3.0
    pre0 = x @ net.weights[0].T
    pre0 += net.biases[0]
    y, _ = net.forward(x, tape=False)
    assert net.forward(x, tape=False, pre0=pre0.copy())[0].tobytes() == y.tobytes()
    for bad in ({"pre0": pre0}, {"pre0": pre0[:4], "tape": False},
                {"pre0": pre0[:, :31], "tape": False}):
        with pytest.raises(ValueError):
            net.forward(x, **bad)


def test_dropout_needs_rng_and_is_off_at_eval():
    net = nn.Mlp([2, 8, 1], dropout_rate=0.5).init_glorot(stream(9, "test/init"))
    x = stream(10, "test/x").standard_normal((3, 2))
    with pytest.raises(ValueError):
        net.forward(x, train=True)
    y1, _ = net.forward(x)
    y2, _ = net.forward(x, train=False)
    assert np.array_equal(y1, y2)


def test_mlp_views_its_params_and_rejects_a_wrong_length():
    sizes = [2, 4, 1]
    params = stream(11, "test/init").standard_normal(nn.n_params(sizes))
    net = nn.Mlp(sizes, params)
    assert net.params is params
    assert all(np.shares_memory(p, params) for p in net.parameters())
    x = stream(12, "test/x").standard_normal((3, 2))
    assert np.any(net.forward(x)[0] != 2.5)
    net.params[:] = 0.0
    net.params[-1] = 2.5  # the output bias
    assert np.all(net.forward(x)[0] == 2.5)
    n = params.size
    for bad in (params[:-1], np.append(params, 0.0), np.zeros((1, n)), np.zeros(2 * n)[::2]):
        with pytest.raises(ValueError):
            nn.Mlp(sizes, bad)


def test_clip_global_norm():
    grad = np.array([3.0, 0.0, 4.0])
    blocks = [np.zeros(2), np.zeros((1, 1))]
    clipped = grad.copy()
    assert nn.clip_global_norm(clipped, 1.0, blocks) == pytest.approx(5.0)
    assert np.sqrt(np.sum(clipped * clipped)) == pytest.approx(1.0)
    for max_norm in (10.0, np.inf, 0.0):  # under the bound, and disabled clipping
        same = grad.copy()
        assert nn.clip_global_norm(same, max_norm, blocks) == pytest.approx(5.0)
        assert np.array_equal(same, grad)


def test_adam_step_matches_hand_computation():
    p = np.array([1.0, -2.0])
    g = np.array([0.5, 0.1])
    state = nn.AdamState.for_params(p, lr=0.01)
    nn.adam_step(state, p, g)
    # first step: mhat = g, vhat = g^2, update = g / (|g| + eps)
    expected = np.array([1.0, -2.0]) - 0.01 * g / (np.abs(g) + 1e-8)
    assert np.allclose(p, expected, atol=1e-12)
    assert state.step == 1


def test_adam_step_rejects_non_finite():
    p = np.array([1.0])
    state = nn.AdamState.for_params(p, lr=0.01)
    with pytest.raises(FloatingPointError):
        nn.adam_step(state, p, np.array([np.nan]))
    with pytest.raises(ValueError):
        nn.adam_step(state, p, np.array([1.0, 2.0]))


def test_ema_update_and_copy():
    p = np.array([1.0, 2.0])
    ema = nn.EmaState.for_params(p, decay=0.9)
    p[:] = [2.0, 0.0]  # the shadow is a copy: writing the live params leaves it alone
    assert np.array_equal(ema.shadow, [1.0, 2.0])
    ema.update(p)
    assert np.allclose(ema.shadow, [0.9 * 1.0 + 0.1 * 2.0, 0.9 * 2.0], atol=1e-15)


def test_sinusoidal_embedding_shape_and_values():
    emb = nn.sinusoidal_embedding(np.array([0.0, 1.0]), 8)
    assert emb.shape == (2, 8)
    assert np.allclose(emb[0], [0, 0, 0, 0, 1, 1, 1, 1], atol=1e-15)  # sin 0, cos 0
    assert emb[1, 0] == pytest.approx(np.sin(1.0))


def test_class_onehot_paths():
    assert np.array_equal(nn.class_onehot(np.array([1]), 3), np.array([[0.0, 1.0, 0.0]]))
    out = nn.class_onehot(np.array([2, 0]), 3)
    assert np.array_equal(out, np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]))
    with pytest.raises(ValueError):
        nn.class_onehot(np.array([3]), 3)
    with pytest.raises(ValueError):
        nn.class_onehot(np.array([-1]), 3)


# Oracles: the earlier out-of-place and per-block bodies (for GeLU, the tanh
# form out of place, in nn.gelu's order of operations). The in-place, flat
# versions must match them bit for bit.

_C = np.sqrt(2.0 / np.pi)
_CK = _C * 0.044715


def _oracle_gelu(x):
    return 0.5 * x * (1.0 + np.tanh((x * x * _CK + _C) * x))


def _oracle_gelu_grad(x):
    cdf = 1.0 + np.tanh((x * x * _CK + _C) * x)
    return ((x * x * (1.5 * _CK) + 0.5 * _C) * x * (2.0 - cdf) + 0.5) * cdf


def _oracle_adam_step(state, params, grads):
    state.step += 1
    b1, b2 = nn.ADAM_BETA1, nn.ADAM_BETA2
    bc1 = 1.0 - b1**state.step
    bc2 = 1.0 - b2**state.step
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m[...] = b1 * m + (1.0 - b1) * g
        v[...] = b2 * v + (1.0 - b2) * g * g
        update = (m / bc1) / (np.sqrt(v / bc2) + nn.ADAM_EPS)
        p[...] = p - state.lr * update


def _oracle_ema_update(ema, params):
    for s, p in zip(ema.shadow, params):
        s[...] = ema.decay * s + (1.0 - ema.decay) * p


def _oracle_clip_global_norm(grads, max_norm):
    norm = float(np.sqrt(sum(float(np.sum(g * g)) for g in grads)))
    if max_norm <= 0.0 or norm <= max_norm:
        return list(grads), norm
    scale = max_norm / norm
    return [g * scale for g in grads], norm


def _oracle_backward(net, tape, dy):
    """The per-block gradients [dW0, db0, ...] and dx, each block its own array."""
    _, act_grad = nn._ACTIVATIONS[net.hidden_activation]
    _, out_act_grad = nn._ACTIVATIONS[net.output_activation]
    pre, post, masks, kept = tape["pre"], tape["post"], tape["masks"], tape["kept"]
    last = len(net.weights) - 1
    g = np.asarray(dy, dtype=float) * out_act_grad(pre[last], kept[last])
    grads = [None] * (2 * len(net.weights))
    for i in range(last, -1, -1):
        grads[2 * i] = g.T @ post[i]
        grads[2 * i + 1] = g.sum(axis=0)
        g = g @ net.weights[i]
        if i > 0:
            if masks[i - 1] is not None:
                g = g * masks[i - 1]
            g = g * act_grad(pre[i - 1], kept[i - 1])
    return grads, g


def test_gelu_and_grad_bytes_match_oracle():
    rng = stream(7, "test/gelu_bytes")
    x = np.concatenate([rng.standard_normal(4096 * 16) * 4.0,
                        [0.0, -0.0, 1e-300, -1e-300, 40.0, -40.0, 1e300, -1e300]])
    for shape in ((x.size,), (8, x.size // 8)):
        xs = x.reshape(shape)
        with np.errstate(over="ignore"):  # x * x at +/-1e300
            y, cdf = nn.gelu(xs)
            assert y.tobytes() == _oracle_gelu(xs).tobytes()
            z = xs.copy()
            assert nn.gelu(z, out=z)[0] is z and z.tobytes() == y.tobytes()
        # the derivative from the forward's cdf matches the one that recomputes
        # tanh, wherever x^3 does not overflow (all but +/-1e300)
        finite = np.abs(xs) < 1e103
        grad = nn.gelu_grad(xs[finite], cdf[finite])
        assert grad.tobytes() == _oracle_gelu_grad(xs[finite]).tobytes()
        assert np.array_equal(grad[-6:], [0.5, 0.5, 0.5, 0.5, 1.0, 0.0])


def test_gelu_computes_in_its_input_dtype():
    # float32 input stays float32 throughout, with the constants rounded to
    # float32; float64 input keeps the bytes of the float64 oracle
    x = stream(8, "test/gelu_dtype").standard_normal(4096) * 4.0
    y64, _ = nn.gelu(x)
    assert y64.tobytes() == _oracle_gelu(x).tobytes()
    x32 = x.astype(np.float32)
    c, ck = np.float32(_C), np.float32(_CK)
    want = 0.5 * x32 * (1.0 + np.tanh((x32 * x32 * ck + c) * x32))
    y32, cdf32 = nn.gelu(x32)
    assert y32.dtype == cdf32.dtype == np.float32
    assert y32.tobytes() == want.tobytes()


def test_adam_and_ema_steps_bytes_match_oracle():
    rng = stream(8, "test/adam_bytes")
    net = nn.Mlp([5, 16, 1], rng.standard_normal(nn.n_params([5, 16, 1])))
    ref = net.params.copy()
    state = nn.AdamState.for_params(net.params, lr=3e-3)
    ref_m, ref_v = np.zeros_like(ref), np.zeros_like(ref)
    ref_state = nn.AdamState(3e-3, _blocks(net, ref_m), _blocks(net, ref_v))
    ema = nn.EmaState.for_params(net.params, decay=0.99)
    ref_shadow = ref.copy()
    ref_ema = nn.EmaState(0.99, _blocks(net, ref_shadow))
    for _ in range(7):
        grad = np.concatenate([rng.standard_normal(p.size) * 10.0 ** rng.uniform(-6, 2)
                               for p in net.parameters()])
        nn.adam_step(state, net.params, grad)
        _oracle_adam_step(ref_state, _blocks(net, ref), _blocks(net, grad))
        ema.update(net.params)
        _oracle_ema_update(ref_ema, _blocks(net, ref))
        for a, b in ((net.params, ref), (state.m, ref_m), (state.v, ref_v),
                     (ema.shadow, ref_shadow)):
            assert a.tobytes() == b.tobytes()


def test_clip_global_norm_bytes_match_oracle():
    rng = stream(9, "test/clip_bytes")
    net = nn.Mlp([134, 64, 64, 2])
    for max_norm in (np.inf, 0.0, 1e-3, 1.0, 1e9):
        grad = rng.standard_normal(net.params.size) * 10.0 ** rng.uniform(-6, 2, net.params.size)
        want, want_norm = _oracle_clip_global_norm(_blocks(net, grad.copy()), max_norm)
        norm = nn.clip_global_norm(grad, max_norm, net.parameters())
        assert norm == want_norm
        assert grad.tobytes() == np.concatenate([g.ravel() for g in want]).tobytes()


@pytest.mark.parametrize("sizes", [[134, 64, 64, 2], [20, 16, 16, 1]])
@pytest.mark.parametrize("rows", [1, 4096])
@pytest.mark.parametrize("dropout", [0.0, 0.3])
def test_mlp_backward_bytes_match_per_block_oracle(sizes, rows, dropout):
    net = nn.Mlp(sizes, dropout_rate=dropout).init_glorot(stream(15, "test/init"))
    x = stream(16, "test/x").standard_normal((rows, sizes[0]))
    dy = stream(17, "test/dy").standard_normal((rows, sizes[-1]))
    _, tape = net.forward(x, train=True, rng=stream(18, "test/drop"))
    want, want_dx = _oracle_backward(net, tape, dy)
    want = np.concatenate([g.ravel() for g in want]).tobytes()
    grad, dx = net.backward(tape, dy)
    assert grad.tobytes() == want and dx.tobytes() == want_dx.tobytes()
    buf = np.full(net.params.size + 1, np.nan)  # into a vector that starts mid-buffer
    assert net.backward(tape, dy, out=buf[1:])[0].tobytes() == want
    assert buf[1:].tobytes() == want
