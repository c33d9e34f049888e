"""Network-toolkit checks: activations, backprop, optimizers, embeddings."""

import numpy as np
import pytest
from scipy.special import erf

from guidefit import nn
from guidefit.rng import stream


def test_gelu_matches_gaussian_cdf_form():
    x = np.linspace(-4.0, 4.0, 41)
    assert np.allclose(nn.gelu(x)[0], 0.5 * x * (1.0 + erf(x / np.sqrt(2.0))), atol=1e-15)


def test_gelu_grad_matches_finite_differences():
    x = np.linspace(-3.0, 3.0, 25)
    h = 1e-6
    fd = (nn.gelu(x + h)[0] - nn.gelu(x - h)[0]) / (2.0 * h)
    assert np.max(np.abs(nn.gelu_grad(x, nn.gelu(x)[1]) - fd)) < 1e-9


def test_mlp_create_shapes_and_zero_final():
    net = nn.Mlp.create([3, 8, 2], stream(0, "test/init"), zero_final=True)
    assert net.sizes == [3, 8, 2]
    assert np.all(net.weights[-1] == 0.0)
    x = stream(1, "test/x").standard_normal((4, 3))
    y, _ = net.forward(x)
    assert np.all(y == 0.0)


def test_mlp_backward_matches_finite_differences():
    net = nn.Mlp.create([3, 8, 8, 2], stream(2, "test/init"))
    x = stream(3, "test/x").standard_normal((5, 3))
    v = stream(4, "test/v").standard_normal((5, 2))  # fixed cotangent

    def loss():
        y, _ = net.forward(x)
        return float(np.sum(y * v))

    _, tape = net.forward(x)
    grads, dx = net.backward(tape, v)
    params = net.parameters()
    flat = nn.flatten_params(params)
    gflat = nn.flatten_params(grads)
    h = 1e-6
    rng = stream(5, "test/coords")
    for i in rng.choice(flat.size, size=40, replace=False):
        fp = flat.copy()
        fp[i] += h
        nn.set_flat_params(params, fp)
        up = loss()
        fp[i] -= 2.0 * h
        nn.set_flat_params(params, fp)
        down = loss()
        nn.set_flat_params(params, flat)
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
    net = nn.Mlp.create([2, 16, 1], stream(6, "test/init"), dropout_rate=0.4)
    x = stream(7, "test/x").standard_normal((7, 2))
    y, tape = net.forward(x, train=True, rng=stream(8, "test/drop"))
    mask = tape["masks"][0]
    z0 = x @ net.weights[0].T + net.biases[0]
    h0, cdf0 = nn.gelu(z0)
    h = h0 * mask
    assert np.allclose(y, h @ net.weights[1].T + net.biases[1], atol=1e-12)

    dy = np.ones_like(y)
    grads, dx = net.backward(tape, dy)
    g = (dy @ net.weights[1]) * mask * nn.gelu_grad(z0, cdf0)
    assert np.allclose(grads[0], g.T @ x, atol=1e-12)
    assert np.allclose(grads[1], g.sum(axis=0), atol=1e-12)
    assert np.allclose(grads[2], dy.T @ h, atol=1e-12)
    assert np.allclose(dx, g @ net.weights[0], atol=1e-12)


@pytest.mark.parametrize("rows", [1, 3, 4096])
@pytest.mark.parametrize("hidden, output", [("gelu", "identity"), ("relu", "identity"),
                                            ("identity", "identity"), ("gelu", "gelu")])
def test_tape_free_forward_is_bit_equal(hidden, output, rows):
    net = nn.Mlp.create([6, 32, 32, 3], stream(12, "test/init"), hidden_activation=hidden,
                        output_activation=output)
    net.biases = [stream(13 + i, "test/b").standard_normal(b.shape)
                  for i, b in enumerate(net.biases)]
    x = stream(14, "test/x").standard_normal((rows, 6)) * 3.0
    y, _ = net.forward(x)
    y_free, no_tape = net.forward(x, tape=False)
    assert no_tape is None
    assert y_free.tobytes() == y.tobytes()


def test_dropout_needs_rng_and_is_off_at_eval():
    net = nn.Mlp.create([2, 8, 1], stream(9, "test/init"), dropout_rate=0.5)
    x = stream(10, "test/x").standard_normal((3, 2))
    with pytest.raises(ValueError):
        net.forward(x, train=True)
    y1, _ = net.forward(x)
    y2, _ = net.forward(x, train=False)
    assert np.array_equal(y1, y2)


def test_flatten_set_roundtrip_and_size_check():
    net = nn.Mlp.create([2, 4, 1], stream(11, "test/init"))
    params = net.parameters()
    flat = nn.flatten_params(params)
    nn.set_flat_params(params, flat * 2.0)
    assert np.allclose(nn.flatten_params(params), 2.0 * flat, atol=1e-15)
    with pytest.raises(ValueError):
        nn.set_flat_params(params, flat[:-1])


def test_clip_global_norm():
    grads = [np.array([3.0, 0.0]), np.array([[4.0]])]
    clipped, norm = nn.clip_global_norm(grads, 1.0)
    assert norm == pytest.approx(5.0)
    joint = np.sqrt(sum(np.sum(g * g) for g in clipped))
    assert joint == pytest.approx(1.0)
    same, norm2 = nn.clip_global_norm(grads, 10.0)
    assert norm2 == pytest.approx(5.0)
    assert np.array_equal(same[0], grads[0])
    # disabled clipping
    same, _ = nn.clip_global_norm(grads, None)
    assert np.array_equal(same[1], grads[1])


def test_adam_step_matches_hand_computation():
    p = np.array([1.0, -2.0])
    g = np.array([0.5, 0.1])
    state = nn.AdamState.for_params([p], lr=0.01)
    nn.adam_step(state, [p], [g])
    # first step: mhat = g, vhat = g^2, update = g / (|g| + eps)
    expected = np.array([1.0, -2.0]) - 0.01 * g / (np.abs(g) + 1e-8)
    assert np.allclose(p, expected, atol=1e-12)
    assert state.step == 1


def test_adam_step_rejects_non_finite():
    p = np.array([1.0])
    state = nn.AdamState.for_params([p], lr=0.01)
    with pytest.raises(FloatingPointError):
        nn.adam_step(state, [p], [np.array([np.nan])])


def test_ema_update_and_copy():
    p = np.array([1.0, 2.0])
    ema = nn.EmaState.for_params([p], decay=0.9)
    p[:] = [2.0, 0.0]  # the shadow is a copy: writing the live params leaves it alone
    assert np.array_equal(ema.shadow[0], [1.0, 2.0])
    ema.update([p])
    assert np.allclose(ema.shadow[0], [0.9 * 1.0 + 0.1 * 2.0, 0.9 * 2.0], atol=1e-15)
    with pytest.raises(ValueError):
        nn.EmaState.for_params([p], decay=1.0)


def test_sinusoidal_embedding_shape_and_values():
    emb = nn.sinusoidal_embedding(np.array([0.0, 1.0]), 8)
    assert emb.shape == (2, 8)
    assert np.allclose(emb[0], [0, 0, 0, 0, 1, 1, 1, 1], atol=1e-15)  # sin 0, cos 0
    assert emb[1, 0] == pytest.approx(np.sin(1.0))
    with pytest.raises(ValueError):
        nn.sinusoidal_embedding(np.zeros(2), 7)


def test_class_onehot_paths():
    assert np.array_equal(nn.class_onehot(None, 3, n=2), np.zeros((2, 3)))
    assert np.array_equal(nn.class_onehot(1, 3, n=2),
                          np.array([[0.0, 1.0, 0.0], [0.0, 1.0, 0.0]]))
    out = nn.class_onehot(np.array([2, 0]), 3)
    assert np.array_equal(out, np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]))
    with pytest.raises(ValueError):
        nn.class_onehot(np.array([3]), 3)
    with pytest.raises(ValueError):
        nn.class_onehot(None, 3)


# Oracles: the earlier out-of-place bodies. The in-place versions must match
# them bit for bit.

def _oracle_gelu(x):
    return 0.5 * x * (1.0 + erf(x * (1.0 / np.sqrt(2.0))))


def _oracle_gelu_grad(x):
    phi = np.exp(-0.5 * x * x) * (1.0 / np.sqrt(2.0 * np.pi))
    return 0.5 * (1.0 + erf(x * (1.0 / np.sqrt(2.0)))) + x * phi


def _oracle_adam_step(state, params, grads):
    state.step += 1
    b1, b2 = state.beta1, state.beta2
    bc1 = 1.0 - b1**state.step
    bc2 = 1.0 - b2**state.step
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m[...] = b1 * m + (1.0 - b1) * g
        v[...] = b2 * v + (1.0 - b2) * g * g
        update = (m / bc1) / (np.sqrt(v / bc2) + state.eps)
        p[...] = p - state.lr * update


def _oracle_ema_update(ema, params):
    for s, p in zip(ema.shadow, params):
        s[...] = ema.decay * s + (1.0 - ema.decay) * p


def test_gelu_and_grad_bytes_match_oracle():
    rng = stream(7, "test/gelu_bytes")
    x = np.concatenate([rng.standard_normal(4096 * 16) * 4.0,
                        [0.0, -0.0, 1e-300, -1e-300, 40.0, -40.0, 1e300, -1e300]])
    for shape in ((x.size,), (8, x.size // 8)):
        xs = x.reshape(shape)
        y, cdf = nn.gelu(xs)
        assert y.tobytes() == _oracle_gelu(xs).tobytes()
        z = xs.copy()
        assert nn.gelu(z, out=z)[0] is z and z.tobytes() == y.tobytes()
        # the derivative from the forward's cdf matches the one that recomputes erf
        with np.errstate(over="ignore"):  # x * x at +/-1e300
            assert nn.gelu_grad(xs, cdf).tobytes() == _oracle_gelu_grad(xs).tobytes()


def test_adam_and_ema_steps_bytes_match_oracle():
    rng = stream(8, "test/adam_bytes")
    shapes = [(16, 5), (16,), (1, 16), (1,)]
    live = [rng.standard_normal(s) for s in shapes]
    ref = [p.copy() for p in live]
    state = nn.AdamState.for_params(live, lr=3e-3)
    ref_state = nn.AdamState.for_params(ref, lr=3e-3)
    ema = nn.EmaState.for_params(live, decay=0.99)
    ref_ema = nn.EmaState.for_params(ref, decay=0.99)
    for _ in range(7):
        grads = [rng.standard_normal(s) * 10.0 ** rng.uniform(-6, 2) for s in shapes]
        nn.adam_step(state, live, grads)
        _oracle_adam_step(ref_state, ref, grads)
        ema.update(live)
        _oracle_ema_update(ref_ema, ref)
        for pairs in ((live, ref), (state.m, ref_state.m), (state.v, ref_state.v),
                      (ema.shadow, ref_ema.shadow)):
            assert all(a.tobytes() == b.tobytes() for a, b in zip(*pairs))
