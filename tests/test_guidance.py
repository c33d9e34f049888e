"""Weight functions, the guided combination, and the probe grid."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guidefit.guidance import (ConstantWeight, GuidanceNet, export_weight_grid,
                               guided_denoise, mean_abs_weight, weight_grid_times)
from guidefit.rng import stream
from guidefit.schedule import GRID_DT, ZETA


def test_constant_weight_scalar_and_batch():
    fn = ConstantWeight(0.7)
    assert np.array_equal(fn.weight(0.3, 0.8, np.array([2])), [0.7])
    out = fn.weight(np.array([0.2, 0.3]), np.array([0.5, 0.9]), np.array([0, 1]))
    assert np.array_equal(out, np.array([0.7, 0.7]))


def test_guidance_net_zero_init_outputs_zero():
    net = GuidanceNet.create(4, stream(0, "test/ginit"))
    assert np.array_equal(net.weight(0.3, 0.8, np.array([2])), [0.0])
    out = net.weight(np.full(5, 0.3), np.full(5, 0.8), np.arange(5) % 4)
    assert np.array_equal(out, np.zeros(5))


def test_guidance_net_scalar_and_batch_agree():
    net = GuidanceNet.create(4, stream(1, "test/ginit"))
    for p in net.parameters():
        p += 0.05 * stream(2, "test/jiggle").standard_normal(p.shape)
    w_row = net.weight(0.3, 0.8, np.array([2]))
    w_batch = net.weight(np.array([0.3, 0.4]), np.array([0.8, 0.9]), np.array([2, 0]))
    assert w_row.shape == (1,) and w_batch.shape == (2,)
    assert w_row[0] == pytest.approx(w_batch[0], abs=1e-12)


def test_weight_is_bit_equal_to_taped_forward():
    net = GuidanceNet.create(4, stream(1, "test/ginit"), zero_init=False)
    s, t = weight_grid_times()
    for j in (0, 40, t.shape[0] - 1):
        for c in (np.array([2]), np.arange(4)):
            omega, _ = net.weight_with_tape(s[j], t[j], c)
            assert net.weight(s[j], t[j], c).tobytes() == omega.tobytes()


def test_guidance_net_backward_matches_finite_differences():
    net = GuidanceNet.create(4, stream(3, "test/ginit"))
    jig = stream(4, "test/jiggle")
    for p in net.parameters():
        p += 0.05 * jig.standard_normal(p.shape)
    s = np.array([0.3, 0.5, 0.2])
    t = np.array([0.8, 0.9, 0.6])
    c = np.array([0, 2, 3])

    def total():
        return float(np.sum(net.weight(s, t, c)))

    omega, tape = net.weight_with_tape(s, t, c)
    gflat = net.backward(tape, np.ones(3))
    flat = net.params.copy()
    h = 1e-6
    idx = np.argsort(-np.abs(gflat))[:12]  # largest-gradient coordinates
    for i in idx:
        fp = flat.copy()
        fp[i] += h
        net.params[:] = fp
        up = total()
        fp[i] -= 2.0 * h
        net.params[:] = fp
        down = total()
        net.params[:] = flat
        fd = (up - down) / (2.0 * h)
        assert abs(fd - gflat[i]) < 1e-6 * max(1.0, abs(fd))


_OMEGA = st.sampled_from([0.0, -1.0]) | st.floats(-5.0, 5.0, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(omegas=st.lists(_OMEGA, min_size=6, max_size=6), t=st.floats(0.05, 0.95),
       seed=st.integers(0, 99))
def test_guided_denoise_is_affine_in_omega_exactly(exact, omegas, t, seed):
    x_t = stream(seed, "test/gd_prop").uniform(-12.0, 12.0, size=(6, 2))
    c = np.arange(6) % 4
    xc, xu = exact.denoise(x_t, t, c), exact.denoise(x_t, t, None)
    delta = xc - xu
    out, got_delta = guided_denoise(exact, exact, x_t, t, c, np.array(omegas))
    assert got_delta.tobytes() == delta.tobytes()
    assert out.tobytes() == (xc + np.array(omegas)[:, None] * delta).tobytes()
    for w in omegas:
        scalar, _ = guided_denoise(exact, exact, x_t, t, c, w)
        uniform, _ = guided_denoise(exact, exact, x_t, t, c, np.full(6, w))
        assert scalar.tobytes() == uniform.tobytes() == (xc + w * delta).tobytes()


def test_guided_denoise_is_affine_in_omega(exact):
    x_t = stream(7, "test/gd2").uniform(-10.0, 10.0, size=(8, 2))
    c = np.arange(8) % 4
    out0, delta = guided_denoise(exact, exact, x_t, 0.8, c, 0.0)
    w = np.linspace(-1.0, 2.0, 8)
    out_w, _ = guided_denoise(exact, exact, x_t, 0.8, c, w)
    assert np.allclose(out_w, out0 + w[:, None] * delta, atol=1e-12)


def test_weight_grid_covers_clamped_interval():
    assert (ZETA, GRID_DT) == (0.01, 0.01)
    s, t = weight_grid_times()
    assert t.shape == (98,)
    assert np.allclose(t - s, 0.01, atol=1e-12)
    assert t[0] == pytest.approx(0.02)
    assert t[-1] <= 0.99 + 1e-12
    assert s[0] == pytest.approx(0.01)


def test_export_grid_and_mean_abs_weight():
    fn = ConstantWeight(-0.7)
    t, omegas = export_weight_grid(fn, 4)
    assert omegas.shape == (4, t.shape[0])
    assert np.all(omegas == -0.7)
    assert mean_abs_weight(fn, 4) == pytest.approx(0.7)


@pytest.mark.parametrize("seed", range(3))
def test_export_grid_bytes_match_sampler_rows(seed):
    """Each grid column is what the sampler applies at that (s, t): the net
    evaluated on every class at once."""
    net = GuidanceNet.create(4, stream(seed, "test/export"), embed_hidden=16, embed_dim=16,
                             trunk_hidden=16, trunk_layers=3, zero_init=False)
    s, t = weight_grid_times()
    t_out, omegas = export_weight_grid(net, 4)
    assert np.array_equal(t_out, t)
    for j in range(t.shape[0]):
        assert omegas[:, j].tobytes() == net.weight(s[j], t[j], np.arange(4)).tobytes()
    assert mean_abs_weight(net, 4) == float(np.mean(np.abs(omegas)))
