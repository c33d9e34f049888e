"""Objective checks: cached batches, analytic omega-gradients, estimator algebra.

Gradient checks run with source times in the upper part of the interval,
where the conditional-unconditional difference is well away from zero and
relative error against finite differences is meaningful.
"""

import dataclasses
from functools import partial

import numpy as np
import pytest

from guidefit.objectives import (REWARDS, ParticleBatch, TimePairSampler,
                                 build_gsm, build_particles, distance_to_mean,
                                 guided_score_matching_loss, l2_loss, log_density,
                                 mmd_loss, reward_loss)
from guidefit.denoisers import mixture_log_density, mixture_score
from guidefit.rng import stream
from guidefit.schedule import ZETA, DdimTransition, ddim_transition
from mixture_oracles import (OracleDenoiser, _oracle_mixture_log_density,
                             _oracle_mixture_score)


def make_batch(mog, exact, m=8, n=6, churn=1.0, seed=0):
    rng = stream(seed, "test/batch")
    x0, c = mog.sample_joint(n, rng)
    s = rng.uniform(0.7, 0.85, size=n)
    t = rng.uniform(0.9, 0.97, size=n)
    return build_particles(x0, c, s, t, m, exact, churn, rng)


def fd_check(loss_fn, batch, w0=0.3, atol=1e-8, rtol=1e-6):
    """Central finite differences in omega at w0 on every item against the
    analytic per-item gradient."""
    w = np.full(batch.n_items, w0)
    _, grad = loss_fn(batch, w)
    h = 1e-6
    up, _ = loss_fn(batch, w + h)
    down, _ = loss_fn(batch, w - h)
    fd = (up - down) / (2.0 * h)
    assert np.all(np.abs(fd - grad) <= atol + rtol * np.abs(fd))


def test_time_pair_sampler_ranges():
    sampler = TimePairSampler(s_min=0.2, delta=0.1)
    s, t = sampler.sample(5000, stream(0, "test/times"))
    assert np.all(s >= 0.2)
    assert np.all(s <= 1.0 - ZETA - 0.1)
    assert np.all(t - s >= 0.1)
    assert np.all(t <= 1.0 - ZETA + 1e-12)
    assert TimePairSampler(s_min=ZETA).s_min == 0.01  # allowed: under_trained.json sets it
    with pytest.raises(ValueError, match=r"s_min must lie in \[0\.01, inf\)"):
        TimePairSampler(s_min=0.005)
    with pytest.raises(ValueError):
        TimePairSampler(s_min=0.8, delta=0.3)
    with pytest.raises(ValueError):
        TimePairSampler(delta=0.0)


def test_build_particles_shapes_and_stored_omega(mog, exact):
    """One transition per item, and no weight stored: every loss is given omega."""
    batch = make_batch(mog, exact, m=5, n=4)
    assert batch.n_items == 4
    assert batch.n_particles == 5
    for arr in (batch.targets, batch.prop_noisy, batch.xhat_c, batch.delta,
                batch.trans_noise):
        assert arr.shape == (4, 5, 2)
    for coeff in dataclasses.astuple(batch.trans):
        assert coeff.shape == (4,)
    assert "omega" not in {f.name for f in dataclasses.fields(batch)}


def test_build_particles_bytes_match_the_oracle_teacher(mog, exact):
    """A training-size batch (128 items x 32 particles, each item's t repeated
    over its particles) is the same, byte for byte, whether the teacher is the
    component-first AnalyticDenoiser or the (n, K) oracle."""
    batches = []
    for teacher in (exact, OracleDenoiser(mog)):
        rng = stream(15, "test/oracle_batch")
        x0, c = mog.sample_joint(128, rng)
        s = rng.uniform(ZETA, 0.6, size=128)
        t = s + rng.uniform(0.05, 0.39, size=128)
        batches.append(build_particles(x0, c, s, t, 32, teacher, 0.5, rng))
    got, want = batches
    for field in dataclasses.fields(got):
        if field.name != "trans":
            assert getattr(got, field.name).tobytes() == getattr(want, field.name).tobytes()


def test_proposals_bytes_match_explicit_transition(mog, exact):
    """proposals(omega) is A x_t + B (xhat_c + omega delta) + sqrt(Sigma) xi byte
    for byte, at churn 0, 0.5 and 1 and at uniform and random per-item omega."""
    rng = stream(11, "test/batch")
    x0, c = mog.sample_joint(6, rng)
    s = rng.uniform(0.3, 0.6, size=6)
    t = rng.uniform(0.7, 0.95, size=6)
    for churn in (0.0, 0.5, 1.0):
        batch = build_particles(x0, c, s, t, 3, exact, churn,
                                stream(11, f"test/proposals/{churn}"))
        a, b, var = dataclasses.astuple(ddim_transition(s, t, churn))
        for omega in (np.zeros(6), np.full(6, 1.3), stream(12, "test/w").normal(0.0, 2.0, 6)):
            guided = batch.xhat_c + omega[:, None, None] * batch.delta
            want = (a[:, None, None] * batch.prop_noisy + b[:, None, None] * guided
                    + np.sqrt(var)[:, None, None] * batch.trans_noise)
            assert batch.proposals(omega).tobytes() == want.tobytes()


def test_proposals_affine_in_omega(mog, exact):
    batch = make_batch(mog, exact, seed=1)
    base = batch.proposals(np.zeros(6))
    for w in (-1.0, 0.5, 2.0):
        assert np.allclose(batch.proposals(np.full(6, w)), base + w * batch.slope(), atol=1e-10)
    # guided estimates move by the raw delta, not the transition-scaled slope
    assert np.allclose(batch.guided_estimates(np.ones(6)) - batch.guided_estimates(np.zeros(6)),
                       batch.delta, atol=1e-12)


def test_mmd_loss_gradient_matches_finite_differences(mog, exact):
    for churn in (0.0, 1.0):
        batch = make_batch(mog, exact, churn=churn, seed=2)
        fd_check(lambda b, w: mmd_loss(b, 1.75, 1.0, w), batch)


def test_mmd_loss_interaction_off_when_lam_zero(mog, exact):
    batch = make_batch(mog, exact, seed=3)
    full, _ = mmd_loss(batch, 1.5, 0.0, np.full(6, 0.3))
    u = batch.proposals(np.full(6, 0.3)) - batch.targets
    direct = np.mean(np.sqrt(np.sum(u * u, axis=-1)) ** 1.5, axis=-1)
    assert np.allclose(full, direct, atol=1e-12)


def test_l2_equals_quadratic_energy_single_particle(mog, exact):
    batch = make_batch(mog, exact, m=1, seed=4)
    for w in (0.3, -0.5, 0.0, 1.5):
        l2_val, l2_grad = l2_loss(batch, np.full(6, w))
        mmd_val, mmd_grad = mmd_loss(batch, 2.0, 0.0, np.full(6, w))
        assert np.max(np.abs(l2_val - mmd_val)) < 1e-12
        assert np.max(np.abs(l2_grad - mmd_grad)) < 1e-12


def test_two_point_batch_interaction_value():
    # proposals equal their targets (cross term 0) and sit 2 apart, so at
    # beta = 1, lam = 1 the loss is exactly 0 - (1/2) * (1/(2*1)) * (2+2) = -1
    pts = np.array([[[0.0, 0.0], [2.0, 0.0]]])
    zeros = np.zeros((1, 2, 2))
    batch = ParticleBatch(
        c=np.array([0]), targets=pts.copy(), prop_noisy=pts.copy(), xhat_c=zeros.copy(),
        delta=zeros.copy(), trans=DdimTransition(np.array([1.0]), np.array([0.0]),
                                                 np.array([0.0])),
        trans_noise=zeros.copy())
    loss, grad = mmd_loss(batch, 1.0, 1.0, np.zeros(1))
    assert loss[0] == -1.0
    assert grad[0] == 0.0


def test_distance_reward_value_and_grad(mog):
    reward = partial(REWARDS["distance_to_mean"], mog)
    x = stream(5, "test/reward").uniform(-12.0, 12.0, size=(10, 2))
    c = np.arange(10) % 4
    val, grad = reward(x, c)
    assert np.allclose(val, -np.sum((x - mog.means[c]) ** 2, axis=1), atol=1e-12)
    h = 1e-6
    for j in range(2):
        xp = x.copy()
        xp[:, j] += h
        xm = x.copy()
        xm[:, j] -= h
        fd = (reward(xp, c)[0] - reward(xm, c)[0]) / (2.0 * h)
        assert np.max(np.abs(grad[:, j] - fd)) < 1e-5


def test_mixture_reward_grad_is_the_data_score(mog):
    """The reward takes its value and gradient from one shared log-joint, with
    the bytes of mixture_log_density, mixture_score and their per-function
    oracles, at rows near 1e200 (log density -inf, score NaN) too."""
    assert REWARDS == {"distance_to_mean": distance_to_mean,
                       "mixture_log_density": log_density}
    rng = stream(6, "test/reward2")
    x = np.concatenate([rng.uniform(-12.0, 12.0, size=(10, 2)),
                        rng.choice([-1.0, 1.0], (3, 2)) * 1e200])
    val, grad = log_density(mog, x, np.zeros(13, dtype=int))
    for want in (mixture_log_density(mog, x), _oracle_mixture_log_density(mog, x, 0.0)):
        assert val.shape == want.shape == (13,) and val.tobytes() == want.tobytes()
    for want in (mixture_score(mog, x), _oracle_mixture_score(mog, x, 0.0)):
        assert grad.shape == want.shape == (13, 2) and grad.tobytes() == want.tobytes()
    assert np.all(val[10:] == -np.inf) and np.all(np.isnan(grad[10:]))


def test_reward_loss_acts_on_guided_estimates(mog, exact):
    batch = make_batch(mog, exact, seed=7)
    reward = partial(distance_to_mean, mog)
    loss, _ = reward_loss(batch, reward, np.full(6, 0.4))
    est = batch.guided_estimates(np.full(6, 0.4))
    manual = np.mean(np.sum((est - mog.means[batch.c][:, None, :]) ** 2, axis=-1), axis=-1)
    assert np.allclose(loss, manual, atol=1e-10)  # the term is -R, here +distance
    fd_check(lambda b, w: reward_loss(b, reward, w), batch)


def make_gsm(mog, exact):
    rng = stream(8, "test/gsm")
    x0, c = mog.sample_joint(6, rng)
    rng.uniform(0.3, 0.5, size=6)  # the s half of the time pairs
    t = rng.uniform(0.8, 0.95, size=6)
    return x0, build_gsm(x0, c, t, exact, rng)


def test_gsm_batch_and_gradient(mog, exact):
    x0, batch = make_gsm(mog, exact)
    assert batch.n_items == 6
    assert batch.n_particles == 1
    for arr in (batch.targets, batch.prop_noisy, batch.xhat_c, batch.delta,
                batch.trans_noise):
        assert arr.shape == (6, 1, 2)
    assert np.array_equal(batch.targets[:, 0], x0)
    loss, _ = guided_score_matching_loss(batch, np.full(6, 0.2))
    manual = np.sum((x0 - batch.xhat_c[:, 0] - 0.2 * batch.delta[:, 0]) ** 2, axis=-1)
    assert np.allclose(loss, manual, atol=1e-12)

    def gsm(b, w):
        return guided_score_matching_loss(b, w)

    fd_check(gsm, batch, 0.2)


def test_gsm_batch_draws_match_one_noising_per_item(mog, exact):
    """One noise_sample on (n, d) and one denoiser pair on those rows, as a
    direct computation from the same stream gives them."""
    rng = stream(8, "test/gsm")
    x0, c = mog.sample_joint(6, rng)
    s = rng.uniform(0.3, 0.5, size=6)
    t = rng.uniform(0.8, 0.95, size=6)
    x_t = (1.0 - t)[:, None] * x0 + t[:, None] * rng.standard_normal((6, 2))
    _, batch = make_gsm(mog, exact)
    assert batch.prop_noisy[:, 0].tobytes() == x_t.tobytes()
    xc = exact.denoise(x_t, t, c)
    assert batch.xhat_c[:, 0].tobytes() == xc.tobytes()
    assert batch.delta[:, 0].tobytes() == (xc - exact.denoise(x_t, t, None)).tobytes()
    assert not batch.trans_noise.any()


@pytest.mark.parametrize("omega", [None, 0.0, -1.0, 1.7, "per item"])
def test_gsm_batch_is_a_one_particle_identity_transition(mog, exact, omega):
    """proposals() are the guided estimates bit for bit, and the l2 objective
    on the batch is guided score matching in loss and omega-gradient."""
    _, batch = make_gsm(mog, exact)
    for coeff, want in zip(dataclasses.astuple(batch.trans), (0.0, 1.0, 0.0)):
        assert coeff.tobytes() == np.full(6, want).tobytes()
    if omega is None:
        omega = stream(9, "test/gsm_w").normal(1.0, 2.0, 6)
    elif omega == "per item":
        omega = stream(10, "test/gsm_w").normal(0.0, 3.0, 6)
    else:
        omega = np.full(6, omega)
    assert batch.proposals(omega).tobytes() == batch.guided_estimates(omega).tobytes()
    l2_val, l2_grad = l2_loss(batch, omega)
    gsm_val, gsm_grad = guided_score_matching_loss(batch, omega)
    np.testing.assert_allclose(l2_val, gsm_val, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(l2_grad, gsm_grad, rtol=1e-12, atol=0.0)


def _oracle_mmd_loss(batch, beta, lam, omega):
    """mmd_loss written out: coordinate-last arrays, the j < k pairs listed in
    row-major order by a loop, one power per distance, factor = beta pow / sq."""
    def pow_and_factor(diff):
        sq = np.sum(diff * diff, axis=-1)
        pw = sq ** (beta / 2.0)
        factor = np.zeros_like(sq)
        nz = sq > 0.0
        factor[nz] = beta * pw[nz] / sq[nz]
        return pw, factor

    m = batch.n_particles
    props = batch.proposals(omega)
    slope = batch.slope()
    u = props - batch.targets
    cross_pow, cross_fac = pow_and_factor(u)
    loss = cross_pow.mean(axis=-1)
    dloss = (cross_fac * np.sum(u * slope, axis=-1)).mean(axis=-1)
    if lam > 0.0 and m > 1:
        pairs = [(j, k) for j in range(m) for k in range(j + 1, m)]
        v = np.stack([props[:, j] - props[:, k] for j, k in pairs], axis=1)
        v_pow, v_fac = pow_and_factor(v)
        dv = np.stack([slope[:, j] - slope[:, k] for j, k in pairs], axis=1)
        norm = 1.0 / (m * (m - 1))
        loss = loss - lam * v_pow.sum(axis=-1) * norm
        dloss = dloss - lam * norm * (v_fac * np.sum(v * dv, axis=-1)).sum(axis=-1)
    return loss, dloss


def _all_pairs_mmd_loss(batch, beta, lam, omega):
    """The all-pairs form mmd_loss had before it summed j < k only: half the sum
    over j != k, with norm^beta and beta norm^(beta - 2) as two powers."""
    def pow_and_factor(diff):
        norm = np.sqrt(np.sum(diff * diff, axis=-1))
        factor = np.zeros_like(norm)
        nz = norm > 0.0
        factor[nz] = beta * norm[nz] ** (beta - 2.0)
        return norm**beta, factor

    m = batch.n_particles
    props = batch.proposals(omega)
    slope = batch.slope()
    u = props - batch.targets
    cross_pow, cross_fac = pow_and_factor(u)
    loss = cross_pow.mean(axis=-1)
    dloss = (cross_fac * np.sum(u * slope, axis=-1)).mean(axis=-1)
    if lam > 0.0 and m > 1:
        v = props[:, :, None, :] - props[:, None, :, :]
        v_pow, v_fac = pow_and_factor(v)
        dv = slope[:, :, None, :] - slope[:, None, :, :]
        norm = 1.0 / (m * (m - 1))
        loss = loss - 0.5 * lam * v_pow.sum(axis=(-2, -1)) * norm
        dloss = dloss - 0.5 * lam * norm * (
            v_fac * np.sum(v * dv, axis=-1)).sum(axis=(-2, -1))
    return loss, dloss


def _random_batch(n, m, d, seed):
    """A batch of random draws, and random per-item weights for it."""
    rng = stream(seed, "test/mmd_bytes")
    draw = lambda *shape: rng.standard_normal(shape)
    batch = ParticleBatch(
        c=np.zeros(n, dtype=int), targets=draw(n, m, d), prop_noisy=draw(n, m, d),
        xhat_c=draw(n, m, d), delta=draw(n, m, d),
        trans=DdimTransition(draw(n), draw(n), np.abs(draw(n))), trans_noise=draw(n, m, d))
    # one item whose particles coincide: zero distances take the factor-0 branch
    for arr in (batch.targets, batch.prop_noisy, batch.xhat_c, batch.delta,
                batch.trans_noise):
        arr[0] = 0.0
    return batch, draw(n)


@pytest.mark.parametrize("beta", [1.0, 1.75, 2.0])
@pytest.mark.parametrize("lam", [0.0, 1.0])
@pytest.mark.parametrize("m", [1, 2, 32])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_mmd_loss_bytes_match_oracle(beta, lam, m, d):
    batch, weights = _random_batch(12, m, d, seed=100 * m + d)
    for omega in (weights, np.full(12, 0.7)):
        got = mmd_loss(batch, beta, lam, omega)
        want = _oracle_mmd_loss(batch, beta, lam, omega)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()


@pytest.mark.parametrize("beta", [1.0, 1.75, 2.0])
@pytest.mark.parametrize("lam", [0.0, 1.0])
@pytest.mark.parametrize("m", [1, 2, 32])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_mmd_loss_matches_all_pairs_form(beta, lam, m, d):
    # The j < k sum and the single power reorder float operations only. The
    # error is relative to the batch's largest value: where the cross and
    # repulsion terms cancel, an item's loss is rounding noise in both forms.
    batch, weights = _random_batch(12, m, d, seed=100 * m + d)
    for omega in (weights, np.full(12, 0.7)):
        for got, want in zip(mmd_loss(batch, beta, lam, omega),
                             _all_pairs_mmd_loss(batch, beta, lam, omega)):
            assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))
