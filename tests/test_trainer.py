"""Trainer checks: config validation, determinism, EMA, divergence recovery."""

import csv
from functools import partial

import numpy as np
import pytest

from guidefit import evaluation, trainer
from guidefit.evaluation import energy_mmd
from guidefit.guidance import GuidanceNet
from guidefit.objectives import (REWARDS, MmdParams, TimePairSampler, build_gsm,
                                 build_particles, guided_score_matching_loss, l2_loss,
                                 mmd_loss, reward_loss)
from guidefit.rng import stream
from guidefit.sampler import SampleConfig, sample
from guidefit.trainer import TrainConfig, TrainingDiverged, loss_param_grad, train_guidance


def short_config(**overrides):
    base = dict(iterations=8, batch_size=16, particles=4, checkpoint_every=4,
                probe_size=32, select_best=False, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


def fresh_net(seed=0, **kwargs):
    return GuidanceNet.create(4, stream(seed, "test/trainer_init"), **kwargs)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(mode="banana")
    with pytest.raises(ValueError):
        TrainConfig(mode="l2", particles=2)
    with pytest.raises(ValueError):
        TrainConfig(mode="reward")  # needs a reward name
    with pytest.raises(ValueError):
        TrainConfig(reward="banana")
    with pytest.raises(ValueError):
        TrainConfig(reward_sign=0.5)
    with pytest.raises(ValueError):
        TrainConfig(beta=3.0)
    for bad in ({"checkpoint_every": 0}, {"probe_size": 1}, {"ema_decay": 1.0},
                {"churn": -0.5}):
        with pytest.raises(ValueError, match=next(iter(bad))):
            TrainConfig(**bad)
    # probe_size is checked only where a probe runs
    for unprobed in ({"select_best": False}, {"mode": "guided_sm"}):
        assert not TrainConfig(probe_size=1, **unprobed).probing


def test_training_is_deterministic(mog, exact):
    config = short_config()
    runs = []
    for _ in range(2):
        net, record = train_guidance(fresh_net(), exact, exact, mog, config)
        runs.append((net.params, record))
    assert np.array_equal(runs[0][0], runs[1][0])
    assert np.array_equal(runs[0][1].loss, runs[1][1].loss)
    assert np.array_equal(runs[0][1].grad_norm, runs[1][1].grad_norm)


def test_training_moves_parameters_and_records_trace(mog, exact):
    net = fresh_net()
    init = net.params.copy()
    net, record = train_guidance(net, exact, exact, mog, short_config())
    assert not np.array_equal(net.params, init)
    assert record.iteration.shape == (8,)
    assert np.all(np.isfinite(record.loss))
    assert np.all(np.isfinite(record.grad_norm))
    assert record.mean_abs_omega[0] == 0.0  # zero-initialized head
    assert np.all(np.isnan(record.reward))  # not tracked without a reward


def test_reward_mode_tracks_raw_reward(mog, exact):
    config = short_config(mode="reward", reward="distance_to_mean", gamma_reward=0.1)
    net, record = train_guidance(fresh_net(), exact, exact, mog, config)
    assert np.all(np.isfinite(record.reward))
    # distance-to-mean reward is nonpositive by construction
    assert np.all(record.reward <= 0.0)


def test_all_modes_run(mog, exact):
    for mode, extra in (("self_consistency", {}),
                        ("l2", {"particles": 1}),
                        ("reward", {"reward": "distance_to_mean", "gamma_reward": 0.1}),
                        ("guided_sm", {})):
        config = short_config(mode=mode, **extra)
        net, record = train_guidance(fresh_net(), exact, exact, mog, config)
        assert np.all(np.isfinite(record.loss)), mode


def test_ema_anchors_near_init(mog, exact):
    init = fresh_net().params
    live, _ = train_guidance(fresh_net(), exact, exact, mog, short_config())
    shadow, _ = train_guidance(fresh_net(), exact, exact, mog,
                               short_config(ema_decay=0.999))
    live_move = np.linalg.norm(live.params - init)
    shadow_move = np.linalg.norm(shadow.params - init)
    assert shadow_move < 0.1 * live_move


def test_select_best_runs_probes(mog, exact):
    config = short_config(select_best=True)
    net, record = train_guidance(fresh_net(), exact, exact, mog, config)
    assert np.all(np.isfinite(record.loss))


def test_divergence_raises_and_restores_last_checkpoint(mog, exact):
    net = fresh_net(dropout=0.0)
    config = short_config(iterations=6, learning_rate=1e200, clip_norm=1.0)
    # the overflow on the diverging step is the point of the test
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDiverged) as info:
            train_guidance(net, exact, exact, mog, config)
    assert info.value.iteration >= 1
    # the exception carries the record of the iterations that completed
    record = info.value.record
    assert np.array_equal(record.iteration, np.arange(info.value.iteration))
    assert np.all(np.isfinite(record.loss)) and np.all(np.isfinite(record.grad_norm))
    # net holds the last good snapshot: finite, and still the zero function
    assert np.all(np.isfinite(net.params))
    assert net.weight(0.3, 0.8, 0) == 0.0


def test_time_sampler_is_honored(mog, exact):
    # an s_min near 1 - zeta - delta pins every pair into a narrow band
    sampler = TimePairSampler(s_min=0.85, delta=0.1, zeta=0.01)
    config = short_config(iterations=2, time_sampler=sampler)
    net, record = train_guidance(fresh_net(), exact, exact, mog, config)
    assert np.all(np.isfinite(record.loss))


def test_train_record_csv_roundtrip(tmp_path, mog, exact):
    net, record = train_guidance(fresh_net(), exact, exact, mog,
                                 short_config(iterations=3))
    path = tmp_path / "record.csv"
    record.write_csv(path, header_comment="seed=0")
    lines = path.read_text().splitlines()
    assert lines[0] == "# seed=0"
    rows = list(csv.reader(lines[1:]))
    assert rows[0] == ["iter", "loss", "reward", "grad_norm", "mean_abs_omega"]
    assert len(rows) == 4
    assert rows[1][2] == ""  # reward column blank when not tracked
    assert float(rows[1][1]) == record.loss[0]


def test_loss_param_grad_all_modes(mog, exact):
    rng = stream(9, "test/lpg")
    x0, c = mog.sample_joint(6, rng)
    s = rng.uniform(0.7, 0.85, size=6)
    t = rng.uniform(0.9, 0.97, size=6)
    net = fresh_net()
    for p in net.parameters():
        p += 0.03 * stream(10, "test/lpg_jiggle").standard_normal(p.shape)
    for mode, extra in (("self_consistency", {"particles": 4}),
                        ("l2", {"particles": 1}),
                        ("reward", {"particles": 4, "reward": "distance_to_mean",
                                    "gamma_reward": 0.3}),
                        ("guided_sm", {})):
        config = TrainConfig(mode=mode, seed=12, **extra)
        loss, grad = loss_param_grad(net, exact, exact, mog, x0, c, s, t, config)
        assert np.isfinite(loss)
        assert np.all(np.isfinite(grad))
        assert np.any(grad != 0.0)
        # frozen draw stream makes the map parameters -> loss replayable
        loss2, grad2 = loss_param_grad(net, exact, exact, mog, x0, c, s, t, config)
        assert loss == loss2
        assert np.array_equal(grad, grad2)


def _oracle_loss_param_grad(net, cond, uncond, data, x0, c, s, t, config):
    """The earlier per-mode composition of loss_param_grad, kept as an oracle."""
    noise_rng = stream(config.seed, "gradcheck/noise")
    omega, tape = net.weight_with_tape(s, t, c)
    n = np.atleast_2d(x0).shape[0]
    if config.mode == "guided_sm":
        batch = build_gsm(x0, c, t, cond, uncond, noise_rng)
        loss_items, grad_items = guided_score_matching_loss(batch, omega)
    else:
        batch = build_particles(x0, c, s, t, config.particles, cond, uncond,
                                config.churn, noise_rng)
        if config.mode == "l2":
            loss_items, grad_items = l2_loss(batch, omega)
        else:
            loss_items, grad_items = mmd_loss(batch, MmdParams(config.beta, config.lam), omega)
        if config.mode == "reward":
            reward = partial(REWARDS[config.reward], data)
            r_loss, r_grad = reward_loss(batch, reward, omega, sign=config.reward_sign)
            loss_items = loss_items + config.gamma_reward * r_loss
            grad_items = grad_items + config.gamma_reward * r_grad
    return float(np.mean(loss_items)), net.backward(tape, grad_items / n)


def test_loss_param_grad_bytes_match_per_mode_oracle(mog, exact):
    rng = stream(13, "test/lpg_oracle")
    x0, c = mog.sample_joint(6, rng)
    s = rng.uniform(0.7, 0.85, size=6)
    t = rng.uniform(0.9, 0.97, size=6)
    net = fresh_net(dropout=0.0)
    for p in net.parameters():
        p += 0.03 * stream(14, "test/lpg_oracle_jiggle").standard_normal(p.shape)
    reward = {"reward": "mixture_log_density", "gamma_reward": 0.3}
    for mode, extra in (("self_consistency", {"particles": 4}),
                        ("self_consistency", {"particles": 4, **reward}),
                        ("l2", {"particles": 1}),
                        ("l2", {"particles": 1, **reward}),
                        ("reward", {"particles": 4, **reward}),
                        ("reward", {"particles": 4, "reward": "distance_to_mean",
                                    "gamma_reward": 0.3, "reward_sign": 1.0}),
                        ("guided_sm", {}),
                        ("guided_sm", reward)):
        config = TrainConfig(mode=mode, seed=12, beta=1.5, lam=0.7, **extra)
        loss, grad = loss_param_grad(net, exact, exact, mog, x0, c, s, t, config)
        want_loss, want_grad = _oracle_loss_param_grad(net, exact, exact, mog,
                                                       x0, c, s, t, config)
        assert loss == want_loss, (mode, extra)
        assert grad.tobytes() == want_grad.tobytes(), (mode, extra)


def test_probe_reuses_one_reference_per_run(mog, exact, monkeypatch):
    """Every checkpoint's probe equals an energy_mmd against freshly drawn
    reference points, and the reference's own pairs are summed once a run."""
    config = short_config(select_best=True, iterations=12, checkpoint_every=4)
    probes, references, own_pairs = [], [], []

    def recording_probe(net, cond, uncond, data, cfg, reference):
        references.append(reference)
        val = probe_mmd(net, cond, uncond, data, cfg, reference)
        xs, _ = sample(SampleConfig(steps=10, count=cfg.probe_size, churn=0.0,
                                    zeta=cfg.time_sampler.zeta),
                       cond, uncond, net, class_weights=data.weights, seed=cfg.seed)
        ref, _ = data.sample_joint(cfg.probe_size, stream(cfg.seed, "probe/reference"))
        probes.append((val, energy_mmd(xs, ref)))
        return val

    def counting_pair_sums(a, b, beta, wa, wb):
        if a is b and a is references[-1].points:
            own_pairs.append(a.shape[0])
        return pair_sums(a, b, beta, wa, wb)

    probe_mmd, pair_sums = trainer._probe_mmd, evaluation._pair_sums
    monkeypatch.setattr(trainer, "_probe_mmd", recording_probe)
    monkeypatch.setattr(evaluation, "_pair_sums", counting_pair_sums)
    train_guidance(fresh_net(), exact, exact, mog, config)
    assert len(probes) == 3
    for val, fresh in probes:
        assert val == fresh
    assert all(ref is references[0] for ref in references)
    assert own_pairs == [config.probe_size]
