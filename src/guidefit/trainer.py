"""Training loop for guidance weight functions.

One step: draw a data batch and time pairs, evaluate the net's weights with a
tape, build the cached particle batch (one particle per item for guided score
matching), get per-item loss values and omega-gradients from the objective,
chain them through the net, clip, and take an Adam step. The denoisers are
frozen teachers; only the guidance net's parameters move.

Checkpoints are taken every checkpoint_every iterations. When select_best is
on, each checkpoint (and the final iterate) is scored by sampling a small
probe and measuring its energy distance to held-out data draws on a fixed
stream; the best-scoring parameters are restored at the end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import nn
from .denoisers import MogSpec
from .evaluation import _Reference, energy_mmd, write_table
from .guidance import GuidanceNet
from .objectives import (REWARDS, MmdParams, TimePairSampler, build_gsm, build_particles,
                         guided_score_matching_loss, l2_loss, mmd_loss, reward_loss)
from .rng import stream
from .sampler import SampleConfig, sample

MODES = ("self_consistency", "l2", "reward", "guided_sm")


class TrainingDiverged(RuntimeError):
    """Raised when a loss or gradient goes non-finite; the net holds the last
    good checkpoint when this propagates, and record the rows 0..iteration-1."""

    def __init__(self, message: str, iteration: int, record: TrainRecord):
        super().__init__(message)
        self.iteration = iteration
        self.record = record


@dataclass(frozen=True)
class TrainConfig:
    mode: str = "self_consistency"
    iterations: int = 1000
    batch_size: int = 128
    particles: int = 32
    beta: float = 1.75
    lam: float = 1.0
    churn: float = 1.0
    learning_rate: float = 5e-4
    clip_norm: float = 1.0
    ema_decay: float | None = None
    gamma_reward: float = 0.0
    reward: str | None = None
    reward_sign: float = -1.0
    checkpoint_every: int = 100
    select_best: bool = True
    probe_size: int = 512
    seed: int = 0
    time_sampler: TimePairSampler = field(default_factory=TimePairSampler)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.mode == "l2" and self.particles != 1:
            raise ValueError("the l2 objective uses exactly one particle")
        if self.mode == "reward" and self.reward is None:
            raise ValueError("reward mode needs a reward function name")
        if self.reward is not None and self.reward not in REWARDS:
            raise ValueError(f"reward must be one of {tuple(REWARDS)}, got {self.reward!r}")
        if self.reward_sign not in (-1.0, 1.0):
            raise ValueError("reward_sign must be -1 or +1")
        if self.iterations < 0 or self.batch_size <= 0 or self.particles <= 0:
            raise ValueError("iterations >= 0, batch_size > 0, particles > 0 required")
        MmdParams(self.beta, self.lam)  # validates the pair
        if not 0.0 <= self.churn <= 1.0:
            raise ValueError(f"churn must lie in [0, 1], got {self.churn}")
        if self.learning_rate < 0.0:
            raise ValueError(f"learning_rate must be nonnegative, got {self.learning_rate}")
        if self.checkpoint_every < 1:
            raise ValueError(f"checkpoint_every must be positive, got {self.checkpoint_every}")
        if self.probing and self.probe_size < 2:
            raise ValueError(f"probe_size must be at least 2 to probe, got {self.probe_size}")
        if self.ema_decay is not None and not 0.0 <= self.ema_decay < 1.0:
            raise ValueError(f"ema_decay must lie in [0, 1), got {self.ema_decay}")

    @property
    def probing(self) -> bool:
        """Whether checkpoints are scored by a probe sample (guided_sm has no probe)."""
        return self.select_best and self.mode != "guided_sm"


@dataclass
class TrainRecord:
    """Per-iteration training trace. reward is NaN when not tracked."""

    iteration: np.ndarray
    loss: np.ndarray
    reward: np.ndarray
    grad_norm: np.ndarray
    mean_abs_omega: np.ndarray

    def write_csv(self, path, header_comment: str | None = None):
        write_table(path, header_comment,
                    ["iter", "loss", "reward", "grad_norm", "mean_abs_omega"],
                    zip(self.iteration, self.loss, self.reward, self.grad_norm,
                        self.mean_abs_omega))


def _objective(config: TrainConfig, x0, c, s, t, omega, cond, uncond, reward, rng):
    """Build config.mode's batch and score it at weights omega.

    Returns per-item loss and d loss / d omega, both (n,), and the batch's
    mean raw reward (NaN when reward is None or the mode has no particles).
    The reward enters the loss only in reward mode; other modes just track it.
    """
    if config.mode == "guided_sm":
        batch = build_gsm(x0, c, t, cond, uncond, rng)
        loss_items, grad_items = guided_score_matching_loss(batch, omega)
        return loss_items, grad_items, np.nan
    batch = build_particles(x0, c, s, t, config.particles, cond, uncond, config.churn, rng)
    if config.mode == "l2":
        loss_items, grad_items = l2_loss(batch, omega)
    else:
        loss_items, grad_items = mmd_loss(batch, MmdParams(config.beta, config.lam), omega)
    if reward is None:
        return loss_items, grad_items, np.nan
    r_loss, r_grad = reward_loss(batch, reward, omega, sign=config.reward_sign)
    if config.mode == "reward":
        loss_items = loss_items + config.gamma_reward * r_loss
        grad_items = grad_items + config.gamma_reward * r_grad
    # r_loss = sign * mean R, so sign * r_loss recovers the raw reward
    return loss_items, grad_items, float(np.mean(config.reward_sign * r_loss))


def _probe_mmd(net: GuidanceNet, cond, uncond, data: MogSpec, config: TrainConfig,
               reference: _Reference) -> float:
    """Energy MMD of a probe sample against the run's held-out reference draws."""
    probe = SampleConfig(steps=10, count=config.probe_size,
                         churn=0.0, zeta=config.time_sampler.zeta)
    xs, _ = sample(probe, cond, uncond, net, class_weights=data.weights, seed=config.seed)
    return energy_mmd(xs, reference)


def train_guidance(net: GuidanceNet, cond, uncond, data: MogSpec, config: TrainConfig,
                   quiet: bool = True):
    """Run the configured objective for config.iterations steps.

    Returns (net, record). The net is mutated in place; its final parameters
    are the EMA shadow when ema_decay is set, and the best probe checkpoint
    when select_best is on (final iterate included as a candidate). The probe
    reference is drawn once per run, so its own-pair sums are computed once.
    """
    params, blocks = net.params, net.parameters()
    adam = nn.AdamState.for_params(params, lr=config.learning_rate)
    ema = nn.EmaState.for_params(params, config.ema_decay) if config.ema_decay else None
    reward = partial(REWARDS[config.reward], data) if config.reward else None
    reference = _Reference(data.sample_joint(
        config.probe_size, stream(config.seed, "probe/reference"))[0]) if config.probing else None

    data_rng = stream(config.seed, "guidance/data")
    time_rng = stream(config.seed, "guidance/time")
    noise_rng = stream(config.seed, "guidance/noise")
    drop_rng = stream(config.seed, "guidance/dropout")

    n = config.batch_size
    cols = {k: np.zeros(config.iterations) for k in
            ("loss", "reward", "grad_norm", "mean_abs_omega")}

    def snapshot():
        return (params if ema is None else ema.shadow).copy()

    def probe_at(flat):
        live = params.copy()
        params[:] = flat
        val = _probe_mmd(net, cond, uncond, data, config, reference)
        params[:] = live
        return val

    def record(k):  # cols holds TrainRecord's other fields, in field order
        return TrainRecord(np.arange(k), *(col[:k] for col in cols.values()))

    last_good = snapshot()
    candidates = []  # (probe mmd, iteration, flat params)

    for it in range(config.iterations):
        x0, c = data.sample_joint(n, data_rng)
        s, t = config.time_sampler.sample(n, time_rng)
        omega, tape = net.weight_with_tape(s, t, c, train=True, rng=drop_rng)
        loss_items, grad_items, cols["reward"][it] = _objective(
            config, x0, c, s, t, omega, cond, uncond, reward, noise_rng)

        loss = float(np.mean(loss_items))
        if not np.isfinite(loss):
            params[:] = last_good
            raise TrainingDiverged(f"non-finite loss at iteration {it}", it, record(it))
        grad = net.backward(tape, grad_items / n)
        pre_norm = nn.clip_global_norm(grad, config.clip_norm, blocks)
        if not np.isfinite(pre_norm):
            params[:] = last_good
            raise TrainingDiverged(f"non-finite gradient at iteration {it}", it, record(it))
        nn.adam_step(adam, params, grad)
        if ema is not None:
            ema.update(params)

        cols["loss"][it] = loss
        cols["grad_norm"][it] = pre_norm
        cols["mean_abs_omega"][it] = float(np.mean(np.abs(omega)))

        if (it + 1) % config.checkpoint_every == 0:
            last_good = snapshot()
            if config.probing:
                candidates.append((probe_at(last_good), it + 1, last_good))
                if not quiet:
                    print(f"  iter {it + 1}: loss {loss:.4f}, probe mmd {candidates[-1][0]:.4f}")
        elif not quiet and (it + 1) % max(1, config.checkpoint_every // 2) == 0:
            print(f"  iter {it + 1}: loss {loss:.4f}")

    final = snapshot()
    if config.probing and config.iterations > 0:
        if not candidates or candidates[-1][1] != config.iterations:
            candidates.append((probe_at(final), config.iterations, final))
        best = min(candidates, key=lambda c: c[0])
        if not quiet:
            print(f"  selected checkpoint at iter {best[1]} (probe mmd {best[0]:.4f})")
        final = best[2]
    params[:] = final

    return net, record(config.iterations)


def loss_param_grad(net: GuidanceNet, cond, uncond, data: MogSpec, x0, c, s, t,
                    config: TrainConfig):
    """Loss and flat d loss / d parameters for one fixed batch (no update).

    The batch draws come from a stream frozen by config.seed, so repeated
    calls with perturbed parameters see identical randomness. Used by the
    gradient checks.
    """
    omega, tape = net.weight_with_tape(s, t, c)
    reward = partial(REWARDS[config.reward], data) if config.reward else None
    loss_items, grad_items, _ = _objective(config, x0, c, s, t, omega, cond, uncond,
                                           reward, stream(config.seed, "gradcheck/noise"))
    return float(np.mean(loss_items)), net.backward(tape, grad_items / loss_items.shape[0])
