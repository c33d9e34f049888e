"""Guided ancestral sampler.

Chains start from the schedule's prior at 1 - ZETA and take steps steps down
a uniform time grid to ZETA (schedule.ZETA fixes the range). Each step
queries the denoiser once at c and once at c = None, combines the two at
omega(s, t, c), and applies the reverse transition at the configured churn
(0 by default, the deterministic velocity step). omega depends on a chain
only through its class, so each step evaluates the weight function once on
every class and gathers by c: one row per class, and the same rows however
many chains run.

Every chain draws its class from class_weights, the data's mixture weights.
Randomness is per chain: chain i draws its class uniform, then its noise,
from substream (seed, "sample/chain", i), so its draws do not depend on how
many chains run. Neither do its results with the analytic teacher; a neural
teacher's matrix products round a row differently by how many rows share the
call, so there chain i of a 3-chain run and of a 4096-chain run can differ
in the last bits. A trajectory is therefore recorded inside the run it
belongs to. The draws of the last call are kept, read-only: a sweep samples
every row with the same seed, so its rows share one set of draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .domains import check_fields, within
from .guidance import guided_denoise
from .rng import stream
from .schedule import SCHEDULE, ZETA, ddim_transition


@dataclass(frozen=True)
class SampleConfig:
    steps: int = within(10, 1)
    count: int = within(4096, 1)
    churn: float = within(0.0, 0.0, 1.0, "[]")

    def __post_init__(self):
        check_fields(self)

    def grid(self):
        """Uniform time grid t_0 = ZETA < ... < t_steps = 1 - ZETA."""
        return np.linspace(ZETA, 1.0 - ZETA, self.steps + 1)


@lru_cache(maxsize=1)
def _chain_draws(count: int, steps: int, dim: int, seed: int):
    """Per-chain class uniforms, initial noise, and step noise, as read-only arrays."""
    u = np.empty(count)
    x_init = np.empty((count, dim))
    z = np.empty((count, steps, dim))
    for i in range(count):
        g = stream(seed, "sample/chain", i)
        u[i] = g.random()
        x_init[i] = g.standard_normal(dim)
        z[i] = g.standard_normal((steps, dim))
    for a in (u, x_init, z):
        a.flags.writeable = False
    return u, x_init, z


def _run(config: SampleConfig, cond, uncond, weight_fn, class_weights, seed: int,
         chain: int | None):
    """(x, c, states, omegas): every chain's final state and class, and chain's
    state before and after each step with each step's weight (none if chain is None).
    uncond must be cond: the one denoiser, queried at c and at c = None."""
    if uncond is not cond:
        raise ValueError("uncond must be the same denoiser as cond, which answers c = None")
    n_classes = cond.n_classes
    grid = config.grid()

    u, x_init, z = _chain_draws(config.count, config.steps, cond.dim, seed)
    c = np.minimum(np.searchsorted(np.cumsum(class_weights), u), n_classes - 1)
    classes = np.arange(n_classes)

    _, sigma_top = SCHEDULE.alpha_sigma(grid[-1])
    x = sigma_top * x_init
    states = [] if chain is None else [x[chain].copy()]
    omegas = []
    for k in range(config.steps - 1, -1, -1):
        s, t = grid[k], grid[k + 1]
        omega = weight_fn.weight(s, t, classes)[c]
        guided, _ = guided_denoise(cond, x, t, c, omega)
        trans = ddim_transition(s, t, config.churn)
        x = trans.sample(guided, x, z[:, k])
        if chain is not None:
            states.append(x[chain].copy())
            omegas.append(omega[chain])
    return x, c, states, omegas


def sample(config: SampleConfig, cond, uncond, weight_fn, class_weights, seed: int = 0):
    """Draw config.count guided samples from the denoiser cond (uncond must be
    cond), each chain's class drawn from class_weights (K,).

    Returns:
        (x, c) with x of shape (count, d) at time ZETA and the class labels
        each chain was conditioned on.
    """
    x, c, _, _ = _run(config, cond, uncond, weight_fn, class_weights, seed, None)
    return x, c


def sample_trajectory(config: SampleConfig, cond, uncond, weight_fn,
                      class_weights, seed: int = 0, chain: int = 0):
    """The sample() run, with every state of one of its chains recorded.

    Returns:
        (x, c, times, states, omegas): x and c as sample() returns them;
        times is the grid in visit order, from 1 - ZETA down to ZETA;
        states[j] is the chain's point at times[j], so states[-1] is
        x[chain] and c[chain] its class; omegas[j] is the weight used for the
        step into states[j + 1].
    """
    x, c, states, omegas = _run(config, cond, uncond, weight_fn, class_weights, seed, chain)
    return x, c, config.grid()[::-1], np.stack(states), np.array(omegas)
