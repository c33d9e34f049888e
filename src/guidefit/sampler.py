"""Guided ancestral sampler.

Chains start from the schedule's prior at 1 - zeta and take steps steps down
a uniform time grid to zeta. Each step queries the conditional and
unconditional denoisers once, combines them at omega(s, t, c), and applies
the reverse transition at the configured churn (0 by default, the
deterministic velocity step). omega depends on a chain only through its
class, so each step evaluates the weight function once on every class and
gathers by c: one row per class, and the same rows however many chains run.

Randomness is per chain: chain i draws from substream (seed, "sample/chain",
i), so its draws do not depend on how many chains run. Neither do its
results with the analytic teacher; a neural teacher's matrix products round
a row differently by how many rows share the call, so there chain i of a
3-chain run and of a 4096-chain run can differ in the last bits. A trajectory
is therefore recorded inside the run it belongs to. The draws of the last
call are kept, read-only: a sweep samples every row with the same seed, so
its rows share one set of draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .guidance import guided_denoise
from .rng import stream
from .schedule import DEFAULT_CLAMP, SCHEDULE, ddim_transition


@dataclass(frozen=True)
class SampleConfig:
    steps: int = 10
    count: int = 4096
    churn: float = 0.0
    conditioning: int | None = None  # None samples classes from class_weights
    zeta: float = DEFAULT_CLAMP

    def __post_init__(self):
        if self.steps < 1 or self.count < 1:
            raise ValueError("steps and count must be positive")
        if not 0.0 <= self.churn <= 1.0:
            raise ValueError("churn must lie in [0, 1]")
        if not 0.0 < self.zeta < 0.5:
            raise ValueError("zeta must lie in (0, 0.5)")

    def grid(self):
        """Uniform time grid t_0 = zeta < ... < t_steps = 1 - zeta."""
        return np.linspace(self.zeta, 1.0 - self.zeta, self.steps + 1)


@lru_cache(maxsize=1)
def _chain_draws(count: int, steps: int, draw_class: bool, dim: int, seed: int):
    """Per-chain class uniforms (zeros unless draw_class), initial noise, and
    step noise, as read-only arrays."""
    u = np.zeros(count)
    x_init = np.empty((count, dim))
    z = np.empty((count, steps, dim))
    for i in range(count):
        g = stream(seed, "sample/chain", i)
        if draw_class:
            u[i] = g.random()
        x_init[i] = g.standard_normal(dim)
        z[i] = g.standard_normal((steps, dim))
    for a in (u, x_init, z):
        a.flags.writeable = False
    return u, x_init, z


def _run(config: SampleConfig, cond, uncond, weight_fn, class_weights, seed: int,
         chain: int | None):
    """(x, c, states, omegas): every chain's final state and class, and chain's
    state before and after each step with each step's weight (none if chain is None)."""
    n_classes = cond.n_classes
    if class_weights is None:
        class_weights = np.full(n_classes, 1.0 / n_classes)
    class_weights = np.asarray(class_weights, dtype=float)
    dim = cond.dim
    grid = config.grid()

    u, x_init, z = _chain_draws(config.count, config.steps,
                                config.conditioning is None, dim, seed)
    if config.conditioning is None:
        c = np.searchsorted(np.cumsum(class_weights), u).astype(int)
        c = np.minimum(c, n_classes - 1)
    else:
        c = np.full(config.count, int(config.conditioning))
    classes = np.arange(n_classes)

    _, sigma_top = SCHEDULE.alpha_sigma(grid[-1])
    x = sigma_top * x_init
    states = [] if chain is None else [x[chain].copy()]
    omegas = []
    for k in range(config.steps - 1, -1, -1):
        s, t = grid[k], grid[k + 1]
        omega = np.asarray(weight_fn.weight(s, t, classes), dtype=float)[c]
        guided, _ = guided_denoise(cond, uncond, x, t, c, omega)
        trans = ddim_transition(s, t, config.churn)
        x, _ = trans.sample(guided, x, noise=z[:, k])
        if chain is not None:
            states.append(x[chain].copy())
            omegas.append(omega[chain])
    return x, c, states, omegas


def sample(config: SampleConfig, cond, uncond, weight_fn, class_weights=None, seed: int = 0):
    """Draw config.count guided samples.

    Returns:
        (x, c) with x of shape (count, d) at time zeta and the class labels
        each chain was conditioned on.
    """
    x, c, _, _ = _run(config, cond, uncond, weight_fn, class_weights, seed, None)
    return x, c


def sample_trajectory(config: SampleConfig, cond, uncond, weight_fn,
                      class_weights=None, seed: int = 0, chain: int = 0):
    """The sample() run, with every state of one of its chains recorded.

    Returns:
        (x, c, times, states, omegas): x and c as sample() returns them;
        times is the grid in visit order, from 1 - zeta down to zeta;
        states[j] is the chain's point at times[j], so states[-1] is
        x[chain] and c[chain] its class; omegas[j] is the weight used for the
        step into states[j + 1].
    """
    x, c, states, omegas = _run(config, cond, uncond, weight_fn, class_weights, seed, chain)
    return x, c, config.grid()[::-1], np.stack(states), np.array(omegas)
