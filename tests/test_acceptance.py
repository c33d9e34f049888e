"""End-to-end acceptance checks.

Each test covers one headline claim of the package and prints a single
PASS/FAIL line with its measured margins, so a test log doubles as a results
table. The regime tests train the shipped configs from scratch; evaluation
randomness uses a seed held out from training. Expected total runtime is a
few minutes, dominated by the four training runs.
"""

import dataclasses
import json
from functools import partial
from pathlib import Path

import numpy as np

from guidefit.cli import main as cli_main
from guidefit.config import build_denoiser, build_guidance_net, load_config
from guidefit.denoisers import mixture_score, posterior_mean
from guidefit.evaluation import mmd_with_se
from guidefit.guidance import GuidanceNet, mean_abs_weight
from guidefit.objectives import (MmdParams, ParticleBatch, build_gsm, build_particles,
                                 distance_to_mean, guided_score_matching_loss, l2_loss,
                                 mmd_loss, reward_loss)
from guidefit.rng import stream
from guidefit.sampler import sample
from guidefit.schedule import DdimTransition, NoiseSchedule, ddim_transition, noise_sample
from guidefit.trainer import TrainConfig, loss_param_grad, train_guidance

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
EVAL_SEED = 11  # sampling/eval seed, held out from the training seed


def verdict(name, ok, detail):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def combined(se_a, se_b):
    return float(np.sqrt(se_a**2 + se_b**2))


# ---------------------------------------------------------------- transitions

def test_transition_marginal_consistency():
    """Noising to t then stepping to s must reproduce the noising marginal at s.

    Checked at every churn in {0, 0.5, 1} x (s, t) pair over 10^5 draws; the
    sample mean and per-coordinate variance must sit within 4 Monte Carlo
    standard errors of alpha_s x0 and sigma_s^2.
    """
    sched = NoiseSchedule()
    x0 = np.array([1.5, -0.7])
    k = 100_000
    worst_mean = worst_var = 0.0
    for churn in (0.0, 0.5, 1.0):
        for s, t in ((0.2, 0.5), (0.5, 0.8), (0.1, 0.95)):
            rng = stream(0, f"acc/marginal/{churn}/{s}/{t}")
            x_t, _ = noise_sample(np.broadcast_to(x0, (k, 2)), t, rng)
            trans = ddim_transition(s, t, churn)
            x_s, _ = trans.sample(x0, x_t, rng)
            alpha_s, sigma_s = sched.alpha_sigma(s)
            mean_se = sigma_s / np.sqrt(k)
            var_se = sigma_s**2 * np.sqrt(2.0 / (k - 1))
            mean_dev = np.max(np.abs(x_s.mean(axis=0) - alpha_s * x0)) / mean_se
            var_dev = np.max(np.abs(x_s.var(axis=0, ddof=1) - sigma_s**2)) / var_se
            worst_mean = max(worst_mean, mean_dev)
            worst_var = max(worst_var, var_dev)
    verdict("transition marginal consistency",
            worst_mean < 4.0 and worst_var < 4.0,
            f"worst mean dev {worst_mean:.2f} SE, worst var dev {worst_var:.2f} SE, "
            f"limit 4 SE over 9 (churn, s, t) combinations x {k} draws")


# ------------------------------------------------------------- gradient suite

def _omega_fd_error(loss_fn, batch, omega):
    """Worst per-item relative error of the analytic omega-gradient vs FD at omega."""
    _, grad = loss_fn(batch, omega)
    h = 1e-6
    up, _ = loss_fn(batch, omega + h)
    down, _ = loss_fn(batch, omega - h)
    fd = (up - down) / (2.0 * h)
    return float(np.max(np.abs(fd - grad) / np.maximum(np.abs(fd), 1e-8)))


def _param_fd_error(net, exact, mog, x0, c, s, t, config, n_coords=8):
    """Worst relative error over the largest-gradient parameter coordinates."""
    _, grad = loss_param_grad(net, exact, exact, mog, x0, c, s, t, config)
    flat = net.params.copy()
    h = 1e-6
    worst = 0.0
    for i in np.argsort(-np.abs(grad))[:n_coords]:
        fp = flat.copy()
        fp[i] += h
        net.params[:] = fp
        up, _ = loss_param_grad(net, exact, exact, mog, x0, c, s, t, config)
        fp[i] -= 2.0 * h
        net.params[:] = fp
        down, _ = loss_param_grad(net, exact, exact, mog, x0, c, s, t, config)
        net.params[:] = flat
        fd = (up - down) / (2.0 * h)
        worst = max(worst, abs(fd - grad[i]) / max(abs(fd), 1e-8))
    return worst


def test_gradient_suite(mog, exact):
    """Analytic d loss / d omega and d loss / d parameters vs central finite
    differences, relative error <= 1e-5, for all four objectives at 3 frozen
    random batches each. Source times sit high in the interval so the
    conditional-unconditional difference (and hence the gradient) is nonzero.
    """
    reward = partial(distance_to_mean, mog)
    omega_losses = {
        "self_consistency": lambda b, w: mmd_loss(b, MmdParams(1.75, 1.0), w),
        "l2": lambda b, w: l2_loss(b, w),
        "reward": lambda b, w: reward_loss(b, reward, w),
        "guided_sm": guided_score_matching_loss,
    }
    param_configs = {
        "self_consistency": TrainConfig(particles=4, seed=12),
        "l2": TrainConfig(mode="l2", particles=1, seed=12),
        "reward": TrainConfig(mode="reward", reward="distance_to_mean",
                              gamma_reward=0.3, particles=4, seed=12),
        "guided_sm": TrainConfig(mode="guided_sm", seed=12),
    }
    net = GuidanceNet.create(4, stream(5, "acc/grad_init"))
    jig = stream(6, "acc/grad_jiggle")
    for p in net.parameters():
        p += 0.03 * jig.standard_normal(p.shape)

    worst = {}
    for point in range(3):
        rng = stream(point, "acc/grad_points")
        x0, c = mog.sample_joint(6, rng)
        s = rng.uniform(0.7, 0.85, size=6)
        t = rng.uniform(0.9, 0.97, size=6)
        m1 = build_particles(x0, c, s, t, 8, exact, exact, 1.0, rng)
        single = build_particles(x0, c, s, t, 1, exact, exact, 1.0, rng)
        gsm = build_gsm(x0, c, t, exact, exact, rng)
        for name, fn in omega_losses.items():
            batch = {"l2": single, "guided_sm": gsm}.get(name, m1)
            err = _omega_fd_error(fn, batch, 0.3)
            worst[f"{name}/omega"] = max(worst.get(f"{name}/omega", 0.0), err)
        for name, config in param_configs.items():
            err = _param_fd_error(net, exact, mog, x0, c, s, t, config)
            worst[f"{name}/params"] = max(worst.get(f"{name}/params", 0.0), err)

    top = max(worst.values())
    verdict("gradient suite", top <= 1e-5,
            f"worst relative error {top:.2e} over {len(worst)} loss/argument "
            f"combinations x 3 batches, limit 1e-5")


# --------------------------------------------------------- denoiser as oracle

def _is_posterior(mog, x_t, t, c, n, rng):
    # prior proposals, forward-likelihood weights, delta-method standard error
    alpha, sigma = NoiseSchedule().alpha_sigma(t)
    if c is None:
        x0, _ = mog.sample_joint(n, rng)
    else:
        x0 = mog.means[c] + np.sqrt(mog.variances[c]) * rng.standard_normal((n, mog.dim))
    log_w = -0.5 * np.sum((x_t - alpha * x0) ** 2, axis=1) / sigma**2
    w = np.exp(log_w - log_w.max())
    w = w / w.sum()
    mean = w @ x0
    se = np.sqrt(np.sum(w[:, None] ** 2 * (x0 - mean) ** 2, axis=0))
    return mean, se


def test_posterior_mean_oracle(mog):
    """Closed-form posterior means vs importance sampling (10^6 proposals,
    4 sigma) at 10 random noisy points, conditional and marginal, plus the
    score identity xhat0 = (x + sigma^2 grad log p_t) / alpha to 1e-8."""
    rng = stream(7, "acc/oracle")
    worst = 0.0
    for _ in range(10):
        x0, c = mog.sample_joint(1, rng)
        t = float(rng.uniform(0.4, 0.95))
        x_t = (1.0 - t) * x0[0] + t * rng.standard_normal(2)
        for cond in (int(c[0]), None):
            est, se = _is_posterior(mog, x_t, t, cond, 1_000_000, rng)
            exact_mean = posterior_mean(mog, x_t, t, cond)
            worst = max(worst, float(np.max(np.abs(est - exact_mean) / se)))

    sched = NoiseSchedule()
    grid = np.linspace(-14.0, 14.0, 7)
    pts = np.stack(np.meshgrid(grid, grid), axis=-1).reshape(-1, 2)
    tweedie_err = 0.0
    for t in (0.1, 0.3, 0.5, 0.7, 0.9):
        alpha, sigma = sched.alpha_sigma(t)
        identity = (pts + sigma**2 * mixture_score(mog, pts, t)) / alpha
        tweedie_err = max(tweedie_err, float(np.max(np.abs(
            posterior_mean(mog, pts, t) - identity))))

    verdict("posterior mean oracle",
            worst < 4.0 and tweedie_err < 1e-8,
            f"worst IS deviation {worst:.2f} sigma (limit 4), "
            f"score identity max abs err {tweedie_err:.1e} (limit 1e-8)")


# -------------------------------------------------------- estimator identities

def test_estimator_identities(mog, exact):
    """Three exact relationships between the estimators: the single-particle
    quadratic objective equals the beta=2, lam=0 energy loss; two halves of
    one data draw score zero within 4 subsampling SE; and a hand-computable
    two-particle batch gives exactly -1."""
    rng = stream(8, "acc/identities")
    x0, c = mog.sample_joint(16, rng)
    s = rng.uniform(0.3, 0.6, size=16)
    t = rng.uniform(0.7, 0.95, size=16)
    batch = build_particles(x0, c, s, t, 1, exact, exact, 1.0, rng)
    quad = MmdParams(beta=2.0, lam=0.0)
    id_err = 0.0
    for w in (0.5, -0.5, 1.5):
        lv, lg = l2_loss(batch, w)
        mv, mg = mmd_loss(batch, quad, w)
        id_err = max(id_err, float(np.max(np.abs(lv - mv))), float(np.max(np.abs(lg - mg))))

    x, _ = mog.sample_joint(4096, stream(9, "acc/halves"))
    mmd, se = mmd_with_se(x[:2048], x[2048:], seed=0)

    pts = np.array([[[0.0, 0.0], [2.0, 0.0]]])
    zeros = np.zeros((1, 2, 2))
    hand = ParticleBatch(
        c=np.array([0]), targets=pts.copy(), prop_noisy=pts.copy(), xhat_c=zeros.copy(),
        delta=zeros.copy(), trans=DdimTransition(np.array([1.0]), np.array([0.0]),
                                                 np.array([0.0])),
        trans_noise=zeros.copy())
    hand_loss = mmd_loss(hand, MmdParams(beta=1.0, lam=1.0), 0.0)[0][0]

    verdict("estimator identities",
            id_err < 1e-12 and abs(mmd) < 4.0 * se and hand_loss == -1.0,
            f"quadratic-vs-energy max err {id_err:.1e} (limit 1e-12), "
            f"two-halves mmd {mmd:.5f} vs 4 SE = {4.0 * se:.5f}, "
            f"two-particle batch loss {hand_loss} (must equal -1 exactly)")


# ------------------------------------------------------------ trained regimes

def _sweep(config, den, net):
    from guidefit.evaluation import run_figure_protocol

    return run_figure_protocol(den, den, config.mog, config.sample,
                               config.eval.omega_grid, learned_fn=net,
                               beta=config.eval.beta, lam=config.eval.lam,
                               n_resamples=config.eval.resamples, seed=EVAL_SEED)


def _train_from_config(config):
    den = build_denoiser(config)
    net = build_guidance_net(config)
    net, _ = train_guidance(net, den, den, config.mog, config.train)
    return den, net


def test_well_trained_regime():
    """With the exact denoiser, constant guidance only hurts: the sweep minimum
    sits at omega <= 0.5 and the curve is non-decreasing past it (2-SE slack);
    the learned net stays near zero (probe mean |omega| < 0.1) and samples at
    least as well as the unguided chain (2-SE slack)."""
    config = load_config(CONFIGS / "well_trained.json")
    den, net = _train_from_config(config)
    report = _sweep(config, den, net)

    grid = list(config.eval.omega_grid)
    rows = [report.row(f"omega={g:g}") for g in grid]
    argmin = int(np.argmin([r.mmd for r in rows]))
    ordinal_ok = grid[argmin] <= 0.5 and all(
        rows[i + 1].mmd >= rows[i].mmd - 2.0 * combined(rows[i].se, rows[i + 1].se)
        for i in range(argmin, len(rows) - 1))
    probe = mean_abs_weight(net, config.mog.n_classes)
    unguided, learned = report.row("omega=0"), report.row("learned")
    learned_ok = learned.mmd <= unguided.mmd + 2.0 * combined(unguided.se, learned.se)

    curve = ", ".join(f"{g:g}:{r.mmd:.4f}" for g, r in zip(grid, rows))
    verdict("well-trained regime",
            ordinal_ok and probe < 0.1 and learned_ok,
            f"sweep [{curve}] minimum at omega={grid[argmin]:g}, "
            f"probe mean|omega| {probe:.4f} (limit 0.1), "
            f"learned {learned.mmd:.5f}+-{learned.se:.5f} vs "
            f"unguided {unguided.mmd:.5f}+-{unguided.se:.5f}")


def test_under_trained_regime():
    """With a briefly trained neural denoiser, positive guidance helps: some
    grid weight beats omega = 0 by 2 SE, and the learned net matches or beats
    the best constant (2-SE slack)."""
    config = load_config(CONFIGS / "under_trained.json")
    den, net = _train_from_config(config)
    report = _sweep(config, den, net)

    grid = list(config.eval.omega_grid)
    rows = {g: report.row(f"omega={g:g}") for g in grid}
    base = rows[0.0]
    dip_ok = any(rows[g].mmd < base.mmd - 2.0 * combined(base.se, rows[g].se)
                 for g in grid if g > 0.0)
    best_g = min(grid, key=lambda g: rows[g].mmd)
    best = rows[best_g]
    learned = report.row("learned")
    learned_ok = learned.mmd <= best.mmd + 2.0 * combined(best.se, learned.se)

    curve = ", ".join(f"{g:g}:{rows[g].mmd:.4f}" for g in grid)
    verdict("under-trained regime",
            dip_ok and learned_ok,
            f"sweep [{curve}] dips below omega=0 with 2-SE margin: {dip_ok}, "
            f"learned {learned.mmd:.4f}+-{learned.se:.4f} vs best constant "
            f"omega={best_g:g}: {best.mmd:.4f}+-{best.se:.4f}")


def test_guided_score_matching_stays_unguided():
    """Regressing the guided estimate onto clean data cannot prefer any
    nonzero weight when the denoiser is exact, so training must end at the
    zero function: probe mean |omega| < 0.05."""
    config = load_config(CONFIGS / "guided_sm.json")
    _, net = _train_from_config(config)
    probe = mean_abs_weight(net, config.mog.n_classes)
    verdict("guided score matching stays unguided", probe < 0.05,
            f"probe mean|omega| {probe:.5f}, limit 0.05")


def test_reward_training_shifts_samples():
    """Adding the distance-to-class-mean reward must raise the mean sample
    reward over the gamma = 0 run by 2 SE; the pooled two-sample score is
    allowed to degrade and is reported."""
    config = load_config(CONFIGS / "reward.json")
    den = build_denoiser(config)
    ref, _ = config.mog.sample_joint(config.sample.count, stream(999, "ref"))

    stats = {}
    for gamma in (0.0, config.train.gamma_reward):
        train_cfg = dataclasses.replace(config.train, gamma_reward=gamma)
        net = build_guidance_net(config)
        net, _ = train_guidance(net, den, den, config.mog, train_cfg)
        x, c = sample(config.sample, den, den, net,
                      class_weights=config.mog.weights, seed=EVAL_SEED)
        rew = -np.sum((x - config.mog.means[c]) ** 2, axis=1)
        mmd, se = mmd_with_se(x, ref, seed=1)
        stats[gamma] = (float(rew.mean()), float(rew.std(ddof=1) / np.sqrt(rew.shape[0])),
                        mmd, se)

    gamma = config.train.gamma_reward
    r0, r0_se, m0, m0_se = stats[0.0]
    r1, r1_se, m1, m1_se = stats[gamma]
    margin = (r1 - r0) / combined(r0_se, r1_se)
    verdict("reward training shifts samples",
            margin > 2.0 and np.isfinite(m1) and m1 - m0 < 0.05,
            f"mean reward {r0:.2f}+-{r0_se:.2f} (gamma=0) -> {r1:.2f}+-{r1_se:.2f} "
            f"(gamma={gamma:g}), margin {margin:.1f} SE (need > 2); pooled mmd "
            f"{m0:.5f}+-{m0_se:.5f} -> {m1:.5f}+-{m1_se:.5f}")


# ---------------------------------------------------------------- determinism

def test_cli_determinism(tmp_path):
    """Every CLI command re-run with the same config and seed must reproduce
    byte-identical artifacts."""
    config = {
        "seed": 3,
        "denoiser": {"kind": "analytic"},
        "guidance": {"embed_hidden": 16, "embed_dim": 16, "trunk_hidden": 8,
                     "trunk_layers": 2},
        "train": {"mode": "self_consistency", "iterations": 6, "batch_size": 16,
                  "particles": 4, "checkpoint_every": 3, "probe_size": 32},
        "sample": {"steps": 5, "count": 48},
        "eval": {"omega_grid": [0.0, 1.0], "resamples": 4},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))

    def pipeline(out: Path):
        base = ["--config", str(cfg_path), "--out", str(out), "--quiet"]
        steps = [
            ["pretrain-denoiser", *base],
            ["train-guidance", *base],
            ["sample", *base, "--trajectory", "0"],
            ["sample", *base, "--from-data", "--output", str(out / "data.csv")],
            ["eval-mmd", *base, "--generated", str(out / "samples.csv"),
             "--reference", str(out / "data.csv")],
            ["sweep", *base, "--guidance", str(out / "guidance.json")],
            ["export-weights", *base, "--guidance", str(out / "guidance.json")],
        ]
        for argv in steps:
            assert cli_main(argv) == 0, argv[0]

    pipeline(tmp_path / "a")
    pipeline(tmp_path / "b")
    artifacts = ["denoiser.json", "guidance.json", "train_record.csv",
                 "samples.csv", "trajectory.csv", "data.csv", "eval.json",
                 "sweep.csv", "sweep.json", "weights.csv"]
    mismatched = [name for name in artifacts
                  if (tmp_path / "a" / name).read_bytes()
                  != (tmp_path / "b" / name).read_bytes()]
    verdict("cli determinism", not mismatched,
            f"{len(artifacts) - len(mismatched)}/{len(artifacts)} artifacts "
            f"byte-identical across reruns"
            + (f", mismatched: {mismatched}" if mismatched else ""))
