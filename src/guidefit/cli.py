"""Command-line interface.

Every command reads one JSON experiment config and writes its artifacts into
an output directory. Outputs are byte-deterministic given (config, seed) at
one BLAS thread count; another count sums matrix products in another order,
which moves trained weights and what follows from them. Float fields are
written at full precision and each artifact carries the config digest and
seed in its header or metadata instead of timestamps.

Commands:
    pretrain-denoiser  build or train the denoiser, write denoiser.json
    train-guidance     fit guidance weights, write guidance.json + train_record.csv
    sample             draw samples (samples.csv), optionally a trajectory
    eval-mmd           score one sample CSV against another
    sweep              constant-weight sweep (optionally + learned), sweep.csv/json
    export-weights     tabulate a weight function over the time grid

Exit codes: 0 success, 2 configuration or usage error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import json
import math
import os
import sys

import numpy as np

from .checkpoints import (CheckpointError, load_denoiser, load_weight_fn,
                          save_denoiser, save_weight_fn)
from .config import (ConfigError, ExperimentConfig, build_denoiser,
                     build_guidance_net, config_digest, load_config,
                     section_digests)
from .evaluation import (EvalReport, EvalRow, mmd_with_se, run_figure_protocol,
                         write_table)
from .guidance import ConstantWeight, export_weight_grid
from .sampler import sample, sample_trajectory
from .trainer import TrainingDiverged, train_guidance


def _add_common(parser):
    parser.add_argument("--config", required=True, help="experiment config JSON")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override every seed in the config")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="guidefit",
                                     description="learned guidance weights for diffusion samplers")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pretrain-denoiser", help="build or train the config's denoiser")
    _add_common(p)

    p = sub.add_parser("train-guidance", help="fit the guidance weight net")
    _add_common(p)
    p.add_argument("--denoiser", default=None,
                   help="denoiser checkpoint (default <out>/denoiser.json, else built from config)")

    p = sub.add_parser("sample", help="draw samples from the guided sampler")
    _add_common(p)
    p.add_argument("--denoiser", default=None)
    p.add_argument("--guidance", default=None,
                   help="weight checkpoint (default <out>/guidance.json if present, else omega=0)")
    p.add_argument("--from-data", action="store_true",
                   help="draw from the data mixture instead of the sampler")
    p.add_argument("--trajectory", type=int, default=None, metavar="CHAIN",
                   help="also record chain CHAIN's full trajectory")
    p.add_argument("--output", default=None, help="samples CSV path (default <out>/samples.csv)")

    p = sub.add_parser("eval-mmd", help="energy MMD between two sample CSVs")
    _add_common(p)
    p.add_argument("--generated", required=True)
    p.add_argument("--reference", required=True)

    p = sub.add_parser("sweep", help="constant guidance sweep over the config's grid")
    _add_common(p)
    p.add_argument("--denoiser", default=None)
    p.add_argument("--guidance", default=None,
                   help="optional learned weights to append as a 'learned' row")

    p = sub.add_parser("export-weights", help="tabulate omega(s, t, c) over the time grid")
    _add_common(p)
    p.add_argument("--guidance", default=None)
    return parser


def _load_setup(args):
    config = load_config(args.config)
    if args.seed is not None:
        if args.seed < 0:  # checked here: with_seed's ValueError is not a ConfigError
            raise ConfigError(f"--seed must be non-negative, got {args.seed}")
        config = config.with_seed(args.seed)
    digest = config_digest(config)
    return config, digest, f"seed={config.seed} config_digest={digest}"


def _artifact(path):
    """path, once its directory exists. Every artifact is written through it, so
    --out appears with the first artifact and a usage error found before that
    leaves no directory behind."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    return path


def _checkpoint(path, default, load, config: ExperimentConfig, quiet: bool):
    """load(path), else load(default) when no path is given and default exists, else None.

    A given path that does not exist, or a checkpoint for another class count
    than the config's, is a ConfigError. A checkpoint that records another
    digest for one of the config's sections is a CheckpointError naming it.
    """
    if path is None:
        path = default if default is not None and os.path.exists(default) else None
    elif not os.path.exists(path):
        raise ConfigError(f"checkpoint {path} not found")
    if path is None:
        return None
    if not quiet:
        print(f"loading {path}")
    obj = load(path, sections=section_digests(config))
    if obj.n_classes != config.mog.n_classes:
        raise ConfigError(f"checkpoint {path} is for {obj.n_classes} classes, "
                          f"the config's mog has {config.mog.n_classes}")
    return obj


def _denoiser(args, config: ExperimentConfig):
    """--denoiser, else <out>/denoiser.json, else the denoiser the config builds."""
    return (_checkpoint(args.denoiser, os.path.join(args.out, "denoiser.json"),
                        load_denoiser, config, args.quiet)
            or build_denoiser(config, quiet=args.quiet))


def _weight_fn(args, config: ExperimentConfig):
    """--guidance, else <out>/guidance.json, else omega = 0."""
    return (_checkpoint(args.guidance, os.path.join(args.out, "guidance.json"),
                        load_weight_fn, config, args.quiet)
            or ConstantWeight(0.0))


def _read_samples(path):
    """(x, c) from a sample CSV: rows of a class label and finite coordinates,
    under an optional "c, ..." header. Anything else is a ConfigError naming path:line."""
    xs, cs = [], []
    width = None
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                if line.startswith("#") or not line.strip():
                    continue
                row = next(csv.reader([line]))
                if row[0] == "c":
                    if len(row) < 2:
                        raise ConfigError(f"{path}:{lineno}: the header names no coordinate")
                    width = len(row)
                    continue
                width = width or max(len(row), 2)
                if len(row) != width:
                    raise ConfigError(f"{path}:{lineno}: {len(row)} columns, expected {width}")
                try:
                    cs.append(int(row[0]))
                    xs.append([float(v) for v in row[1:]])
                except ValueError as exc:
                    raise ConfigError(f"{path}:{lineno}: non-numeric value ({exc})") from None
                if not all(map(math.isfinite, xs[-1])):
                    raise ConfigError(f"{path}:{lineno}: non-finite coordinate")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not valid UTF-8: {exc}") from None
    if not xs:
        raise ConfigError(f"{path} contains no samples")
    return np.array(xs), np.array(cs)


def cmd_pretrain_denoiser(args) -> int:
    config, digest, _ = _load_setup(args)
    denoiser = build_denoiser(config, quiet=args.quiet)
    path = os.path.join(args.out, "denoiser.json")
    save_denoiser(_artifact(path), denoiser,
                  {"seed": config.seed, "config_digest": digest,
                   "kind": config.denoiser.kind,
                   "section_digests": section_digests(config, ("mog", "denoiser"))})
    if not args.quiet:
        print(f"wrote {path}")
    return 0


def cmd_train_guidance(args) -> int:
    config, digest, header = _load_setup(args)
    denoiser = _denoiser(args, config)
    net = build_guidance_net(config)
    if not args.quiet:
        print(f"training guidance ({config.train.mode}, {config.train.iterations} iterations)")
    try:
        net, record = train_guidance(net, denoiser, config.mog, config.train, quiet=args.quiet)
    except TrainingDiverged as exc:
        exc.record.write_csv(_artifact(os.path.join(args.out, "train_record.csv")), header)
        with open(os.path.join(args.out, "diverged.json"), "w") as fh:
            fh.write(json.dumps({"diverged_at": exc.iteration, "config_digest": digest}) + "\n")
        raise
    record.write_csv(_artifact(os.path.join(args.out, "train_record.csv")), header)
    path = os.path.join(args.out, "guidance.json")
    save_weight_fn(path, net, {"seed": config.seed, "config_digest": digest,
                               "mode": config.train.mode,
                               "iterations": config.train.iterations,
                               "section_digests": section_digests(config)})
    if not args.quiet:
        print(f"wrote {path} and train_record.csv")
    return 0


def cmd_sample(args) -> int:
    if args.from_data and args.trajectory is not None:
        raise ConfigError("--trajectory records a sampler chain; --from-data draws have none")
    config, _, header = _load_setup(args)
    if args.trajectory is not None and not 0 <= args.trajectory < config.sample.count:
        raise ConfigError(f"--trajectory {args.trajectory} is not a chain in "
                          f"[0, {config.sample.count})")
    out_path = args.output or os.path.join(args.out, "samples.csv")
    if args.from_data:
        from .rng import stream
        x, c = config.mog.sample_joint(config.sample.count,
                                       stream(config.seed, "sample/data"))
        source = "data"
    else:
        weight_fn = _weight_fn(args, config)
        denoiser = _denoiser(args, config)
        run = (config.sample, denoiser, denoiser, weight_fn, config.mog.weights, config.seed)
        if args.trajectory is None:
            x, c = sample(*run)
        else:
            x, c, times, states, omegas = sample_trajectory(*run, chain=args.trajectory)
        if not np.all(np.isfinite(x)):
            raise FloatingPointError("sampler produced non-finite values")
        source = "model"
    write_table(_artifact(out_path), f"{header} source={source}", ["c", "x", "y"],
                zip(c, x[:, 0], x[:, 1]))
    if not args.quiet:
        print(f"wrote {out_path} ({x.shape[0]} {source} draws)")
    if args.trajectory is not None:
        traj_path = os.path.join(args.out, "trajectory.csv")
        write_table(_artifact(traj_path),
                    f"{header} chain={args.trajectory} class={c[args.trajectory]}",
                    ["k", "t_k", "x", "y", "omega"],
                    zip(range(times.shape[0] - 1, -1, -1), times, states[:, 0],
                        states[:, 1], [None, *omegas]))
        if not args.quiet:
            print(f"wrote {traj_path}")
    return 0


def cmd_eval_mmd(args) -> int:
    config, digest, _ = _load_setup(args)
    gen, _ = _read_samples(args.generated)
    ref, _ = _read_samples(args.reference)
    for path, x in ((args.generated, gen), (args.reference, ref)):
        if x.shape[0] < 3:
            raise ConfigError(f"{path} holds {x.shape[0]} sample(s); the MMD's error bar "
                              "needs at least 3")
    if gen.shape[1] != ref.shape[1]:
        raise ConfigError(f"{args.generated} holds {gen.shape[1]}-D points but "
                          f"{args.reference} holds {ref.shape[1]}-D points")
    mmd, se = mmd_with_se(gen, ref, beta=config.eval.beta, lam=config.eval.lam,
                          n_resamples=config.eval.resamples, seed=config.seed)
    if not np.isfinite([mmd, se]).all():
        raise FloatingPointError("MMD evaluation produced a non-finite value or error bar")
    report = EvalReport(rows=[EvalRow(label="eval", omega=None, mmd=mmd, se=se,
                                      count=gen.shape[0])],
                        beta=config.eval.beta, lam=config.eval.lam,
                        seed=config.seed, config_digest=digest)
    report.write_json(_artifact(os.path.join(args.out, "eval.json")))
    print(f"mmd {mmd!r} se {se!r} (beta={config.eval.beta:g}, lam={config.eval.lam:g}, "
          f"n={gen.shape[0]} vs {ref.shape[0]})")
    return 0


def cmd_sweep(args) -> int:
    config, digest, header = _load_setup(args)
    if config.sample.count < 3:
        raise ConfigError(f"sample.count must be at least 3 for the sweep's error bars, "
                          f"got {config.sample.count}")
    if not config.eval.omega_grid and args.guidance is None:
        raise ConfigError("eval.omega_grid is empty and no --guidance is given: "
                          "the sweep has nothing to score")
    learned = _checkpoint(args.guidance, None, load_weight_fn, config, args.quiet)
    denoiser = _denoiser(args, config)
    report = run_figure_protocol(
        denoiser, config.mog, config.sample, config.eval.omega_grid, learned_fn=learned,
        beta=config.eval.beta, lam=config.eval.lam,
        n_resamples=config.eval.resamples, seed=config.seed,
        config_digest=digest, quiet=args.quiet)
    if not all(np.isfinite([r.mmd, r.se]).all() for r in report.rows):
        raise FloatingPointError("sweep evaluation produced a non-finite value")
    report.write_csv(_artifact(os.path.join(args.out, "sweep.csv")), header)
    report.write_json(os.path.join(args.out, "sweep.json"))
    if not args.quiet:
        print(f"wrote sweep.csv and sweep.json ({len(report.rows)} rows)")
    return 0


def cmd_export_weights(args) -> int:
    config, _, header = _load_setup(args)
    weight_fn = _weight_fn(args, config)
    t, omegas = export_weight_grid(weight_fn, config.mog.n_classes)
    if not np.all(np.isfinite(omegas)):
        raise FloatingPointError("weight function produced non-finite values")
    path = os.path.join(args.out, "weights.csv")
    write_table(_artifact(path), header, ["class", "t", "omega"],
                ((cls, tj, w) for cls, row in enumerate(omegas) for tj, w in zip(t, row)))
    if not args.quiet:
        print(f"wrote {path} ({omegas.size} rows)")
    return 0


_COMMANDS = {
    "pretrain-denoiser": cmd_pretrain_denoiser,
    "train-guidance": cmd_train_guidance,
    "sample": cmd_sample,
    "eval-mmd": cmd_eval_mmd,
    "sweep": cmd_sweep,
    "export-weights": cmd_export_weights,
}


def _fix_malloc_thresholds() -> bool:
    """Fix glibc's mmap threshold at 32 MiB and its trim threshold at twice that.

    Under glibc's dynamic thresholds every large numpy temporary was mapped
    afresh and faulted in again on each teacher call; either setting alone was
    worse than neither. Idempotent; off glibc it returns False, changing nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    return (mallopt(-3, 32 << 20) == 1  # M_MMAP_THRESHOLD
            and mallopt(-1, 64 << 20) == 1)  # M_TRIM_THRESHOLD


def main(argv=None) -> int:
    _fix_malloc_thresholds()
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, CheckpointError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TrainingDiverged, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
