"""One run of one workload in a fresh process; run.py starts it.

    python3 perfbench/worker.py SPEC.json

SPEC names the workload, seed, checkout root, input files and output
directory, and whether to trace, compute the quality metric, or stop after
set-up. The result is written as JSON to <out>/result.json. Set-up time is
counted from the top of this file, so it includes importing numpy and
guidefit. A calibration loop is timed after set-up and after the timed
command; neither is inside a measured interval.
"""

from time import perf_counter

_T0 = perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _run_cli(main, argv, tracer=None):
    """Exit code of guidefit's CLI on argv; the root span is tracer's 'cli'."""
    if tracer is None:
        return main(argv)
    from tracing import ROOT
    idx = tracer.open(ROOT)
    try:
        return main(argv)
    finally:
        tracer.close(idx)


def _calibrate(units: int = 20) -> float:
    """Seconds for a fixed mix of erf, matmul and cdist: the machine's speed now.

    run.py scales the run's times by it, because the speed of a shared CPU
    drifts by more than the benchmark's bounds between minutes.
    """
    import numpy as np
    from scipy.spatial.distance import cdist
    from scipy.special import erf
    # small blocks, so that calibration never sets the run's peak memory
    rng = np.random.default_rng(0)
    a, p = rng.standard_normal((1024, 64)), rng.standard_normal((256, 2))
    h, w = rng.standard_normal((128, 512)), rng.standard_normal((512, 256))
    start = perf_counter()
    for _ in range(units):
        for _ in range(4):
            erf(a)
        h @ w
        for _ in range(16):
            cdist(p, p)
    return perf_counter() - start


def _quality(workload, inputs, out):
    """Energy MMD of the run's result against data draws, at the fixed EVAL_SEED."""
    if workload == "sweep-analytic":
        with open(os.path.join(out, "sweep.json")) as fh:
            rows = json.load(fh)["rows"]
        return float(next(r["mmd"] for r in rows if r["label"] == "learned"))
    from guidefit.checkpoints import load_denoiser, load_weight_fn
    from guidefit.config import load_config
    from guidefit.evaluation import energy_mmd
    from guidefit.rng import stream
    from guidefit.sampler import sample
    from workloads import EVAL_SEED
    config = load_config(inputs["config"])
    denoiser = load_denoiser(os.path.join(out, "denoiser.json"))
    weights = load_weight_fn(os.path.join(out, "guidance.json"))
    x, _ = sample(config.sample, denoiser, denoiser, weights,
                  class_weights=config.mog.weights, seed=EVAL_SEED)
    ref, _ = config.mog.sample_joint(config.sample.count,
                                     stream(EVAL_SEED, "perfbench/quality"))
    return float(energy_mmd(x, ref, beta=config.eval.beta, lam=config.eval.lam))


def run(spec: dict) -> dict:
    src = os.path.join(spec["root"], "src")
    sys.path.insert(0, src)
    import workloads
    from guidefit import cli
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        return {"errors": [f"imported guidefit from {cli.__file__}, not from {src}"]}
    main = cli.main

    tracer = None
    if spec["trace"]:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)

    workload, out, seed = spec["workload"], spec["out"], spec["seed"]
    setup, timed = workloads.commands(workload, spec["inputs"], out, seed)
    result = {"errors": []}
    for argv in setup:
        code = _run_cli(main, argv)
        if code != 0:
            result["errors"].append(f"set-up {argv[0]} exited {code}")
            return result
    result["setup_s"] = perf_counter() - _T0
    result["cal_s"] = [_calibrate()]
    if spec["setup_only"]:
        result["digests"] = workloads.digests(workload, out)
        return result

    if tracer is not None:
        tracer.reset_counts()
        root = len(tracer.spans)
    start = perf_counter()
    code = _run_cli(main, timed, tracer)
    result["wall_s"] = perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    result["cal_s"].append(_calibrate())
    result["peak_rss_mb"] = after.ru_maxrss / 1024.0
    if code != 0:
        result["errors"].append(f"{timed[0]} exited {code}")
        return result

    result["errors"] += workloads.check(workload, spec["inputs"], out)
    result["digests"] = workloads.digests(workload, out)
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer, root, result["wall_s"])
        result["span_names"] = sorted({s[0] for s in tracer.spans})
        tracer.write(os.path.join(out, "spans.json"))
    if spec["quality"] and not result["errors"]:
        result["quality_mmd"] = _quality(workload, spec["inputs"], out)
    return result


if __name__ == "__main__":
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    res = run(spec)
    with open(os.path.join(spec["out"], "result.json"), "w") as fh:
        json.dump(res, fh, indent=1, sort_keys=True)
