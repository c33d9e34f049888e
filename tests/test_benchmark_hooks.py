"""The benchmark must still run on the current package.

perfbench/tracing.py wraps guidefit functions and methods by name, and
perfbench/workloads.py checks the artifacts every run writes (checkpoint
params against the declared sizes, train_record.csv's exact header, the
sweep's rows). Breaking either marks every benchmark run failed, yet only
`perfbench/run.py` and `perfbench/selftest.py` would notice, and the unit
tests run neither. The tracer's counters read guidefit's arguments too
(`_count_mmd_loss` reads a ParticleBatch), so the tiny workloads also run
traced here. These tests run the benchmark's own code in a fresh
interpreter (the tracer rebinds module attributes, which must not leak into
this process). They read perfbench/ and change nothing there. Each tiny
script runs once per module, and the traced run's artifacts must equal the
untraced run's byte for byte, as `perfbench/run.py --trace 1` requires.

They also guard the sampler's public positional order: `worker._quality`
calls `sample(config.sample, denoiser, denoiser, weights, ...)`, so
`sample` keeps its `(config, cond, uncond, weight_fn, class_weights, seed)`
positions, with uncond the same object as cond.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [str(ROOT / "perfbench"), str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))


def test_tracer_installs_on_current_package():
    proc = subprocess.run(
        [sys.executable, "-c", "import tracing; tracing.install(tracing.Tracer())"],
        cwd=ROOT, env=ENV, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# Runs every workload's set-up and timed commands at the tiny size and prints
# {workload: [the errors workloads.check reports, plus any nonzero exit code and a
# quality metric (worker._quality, which calls the sampler and energy_mmd
# directly) that is not a finite float; the artifacts' digests]}.
_RUN_TINY = """
import json, math, os, sys
import worker, workloads
from guidefit.cli import main
root, work = sys.argv[1:]
errors = {}
for name in workloads.WORKLOADS:
    os.makedirs(os.path.join(work, name))
    inputs = workloads.make_inputs(name, root, os.path.join(work, name), tiny=True)
    out = os.path.join(work, name, "out")
    setup, timed = workloads.commands(name, inputs, out, 1)
    codes = [main(argv) for argv in setup + [timed]]
    errors[name] = [f"exit {c}" for c in codes if c] + workloads.check(name, inputs, out)
    quality = worker._quality(name, inputs, out)
    if not (isinstance(quality, float) and math.isfinite(quality)):
        errors[name].append(f"quality_mmd {quality!r}")
    errors[name] = [errors[name], workloads.digests(name, out)]
print(json.dumps(errors))
"""


def _run_script(script, work):
    """The JSON last line a tiny-workload script prints, run in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", script, str(ROOT), str(work)],
                          cwd=ROOT, env=ENV, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    return _run_script(_RUN_TINY, tmp_path_factory.mktemp("untraced"))


@pytest.fixture(scope="module")
def tiny_traced(tmp_path_factory):
    return _run_script(_RUN_TINY_TRACED, tmp_path_factory.mktemp("traced"))


def test_benchmark_artifact_checks_pass_on_tiny_workloads(tiny):
    errors = {name: result[0] for name, result in tiny.items()}
    assert errors == {name: [] for name in errors} and len(errors) == 3, errors


# The same tiny runs with the tracer installed, as `perfbench/run.py --trace 1`
# runs them: set-up and timed command under worker._run_cli, counters reset
# before the timed command. Prints {workload: [errors, layer metrics, train config,
# the artifacts' digests]}.
_RUN_TINY_TRACED = """
import json, os, sys
import tracing, worker, workloads
tracer = tracing.Tracer()
tracing.install(tracer)
from guidefit.cli import main
root, work = sys.argv[1:]
result = {}
for name in workloads.WORKLOADS:
    os.makedirs(os.path.join(work, name))
    inputs = workloads.make_inputs(name, root, os.path.join(work, name), tiny=True)
    out = os.path.join(work, name, "out")
    setup, timed = workloads.commands(name, inputs, out, 1)
    codes = [worker._run_cli(main, argv, tracer) for argv in setup]
    tracer.reset_counts()
    start = len(tracer.spans)
    codes.append(worker._run_cli(main, timed, tracer))
    layers = tracing.layer_metrics(tracer, start, 1.0)
    errors = [f"exit {c}" for c in codes if c] + workloads.check(name, inputs, out)
    with open(inputs["config"]) as fh:
        train = json.load(fh)["train"]
    result[name] = [errors, layers, train, workloads.digests(name, out)]
print(json.dumps(result))
"""


def test_tracer_counters_run_on_tiny_workloads(tiny_traced):
    result = tiny_traced
    assert len(result) == 3
    for name, (errors, layers, _, _) in result.items():
        assert errors == [], (name, errors)
        assert all(isinstance(v, (int, float)) for v in layers.values()), name
    _, layers, train, _ = result["train-neural"]
    assert layers["trainer.iterations"] == train["iterations"]
    # one mmd_loss call per iteration on batch_size items of particles^2 pairs
    assert layers["objectives.mmd_loss.pair_elems"] == (
        train["batch_size"] * train["particles"] ** 2 * train["iterations"]) == 384
    assert result["train-gsm"][1]["objectives.mmd_loss.pair_elems"] == 0


def test_traced_artifacts_equal_untraced(tiny, tiny_traced):
    # the tracer must not change what a run computes, or every --trace 1 run fails
    untraced = {name: result[-1] for name, result in tiny.items()}
    traced = {name: result[-1] for name, result in tiny_traced.items()}
    assert len(untraced) == 3 and all(untraced.values()), untraced
    assert traced == untraced
