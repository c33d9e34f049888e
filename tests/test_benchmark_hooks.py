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
this process). They read perfbench/ and change nothing there.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [str(ROOT / "perfbench"), str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))


def test_tracer_installs_on_current_package():
    proc = subprocess.run(
        [sys.executable, "-c", "import tracing; tracing.install(tracing.Tracer())"],
        cwd=ROOT, env=ENV, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# Runs every workload's set-up and timed commands at the tiny size and prints
# {workload: the errors workloads.check reports, plus any nonzero exit code and a
# quality metric (worker._quality, which calls the sampler and energy_mmd
# directly) that is not a finite float}.
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
print(json.dumps(errors))
"""


def test_benchmark_artifact_checks_pass_on_tiny_workloads(tmp_path):
    proc = subprocess.run([sys.executable, "-c", _RUN_TINY, str(ROOT), str(tmp_path)],
                          cwd=ROOT, env=ENV, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    errors = json.loads(proc.stdout.splitlines()[-1])
    assert errors == {name: [] for name in errors} and len(errors) == 3, errors


# The same tiny runs with the tracer installed, as `perfbench/run.py --trace 1`
# runs them: set-up and timed command under worker._run_cli, counters reset
# before the timed command. Prints {workload: [errors, layer metrics, train config]}.
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
    result[name] = [errors, layers, train]
print(json.dumps(result))
"""


def test_tracer_counters_run_on_tiny_workloads(tmp_path):
    proc = subprocess.run([sys.executable, "-c", _RUN_TINY_TRACED, str(ROOT), str(tmp_path)],
                          cwd=ROOT, env=ENV, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert len(result) == 3
    for name, (errors, layers, _) in result.items():
        assert errors == [], (name, errors)
        assert all(isinstance(v, (int, float)) for v in layers.values()), name
    _, layers, train = result["train-neural"]
    assert layers["trainer.iterations"] == train["iterations"]
    # one mmd_loss call per iteration on batch_size items of particles^2 pairs
    assert layers["objectives.mmd_loss.pair_elems"] == (
        train["batch_size"] * train["particles"] ** 2 * train["iterations"]) == 384
    assert result["train-gsm"][1]["objectives.mmd_loss.pair_elems"] == 0
