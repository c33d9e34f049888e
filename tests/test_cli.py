"""Command-line interface: the full artifact pipeline, exit codes, overrides."""

import dataclasses
import json
import os
import re
import subprocess
import sys
import tempfile
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from guidefit.checkpoints import save_weight_fn
from guidefit.cli import _read_samples, main
from guidefit.config import (ConfigError, ExperimentConfig, config_digest, config_from_dict,
                             config_to_dict, load_config)
from guidefit.evaluation import write_table
from guidefit.schedule import LOGSNR_CLIP

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

TINY = {
    "seed": 3,
    "denoiser": {"kind": "analytic"},
    "guidance": {"embed_hidden": 16, "embed_dim": 16, "trunk_hidden": 8,
                 "trunk_layers": 2},
    "train": {"mode": "self_consistency", "iterations": 6, "batch_size": 16,
              "particles": 4, "checkpoint_every": 3, "probe_size": 32},
    "sample": {"steps": 5, "count": 48},
    "eval": {"omega_grid": [0.0, 1.0], "resamples": 4},
}


@pytest.fixture()
def tiny_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY))
    return str(path)


def run(*argv):
    return main(list(argv))


def test_full_pipeline(tmp_path, tiny_config):
    out = str(tmp_path / "run")
    assert run("pretrain-denoiser", "--config", tiny_config, "--out", out, "--quiet") == 0
    assert (tmp_path / "run" / "denoiser.json").exists()

    assert run("train-guidance", "--config", tiny_config, "--out", out, "--quiet") == 0
    assert (tmp_path / "run" / "guidance.json").exists()
    assert (tmp_path / "run" / "train_record.csv").exists()

    assert run("sample", "--config", tiny_config, "--out", out, "--quiet",
               "--trajectory", "0") == 0
    samples = (tmp_path / "run" / "samples.csv").read_text().splitlines()
    assert samples[1] == "c,x,y"
    assert len(samples) == 2 + TINY["sample"]["count"]
    assert (tmp_path / "run" / "trajectory.csv").exists()

    data_csv = str(tmp_path / "run" / "data.csv")
    assert run("sample", "--config", tiny_config, "--out", out, "--quiet",
               "--from-data", "--output", data_csv) == 0

    assert run("eval-mmd", "--config", tiny_config, "--out", out, "--quiet",
               "--generated", str(tmp_path / "run" / "samples.csv"),
               "--reference", data_csv) == 0
    eval_out = json.loads((tmp_path / "run" / "eval.json").read_text())
    assert np.isfinite(eval_out["rows"][0]["mmd"])

    assert run("sweep", "--config", tiny_config, "--out", out, "--quiet",
               "--guidance", str(tmp_path / "run" / "guidance.json")) == 0
    sweep = json.loads((tmp_path / "run" / "sweep.json").read_text())
    assert [r["label"] for r in sweep["rows"]] == ["omega=0", "omega=1", "learned"]

    assert run("export-weights", "--config", tiny_config, "--out", out, "--quiet") == 0
    weights = (tmp_path / "run" / "weights.csv").read_text().splitlines()
    assert weights[1] == "class,t,omega"
    assert len(weights) == 2 + 4 * 98


def test_seed_override_changes_output(tmp_path, tiny_config):
    a, b, c = (str(tmp_path / d) for d in ("a", "b", "c"))
    for out, seed in ((a, "7"), (b, "7"), (c, "8")):
        assert run("sample", "--config", tiny_config, "--out", out, "--quiet",
                   "--seed", seed) == 0
    read = lambda d: (tmp_path / d / "samples.csv").read_bytes()
    assert read("a") == read("b")
    assert read("a") != read("c")


def test_missing_config_is_usage_error(tmp_path):
    assert run("sample", "--config", str(tmp_path / "nope.json"),
               "--out", str(tmp_path / "o"), "--quiet") == 2


def test_unknown_config_key_is_usage_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"seed": 0, "banana": 1}))
    assert run("sample", "--config", str(bad), "--out", str(tmp_path / "o"),
               "--quiet") == 2


def test_invalid_json_is_usage_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run("sample", "--config", str(bad), "--out", str(tmp_path / "o"),
               "--quiet") == 2


@pytest.mark.parametrize("command, flag", [
    ("sample", "--guidance"), ("sample", "--denoiser"), ("export-weights", "--guidance"),
    ("sweep", "--guidance"), ("train-guidance", "--denoiser"),
], ids=lambda v: v.strip("-"))
def test_missing_named_checkpoint_is_usage_error(tmp_path, tiny_config, capsys, command,
                                                 flag):
    missing = str(tmp_path / "nope.json")
    assert run(command, "--config", tiny_config, "--out", str(tmp_path / "o"), "--quiet",
               flag, missing) == 2
    err = capsys.readouterr().err
    assert f"checkpoint {missing} not found" in err
    assert "Traceback" not in err


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=50, deadline=None)
@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 20), st.just(2)), elements=_FINITE),
       st.integers(0, 2**63 - 1))
def test_samples_round_trip_bit_equal(x, class_seed):
    c = np.random.default_rng(class_seed).integers(0, 1000, size=x.shape[0])
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "samples.csv")
        write_table(path, "seed=0", ["c", "x", "y"], zip(c, x[:, 0], x[:, 1]))
        x_read, c_read = _read_samples(path)
    assert x_read.tobytes() == x.tobytes()
    assert c_read.tobytes() == c.tobytes()


def _overflowing_net(tmp_path, tiny_config):
    """A guidance/net checkpoint whose params are finite but whose weights overflow."""
    from guidefit.config import build_guidance_net

    net = build_guidance_net(load_config(tiny_config))
    net.params[:] = 1e300
    path = tmp_path / "huge.json"
    save_weight_fn(path, net)
    return path


def test_non_finite_weights_are_numerical_failure(tmp_path, tiny_config):
    path = _overflowing_net(tmp_path, tiny_config)
    with np.errstate(over="ignore", invalid="ignore"):
        code = run("sample", "--config", tiny_config, "--out", str(tmp_path / "o"),
                   "--quiet", "--guidance", str(path))
    assert code == 3


def _seeds(node, path="config"):
    """(path, value) of every field named seed in a config dataclass tree."""
    found = []
    for f in dataclasses.fields(node):
        value = getattr(node, f.name)
        if f.name == "seed":
            found.append((f"{path}.seed", value))
        elif dataclasses.is_dataclass(value):
            found.extend(_seeds(value, f"{path}.{f.name}"))
    return found


def test_with_seed_overrides_every_seed():
    configs = [ExperimentConfig()] + [load_config(p) for p in sorted(CONFIGS.glob("*.json"))]
    for config in configs:
        seeds = _seeds(config.with_seed(42))
        assert "config.denoiser.train.seed" in dict(seeds)
        assert all(value == 42 for _, value in seeds), seeds


@pytest.mark.parametrize("chain", ["-1", str(TINY["sample"]["count"])])
def test_trajectory_chain_out_of_range_is_usage_error(tmp_path, tiny_config, chain):
    out = tmp_path / "o"
    assert run("sample", "--config", tiny_config, "--out", str(out), "--quiet",
               "--trajectory", chain) == 2
    assert not (out / "samples.csv").exists()


def test_trajectory_from_data_is_usage_error(tmp_path, tiny_config, capsys):
    # data draws have no sampler chain to record
    out = tmp_path / "o"
    assert run("sample", "--config", tiny_config, "--out", str(out), "--quiet",
               "--from-data", "--trajectory", "0") == 2
    err = capsys.readouterr().err
    assert "--trajectory" in err and "--from-data" in err, err
    assert not (out / "samples.csv").exists()
    assert not (out / "trajectory.csv").exists()


@pytest.mark.parametrize("bad_row", ["1,0.5", "1,0.5,abc", "x,0.5,0.5", "1,0.5,0.5,0.5"])
def test_malformed_sample_row_is_usage_error(tmp_path, tiny_config, bad_row, capsys):
    good = tmp_path / "good.csv"
    good.write_text("# header\nc,x,y\n0,0.1,0.2\n1,0.3,0.4\n2,0.5,0.6\n")
    bad = tmp_path / "bad.csv"
    bad.write_text(f"# header\nc,x,y\n0,0.1,0.2\n{bad_row}\n2,0.5,0.6\n")
    out = tmp_path / "o"
    assert run("eval-mmd", "--config", tiny_config, "--out", str(out), "--quiet",
               "--generated", str(bad), "--reference", str(good)) == 2
    assert f"{bad}:4" in capsys.readouterr().err
    assert not (out / "eval.json").exists()


def test_non_finite_error_bar_is_numerical_failure(tmp_path, capsys):
    # distances near 1e101 square to 1e202: the estimates stay finite, but
    # their scatter overflows, so the error bar is inf
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_with(TINY, eval={"beta": 2})))
    rng = np.random.default_rng(0)
    files = []
    for name in ("generated", "reference"):
        files.append(tmp_path / f"{name}.csv")
        write_table(files[-1], None, ["c", "x", "y"],
                    [(0, *(1e101 * rng.random(2))) for _ in range(40)])
    out = tmp_path / "o"
    with np.errstate(over="ignore", invalid="ignore"):
        code = run("eval-mmd", "--config", str(path), "--out", str(out), "--quiet",
                   "--generated", str(files[0]), "--reference", str(files[1]))
    assert code == 3
    assert "error bar" in capsys.readouterr().err
    assert not (out / "eval.json").exists()


def test_non_finite_sweep_is_numerical_failure(tmp_path, tiny_config):
    path = _overflowing_net(tmp_path, tiny_config)
    out = tmp_path / "o"
    with np.errstate(over="ignore", invalid="ignore"):
        code = run("sweep", "--config", tiny_config, "--out", str(out), "--quiet",
                   "--guidance", str(path))
    assert code == 3
    assert not (out / "sweep.csv").exists()
    assert not (out / "sweep.json").exists()


def test_malformed_checkpoints_are_usage_errors(tmp_path, tiny_config, capsys):
    out = str(tmp_path / "run")
    assert run("train-guidance", "--config", tiny_config, "--out", out, "--quiet") == 0
    payload = json.loads((tmp_path / "run" / "guidance.json").read_text())
    arch = {k: v for k, v in payload["architecture"].items() if k != "trunk"}
    cases = {"extra": dict(payload, params=payload["params"] + [0.0]),
             "truncated": dict(payload, params=payload["params"][:-1]),
             "nan": dict(payload, params=[float("nan")] * len(payload["params"])),
             "no_trunk": dict(payload, architecture=arch)}
    for name, bad in cases.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(bad))
        dest = tmp_path / name
        assert run("export-weights", "--config", tiny_config, "--out", str(dest),
                   "--quiet", "--guidance", str(path)) == 2, name
        assert "Traceback" not in capsys.readouterr().err
        assert not (dest / "weights.csv").exists(), name


def test_retired_weight_kinds_are_usage_errors(tmp_path, tiny_config, capsys):
    from guidefit.checkpoints import _write

    for kind, arch, params in (("guidance/constant", {"omega": 0.5}, []),
                               ("guidance/table", {"shape": [2, 3, 4], "zeta": 0.01},
                                [0.5] * 24),
                               ("guidance/limited_interval",
                                {"omega": 1.5, "t_lo": 0.4, "t_hi": 0.9}, [])):
        path = tmp_path / "retired.json"
        _write(path, kind, arch, params, None)
        out = tmp_path / kind.replace("/", "_")
        assert run("sample", "--config", tiny_config, "--out", str(out), "--quiet",
                   "--guidance", str(path)) == 2, kind
        err = capsys.readouterr().err
        assert "unknown checkpoint kind" in err and "Traceback" not in err
        assert not (out / "samples.csv").exists(), kind


def test_checkpoints_with_exact_gelu_are_usage_errors(tmp_path, capsys):
    # checkpoints written before GeLU became the tanh form record "gelu"; their
    # section digests still match, so only the activation name stops them
    path = tmp_path / "neural.json"
    path.write_text(json.dumps(_with(TINY, denoiser={"kind": "neural",
                                                     "train": {"iterations": 1}})))
    made = tmp_path / "made"
    for command in ("pretrain-denoiser", "train-guidance"):
        assert run(command, "--config", str(path), "--out", str(made), "--quiet") == 0
    for name, nets in (("denoiser", ["net"]), ("guidance", ["embed", "trunk"])):
        payload = json.loads((made / f"{name}.json").read_text())
        for net in nets:
            arch = payload["architecture"][net]
            for key in ("hidden_activation", "output_activation"):
                arch[key] = arch[key].replace("gelu_tanh", "gelu")
        old = tmp_path / f"old_{name}.json"
        old.write_text(json.dumps(payload))
        out = tmp_path / name
        assert run("sample", "--config", str(path), "--out", str(out), "--quiet",
                   f"--{name}", str(old)) == 2, name
        err = capsys.readouterr().err
        assert str(old) in err and "unknown activation 'gelu'" in err, err
        assert "Traceback" not in err and not (out / "samples.csv").exists(), name


@pytest.mark.parametrize("name, net, key, value, message", [
    ("denoiser", None, "logsnr_clip", 20.0, f"logsnr_clip 20.0 is not {LOGSNR_CLIP}"),
    ("guidance", None, "logsnr_clip", 9.0, f"logsnr_clip 9.0 is not {LOGSNR_CLIP}"),
    ("guidance", "trunk", "output_activation", "relu", "unknown activation 'relu'"),
], ids=["denoiser-logsnr_clip", "guidance-logsnr_clip", "guidance-relu-head"])
def test_checkpoints_of_another_time_feature_or_head_are_usage_errors(tmp_path, capsys, name,
                                                                      net, key, value, message):
    # the clip is the schedule's constant and the head is "identity"; a file that
    # records anything else would load as another function
    path = tmp_path / "neural.json"
    path.write_text(json.dumps(_with(TINY, denoiser={"kind": "neural",
                                                     "train": {"iterations": 1}})))
    made = tmp_path / "made"
    for command in ("pretrain-denoiser", "train-guidance"):
        assert run(command, "--config", str(path), "--out", str(made), "--quiet") == 0
    payload = json.loads((made / f"{name}.json").read_text())
    arch = payload["architecture"] if net is None else payload["architecture"][net]
    arch[key] = value
    other = tmp_path / "other.json"
    other.write_text(json.dumps(payload))
    out = tmp_path / "o"
    assert run("sample", "--config", str(path), "--out", str(out), "--quiet",
               f"--{name}", str(other)) == 2
    err = capsys.readouterr().err
    assert str(other) in err and message in err, err
    assert "Traceback" not in err and not (out / "samples.csv").exists()


def test_overflowing_weights_are_numerical_failure(tmp_path, tiny_config):
    path = _overflowing_net(tmp_path, tiny_config)
    out = tmp_path / "o"
    with np.errstate(over="ignore", invalid="ignore"):
        code = run("export-weights", "--config", tiny_config, "--out", str(out),
                   "--quiet", "--guidance", str(path))
    assert code == 3
    assert not (out / "weights.csv").exists()


def test_checkpoint_for_another_class_count_is_usage_error(tmp_path, tiny_config, capsys):
    from guidefit.checkpoints import save_denoiser
    from guidefit.config import build_denoiser, build_guidance_net

    four = load_config(tiny_config)  # the default 4-class mixture
    guidance, denoiser = tmp_path / "guidance.json", tmp_path / "denoiser.json"
    save_weight_fn(guidance, build_guidance_net(four))
    save_denoiser(denoiser, build_denoiser(four))
    two = tmp_path / "two.json"
    two.write_text(json.dumps(dict(TINY, mog={"means": [[-2.0, 0.0], [2.0, 0.0]],
                                              "variances": [1.0, 1.0],
                                              "weights": [0.5, 0.5]})))
    cases = [("sample", "--guidance", guidance, "samples.csv"),
             ("sweep", "--guidance", guidance, "sweep.csv"),
             ("export-weights", "--guidance", guidance, "weights.csv"),
             ("sample", "--denoiser", denoiser, "samples.csv"),
             ("train-guidance", "--denoiser", denoiser, "guidance.json")]
    for i, (command, flag, path, artifact) in enumerate(cases):
        out = tmp_path / f"o{i}"
        assert run(command, "--config", str(two), "--out", str(out), "--quiet",
                   flag, str(path)) == 2, (command, flag)
        err = capsys.readouterr().err
        assert str(path) in err and "4 classes" in err and "mog has 2" in err, err
        assert not (out / artifact).exists(), (command, flag)


def test_checkpoint_with_an_odd_time_embed_dim_is_usage_error(tmp_path, tiny_config, capsys):
    from guidefit import nn
    from guidefit.checkpoints import save_denoiser
    from guidefit.denoisers import NeuralDenoiser

    # NeuralDenoiser(nn.Mlp([2 + 3 + 4, 8, 2]), 4, 3) on disk: the layer sizes
    # fit, but the sinusoidal time embedding needs an even width
    path = tmp_path / "odd.json"
    save_denoiser(path, NeuralDenoiser(nn.Mlp([2 + 4 + 3, 8, 2]), 3, 4))
    payload = json.loads(path.read_text())
    payload["architecture"].update(n_classes=4, time_embed_dim=3)
    path.write_text(json.dumps(payload))
    out = tmp_path / "o"
    assert run("sample", "--config", tiny_config, "--out", str(out), "--quiet",
               "--denoiser", str(path)) == 2
    err = capsys.readouterr().err
    assert str(path) in err and "time_embed_dim must be even and non-negative, got 3" in err, err
    assert "Traceback" not in err and not (out / "samples.csv").exists()


_ZERO_WEIGHT = """
import json, sys
from guidefit.cli import main

config, out = sys.argv[1:]
print(json.dumps([main([command, "--config", config, "--out", out, "--quiet"])
                  for command in ("train-guidance", "sample", "sweep")]))
"""


def test_a_zero_mixture_weight_runs_without_warnings(tmp_path):
    # the zero weight's log prior is -inf by design; numpy must not warn about it
    path = tmp_path / "config.json"
    mog = {"means": [[10.0, 10.0], [-10.0, 10.0], [10.0, -10.0], [-10.0, -10.0]],
           "variances": [5.0, 1.0, 1.0, 1.0], "weights": [0.0, 1 / 3, 1 / 3, 1 / 3]}
    path.write_text(json.dumps(dict(TINY, mog=mog)))
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-c", _ZERO_WEIGHT, str(path), str(tmp_path / "o")],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1"))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout.splitlines()[-1]) == [0, 0, 0]


def test_checkpoint_from_another_config_section_is_usage_error(tmp_path, capsys):
    wide = dict(TINY, guidance=dict(TINY["guidance"], trunk_hidden=64))
    narrow = dict(wide, guidance=dict(wide["guidance"], trunk_hidden=32))
    near = dict(wide, mog={"means": [[5.0, 5.0], [-5.0, 5.0], [5.0, -5.0], [-5.0, -5.0]],
                           "variances": [5.0, 1.0, 1.0, 1.0], "weights": [0.25] * 4})
    paths = {}
    for name, data in (("wide", wide), ("narrow", narrow), ("near", near)):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(data))
    made = tmp_path / "made"
    for command in ("pretrain-denoiser", "train-guidance"):
        assert run(command, "--config", str(paths["wide"]), "--out", str(made), "--quiet") == 0
    guidance, denoiser = str(made / "guidance.json"), str(made / "denoiser.json")
    cases = [("narrow", "guidance", "sample", "--guidance", guidance, "samples.csv"),
             ("narrow", "guidance", "sweep", "--guidance", guidance, "sweep.csv"),
             ("narrow", "guidance", "export-weights", "--guidance", guidance, "weights.csv"),
             ("near", "mog", "sample", "--guidance", guidance, "samples.csv"),
             ("near", "mog", "sample", "--denoiser", denoiser, "samples.csv"),
             ("near", "mog", "train-guidance", "--denoiser", denoiser, "guidance.json")]
    for i, (config, section, command, flag, path, artifact) in enumerate(cases):
        out = tmp_path / f"o{i}"
        assert run(command, "--config", str(paths[config]), "--out", str(out), "--quiet",
                   flag, path) == 2, (config, command, flag)
        err = capsys.readouterr().err
        assert path in err and f"another '{section}' config section" in err, err
        assert not (out / artifact).exists(), (config, command, flag)
    # the narrow config still takes the denoiser, which its guidance section does
    # not shape, and every seed may differ from the checkpoints' own
    assert run("sample", "--config", str(paths["narrow"]), "--out", str(tmp_path / "d"),
               "--quiet", "--denoiser", denoiser) == 0
    assert run("sample", "--config", str(paths["wide"]), "--out", str(tmp_path / "s"),
               "--quiet", "--seed", "11", "--guidance", guidance, "--denoiser", denoiser) == 0


def test_diverged_run_leaves_its_record(tmp_path):
    # the learning_rate=1e200 set-up of test_trainer's divergence test
    config = dict(TINY, guidance=dict(TINY["guidance"], dropout=0.0),
                  train=dict(TINY["train"], iterations=6, checkpoint_every=4,
                             learning_rate=1e200, clip_norm=1.0))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "run"
    with np.errstate(over="ignore", invalid="ignore"):
        assert run("train-guidance", "--config", str(path), "--out", str(out),
                   "--quiet") == 3
    assert not (out / "guidance.json").exists()
    diverged = json.loads((out / "diverged.json").read_text())
    it = diverged["diverged_at"]
    assert it >= 1
    assert diverged == {"diverged_at": it,
                        "config_digest": config_digest(load_config(path))}
    lines = (out / "train_record.csv").read_text().splitlines()
    assert lines[0] == f"# seed=3 config_digest={diverged['config_digest']}"
    assert lines[1] == "iter,loss,reward,grad_norm,mean_abs_omega"
    assert [int(line.split(",")[0]) for line in lines[2:]] == list(range(it))


_FAULTS = """
import json, resource
import numpy as np
from guidefit import cli
from guidefit.denoisers import DenoiserTrainConfig, MogSpec, train_neural_denoiser
from guidefit.rng import stream

applied = cli._fix_malloc_thresholds()
mog = MogSpec.default_2d()
den, _ = train_neural_denoiser(mog, DenoiserTrainConfig(iterations=0, seed=4))
rng = stream(11, "test/faults")
x = rng.standard_normal((4096, 2)) * 6.0
t = np.repeat(rng.uniform(0.01, 0.99, 128), 32)
c = rng.integers(0, mog.n_classes, 4096)
den.denoise(x, t, c)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    den.denoise(x, t, c)
after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
print(json.dumps({"applied": applied, "faults": after - before}))
"""


def test_teacher_calls_stop_faulting_after_malloc_thresholds():
    # a fresh process, so the heap state other tests leave cannot matter
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-c", _FAULTS], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1"),
                          timeout=120, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["applied"]:
        pytest.skip("mallopt is not available (not glibc)")
    # 20 calls of 4096 rows; with glibc's dynamic thresholds each faults in thousands of pages
    assert result["faults"] < 200


_SCIPY_LOADS = """
import json, sys
import numpy as np
from guidefit import cli, evaluation

def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

config, out = sys.argv[1:]
loaded = {"import": scipy_modules()}
for command in ("pretrain-denoiser", "export-weights", "sample"):
    code = cli.main([command, "--config", config, "--out", out, "--quiet"])
    loaded[command] = scipy_modules() if code == 0 else f"exit {code}"
evaluation.energy_mmd(np.zeros((3, 2)), np.ones((3, 2)))
loaded["energy_mmd"] = "scipy.spatial.distance" in sys.modules
print(json.dumps(loaded))
"""


def test_scipy_loads_only_when_samples_are_scored(tmp_path, tiny_config):
    # a fresh process, so modules that other tests imported cannot matter
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-c", _SCIPY_LOADS, tiny_config, str(tmp_path / "o")],
                          capture_output=True, text=True, timeout=120, check=True,
                          env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1"))
    assert json.loads(proc.stdout.splitlines()[-1]) == {
        "import": [], "pretrain-denoiser": [], "export-weights": [], "sample": [],
        "energy_mmd": True}


def _with(base, **sections):
    """base with each named section's keys updated (one level deep)."""
    return dict(base, **{k: dict(base.get(k, {}), **v) for k, v in sections.items()})


MOG_1D = {"means": [[0.0], [5.0]], "variances": [1.0, 1.0], "weights": [0.5, 0.5]}
MOG_3D = {"means": [[0.0, 0.0, 0.0], [5.0, 5.0, 5.0]], "variances": [1.0, 1.0],
          "weights": [0.5, 0.5]}
MOG_NESTED = {"means": [[[1.0, 2.0]]], "variances": [1.0], "weights": [1.0]}
# a sum within np.isclose of 1 but past what Generator.choice allows (about 1.5e-8)
MOG_OFF_SUM = {"means": [[10.0, 10.0], [-10.0, 10.0], [10.0, -10.0], [-10.0, -10.0]],
               "variances": [5.0, 1.0, 1.0, 1.0], "weights": [0.25, 0.25, 0.25, 0.250005]}
NAN, INF = float("nan"), float("inf")
REWARD = {"mode": "reward", "reward": "distance_to_mean"}


@pytest.mark.parametrize("command, sections, rows, named", [
    ("sweep", {"eval": {"resamples": 1}}, 3, "invalid eval: resamples "),
    ("eval-mmd", {"eval": {"resamples": 1}}, 3, "invalid eval: resamples "),
    ("sweep", {"eval": {"beta": 3}}, 3, "invalid eval: beta "),
    ("sweep", {"eval": {"lam": -1}}, 3, "invalid eval: lam "),
    ("eval-mmd", {}, 1, "{generated} holds one sample"),
    ("eval-mmd", {}, (3, 1), "{generated} holds 2-D points but {reference} holds 1-D points"),
    ("eval-mmd", {}, (3, 3), "{generated} holds 2-D points but {reference} holds 3-D points"),
    ("train-guidance", {"train": {"checkpoint_every": 0}}, 3, "invalid train: checkpoint_every "),
    ("train-guidance", {"train": {"probe_size": 1}}, 3, "invalid train: probe_size "),
    ("train-guidance", {"train": {"ema_decay": 1.5}}, 3, "invalid train: ema_decay "),
    ("train-guidance", {"guidance": {"dropout": 1.5}}, 3, "invalid guidance: dropout "),
    ("pretrain-denoiser", {"denoiser": {"kind": "neural", "train": {"iterations": 1,
                                                                    "time_embed_dim": 3}}},
     3, "invalid denoiser: train.time_embed_dim "),
    ("sample", {"sample": {"conditioning": 2}}, 3, "unknown key(s) ['conditioning'] in sample"),
    ("train-guidance", {"train": {"churn": 2}}, 3, "invalid train: churn "),
    ("pretrain-denoiser", {"denoiser": {"kind": "neural", "train": {"iterations": 1,
                                                                    "time_clamp": 0.01}}},
     3, "unknown key(s) ['time_clamp'] in denoiser.train"),
    ("pretrain-denoiser", {"denoiser": {"kind": "neural", "train": {"iterations": 1,
                                                                    "hidden": 0}}},
     3, "invalid denoiser.train: hidden "),
    ("pretrain-denoiser", {"denoiser": {"kind": "neural", "train": {"iterations": 1,
                                                                    "hidden": -1}}},
     3, "invalid denoiser.train: hidden "),
    ("train-guidance", {"guidance": {"embed_hidden": -1}}, 3, "invalid guidance: embed_hidden "),
    ("train-guidance", {"guidance": {"embed_dim": -1}}, 3, "invalid guidance: embed_dim "),
    ("train-guidance", {"guidance": {"trunk_hidden": 0}}, 3, "invalid guidance: trunk_hidden "),
    ("train-guidance", {"guidance": {"trunk_hidden": -1}}, 3, "invalid guidance: trunk_hidden "),
    ("train-guidance", {"guidance": {"trunk_layers": -1}}, 3, "invalid guidance: trunk_layers "),
    ("sample", {"guidance": {"logsnr_clip": 13.8}}, 3,
     "unknown key(s) ['logsnr_clip'] in guidance"),
    ("pretrain-denoiser", {"denoiser": {"kind": "neural", "train": {"iterations": 1,
                                                                    "layers": -1}}},
     3, "invalid denoiser.train: layers "),
    ("pretrain-denoiser", {"denoiser": {"kind": "neural", "train": {"iterations": 1,
                                                                    "learning_rate": -1e-4}}},
     3, "invalid denoiser.train: learning_rate "),
    ("sweep", {"train": {"learning_rate": -1e-3}}, 3, "invalid train: learning_rate "),
    ("sample", {"mog": MOG_1D}, 3, "invalid config: mog.means "),
    ("sample", {"mog": MOG_3D}, 3, "invalid config: mog.means "),
    ("train-guidance", {"train": {"lam": float("nan")}}, 3, "invalid train: lam "),
    ("sweep", {"eval": {"lam": float("nan")}}, 3, "invalid eval: lam "),
    ("train-guidance", {"train": {"time_sampler": {"delta": float("nan")}}}, 3,
     "invalid train.time_sampler: delta "),
    ("pretrain-denoiser", {"denoiser": {"kind": "corrupted"}}, 3,
     "unknown denoiser kind 'corrupted'"),
    ("pretrain-denoiser", {"denoiser": {"corruption": {"seed": 4}}}, 3,
     "unknown key(s) ['corruption'] in denoiser"),
    ("train-guidance", {"train": {"learning_rate": NAN}}, 3, "invalid train: learning_rate "),
    ("train-guidance", {"train": {"learning_rate": INF}}, 3, "invalid train: learning_rate "),
    ("train-guidance", {"train": {"clip_norm": NAN}}, 3, "invalid train: clip_norm "),
    ("train-guidance", {"train": dict(REWARD, gamma_reward=NAN)}, 3,
     "invalid train: gamma_reward "),
    ("train-guidance", {"train": dict(REWARD, gamma_reward=INF)}, 3,
     "invalid train: gamma_reward "),
    ("train-guidance", {"train": dict(REWARD, gamma_reward=-INF)}, 3,
     "invalid train: gamma_reward "),
    ("train-guidance", {"guidance": {"logsnr_clip": NAN}}, 3,
     "unknown key(s) ['logsnr_clip'] in guidance"),
    ("pretrain-denoiser", {"denoiser": {"kind": "neural", "train": {"iterations": 1,
                                                                    "learning_rate": NAN}}},
     3, "invalid denoiser.train: learning_rate "),
    ("pretrain-denoiser", {"denoiser": {"kind": "neural", "train": {"iterations": 1,
                                                                    "clip_norm": NAN}}},
     3, "invalid denoiser.train: clip_norm "),
    ("train-guidance", {"train": {"reward_sign": 1.0}}, 3,
     "unknown key(s) ['reward_sign'] in train"),
    ("sample", {"sample": {"zeta": 0.01}}, 3, "unknown key(s) ['zeta'] in sample"),
    ("train-guidance", {"train": {"time_sampler": {"zeta": 0.01}}}, 3,
     "unknown key(s) ['zeta'] in train.time_sampler"),
    ("train-guidance", {"guidance": {"allow_negative": False}}, 3,
     "unknown key(s) ['allow_negative'] in guidance"),
    ("train-guidance", {"train": {"select_best": False}}, 3,
     "unknown key(s) ['select_best'] in train"),
    ("sample", {"mog": MOG_NESTED}, 3, "invalid mog: means must be a (K, d) matrix"),
    ("sweep", {"sample": {"count": 1}}, 3, "sample.count must be at least 2"),
    ("sweep", {"eval": {"omega_grid": []}}, 3, "eval.omega_grid is empty and no --guidance"),
    ("sample --seed -1", {}, 3, "--seed must be non-negative, got -1"),
    ("sweep --seed -1", {}, 3, "--seed must be non-negative, got -1"),
    ("sample --trajectory 48", {}, 3, "--trajectory 48 is not a chain in [0, 48)"),
    ("sample --denoiser no-such-dir/denoiser.json", {}, 3,
     "checkpoint no-such-dir/denoiser.json not found"),
    ("sweep --guidance no-such-dir/guidance.json", {}, 3,
     "checkpoint no-such-dir/guidance.json not found"),
    ("sample --from-data", {"mog": MOG_OFF_SUM}, 3, "invalid mog: weights "),
], ids=["eval.resamples-sweep", "eval.resamples-eval-mmd", "eval.beta", "eval.lam",
        "one-row-csv", "eval-mmd-1d-reference", "eval-mmd-3d-reference",
        "train.checkpoint_every", "train.probe_size", "train.ema_decay",
        "guidance.dropout", "denoiser.train.time_embed_dim", "sample.conditioning",
        "train.churn", "denoiser.train.time_clamp", "denoiser.train.hidden-0",
        "denoiser.train.hidden-neg", "guidance.embed_hidden", "guidance.embed_dim",
        "guidance.trunk_hidden-0", "guidance.trunk_hidden-neg", "guidance.trunk_layers",
        "guidance.logsnr_clip", "denoiser.train.layers", "denoiser.train.learning_rate",
        "train.learning_rate", "mog-1d", "mog-3d",
        "train.lam-nan", "eval.lam-nan", "train.time_sampler.delta-nan",
        "denoiser.kind-corrupted", "denoiser.corruption",
        "train.learning_rate-nan", "train.learning_rate-inf", "train.clip_norm-nan",
        "train.gamma_reward-nan", "train.gamma_reward-inf", "train.gamma_reward-neg-inf",
        "guidance.logsnr_clip-nan", "denoiser.train.learning_rate-nan",
        "denoiser.train.clip_norm-nan", "train.reward_sign", "sample.zeta",
        "train.time_sampler.zeta", "guidance.allow_negative", "train.select_best",
        "mog-nested", "sweep-sample.count-1", "sweep-eval.omega_grid-empty",
        "sample--seed-neg", "sweep--seed-neg",
        "sample--trajectory-out-of-range", "sample--denoiser-missing",
        "sweep--guidance-missing", "mog.weights-sum"])
def test_bad_config_or_input_is_usage_error(tmp_path, capsys, command, sections, rows, named):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_with(TINY, **sections)))
    rows, ref_dim = rows if isinstance(rows, tuple) else (rows, 2)
    generated, reference = tmp_path / "generated.csv", tmp_path / "reference.csv"
    write_table(generated, None, ["c", "x", "y"], [(0, 0.1 * i, 0.2) for i in range(rows)])
    write_table(reference, None, ["c", *"xyz"[:ref_dim]],
                [(1, 0.3, 0.1 * i, 0.5)[:1 + ref_dim] for i in range(3)])
    command, *flags = command.split()
    extra = ["--generated", str(generated), "--reference", str(reference)] \
        if command == "eval-mmd" else []
    out = tmp_path / "o"
    assert run(command, "--config", str(path), "--out", str(out), "--quiet", *flags,
               *extra) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and \
        named.format(generated=generated, reference=reference) in err, err
    assert "Traceback" not in err
    assert not out.exists()  # --out is made only when the first artifact is written


def test_usage_error_keeps_an_existing_out_directory(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_with(TINY, sample={"count": 1})))
    out = tmp_path / "o"
    out.mkdir()
    (out / "notes.txt").write_text("kept\n")
    assert run("sweep", "--config", str(path), "--out", str(out), "--quiet") == 2
    assert "sample.count must be at least 2" in capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == ["notes.txt"]


def _numeric_leaves(node, path=(), kinds=(int, float)):
    """Key path of every number of kinds in a config dict, list indices included."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _numeric_leaves(value, path + (key,), kinds)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _numeric_leaves(value, path + (i,), kinds)
    elif isinstance(node, kinds) and not isinstance(node, bool):
        yield path


def _dotted(path):
    return "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path).lstrip(".")


# An infinite clip_norm is documented as "no clipping".
NON_FINITE = [(path, value) for path in _numeric_leaves(config_to_dict(config_from_dict(TINY)))
              for value in (NAN, INF) if not (path[-1] == "clip_norm" and value == INF)]


def _load_fails_naming(tmp_path, capsys, data, path, value):
    """Set data's leaf at path to value and assert that export-weights exits 2
    at load, naming the leaf's section and key: a range check or the type check."""
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    config = tmp_path / "config.json"
    config.write_text(json.dumps(data))
    out = tmp_path / "o"
    assert run("export-weights", "--config", str(config), "--out", str(out), "--quiet") == 2
    err = capsys.readouterr().err
    names = [p for p in path if isinstance(p, str)]
    section, key = ".".join(names[:-1]), names[-1]
    assert (err.startswith(f"error: {_dotted(path)} must be ")
            or (err.startswith(f"error: invalid {section or 'config'}: ")
                and re.search(rf"\b{key}\b", err.split(": ", 2)[2]))), err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("path, value", NON_FINITE,
                         ids=[f"{_dotted(p)}-{v}" for p, v in NON_FINITE])
def test_non_finite_config_number_is_usage_error(tmp_path, capsys, path, value):
    """Every number of the config tree rejects NaN and +inf at load, naming its
    section and key: a range check or, for an integer, the type check."""
    _load_fails_naming(tmp_path, capsys, config_to_dict(config_from_dict(TINY)), path, value)


def _tiny_data(kind):
    return config_to_dict(config_from_dict(_with(TINY, denoiser={"kind": kind})))


NEGATIVE = [(kind, path) for kind in ("analytic", "neural")
            for path in _numeric_leaves(_tiny_data(kind), kinds=int)]


@pytest.mark.parametrize("kind, path", NEGATIVE,
                         ids=[f"{_dotted(p)}-{kind}" for kind, p in NEGATIVE])
def test_negative_config_integer_is_usage_error(tmp_path, capsys, kind, path):
    """Every integer of the config tree, seeds and sizes alike, rejects -1 at
    load under either denoiser kind, naming its section and key."""
    _load_fails_naming(tmp_path, capsys, _tiny_data(kind), path, -1)


def _leaf_paths(node, path=()):
    """Key path of every leaf of a config dict: each field that is not a
    section, and each element of a list field, at any depth."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaf_paths(value, path + (key,))
        return
    if path:
        yield path
    if isinstance(node, list):
        for i, value in enumerate(node):
            yield from _leaf_paths(value, path + (i,))


def _names_leaf(message, path):
    """Whether a load error names the leaf at path: its dotted field path, or
    "invalid <section>: " followed by the rest of that path, for the leaf's
    section or one that holds it."""
    names = [p for p in path if isinstance(p, str)]
    if ".".join(names) in message:
        return True
    for i in range(len(names)):
        prefix = f"invalid {'.'.join(names[:i]) or 'config'}: "
        rest = re.escape(".".join(names[i:]))
        if message.startswith(prefix) and re.search(rf"\b{rest}\b", message[len(prefix):]):
            return True
    return False


# Any JSON value, the edges of its number types included: huge ints, NaN,
# +/-inf and subnormals, strings, and nested lists and objects.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.text(max_size=4)
    | st.integers(-2**70, 2**70) | st.sampled_from([10**400, -10**400, 2**63, -2**63 - 1])
    | st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
    | st.sampled_from([5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=2),
    max_leaves=6)

LEAVES = [(kind, path) for kind in ("analytic", "neural")
          for path in _leaf_paths(_tiny_data(kind))]


@pytest.mark.parametrize("kind, path", LEAVES, ids=[f"{_dotted(p)}-{kind}" for kind, p in LEAVES])
@settings(max_examples=8, deadline=None)
@given(value=JSON_VALUES)
def test_any_json_value_at_a_leaf_loads_or_names_it(kind, path, value):
    """A drawn JSON value at any leaf either loads or raises a ConfigError
    naming the leaf; no other exception escapes. Only the config is built,
    so no drawn size is ever allocated."""
    data = _tiny_data(kind)
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    try:
        config_from_dict(data)
    except ConfigError as exc:
        assert _names_leaf(str(exc), path), str(exc)


def _leaf_fields(cls=ExperimentConfig, path=()):
    """(key path, field, annotation) of every leaf field of the config tree."""
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        if dataclasses.is_dataclass(hints[f.name]):
            yield from _leaf_fields(hints[f.name], path + (f.name,))
        else:
            yield path + (f.name,), f, hints[f.name]


def test_every_leaf_declares_its_domain():
    """A number, list of numbers or array declares within(); a name declares
    one_of(), but for denoiser.kind, whose own check names the two kinds."""
    fields = list(_leaf_fields())
    assert len(fields) == 44
    for path, f, hint in fields:
        hint = (typing.get_args(hint) or (hint,))[0]  # X of X | None
        if hint in (int, float, tuple, np.ndarray):
            assert "within" in f.metadata, path
        elif hint is str and path != ("denoiser", "kind"):
            assert "one_of" in f.metadata, path


def _edges(lo, hi, closed, integer):
    """(value, loads) at each end of a domain: a closed end loads and the next
    value outward does not; an open end does not and the next value inward does.
    Nothing lies past an infinite end."""
    for bound, is_closed, out in ((lo, closed[0] == "[", -1), (hi, closed[1] == "]", 1)):
        yield bound, is_closed
        if np.isfinite(bound):
            step = out if is_closed else -out
            yield (bound + step if integer else float(np.nextafter(bound, step * INF))), \
                not is_closed


def _set_leaf(data, path, value):
    """Put value at the leaf at path, in a list at its first element. The rest
    of mog.weights' mass is spread evenly, so the weights still sum to 1."""
    node = data
    for key in path[:-1]:
        node = node[key]
    key = path[-1]
    if key == "weights":
        k = len(node[key])
        node[key] = [value] + [(1.0 - value) / (k - 1)] * (k - 1)
        return
    while isinstance(node[key], list):
        node, key = node[key], 0
    node[key] = value


# probe_size's domain starts at 1; a probing mode's need for 2 is a rule of its own
EDGE_CONTEXT = {("train", "probe_size"): {"train": {"mode": "guided_sm"}}}
DECLARED = [(kind, path, f, hint) for kind in ("analytic", "neural")
            for path, f, hint in _leaf_fields() if f.metadata]


@pytest.mark.parametrize("kind, path, field, hint", DECLARED,
                         ids=[f"{_dotted(p)}-{kind}" for kind, p, _, _ in DECLARED])
def test_each_domain_edge_loads_or_names_its_leaf(kind, path, field, hint):
    """Read from the declarations: at each end of a leaf's interval the last
    value inside loads and the first outside raises a ConfigError naming the
    leaf, as does a name outside a one_of. Only the config is built."""
    if "one_of" in field.metadata:
        cases = [("no such name", False)]
    else:
        cases = list(_edges(*field.metadata["within"], integer=hint is int))
    for value, loads in cases:
        data = _with(_tiny_data(kind), **EDGE_CONTEXT.get(path, {}))
        _set_leaf(data, path, value)
        if loads:
            config_from_dict(data)  # a ConfigError here names the value
            continue
        with pytest.raises(ConfigError) as info:
            config_from_dict(data)
        assert _names_leaf(str(info.value), path), (value, str(info.value))


NEURAL = _with(TINY, denoiser={"kind": "neural", "train": {"iterations": 30}},
               sample={"steps": 5, "count": 64})


def test_trajectory_is_a_row_of_the_one_sampler_run(tmp_path, monkeypatch):
    from guidefit import sampler

    counts, real = [], sampler._run

    def counting(config, *args, **kwargs):
        counts.append(config.count)
        return real(config, *args, **kwargs)

    monkeypatch.setattr(sampler, "_run", counting)
    path = tmp_path / "neural.json"
    path.write_text(json.dumps(NEURAL))
    out = tmp_path / "run"
    assert run("pretrain-denoiser", "--config", str(path), "--out", str(out), "--quiet") == 0
    first = None
    for chain in (None, 5, 63):
        flags = [] if chain is None else ["--trajectory", str(chain)]
        assert run("sample", "--config", str(path), "--out", str(out), "--quiet", *flags) == 0
        assert counts == [NEURAL["sample"]["count"]], chain
        counts.clear()
        lines = (out / "samples.csv").read_text().splitlines()
        first = first or lines
        assert lines == first  # --trajectory leaves samples.csv as it was
        if chain is not None:
            cls, x, y = lines[2 + chain].split(",")
            traj = (out / "trajectory.csv").read_text().splitlines()
            assert traj[0].endswith(f" chain={chain} class={cls}")
            k, _, traj_x, traj_y, _ = traj[-1].split(",")
            assert (k, traj_x, traj_y) == ("0", x, y), chain
