"""Command-line interface: the full artifact pipeline, exit codes, overrides."""

import dataclasses
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from guidefit.checkpoints import save_weight_fn
from guidefit.cli import _read_samples, main
from guidefit.config import ExperimentConfig, config_digest, load_config
from guidefit.evaluation import write_table
from guidefit.guidance import ConstantWeight

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


def test_non_finite_weights_are_numerical_failure(tmp_path, tiny_config):
    path = tmp_path / "inf.json"
    save_weight_fn(path, ConstantWeight(float("inf")))
    with np.errstate(invalid="ignore"):
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


def test_non_finite_sweep_is_numerical_failure(tmp_path, tiny_config):
    path = tmp_path / "nan.json"
    save_weight_fn(path, ConstantWeight(float("nan")))
    out = tmp_path / "o"
    with np.errstate(invalid="ignore"):
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

    for kind, arch, params in (("guidance/table", {"shape": [2, 3, 4], "zeta": 0.01},
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


def test_overflowing_weights_are_numerical_failure(tmp_path, tiny_config):
    from guidefit.config import build_guidance_net

    net = build_guidance_net(load_config(tiny_config))
    net.params[:] = 1e300
    path = tmp_path / "huge.json"
    save_weight_fn(path, net)
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
    # a constant weight has no class count and is accepted
    save_weight_fn(guidance, ConstantWeight(0.5))
    assert run("export-weights", "--config", str(two), "--out", str(tmp_path / "c"),
               "--quiet", "--guidance", str(guidance)) == 0


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
                             select_best=False, learning_rate=1e200, clip_norm=1.0))
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


def _with(base, **sections):
    """base with each named section's keys updated (one level deep)."""
    return dict(base, **{k: dict(base.get(k, {}), **v) for k, v in sections.items()})


MOG_1D = {"means": [[0.0], [5.0]], "variances": [1.0, 1.0], "weights": [0.5, 0.5]}
MOG_3D = {"means": [[0.0, 0.0, 0.0], [5.0, 5.0, 5.0]], "variances": [1.0, 1.0],
          "weights": [0.5, 0.5]}


@pytest.mark.parametrize("command, sections, rows, named", [
    ("sweep", {"eval": {"resamples": 1}}, 3, "invalid eval: resamples "),
    ("eval-mmd", {"eval": {"resamples": 1}}, 3, "invalid eval: resamples "),
    ("sweep", {"eval": {"beta": 3}}, 3, "invalid eval: beta "),
    ("sweep", {"eval": {"lam": -1}}, 3, "invalid eval: lam "),
    ("eval-mmd", {}, 1, "{generated} holds one sample"),
    ("train-guidance", {"train": {"checkpoint_every": 0}}, 3, "invalid train: checkpoint_every "),
    ("train-guidance", {"train": {"probe_size": 1}}, 3, "invalid train: probe_size "),
    ("train-guidance", {"train": {"ema_decay": 1.5}}, 3, "invalid train: ema_decay "),
    ("train-guidance", {"guidance": {"dropout": 1.5}}, 3, "invalid guidance: dropout "),
    ("pretrain-denoiser", {"denoiser": {"kind": "neural", "train": {"iterations": 1,
                                                                    "time_embed_dim": 3}}},
     3, "invalid denoiser: train.time_embed_dim "),
    ("sample", {"sample": {"conditioning": 7}}, 3, "invalid config: sample.conditioning "),
    ("train-guidance", {"train": {"churn": 2}}, 3, "invalid train: churn "),
    ("pretrain-denoiser", {"denoiser": {"kind": "neural", "train": {"iterations": 1,
                                                                    "time_clamp": 0.7}}},
     3, "invalid denoiser.train: time_clamp "),
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
    ("sample", {"guidance": {"logsnr_clip": 0}}, 3, "invalid guidance: logsnr_clip "),
    ("pretrain-denoiser", {"denoiser": {"kind": "neural", "train": {"iterations": 1,
                                                                    "layers": -1}}},
     3, "invalid denoiser.train: layers "),
    ("pretrain-denoiser", {"denoiser": {"kind": "neural", "train": {"iterations": 1,
                                                                    "learning_rate": -1e-4}}},
     3, "invalid denoiser.train: learning_rate "),
    ("sweep", {"train": {"learning_rate": -1e-3}}, 3, "invalid train: learning_rate "),
    ("sample", {"mog": MOG_1D}, 3, "invalid config: mog.means "),
    ("sample", {"mog": MOG_3D}, 3, "invalid config: mog.means "),
    ("pretrain-denoiser", {"denoiser": {"kind": "corrupted"}}, 3,
     "unknown denoiser kind 'corrupted'"),
    ("pretrain-denoiser", {"denoiser": {"corruption": {"seed": 4}}}, 3,
     "unknown key(s) ['corruption'] in denoiser"),
], ids=["eval.resamples-sweep", "eval.resamples-eval-mmd", "eval.beta", "eval.lam",
        "one-row-csv", "train.checkpoint_every", "train.probe_size", "train.ema_decay",
        "guidance.dropout", "denoiser.train.time_embed_dim", "sample.conditioning",
        "train.churn", "denoiser.train.time_clamp", "denoiser.train.hidden-0",
        "denoiser.train.hidden-neg", "guidance.embed_hidden", "guidance.embed_dim",
        "guidance.trunk_hidden-0", "guidance.trunk_hidden-neg", "guidance.trunk_layers",
        "guidance.logsnr_clip", "denoiser.train.layers", "denoiser.train.learning_rate",
        "train.learning_rate", "mog-1d", "mog-3d",
        "denoiser.kind-corrupted", "denoiser.corruption"])
def test_bad_config_or_input_is_usage_error(tmp_path, capsys, command, sections, rows, named):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_with(TINY, **sections)))
    generated, reference = tmp_path / "generated.csv", tmp_path / "reference.csv"
    write_table(generated, None, ["c", "x", "y"], [(0, 0.1 * i, 0.2) for i in range(rows)])
    write_table(reference, None, ["c", "x", "y"], [(1, 0.3, 0.1 * i) for i in range(3)])
    extra = ["--generated", str(generated), "--reference", str(reference)] \
        if command == "eval-mmd" else []
    out = tmp_path / "o"
    assert run(command, "--config", str(path), "--out", str(out), "--quiet", *extra) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named.format(generated=generated) in err, err
    assert "Traceback" not in err
    assert not out.exists() or not any(out.iterdir())


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
