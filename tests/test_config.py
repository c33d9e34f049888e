"""Config tree: nested sections, rejected input, and the shipped digests."""

import dataclasses
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guidefit.cli import main
from guidefit.config import (ConfigError, config_digest, config_from_dict, config_to_dict,
                             load_config, section_digests)
from guidefit.denoisers import DenoiserTrainConfig
from guidefit.objectives import TimePairSampler
from guidefit.trainer import TrainConfig

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def test_nested_sections_build_their_own_classes():
    config = config_from_dict({
        "denoiser": {"kind": "neural", "train": {"iterations": 7}},
        "train": {"iterations": 9, "time_sampler": {"delta": 0.2}},
    })
    assert type(config.denoiser.train) is DenoiserTrainConfig
    assert config.denoiser.train.iterations == 7
    assert type(config.train) is TrainConfig
    assert config.train.iterations == 9
    assert type(config.train.time_sampler) is TimePairSampler
    assert config.train.time_sampler.delta == 0.2


@pytest.mark.parametrize("data, section", [
    ({"bogus": 1}, "config"),
    ({"train": {"bogus": 1}}, "train"),
    ({"denoiser": {"train": {"bogus": 1}}}, "denoiser.train"),
    ({"train": {"time_sampler": {"bogus": 1}}}, "train.time_sampler"),
])
def test_unknown_key_names_its_section(data, section):
    with pytest.raises(ConfigError, match=rf"unknown key\(s\) \['bogus'\] in {section}$"):
        config_from_dict(data)


@pytest.mark.parametrize("data, path", [
    ({"seed": {}}, "seed"),
    ({"train": {"reward": {"name": "distance_to_mean"}}}, "train.reward"),
    ({"sample": {"churn": {"value": 0.5}}}, "sample.churn"),
])
def test_object_for_a_plain_field_is_rejected(data, path):
    with pytest.raises(ConfigError, match=rf"^{path} does not accept an object$"):
        config_from_dict(data)


def test_cli_rejects_object_for_plain_field(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"sample": {"churn": {"value": 0.5}}}))
    assert main(["sample", "--config", str(path), "--out", str(tmp_path / "run"),
                 "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "sample.churn does not accept an object" in err
    assert "Traceback" not in err
    assert not (tmp_path / "run" / "samples.csv").exists()


@pytest.mark.parametrize("data, message", [
    ({"eval": {"omega_grid": 5}}, "eval.omega_grid must be a list of numbers, got 5"),
    ({"eval": {"omega_grid": [0.0, True]}}, "eval.omega_grid[1] must be a number, got true"),
    ({"mog": {"means": "x"}}, 'mog.means must be an array of numbers, got "x"'),
    ({"sample": {"steps": 2.5}}, "sample.steps must be an integer, got 2.5"),
    ({"sample": {"steps": 1e9}}, "sample.steps must be an integer, got 1000000000.0"),
    ({"train": {"iterations": "abc"}}, 'train.iterations must be an integer, got "abc"'),
    ({"train": {"learning_rate": False}}, "train.learning_rate must be a number, got false"),
    ({"train": {"ema_decay": "0.9"}}, 'train.ema_decay must be a number, got "0.9"'),
    ({"guidance": {"zero_init": 1}}, "guidance.zero_init must be true or false, got 1"),
    ({"mog": 5}, "mog must be an object"),
    ({"mog": {"variances": [1.0, 2.0]}},
     "mog needs key(s) ['means', 'weights'], which have no default"),
    ({"mog": {"means": [[1, 2], [3]]}},
     "mog.means must be an array of numbers, got [[1, 2], [3]]"),
    ({"mog": {"variances": [[1], [1, 2]]}},
     "mog.variances must be an array of numbers, got [[1], [1, 2]]"),
    # numpy would take a bool among numbers for a number
    ({"mog": {"means": [[True, 0], [1, 1]]}},
     "mog.means must be an array of numbers, got [[true, 0], [1, 1]]"),
    ({"mog": {"variances": [1, True]}}, "mog.variances must be an array of numbers, got [1, true]"),
    ({"mog": {"weights": [0.0, True]}}, "mog.weights must be an array of numbers, got [0.0, true]"),
])
def test_cli_rejects_a_leaf_of_the_wrong_type(tmp_path, capsys, data, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "run"),
                 "--quiet"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_range_checks_skip_what_the_run_does_not_use():
    config = config_from_dict({"denoiser": {"kind": "analytic", "train": {"time_embed_dim": 3}},
                               "train": {"mode": "guided_sm", "probe_size": 1}})
    assert config.denoiser.train.time_embed_dim == 3 and config.train.probe_size == 1
    with pytest.raises(ConfigError, match=r"^invalid denoiser: train.time_embed_dim must be even"):
        config_from_dict({"denoiser": {"kind": "neural", "train": {"time_embed_dim": 3}}})


def test_shipped_config_digests():
    digests = {p.stem: config_digest(load_config(p)) for p in CONFIGS.glob("*.json")}
    assert digests == {"guided_sm": "f197af8872367a74", "reward": "ce899ae895692500",
                       "under_trained": "a83a2551d90ff652",
                       "well_trained": "0ee486e9b93f6ff0"}


def test_section_digests_leave_out_seeds_only():
    config = load_config(CONFIGS / "under_trained.json")
    digests = section_digests(config)
    assert set(digests) == {"mog", "denoiser", "guidance"}
    assert section_digests(config.with_seed(9)) == digests
    assert config_digest(config.with_seed(9)) != config_digest(config)
    train = dataclasses.replace(config.denoiser.train, iterations=7)
    changed = dataclasses.replace(config, denoiser=dataclasses.replace(config.denoiser,
                                                                       train=train))
    assert section_digests(changed) == dict(digests, denoiser=section_digests(changed)["denoiser"])
    assert section_digests(changed)["denoiser"] != digests["denoiser"]


_NUMBERS = st.floats(-1e6, 1e6, allow_nan=False)


@st.composite
def _config_dicts(draw):
    k = draw(st.integers(1, 5))
    weights = draw(st.lists(st.integers(1, 9), min_size=k, max_size=k))
    return {
        "seed": draw(st.integers(0, 2**31)),
        "mog": {"means": draw(st.lists(st.lists(_NUMBERS, min_size=2, max_size=2),
                                       min_size=k, max_size=k)),
                "variances": draw(st.lists(st.floats(1e-3, 1e3), min_size=k, max_size=k)),
                "weights": [w / sum(weights) for w in weights]},
        "guidance": {"embed_hidden": draw(st.integers(1, 512)),
                     "dropout": draw(st.floats(0.0, 0.9)),
                     "zero_init": draw(st.booleans())},
        "train": {"iterations": draw(st.integers(0, 10**6)),
                  "learning_rate": draw(st.floats(1e-8, 1.0)),
                  "ema_decay": draw(st.none() | st.floats(0.0, 0.999))},
        "sample": {"steps": draw(st.integers(1, 100)), "churn": draw(st.floats(0.0, 1.0))},
        "eval": {"omega_grid": draw(st.lists(_NUMBERS, max_size=6)),
                 "resamples": draw(st.integers(2, 50))},
    }


@settings(max_examples=60, deadline=None)
@given(_config_dicts())
def test_config_dict_round_trip_is_stable(data):
    once = config_to_dict(config_from_dict(data))
    assert config_to_dict(config_from_dict(json.loads(json.dumps(once)))) == once
    assert config_digest(config_from_dict(once)) == config_digest(config_from_dict(data))
    assert once["seed"] == data["seed"]
    for section, values in data.items():
        if section != "seed":
            assert {key: once[section][key] for key in values} == values, section
