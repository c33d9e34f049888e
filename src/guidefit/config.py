"""Experiment configuration: one JSON file drives every CLI command.

Sections mirror the pipeline: the data mixture, the denoiser to (pre)train or
build, the guidance net architecture, the guidance training run, sampling,
and evaluation. Unknown keys anywhere are rejected so typos fail loudly, and
a sha256 digest of the canonical JSON form is stamped into every output
artifact for provenance.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import typing
from dataclasses import dataclass, field

import numpy as np

from .denoisers import AnalyticDenoiser, DenoiserTrainConfig, MogSpec, train_neural_denoiser
from .guidance import GuidanceArch, GuidanceNet
from .objectives import MmdParams
from .rng import stream
from .sampler import SampleConfig
from .trainer import TrainConfig


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class DenoiserConfig:
    kind: str = "analytic"  # analytic | neural
    train: DenoiserTrainConfig = field(default_factory=DenoiserTrainConfig)

    def __post_init__(self):
        if self.kind not in ("analytic", "neural"):
            raise ConfigError(f"unknown denoiser kind {self.kind!r}")
        if self.kind == "neural" and self.train.time_embed_dim % 2:
            raise ValueError(f"train.time_embed_dim must be even, got {self.train.time_embed_dim}")


@dataclass(frozen=True)
class EvalConfig:
    beta: float = 1.0
    lam: float = 1.0
    omega_grid: tuple = (0.0, 0.5, 1.0, 2.0, 4.0)
    resamples: int = 20

    def __post_init__(self):
        MmdParams(self.beta, self.lam)  # validates the pair
        if self.resamples < 2:
            raise ValueError(f"resamples must be at least 2, got {self.resamples}")


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 0
    mog: MogSpec = field(default_factory=MogSpec.default_2d)
    denoiser: DenoiserConfig = field(default_factory=DenoiserConfig)
    guidance: GuidanceArch = field(default_factory=GuidanceArch)
    train: TrainConfig = field(default_factory=TrainConfig)
    sample: SampleConfig = field(default_factory=SampleConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)

    def __post_init__(self):
        if self.mog.dim != 2:  # every artifact's columns are x,y
            raise ValueError(f"mog.means must hold 2-D points, got {self.mog.dim}-D")
        cond = self.sample.conditioning
        if cond is not None and not 0 <= cond < self.mog.n_classes:
            raise ValueError(f"sample.conditioning {cond} is not in [0, {self.mog.n_classes})")

    def with_seed(self, seed: int) -> "ExperimentConfig":
        """Override every seed in the config tree (the CLI --seed flag)."""
        return _reseed(self, seed)


def _reseed(node, seed: int):
    """Copy of a config dataclass with every field named seed, at any depth, set to seed."""
    changes = {}
    for f in dataclasses.fields(node):
        value = getattr(node, f.name)
        if f.name == "seed":
            changes[f.name] = seed
        elif dataclasses.is_dataclass(value):
            changes[f.name] = _reseed(value, seed)
    return dataclasses.replace(node, **changes) if changes else node


_SIMPLE = (int, float, str, bool, type(None))


def _to_jsonable(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.integer, np.floating)):
        return value.item()
    if isinstance(value, (list, tuple)):
        return [_to_jsonable(v) for v in value]
    if dataclasses.is_dataclass(value):
        return {f.name: _to_jsonable(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, _SIMPLE):
        return value
    raise ConfigError(f"cannot serialize config value of type {type(value).__name__}")


def config_to_dict(config: ExperimentConfig) -> dict:
    return _to_jsonable(config)


def _digest(data) -> str:
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def config_digest(config: ExperimentConfig) -> str:
    return _digest(config_to_dict(config))


def _without_seeds(data):
    if isinstance(data, dict):
        return {k: _without_seeds(v) for k, v in data.items() if k != "seed"}
    return data


def section_digests(config: ExperimentConfig, names=("mog", "denoiser", "guidance")) -> dict:
    """Digest of each named config section, every field named seed left out.

    A checkpoint records the digests of the sections it was built from, so a
    config whose sections differ is caught when it loads the checkpoint. Seeds
    are left out because --seed overrides them all: a denoiser pretrained at
    the config's seed serves guidance training at any other.
    """
    data = config_to_dict(config)
    return {name: _digest(_without_seeds(data[name])) for name in names}


_EXPECTED = {int: "an integer", float: "a number", str: "a string", bool: "true or false",
             tuple: "a list of numbers", np.ndarray: "an array of numbers"}


def _leaf(hint, value, path: str):
    """value checked against its field annotation; bool is not a number here."""
    if isinstance(value, dict):
        raise ConfigError(f"{path} does not accept an object")
    if value is None and type(None) in typing.get_args(hint):
        return None
    hint = (typing.get_args(hint) or (hint,))[0]  # X of X | None
    if hint is tuple and isinstance(value, (list, tuple)):
        return tuple(float(_leaf(float, v, f"{path}[{i}]")) for i, v in enumerate(value))
    if hint is np.ndarray and np.array(value).dtype.kind in "iuf":
        return np.array(value, dtype=float)
    if isinstance(value, (int, float) if hint is float else hint) and \
            (hint is bool or not isinstance(value, bool)):
        return value
    raise ConfigError(f"{path} must be {_EXPECTED[hint]}, got {json.dumps(value)}")


def _build(cls, data: dict, path: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{path or 'config'} must be an object")
    hints = typing.get_type_hints(cls)
    unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {path or 'config'}")
    kwargs = {}
    try:
        for name, value in data.items():
            sub = f"{path}.{name}" if path else name
            build = _build if dataclasses.is_dataclass(hints[name]) else _leaf
            kwargs[name] = build(hints[name], value, sub)
        missing = [f.name for f in dataclasses.fields(cls) if f.name not in kwargs
                   and f.default is dataclasses.MISSING
                   and f.default_factory is dataclasses.MISSING]
        if missing:
            raise ConfigError(f"{path or 'config'} needs key(s) {missing}, "
                              "which have no default")
        return cls(**kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {path or 'config'}: {exc}") from exc


def config_from_dict(data: dict) -> ExperimentConfig:
    return _build(ExperimentConfig, data, "")


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    return config_from_dict(data)


def build_denoiser(config: ExperimentConfig, quiet: bool = True):
    """Construct (or train) the denoiser the config describes."""
    kind = config.denoiser.kind
    if kind == "analytic":
        return AnalyticDenoiser(config.mog)
    if not quiet:
        print(f"pretraining neural denoiser ({config.denoiser.train.iterations} iterations)")
    model, _ = train_neural_denoiser(config.mog, config.denoiser.train)
    return model


def build_guidance_net(config: ExperimentConfig) -> GuidanceNet:
    return GuidanceNet.create(config.mog.n_classes, stream(config.seed, "guidance/init"),
                              **dataclasses.asdict(config.guidance))
