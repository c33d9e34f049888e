"""Versioned JSON checkpoints for denoisers and guidance weight functions.

A checkpoint is a single JSON object:

    {"format_version": 1, "kind": "<family>/<variant>",
     "architecture": {...}, "params": [...], "metadata": {...}}

params is the flat parameter vector in canonical order (see nn.Mlp); analytic
objects carry their defining arrays inside architecture instead. JSON floats
round-trip exactly (repr precision), so save/load is bit-stable.

A checkpoint loads only if its params are finite and exactly as many as its
architecture declares, and the declared layer sizes fit together; anything
else is a CheckpointError, as is a net that records another logSNR clip than
the schedule's LOGSNR_CLIP (it would load as another function). Architecture
keys the loader does not read, such as the allow_negative of older guidance
files, are ignored.
"""

from __future__ import annotations

import json

import numpy as np

from . import nn
from .denoisers import AnalyticDenoiser, MogSpec, NeuralDenoiser
from .guidance import GuidanceNet
from .schedule import LOGSNR_CLIP

FORMAT_VERSION = 1


class CheckpointError(ValueError):
    pass


_CLIPPED = ("denoiser/neural", "guidance/net")  # kinds whose nets read time features
_MLP_ARCH = ("sizes", "hidden_activation", "output_activation", "dropout_rate")


def _mlp_arch(net: nn.Mlp) -> dict:
    return {k: getattr(net, k) for k in _MLP_ARCH}


def _mlp_kwargs(arch: dict) -> dict:
    return {k: arch[k] for k in _MLP_ARCH}


# Params encoded per json.dumps call when a checkpoint is written.
_PARAM_BLOCK = 4096


def _write(path, kind: str, architecture: dict, params, metadata: dict | None):
    """Write the bytes of json.dump(payload, fh, sort_keys=True) plus a newline.

    json.dumps runs the C encoder, several times faster than json.dump's
    Python one. "params" is the last key in sorted order, so the text is the
    other fields' object without its closing brace, then the params list
    encoded a block at a time, which keeps the whole text (megabytes for a
    GuidanceNet) from being held in memory at once.
    """
    head = {"format_version": FORMAT_VERSION, "kind": kind,
            "architecture": architecture, "metadata": metadata or {}}
    flat = np.asarray(params, dtype=float).ravel()
    with open(path, "w") as fh:
        fh.write(json.dumps(head, sort_keys=True)[:-1] + ', "params": [')
        for lo in range(0, flat.size, _PARAM_BLOCK):
            fh.write((", " if lo else "") + json.dumps(flat[lo:lo + _PARAM_BLOCK].tolist())[1:-1])
        fh.write("]}\n")


def _read(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise CheckpointError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise CheckpointError(f"{path} does not hold a JSON object")
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise CheckpointError(f"unsupported checkpoint format_version {version!r}")
    for key in ("kind", "architecture", "params"):
        if key not in payload:
            raise CheckpointError(f"checkpoint missing field {key!r}")
    return payload


def _check_sections(path, metadata, sections: dict):
    """A CheckpointError naming the first of sections (config section name ->
    digest) for which the checkpoint's metadata records another digest."""
    recorded = metadata.get("section_digests") if isinstance(metadata, dict) else None
    if recorded is None:
        return
    if not isinstance(recorded, dict):
        raise CheckpointError(f"{path}: section_digests must be an object")
    for name, digest in sections.items():
        if recorded.get(name, digest) != digest:
            raise CheckpointError(f"{path} was built from another {name!r} config section "
                                  f"than the config's (digest {recorded[name]!r}, "
                                  f"the config's {digest!r})")


def _load(path, builders: dict, sections: dict | None):
    """Build the object a checkpoint declares, with builders[kind](arch, params).

    A builder returns (object, number of params it used). Missing or
    ill-typed architecture fields, params that are non-finite, too few or
    too many, and layer sizes that do not fit are CheckpointErrors. So is a
    digest in the checkpoint's metadata that differs from the one sections
    gives for the same config section; a checkpoint that records no digests
    is not checked.
    """
    payload = _read(path)
    kind, arch = payload["kind"], payload["architecture"]
    if not isinstance(kind, str) or kind not in builders:
        raise CheckpointError(f"unknown checkpoint kind {kind!r}")
    if sections:
        _check_sections(path, payload.get("metadata"), sections)
    try:
        params = np.asarray(payload["params"], dtype=float)
        if params.ndim != 1:
            raise CheckpointError("params must be a flat list of numbers")
        if not np.all(np.isfinite(params)):
            raise CheckpointError("params contain non-finite values")
        if kind in _CLIPPED and arch["logsnr_clip"] != LOGSNR_CLIP:
            raise CheckpointError(f"logsnr_clip {arch['logsnr_clip']!r} is not {LOGSNR_CLIP}")
        obj, used = builders[kind](arch, params)
    except CheckpointError as exc:
        raise CheckpointError(f"{path} ({kind}): {exc}") from None
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise CheckpointError(f"{path} ({kind}): malformed checkpoint "
                              f"({type(exc).__name__}: {exc})") from None
    if used != params.size:
        raise CheckpointError(f"{path} ({kind}): {params.size} params, its "
                              f"architecture declares {used}")
    return obj


def save_denoiser(path, denoiser, metadata: dict | None = None):
    if isinstance(denoiser, AnalyticDenoiser):
        mog = {k: getattr(denoiser.spec, k).tolist() for k in ("means", "variances", "weights")}
        _write(path, "denoiser/analytic", {"mog": mog}, [], metadata)
    elif isinstance(denoiser, NeuralDenoiser):
        arch = {"net": _mlp_arch(denoiser.net), "n_classes": denoiser.n_classes,
                "time_embed_dim": denoiser.time_embed_dim, "logsnr_clip": LOGSNR_CLIP}
        _write(path, "denoiser/neural", arch, denoiser.net.params, metadata)
    else:
        raise CheckpointError(f"cannot checkpoint denoiser type {type(denoiser).__name__}")


_DENOISERS = {
    "denoiser/analytic": lambda arch, params: (AnalyticDenoiser(MogSpec(**arch["mog"])), 0),
    "denoiser/neural": lambda arch, params: (
        NeuralDenoiser(nn.Mlp(params=params, **_mlp_kwargs(arch["net"])), arch["n_classes"],
                       arch["time_embed_dim"]), params.size),
}


def load_denoiser(path, sections: dict | None = None):
    """The denoiser a checkpoint holds; sections as in _load (config.section_digests)."""
    return _load(path, _DENOISERS, sections)


def save_weight_fn(path, fn, metadata: dict | None = None):
    if not isinstance(fn, GuidanceNet):
        raise CheckpointError(f"cannot checkpoint weight function type {type(fn).__name__}")
    arch = {"embed": _mlp_arch(fn.embed), "trunk": _mlp_arch(fn.trunk),
            "n_classes": fn.n_classes, "logsnr_clip": LOGSNR_CLIP}
    _write(path, "guidance/net", arch, fn.params, metadata)


_WEIGHT_FNS = {
    "guidance/net": lambda arch, params: (
        GuidanceNet(_mlp_kwargs(arch["embed"]), _mlp_kwargs(arch["trunk"]), arch["n_classes"],
                    params), params.size),
}


def load_weight_fn(path, sections: dict | None = None):
    """The weight function a checkpoint holds; sections as in _load."""
    return _load(path, _WEIGHT_FNS, sections)

