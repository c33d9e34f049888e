"""Checkpoint round-trips, bit-stability, and failure modes."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guidefit import checkpoints, nn
from guidefit.checkpoints import (CheckpointError, load_denoiser, load_weight_fn,
                                  read_metadata, save_denoiser, save_weight_fn)
from guidefit.denoisers import (AnalyticDenoiser, DenoiserTrainConfig, NeuralDenoiser,
                                train_neural_denoiser)
from guidefit.guidance import ConstantWeight, GuidanceNet
from guidefit.rng import stream


def test_analytic_denoiser_roundtrip(tmp_path, mog, exact):
    path = tmp_path / "denoiser.json"
    save_denoiser(path, exact, {"seed": 0})
    loaded = load_denoiser(path)
    assert isinstance(loaded, AnalyticDenoiser)
    assert np.array_equal(loaded.spec.means, mog.means)
    assert np.array_equal(loaded.spec.variances, mog.variances)
    assert read_metadata(path) == {"seed": 0}


def test_neural_denoiser_roundtrip(tmp_path, mog):
    den, _ = train_neural_denoiser(mog, DenoiserTrainConfig(iterations=10, seed=2))
    path = tmp_path / "denoiser.json"
    save_denoiser(path, den)
    loaded = load_denoiser(path)
    x = stream(1, "test/ckpt").uniform(-10.0, 10.0, size=(20, 2))
    assert np.array_equal(loaded.denoise(x, 0.4, np.arange(20) % 4),
                          den.denoise(x, 0.4, np.arange(20) % 4))


def test_weight_fn_roundtrips(tmp_path):
    fns = [ConstantWeight(0.8), ConstantWeight(-1.0), _small_net(2)]
    s = np.linspace(0.05, 0.8, 9)
    t = s + 0.1
    c = np.arange(9) % 4
    for fn in fns:
        path = tmp_path / "weights.json"
        save_weight_fn(path, fn)
        loaded = load_weight_fn(path)
        assert type(loaded) is type(fn)
        assert np.array_equal(np.asarray(loaded.weight(s, t, c)),
                              np.asarray(fn.weight(s, t, c)))


def test_guidance_net_roundtrip(tmp_path):
    net = GuidanceNet.create(4, stream(3, "test/gn"), embed_hidden=16, embed_dim=8,
                             trunk_hidden=8, trunk_layers=2, zero_init=False)
    path = tmp_path / "guidance.json"
    save_weight_fn(path, net, {"mode": "self_consistency"})
    loaded = load_weight_fn(path)
    s = np.linspace(0.05, 0.8, 9)
    t = s + 0.1
    c = np.arange(9) % 4
    assert np.array_equal(loaded.weight(s, t, c), net.weight(s, t, c))
    assert loaded.allow_negative == net.allow_negative
    assert read_metadata(path)["mode"] == "self_consistency"


def test_save_load_save_is_bit_stable(tmp_path):
    net = GuidanceNet.create(4, stream(4, "test/gn2"), embed_hidden=8, embed_dim=8,
                             trunk_hidden=8, trunk_layers=2, zero_init=False)
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    save_weight_fn(p1, net)
    save_weight_fn(p2, load_weight_fn(p1))
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_failure_modes(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format_version": 99, "kind": "x",
                                "architecture": {}, "params": []}))
    with pytest.raises(CheckpointError):
        load_weight_fn(path)
    path.write_text(json.dumps({"format_version": 1, "kind": "guidance/banana",
                                "architecture": {}, "params": []}))
    with pytest.raises(CheckpointError):
        load_weight_fn(path)
    path.write_text(json.dumps({"format_version": 1, "architecture": {}}))
    with pytest.raises(CheckpointError):
        load_denoiser(path)
    with pytest.raises(CheckpointError):
        save_weight_fn(tmp_path / "c.json", object())
    with pytest.raises(CheckpointError):
        save_denoiser(tmp_path / "c.json", object())


def _small_net(seed=5):
    return GuidanceNet.create(4, stream(seed, "test/gn3"), embed_hidden=8, embed_dim=8,
                              trunk_hidden=8, trunk_layers=2, zero_init=False)


def _small_neural_denoiser(mog):
    den, _ = train_neural_denoiser(mog, DenoiserTrainConfig(
        iterations=1, hidden=8, layers=1, time_embed_dim=8, seed=1))
    return den


def _malformed(payload, arch_key):
    """(case, payload) for each way a good checkpoint payload is broken below."""
    params = payload["params"]
    arch = {k: v for k, v in payload["architecture"].items() if k != arch_key}
    return [("extra params", dict(payload, params=params + [0.0])),
            ("truncated params", dict(payload, params=params[:-1])),
            ("all-NaN params", dict(payload, params=[float("nan")] * len(params))),
            ("one infinite param", dict(payload, params=[float("inf")] + params[1:])),
            ("non-numeric params", dict(payload, params=["a"] * len(params))),
            (f"missing architecture.{arch_key}", dict(payload, architecture=arch))]


@pytest.mark.parametrize("kind", ["guidance", "denoiser"])
def test_malformed_checkpoints_are_checkpoint_errors(tmp_path, mog, kind):
    good = tmp_path / "good.json"
    if kind == "guidance":
        save_weight_fn(good, _small_net())
        load, arch_key = load_weight_fn, "trunk"
    else:
        save_denoiser(good, _small_neural_denoiser(mog))
        load, arch_key = load_denoiser, "net"
    load(good)
    payload = json.loads(good.read_text())
    for case, bad in _malformed(payload, arch_key):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(CheckpointError):
            load(path)
            pytest.fail(f"{kind} checkpoint with {case} loaded")


def test_mismatched_declared_shapes_are_checkpoint_errors(tmp_path, mog):
    path = tmp_path / "bad.json"
    save_weight_fn(path, _small_net())
    payload = json.loads(path.read_text())
    payload["architecture"]["n_classes"] = 3  # the trunk is sized for 4 classes
    path.write_text(json.dumps(payload))
    with pytest.raises(CheckpointError, match="layer sizes do not fit"):
        load_weight_fn(path)
    save_denoiser(path, _small_neural_denoiser(mog))
    payload = json.loads(path.read_text())
    payload["architecture"]["time_embed_dim"] = 16  # the net is sized for 8
    path.write_text(json.dumps(payload))
    with pytest.raises(CheckpointError, match="layer sizes do not fit"):
        load_denoiser(path)


# Kinds that earlier versions wrote and nothing produces any more.
RETIRED_KINDS = [(load_weight_fn, "guidance/table", {"shape": [2, 3, 4], "zeta": 0.01},
                  [1.0] * 24),
                 (load_weight_fn, "guidance/limited_interval",
                  {"omega": 1.5, "t_lo": 0.4, "t_hi": 0.9}, []),
                 (load_denoiser, "denoiser/corrupted",
                  {"mog": {"means": [[1.0, 0.0]], "variances": [1.0], "weights": [1.0]},
                   "corruption": {"mean_shrink": 0.7, "weight_skew": 0.2,
                                  "noise_scale": 0.3, "seed": 5}}, [])]


def test_table_and_analytic_params_must_match(tmp_path, exact):
    """Surplus or truncated params never load, and neither does a retired
    table, limited-interval or corrupted-denoiser checkpoint, whatever its params."""
    path = tmp_path / "bad.json"
    save_weight_fn(path, _small_net())
    payload = json.loads(path.read_text())
    for params in (payload["params"][:-1], payload["params"] + [1.0]):
        path.write_text(json.dumps(dict(payload, params=params)))
        with pytest.raises(CheckpointError):
            load_weight_fn(path)
    for load, kind, arch, params in RETIRED_KINDS:
        checkpoints._write(path, kind, arch, params, None)
        with pytest.raises(CheckpointError, match="unknown checkpoint kind"):
            load(path)
    save_denoiser(path, exact)
    payload = json.loads(path.read_text())
    path.write_text(json.dumps(dict(payload, params=[1.0])))
    with pytest.raises(CheckpointError):
        load_denoiser(path)
    path.write_text("[1, 2")
    with pytest.raises(CheckpointError):
        load_denoiser(path)
    path.write_text(json.dumps(dict(payload, kind=["denoiser/analytic"])))
    with pytest.raises(CheckpointError):
        load_denoiser(path)


def _save_params(path, params, metadata):
    checkpoints._write(path, "test/params", {"size": len(params)}, params, metadata)


def test_checkpoint_bytes_match_json_dump(tmp_path, mog):
    """Checkpoints are written as json.dump(payload, fh, sort_keys=True) + newline."""
    vectors = [stream(6, "test/params").standard_normal(n)
               for n in (24, 4095, 4096, 4097, 8192)]  # 4096 params per block
    big = GuidanceNet.create(4, stream(7, "test/gn4"), embed_hidden=64, embed_dim=64,
                             trunk_hidden=8, trunk_layers=2, zero_init=False)
    cases = [(save_weight_fn, _small_net()), (save_weight_fn, big),
             (save_weight_fn, ConstantWeight(0.25)),
             *((_save_params, v) for v in vectors),
             (save_denoiser, _small_neural_denoiser(mog))]
    for save, obj in cases:
        path = tmp_path / "ckpt.json"
        save(path, obj, {"seed": 3, "note": "x"})
        payload = json.loads(path.read_text())
        with open(tmp_path / "dump.json", "w") as fh:
            json.dump(payload, fh, sort_keys=True)
            fh.write("\n")
        assert path.read_bytes() == (tmp_path / "dump.json").read_bytes()


def _resaved(save, load, obj, directory):
    """The object loaded from obj's checkpoint, after checking that saving it
    again writes the same bytes."""
    first, second = directory / "first.json", directory / "second.json"
    save(first, obj, {"seed": 1})
    loaded = load(first)
    save(second, loaded, {"seed": 1})
    assert first.read_bytes() == second.read_bytes()
    return loaded


_WIDTH = st.integers(1, 12)


@settings(max_examples=30, deadline=None)
@given(n_classes=st.integers(1, 5), embed_hidden=_WIDTH, embed_dim=_WIDTH, trunk_hidden=_WIDTH,
       trunk_layers=st.integers(0, 3), allow_negative=st.booleans(), seed=st.integers(0, 99))
def test_guidance_net_save_load_save_is_byte_stable(tmp_path_factory, n_classes, embed_hidden,
                                                     embed_dim, trunk_hidden, trunk_layers,
                                                     allow_negative, seed):
    net = GuidanceNet.create(n_classes, stream(seed, "test/prop_gn"), embed_hidden=embed_hidden,
                             embed_dim=embed_dim, trunk_hidden=trunk_hidden,
                             trunk_layers=trunk_layers, allow_negative=allow_negative,
                             zero_init=False)
    loaded = _resaved(save_weight_fn, load_weight_fn, net, tmp_path_factory.mktemp("gn"))
    assert loaded.params.tobytes() == net.params.tobytes()
    assert all(np.shares_memory(p, loaded.params) for p in loaded.parameters())


@settings(max_examples=30, deadline=None)
@given(dim=st.integers(1, 3), time_embed_dim=st.sampled_from([2, 4, 8]),
       n_classes=st.integers(1, 5), hidden=st.lists(_WIDTH, max_size=3), seed=st.integers(0, 99))
def test_neural_denoiser_save_load_save_is_byte_stable(tmp_path_factory, dim, time_embed_dim,
                                                       n_classes, hidden, seed):
    sizes = [dim + time_embed_dim + n_classes] + hidden + [dim]
    den = NeuralDenoiser(nn.Mlp(sizes).init_glorot(stream(seed, "test/prop_den")), n_classes,
                         time_embed_dim)
    loaded = _resaved(save_denoiser, load_denoiser, den, tmp_path_factory.mktemp("den"))
    assert loaded.net.params.tobytes() == den.net.params.tobytes()
    assert all(np.shares_memory(p, loaded.net.params) for p in loaded.net.parameters())


def test_section_digests_are_checked_when_recorded(tmp_path, exact):
    path = tmp_path / "denoiser.json"
    sections = {"mog": "aaaa", "denoiser": "bbbb"}
    save_denoiser(path, exact, {"section_digests": sections})
    assert isinstance(load_denoiser(path, sections=dict(sections, guidance="cccc")),
                      AnalyticDenoiser)
    with pytest.raises(CheckpointError, match="another 'denoiser' config section"):
        load_denoiser(path, sections=dict(sections, denoiser="dddd"))
    # a checkpoint that records no digests loads as before
    for metadata in ({"seed": 0}, ["aaaa"]):
        save_denoiser(path, exact, metadata)
        assert isinstance(load_denoiser(path, sections=sections), AnalyticDenoiser)
    save_denoiser(path, exact, {"section_digests": ["aaaa"]})
    with pytest.raises(CheckpointError, match="section_digests must be an object"):
        load_denoiser(path, sections=sections)

