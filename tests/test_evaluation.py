"""Evaluation estimator and report plumbing."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from guidefit.evaluation import (BLOCK_ROWS, EvalReport, EvalRow, energy_mmd,
                                 evaluate_samples, mmd_with_se, run_figure_protocol,
                                 write_table)
from guidefit.guidance import ConstantWeight
from guidefit.rng import stream


# Oracle: the estimator written directly, one full distance matrix per term
# and one separate estimate per resample.

def _oracle_within(points, beta):
    d = cdist(points, points) ** beta
    m = points.shape[0]
    return float((d.sum() - np.trace(d)) / (m * (m - 1)))


def _oracle_energy(x, y, beta=1.0, lam=1.0):
    cross = float(np.mean(cdist(x, y) ** beta))
    if lam == 0.0:
        return cross
    return cross - 0.5 * lam * (_oracle_within(x, beta) + _oracle_within(y, beta))


def _oracle_mmd_with_se(x, y, beta=1.0, lam=1.0, n_resamples=20, fraction=0.5, seed=0):
    full = _oracle_energy(x, y, beta, lam)
    rng = stream(seed, "eval/subsample")
    nx = max(2, int(round(fraction * x.shape[0])))
    ny = max(2, int(round(fraction * y.shape[0])))
    estimates = np.empty(n_resamples)
    for r in range(n_resamples):
        ix = rng.choice(x.shape[0], size=nx, replace=False)
        iy = rng.choice(y.shape[0], size=ny, replace=False)
        estimates[r] = _oracle_energy(x[ix], y[iy], beta, lam)
    return full, float(np.std(estimates, ddof=1) * np.sqrt(fraction))


def _two_sets(nx, ny, dim=2, seed=0):
    rng = stream(seed, "test/oracle")
    return rng.standard_normal((nx, dim)), rng.standard_normal((ny, dim)) + 0.3


@pytest.mark.parametrize("nx,ny", [(2, 3), (3, 2), (511, 513), (513, 512),
                                   (512, 1100), (1100, 511)])
@pytest.mark.parametrize("beta", [0.5, 1.0, 1.75, 2.0])
@pytest.mark.parametrize("lam", [0.0, 1.0])
def test_blocked_estimator_matches_oracle(nx, ny, beta, lam):
    assert BLOCK_ROWS == 512  # the sizes above straddle one block
    x, y = _two_sets(nx, ny)
    np.testing.assert_allclose(energy_mmd(x, y, beta, lam), _oracle_energy(x, y, beta, lam),
                               rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(mmd_with_se(x, y, beta, lam, seed=5),
                               _oracle_mmd_with_se(x, y, beta, lam, seed=5),
                               rtol=1e-12, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(nx=st.integers(2, 24), ny=st.integers(2, 24), dim=st.integers(1, 3),
       beta=st.sampled_from([0.5, 1.0, 1.75, 2.0]), lam=st.sampled_from([0.0, 0.5, 1.0]),
       n_resamples=st.integers(2, 6), fraction=st.sampled_from([0.3, 0.5, 0.8]),
       seed=st.integers(0, 2**16))
def test_blocked_estimator_matches_oracle_property(nx, ny, dim, beta, lam, n_resamples,
                                                   fraction, seed):
    x, y = _two_sets(nx, ny, dim, seed)
    np.testing.assert_allclose(energy_mmd(x, y, beta, lam), _oracle_energy(x, y, beta, lam),
                               rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(
        mmd_with_se(x, y, beta, lam, n_resamples, fraction, seed),
        _oracle_mmd_with_se(x, y, beta, lam, n_resamples, fraction, seed),
        rtol=1e-12, atol=1e-12)


def test_mmd_with_se_never_holds_a_full_distance_matrix():
    x, y = _two_sets(4096, 4096)
    tracemalloc.start()
    try:
        mmd_with_se(x, y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4096 * 4096 * 8 // 2, peak


def test_energy_mmd_two_point_hand_value():
    x = np.array([[0.0, 0.0]])
    y = np.array([[3.0, 4.0]])
    assert energy_mmd(x, y, beta=1.0, lam=0.0) == 5.0
    assert energy_mmd(x, y, beta=2.0, lam=0.0) == 25.0
    with pytest.raises(ValueError):
        energy_mmd(x, y, beta=2.5)
    with pytest.raises(ValueError):
        energy_mmd(x, y, lam=1.0)  # within-set term needs two points


def test_energy_mmd_detects_shift():
    rng = stream(0, "test/shift")
    x = rng.standard_normal((500, 2))
    y = rng.standard_normal((500, 2))
    base = energy_mmd(x, y)
    shifted = energy_mmd(x, y + 2.0)
    assert shifted > base + 0.5


def test_two_halves_of_one_draw_score_near_zero(mog):
    x, _ = mog.sample_joint(4096, stream(1, "test/halves"))
    mmd, se = mmd_with_se(x[:2048], x[2048:], seed=0)
    assert abs(mmd) < 4.0 * se


def test_mmd_with_se_is_deterministic(mog):
    x, _ = mog.sample_joint(512, stream(2, "test/det"))
    y, _ = mog.sample_joint(512, stream(3, "test/det"))
    a = mmd_with_se(x, y, seed=7)
    b = mmd_with_se(x, y, seed=7)
    assert a == b
    with pytest.raises(ValueError):
        mmd_with_se(x, y, n_resamples=1)
    with pytest.raises(ValueError):
        mmd_with_se(x, y, fraction=1.0)
    with pytest.raises(ValueError):
        mmd_with_se(x, y, beta=0.0)
    with pytest.raises(ValueError):
        mmd_with_se(x[:1], y)  # within-set term needs two points


def test_evaluate_samples_per_class(mog):
    rng = stream(4, "test/per_class")
    x, cx = mog.sample_joint(600, rng)
    ref, cref = mog.sample_joint(600, rng)
    row = evaluate_samples(x, cx, ref, cref, "check", omega=0.0, seed=0)
    assert row.label == "check"
    assert row.count == 600
    assert sorted(row.per_class) == [0, 1, 2, 3]
    assert all(np.isfinite(v) for v in row.per_class.values())


def test_report_lookup_and_serialization(tmp_path):
    rows = [EvalRow(label="omega=0", omega=0.0, mmd=0.1, se=0.01, count=64),
            EvalRow(label="learned", omega=None, mmd=0.05, se=0.01, count=64)]
    report = EvalReport(rows=rows, beta=1.0, lam=1.0, seed=3, config_digest="abc")
    assert report.row("learned").mmd == 0.05
    with pytest.raises(KeyError):
        report.row("missing")

    jpath = tmp_path / "report.json"
    report.write_json(jpath)
    loaded = json.loads(jpath.read_text())
    assert loaded["config_digest"] == "abc"
    assert loaded["rows"][1]["omega"] is None
    assert loaded["rows"][0]["mmd"] == 0.1

    cpath = tmp_path / "report.csv"
    report.write_csv(cpath, header_comment="seed=3")
    lines = cpath.read_text().splitlines()
    assert lines[0] == "# seed=3"
    assert lines[1] == "label,omega,mmd,se,count"
    assert lines[2].startswith("omega=0,0.0,")
    assert lines[3].startswith("learned,,")


def test_write_table_bytes(tmp_path):
    path = tmp_path / "table.csv"
    write_table(path, "seed=1 config_digest=ab", ["label", "k", "v", "w"],
                [("a", 1, -0.0, None),
                 ("b", np.int64(-2), 5e-324, float("nan")),
                 ("c", 3, 1.7976931348623157e308, np.float64(0.1))])
    assert path.read_bytes() == (b"# seed=1 config_digest=ab\n"
                                 b"label,k,v,w\r\n"
                                 b"a,1,-0.0,\r\n"
                                 b"b,-2,5e-324,\r\n"
                                 b"c,3,1.7976931348623157e+308,0.1\r\n")
    write_table(path, None, ["k", "v"], [(np.nan, 7)])
    assert path.read_bytes() == b"k,v\r\n,7\r\n"


def test_figure_protocol_rows_and_common_reference(exact, mog):
    from guidefit.sampler import SampleConfig

    config = SampleConfig(steps=3, count=64)
    report = run_figure_protocol(exact, exact, mog, config, (0.0, 0.5),
                                 learned_fn=ConstantWeight(0.0), n_resamples=4,
                                 seed=2)
    assert [r.label for r in report.rows] == ["omega=0", "omega=0.5", "learned"]
    # the learned function IS omega = 0 here, so the rows must agree exactly
    assert report.row("learned").mmd == report.row("omega=0").mmd
    assert report.row("omega=0.5").mmd != report.row("omega=0").mmd


def _per_row_protocol(cond, uncond, data, config, omega_grid, learned_fn, beta, lam,
                      n_resamples, seed):
    """The sweep with every row scored on its own, nothing shared between rows."""
    from guidefit.sampler import sample

    reference, ref_c = data.sample_joint(config.count, stream(seed, "eval/reference"))
    fns = [(f"omega={g:g}", float(g), ConstantWeight(float(g))) for g in omega_grid]
    fns.append(("learned", None, learned_fn))
    rows = []
    for label, omega, fn in fns:
        x, cx = sample(config, cond, uncond, fn, class_weights=data.weights, seed=seed)
        mmd, se = mmd_with_se(x, reference, beta, lam, n_resamples, seed=seed)
        per_class = {cls: energy_mmd(x[cx == cls], reference[ref_c == cls], beta, lam)
                     for cls in range(data.n_classes)}
        rows.append(EvalRow(label=label, omega=omega, mmd=mmd, se=se, count=x.shape[0],
                            per_class=per_class))
    return EvalReport(rows=rows, beta=beta, lam=lam, seed=seed)


@pytest.mark.parametrize("beta,lam", [(1.0, 1.0), (1.75, 1.0), (1.0, 0.0)])
def test_figure_protocol_matches_per_row_oracle(exact, mog, monkeypatch, beta, lam):
    from guidefit import evaluation
    from guidefit.sampler import SampleConfig

    pairs = []
    monkeypatch.setattr(evaluation, "cdist",
                        lambda a, b: pairs.append(a.shape[0] * b.shape[0]) or cdist(a, b))
    config = SampleConfig(steps=3, count=600)
    grid = (0.0, 0.5, 2.0)
    learned = ConstantWeight(1.0)
    want = _per_row_protocol(exact, exact, mog, config, grid, learned, beta, lam, 5, 3)
    oracle_pairs, pairs[:] = sum(pairs), []
    got = run_figure_protocol(exact, exact, mog, config, grid, learned_fn=learned,
                              beta=beta, lam=lam, n_resamples=5, seed=3)
    assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())

    # the reference's own pairs (full set and per class) are summed at the
    # first row only; with lam = 0 they are never needed
    _, ref_c = mog.sample_joint(config.count, stream(3, "eval/reference"))
    ref_own = config.count ** 2 + sum(int(np.sum(ref_c == k)) ** 2 for k in range(4))
    saved = len(grid) * ref_own if lam > 0.0 else 0
    assert oracle_pairs - sum(pairs) == saved


def test_kept_reference_sums_match_a_fresh_reference():
    from guidefit.evaluation import _Reference

    x, y = _two_sets(300, 200)
    ref = _Reference(y)
    for seed, beta in ((1, 1.0), (2, 1.0), (1, 1.75), (1, 1.0)):
        assert mmd_with_se(x, ref, beta, seed=seed) == mmd_with_se(x, y, beta, seed=seed)
    assert energy_mmd(x, ref) == energy_mmd(x, y)
