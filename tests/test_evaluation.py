"""Evaluation estimator and report plumbing."""

import json
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from guidefit.evaluation import (BLOCK_ROWS, EvalReport, EvalRow, energy_mmd, mmd_with_se,
                                 run_figure_protocol, write_table)
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


def _oracle_mmd_with_se(x, y, beta=1.0, lam=1.0, n_resamples=20, seed=0):
    fraction = 0.5
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


B = BLOCK_ROWS


# sizes straddling one block and two, and more than four blocks against fewer than two
@pytest.mark.parametrize("nx,ny", [(2, 3), (3, 2), (B - 1, B + 1), (B + 1, B),
                                   (2 * B - 1, 2 * B + 1), (2 * B + 1, 2 * B),
                                   (2 * B, 1100), (1100, 2 * B - 1)])
@pytest.mark.parametrize("beta", [0.5, 1.0, 1.75, 2.0])
@pytest.mark.parametrize("lam", [0.0, 1.0])
def test_blocked_estimator_matches_oracle(nx, ny, beta, lam):
    x, y = _two_sets(nx, ny)
    np.testing.assert_allclose(energy_mmd(x, y, beta, lam), _oracle_energy(x, y, beta, lam),
                               rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(mmd_with_se(x, y, beta, lam, seed=5),
                               _oracle_mmd_with_se(x, y, beta, lam, seed=5),
                               rtol=1e-12, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(nx=st.integers(2, 24), ny=st.integers(2, 24), dim=st.integers(1, 3),
       beta=st.sampled_from([0.5, 1.0, 1.75, 2.0]), lam=st.sampled_from([0.0, 0.5, 1.0]),
       n_resamples=st.integers(2, 6), seed=st.integers(0, 2**16))
def test_blocked_estimator_matches_oracle_property(nx, ny, dim, beta, lam, n_resamples, seed):
    x, y = _two_sets(nx, ny, dim, seed)
    np.testing.assert_allclose(energy_mmd(x, y, beta, lam), _oracle_energy(x, y, beta, lam),
                               rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(
        mmd_with_se(x, y, beta, lam, n_resamples, seed),
        _oracle_mmd_with_se(x, y, beta, lam, n_resamples, seed),
        rtol=1e-12, atol=1e-12)


def test_mmd_with_se_never_holds_a_full_distance_matrix():
    x, y = _two_sets(4096, 4096)
    tracemalloc.start()
    try:
        mmd_with_se(x, y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one block built and one reduced, plus the indicator columns: a third
    # block in flight would pass the bound
    assert peak < 2 * BLOCK_ROWS * 4096 * 8 + 4 * 2**20, peak


def _serial_pair_sums(a, b, beta, wa, wb):
    """_pair_sums as one thread's loop over the same blocks, with one doubled
    weight copy whose diagonal rows are reset in place."""
    own = b is a
    w = 2.0 * wb if own else wb
    sums = np.zeros(wa.shape[1])
    for lo in range(0, a.shape[0], BLOCK_ROWS):
        hi, start = lo + BLOCK_ROWS, lo if own else 0
        if own:
            w[lo:hi] = wb[lo:hi]
        d = cdist(a[lo:hi], b[start:])
        if beta != 1.0:
            d **= beta
        sums += np.einsum("ir,ir->r", wa[lo:hi], d @ w[start:])
    return sums


def _indicators(n, r, seed):
    w = (stream(seed, "test/indicators").random((n, r)) < 0.5).astype(float)
    w[:, 0] = 1.0
    return w


@pytest.mark.parametrize("slow", [None, "_block_sums", "cdist"])
@pytest.mark.parametrize("beta", [1.0, 1.75])
@pytest.mark.parametrize("n,m", [(2 * BLOCK_ROWS + 37, BLOCK_ROWS + 5), (BLOCK_ROWS - 3, 3)])
def test_overlapped_pair_sums_equal_a_serial_loop(monkeypatch, slow, beta, n, m):
    from guidefit import evaluation

    if slow is not None:  # force one stage to finish last at every block
        real = getattr(evaluation, slow)

        def slowed(*args):
            time.sleep(0.005)
            return real(*args)
        monkeypatch.setattr(evaluation, slow, slowed)
    x, y = _two_sets(n, m)
    wx, wy = _indicators(n, 7, 1), _indicators(m, 7, 2)
    for a, b, wa, wb in ((x, x, wx, wx), (x, y, wx, wy), (y, x, wy, wx), (y, y, wy, wy)):
        got = evaluation._pair_sums(a, b, beta, wa, wb)
        assert np.array_equal(got, _serial_pair_sums(a, b, beta, wa, wb))


@pytest.mark.parametrize("fail_at", [0, 2])
def test_worker_exception_surfaces_and_leaves_no_thread(monkeypatch, fail_at):
    from guidefit import evaluation

    real, calls = evaluation._block_sums, []

    def failing(*args):
        calls.append(None)
        if len(calls) > fail_at:
            raise RuntimeError("reduction failed")
        return real(*args)
    monkeypatch.setattr(evaluation, "_block_sums", failing)
    x, y = _two_sets(3 * BLOCK_ROWS + 1, 5)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="reduction failed"):
        energy_mmd(x, y)
    assert threading.active_count() == before


def test_energy_mmd_two_point_hand_value():
    x = np.array([[0.0, 0.0]])
    y = np.array([[3.0, 4.0]])
    assert energy_mmd(x, y, beta=1.0, lam=0.0) == 5.0
    assert energy_mmd(x, y, beta=2.0, lam=0.0) == 25.0


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


def test_evaluate_samples_per_class(mog):
    rng = stream(4, "test/per_class")
    x, cx = mog.sample_joint(600, rng)
    ref, cref = mog.sample_joint(700, rng)
    cx[cx == 3] = 2
    cx[0] = 3  # class 3 has one point in x: too few to score on its own
    for beta, lam in ((1.0, 0.0), (1.0, 1.0), (1.75, 0.0), (1.75, 1.0)):
        mmd, se, per_class = mmd_with_se(x, ref, beta, lam, seed=0, classes=(cx, cref))
        assert sorted(per_class) == [0, 1, 2]
        for cls, value in per_class.items():
            np.testing.assert_allclose(value, _oracle_energy(x[cx == cls], ref[cref == cls],
                                                             beta, lam),
                                       rtol=1e-12, atol=1e-12)
        # the class columns ride along without changing the pooled scores
        np.testing.assert_allclose((mmd, se),
                                   _oracle_mmd_with_se(x, ref, beta, lam, seed=0),
                                   rtol=1e-12, atol=1e-12)


def _own_pairs(n):
    """Pairs in the blocks with j >= i of a set of n points against itself."""
    return sum(min(BLOCK_ROWS, n - lo) * (n - lo) for lo in range(0, n, BLOCK_ROWS))


@pytest.mark.parametrize("n,m", [(1024, 1100), (600, 2)])
def test_energy_mmd_builds_own_pairs_over_upper_blocks(monkeypatch, n, m):
    from guidefit import evaluation

    pairs = []
    monkeypatch.setattr(evaluation, "cdist",
                        lambda a, b: pairs.append(a.shape[0] * b.shape[0]) or cdist(a, b))
    x, y = _two_sets(n, m)
    energy_mmd(x, y)
    assert sum(pairs) == n * m + _own_pairs(n) + _own_pairs(m)
    assert _own_pairs(1024) == 256 * 1024 + 256 * 768 + 256 * 512 + 256 * 256


def _same_bytes(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("d", [1, 2, 3, 8])
def test_numpy_cdist_bytes_match_scipy(d):
    """The numpy kernel adds the squared coordinate differences in scipy's order
    and takes one square root: scipy's bytes at every scale, and an exact zero
    diagonal for a set against itself."""
    from guidefit.evaluation import cdist as package_cdist

    rng = stream(21, "test/cdist", d)
    for scale in (1e-3, 1e-1, 1.0, 1e1, 1e3, 1e5):
        a = rng.standard_normal((BLOCK_ROWS, d)) * scale
        b = rng.standard_normal((1024, d)) * scale + 0.3 * scale
        for x, y in ((a, b), (a, a), (b[:200], b[100:])):
            assert _same_bytes(package_cdist(x, y), cdist(x, y)), (d, scale)
        assert np.all(np.diag(package_cdist(a, a)) == 0.0)


def test_numpy_cdist_bytes_match_scipy_on_non_finite_points():
    """Points past the float range, at +-inf and NaN: scipy's bytes, NaN in the
    same places, and no RuntimeWarning (the suite makes one an error)."""
    from guidefit.evaluation import cdist as package_cdist

    rng = stream(22, "test/cdist_edges")
    inf, nan = np.inf, np.nan
    for d in (1, 2, 3):
        a = rng.standard_normal((40, d))
        a[:12, 0] = [1e200, -1e200, 1e155, inf, -inf, nan, inf, -inf, nan, 1e308, -1e308, 0.0]
        a[6:9, -1] = [inf, nan, -inf]
        b = np.concatenate([a, rng.standard_normal((25, d)) * 1e200])
        for x, y in ((a, b), (a, a), (b, a)):
            got, want = package_cdist(x, y), cdist(x, y)
            assert _same_bytes(got, want), d
            assert np.array_equal(np.isnan(got), np.isnan(want)) and np.isnan(got).any()


def test_cdist_calls_scipy_only_past_the_numpy_block_size(monkeypatch):
    """A block of NUMPY_PAIRS = 2^18 pairs is built in numpy; one more row is
    handed to scipy."""
    from guidefit import evaluation

    calls = []
    monkeypatch.setattr(evaluation, "_scipy_cdist",
                        lambda: lambda a, b: calls.append(a.shape[0] * b.shape[0]) or cdist(a, b))
    assert evaluation.NUMPY_PAIRS == 2**18 == BLOCK_ROWS * 1024
    a, b = _two_sets(BLOCK_ROWS + 1, 1024)
    evaluation.cdist(a[:BLOCK_ROWS], b)
    assert calls == []
    evaluation.cdist(a, b)
    assert calls == [(BLOCK_ROWS + 1) * 1024]


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
    report = run_figure_protocol(exact, mog, config, (0.0, 0.5),
                                 learned_fn=ConstantWeight(0.0), n_resamples=4,
                                 seed=2)
    assert [r.label for r in report.rows] == ["omega=0", "omega=0.5", "learned"]
    # the learned function IS omega = 0 here, so the rows must agree exactly
    assert report.row("learned").mmd == report.row("omega=0").mmd
    assert report.row("omega=0.5").mmd != report.row("omega=0").mmd


def _per_row_protocol(denoiser, data, config, omega_grid, learned_fn, beta, lam,
                      n_resamples, seed):
    """The sweep with every row scored on its own, nothing shared between rows:
    each row gets a fresh reference, whose own pairs it sums again."""
    from guidefit.sampler import sample

    reference, ref_c = data.sample_joint(config.count, stream(seed, "eval/reference"))
    fns = [(f"omega={g:g}", float(g), ConstantWeight(float(g))) for g in omega_grid]
    fns.append(("learned", None, learned_fn))
    rows = []
    for label, omega, fn in fns:
        x, cx = sample(config, denoiser, denoiser, fn, class_weights=data.weights, seed=seed)
        mmd, se, per_class = mmd_with_se(x, reference, beta, lam, n_resamples, seed=seed,
                                         classes=(cx, ref_c))
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
    want = _per_row_protocol(exact, mog, config, grid, learned, beta, lam, 5, 3)
    oracle_pairs, pairs[:] = sum(pairs), []
    got = run_figure_protocol(exact, mog, config, grid, learned_fn=learned,
                              beta=beta, lam=lam, n_resamples=5, seed=3)
    assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())

    # the reference's own pairs (every column at once, over the blocks with
    # j >= i) are summed at the first row only; with lam = 0 they are never needed
    saved = len(grid) * _own_pairs(config.count) if lam > 0.0 else 0
    assert oracle_pairs - sum(pairs) == saved


def test_kept_reference_sums_match_a_fresh_reference():
    from guidefit.evaluation import _Reference

    x, y = _two_sets(300, 200)
    ref = _Reference(y)
    for seed, beta in ((1, 1.0), (2, 1.0), (1, 1.75), (1, 1.0)):
        assert mmd_with_se(x, ref, beta, seed=seed) == mmd_with_se(x, y, beta, seed=seed)
    assert energy_mmd(x, ref) == energy_mmd(x, y)
