"""Two-sample evaluation: energy-kernel MMD with subsampling error bars.

The evaluation estimator is the full two-sample form

    mmd(X, Y) = mean ||x - y||^beta
              - (lam/2) (within(X) + within(Y)),

with cross pairs averaged over all n_x * n_y combinations and within-set
sums unbiased (off-diagonal pairs over m(m-1)). At beta = 1, lam = 1 this is
half the classical energy distance: nonnegative in expectation, zero iff the
two laws agree.

Every score is a 0/1 indicator column per set, summed in one blocked pass
over each distance matrix: an all-ones column gives the full estimate, a
column per class the per-class scores, and half-size resample columns the
error bar (their scatter scaled by sqrt(1/2) back to full size). A set's own
pairs are summed over blocks with j >= i, pairs past the diagonal block
once with doubled weight. Blocks are BLOCK_ROWS = 256 rows; cdist builds
each on the caller's thread while one worker thread computes the indicator
product of the block before it, and the partial sums are added in block
order, so every result is the same as that of a serial loop.

A sweep scores every row against one shared reference with one subsample
stream, so the sums over the reference's own pairs are the same for every
row; they are computed once per sweep and reused (see _Reference).

cdist builds a block of at most NUMPY_PAIRS = 2^18 pairs (256 rows x 1024
points, the largest probe block at the shipped probe sizes) in numpy, and a
larger block by scipy's cdist, imported at the first such block. So
train-guidance's probes, like every command that scores nothing, never load
scipy. Both kernels add the squared coordinate differences in coordinate
order and take one square root, so they give the same bytes. Two stay
because each wins where it runs: importing scipy costs a fresh process about
0.3 s and 30 MB, more than numpy's kernel costs a probe, while once loaded
scipy's compiled loop takes about half numpy's time per pair, which the
4096-point blocks of a sweep or eval-mmd repay many times over.
"""

from __future__ import annotations

import csv
import functools
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .rng import stream


# Rows per distance block: 256 x 4096 float64 is 8 MB, and at most two blocks
# are alive at once (one built, one reduced), so no estimate ever holds a full
# n x n matrix.
BLOCK_ROWS = 256
# mmd_with_se's resamples each keep this share of both point sets.
SUBSET_FRACTION = 0.5
# cdist builds a block of at most this many pairs in numpy: BLOCK_ROWS x 1024.
NUMPY_PAIRS = 1 << 18


@functools.cache
def _scipy_cdist():
    """scipy.spatial.distance.cdist, imported at the first call."""
    from scipy.spatial.distance import cdist as euclidean
    return euclidean


def cdist(a, b):
    """Euclidean distances between the rows of a (n_a, d) and b (n_b, d), d >= 1,
    shape (n_a, n_b): in numpy up to NUMPY_PAIRS pairs, by scipy past it. Both
    add the squared coordinate differences first to last and take one square
    root, so both give the same bytes, NaN and inf included, and neither warns."""
    if a.shape[0] * b.shape[0] > NUMPY_PAIRS:
        return _scipy_cdist()(a, b)
    with np.errstate(over="ignore", invalid="ignore"):
        sq = np.subtract.outer(a[:, 0], b[:, 0])
        sq *= sq
        diff = np.empty_like(sq)
        for k in range(1, a.shape[1]):
            np.subtract.outer(a[:, k], b[:, k], out=diff)
            diff *= diff
            sq += diff
        return np.sqrt(sq, out=sq)


def _block_sums(wa, d, w):
    """Column sums wa[:, k] @ d @ w[:, k] of one distance block."""
    return np.einsum("ir,ir->r", wa, d @ w)


def _pair_sums(a, b, beta: float, wa, wb):
    """Sums of ||a_i - b_j||^beta over the pairs each indicator column selects.

    Column k of wa (n_a, r) and wb (n_b, r) sums wa[:, k] @ D @ wb[:, k], D
    built BLOCK_ROWS rows at a time. For b is a (wb the columns of wa) rows
    lo:hi build cdist(a[lo:hi], a[lo:]) only: the diagonal block holds its
    pairs in both orders and exact zeros on the diagonal, and the block gets
    its own weight rows, doubled past the diagonal block (cdist is bitwise
    symmetric, x2 exact).

    The calling thread builds block k + 1 (cdist, then the power) while one
    worker thread reduces block k by _block_sums. The caller adds each
    block's partial sums in block order before it submits the next block, so
    the result does not depend on thread timing and at most two blocks are
    alive. The worker lives for this call only.
    """
    own = b is a
    sums = np.zeros(wa.shape[1])
    with ThreadPoolExecutor(max_workers=1) as pool:
        pending = None
        for lo in range(0, a.shape[0], BLOCK_ROWS):
            hi, start = lo + BLOCK_ROWS, lo if own else 0
            d = cdist(a[lo:hi], b[start:])
            if beta != 1.0:
                d **= beta
            w = wb
            if own:
                w = 2.0 * wb[start:]
                w[:hi - lo] = wb[lo:hi]
            if pending is not None:
                sums += pending.result()
            pending = pool.submit(_block_sums, wa[lo:hi], d, w)
        if pending is not None:
            sums += pending.result()
    return sums


class _Reference:
    """A point set that samples are scored against, keeping its within-set sums.

    within() computes the sums over the set's own pairs once per (beta,
    indicator columns) and returns the kept result after that.
    """

    def __init__(self, points):
        self.points = np.atleast_2d(np.asarray(points, dtype=float))
        self._sums = {}

    def within(self, beta: float, w):
        key = (beta, w.shape, w.tobytes())
        if key not in self._sums:
            self._sums[key] = _pair_sums(self.points, self.points, beta, w, w)
        return self._sums[key]


def _energy(x, y: _Reference, beta: float, lam: float, wx, wy):
    """Energy MMD of each indicator-selected subset pair (wx[:, k], wy[:, k]), shape (r,)."""
    nx, ny = wx.sum(axis=0), wy.sum(axis=0)
    est = _pair_sums(x, y.points, beta, wx, wy) / (nx * ny)
    if lam != 0.0:
        tx, ty = _pair_sums(x, x, beta, wx, wx), y.within(beta, wy)
        with np.errstate(over="ignore"):  # a lam near the float range gives -inf
            est -= 0.5 * lam * (tx / (nx * (nx - 1)) + ty / (ny * (ny - 1)))
    return est


def energy_mmd(x, y, beta: float = 1.0, lam: float = 1.0) -> float:
    """Two-sample energy-kernel discrepancy between point sets x and y (an array
    or a _Reference). beta lies in (0, 2], and with lam != 0 each set holds at
    least two points: the config loader and the CLI check both."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = y if isinstance(y, _Reference) else _Reference(y)
    return float(_energy(x, y, beta, lam, np.ones((x.shape[0], 1)),
                         np.ones((y.points.shape[0], 1)))[0])


def mmd_with_se(x, y, beta: float = 1.0, lam: float = 1.0, n_resamples: int = 20,
                seed: int = 0, *, classes=None):
    """energy_mmd plus a subsampling standard error, and per-class scores on request.

    n_resamples >= 2 subsets of both sets are drawn without replacement at
    SUBSET_FRACTION; the standard deviation of the subset estimates, scaled by
    sqrt(SUBSET_FRACTION), estimates the standard error at full size. A set of
    two points is resampled whole, so the CLI scores sets of three or more.
    classes = (cx, cy), the labels of x and y, adds a dict class -> energy MMD
    of that class's points to the return, for each class with at least two
    points on both sides. All estimates are indicator columns of one pass
    (all-ones, resample, class).
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = y if isinstance(y, _Reference) else _Reference(y)
    rng = stream(seed, "eval/subsample")
    n, m = x.shape[0], y.points.shape[0]
    nx = max(2, int(round(SUBSET_FRACTION * n)))
    ny = max(2, int(round(SUBSET_FRACTION * m)))
    eligible = [] if classes is None else [
        cls for cls in range(int(max(map(np.max, classes))) + 1)
        if min(np.sum(classes[0] == cls), np.sum(classes[1] == cls)) >= 2]
    wx = np.zeros((n, 1 + n_resamples + len(eligible)))
    wy = np.zeros((m, wx.shape[1]))
    wx[:, 0] = wy[:, 0] = 1.0
    for r in range(1, n_resamples + 1):
        wx[rng.choice(n, size=nx, replace=False), r] = 1.0
        wy[rng.choice(m, size=ny, replace=False), r] = 1.0
    for col, cls in enumerate(eligible, 1 + n_resamples):
        wx[classes[0] == cls, col] = wy[classes[1] == cls, col] = 1.0
    est = _energy(x, y, beta, lam, wx, wy)
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite estimates give NaN
        se = float(np.std(est[1:1 + n_resamples], ddof=1) * np.sqrt(SUBSET_FRACTION))
    if classes is None:
        return float(est[0]), se
    return float(est[0]), se, dict(zip(eligible, map(float, est[1 + n_resamples:])))


def _cell(v):
    if isinstance(v, (str, int, np.integer)):
        return v
    return "" if v is None or np.isnan(v) else repr(float(v))


def write_table(path, header, columns, rows):
    """Write an artifact table: "# header" when one is given, the column row, the rows.

    ints are written as they are, floats at repr precision, None and NaN as
    empty cells. The comment line ends in "\n", the csv rows in "\r\n".
    """
    with open(path, "w", newline="") as fh:
        if header:
            fh.write(f"# {header}\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows([_cell(v) for v in row] for row in rows)


@dataclass
class EvalRow:
    """One evaluated sampler configuration."""

    label: str                 # e.g. "omega=0.5", "learned", "reference"
    omega: float | None        # constant weight, None for non-constant rows
    mmd: float
    se: float
    count: int
    per_class: dict = field(default_factory=dict)  # class -> mmd on that class


@dataclass
class EvalReport:
    rows: list
    beta: float
    lam: float
    seed: int
    config_digest: str | None = None

    def to_dict(self):
        return {
            "beta": self.beta, "lam": self.lam, "seed": self.seed,
            "config_digest": self.config_digest,
            "rows": [{"label": r.label, "omega": r.omega, "mmd": r.mmd, "se": r.se,
                      "count": r.count,
                      "per_class": {str(k): v for k, v in r.per_class.items()}}
                     for r in self.rows],
        }

    def write_json(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    def write_csv(self, path, header_comment: str | None = None):
        write_table(path, header_comment, ["label", "omega", "mmd", "se", "count"],
                    [(r.label, r.omega, r.mmd, r.se, r.count) for r in self.rows])

    def row(self, label: str) -> EvalRow:
        for r in self.rows:
            if r.label == label:
                return r
        raise KeyError(f"no row labeled {label!r}")


def run_figure_protocol(denoiser, data, sample_config, omega_grid,
                        learned_fn=None, beta: float = 1.0, lam: float = 1.0,
                        n_resamples: int = 20, seed: int = 0,
                        config_digest: str | None = None, quiet: bool = True) -> EvalReport:
    """Sweep constant guidance weights (plus an optional learned function).

    Every configuration is sampled with the same seed (common random numbers)
    and scored against one shared set of labeled data draws by
    mmd_with_se(..., classes=), pooled and per class, so differences between
    rows are not masked by chain noise. Returns an EvalReport whose rows are
    labeled "omega=<g>" for grid values and "learned" for the learned
    function. Sums over the reference's own pairs are computed at the first
    row and reused by the others.
    """
    from .guidance import ConstantWeight  # local import keeps module layering flat
    from .sampler import sample

    points, ref_c = data.sample_joint(sample_config.count, stream(seed, "eval/reference"))
    ref = _Reference(points)
    runs = [(f"omega={g:g}", float(g), ConstantWeight(float(g))) for g in omega_grid]
    if learned_fn is not None:
        runs.append(("learned", None, learned_fn))
    rows = []
    for label, omega, fn in runs:
        x, cx = sample(sample_config, denoiser, denoiser, fn, class_weights=data.weights, seed=seed)
        mmd, se, per_class = mmd_with_se(x, ref, beta, lam, n_resamples, seed=seed,
                                         classes=(cx, ref_c))
        rows.append(EvalRow(label, omega, mmd, se, x.shape[0], per_class))
        if not quiet:
            print(f"  {label}: mmd {rows[-1].mmd:.5f} +/- {rows[-1].se:.5f}")
    return EvalReport(rows=rows, beta=beta, lam=lam, seed=seed,
                      config_digest=config_digest)
