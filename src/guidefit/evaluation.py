"""Two-sample evaluation: energy-kernel MMD with subsampling error bars.

The evaluation estimator is the full two-sample form

    mmd(X, Y) = mean ||x - y||^beta
              - (lam/2) (within(X) + within(Y)),

with cross pairs averaged over all n_x * n_y combinations and within-set
sums unbiased (off-diagonal pairs over m(m-1)). At beta = 1, lam = 1 this is
half the classical energy distance: nonnegative in expectation, zero iff the
two laws agree.

Error bars come from subsampling: the estimator is recomputed on half-size
subsets and the scatter is scaled by sqrt(1/2) back to full size.

A sweep scores every row against one shared reference with one subsample
stream, so the sums over the reference's own pairs are the same for every
row; they are computed once per sweep and reused (see _Reference).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import cdist

from .rng import stream


# Rows per distance block: 512 x 4096 float64 is 16 MB, so no estimate ever
# holds a full n x n matrix.
BLOCK_ROWS = 512


def _pair_sums(a, b, beta: float, wa, wb):
    """Sums of ||a_i - b_j||^beta over all pairs and over each resample's pairs.

    wa (n_a, r) and wb (n_b, r) are 0/1 indicators of the r resampled
    subsets; resample k's sum is wa[:, k] @ D @ wb[:, k]. The distance matrix
    D is built BLOCK_ROWS rows at a time. On a set against itself cdist
    returns exact zeros on the diagonal, so the sums are off-diagonal sums.
    """
    total = 0.0
    per_resample = np.zeros(wa.shape[1])
    for lo in range(0, a.shape[0], BLOCK_ROWS):
        d = cdist(a[lo:lo + BLOCK_ROWS], b)
        if beta != 1.0:
            d **= beta
        total += float(d.sum())
        per_resample += np.einsum("ir,ir->r", wa[lo:lo + BLOCK_ROWS], d @ wb)
    return total, per_resample


class _Reference:
    """A point set that samples are scored against, keeping its within-set sums.

    within() computes the sums over the set's own pairs once per (beta,
    indicator columns) and returns the kept result after that. of_class()
    gives the part of the set with one class label, itself a _Reference, so
    per-class sums are kept too.
    """

    def __init__(self, points, classes=None):
        self.points = np.atleast_2d(np.asarray(points, dtype=float))
        self.classes = classes
        self._sums = {}
        self._parts = {}

    def within(self, beta: float, w):
        key = (beta, w.shape, w.tobytes())
        if key not in self._sums:
            self._sums[key] = _pair_sums(self.points, self.points, beta, w, w)
        return self._sums[key]

    def of_class(self, cls: int) -> "_Reference":
        if cls not in self._parts:
            self._parts[cls] = _Reference(self.points[self.classes == cls])
        return self._parts[cls]


def _energy(x, y: _Reference, beta: float, lam: float, wx, wy):
    """Energy MMD of the full sets and of each indicator-selected subset pair.

    Returns (full, per_resample) with per_resample of shape (r,), where r is
    the number of indicator columns (zero for a plain estimate).
    """
    nx, ny = wx.sum(axis=0), wy.sum(axis=0)
    total, per = _pair_sums(x, y.points, beta, wx, wy)
    full, sub = total / (x.shape[0] * y.points.shape[0]), per / (nx * ny)
    if lam == 0.0:
        return full, sub
    (tx, px), (ty, py) = _pair_sums(x, x, beta, wx, wx), y.within(beta, wy)
    n, m = x.shape[0], y.points.shape[0]
    full -= 0.5 * lam * (tx / (n * (n - 1)) + ty / (m * (m - 1)))
    sub -= 0.5 * lam * (px / (nx * (nx - 1)) + py / (ny * (ny - 1)))
    return full, sub


def _checked_points(x, y, beta: float, lam: float):
    """x as a 2D array and y as a _Reference (an array y is wrapped)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = y if isinstance(y, _Reference) else _Reference(y)
    if not 0.0 < beta <= 2.0:
        raise ValueError(f"beta must lie in (0, 2], got {beta}")
    if lam != 0.0 and min(x.shape[0], y.points.shape[0]) < 2:
        raise ValueError("within-set term needs at least two points")
    return x, y


def energy_mmd(x, y, beta: float = 1.0, lam: float = 1.0) -> float:
    """Two-sample energy-kernel discrepancy between point sets x and y."""
    x, y = _checked_points(x, y, beta, lam)
    full, _ = _energy(x, y, beta, lam, np.zeros((x.shape[0], 0)),
                      np.zeros((y.points.shape[0], 0)))
    return float(full)


def mmd_with_se(x, y, beta: float = 1.0, lam: float = 1.0, n_resamples: int = 20,
                fraction: float = 0.5, seed: int = 0):
    """energy_mmd plus a subsampling standard error.

    n_resamples subsets of both sets are drawn without replacement at the
    given fraction; the standard deviation of the subset estimates, scaled by
    sqrt(fraction), estimates the standard error at full size. The full
    estimate and all subset estimates come from one blocked pass over each
    distance matrix, the subsets entering as 0/1 indicator columns.
    """
    x, y = _checked_points(x, y, beta, lam)
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must lie in (0, 1)")
    if n_resamples < 2:
        raise ValueError("need at least two resamples")
    rng = stream(seed, "eval/subsample")
    n, m = x.shape[0], y.points.shape[0]
    nx = max(2, int(round(fraction * n)))
    ny = max(2, int(round(fraction * m)))
    wx = np.zeros((n, n_resamples))
    wy = np.zeros((m, n_resamples))
    for r in range(n_resamples):
        wx[rng.choice(n, size=nx, replace=False), r] = 1.0
        wy[rng.choice(m, size=ny, replace=False), r] = 1.0
    full, estimates = _energy(x, y, beta, lam, wx, wy)
    se = float(np.std(estimates, ddof=1) * np.sqrt(fraction))
    return float(full), se


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


def evaluate_samples(x, cx, reference, ref_c, label: str, omega=None,
                     beta: float = 1.0, lam: float = 1.0, n_resamples: int = 20,
                     seed: int = 0) -> EvalRow:
    """Score one sample set against reference draws.

    reference may be a _Reference (built with labels ref_c), whose kept
    within-set sums are then reused. When both sets carry class labels, each
    class with at least two points on both sides is also scored on its own.
    """
    ref = reference if isinstance(reference, _Reference) else _Reference(reference, ref_c)
    mmd, se = mmd_with_se(x, ref, beta, lam, n_resamples, seed=seed)
    row = EvalRow(label=label, omega=omega, mmd=mmd, se=se, count=x.shape[0])
    if cx is not None and ref.classes is not None:
        for cls in range(int(max(cx.max(), ref.classes.max())) + 1):
            xs, ys = x[cx == cls], ref.of_class(cls)
            if xs.shape[0] >= 2 and ys.points.shape[0] >= 2:
                row.per_class[cls] = energy_mmd(xs, ys, beta, lam)
    return row


def run_figure_protocol(cond, uncond, data, sample_config, omega_grid,
                        learned_fn=None, beta: float = 1.0, lam: float = 1.0,
                        n_resamples: int = 20, seed: int = 0,
                        config_digest: str | None = None, quiet: bool = True) -> EvalReport:
    """Sweep constant guidance weights (plus an optional learned function).

    Every configuration is sampled with the same seed (common random numbers)
    and scored against one shared set of fresh data draws, so differences
    between rows are not masked by chain noise. Returns an EvalReport whose
    rows are labeled "omega=<g>" for grid values and "learned" for the
    learned function. Sums over the reference's own pairs are computed at
    the first row and reused by the others.
    """
    from .guidance import ConstantWeight  # local import keeps module layering flat
    from .sampler import sample

    ref = _Reference(*data.sample_joint(sample_config.count,
                                        stream(seed, "eval/reference")))
    runs = [(f"omega={g:g}", float(g), ConstantWeight(float(g))) for g in omega_grid]
    if learned_fn is not None:
        runs.append(("learned", None, learned_fn))
    rows = []
    for label, omega, fn in runs:
        x, cx = sample(sample_config, cond, uncond, fn, class_weights=data.weights, seed=seed)
        rows.append(evaluate_samples(x, cx, ref, ref.classes, label, omega=omega,
                                     beta=beta, lam=lam, n_resamples=n_resamples,
                                     seed=seed))
        if not quiet:
            print(f"  {label}: mmd {rows[-1].mmd:.5f} +/- {rows[-1].se:.5f}")
    return EvalReport(rows=rows, beta=beta, lam=lam, seed=seed,
                      config_digest=config_digest)
