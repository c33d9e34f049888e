"""In-memory span tracer and the per-layer metrics computed from its spans.

A span is [name, start, end, parent]: perf_counter seconds and the index of
the span that was open when it started (-1 for a root). Everything runs in
one thread, so open spans form a stack and a span's children lie inside it.

Wrappers are installed from the benchmark's side only: each public callable
is replaced in every guidefit module that holds a reference to it, because
`from .x import f` copies the name into the caller and patching only the
defining module would record nothing.

Counting hooks run after the wrapped call has ended. Their time is recorded
as a sibling span named "trace.bookkeeping", so it stays out of the layers'
self times and shows up as its own metric.
"""

from __future__ import annotations

import json
import os
import re
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")
BOOKKEEPING = "trace.bookkeeping"
ROOT = "cli"

# Spans whose self time is reported, under the metric name given. Every span
# name the wrappers record is here, so the reported self times add up to the
# traced wall time minus trace.unattributed_s.
SELF_METRICS = {
    ROOT: "cli.self_s",
    "trainer": "trainer.self_s",
    "trainer.probe": "trainer.probe.self_s",
    "objectives.build_particles": "objectives.build_particles.self_s",
    "objectives.mmd_loss": "objectives.mmd_loss.self_s",
    "objectives.build_gsm": "objectives.build_gsm.self_s",
    "objectives.gsm_loss": "objectives.gsm_loss.self_s",
    "guidance.net.fwd_tape": "guidance.net.fwd_tape.self_s",
    "guidance.net.backward": "guidance.net.backward.self_s",
    "guidance.weight": "guidance.weight.self_s",
    "guidance.guided_denoise": "guidance.guided_denoise.self_s",
    "denoisers.neural": "denoisers.neural.self_s",
    "denoisers.analytic": "denoisers.analytic.self_s",
    "nn.mlp.forward": "nn.mlp.forward.self_s",
    "nn.mlp.backward": "nn.mlp.backward.self_s",
    "nn.adam_step": "nn.adam_step.self_s",
    "nn.ema.update": "nn.ema.update.self_s",
    "sampler.sample": "sampler.sample.self_s",
    "rng.stream": "rng.stream.self_s",
    "schedule": "schedule.self_s",
    "evaluation.mmd_with_se": "evaluation.mmd_with_se.self_s",
    "evaluation.energy_mmd": "evaluation.energy_mmd.self_s",
    "evaluation.cdist": "evaluation.cdist.self_s",
    "checkpoints.save": "checkpoints.save.self_s",
    "checkpoints.load": "checkpoints.load.self_s",
    BOOKKEEPING: "trace.bookkeeping_s",
}

# Layers whose own net forward is in their self time: an Mlp.forward called
# inside one of them records no span.
NET_FORWARD_OWNERS = {"denoisers.neural", "guidance.weight"}

# Span names recorded in the timed command; denoisers.pretrain, the only
# other one, runs in set-up.
TABLE_SPANS = sorted(SELF_METRICS)

# Every per-layer metric, with its unit; BENCHMARK.json lists the same.
PER_LAYER = (
    [("denoisers.neural.calls", "count"), ("denoisers.neural.rows", "count"),
     ("denoisers.neural.rows_per_distinct_tc", "ratio"), ("nn.mlp.gelu_elems", "count"),
     ("objectives.mmd_loss.pair_elems", "count"),
     ("guidance.weight.calls", "count"), ("guidance.weight.rows", "count"),
     ("guidance.weight.rows_per_distinct_stc", "ratio"),
     ("rng.stream.calls", "count"),
     ("sampler.sample.calls", "count"), ("sampler.sample.chains", "count"),
     ("evaluation.mmd_with_se.calls", "count"), ("evaluation.energy_mmd.calls", "count"),
     ("evaluation.cdist.calls", "count"), ("evaluation.cdist.pairs", "count"),
     ("evaluation.cdist.out_bytes", "B"), ("evaluation.pairs_per_distinct", "ratio"),
     ("denoisers.analytic.calls", "count"), ("denoisers.analytic.rows", "count"),
     ("nn.mlp.forward.calls", "count"), ("nn.mlp.forward.rows", "count"),
     ("nn.mlp.backward.calls", "count"), ("nn.mlp.backward.rows", "count"),
     ("nn.adam_step.calls", "count"), ("nn.ema.update.calls", "count"),
     ("guidance.net.fwd_tape_s", "s"), ("guidance.net.backward_s", "s"),
     ("trainer.iterations", "count"), ("trainer.probe_calls", "count"),
     ("trainer.probe_s", "s"), ("trainer.diverged", "count"),
     ("schedule.calls", "count"),
     ("checkpoints.save_s", "s"), ("checkpoints.save_bytes", "B"),
     ("checkpoints.load_s", "s"),
     ("denoisers.pretrain_s", "s")]
    + [(metric, "s") for metric in SELF_METRICS.values()]
    + [("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"),
       ("trace.overhead_s", "s"), ("trace.unattributed_s", "s")]
)

# Counts that must repeat exactly between two traced runs at one seed.
EXACT = tuple(name for name, unit in PER_LAYER if unit in ("count", "B", "ratio"))


class Tracer:
    def __init__(self):
        self.spans = []   # [name, start, end, parent]
        self.stack = []   # indices of open spans
        self.counts = defaultdict(int)
        self.pairs = PairRegistry()

    def reset_counts(self):
        self.counts.clear()
        self.pairs = PairRegistry()

    def current(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def close(self, idx: int):
        self.spans[idx][2] = perf_counter()
        self.stack.pop()

    def wrap(self, fn, name: str, count=None, skip_inside=(), count_always=None):
        """Return fn recording a span `name` per call.

        count(tracer, args, kwargs, result, exc) updates self.counts after the
        call. Calls made while a span named in skip_inside is innermost are not
        recorded and not counted by count, so their time stays in the caller's
        layer; count_always counts every call, recorded or not.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            skipped = tracer.current() in skip_inside
            idx = None if skipped else tracer.open(name)
            result, exc = None, None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                if idx is not None:
                    tracer.close(idx)
                hooks = [h for h in (None if skipped else count, count_always) if h]
                if hooks:
                    book = tracer.open(BOOKKEEPING)
                    for hook in hooks:
                        hook(tracer, args, kwargs, result, exc)
                    tracer.close(book)

        wrapper.__wrapped__ = fn
        return wrapper

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)
            fh.write("\n")


def self_times(spans, lo: int = 0, hi: int | None = None):
    """Per-name [calls, total duration, self time] over spans[lo:hi].

    Self time is a span's duration minus the part of it that the union of its
    children covers; touching or overlapping children are merged first.
    """
    hi = len(spans) if hi is None else hi
    children = defaultdict(list)
    for i in range(lo, hi):
        if spans[i][3] >= lo:
            children[spans[i][3]].append((spans[i][1], spans[i][2]))
    out = defaultdict(lambda: [0, 0.0, 0.0])
    for i in range(lo, hi):
        name, start, end, _ = spans[i]
        covered, cur_lo, cur_hi = 0.0, None, None
        for c_lo, c_hi in sorted(children.get(i, ())):
            c_lo, c_hi = max(c_lo, start), min(c_hi, end)
            if c_hi <= c_lo:
                continue
            if cur_hi is not None and c_lo <= cur_hi:
                cur_hi = max(cur_hi, c_hi)
                continue
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = c_lo, c_hi
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        rec = out[name]
        rec[0] += 1
        rec[1] += end - start
        rec[2] += (end - start) - covered
    return dict(out)


def layer_metrics(tracer: Tracer, root: int, wall_s: float) -> dict:
    """Per-layer metrics of the timed command whose root span is spans[root].

    Everything before root is set-up; only denoisers.pretrain_s reads it.
    trace.untraced_wall_s and trace.overhead_s are left to the caller, which
    owns the untraced run.
    """
    st = self_times(tracer.spans, root)
    setup = self_times(tracer.spans, 0, root)
    c = tracer.counts

    def calls(name):
        return st.get(name, [0, 0.0, 0.0])[0]

    def total(name):
        return st.get(name, [0, 0.0, 0.0])[1]

    def ratio(num, den):
        return c[num] / c[den] if c[den] else 0.0

    out = {
        "denoisers.neural.calls": calls("denoisers.neural"),
        "denoisers.neural.rows": c["denoisers.neural.rows"],
        "denoisers.neural.rows_per_distinct_tc": ratio("denoisers.neural.rows",
                                                       "denoisers.neural.distinct_tc"),
        "nn.mlp.gelu_elems": c["nn.mlp.gelu_elems"],
        "objectives.mmd_loss.pair_elems": c["objectives.mmd_loss.pair_elems"],
        "guidance.weight.calls": calls("guidance.weight"),
        "guidance.weight.rows": c["guidance.weight.rows"],
        "guidance.weight.rows_per_distinct_stc": ratio("guidance.weight.rows",
                                                       "guidance.weight.distinct_stc"),
        "rng.stream.calls": calls("rng.stream"),
        "sampler.sample.calls": calls("sampler.sample"),
        "sampler.sample.chains": c["sampler.sample.chains"],
        "evaluation.mmd_with_se.calls": calls("evaluation.mmd_with_se"),
        "evaluation.energy_mmd.calls": calls("evaluation.energy_mmd"),
        "evaluation.cdist.calls": calls("evaluation.cdist"),
        "evaluation.cdist.pairs": c["evaluation.cdist.pairs"],
        "evaluation.cdist.out_bytes": c["evaluation.cdist.out_bytes"],
        "evaluation.pairs_per_distinct": ratio("evaluation.cdist.pairs",
                                               "evaluation.cdist.distinct_pairs"),
        "denoisers.analytic.calls": calls("denoisers.analytic"),
        "denoisers.analytic.rows": c["denoisers.analytic.rows"],
        "nn.mlp.forward.calls": calls("nn.mlp.forward"),
        "nn.mlp.forward.rows": c["nn.mlp.forward.rows"],
        "nn.mlp.backward.calls": calls("nn.mlp.backward"),
        "nn.mlp.backward.rows": c["nn.mlp.backward.rows"],
        "nn.adam_step.calls": calls("nn.adam_step"),
        "nn.ema.update.calls": calls("nn.ema.update"),
        "guidance.net.fwd_tape_s": total("guidance.net.fwd_tape"),
        "guidance.net.backward_s": total("guidance.net.backward"),
        "trainer.iterations": c["trainer.iterations"],
        "trainer.probe_calls": calls("trainer.probe"),
        "trainer.probe_s": total("trainer.probe"),
        "trainer.diverged": c["trainer.diverged"],
        "schedule.calls": calls("schedule"),
        "checkpoints.save_s": total("checkpoints.save"),
        "checkpoints.save_bytes": c["checkpoints.save_bytes"],
        "checkpoints.load_s": total("checkpoints.load"),
        "denoisers.pretrain_s": setup.get("denoisers.pretrain", [0, 0.0, 0.0])[1],
    }
    for name, metric in SELF_METRICS.items():
        out[metric] = st.get(name, [0, 0.0, 0.0])[2]
    out["trace.wall_s"] = wall_s
    out["trace.unattributed_s"] = wall_s - sum(out[m] for m in SELF_METRICS.values())
    return out


class PairRegistry:
    """Counts the cdist pairs that had to be computed at least once.

    A call adds its pairs unless both of its point sets are row subsets of
    the point sets of one earlier call that did add its pairs.
    """

    def __init__(self):
        self.seen = []  # (sorted rows of A, sorted rows of B) as byte strings

    @staticmethod
    def _key(points):
        p = np.ascontiguousarray(np.atleast_2d(np.asarray(points, dtype=float)))
        return np.sort(p.view(np.dtype((np.void, p.itemsize * p.shape[1]))).ravel())

    @staticmethod
    def _contains(big, small):
        if small.shape[0] > big.shape[0] or small.dtype != big.dtype:
            return False
        pos = np.minimum(np.searchsorted(big, small), big.shape[0] - 1)
        return bool(np.all(big[pos] == small))

    def add(self, a, b) -> int:
        """Register one call; return the pairs it adds to the distinct count."""
        ka, kb = self._key(a), self._key(b)
        for sa, sb in reversed(self.seen):
            if self._contains(sa, ka) and self._contains(sb, kb):
                return 0
        self.seen.append((ka, kb))
        return ka.shape[0] * kb.shape[0]


# ----------------------------------------------------------------- counters

def _rows(x) -> int:
    return int(np.atleast_2d(np.asarray(x)).shape[0])


def _distinct_rows(*cols) -> int:
    return int(np.unique(np.stack(cols, axis=1), axis=0).shape[0])


def _col(value, n):
    """value broadcast to (n,) floats; None (the null class) becomes -1."""
    if value is None:
        return np.full(n, -1.0)
    return np.broadcast_to(np.asarray(value, dtype=float), (n,))


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _count_denoise(prefix, distinct):
    def count(tr, args, kwargs, result, exc):
        n = _rows(args[1])
        tr.counts[prefix + ".rows"] += n
        if distinct:
            t, c = _col(_arg(args, kwargs, 2, "t"), n), _col(_arg(args, kwargs, 3, "c"), n)
            tr.counts[prefix + ".distinct_tc"] += _distinct_rows(t, c)
    return count


def _count_weight(tr, args, kwargs, result, exc):
    s, t, c = args[1], args[2], _arg(args, kwargs, 3, "c")
    n = int(np.prod(np.broadcast_shapes(np.shape(s), np.shape(t),
                                        () if c is None else np.shape(c))))
    tr.counts["guidance.weight.rows"] += n
    tr.counts["guidance.weight.distinct_stc"] += _distinct_rows(_col(s, n), _col(t, n),
                                                                _col(c, n))


def _count_mlp_forward(tr, args, kwargs, result, exc):
    tr.counts["nn.mlp.forward.rows"] += _rows(args[1])


def _count_gelu(tr, args, kwargs, result, exc):
    net, n = args[0], _rows(args[1])
    widths = net.sizes[1:]
    gelu = sum(widths[:-1]) if net.hidden_activation == "gelu" else 0
    gelu += widths[-1] if net.output_activation == "gelu" else 0
    tr.counts["nn.mlp.gelu_elems"] += n * gelu


def _count_mlp_backward(tr, args, kwargs, result, exc):
    tr.counts["nn.mlp.backward.rows"] += _rows(_arg(args, kwargs, 2, "dy"))


def _count_sample(tr, args, kwargs, result, exc):
    tr.counts["sampler.sample.chains"] += int(args[0].count)


def _count_cdist(tr, args, kwargs, result, exc):
    tr.counts["evaluation.cdist.pairs"] += _rows(args[0]) * _rows(args[1])
    if result is not None:
        tr.counts["evaluation.cdist.out_bytes"] += int(result.nbytes)
    tr.counts["evaluation.cdist.distinct_pairs"] += tr.pairs.add(args[0], args[1])


def _count_mmd_loss(tr, args, kwargs, result, exc):
    batch = args[0]
    tr.counts["objectives.mmd_loss.pair_elems"] += batch.n_items * batch.n_particles ** 2


def _count_trainer(tr, args, kwargs, result, exc):
    if exc is None:
        tr.counts["trainer.iterations"] += int(result[1].iteration.shape[0])
    elif type(exc).__name__ == "TrainingDiverged":
        tr.counts["trainer.diverged"] += 1
        tr.counts["trainer.iterations"] += int(exc.iteration)


def _count_save(tr, args, kwargs, result, exc):
    if exc is None:
        tr.counts["checkpoints.save_bytes"] += os.path.getsize(args[0])


def install(tracer: Tracer):
    """Wrap guidefit's public callables in every module that references them."""
    from guidefit import (checkpoints, cli, denoisers, evaluation, guidance,  # noqa: F401
                          nn, objectives, rng, sampler, schedule, trainer)

    # looked up as module attributes: (defining module, attr, span, counter)
    functions = [
        (rng, "stream", "rng.stream", None),
        (sampler, "sample", "sampler.sample", _count_sample),
        (guidance, "guided_denoise", "guidance.guided_denoise", None),
        (evaluation, "mmd_with_se", "evaluation.mmd_with_se", None),
        (evaluation, "energy_mmd", "evaluation.energy_mmd", None),
        (evaluation, "cdist", "evaluation.cdist", _count_cdist),
        (objectives, "build_particles", "objectives.build_particles", None),
        (objectives, "mmd_loss", "objectives.mmd_loss", _count_mmd_loss),
        (objectives, "build_gsm", "objectives.build_gsm", None),
        (objectives, "guided_score_matching_loss", "objectives.gsm_loss", None),
        (nn, "adam_step", "nn.adam_step", None),
        (schedule, "ddim_transition", "schedule", None),
        (schedule, "noise_sample", "schedule", None),
        (trainer, "train_guidance", "trainer", _count_trainer),
        (trainer, "_probe_mmd", "trainer.probe", None),
        (checkpoints, "save_weight_fn", "checkpoints.save", _count_save),
        (checkpoints, "save_denoiser", "checkpoints.save", _count_save),
        (checkpoints, "load_weight_fn", "checkpoints.load", None),
        (checkpoints, "load_denoiser", "checkpoints.load", None),
        (denoisers, "train_neural_denoiser", "denoisers.pretrain", None),
    ]
    # looked up on the class at call time: (class, attr, span, counter, skip_inside)
    methods = [
        (denoisers.NeuralDenoiser, "denoise", "denoisers.neural",
         _count_denoise("denoisers.neural", True), ()),
        (denoisers.AnalyticDenoiser, "denoise", "denoisers.analytic",
         _count_denoise("denoisers.analytic", False), ()),
        (nn.Mlp, "backward", "nn.mlp.backward", _count_mlp_backward, ()),
        (nn.EmaState, "update", "nn.ema.update", None, ()),
        (guidance.GuidanceNet, "weight", "guidance.weight", _count_weight, ()),
        # the trainer's taped forward; GuidanceNet.weight calls it as well,
        # and that share belongs to guidance.weight
        (guidance.GuidanceNet, "weight_with_tape", "guidance.net.fwd_tape", None,
         ("guidance.weight",)),
        (guidance.GuidanceNet, "backward", "guidance.net.backward", None, ()),
        (schedule.NoiseSchedule, "alpha_sigma", "schedule", None, ()),
        (schedule.NoiseSchedule, "logsnr", "schedule", None, ()),
    ]

    modules = [m for name, m in list(sys.modules.items())
               if name == "guidefit" or name.startswith("guidefit.")]
    for owner, attr, span, counter in functions:
        original = getattr(owner, attr)
        wrapped = tracer.wrap(original, span, counter)
        for mod in modules:
            if getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapped)
    for cls, attr, span, counter, skip in methods:
        setattr(cls, attr, tracer.wrap(getattr(cls, attr), span, counter, skip))
    # The teacher's net forward (GeLU included) belongs to denoisers.neural and
    # the one inside weight evaluation to guidance.weight; gelu_elems still
    # counts every Mlp forward.
    nn.Mlp.forward = tracer.wrap(nn.Mlp.forward, "nn.mlp.forward", _count_mlp_forward,
                                 tuple(NET_FORWARD_OWNERS), count_always=_count_gelu)
