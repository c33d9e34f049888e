"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks the self-time arithmetic on a synthetic span tree, the metric names
against BENCHMARK.json, that a run with differing artifacts alone is marked
failed, and then runs every workload at a tiny size: once untraced and twice
traced. It requires every span name of the layer table to appear, no
nn.mlp.forward span inside the layers that own their net forward, the traced
and untraced artifacts to be byte-identical, and the exact counts of the two
traced runs to agree. Exits 0 when all pass.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

import run
import tracing
import workloads


def check_self_times():
    # root [0, 10] holds a [1, 3] and b [3, 5], which touch end to start, and
    # the bookkeeping sibling [5, 5.5]; a holds a1 [1.5, 2].
    spans = [["root", 0.0, 10.0, -1], ["a", 1.0, 3.0, 0], ["a1", 1.5, 2.0, 1],
             ["b", 3.0, 5.0, 0], [tracing.BOOKKEEPING, 5.0, 5.5, 0], ["a", 6.0, 7.0, 0]]
    st = tracing.self_times(spans)
    want = {"root": 4.5, "a": 2.5, "a1": 0.5, "b": 2.0, tracing.BOOKKEEPING: 0.5}
    for name, value in want.items():
        assert abs(st[name][2] - value) < 1e-12, (name, st[name], value)
    assert st["a"][0] == 2 and abs(st["a"][1] - 3.0) < 1e-12
    assert abs(sum(v[2] for v in st.values()) - 10.0) < 1e-12
    # a sub-range sees only its own spans: set-up before the timed root
    later = tracing.self_times(spans, 3)
    assert set(later) == {"b", tracing.BOOKKEEPING, "a"}, later


def check_names():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    per_layer = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    assert per_layer == list(tracing.PER_LAYER), "BENCHMARK.json per_layer != tracing.PER_LAYER"
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    assert end_to_end == run.END_TO_END, "BENCHMARK.json end_to_end != run.END_TO_END"
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(workloads.WORKLOADS)
    names = [n for n, _ in per_layer] + list(end_to_end)
    assert len(names) == len(set(names)), "metric names repeat"
    bad = [n for n in names if not tracing.METRIC_NAME.fullmatch(n)]
    assert not bad, f"metric names outside [A-Za-z0-9_.-]+: {bad}"


def check_digest_failures():
    workload = "train-gsm"
    work = os.path.join(run.OUT, "selftest-digests")
    shutil.rmtree(work, ignore_errors=True)
    session = run.Session(workload, -1, work, {}, time.perf_counter())
    store = os.path.join(run.OUT, "digests", session.code, f"{workload}-{session.seed}.json")
    if os.path.exists(store):
        os.remove(store)
    good = {name: "a" for name in workloads.artifacts(workload)}
    bad = dict(good, **{workloads.artifacts(workload)[0]: "b"})
    runs = [{"tag": f"run{i}", "failed": False, "digests": d}
            for i, d in enumerate((good, bad, good))]
    runs.append({"tag": "setup0", "failed": False, "digests": {}})
    session.results = runs
    session.same_digests(runs)
    assert [r["failed"] for r in runs] == [False, True, False, False], runs
    # a later invocation of the same code is held to the stored digests
    again = [{"tag": "run0", "failed": False, "digests": bad}]
    session.same_digests(again)
    assert again[0]["failed"], again
    os.remove(store)


def check_tiny_workloads():
    seen = set()
    for workload in workloads.WORKLOADS:
        work = os.path.join(run.OUT, f"selftest-{workload}")
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        inputs = workloads.make_inputs(workload, run.ROOT, work, tiny=True)
        session = run.Session(workload, 0, work, inputs, time.perf_counter())
        plain = session.worker("untraced")
        first = session.worker("traced0", trace=True)
        second = session.worker("traced1", trace=True)
        assert not session.errors, session.errors
        assert plain["digests"] == first["digests"] == second["digests"], \
            f"{workload}: traced artifacts differ from untraced ones"
        diff = [k for k in tracing.EXACT if first["layers"][k] != second["layers"][k]]
        assert not diff, f"{workload}: exact counts differ between traced runs: {diff}"
        layers = first["layers"]
        unattributed = layers["trace.unattributed_s"]
        assert 0.0 <= unattributed < 0.01 * layers["trace.wall_s"] + 1e-3, \
            f"{workload}: self times leave {unattributed} s unattributed"
        with open(os.path.join(work, "traced0", "spans.json")) as fh:
            spans = json.load(fh)["spans"]
        inside = sorted({spans[p][0] for name, _, _, p in spans
                         if name == "nn.mlp.forward" and p >= 0} & tracing.NET_FORWARD_OWNERS)
        assert not inside, f"{workload}: nn.mlp.forward recorded inside {inside}"
        seen.update(first["span_names"])
        print(f"ok {workload}: {len(first['span_names'])} span names, "
              f"{unattributed * 1e3:.3f} ms unattributed")
    missing = sorted((set(tracing.TABLE_SPANS) | {"denoisers.pretrain"}) - seen)
    assert not missing, f"spans never recorded: {missing}"


def main() -> int:
    check_self_times()
    print("ok self-time arithmetic")
    check_names()
    print("ok metric names")
    check_digest_failures()
    print("ok runs with differing artifacts fail")
    check_tiny_workloads()
    print("ok every layer span recorded")
    return 0


if __name__ == "__main__":
    sys.exit(main())
