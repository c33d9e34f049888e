"""guidefit benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload train-neural --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the checkout is found from this file's
path. Every run of the workload's CLI command happens in a fresh worker
process (worker.py), so a run's peak resident memory is its own.

--trace 0 repeats the run until --seconds of timed command have passed and
reports the end-to-end metrics; setup_s and wall_s are scaled to a reference
machine speed measured by a calibration loop in each worker. --trace 1 makes one untraced run and two
traced ones, and reports the per-layer metrics of the first traced run;
the second must repeat its exact counts. In both modes every run's artifacts
are checked for completeness and finiteness, must be byte-identical to each
other, and must match what an earlier invocation of the same code at the same
seed in this checkout wrote. The last line of standard output is the result
JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(ROOT, ".perfbench-out")

# BLAS threads of every worker process, chosen by measurement (see NOTES.md).
BLAS_THREADS = 1
# Set-up runs per --trace 0 invocation; setup_s is their median.
SETUP_SAMPLES = 3
# setup_s and wall_s are reported at the machine speed at which the worker's
# calibration loop takes this long (see NOTES.md, "Machine drift").
CAL_REF_S = 0.2
# Every worker must end by this many seconds after the start of the
# invocation, which has to print its result within 180 s (see NOTES.md).
DEADLINE_S = 170.0
# A worker after the first starts only if the longest earlier one, times this
# margin, fits before DEADLINE_S.
FIT_MARGIN = 1.3

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
              "quality_mmd": "mmd", "ok_ratio": "ratio"}


def _environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "cpu": cpu,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS, "loadavg_start": list(os.getloadavg())}


def code_id() -> str:
    """Digest of the code under test: every file in src/, configs/ and perfbench/."""
    h = hashlib.sha256()
    for top in ("src", "configs", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames
                                 if d != "__pycache__" and not d.endswith(".egg-info"))
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()[:16]


class Session:
    """The worker processes of one benchmark invocation."""

    def __init__(self, workload: str, seed: int, work: str, inputs: dict, start: float):
        self.workload, self.seed, self.work, self.inputs = workload, seed, work, inputs
        self.start = start
        self.env = dict(os.environ)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(BLAS_THREADS)
        self.code = code_id()
        self.results = []  # one per worker started
        self.errors = []

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.start)

    def fits(self, *earlier) -> bool:
        """Whether a worker as long as the longest of earlier fits before DEADLINE_S."""
        return max(r["elapsed_s"] for r in earlier) * FIT_MARGIN < self.remaining()

    def worker(self, tag: str, trace=False, quality=False, setup_only=False) -> dict:
        """Start one worker, wait for it, and return its result.

        The result has failed=True if the worker failed, and elapsed_s, the
        worker's wall time seen from here.
        """
        out = os.path.join(self.work, tag)
        os.makedirs(out)
        spec = {"workload": self.workload, "seed": self.seed, "root": ROOT, "out": out,
                "inputs": self.inputs, "trace": trace, "quality": quality,
                "setup_only": setup_only}
        spec_path = os.path.join(out, "spec.json")
        with open(spec_path, "w") as fh:
            json.dump(spec, fh)
        result = {"tag": tag, "failed": False}
        self.results.append(result)
        started = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), spec_path],
                                  env=self.env, cwd=ROOT, timeout=max(self.remaining(), 1.0),
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        except subprocess.TimeoutExpired:
            proc = None
        result["elapsed_s"] = time.perf_counter() - started
        if proc is None:
            self.fail(result, f"timed out {DEADLINE_S:.0f} s after the invocation started")
        elif proc.returncode != 0:
            self.fail(result, f"worker exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
        else:
            with open(os.path.join(out, "result.json")) as fh:
                result.update(json.load(fh))
            if result["errors"]:
                self.fail(result, "; ".join(result["errors"]))
        return result

    def fail(self, result: dict, message: str):
        result["failed"] = True
        self.errors.append(f"{result['tag']}: {message}")

    def same_digests(self, results):
        """Fail each run whose artifacts differ from the reference digests.

        The reference is what an earlier invocation of the same code stored
        for this seed, or else the digests most complete runs agree on.
        Set-up-only runs are compared on the artifacts they write.
        """
        ok = [r for r in results if not r["failed"]]
        full = [r for r in ok if len(r["digests"]) == len(workloads.artifacts(self.workload))]
        if not full:
            return
        ref = json.loads(statistics.mode(json.dumps(r["digests"], sort_keys=True)
                                         for r in full))
        ref, source = self.stored("digests", ref)
        for r in ok:
            diff = sorted(k for k, v in r["digests"].items() if ref.get(k) != v)
            if diff:
                self.fail(r, f"artifacts differ from {source}: {diff}")

    def stored(self, kind: str, value: dict):
        """The value an earlier invocation of this code stored for this seed,
        and where it came from; stores value if there is none yet.

        The store is keyed by code_id(), so other code in the same checkout
        keeps its own and may change artifact bytes and counts freely.
        """
        path = os.path.join(OUT, kind, self.code, f"{self.workload}-{self.seed}.json")
        if os.path.exists(path):
            with open(path) as fh:
                return json.load(fh), f"an earlier invocation of this code at seed {self.seed}"
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(value, fh, indent=1, sort_keys=True)
        return value, "the other runs"


def measure(session: Session, seconds: float) -> dict:
    """Timed runs until seconds of timed command, or until the next would not
    fit before DEADLINE_S; then set-up-only runs up to SETUP_SAMPLES."""
    runs, timed = [], 0.0
    while timed < seconds and (not runs or session.fits(*runs)):
        r = session.worker(f"run{len(runs)}", quality=not runs)
        runs.append(r)
        if r["failed"]:
            break
        timed += r["wall_s"]
    setups = []
    while len(runs) + len(setups) < SETUP_SAMPLES and session.fits(*(setups or runs)):
        setups.append(session.worker(f"setup{len(setups)}", setup_only=True))
    session.same_digests(runs + setups)
    good = [r for r in runs if not r["failed"]]
    set_up = [r for r in good + setups if not r["failed"]]
    if not good:
        return {}
    # set-up is scaled by the calibration right after it, the timed command by
    # the mean of the calibrations before and after it
    metrics = {"setup_s": statistics.median(r["setup_s"] * CAL_REF_S / r["cal_s"][0]
                                            for r in set_up),
               "wall_s": statistics.median(r["wall_s"] * CAL_REF_S / statistics.mean(r["cal_s"])
                                           for r in good),
               "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in good),
               "raw_setup_s": statistics.median(r["setup_s"] for r in set_up),
               "raw_wall_s": statistics.median(r["wall_s"] for r in good),
               "cal_s": statistics.median(c for r in set_up for c in r["cal_s"]),
               "samples": len(good), "setup_samples": len(set_up)}
    if not runs[0]["failed"]:
        metrics["quality_mmd"] = runs[0]["quality_mmd"]
    return metrics


def measure_traced(session: Session) -> dict:
    """One traced run, one untraced, and a second traced one; the per-layer
    metrics are the first traced run's."""
    runs = []
    for tag, trace in (("traced0", True), ("untraced", False), ("traced1", True)):
        if runs and not session.fits(*runs):
            session.errors.append(f"{tag} not started: it would not end within {DEADLINE_S:.0f} s")
            return {}
        runs.append(session.worker(tag, trace=trace))
    first, plain, second = runs
    session.same_digests(runs)
    if any(r["failed"] for r in runs):
        return {}
    counts = {k: first["layers"][k] for k in tracing.EXACT}
    diff = sorted(k for k in counts if counts[k] != second["layers"][k])
    if diff:
        session.fail(second, f"exact counts differ from traced0's: {diff}")
    stored, source = session.stored("counts", counts)
    diff = sorted(k for k in counts if counts[k] != stored.get(k))
    if diff:
        for r in (first, second):
            session.fail(r, f"exact counts differ from {source}: {diff}")
    if first["failed"]:
        return {}
    metrics = dict(first["layers"])
    metrics["trace.untraced_wall_s"] = plain["wall_s"]
    metrics["trace.overhead_s"] = first["wall_s"] - plain["wall_s"]
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = time.perf_counter()

    needed = [os.path.join(ROOT, "src", "guidefit", "cli.py"), os.path.join(ROOT, "configs")]
    absent = [p for p in needed if not os.path.exists(p)]
    if absent:
        print(f"error: not a guidefit checkout, missing {absent}", file=sys.stderr)
        return 2

    env = _environment()
    work = os.path.join(OUT, f"{args.workload}-{args.seed}-t{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    with open(os.path.join(work, "env.json"), "w") as fh:
        json.dump(env, fh, indent=1, sort_keys=True)
    print("# env " + json.dumps(env, sort_keys=True))

    inputs = workloads.make_inputs(args.workload, ROOT, work)
    session = Session(args.workload, args.seed, work, inputs, start)
    if args.trace:
        raw = measure_traced(session)
        names = [name for name, _ in tracing.PER_LAYER]
        units = dict(tracing.PER_LAYER)
    else:
        raw = measure(session, args.seconds)
        names, units = list(END_TO_END), END_TO_END
    attempted = len(session.results)
    failed = sum(r["failed"] for r in session.results)
    if raw and not args.trace:
        raw["ok_ratio"] = (attempted - failed) / attempted
        print(f"# {raw['samples']} timed runs, {raw['setup_samples']} set-ups; unscaled "
              f"medians wall {raw['raw_wall_s']:.4f} s, set-up {raw['raw_setup_s']:.4f} s; "
              f"calibration {raw['cal_s']:.4f} s against {CAL_REF_S} s")
    for err in session.errors:
        print(f"# check failed: {err}")

    metrics = {name: {"value": raw[name], "unit": units[name]} for name in names if name in raw}
    result = {"correct": not session.errors and len(metrics) == len(names),
              "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
