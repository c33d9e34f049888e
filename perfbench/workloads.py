"""The benchmark's workloads: inputs made from a seed, CLI commands, output checks.

Each workload is one CLI command timed in a fresh process, after set-up
commands that make the checkpoints it reads. The run's seed reaches the
commands through the CLI's --seed flag and picks everything guidance
training draws. Two things stay fixed so that quality_mmd compares the
guidance a seed trains rather than sampling noise:

  * pretrain-denoiser runs at the config's own seed: the denoiser is the
    workload's given pretrained model;
  * evaluation runs at EVAL_SEED: the sweep command, and the sample and data
    draws that score a trained checkpoint. Common random numbers make the
    score vary with the checkpoint only.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

# Training iterations of the timed train-guidance runs. checkpoint_every
# stays at the shipped 100, so train-neural makes one probe per 100 steps
# as the shipped config does.
NEURAL_ITERATIONS = 100
GSM_ITERATIONS = 400
# Short training in sweep-analytic's set-up that makes the "learned" row's
# checkpoint.
SWEEP_SETUP_ITERATIONS = 20
EVAL_SEED = 0

# workload -> the shipped config it starts from
WORKLOADS = {"train-neural": "under_trained.json", "train-gsm": "guided_sm.json",
             "sweep-analytic": "well_trained.json"}


def make_inputs(workload: str, root: str, work: str, tiny: bool = False) -> dict:
    """Write the workload's config files into work; return their paths.

    tiny shrinks every size so that a run takes about a second; the self-test
    uses it to reach every layer cheaply.
    """
    with open(os.path.join(root, "configs", WORKLOADS[workload])) as fh:
        base = json.load(fh)
    paths = {}

    def write(name, data):
        paths[name] = os.path.join(work, name + ".json")
        with open(paths[name], "w") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)

    if tiny:
        base["sample"] = {"steps": 3, "count": 64}
        base["train"].update(probe_size=32, batch_size=8, particles=4)
        base.setdefault("eval", {})["resamples"] = 2
        base.setdefault("guidance", {}).update(embed_hidden=8, embed_dim=8, trunk_hidden=8)
        if base["denoiser"]["kind"] == "neural":
            base["denoiser"]["train"]["iterations"] = 3
    iterations = {"train-neural": NEURAL_ITERATIONS, "train-gsm": GSM_ITERATIONS,
                  "sweep-analytic": SWEEP_SETUP_ITERATIONS}[workload]
    train = dict(base["train"], iterations=3 if tiny else iterations)
    if workload == "sweep-analytic":
        write("setup", dict(base, train=train))
    else:
        base["train"] = train
    write("config", base)
    return paths


def commands(workload: str, inputs: dict, out: str, seed: int):
    """(set-up argv list, timed argv) for one run writing into out."""
    seeded = ["--seed", str(seed), "--quiet"]
    cfg = inputs["config"]
    setup = [["pretrain-denoiser", "--config", cfg, "--out", out, "--quiet"]]
    if workload == "sweep-analytic":
        ckpt = os.path.join(out, "ckpt")
        setup.append(["train-guidance", "--config", inputs["setup"], "--out", ckpt,
                      "--denoiser", os.path.join(out, "denoiser.json")] + seeded)
        timed = ["sweep", "--config", cfg, "--out", out,
                 "--guidance", os.path.join(ckpt, "guidance.json"),
                 "--seed", str(EVAL_SEED), "--quiet"]
    else:
        timed = ["train-guidance", "--config", cfg, "--out", out] + seeded
    return setup, timed


def artifacts(workload: str):
    """Files every run of the workload writes, relative to its output directory."""
    if workload == "sweep-analytic":
        return ["denoiser.json", "ckpt/guidance.json", "ckpt/train_record.csv",
                "sweep.json", "sweep.csv"]
    return ["denoiser.json", "guidance.json", "train_record.csv"]


def digests(workload: str, out: str) -> dict:
    result = {}
    for rel in artifacts(workload):
        path = os.path.join(out, rel)
        if os.path.exists(path):
            with open(path, "rb") as fh:
                result[rel] = hashlib.sha256(fh.read()).hexdigest()
    return result


# ------------------------------------------------------------- output checks

def _finite(values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _check_checkpoint(path, expect_iterations=None):
    with open(path) as fh:
        payload = json.load(fh)
    errors = []
    params = payload.get("params")
    if not isinstance(params, list) or not _finite(params):
        errors.append(f"{path}: params missing or not finite")
        return errors
    arch = payload.get("architecture", {})
    nets = [arch[k] for k in ("net", "embed", "trunk") if k in arch]
    need = sum(a * b + b for net in nets for a, b in zip(net["sizes"][:-1], net["sizes"][1:]))
    if len(params) != need:
        errors.append(f"{path}: {len(params)} params, architecture needs {need}")
    meta = payload.get("metadata", {})
    if expect_iterations is not None and meta.get("iterations") != expect_iterations:
        errors.append(f"{path}: metadata iterations {meta.get('iterations')!r}, "
                      f"expected {expect_iterations}")
    return errors


def _check_record(path, iterations):
    with open(path) as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    if not rows or rows[0] != ["iter", "loss", "reward", "grad_norm", "mean_abs_omega"]:
        return [f"{path}: bad header"]
    body = rows[1:]
    if [int(r[0]) for r in body] != list(range(iterations)):
        return [f"{path}: {len(body)} rows, expected iterations 0..{iterations - 1}"]
    values = [float(v) for r in body for v in (r[1], r[3], r[4])]
    values += [float(r[2]) for r in body if r[2] != ""]
    return [] if _finite(values) else [f"{path}: non-finite value"]


def _check_sweep(out, config):
    with open(os.path.join(out, "sweep.json")) as fh:
        report = json.load(fh)
    grid = config.get("eval", {}).get("omega_grid", [0.0, 0.5, 1.0, 2.0, 4.0])
    labels = [f"omega={float(g):g}" for g in grid] + ["learned"]
    rows = report.get("rows", [])
    errors = []
    if [r.get("label") for r in rows] != labels:
        errors.append(f"sweep.json: labels {[r.get('label') for r in rows]}, expected {labels}")
    count = config.get("sample", {}).get("count")
    for r in rows:
        if not _finite([r.get("mmd"), r.get("se")]) or r.get("count") != count:
            errors.append(f"sweep.json: bad row {r.get('label')!r}")
    with open(os.path.join(out, "sweep.csv")) as fh:
        csv_rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    if [r[0] for r in csv_rows[1:]] != labels:
        errors.append("sweep.csv: rows do not match sweep.json")
    return errors


def check(workload: str, inputs: dict, out: str) -> list:
    """Error strings for incomplete or non-finite artifacts; empty when all pass."""
    missing = [rel for rel in artifacts(workload) if not os.path.exists(os.path.join(out, rel))]
    if missing:
        return [f"missing artifacts {missing}"]
    with open(inputs["config"]) as fh:
        config = json.load(fh)
    errors = _check_checkpoint(os.path.join(out, "denoiser.json"))
    if workload == "sweep-analytic":
        with open(inputs["setup"]) as fh:
            iterations = json.load(fh)["train"]["iterations"]
        errors += _check_checkpoint(os.path.join(out, "ckpt", "guidance.json"), iterations)
        errors += _check_record(os.path.join(out, "ckpt", "train_record.csv"), iterations)
        errors += _check_sweep(out, config)
    else:
        iterations = config["train"]["iterations"]
        errors += _check_checkpoint(os.path.join(out, "guidance.json"), iterations)
        errors += _check_record(os.path.join(out, "train_record.csv"), iterations)
    return errors
