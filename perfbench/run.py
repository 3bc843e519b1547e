"""Referee benchmark for lorentz-synth: cold-process runs of ``cli.run``.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is one experiment config passed to the public entry point
``lorentz_synth.cli.run``; ``--seed`` becomes the config's ``seed``. Every
measured run is a fresh interpreter (``child.py``), because the package's
``lru_cache``s would otherwise start warm, which no command-line user sees.
Children run one at a time (a closed loop of one client), with
``LORENTZ_SYNTH_THREADS`` unset and one BLAS thread.

``--trace 0`` starts children until the next one would end after
``--seconds`` and reports the end-to-end metrics:

- ``run_norm_s``, ``run_cpu_norm_s``: the wall and process-CPU seconds of
  ``cli.run``, from entry until ``report.json`` and ``margins.csv`` are
  written, each scaled to a fixed host speed: times
  ``calibrate.REFERENCE_S`` over the child's own kernel time (``calibrate.py``
  times fixed kernels just before and after ``cli.run``). A run reports the
  geometric mean of its children's scaled times without the fastest and
  slowest tenth; over ten runs it spread about half as much as their median.
  The shared host's speed drifts by a third over tens of seconds, which moves
  raw medians of whole runs by 20-30%; the scaled ones move by a few percent.
  The raw ``run_s`` and ``run_cpu_s`` quartiles are printed as diagnostic
  lines. Each workload takes about a second, so a run holds ten or more
  children.
- ``setup_s``: median seconds from spawning the interpreter until the config
  is resolved (imports of numpy and scipy included).
- ``peak_rss_mb``: median peak resident memory of a child (``getrusage``).

``--trace 1`` runs one plain child and one traced child (see ``tracer.py``)
and reports the per-layer metrics from the traced child's spans.

Every child must exit 0 with ``passed`` true and the per-report verdicts of
``reference.json``; its ``margins.csv`` is compared with the reference bytes
as a diagnostic only. The last stdout line is one JSON object; the exit code
is 1 when a child fails its check and 2 when the package source is missing.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracer
from calibrate import REFERENCE_S

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / ".runs"
REFERENCE = HERE / "reference.json"

SETUP_SAMPLES = 5       # set-up times per --trace 0 run, measured runs included
TRIM = 0.1              # share of children dropped at each end of the scaled times
DEADLINE_S = 170.0      # one invocation must end within 180 s

# Each workload is cut to about a second of cli.run, so that one run holds
# a dozen or more cold children (see the module docstring). Why each is here:
# - lattice-tcd: nearly all of it is the lattice DP behind
#   models.time_separation, 12 calls for 2 distinct sources over 3 identical
#   separation matrices; the 4 calls from is_timelike_q_dualizable run at the
#   default resolution 257, not the requested 129 (ROADMAP item 2);
# - flat-tcd: the same transport/comparison path with closed-form separations,
#   ~8k tau_coeff calls on a warm sine cache and one dense 64x64 LP;
# - grid-deficit: all lipschitz_grid, 4 mollify -> Ricci -> cone-scan passes
#   (two p per radius) on the default kinked grid narrowed to 33 columns;
# - sine-scan: ~1000 RK4 sine scans on distinct profiles, the sine cache
#   missing where flat-tcd hits it.
WORKLOADS = {
    "lattice-tcd": {
        "command": "tcd", "model": {"kind": "desitter", "x_half": 0.5},
        "parameters": {
            "source": {"points": [[0.6, -0.075], [0.6, 0.075]]},
            "target": {"points": [[1.2, -0.075], [1.2, 0.075]]},
            "K": 1.0, "n": 2.0, "q": 0.5, "t_grid": [0.25, 0.5, 0.75],
            "tolerance": 1e-2, "resolution": 129}},
    "flat-tcd": {
        "command": "tcd",
        "parameters": {
            "source": {"uniform_on_box": [[0.2, 0.6], [-0.2, 0.2]], "per_axis": 8},
            "target": {"uniform_on_box": [[1.6, 2.0], [-0.2, 0.2]], "per_axis": 8},
            "t_grid": [0.5], "cells_resolution": 128}},
    "grid-deficit": {
        "command": "lp-deficit",
        "model": {"kind": "kinked-grid", "slope": 0.25, "t_bounds": [-2.0, 2.0],
                  "x_bounds": [0.0, 2.0], "shape": [1025, 33]},
        "parameters": {"eps_list": [0.8, 0.15]}},
    "sine-scan": {"command": "distortion", "parameters": {"pairs": 150, "tuples": 150}},
}

# the self times of these layers, without cli.run, should cover the traced run
LAYER_NAMES = tuple(layer for layer in tracer.LAYERS if layer != "cli")


def _child_env(work: Path) -> dict:
    env = dict(os.environ)
    env.pop("LORENTZ_SYNTH_THREADS", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)    # installed packages ship bytecode
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0", TMPDIR=str(work))
    return env


def run_child(config: dict, deadline: float, *, trace: bool = False,
              setup_only: bool = False) -> dict:
    """Run one child to completion; returns its timings or an ``error``.

    The caller removes ``child["work"]`` once it has read the outputs.
    """
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    job = {"src": str(SRC), "setup_only": setup_only, "trace": trace,
           "config": dict(config, output_dir=str(work / "out")),
           "result": str(work / "result.json"), "spans": str(work / "spans.json")}
    (work / "job.json").write_text(json.dumps(job))
    child = {"work": work, "out": work / "out", "spans": work / "spans.json"}
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(work / "job.json")],
            env=_child_env(work), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        child["error"] = "timed out"
        return child
    child["wall_s"] = time.monotonic() - spawned
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        child["error"] = f"exit {proc.returncode}: {tail[0]}"
        return child
    result = json.loads((work / "result.json").read_text())
    child.update(result, setup_s=result["ready"] - spawned)
    return child


def discard(child: dict) -> None:
    shutil.rmtree(child["work"], ignore_errors=True)


def read_outputs(out: Path) -> dict:
    """Verdicts and margins.csv text of one finished run."""
    report = json.loads((out / "report.json").read_text())
    margins = (out / "margins.csv").read_text()
    return {"passed": report["passed"],
            "verdict": [[r["name"], r["passed"]] for r in report["reports"]],
            "sha256": hashlib.sha256(margins.encode()).hexdigest(),
            "margins": margins}


def _margins(text: str) -> list:
    return [(row["report"], row["label"], float(row["margin"]))
            for row in csv.DictReader(io.StringIO(text))]


def check_run(child: dict, reference: dict) -> dict:
    """Correctness gate of one measured child, plus margin diagnostics."""
    if "error" in child:
        return {"ok": False, "why": child["error"]}
    got = read_outputs(child["out"])
    if not child["passed"] or not got["passed"]:
        return {"ok": False, "why": "a report failed"}
    if got["verdict"] != reference["verdict"]:
        return {"ok": False, "why": f"verdicts {got['verdict']} differ from the reference"}
    mine, theirs = _margins(got["margins"]), _margins(reference["margins"])
    drift = float("inf")
    if [m[:2] for m in mine] == [m[:2] for m in theirs]:
        drift = max((abs(a[2] - b[2]) if a[2] != b[2] else 0.0
                     for a, b in zip(mine, theirs)), default=0.0)
    return {"ok": True, "identical": got["sha256"] == reference["sha256"],
            "drift": drift}


def _probe(config: dict, deadline: float) -> tuple:
    """A set-up-only child: (check, set-up seconds or None)."""
    probe = run_child(config, deadline, setup_only=True)
    discard(probe)
    return {"ok": "error" not in probe, "why": probe.get("error")}, probe.get("setup_s")


def trimmed_geomean(values) -> float:
    """Geometric mean without the lowest and highest ``TRIM`` share."""
    logs = sorted(math.log(v) for v in values)
    cut = int(len(logs) * TRIM)
    kept = logs[cut:len(logs) - cut]
    return math.exp(sum(kept) / len(kept))


def measure(config: dict, seconds: float, reference: dict, deadline: float) -> tuple:
    """End-to-end metrics of cold children over ``seconds``.

    Returns (metrics, checks, runs); ``checks`` has one entry per child.
    """
    checks = [_probe(config, deadline)[0]]    # the warm-up writes bytecode caches
    runs, setups = [], []
    start = time.monotonic()
    while checks[-1]["ok"]:
        child = run_child(config, deadline)
        checks.append(check_run(child, reference))
        discard(child)
        if checks[-1]["ok"]:
            runs.append(child)
            setups.append(child["setup_s"])
        if time.monotonic() - start + child.get("wall_s", 0.0) > seconds:
            break
    while checks[-1]["ok"] and len(setups) < SETUP_SAMPLES:
        check, setup_s = _probe(config, deadline)
        checks.append(check)
        if setup_s is not None:
            setups.append(setup_s)
    if not runs:
        return {}, checks, runs
    metrics = {
        "run_norm_s": (trimmed_geomean(
            c["run_s"] * REFERENCE_S / c["host_s"] for c in runs), "s"),
        "run_cpu_norm_s": (trimmed_geomean(
            c["cpu_s"] * REFERENCE_S / c["host_cpu_s"] for c in runs), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(c["rss_kb"] for c in runs) / 1024.0, "MB"),
    }
    return metrics, checks, runs


def trace(config: dict, reference: dict, deadline: float) -> tuple:
    """Per-layer metrics of one traced child; (metrics, checks, runs)."""
    checks, runs = [], []
    for traced in (False, True):
        child = run_child(config, deadline, trace=traced)
        checks.append(check_run(child, reference))
        if checks[-1]["ok"]:
            runs.append(child)
            if traced:
                doc = json.loads(child["spans"].read_text())
        discard(child)
        if not checks[-1]["ok"]:
            return {}, checks, runs
    plain, traced = runs
    return layer_metrics(tracer.summarize(doc), traced["run_s"], plain["run_s"]), \
        checks, runs


def layer_metrics(spans: dict, traced_run_s: float, plain_run_s: float) -> dict:
    """Named per-layer metrics from ``tracer.summarize`` output."""
    metrics = {}
    layer_self = dict.fromkeys(LAYER_NAMES, 0.0)
    for name, row in spans.items():
        metrics[f"{name}.self_s"] = (row["self_s"], "s")
        metrics[f"{name}.calls"] = (row["calls"], "count")
        layer = name.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += row["self_s"]
    for layer, self_s in layer_self.items():
        metrics[f"{layer}.self_s"] = (self_s, "s")
    sep = spans["models.time_separation"]
    metrics["models.time_separation.calls_per_source"] = (
        sep["calls"] / max(1, len(sep["keys"])), "calls/source")
    sine = spans["distortion.generalized_sine"]
    metrics["distortion.generalized_sine.distinct_profiles"] = (len(sine["keys"]), "count")
    metrics["distortion.generalized_sine.reuse_ratio"] = (
        1.0 - len(sine["keys"]) / sine["calls"] if sine["calls"] else 0.0, "ratio")
    metrics["trace.run_s"] = (traced_run_s, "s")
    metrics["trace.overhead_s"] = (traced_run_s - plain_run_s, "s")
    metrics["trace.covered_share"] = (sum(layer_self.values()) / traced_run_s, "ratio")
    return metrics


def _quartiles(values: list) -> str:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return f"median {q[1]!r} quartiles {q[0]!r} {q[2]!r} over {len(values)}"


def _diagnostics(checks: list, runs: list) -> list:
    versions = runs[0]["versions"] if runs else {}
    measured = [c for c in checks if "identical" in c]
    lines = [
        "machine: cores={} python={} numpy={} scipy={} blas_threads=1".format(
            len(os.sched_getaffinity(0)), versions.get("python"),
            versions.get("numpy"), versions.get("scipy")),
        f"children {len(checks)}, measured {len(runs)}",
        f"failed_runs {sum(not c['ok'] for c in checks) / len(checks)!r} share",
    ]
    if runs:
        for key, name in (("run_s", "run_s"), ("cpu_s", "run_cpu_s"), ("host_s", "host_s")):
            lines.append(f"{name} samples: {_quartiles([c[key] for c in runs])} s")
        lines.append("run_s children: " + json.dumps([c["run_s"] for c in runs]))
        lines.append("host_s children: " + json.dumps([c["host_s"] for c in runs]))
    if measured:
        lines.append("margins_identical {!r} share".format(
            sum(c["identical"] for c in measured) / len(measured)))
        lines.append("margin_drift_max {!r} abs".format(max(c["drift"] for c in measured)))
    return lines + [f"failure: {c['why']}" for c in checks if not c["ok"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated benchmark raises SystemExit, and subprocess.run then kills
    # and reaps the running child before the exception propagates
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "lorentz_synth" / "cli.py").is_file():
        print(f"no lorentz_synth source under {SRC}; run from the root of a "
              "full checkout", file=sys.stderr)
        return 2
    reference = json.loads(REFERENCE.read_text())[args.workload]
    config = dict(WORKLOADS[args.workload], seed=args.seed)
    if args.trace:
        metrics, checks, runs = trace(config, reference, deadline)
    else:
        metrics, checks, runs = measure(config, args.seconds, reference, deadline)
    try:
        WORK.rmdir()
    except OSError:
        pass
    correct = bool(metrics) and all(c["ok"] for c in checks)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for line in _diagnostics(checks, runs):
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": len(checks),
        "failed": sum(not c["ok"] for c in checks),
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
