"""Fold repeated ``perfbench/run.py`` runs into one ``BENCH_<n>.json``.

Each input is the saved stdout of one ``perfbench/run.py`` run, tagged with
the side it measured (for example the parent commit and the change):

    python3 perfbench/run.py --workload flat-tcd --seed 1 --seconds 30 > parent-1.txt
    ...
    python3 scripts/bench_summary.py BENCH_8.json parent=parent-1.txt change=change-1.txt ...

For every workload and side the output records, per end-to-end metric named
in ``BENCHMARK.json``, the median and quartiles over the runs and every
run's value in input order (so alternating runs can be paired), plus the
seeds, the share of failed children, whether every run was correct and
the lowest ``margins_identical`` share of any run. ``--trace 1`` runs (told
by their header line) contribute their per-layer metrics instead, each the
median over that side's traced runs. The machine note (CPU count, Python,
numpy and scipy versions) is read from the runs' own ``machine:`` lines.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_run(text: str) -> dict:
    """Workload, seed, machine fields and the final JSON object of one run."""
    lines = text.strip().splitlines()
    head = next(line.split() for line in lines if line.startswith("workload "))
    machine = next((line for line in lines if line.startswith("machine: ")), "")
    fields = dict(part.split("=", 1) for part in machine.split()[1:])
    identical = next((float(line.split()[1]) for line in lines
                      if line.startswith("margins_identical ")), None)
    return {"workload": head[1], "seed": int(head[3]), "trace": head[5] == "1",
            "machine": fields, "margins_identical": identical,
            "result": json.loads(lines[-1])}


def summary(values: list) -> dict:
    """Median and quartiles (statistics.quantiles, exclusive) of ``values``."""
    q1, median, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                      else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def fold(tagged_runs: list, end_to_end: list) -> dict:
    """The BENCH document for ``(side, run)`` pairs."""
    machines, workloads = [], {}
    for side, run in tagged_runs:
        if run["machine"] not in machines:
            machines.append(run["machine"])
        entry = workloads.setdefault(run["workload"], {}).setdefault(
            side, {"seeds": [], "correct": True, "attempted": 0, "failed": 0,
                   "identical": [], "metrics": {}, "trace": {}})
        result = run["result"]
        entry["correct"] = entry["correct"] and result["correct"]
        if run["margins_identical"] is not None:
            entry["identical"].append(run["margins_identical"])
        entry["attempted"] += result["attempted"]
        entry["failed"] += result["failed"]
        if run["trace"]:
            for name, metric in result["metrics"].items():
                entry["trace"].setdefault(name, []).append(metric["value"])
            continue
        entry["seeds"].append(run["seed"])
        for name, unit in end_to_end:
            metric = result["metrics"].get(name)
            if metric is not None:
                entry["metrics"].setdefault(name, {"unit": unit, "values": []})
                entry["metrics"][name]["values"].append(metric["value"])
    for sides in workloads.values():
        for entry in sides.values():
            entry["failed_share"] = entry.pop("failed") / max(1, entry.pop("attempted"))
            entry["runs"] = len(entry["seeds"])
            identical = entry.pop("identical")
            entry["margins_identical_min"] = min(identical) if identical else None
            for name, metric in entry["metrics"].items():
                entry["metrics"][name] = {"unit": metric["unit"],
                                          **summary(metric["values"])}
            entry["trace"] = {name: statistics.median(values)
                              for name, values in entry["trace"].items()}
    return {"machine": machines[0] if len(machines) == 1 else machines,
            "workloads": workloads}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="the BENCH_<n>.json to write")
    parser.add_argument("runs", nargs="+", metavar="SIDE=FILE",
                        help="saved stdout of one perfbench run, tagged with its side")
    parser.add_argument("--note", default="", help="free text stored with the results")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    tagged = []
    for item in args.runs:
        side, sep, path = item.partition("=")
        if not sep or not side:
            parser.error(f"expected SIDE=FILE, got {item!r}")
        tagged.append((side, parse_run(Path(path).read_text())))
    doc = fold(tagged, end_to_end)
    if args.note:
        doc["note"] = args.note
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
