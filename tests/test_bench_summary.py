"""scripts/bench_summary.py folds saved perfbench stdout into one BENCH file."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_summary.py"
spec = importlib.util.spec_from_file_location("bench_summary", SCRIPT)
bench_summary = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_summary)


def run_text(workload, seed, trace, metrics, correct=True):
    """The tail of one perfbench/run.py stdout."""
    values = {name: {"value": v, "unit": "s"} for name, v in metrics.items()}
    return "\n".join([
        f"workload {workload} seed {seed} trace {trace}",
        "machine: cores=2 python=3.11.7 numpy=2.4.6 scipy=1.17.1 blas_threads=1",
        "children 3, measured 2",
        f"margins_identical {1.0 if correct else 0.5!r} share",
        *(f"{name} {v!r} s" for name, v in metrics.items()),
        json.dumps({"correct": correct, "attempted": 3, "failed": 0 if correct else 1,
                    "metrics": values})])


def test_fold_gives_medians_quartiles_and_the_machine(tmp_path):
    files = []
    for k, (side, value) in enumerate([("parent", 1.0), ("change", 0.5), ("parent", 3.0),
                                       ("change", 0.25), ("parent", 2.0), ("change", 0.75)]):
        path = tmp_path / f"{k}.txt"
        path.write_text(run_text("flat-tcd", 10 + k, 0, {"run_norm_s": value}))
        files.append(f"{side}={path}")
    traced = tmp_path / "trace.txt"
    traced.write_text(run_text("flat-tcd", 99, 1, {"distortion.tau_coeff.calls": 382}))
    out = tmp_path / "BENCH.json"
    assert bench_summary.main([str(out), *files, f"change={traced}", "--note", "n"]) == 0
    doc = json.loads(out.read_text())
    assert doc["machine"] == {"cores": "2", "python": "3.11.7", "numpy": "2.4.6",
                              "scipy": "1.17.1", "blas_threads": "1"}
    assert doc["note"] == "n"
    parent = doc["workloads"]["flat-tcd"]["parent"]
    assert parent["runs"] == 3 and parent["seeds"] == [10, 12, 14]
    assert parent["metrics"]["run_norm_s"]["values"] == [1.0, 3.0, 2.0]
    assert parent["metrics"]["run_norm_s"]["median"] == 2.0
    change = doc["workloads"]["flat-tcd"]["change"]
    assert change["metrics"]["run_norm_s"]["median"] == 0.5
    assert change["trace"] == {"distortion.tau_coeff.calls": 382}
    assert change["correct"] and change["failed_share"] == 0.0
    assert change["margins_identical_min"] == 1.0


def test_untagged_input_is_refused(tmp_path):
    with pytest.raises(SystemExit):
        bench_summary.main([str(tmp_path / "out.json"), str(tmp_path / "run.txt")])
