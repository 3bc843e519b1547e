"""Write reference.json: each workload's verdicts and margins.csv bytes.

Usage, from the root of a checkout of the commit that defines the reference:

    python3 perfbench/make_reference.py

Each workload runs cold, as in ``run.py``, with seeds 0 and 1. The reference
is taken only when both seeds pass with the same verdicts and the same
margins.csv bytes, because ``run.py`` checks every seed against it.
"""

from __future__ import annotations

import json
import sys
import time

from run import REFERENCE, WORKLOADS, discard, read_outputs, run_child


def _outputs(workload: str, seed: int) -> dict:
    child = run_child(dict(WORKLOADS[workload], seed=seed), time.monotonic() + 600.0)
    try:
        if "error" in child:
            raise SystemExit(f"{workload} seed {seed}: {child['error']}")
        return read_outputs(child["out"])
    finally:
        discard(child)


def main() -> int:
    reference = {}
    for workload in WORKLOADS:
        first, second = _outputs(workload, 0), _outputs(workload, 1)
        if not first["passed"] or first != second:
            raise SystemExit(f"{workload}: a run failed or its outputs depend on the seed")
        reference[workload] = {key: first[key] for key in ("verdict", "sha256", "margins")}
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
