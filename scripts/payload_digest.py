"""Digests of every deterministic output of the command-line runs.

Runs ``lorentz-synth suite --quick`` and every other subcommand's default
configuration, plain and with ``--quick`` (seed 0), one fresh interpreter
each, into a temporary directory, and prints one sha256 per output:

* the ``report.json`` payload, without the ``started``/``finished`` stamps;
* ``margins.csv``;
* each plot CSV and ``plots/manifest.json``;

plus each run's exit status. Two source trees whose outputs agree byte for
byte print the same lines, so a refactor is checked with

    python3 scripts/payload_digest.py > before.txt    # on the old tree
    python3 scripts/payload_digest.py > after.txt     # on the new tree
    diff before.txt after.txt

The package is imported from the ``src`` directory next to this script.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def runs():
    """(name, cli arguments) for the quick suite and each default run, plain
    and quick."""
    sys.path.insert(0, str(SRC))
    from lorentz_synth.cli import COMMANDS
    yield "suite-quick", ["suite", "--quick"]
    for name in COMMANDS:
        if name != "suite":
            yield name, [name]
            yield f"{name}-quick", [name, "--quick"]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(out: Path):
    """(file, digest) for every deterministic output in ``out``."""
    record = json.loads((out / "report.json").read_text())
    for stamp in ("started", "finished"):
        record.pop(stamp)
    payload = json.dumps(record, sort_keys=True, separators=(",", ":"))
    yield "report.json:payload", sha256(payload.encode())
    yield "margins.csv", sha256((out / "margins.csv").read_bytes())
    for path in sorted((out / "plots").iterdir()):
        yield f"plots/{path.name}", sha256(path.read_bytes())


def main() -> int:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    with tempfile.TemporaryDirectory() as tmp:
        for name, args in runs():
            out = Path(tmp) / name
            proc = subprocess.run(
                [sys.executable, "-m", "lorentz_synth.cli", *args,
                 "--seed", "0", "--out", str(out)],
                env=env, cwd=tmp, capture_output=True, text=True)
            print(f"{name} exit {proc.returncode}", flush=True)
            if not (out / "report.json").is_file():
                print(proc.stderr, file=sys.stderr)
                continue
            for file, digest in digests(out):
                print(f"{digest}  {name}/{file}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
