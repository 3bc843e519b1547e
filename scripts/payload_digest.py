"""Digests of every deterministic output of the command-line runs.

Runs ``lorentz-synth suite --quick`` and every other subcommand's default
configuration, plain and with ``--quick`` (seed 0), one fresh interpreter
each, into a temporary directory, and prints one sha256 per output:

* the ``report.json`` payload, without the ``started``/``finished`` stamps;
* ``margins.csv``;
* each plot CSV and ``plots/manifest.json``;

plus each run's exit status, and one ``sigma-tau-probe`` line: the sha256 of
sigma, tau and the sine solves of fixed curvature ramps (see
:func:`sigma_tau_probe`), whose bits no output shows. Two source trees whose
outputs agree byte for byte print the same lines, so a refactor is checked
with

    python3 scripts/payload_digest.py > before.txt    # on the old tree
    python3 scripts/payload_digest.py > after.txt     # on the new tree
    diff before.txt after.txt

The package is imported from the ``src`` directory next to this script, so a
copy of this script placed in another checkout's ``scripts`` directory
digests that checkout with the same lines.
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


def sigma_tau_probe() -> str:
    """sha256 of sigma, tau (N = 3), the sine's values and first zero and the
    fundamental solution w over 40 two-sample ramps with curvatures in
    [-8, 8], theta on the prefix scan (0.05, 0.37, 0.81 L) and on the full
    scan (0.9995 L, L). The runs' sigma and tau margins are max(0, .) of
    comparisons that never turn positive, so no output file moves with
    their bits; this line does."""
    sys.path.insert(0, str(SRC))
    import numpy as np
    from lorentz_synth.distortion import (KappaProfile, generalized_sine, sigma_coeff,
                                          sine_fundamental, tau_coeff)
    digest = hashlib.sha256()
    for k0 in (-8.0, -3.0, 0.0, 2.5, 8.0):
        for k1 in (-8.0, -0.5, 4.0, 8.0):
            for length in (0.7, 2.9):
                profile = KappaProfile.from_samples([[0.0, k0], [length, k1]])
                sine = generalized_sine(profile)
                values = [sine.first_zero]
                for frac in (0.05, 0.37, 0.81, 0.9995, 1.0):
                    for t in (0.0, 0.3, 0.75, 1.0):
                        values += [sigma_coeff(profile, t, frac * length),
                                   tau_coeff(profile, 3.0, t, frac * length)]
                digest.update(np.array(values).tobytes())
                digest.update(sine.values.tobytes())
                digest.update(sine_fundamental(profile).w.tobytes())
    return digest.hexdigest()


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
    print(f"{sigma_tau_probe()}  sigma-tau-probe", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
