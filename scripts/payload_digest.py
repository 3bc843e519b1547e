"""Digests of every deterministic output of the command-line runs.

Runs ``lorentz-synth suite --quick`` and every other subcommand's default
configuration, plain and with ``--quick`` (seed 0), one fresh interpreter
each, into a temporary directory, and prints one sha256 per output:

* the ``report.json`` payload, without the ``started``/``finished`` stamps;
* ``margins.csv``;
* each plot CSV and ``plots/manifest.json``;

plus each run's exit status, one ``sigma-tau-probe`` line: the sha256 of
sigma, tau and the sine solves of fixed curvature ramps (see
:func:`sigma_tau_probe`), one ``defect-bound-probe`` line: the sha256 of
the defect bound over fixed tuples (see :func:`defect_bound_probe`), and
one ``lattice-probe`` line: the sha256 of lattice separation matrices and
lattice geodesics (see :func:`lattice_probe`), whose bits no output shows
either. Two source trees whose
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


def defect_bound_probe() -> str:
    """sha256 of the defect bound over 72 fixed tuples: K in (0.5, 1.5), N in
    (2, 3) with p = N / 2 + 0.7, eta a fifth of the conjugate radius of
    K / (N - 1), three ramps K + offsets on [0, 2], t in (0.2, 0.7) and theta
    at (0.1, 0.5, 0.9) of its range. The `distortion` run reports the worst
    excess of tau's gap over the bound, max(0, .) of comparisons that never
    turn positive, so no output file moves with the bound's bits; this line
    does."""
    sys.path.insert(0, str(SRC))
    import numpy as np
    from lorentz_synth.distortion import KappaProfile, const_first_zero, defect_bound
    values = []
    for big_k in (0.5, 1.5):
        for n_param in (2.0, 3.0):
            radius = const_first_zero(big_k / (n_param - 1.0))
            eta = 0.2 * radius
            theta_max = min(2.0, radius - eta)
            for off0, off1 in ((-1.5, 0.5), (-0.6, -0.2), (0.3, -1.2)):
                profile = KappaProfile.from_samples([[0.0, big_k + off0], [2.0, big_k + off1]])
                for t in (0.2, 0.7):
                    for frac in (0.1, 0.5, 0.9):
                        values.append(defect_bound(big_k, n_param, n_param / 2.0 + 0.7, eta,
                                                   profile, t, frac * theta_max))
    return hashlib.sha256(np.array(values).tobytes()).hexdigest()


def lattice_probe() -> str:
    """sha256 of the lattice time separations of 3 fixed sources to 5 fixed
    targets (coincident, non-causal and chronological pairs) and of the
    nodes, cumulative lengths and length of the maximizing paths of 3 fixed
    chronological pairs, the mirror pair (-1, -0.6) -> (1, 0.6) among them,
    on ``cosh_warp_model``, ``desitter_like`` and ``double_cone_kink`` at
    resolutions 65 and 129. The default runs compute no lattice geodesic and
    no lattice separation matrix (only the diameter runs on a lattice
    chart), so no output file moves with their bits; this line does."""
    sys.path.insert(0, str(SRC))
    import numpy as np
    from lorentz_synth.models import (cosh_warp_model, desitter_like, double_cone_kink,
                                      maximizing_paths, time_separations)
    sources = [(-0.9, -0.3), (-0.5, 0.2), (0.0, 0.0)]
    targets = [(0.9, 0.4), (0.6, -0.2), (0.0, 0.0), (0.05, 0.9), (-0.95, 0.5)]
    pairs = [((-1.0, -0.6), (1.0, 0.6)), ((-0.9, -0.3), (0.9, 0.4)),
             ((-0.5, 0.1), (0.7, -0.4))]
    digest = hashlib.sha256()
    for model in (cosh_warp_model(), desitter_like(), double_cone_kink()):
        for resolution in (65, 129):
            digest.update(time_separations(model, sources, targets, resolution).tobytes())
            for path in maximizing_paths(model, pairs, resolution):
                digest.update(path.nodes.tobytes())
                digest.update(path.cumlen.tobytes())
                digest.update(np.float64(path.length).tobytes())
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
    print(f"{defect_bound_probe()}  defect-bound-probe", flush=True)
    print(f"{lattice_probe()}  lattice-probe", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
