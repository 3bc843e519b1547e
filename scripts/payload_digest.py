"""Digests of every deterministic output of the command-line runs.

Runs ``lorentz-synth suite --quick`` and every other subcommand's default
configuration, plain and with ``--quick`` (seed 0), one fresh interpreter
each, into a temporary directory, and prints one sha256 per output:

* the ``report.json`` payload, without the ``started``/``finished`` stamps;
* ``margins.csv``;
* each plot CSV and ``plots/manifest.json``;

plus each run's exit status, one ``sigma-tau-probe`` line: the sha256 of
sigma, tau and the sines of fixed curvature ramps (see
:func:`sigma_tau_probe`), one ``defect-bound-probe`` line: the sha256 of
the defect bound over fixed tuples (see :func:`defect_bound_probe`), one
``lattice-probe`` line: the sha256 of lattice separation matrices (see
:func:`lattice_probe`), one ``geodesic-probe`` line: the sha256 of the
lengths and sampled points of maximizing geodesics on warped charts (see
:func:`geodesic_probe`), and ``grid-probe-1+1`` and
``grid-probe-2+1`` lines: the sha256 of the curvature of a tilted 1+1 and a
general 2+1 grid (see :func:`grid_probe`), whose bits no output shows
either, and one ``grid-deficit-probe`` line: the sha256 of the deficit
curves of that 1+1 grid, which varies along every axis, so the deficit
runs at full width (see :func:`grid_deficit_probe`). Two source trees whose
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
    """sha256 of sigma, tau (N = 3), the sine's first zero, and the sine u
    and the fundamental solution w on 257 points of [0, L] over 40
    two-sample ramps with curvatures in [-8, 8], theta at 0.05, 0.37, 0.81,
    0.9995 and 1 times L. The runs' sigma and tau margins are max(0, .) of
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
                grid = np.linspace(0.0, length, 257)
                fundamental = sine_fundamental(profile)
                for lookup in (sine, fundamental.eval_u, fundamental.eval_w):
                    digest.update(np.asarray(lookup(grid), dtype=float).tobytes())
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


PROBE_MODELS = ("cosh_warp_model", "desitter_like", "double_cone_kink")


def lattice_probe() -> str:
    """sha256 of the lattice time separations of 3 fixed sources to 5 fixed
    targets (coincident, non-causal and chronological pairs) on
    ``cosh_warp_model``, ``desitter_like`` and ``double_cone_kink`` at
    resolutions 65 and 129. No default run reads the lattice (the diameter
    is the chart's time extent), so no output file moves with its bits; this
    line is the digest's only coverage of it."""
    sys.path.insert(0, str(SRC))
    from lorentz_synth import models
    sources = [(-0.9, -0.3), (-0.5, 0.2), (0.0, 0.0)]
    targets = [(0.9, 0.4), (0.6, -0.2), (0.0, 0.0), (0.05, 0.9), (-0.95, 0.5)]
    digest = hashlib.sha256()
    for name in PROBE_MODELS:
        model = getattr(models, name)()
        for resolution in (65, 129):
            digest.update(models.time_separations(model, sources, targets,
                                                  resolution).tobytes())
    return digest.hexdigest()


def geodesic_probe() -> str:
    """sha256 of the length and of the points at the fractions 0, 0.25, 0.5,
    0.75 and 1 of the maximizing geodesics of 3 fixed chronological pairs,
    the mirror pair (-1, -0.6) -> (1, 0.6) among them, on the models of
    :func:`lattice_probe`. Only ``length`` and ``points`` are read, so the
    same lines digest any tree whose geodesics offer those two."""
    sys.path.insert(0, str(SRC))
    import numpy as np
    from lorentz_synth import models
    pairs = [((-1.0, -0.6), (1.0, 0.6)), ((-0.9, -0.3), (0.9, 0.4)),
             ((-0.5, 0.1), (0.7, -0.4))]
    fractions = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    digest = hashlib.sha256()
    for name in PROBE_MODELS:
        for path in models.maximizing_paths(getattr(models, name)(), pairs):
            digest.update(np.float64(path.length).tobytes())
            digest.update(np.ascontiguousarray(path.points(fractions)).tobytes())
    return digest.hexdigest()


def probe_grid(dims: int):
    """The smooth chart of :func:`grid_probe`: on 65 x 49 nodes of [-1, 1] x
    [0, 1] for dims = 2, with g_01 = 0.1 sin(2x + t); on 17 x 21 x 19 nodes
    of [-1, 1] x [0, 1]^2 for dims = 3, where every coefficient varies and no
    off-diagonal entry vanishes; log-density 0.4 t x."""
    sys.path.insert(0, str(SRC))
    import numpy as np
    from lorentz_synth import lipschitz_grid as L

    def fn(pts):
        t, x = pts[..., 0], pts[..., 1]
        g = np.zeros(pts.shape[:-1] + (dims, dims))
        g[..., 0, 0] = 1.0 + 0.2 * np.sin(t + x)
        g[..., 1, 1] = -(1.0 + 0.3 * t ** 2)
        g[..., 0, 1] = g[..., 1, 0] = 0.1 * np.sin(2.0 * x + t)
        if dims == 3:
            y = pts[..., 2]
            g[..., 2, 2] = -(1.0 + 0.2 * np.cos(y))
            g[..., 0, 2] = g[..., 2, 0] = 0.05 * np.cos(x + y)
            g[..., 1, 2] = g[..., 2, 1] = 0.1 * np.sin(x + y)
        return g

    shape = (65, 49) if dims == 2 else (17, 21, 19)
    return L.metric_grid(fn, ((-1.0, 1.0),) + ((0.0, 1.0),) * (dims - 1), shape,
                         weight=lambda p: 0.4 * p[..., 0] * p[..., 1])


def grid_probe(dims: int) -> str:
    """sha256 of the Christoffel symbols, the Ricci and Bakry-Emery tensors
    (N = dims + 0.5) and the cone-scan lower bound k of :func:`probe_grid`,
    mollified at 4 grid steps and cone-narrowed. The default runs have only
    warped 1+1 grids (g_01 = 0), so no output file moves with the bits of a
    tilted 1+1 grid or of a 2+1 grid; this line does."""
    sys.path.insert(0, str(SRC))
    import numpy as np
    from lorentz_synth import lipschitz_grid as L

    grid = probe_grid(dims)
    smooth = L.mollify(grid, 4.0 * max(grid.spacing))
    narrowed = L.cone_narrowed(smooth, L.narrowing_constant(smooth))
    field = L.bakry_emery(narrowed, dims + 0.5)
    digest = hashlib.sha256()
    for values in (field.christoffel, field.ricci, field.bakry_emery,
                   L.timelike_lower_bound_fn(field, narrowed)):
        digest.update(np.ascontiguousarray(values).tobytes())
    return digest.hexdigest()


def grid_deficit_probe() -> str:
    """sha256 of ``lp_deficit_curves`` on the 1+1 :func:`probe_grid` for K in
    (0, 0.3), p in (1, 2), radii 0.25 and 0.125 and N = 2.5. The default
    runs' grids do not vary along x, so their deficits are computed on one
    column; this grid varies along both axes, so this line digests the
    deficit path at full width."""
    sys.path.insert(0, str(SRC))
    import numpy as np
    from lorentz_synth import lipschitz_grid as L

    grid = probe_grid(2)
    curves = [L.lp_deficit_curves(grid, K, [1.0, 2.0], [0.25, 0.125], 2.5)
              for K in (0.0, 0.3)]
    return hashlib.sha256(np.array(curves).tobytes()).hexdigest()


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
    print(f"{geodesic_probe()}  geodesic-probe", flush=True)
    for dims in (2, 3):
        print(f"{grid_probe(dims)}  grid-probe-{dims - 1}+1", flush=True)
    print(f"{grid_deficit_probe()}  grid-deficit-probe", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
