"""Experiment runner behind the ``lorentz-synth`` console script.

Each subcommand drives one verification suite end to end: it builds the
requested chart, runs the library checks, and writes a ``report.json``, a
flat ``margins.csv``, and two-column plot CSVs (with a ``manifest.json``)
into the output directory.  Runs are deterministic: the same resolved
configuration and seed produce bit-identical report payloads and CSV bytes.
Exit status is 0 when every report passes, 1 when one fails, 2 for anything
raised before dispatch (loading, resolving, the declared parameter types,
building the model, a cross-field rule), and 3 for anything raised after; the
latter two print a one-line structured error JSON.

``suite`` replays the whole acceptance matrix (one table row per criterion).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import numbers
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__, _highs
from .comparison import (BumpFunction, aubry_spacetime_check, bishop_gromov,
                         bonnet_myers, brenier_mccann_check, brunn_minkowski,
                         check_tcd_semiconvexity, check_tmcp, csv_text,
                         dalembert_check, eikonal_check, jsonable, ladder_steps,
                         make_report, needle_decomposition)
from .distortion import (KappaProfile, const_first_zero, const_sine, const_tau,
                         defect_bounds, first_zero, generalized_sine,
                         sigma_coeffs, tau_coeffs)
from .extreal import is_inf
from .lipschitz_grid import (MetricGrid, _invariant_axes, load_grid,
                             lp_deficit_curves, minkowski_grid, mollify,
                             warped_grid)
from .models import (ModelSpacetime, cosh_warp_model, desitter_like, kinked_slab,
                     minkowski, region_measure, warped_product)
from .onedim import (CDDensity, model_density, tmcp_delta, verify_cd_density)
from .transport import (DiscreteMeasure, dirac, dynamical_coupling,
                        is_timelike_q_dualizable, lq_distance,
                        separation_matrix, uniform_on_box, verify_q_geodesic)


class ConfigError(ValueError):
    """Raised before dispatch when a configuration cannot be run."""


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


_CONFIG_KEYS = {"command", "model", "parameters", "output_dir", "seed"}


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully described run: command, chart, parameter map, output, seed."""

    command: str
    model: dict | None
    parameters: dict
    output_dir: str
    seed: int

    @classmethod
    def from_mapping(cls, data: dict, command: str | None = None) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(data) - _CONFIG_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        cmd = data.get("command", command)
        if cmd is None:
            raise ConfigError("no command given")
        if command is not None and cmd != command:
            raise ConfigError(
                f"config command {cmd!r} does not match invoked command {command!r}")
        if cmd not in COMMANDS:
            raise ConfigError(f"unknown command {cmd!r}")
        model = data.get("model", None)
        if isinstance(model, str):
            model = {"kind": "grid", "path": model}
        params = data.get("parameters", {})
        if not isinstance(params, dict):
            raise ConfigError("parameters must be a mapping")
        seed = data.get("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise ConfigError("seed must be an integer")
        out = data.get("output_dir", os.path.join("runs", cmd))
        if not isinstance(out, str):
            raise ConfigError("output_dir must be a string")
        return cls(cmd, model, params, out, seed)

    def resolved(self) -> dict:
        """Canonical command/model/parameters/seed map with defaults filled.

        The output directory is deliberately left out: it never influences
        the computation, so it must not influence the hash either.  Resolving
        also loads the command's declared heavy modules
        (``CommandSpec.imports``), so their load counts as set-up, not as
        part of the run.
        """
        spec = COMMANDS[self.command]
        if _highs.CORE in spec.imports:
            _highs.core()
        model = self.model if self.model is not None else spec.model
        params = spec.defaults()
        for key, val in self.parameters.items():
            if key not in params:
                raise ConfigError(
                    f"unknown parameter {key!r} for command {self.command!r}")
            params[key] = val
        return {"command": self.command, "model": jsonable(model),
                "parameters": jsonable(params), "seed": self.seed}

    def config_hash(self) -> str:
        text = json.dumps(self.resolved(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()


@dataclass(frozen=True)
class RunRecord:
    """Persisted outcome of one run.

    ``payload()`` is the deterministic part (hash, seed, version, reports);
    timestamps live next to it in the JSON but outside the payload contract.
    """

    config_hash: str
    command: str
    seed: int
    version: str
    started: str
    finished: str
    reports: list
    passed: bool

    def payload(self) -> dict:
        return {"config_hash": self.config_hash, "command": self.command,
                "seed": self.seed, "version": self.version,
                "reports": self.reports, "passed": self.passed}

    def to_json(self) -> str:
        body = self.payload()
        body["started"] = self.started
        body["finished"] = self.finished
        return json.dumps(body, indent=2) + "\n"


# ---------------------------------------------------------------------------
# parameter types: each takes a JSON value and the key it sits under, and
# returns what the runner reads or raises ConfigError naming that key
# ---------------------------------------------------------------------------


def _integer(least):
    def check(value, name):
        if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                or not float(value).is_integer() or value < least):
            raise ConfigError(f"{name} must be an integer of at least {least}")
        return int(value)
    return check


def _real(lo=-math.inf, hi=math.inf, strict=False, as_float=False):
    """A finite number in [lo, hi], or in (lo, hi) when ``strict``. It keeps
    its JSON type, so an integer stays one in provenance, unless ``as_float``."""
    span = f"({lo:g}, {hi:g})" if strict else f"[{lo:g}, {hi:g}]"

    def check(value, name):
        if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                or not math.isfinite(value)
                or not (lo < value < hi if strict else lo <= value <= hi)):
            raise ConfigError(f"{name} must be a finite number in {span}")
        return float(value) if as_float else value
    return check


def _list(item, least=1):
    def check(value, name):
        if not isinstance(value, (list, tuple)) or len(value) < least:
            raise ConfigError(f"{name} must be a list of at least {least} entries")
        return [item(v, f"{name}[{i}]") for i, v in enumerate(value)]
    return check


def _pair(item, increasing=False):
    """Two ``item`` values as a tuple; the first below the second when
    ``increasing``."""
    def check(value, name):
        if not isinstance(value, (list, tuple)) or len(value) != 2:
            raise ConfigError(f"{name} must be a pair")
        pair = item(value[0], f"{name}[0]"), item(value[1], f"{name}[1]")
        if increasing and not pair[0] < pair[1]:
            raise ConfigError(f"{name} must be an increasing pair")
        return pair
    return check


def _choice(*options):
    def check(value, name):
        if not any(type(value) is type(o) and value == o for o in options):
            raise ConfigError(f"{name} must be one of {json.dumps(options)}")
        return value
    return check


def _optional(kind):
    return lambda value, name: None if value is None else kind(value, name)


_REAL, _POSITIVE, _NONNEG = _real(), _real(0.0, strict=True), _real(0.0)
_DIM, _Q = _real(1.0, strict=True), _real(0.0, 1.0, strict=True)      # N > 1; q
_TIMES = _list(_real(0.0, 1.0))
_EPS_LIST = _list(_real(0.0, strict=True, as_float=True))
_COUNT, _RES = _integer(1), _integer(17)
_POINT = _pair(_REAL)
_BOX = _pair(_pair(_REAL, increasing=True))


def _mapping(spec, name, what):
    if not isinstance(spec, dict):
        raise ConfigError(f"{name}: cannot build a {what} from {spec!r}")
    return spec


def _measure(spec, name) -> DiscreteMeasure:
    """{"dirac": point}, {"uniform_on_box": box, "per_axis": n}, or
    {"points": [point, ...]} with optional "weights" (uniform by default)."""
    _mapping(spec, name, "measure")
    if "dirac" in spec:
        return dirac(_POINT(spec["dirac"], f"{name}.dirac"))
    if "uniform_on_box" in spec:
        return uniform_on_box(_BOX(spec["uniform_on_box"], f"{name}.uniform_on_box"),
                              _COUNT(spec.get("per_axis", 3), f"{name}.per_axis"))
    if "points" in spec:
        pts = _list(_POINT)(spec["points"], f"{name}.points")
        weights = spec.get("weights")
        return DiscreteMeasure(tuple(pts), np.full(len(pts), 1.0 / len(pts))
                               if weights is None else np.asarray(
                                   _list(_NONNEG)(weights, f"{name}.weights"), float))
    raise ConfigError(f"{name}: cannot build a measure from {spec!r}")


def _box_region(box, name):
    """The indicator of the open box [[t0, t1], [x0, x1]]."""
    (t0, t1), (x0, x1) = _BOX(box, name)
    return lambda p: ((p[..., 0] > t0) & (p[..., 0] < t1)
                      & (p[..., 1] > x0) & (p[..., 1] < x1))


def _region(spec, name):
    """{"box": box}, or {"cone": {"slope": s, "t_min": t}}: |x| <= s t above
    t_min (no floor by default)."""
    _mapping(spec, name, "region")
    if "box" in spec:
        return _box_region(spec["box"], f"{name}.box")
    if "cone" in spec:
        cone = _mapping(spec["cone"], f"{name}.cone", "cone")
        slope = _POSITIVE(cone.get("slope", 0.6), f"{name}.cone.slope")
        t_min = (_REAL(cone["t_min"], f"{name}.cone.t_min") if "t_min" in cone
                 else -math.inf)
        return lambda p: (np.abs(p[..., 1]) <= slope * p[..., 0]) & (p[..., 0] >= t_min)
    raise ConfigError(f"{name}: cannot build a region from {spec!r}")


def _bump(spec, name) -> BumpFunction:
    """{"center": point, "radius": r}."""
    _mapping(spec, name, "bump")
    return BumpFunction(_POINT(spec.get("center"), f"{name}.center"),
                        _POSITIVE(spec.get("radius"), f"{name}.radius"))


def _curvature(spec, name):
    """"default" (None: the chart's own floor), {"constant": c}, or
    {"dip": {"floor": f, "depth": d, "width": w}}: a floor k of the chart
    points (..., 2), the dip centred on t = 0."""
    if spec is None or spec == "default":
        return None
    _mapping(spec, name, "curvature floor")
    if "constant" in spec:
        v = _REAL(spec["constant"], f"{name}.constant")
        return lambda p: v * np.ones(np.shape(p)[:-1])
    if "dip" in spec:
        dip = _mapping(spec["dip"], f"{name}.dip", "dip")
        floor = _REAL(dip.get("floor", 1.0), f"{name}.dip.floor")
        depth = _REAL(dip.get("depth", 0.05), f"{name}.dip.depth")
        width = _POSITIVE(dip.get("width", 0.2), f"{name}.dip.width")
        return lambda p: floor - depth * np.exp(-(np.asarray(p)[..., 0] / width) ** 2)
    raise ConfigError(f"{name}: cannot build a curvature floor from {spec!r}")


def _weight_fn(spec):
    coeffs = spec.get("weight_poly_t")
    if coeffs is None:
        return None
    c = [float(v) for v in coeffs]
    return lambda t: np.polynomial.polynomial.polyval(t, c)


def _warp_samples_model(spec):
    samples = np.asarray(spec["samples"], dtype=float)
    warp = lambda t: np.interp(t, samples[:, 0], samples[:, 1])
    return warped_product(warp, tuple(spec["t_bounds"]), tuple(spec["x_bounds"]),
                          weight=_weight_fn(spec))


def _check_warp_samples(spec):
    samples = np.asarray(spec.get("samples", ()), dtype=float)
    if samples.ndim != 2 or len(samples) < 2 or np.any(samples[:, 1] <= 0.0):
        raise ConfigError("warp samples need >= 2 rows of positive [t, a]")


def _kinked_grid(spec):
    slope = float(spec.get("slope", 0.25))
    return warped_grid(lambda t: 1.0 - slope * np.abs(t),
                       tuple(spec.get("t_bounds", (-2.0, 2.0))),
                       tuple(spec.get("x_bounds", (0.0, 2.0))),
                       tuple(spec.get("shape", (1025, 129))))


def _check_kinked_grid(spec):
    slope = float(spec.get("slope", 0.25))
    t0, t1 = spec.get("t_bounds", (-2.0, 2.0))
    if slope * max(abs(t0), abs(t1)) >= 1.0:
        raise ConfigError("kinked warp must stay positive on the chart")
    _pair(_integer(2))(spec.get("shape", (1025, 129)), "kinked-grid shape")


def _check_minkowski_grid(spec):
    if len(_list(_integer(2))(spec["shape"], "minkowski-grid shape")) \
            != len(spec["bounds"]):
        raise ConfigError("minkowski-grid takes one shape entry per bound")


@dataclass(frozen=True)
class ModelKind:
    """One model ``kind`` of a config: how it is built from its spec, the
    keys the spec must carry, and any further check run before the build."""

    build: Callable
    required: tuple = ()
    check: Callable | None = None


MODEL_KINDS = {
    "minkowski": ModelKind(lambda spec: minkowski(
        tuple(map(tuple, spec.get("bounds", ((0.0, 1.0), (-1.0, 1.0))))),
        weight=_weight_fn(spec))),
    "cosh-warp": ModelKind(lambda spec: cosh_warp_model(spec.get("t_half", 1.2),
                                                        spec.get("x_half", 1.2))),
    "desitter": ModelKind(lambda spec: desitter_like(spec.get("delta", 0.02),
                                                     spec.get("x_half", 1.0))),
    "kinked-slab": ModelKind(lambda spec: kinked_slab(spec.get("slope", 0.25))),
    "warp-samples": ModelKind(_warp_samples_model, ("samples", "t_bounds", "x_bounds"),
                              check=_check_warp_samples),
    "grid": ModelKind(lambda spec: load_grid(spec["path"]), ("path",)),
    "minkowski-grid": ModelKind(lambda spec: minkowski_grid(
        tuple(map(tuple, spec["bounds"])), tuple(spec["shape"])),
        ("bounds", "shape"), check=_check_minkowski_grid),
    "kinked-grid": ModelKind(_kinked_grid, check=_check_kinked_grid),
}


def _build_model(spec):
    """The chart or grid a model spec describes (None for none)."""
    if spec is None:
        return None
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("model spec must be a mapping with a 'kind'")
    if spec["kind"] not in MODEL_KINDS:
        raise ConfigError(f"unknown model kind {spec['kind']!r}")
    kind = MODEL_KINDS[spec["kind"]]
    missing = [key for key in kind.required if key not in spec]
    if missing:
        raise ConfigError(f"model kind {spec['kind']!r} needs {missing}")
    if kind.check is not None:
        kind.check(spec)
    return kind.build(spec)


def _plot(file, x, y, rows, title):
    return {"file": file, "x": x, "y": y,
            "rows": np.asarray(rows, dtype=float), "title": title}


# ---------------------------------------------------------------------------
# runners (one per subcommand)
# ---------------------------------------------------------------------------

# Each runner takes its model (or grid), its typed parameters and the run's
# seed ([seed, row] for a suite row). Only the runners that draw
# (distortion, cd-verify, transport, brenier) build a generator from it, so a
# run that draws nothing never imports numpy.random (about 9 ms cold).

# the most pairs, or loop passes, the distortion checks draw before they
# evaluate them in one batch: a round's profiles and requests are alive at
# once. On 150 pairs and tuples, one batch of all pairs peaked about 250 KB
# above rounds of 32, which still fill their solves' chunks
_DISTORTION_ROUND = 32


def _run_distortion(model, params, seed):
    rng = np.random.default_rng(seed)
    check = params["check"]
    reports, plots = [], []
    if check in ("closed-forms", "all"):
        labels, lhs, rhs = [], [], []
        for kappa in params["kappas"]:
            length = 2.0
            sine = generalized_sine(KappaProfile.constant(kappa, length))
            fz = const_first_zero(kappa)
            hi = length if is_inf(fz) else min(length, fz - 0.01)
            grid = np.linspace(0.0, hi, 513)
            dev = float(np.max(np.abs(sine(grid) - const_sine(kappa, grid))))
            labels.append(f"sup-dev:kappa={kappa:g}")
            lhs.append(dev)
            rhs.append(1e-8)
            plots.append(_plot(f"sine_kappa_{kappa:g}.csv", "theta", "sine",
                               np.column_stack([grid, sine(grid)]),
                               f"generalized sine, kappa={kappa:g}"))
        fz4 = first_zero(KappaProfile.constant(4.0, 2.0))
        labels.append("first-zero:kappa=4")
        lhs.append(abs(fz4 - math.pi / 2.0))
        rhs.append(1e-8)
        reports.append(make_report("distortion-closed-forms", lhs, rhs, 0.0, labels,
                                   {"kappas": list(params["kappas"])}))
    if check in ("ordering", "all"):
        n = params["pairs"]
        worst_sigma = worst_tau = worst_dom = 0.0
        # no draw reads a result: the pairs are drawn a round at a time, and
        # a round's are evaluated in one batch of sigma and one of tau
        for start in range(0, n, _DISTORTION_ROUND):
            draws = []
            for _ in range(min(_DISTORTION_ROUND, n - start)):
                a, b = rng.uniform(-4.0, 4.0, 2)
                d0, d1 = rng.uniform(0.0, 3.0, 2)
                length = float(rng.uniform(1.0, 2.5))
                n_param = float(rng.choice((2.0, 3.0, 4.5)))
                t = float(rng.uniform(0.0, 1.0))
                theta = float(rng.uniform(0.05, 0.95)) * length
                upper = KappaProfile.from_samples([[0.0, a], [length, b]])
                lower = KappaProfile.from_samples([[0.0, a - d0], [length, b - d1]])
                draws.append((upper, lower, n_param, t, theta))
            sigmas = sigma_coeffs([(profile.scaled(1.0 / n_param), t, theta)
                                   for *pair, n_param, t, theta in draws for profile in pair])
            taus = tau_coeffs([(profile, n_param, t, theta)
                               for *pair, n_param, t, theta in draws for profile in pair])
            for s_up, s_lo, t_up, t_lo in zip(sigmas[::2], sigmas[1::2], taus[::2], taus[1::2]):
                if not is_inf(s_up):
                    worst_sigma = max(worst_sigma, s_lo - s_up)
                if not is_inf(t_up):
                    worst_tau = max(worst_tau, t_lo - t_up)
                    if not is_inf(s_up):
                        worst_dom = max(worst_dom, s_up - t_up)
        reports.append(make_report(
            "distortion-ordering", [worst_sigma, worst_tau, worst_dom], [1e-10] * 3,
            0.0, ["sigma-monotone", "tau-monotone", "tau-dominates-sigma"],
            {"pairs": n}))
    if check in ("defect", "all"):
        n = params["tuples"]
        worst = 0.0
        used = skipped = 0
        while used < n and skipped < 20 * n:
            # a round of draws the loop is sure to take one at a time: each
            # adds one to used or to skipped, so none of them would end it
            drawn = []
            for _ in range(min(n - used, 20 * n - skipped, _DISTORTION_ROUND)):
                big_k = float(rng.uniform(0.5, 2.0))
                n_param = float(rng.choice((2.0, 2.5, 3.0)))
                p = float(rng.uniform(max(2.0, n_param / 2.0 + 0.3), 3.5))
                fz = const_first_zero(big_k / (n_param - 1.0))
                eta = float(rng.uniform(0.05, 0.45)) * fz
                length = 2.0
                offs = rng.uniform(-1.5, 0.5, 2)
                prof = KappaProfile.from_samples(
                    [[0.0, big_k + offs[0]], [length, big_k + offs[1]]])
                theta_max = min(length, fz - eta)
                if theta_max <= 1e-2:
                    skipped += 1
                    continue
                theta = float(rng.uniform(0.1, 0.9)) * theta_max
                t = float(rng.uniform(0.05, 0.95))
                drawn.append((big_k, n_param, p, eta, prof, t, theta))
            bounds = defect_bounds(drawn)
            t_profs = tau_coeffs([(prof, n_param, t, theta)
                                  for _, n_param, _, _, prof, t, theta in drawn])
            for (big_k, n_param, _, _, _, t, theta), bound, t_prof in zip(drawn, bounds, t_profs):
                t_model = float(const_tau(big_k, n_param, t, theta))
                if is_inf(t_model) or is_inf(t_prof):
                    skipped += 1
                    continue
                worst = max(worst, (t_model - t_prof) - bound)
                used += 1
        reports.append(make_report("defect-bound", [worst], [1e-8], 0.0,
                                   ["defect-dominated"],
                                   {"tuples": used, "skipped": skipped}))
    return reports, plots


def _run_cd_verify(model, params, seed):
    rng = np.random.default_rng(seed)
    check = params["check"]
    reports, plots = [], []
    if check in ("model-density", "all"):
        labels, lhs, rhs = [], [], []
        for big_k in params["k_values"]:
            for n_param in params["n_values"]:
                top = const_first_zero(big_k / (n_param - 1.0))
                length = 3.0 if is_inf(top) else min(3.0, 0.93 * top)
                dens = model_density(big_k, n_param, length)
                res = verify_cd_density(dens, tolerance=params["tolerance"])
                labels.append(f"K={big_k:g},N={n_param:g}")
                lhs.append(res.worst_violation)
                rhs.append(params["tolerance"])
        xs = np.linspace(0.1, 1.0, 257)
        convex = CDDensity(0.1, 1.0, xs ** 2, KappaProfile.constant(0.0, 0.9), 2.0)
        res = verify_cd_density(convex)
        labels.append("counterexample-detected")
        lhs.append(1e-3)
        rhs.append(res.worst_violation)
        reports.append(make_report("cd-model-densities", lhs, rhs, 0.0, labels,
                                   {"k_values": list(params["k_values"]),
                                    "n_values": list(params["n_values"])}))
        show = model_density(1.0, 2.0, 3.0)
        plots.append(_plot("model_density_K1_N2.csv", "x", "h",
                           np.column_stack([show.grid(), show.h_samples]),
                           "one-dimensional model density, K=1, N=2"))
    if check in ("delta-formula", "all"):
        n = params["tuples"]
        worst = 0.0
        for _ in range(n):
            big_k = float(rng.uniform(0.2, 5.0))
            n_param = float(rng.uniform(2.0, 5.0))
            p = float(rng.uniform(1.0, 3.0))
            eps = float(rng.uniform(0.05, 3.0))
            c = float(rng.uniform(2.0, 20.0))
            ref = min((eps * math.sqrt(big_k / (n_param - 1.0)) / (math.pi * c)) ** 5,
                      1.0 / c)
            worst = max(worst, abs(tmcp_delta(big_k, n_param, p, eps, c) - ref))
        reports.append(make_report("delta-threshold", [worst], [0.0], 0.0,
                                   ["re-evaluation"], {"tuples": n}))
    return reports, plots


def _run_transport(model, params, seed):
    rng = np.random.default_rng(seed)
    check = params["check"]
    reports, plots = [], []
    if check in ("certificates", "all"):
        n_inst = params["instances"]
        worst_marginal = worst_restriction = 0.0
        solved = dualizable = infeasible = restricted = 0
        for _ in range(n_inst):
            n, m = rng.integers(2, 5, size=2)
            xs = tuple((float(t), float(x)) for t, x in
                       zip(rng.uniform(-1.2, -0.4, n), rng.uniform(-1.5, 1.5, n)))
            ys = tuple((float(t), float(x)) for t, x in
                       zip(rng.uniform(0.4, 1.2, m), rng.uniform(-1.5, 1.5, m)))
            mu_w = rng.random(n) + 0.1
            nu_w = rng.random(m) + 0.1
            mu = DiscreteMeasure(xs, mu_w / mu_w.sum())
            nu = DiscreteMeasure(ys, nu_w / nu_w.sum())
            q = float(rng.uniform(0.2, 0.9))
            _, plan = lq_distance(model, mu, nu, q)
            if plan is None:
                infeasible += 1
                continue
            solved += 1
            worst_marginal = max(
                worst_marginal,
                float(np.max(np.abs(plan.matrix.sum(axis=1) - mu.weights))),
                float(np.max(np.abs(plan.matrix.sum(axis=0) - nu.weights))))
            dualizable += int(is_timelike_q_dualizable(plan, model))
            rows = sorted(rng.choice(n, size=max(2, int(n) - 1), replace=False).tolist())
            cols = sorted(rng.choice(m, size=max(2, int(m) - 1), replace=False).tolist())
            block = plan.matrix[np.ix_(rows, cols)]
            keep_r = block.sum(axis=1) > 1e-12
            keep_c = block.sum(axis=0) > 1e-12
            block = block[np.ix_(keep_r.nonzero()[0], keep_c.nonzero()[0])]
            rows = [r for r, k in zip(rows, keep_r) if k]
            cols = [c for c, k in zip(cols, keep_c) if k]
            total = block.sum()
            if total <= 1e-6 or len(rows) == 0 or len(cols) == 0:
                continue
            sub_mu = DiscreteMeasure(tuple(mu.support[i] for i in rows),
                                     block.sum(axis=1) / total)
            sub_nu = DiscreteMeasure(tuple(nu.support[j] for j in cols),
                                     block.sum(axis=0) / total)
            seps = separation_matrix(model, sub_mu, sub_nu)
            cost = np.where(seps > -math.inf, np.clip(seps, 0.0, None) ** q, 0.0)
            from_block = float(np.sum(cost * block / total)) ** (1.0 / q)
            resolved, _ = lq_distance(model, sub_mu, sub_nu, q)
            worst_restriction = max(worst_restriction, abs(resolved - from_block))
            restricted += 1
        reports.append(make_report(
            "coupling-certificates",
            [worst_marginal, float(solved), worst_restriction],
            [1e-10, float(dualizable), 1e-9], 0.0,
            ["marginal-deviation", "dualizable", "restriction-deviation"],
            {"instances": n_inst, "solved": solved, "infeasible": infeasible,
             "restriction_checked": restricted}))
    if check in ("q-geodesic", "all"):
        src = dirac(params["origin"])
        target = params["target"]
        q = params["q"]
        _, plan = lq_distance(model, src, target, q)
        if plan is None:
            worst = math.inf
        else:
            dc = dynamical_coupling(model, plan)
            _, worst = verify_q_geodesic(model, dc, q, params["t_grid"],
                                         tolerance=params["gap_tolerance"])
        reports.append(make_report("q-geodesic-gap", [worst],
                                   [params["gap_tolerance"]], 0.0,
                                   ["interpolation-gap"],
                                   {"q": q, "t_grid": params["t_grid"],
                                    "target_points": len(target.support)}))
    return reports, plots


def _tmcp_plots(rep, t_grid, n_prime_grid, stem):
    """Per-N' two-column (t, value) files from the labelled report entries."""
    table = {lab: (float(a), float(b))
             for lab, a, b in zip(rep.labels, rep.lhs, rep.rhs)}
    plots = []
    for n_prime in n_prime_grid:
        rows_l, rows_r = [], []
        for t in t_grid:
            key = f"t={t:g},N'={n_prime:g}"
            if key in table:
                rows_l.append((t, table[key][0]))
                rows_r.append((t, table[key][1]))
        if rows_l:
            plots.append(_plot(f"{stem}_nprime{n_prime:g}.csv", "t", "entropy",
                               rows_l, f"interpolant entropy, N'={n_prime:g}"))
            plots.append(_plot(f"{stem}_bound_nprime{n_prime:g}.csv", "t", "bound",
                               rows_r, f"contraction bound, N'={n_prime:g}"))
    return plots


def _run_tmcp(model, params, seed):
    t_grid, n_primes = params["t_grid"], params["n_prime_grid"]
    rep = check_tmcp(model, params["origin"], params["target"], params["K"],
                     params["n"], params["q"], t_grid, n_primes,
                     variant=params["variant"], tolerance=params["tolerance"],
                     cells_resolution=params["cells_resolution"],
                     resolution=params["resolution"])
    reports = [rep]
    eq = params["equality_n_prime"]
    if eq is not None:
        labels, lhs, rhs = [], [], []
        for lab, m in zip(rep.labels, rep.margin):
            if lab.startswith("t=") and lab.endswith(f"N'={eq:g}"):
                labels.append(f"eq:{lab}")
                lhs.append(abs(float(m)))
                rhs.append(params["equality_tolerance"])
        reports.append(make_report("tmcp-equality", lhs, rhs, 0.0, labels,
                                   {"n_prime": eq,
                                    "tolerance": params["equality_tolerance"]}))
    return reports, _tmcp_plots(rep, t_grid, n_primes, "entropy")


def _run_tcd(model, params, seed):
    t_grid = params["t_grid"]
    rep = check_tcd_semiconvexity(model, params["source"], params["target"],
                                  params["K"], params["n"], params["q"], t_grid,
                                  tolerance=params["tolerance"],
                                  cells_resolution=params["cells_resolution"],
                                  resolution=params["resolution"])
    rows_l = np.column_stack([t_grid, [float(v) for v in rep.lhs]])
    rows_r = np.column_stack([t_grid, [float(v) for v in rep.rhs]])
    return [rep], [_plot("entropy.csv", "t", "entropy", rows_l,
                         "interpolant entropy"),
                   _plot("entropy_bound.csv", "t", "bound", rows_r,
                         "semiconvexity bound")]


def _run_brunn_minkowski(model, params, seed):
    labels, lhs, rhs, prov = [], [], [], {}
    for t in params["t_list"]:
        rep = brunn_minkowski(model, params["source"], params["x1"],
                              params["K"], params["n"], t,
                              resolution=params["resolution"],
                              tolerance=params["tolerance"],
                              max_pairs=params["max_pairs"])
        labels.append(f"t={t:g}")
        lhs.append(float(rep.lhs[0]))
        rhs.append(float(rep.rhs[0]))
        prov[f"t={t:g}"] = rep.provenance
    merged = make_report("brunn-minkowski", lhs, rhs, params["tolerance"], labels,
                         prov)
    rows = np.column_stack([params["t_list"], merged.margin])
    return [merged], [_plot("margin.csv", "t", "margin", rows,
                            "volume-growth margin")]


def _run_bishop_gromov(model, params, seed):
    r_list = params["r_list"]
    rep = bishop_gromov(model, params["origin"], params["region"], params["K"],
                        params["n"], r_list, resolution=params["resolution"],
                        dr=params["dr"], tolerance=params["tolerance"])
    reports = [rep]
    vols = [float(v) for v in rep.provenance["volumes"]]
    areas = [float(v) for v in rep.provenance["areas"]]
    pairs = params["ratio_pairs"] or ()
    if pairs:
        labels, lhs, rhs = [], [], []
        for r, big_r in pairs:
            vr = vols[r_list.index(r)]
            vbig = vols[r_list.index(big_r)]
            dev = abs(vr / vbig - (r / big_r) ** params["n"])
            labels.append(f"ratio:r={r:g},R={big_r:g}")
            lhs.append(dev)
            rhs.append(params["ratio_tolerance"])
        reports.append(make_report("bishop-gromov-ratios", lhs, rhs, 0.0, labels,
                                   {"volumes": vols, "pairs": jsonable(pairs)}))
    return reports, [
        _plot("volumes.csv", "r", "volume", np.column_stack([r_list, vols]),
              "ball volume by radius"),
        _plot("areas.csv", "r", "area", np.column_stack([r_list, areas]),
              "level-set area by radius")]


def _run_bonnet_myers(model, params, seed):
    rep = bonnet_myers(model, params["K"], params["n"],
                       tolerance=params["tolerance"])
    reports = [rep]
    if params["window"] is not None:
        lo, hi = params["window"]
        diam = float(rep.lhs[0])
        reports.append(make_report("diameter-window", [lo, diam], [diam, hi], 0.0,
                                   [f"above:{lo:g}", f"below:{hi:g}"],
                                   {"diameter": diam, "window": [lo, hi]}))
    return reports, []


def _run_eikonal(model, params, seed):
    labels, lhs, rhs, prov = [], [], [], {}
    devs, spacings = [], []
    for res in params["resolutions"]:
        rep = eikonal_check(model, params["origin"], params["region"],
                            resolution=res)
        devs.append(float(rep.lhs[0]))
        spacings.append(float(rep.provenance["spacing"]))
        labels.append(f"res={res}")
        lhs.append(devs[-1])
        rhs.append(float(rep.rhs[0]))
        prov[f"res={res}"] = rep.provenance
    floor = params["order_floor"]
    if max(devs) <= floor:
        # all deviations sit at roundoff; a convergence order is meaningless
        labels.append("order:roundoff-floor")
        lhs.append(max(devs))
        rhs.append(floor)
        prov["order"] = None
    else:
        order = math.log(devs[0] / devs[-1]) / math.log(spacings[0] / spacings[-1])
        labels.append("order")
        lhs.append(params["order_min"])
        rhs.append(order)
        prov["order"] = order
    merged = make_report("eikonal", lhs, rhs, 0.0, labels, prov)
    return [merged], [_plot("deviation.csv", "spacing", "deviation",
                            np.column_stack([spacings, devs]),
                            "eikonal residual by grid spacing")]


def _run_brenier(model, params, seed):
    rng = np.random.default_rng(seed)
    count = params["count"]
    t_lo, t_hi = params["t_range"]
    x_lo, x_hi = params["x_range"]
    pts = tuple((float(t), float(x)) for t, x in
                zip(rng.uniform(t_lo, t_hi, count), rng.uniform(x_lo, x_hi, count)))
    mu1 = DiscreteMeasure(pts, np.full(count, 1.0 / count))
    resolutions = params["resolutions"]
    labels, lhs, rhs, prov = [], [], [], {}
    devs, spacings = [], []
    for res in resolutions:
        rep = brenier_mccann_check(model, params["origin"], mu1,
                                   params["q"], resolution=res)
        devs.append(float(rep.provenance["max_deviation"]))
        spacings.append(float(rep.provenance["spacing"]))
        labels += [f"res={res}:{lab}" for lab in rep.labels]
        lhs += list(rep.lhs)
        rhs += list(rep.rhs)
        prov[f"res={res}"] = {"max_deviation": devs[-1],
                              "mean_deviation": rep.provenance["mean_deviation"],
                              "spacing": spacings[-1]}
    for entries, step in zip((labels, lhs, rhs), ladder_steps(
            resolutions, devs, params["shrink_factor"], "shrink:{a}->{b}")):
        entries.extend(step)
    merged = make_report("brenier-mccann", lhs, rhs, 0.0, labels, prov)
    return [merged], [_plot("deviation.csv", "spacing", "max_deviation",
                            np.column_stack([spacings, devs]),
                            "endpoint-map deviation by grid spacing")]


def _run_dalembert(model, params, seed):
    resolutions, bumps = params["resolutions"], params["bumps"]
    labels, lhs, rhs, prov, plots = [], [], [], {}, []
    for i, bump in enumerate(bumps):
        devs, spacings = [], []
        for res in resolutions:
            rep = dalembert_check(model, params["origin"], bump,
                                  params["K"], params["n"], params["q_prime"],
                                  params["variant"], resolution=res)
            devs.append(abs(float(rep.lhs[0]) - float(rep.rhs[0])))
            spacings.append(float(rep.provenance["spacing"]))
            labels.append(f"bump{i}:res={res}")
            lhs.append(devs[-1])
            rhs.append(rep.tolerance)
        for entries, step in zip((labels, lhs, rhs), ladder_steps(
                resolutions, devs, 1.0, f"bump{i}:refine:{{a}}->{{b}}")):
            entries.extend(step)
        prov[f"bump{i}"] = {"center": list(bumps[i].center),
                            "radius": jsonable(bumps[i].radius),
                            "deviations": devs}
        plots.append(_plot(f"deviation_bump{i}.csv", "spacing", "deviation",
                           np.column_stack([spacings, devs]),
                           f"weak-identity deviation, bump {i}"))
    merged = make_report("dalembert", lhs, rhs, 0.0, labels,
                         {**prov, "variant": params["variant"]})
    return [merged], plots


def _run_needles(model, params, seed):
    window, box = params["window"], params["box"]
    dec = needle_decomposition(model, params["origin"], window,
                               n_rays=params["n_rays"], r=params["r"],
                               tau_samples=params["tau_samples"])
    exact = region_measure(model, box, params["reference_resolution"])
    l_max = float(dec.rays[0].tau[-1])
    expected = (window[1] - window[0]) * l_max * l_max / 2.0
    densities = dec.cd_densities(n_param=params["n"])
    results = [verify_cd_density(d) for d in densities]
    fraction = sum(r.passed for r in results) / len(results)
    weighted = model.weight_samples is not None
    labels = ["reassembly", "cd-pass-fraction"]
    lhs = [abs(dec.reassemble(box) - exact), 1.0]
    rhs = [params["box_tolerance"], fraction]
    if not weighted:
        # only the unweighted sector has the closed-form polar mass
        labels.append("total-mass")
        lhs.append(abs(dec.total_mass() - expected))
        rhs.append(1e-9)
    rep = make_report("needles", lhs, rhs, 0.0, labels,
                      {"rays": params["n_rays"], "l_max": l_max,
                       "box_measure": exact, "cd_fraction": fraction})
    rows = np.column_stack([[ray.rapidity for ray in dec.rays],
                            dec.quotient_weights])
    return [rep], [_plot("quotient.csv", "rapidity", "weight", rows,
                         "quotient measure over the needle fan")]


def _run_mollify(grid, params, seed):
    eps_list = params["eps_list"]
    axes = _invariant_axes(grid)
    labels, lhs, rhs = [], [], []
    errs = []
    for eps in eps_list:
        # cut along the axes the grid does not vary on: sup_error keeps its
        # bits (lipschitz_grid.mollify)
        sm = mollify(grid, eps, axes)
        errs.append(sm.sup_error)
        labels.append(f"eps={eps:g}")
        lhs.append(sm.sup_error)
        rhs.append(grid.lipschitz_bound * eps + 1e-12)
    rep = make_report("mollify", lhs, rhs, 0.0, labels,
                      {"lipschitz_bound": grid.lipschitz_bound, "eps_list": eps_list})
    return [rep], [_plot("sup_error.csv", "eps", "sup_error",
                         np.column_stack([eps_list, errs]),
                         "smoothing error by kernel radius")]


def _run_lp_deficit(grid, params, seed):
    eps_list = params["eps_list"]
    curves = lp_deficit_curves(grid, params["K"], params["p_list"], eps_list,
                               params["n"])
    reports, plots = [], []
    for p, curve in zip(params["p_list"], curves):
        levels, ds = zip(*curve)
        labels, lhs, rhs = ladder_steps(levels, ds, 1.0, f"p={p:g}:eps={{b:g}}<{{a:g}}")
        labels += [f"p={p:g}:strict-decrease", f"p={p:g}:final-ratio"]
        lhs += [1.0, ds[-1]]
        rhs += [float(all(b < a for a, b in zip(ds, ds[1:]))),
                params["final_ratio"] * ds[0]]
        reports.append(make_report(f"lp-deficit-p{p:g}", lhs, rhs, 0.0, labels,
                                   {"K": params["K"], "p": p, "eps_list": eps_list,
                                    "deficits": ds}))
        plots.append(_plot(f"deficit_p{p:g}.csv", "eps", "deficit",
                           np.column_stack([eps_list, ds]),
                           f"curvature deficit by kernel radius, p={p:g}"))
    return reports, plots


def _run_aubry(model, params, seed):
    rep = aubry_spacetime_check(model, params["K"], params["n"], params["p"],
                                c_const=params["c_const"],
                                k_fn=params["curvature"], boxes=params["boxes"],
                                raster=params["raster"],
                                n_needles=params["n_needles"],
                                needle_samples=params["needle_samples"])
    rows = [(row["x"], row["deficit"]) for row in rep.provenance["needles"]
            if "deficit" in row]
    plots = []
    if rows:
        plots.append(_plot("needle_deficits.csv", "x", "deficit",
                           np.asarray(rows, dtype=float),
                           "per-needle curvature deficit"))
    return [rep], plots


# ---------------------------------------------------------------------------
# command registry: help statement, default model, parameter declarations,
# runner, and the cross-field rule run before dispatch
# ---------------------------------------------------------------------------


def _bishop_gromov_rule(params, model):
    radii = params["r_list"]
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ConfigError("r_list must be strictly increasing")
    missing = sorted({r for pair in params["ratio_pairs"] or () for r in pair}
                     - set(radii))
    if missing:
        raise ConfigError(f"ratio_pairs name radii missing from r_list: {missing}")


def _dalembert_rule(params, model):
    # u = l^q / q with 1/q + 1/q' = 1 makes q' < 0 for the power variant
    power = params["variant"] == "power"
    if not (params["q_prime"] < 0.0 if power else 0.0 < params["q_prime"] < 1.0):
        raise ConfigError("q_prime must lie below 0 for the power variant, "
                          "in (0, 1) for the distance variant")


def _tmcp_rule(params, model):
    # check_tmcp reads n only into its provenance: each entropy exponent N'
    # below n would check a stronger statement than TMCP(K, n)
    n = params["n"]
    low = [v for v in params["n_prime_grid"] if v < n]
    if low:
        raise ConfigError(f"n_prime_grid entries must be at least n = {n:g}, got {low}")
    eq = params["equality_n_prime"]
    if eq is not None and eq < n:
        raise ConfigError(f"equality_n_prime must be at least n = {n:g}, got {eq:g}")


def _lp_deficit_rule(params, grid):
    eps, p_list, n = params["eps_list"], params["p_list"], params["n"]
    if any(b >= a for a, b in zip(eps, eps[1:])):
        raise ConfigError("eps_list must be strictly decreasing")
    # reports and plot files are named by f"{p:g}", so two exponents that
    # print alike would overwrite each other's deficit_p*.csv
    if len({f"{p:g}" for p in p_list}) < len(p_list):
        raise ConfigError(f"p_list values must be distinct, got {p_list}")
    # lipschitz_grid.bakry_emery has no finite correction term otherwise
    span = float(np.max(grid.weight_nodes) - np.min(grid.weight_nodes))
    if n < grid.dims or (n == grid.dims and span > 1e-12):
        raise ConfigError("lp-deficit needs n above the grid dimension, or equal "
                          "to it with a constant weight")


@dataclass(frozen=True)
class CommandSpec:
    """Each parameter is declared as name -> (type, default) or (type,
    default, quick default); the quick default resolves as ``quick_<name>``
    and takes the parameter's place when ``quick`` is on. ``models`` lists
    the model types the command runs on.

    ``imports`` names the heavy modules the runner needs; the only one is
    the HiGHS bindings scipy ships (``_highs.CORE``), which ``_highs.core``
    loads alone, without any scipy package, in about 7 ms. The package
    loads none at module level, so a command that needs none starts without
    it; ``ExperimentConfig.resolved`` loads a command's list, so the load is
    paid while the config is set up rather than inside ``run``. The
    functions that use a module still load it themselves, so a missing
    entry costs time, never correctness. It is not a parameter."""

    statement: str
    model: dict | None
    parameters: dict
    runner: Callable | None
    rule: Callable | None = None
    models: tuple = (ModelSpacetime,)
    imports: tuple = ()

    def defaults(self) -> dict:
        """The default parameter map: every default, quick twins, ``quick``."""
        out = {"quick": False}
        for name, (_, default, *quick) in self.parameters.items():
            out[name] = default
            out.update({f"quick_{name}": value for value in quick})
        return out


_BIG_FLAT = {"kind": "minkowski", "bounds": [[-2.5, 2.5], [-2.0, 2.0]]}
_T7 = [0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875]
_KINKED = {"kind": "kinked-grid", "slope": 0.25, "t_bounds": [-2.0, 2.0],
           "x_bounds": [0.0, 2.0], "shape": [1025, 129]}
_BUMPS3 = [{"center": [1.2, 0.0], "radius": 0.35},
           {"center": [0.9, -0.3], "radius": 0.25},
           {"center": [1.6, 0.4], "radius": 0.3}]
_ORIGIN = (_POINT, [0.0, 0.0])
_K0, _N2, _Q_HALF = (_REAL, 0.0), (_DIM, 2.0), (_Q, 0.5)
_EITHER = (ModelSpacetime, MetricGrid)
_LP = (_highs.CORE,)     # transport._optimal_plan, through _highs.solve

COMMANDS = {
    "distortion": CommandSpec(
        "closed forms, curvature monotonicity, and the defect inequality for "
        "the distortion coefficients",
        None,
        {"check": (_choice("all", "closed-forms", "ordering", "defect"), "all"),
         "kappas": (_list(_REAL), [-4.0, -1.0, 0.0, 1.0, 4.0]),
         "pairs": (_COUNT, 1000, 200), "tuples": (_COUNT, 1000, 200)},
        _run_distortion),
    "cd-verify": CommandSpec(
        "the one-dimensional model densities satisfy the curvature-dimension "
        "inequality; the explicit entropy-gap threshold formula",
        None,
        {"check": (_choice("all", "model-density", "delta-formula"), "all"),
         "k_values": (_list(_REAL), [-1.0, 0.0, 1.0, 4.0]),
         "n_values": (_list(_DIM), [2.0, 3.0, 4.5]), "tolerance": (_NONNEG, 1e-6),
         "tuples": (_COUNT, 100)},
        _run_cd_verify),
    "transport": CommandSpec(
        "optimality certificates for causal couplings and affine "
        "interpolation of the q-cost along displacement geodesics",
        {"kind": "minkowski", "bounds": [[-2.0, 2.0], [-2.0, 2.0]]},
        {"check": (_choice("all", "certificates", "q-geodesic"), "all"),
         "instances": (_COUNT, 50, 10), "origin": (_POINT, [-1.0, 0.0]), "q": _Q_HALF,
         "target": (_measure, {"uniform_on_box": [[0.8, 1.2], [-0.3, 0.3]],
                               "per_axis": 3}),
         "t_grid": (_TIMES, [0.0, 0.25, 0.5, 0.75, 1.0]),
         "gap_tolerance": (_NONNEG, 1e-6)},
        _run_transport, imports=_LP),
    "tmcp": CommandSpec(
        "the timelike measure-contraction entropy inequality toward a point",
        _BIG_FLAT,
        {"origin": _ORIGIN,
         "target": (_measure, {"uniform_on_box": [[1.0, 1.8], [-0.4, 0.4]],
                               "per_axis": 4}),
         "K": _K0, "n": _N2, "q": _Q_HALF, "t_grid": (_TIMES, _T7),
         "n_prime_grid": (_list(_DIM), [2.0, 3.0, 4.0]),
         "variant": (_choice("past", "future"), "past"), "tolerance": (_NONNEG, 1e-3),
         "equality_n_prime": (_optional(_DIM), 2.0),
         "equality_tolerance": (_NONNEG, 2e-3),
         "cells_resolution": (_RES, 256, 128), "resolution": (_RES, 257)},
        _run_tmcp, _tmcp_rule, imports=_LP),
    "tcd": CommandSpec(
        "displacement semiconvexity of the entropy between two measures "
        "(timelike curvature-dimension)",
        _BIG_FLAT,
        {"source": (_measure, {"uniform_on_box": [[0.2, 0.6], [-0.2, 0.2]],
                               "per_axis": 3}),
         "target": (_measure, {"uniform_on_box": [[1.6, 2.0], [-0.2, 0.2]],
                               "per_axis": 3}),
         "K": _K0, "n": _N2, "q": _Q_HALF, "t_grid": (_TIMES, [0.25, 0.5, 0.75]),
         "tolerance": (_NONNEG, 5e-3), "cells_resolution": (_RES, 256, 128),
         "resolution": (_RES, 257)},
        _run_tcd, imports=_LP),
    "brunn-minkowski": CommandSpec(
        "the timelike Brunn-Minkowski volume-growth inequality",
        _BIG_FLAT,
        {"source": _ORIGIN, "x1": (_region, {"box": [[1.0, 1.6], [-0.3, 0.3]]}),
         "K": _K0, "n": _N2, "t_list": (_list(_real(0.0, 1.0, as_float=True)), [0.5]),
         "resolution": (_RES, 512, 256), "tolerance": (_NONNEG, 5e-3),
         "max_pairs": (_COUNT, 400000)},
        _run_brunn_minkowski),
    "bishop-gromov": CommandSpec(
        "the timelike Bishop-Gromov volume and area monotonicity",
        {"kind": "minkowski", "bounds": [[-0.05, 1.35], [-0.85, 0.85]]},
        {"origin": _ORIGIN, "region": (_region, {"cone": {"slope": 0.6}}),
         "K": _K0, "n": _N2, "r_list": (_list(_POSITIVE, 2), [0.25, 0.5, 0.75, 1.0]),
         "resolution": (_RES, 1024), "dr": (_POSITIVE, 0.005),
         "tolerance": (_NONNEG, 5e-3),
         "ratio_pairs": (_optional(_list(_pair(_POSITIVE), 0)),
                         [[0.5, 1.0], [0.25, 1.0], [0.5, 0.75]]),
         "ratio_tolerance": (_NONNEG, 1e-3)},
        _run_bishop_gromov, _bishop_gromov_rule),
    "bonnet-myers": CommandSpec(
        "the timelike Bonnet-Myers diameter bound",
        {"kind": "desitter", "delta": 0.02, "x_half": 1.0},
        {"K": (_POSITIVE, 1.0), "n": _N2, "tolerance": (_NONNEG, 0.02),
         "window": (_optional(_pair(_real(as_float=True), increasing=True)),
                    [math.pi - 0.1, math.pi + 0.05])},
        _run_bonnet_myers),
    "dalembert": CommandSpec(
        "the distributional wave-operator comparison for powers of the "
        "time separation against smooth bumps",
        {"kind": "minkowski", "bounds": [[0.0, 2.6], [-1.2, 1.2]]},
        {"origin": _ORIGIN, "K": _K0, "n": _N2, "q_prime": (_REAL, 0.5),
         "variant": (_choice("distance", "power"), "distance"),
         "bumps": (_list(_bump), _BUMPS3),
         "resolutions": (_list(_RES), [65, 129, 257], [65, 129])},
        _run_dalembert, _dalembert_rule, _EITHER),
    "eikonal": CommandSpec(
        "the eikonal identity for the gradient of the time separation",
        {"kind": "minkowski", "bounds": [[0.0, 2.0], [-1.0, 1.0]]},
        {"origin": _ORIGIN,
         "region": (_region, {"cone": {"slope": 0.6, "t_min": 0.5}}),
         # the order fit needs two levels
         "resolutions": (_list(_RES, 2), [129, 257], [65, 129]),
         "order_floor": (_NONNEG, 1e-10), "order_min": (_REAL, 0.9)},
        _run_eikonal, None, _EITHER),
    "brenier": CommandSpec(
        "the gradient representation of the optimal map between a point "
        "mass and a discrete target",
        {"kind": "minkowski", "bounds": [[-0.5, 2.5], [-1.0, 1.0]]},
        {"origin": _ORIGIN, "q": _Q_HALF, "count": (_COUNT, 50),
         "t_range": (_pair(_REAL, increasing=True), [0.9, 1.8]),
         "x_range": (_pair(_REAL, increasing=True), [-0.5, 0.5]),
         "resolutions": (_list(_RES), [257, 513], [129, 257]),
         "shrink_factor": (_POSITIVE, 0.75)},
        _run_brenier, imports=_LP),
    "needles": CommandSpec(
        "localization of the chart volume into one-dimensional needle "
        "densities over a radial fan",
        {"kind": "minkowski", "bounds": [[0.0, 1.5], [-1.5, 1.5]]},
        {"origin": _ORIGIN, "window": (_pair(_REAL, increasing=True), [-0.8, 0.8]),
         "n_rays": (_COUNT, 64), "r": (_POSITIVE, 0.1), "tau_samples": (_RES, 4097),
         "box": (_box_region, [[0.6, 1.1], [-0.2, 0.2]]),
         "box_tolerance": (_NONNEG, 1e-3), "n": _N2,
         "reference_resolution": (_RES, 4096, 2048)},
        _run_needles),
    "mollify": CommandSpec(
        "the linear-in-radius error bound for metric mollification",
        _KINKED,
        {"eps_list": (_EPS_LIST, [0.6, 0.3, 0.15])},
        _run_mollify, None, (MetricGrid,)),
    "lp-deficit": CommandSpec(
        "decay of the integral curvature deficit under shrinking "
        "mollification radii",
        _KINKED,
        {"K": _K0, "p_list": (_list(_POSITIVE), [1.0, 2.0]),
         "eps_list": (_EPS_LIST, [0.8, 0.5, 0.3, 0.15]), "n": (_REAL, 2.0),
         "final_ratio": (_NONNEG, 0.1)},
        _run_lp_deficit, _lp_deficit_rule, (MetricGrid,)),
    "aubry": CommandSpec(
        "the deficit-perturbed diameter bound and its needle reduction",
        {"kind": "desitter", "delta": 0.02, "x_half": 1.0},
        {"K": (_POSITIVE, 1.0), "n": _N2, "p": (_real(1.0), 2.0),
         "c_const": (_POSITIVE, 10.0), "curvature": (_curvature, "default"),
         "boxes": (_COUNT, 4), "raster": (_RES, 256, 128),
         "n_needles": (_COUNT, 9),
         "needle_samples": (_RES, 1025)},
        _run_aubry),
}
# the suite replays the other commands, so it needs what any of them needs
COMMANDS["suite"] = CommandSpec(
    "the full acceptance matrix, one table row per criterion",
    None,
    {"mode": (_choice("quick", "full"), "full")},
    None,
    imports=tuple(sorted({m for spec in COMMANDS.values() for m in spec.imports})))


# ---------------------------------------------------------------------------
# checking, running and writing
# ---------------------------------------------------------------------------


def _checked(config: ExperimentConfig):
    """Everything that runs before dispatch: resolve the config, check each
    parameter (and its quick twin) against its declared type, put the quick
    twins in place, build the model, and apply the command's cross-field
    rule. Returns the model and the typed parameters the runner reads."""
    spec = COMMANDS[config.command]
    resolved = config.resolved()
    raw = resolved["parameters"]
    quick = _choice(False, True)(raw["quick"], "quick")
    params = {}
    for name, (kind, _, *twin) in spec.parameters.items():
        keys = [name] + [f"quick_{name}"] * len(twin)
        values = [kind(raw[key], key) for key in keys]
        params[name] = values[-1] if quick else values[0]
    model = _build_model(resolved["model"])
    if model is not None and not isinstance(model, spec.models):
        raise ConfigError(
            f"command {config.command!r} cannot run on a {type(model).__name__}")
    if spec.rule is not None:
        spec.rule(params, model)
    return model, params


def _now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def _write_outputs(out_dir: Path, record: RunRecord, reports, plots) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(record.to_json())
    (out_dir / "margins.csv").write_text(csv_text(
        ("report", "label", "lhs", "rhs", "margin"),
        ((rep.name, *row) for rep in reports
         for row in zip(rep.labels, rep.lhs, rep.rhs, rep.margin))))
    plot_dir = out_dir / "plots"
    plot_dir.mkdir(exist_ok=True)
    manifest = []
    for plot in plots:
        (plot_dir / plot["file"]).write_text(
            csv_text((plot["x"], plot["y"]), plot["rows"]))
        manifest.append({"file": plot["file"],
                         "columns": [plot["x"], plot["y"]],
                         "title": plot["title"]})
    (plot_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def run(config: ExperimentConfig) -> RunRecord:
    """Check, dispatch, and persist one experiment run."""
    return _dispatch(config, *_checked(config))


def _dispatch(config: ExperimentConfig, model, params) -> RunRecord:
    """Run a checked config and write its outputs."""
    started = _now()
    if config.command == "suite":
        reports, plots = _suite_rows(params["mode"], config.seed)
    else:
        reports, plots = COMMANDS[config.command].runner(model, params, config.seed)
    finished = _now()
    record = RunRecord(config.config_hash(), config.command, config.seed,
                       __version__, started, finished,
                       [json.loads(rep.to_json()) for rep in reports],
                       all(rep.passed for rep in reports))
    _write_outputs(Path(config.output_dir), record, reports, plots)
    return record


# ---------------------------------------------------------------------------
# the acceptance matrix
# ---------------------------------------------------------------------------


def _suite_row_configs(mode: str):
    """One (title, command, parameter overrides) triple per criterion."""
    quick = mode == "quick"
    q = {"quick": quick}
    return [
        ("distortion closed forms", "distortion", {"check": "closed-forms", **q}),
        ("distortion ordering", "distortion", {"check": "ordering", **q}),
        ("defect bound domination", "distortion", {"check": "defect", **q}),
        ("model densities verified", "cd-verify", {"check": "model-density", **q}),
        ("entropy-gap threshold formula", "cd-verify", {"check": "delta-formula", **q}),
        ("coupling certificates", "transport", {"check": "certificates", **q}),
        ("q-geodesic interpolation", "transport", {"check": "q-geodesic", **q}),
        ("entropy contraction on a flat chart", "tmcp", q),
        ("volume monotonicity on a cone", "bishop-gromov", q),
        ("diameter window on the closed model", "bonnet-myers", q),
        ("eikonal identity", "eikonal", q),
        ("wave comparison under refinement", "dalembert", q),
        ("curvature-deficit decay on a kinked grid", "lp-deficit", q),
        ("needle reassembly and ray densities", "needles", q),
        ("endpoint-map deviation", "brenier", q),
    ]


def _suite_rows(mode: str, seed: int):
    rows = _suite_row_configs(mode)

    def one(idx, title, cmd, overrides):
        t0 = time.perf_counter()
        model, params = _checked(ExperimentConfig(cmd, None, overrides, "", seed))
        reports, _ = COMMANDS[cmd].runner(model, params, [seed, idx])
        elapsed = time.perf_counter() - t0
        passed = all(rep.passed for rep in reports)
        worst = min(rep.worst_margin() for rep in reports)
        return idx, title, passed, worst, elapsed

    results = [one(idx, *row) for idx, row in enumerate(rows, start=1)]

    labels, lhs, rhs = [], [], []
    prov = {"mode": mode, "rows": []}
    width = max(len(title) for title, _, _ in rows)
    print(f"{'row':>3}  {'check':<{width}}  {'status':<6}  "
          f"{'worst margin':>13}  {'seconds':>8}")
    for idx, title, passed, worst, elapsed in results:
        print(f"{idx:>3}  {title:<{width}}  {'PASS' if passed else 'FAIL':<6}  "
              f"{worst:>13.3e}  {elapsed:>8.1f}")
        labels.append(f"{idx:02d} {title}")
        lhs.append(0.0 if passed else 1.0)
        rhs.append(0.0)
        prov["rows"].append({"row": idx, "check": title, "passed": passed,
                             "worst_margin": worst})
    return [make_report("suite", lhs, rhs, 0.0, labels, prov)], []


def suite(mode: str = "full", seed: int = 0,
          output_dir: str | None = None) -> RunRecord:
    """Run the acceptance matrix; returns the persisted record."""
    config = ExperimentConfig.from_mapping(
        {"command": "suite", "parameters": {"mode": mode}, "seed": seed,
         **({"output_dir": output_dir} if output_dir else {})})
    return run(config)


# ---------------------------------------------------------------------------
# argument parsing and entry point
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(json.dumps({"error": "usage-error", "detail": message}),
              file=sys.stderr)
        raise SystemExit(2)


def _build_parser() -> _Parser:
    parser = _Parser(prog="lorentz-synth",
                     description="Run synthetic-curvature verification "
                                 "experiments and write their reports.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, spec in COMMANDS.items():
        p = sub.add_parser(name, help=f"verify {spec.statement}",
                           description=f"Verifies {spec.statement}.")
        p.add_argument("--config", metavar="PATH",
                       help="JSON experiment config to load")
        p.add_argument("--out", metavar="DIR",
                       help="output directory (default runs/<command>)")
        p.add_argument("--seed", type=int, default=None,
                       help="RNG seed (default 0)")
        p.add_argument("--quick", action="store_true",
                       help="restrict resolutions and sample counts")
        if name == "suite":
            p.add_argument("--mode", choices=("quick", "full"), default=None,
                           help="acceptance matrix mode (default full)")
    return parser


def _error_json(kind: str, detail: str) -> None:
    print(json.dumps({"error": kind, "detail": detail}), file=sys.stderr)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    data = {}
    if args.config is not None:
        path = Path(args.config)
        if not path.is_file():
            _error_json("invalid-config", f"config file not found: {args.config}")
            return 2
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            _error_json("parse-error", str(exc))
            return 2
    try:
        config = ExperimentConfig.from_mapping(data, command=args.command)
        params = dict(config.parameters)
        if args.quick:
            params["quick"] = True
        if args.command == "suite" and args.mode is not None:
            params["mode"] = args.mode
        if args.command == "suite" and args.quick:
            params["mode"] = "quick"
        config = ExperimentConfig(
            config.command, config.model, params,
            args.out if args.out is not None else config.output_dir,
            args.seed if args.seed is not None else config.seed)
        model, params = _checked(config)
    except Exception as exc:        # anything raised before dispatch: exit 2
        _error_json("invalid-config", str(exc))
        return 2
    try:
        record = _dispatch(config, model, params)
    except Exception as exc:        # anything raised after dispatch: exit 3
        _error_json("verifier-error", f"{type(exc).__name__}: {exc}")
        return 3
    for rep in record.payload()["reports"]:
        worst = min(rep["margin"]) if rep["margin"] else 0.0
        print(f"{rep['name']}: {'PASS' if rep['passed'] else 'FAIL'} "
              f"(worst margin {worst:.3e})")
    print(f"wrote {config.output_dir} (config {record.config_hash[:12]})")
    return 0 if record.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
