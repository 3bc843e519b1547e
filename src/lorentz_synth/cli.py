"""Experiment runner behind the ``lorentz-synth`` console script.

Each subcommand drives one verification suite end to end: it builds the
requested chart, runs the library checks, and writes a ``report.json``, a
flat ``margins.csv``, and two-column plot CSVs (with a ``manifest.json``)
into the output directory.  Runs are deterministic: the same resolved
configuration and seed produce bit-identical report payloads and CSV bytes.
Exit status is 0 when every report passes, 1 when one fails, 2 for
configuration problems, and 3 when a verifier raises; the latter two print a
one-line structured error JSON.

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

from . import __version__
from .comparison import (BumpFunction, aubry_spacetime_check, bishop_gromov,
                         bonnet_myers, brenier_mccann_check, brunn_minkowski,
                         check_tcd_semiconvexity, check_tmcp, csv_text,
                         dalembert_check, eikonal_check, jsonable, make_report,
                         needle_decomposition)
from .distortion import (KappaProfile, const_first_zero, const_sine,
                         defect_bound, first_zero, generalized_sine,
                         sigma_coeff, tau_coeff)
from .extreal import is_inf
from .lipschitz_grid import (load_grid, lp_deficit_curves, minkowski_grid,
                             mollify, warped_grid)
from .models import (cosh_warp_model, desitter_like, kinked_slab, minkowski,
                     region_measure, warped_product)
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
        the computation, so it must not influence the hash either.
        """
        spec = COMMANDS[self.command]
        model = self.model if self.model is not None else spec.model
        params = dict(spec.parameters)
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
# building blocks from config JSON
# ---------------------------------------------------------------------------


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


def _check_grid_file(spec):
    path = Path(spec.get("path", ""))
    if not path.is_file() or not path.with_suffix(path.suffix + ".json").is_file():
        raise ConfigError(f"grid file not found: {spec.get('path')!r}")


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


@dataclass(frozen=True)
class ModelKind:
    """One model ``kind`` of a config: how it is built from its spec, the
    keys the spec must carry, whether it is a sampled metric grid (rather
    than a chart), and any further check run before dispatch."""

    build: Callable
    required: tuple = ()
    grid: bool = False
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
    "grid": ModelKind(lambda spec: load_grid(spec["path"]), grid=True,
                      check=_check_grid_file),
    "minkowski-grid": ModelKind(lambda spec: minkowski_grid(
        tuple(map(tuple, spec["bounds"])), tuple(spec["shape"])),
        ("bounds", "shape"), grid=True),
    "kinked-grid": ModelKind(_kinked_grid, grid=True, check=_check_kinked_grid),
}


def _model_kind(spec) -> ModelKind:
    kind = spec.get("kind")
    if kind not in MODEL_KINDS:
        raise ConfigError(f"unknown model kind {kind!r}")
    return MODEL_KINDS[kind]


def _build_model(spec):
    return None if spec is None else _model_kind(spec).build(spec)


def _validate_model(spec):
    if spec is None:
        return
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("model spec must be a mapping with a 'kind'")
    kind = _model_kind(spec)
    missing = [key for key in kind.required if key not in spec]
    if missing:
        raise ConfigError(f"model kind {spec['kind']!r} needs {missing}")
    if kind.check is not None:
        kind.check(spec)


def _build_measure(spec) -> DiscreteMeasure:
    if "dirac" in spec:
        return dirac(tuple(float(v) for v in spec["dirac"]))
    if "uniform_on_box" in spec:
        return uniform_on_box(tuple(map(tuple, spec["uniform_on_box"])),
                              int(spec.get("per_axis", 3)))
    if "points" in spec:
        pts = tuple(tuple(float(v) for v in p) for p in spec["points"])
        weights = spec.get("weights")
        w = (np.full(len(pts), 1.0 / len(pts)) if weights is None
             else np.asarray(weights, dtype=float))
        return DiscreteMeasure(pts, w)
    raise ConfigError(f"cannot build a measure from {spec!r}")


def _build_region(spec):
    if "box" in spec:
        (t0, t1), (x0, x1) = [tuple(map(float, b)) for b in spec["box"]]
        return lambda p: ((p[..., 0] > t0) & (p[..., 0] < t1)
                          & (p[..., 1] > x0) & (p[..., 1] < x1))
    if "cone" in spec:
        cone = spec["cone"]
        slope = float(cone.get("slope", 0.6))
        t_min = float(cone.get("t_min", -math.inf))
        return lambda p: (np.abs(p[..., 1]) <= slope * p[..., 0]) & (p[..., 0] >= t_min)
    raise ConfigError(f"cannot build a region from {spec!r}")


def _build_bump(spec) -> BumpFunction:
    return BumpFunction(tuple(float(v) for v in spec["center"]),
                        float(spec["radius"]))


def _plot(file, x, y, rows, title):
    return {"file": file, "x": x, "y": y,
            "rows": np.asarray(rows, dtype=float), "title": title}


def _pick(params, key):
    """Value of ``key``, or of its ``quick_`` twin when quick mode is on."""
    if params.get("quick") and f"quick_{key}" in params:
        return params[f"quick_{key}"]
    return params[key]


# ---------------------------------------------------------------------------
# runners (one per subcommand)
# ---------------------------------------------------------------------------


def _run_distortion(model, params, rng):
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
        n = int(_pick(params, "pairs"))
        worst_sigma = worst_tau = worst_dom = 0.0
        for _ in range(n):
            a, b = rng.uniform(-4.0, 4.0, 2)
            d0, d1 = rng.uniform(0.0, 3.0, 2)
            length = float(rng.uniform(1.0, 2.5))
            n_param = float(rng.choice((2.0, 3.0, 4.5)))
            t = float(rng.uniform(0.0, 1.0))
            theta = float(rng.uniform(0.05, 0.95)) * length
            upper = KappaProfile.from_samples([[0.0, a], [length, b]])
            lower = KappaProfile.from_samples([[0.0, a - d0], [length, b - d1]])
            s_up = sigma_coeff(upper.scaled(1.0 / n_param), t, theta)
            s_lo = sigma_coeff(lower.scaled(1.0 / n_param), t, theta)
            if not is_inf(s_up):
                worst_sigma = max(worst_sigma, s_lo - s_up)
            t_up = tau_coeff(upper, n_param, t, theta)
            t_lo = tau_coeff(lower, n_param, t, theta)
            if not is_inf(t_up):
                worst_tau = max(worst_tau, t_lo - t_up)
                if not is_inf(s_up):
                    worst_dom = max(worst_dom, s_up - t_up)
        reports.append(make_report(
            "distortion-ordering", [worst_sigma, worst_tau, worst_dom], [1e-10] * 3,
            0.0, ["sigma-monotone", "tau-monotone", "tau-dominates-sigma"],
            {"pairs": n}))
    if check in ("defect", "all"):
        n = int(_pick(params, "tuples"))
        worst = 0.0
        used = skipped = 0
        while used < n and skipped < 20 * n:
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
            bound = defect_bound(big_k, n_param, p, eta, prof, t, theta)
            t_model = tau_coeff(KappaProfile.constant(big_k, length), n_param, t, theta)
            t_prof = tau_coeff(prof, n_param, t, theta)
            if is_inf(t_model) or is_inf(t_prof):
                skipped += 1
                continue
            worst = max(worst, (t_model - t_prof) - bound)
            used += 1
        reports.append(make_report("defect-bound", [worst], [1e-8], 0.0,
                                   ["defect-dominated"],
                                   {"tuples": used, "skipped": skipped}))
    return reports, plots


def _run_cd_verify(model, params, rng):
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
        n = int(params["tuples"])
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


def _run_transport(model, params, rng):
    check = params["check"]
    reports, plots = [], []
    if check in ("certificates", "all"):
        n_inst = int(_pick(params, "instances"))
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
        src = dirac(tuple(params["origin"]))
        target = _build_measure(params["target"])
        q = float(params["q"])
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
                                   {"q": q, "t_grid": list(params["t_grid"]),
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


def _run_tmcp(model, params, rng):
    mu1 = _build_measure(params["target"])
    t_grid = tuple(float(t) for t in params["t_grid"])
    n_primes = tuple(float(v) for v in params["n_prime_grid"])
    rep = check_tmcp(model, tuple(params["origin"]), mu1, params["K"],
                     params["n"], params["q"], t_grid, n_primes,
                     variant=params["variant"], tolerance=params["tolerance"],
                     cells_resolution=int(_pick(params, "cells_resolution")),
                     resolution=int(params["resolution"]))
    reports = [rep]
    eq = params.get("equality_n_prime")
    if eq is not None:
        labels, lhs, rhs = [], [], []
        for lab, m in zip(rep.labels, rep.margin):
            if lab.startswith("t=") and lab.endswith(f"N'={float(eq):g}"):
                labels.append(f"eq:{lab}")
                lhs.append(abs(float(m)))
                rhs.append(params["equality_tolerance"])
        reports.append(make_report("tmcp-equality", lhs, rhs, 0.0, labels,
                                   {"n_prime": eq,
                                    "tolerance": params["equality_tolerance"]}))
    return reports, _tmcp_plots(rep, t_grid, n_primes, "entropy")


def _run_tcd(model, params, rng):
    mu0 = _build_measure(params["source"])
    mu1 = _build_measure(params["target"])
    t_grid = tuple(float(t) for t in params["t_grid"])
    rep = check_tcd_semiconvexity(model, mu0, mu1, params["K"], params["n"],
                                  params["q"], t_grid,
                                  tolerance=params["tolerance"],
                                  cells_resolution=int(_pick(params, "cells_resolution")),
                                  resolution=int(params["resolution"]))
    rows_l = np.column_stack([t_grid, [float(v) for v in rep.lhs]])
    rows_r = np.column_stack([t_grid, [float(v) for v in rep.rhs]])
    return [rep], [_plot("entropy.csv", "t", "entropy", rows_l,
                         "interpolant entropy"),
                   _plot("entropy_bound.csv", "t", "bound", rows_r,
                         "semiconvexity bound")]


def _run_brunn_minkowski(model, params, rng):
    region = _build_region(params["x1"])
    labels, lhs, rhs, prov = [], [], [], {}
    for t in params["t_list"]:
        rep = brunn_minkowski(model, tuple(params["source"]), region,
                              params["K"], params["n"], float(t),
                              resolution=int(_pick(params, "resolution")),
                              tolerance=params["tolerance"],
                              max_pairs=int(params["max_pairs"]))
        labels.append(f"t={t:g}")
        lhs.append(float(rep.lhs[0]))
        rhs.append(float(rep.rhs[0]))
        prov[f"t={t:g}"] = rep.provenance
    merged = make_report("brunn-minkowski", lhs, rhs, params["tolerance"], labels,
                         prov)
    rows = np.column_stack([[float(t) for t in params["t_list"]], merged.margin])
    return [merged], [_plot("margin.csv", "t", "margin", rows,
                            "volume-growth margin")]


def _run_bishop_gromov(model, params, rng):
    region = _build_region(params["region"])
    r_list = tuple(float(r) for r in params["r_list"])
    rep = bishop_gromov(model, tuple(params["origin"]), region, params["K"],
                        params["n"], r_list,
                        resolution=int(_pick(params, "resolution")),
                        dr=params["dr"], tolerance=params["tolerance"])
    reports = [rep]
    vols = [float(v) for v in rep.provenance["volumes"]]
    areas = [float(v) for v in rep.provenance["areas"]]
    pairs = params.get("ratio_pairs") or ()
    if pairs:
        labels, lhs, rhs = [], [], []
        for r, big_r in pairs:
            vr = vols[r_list.index(float(r))]
            vbig = vols[r_list.index(float(big_r))]
            dev = abs(vr / vbig - (float(r) / float(big_r)) ** params["n"])
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


def _run_bonnet_myers(model, params, rng):
    rep = bonnet_myers(model, params["K"], params["n"],
                       resolution=int(_pick(params, "resolution")),
                       tolerance=params["tolerance"])
    reports = [rep]
    window = params.get("window")
    if window:
        lo, hi = float(window[0]), float(window[1])
        diam = float(rep.lhs[0])
        reports.append(make_report("diameter-window", [lo, diam], [diam, hi], 0.0,
                                   [f"above:{lo:g}", f"below:{hi:g}"],
                                   {"diameter": diam, "window": [lo, hi]}))
    return reports, []


def _run_eikonal(model, params, rng):
    region = _build_region(params["region"])
    resolutions = [int(r) for r in _pick(params, "resolutions")]
    labels, lhs, rhs, prov = [], [], [], {}
    devs, spacings = [], []
    for res in resolutions:
        rep = eikonal_check(model, tuple(params["origin"]), region,
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


def _run_brenier(model, params, rng):
    count = int(params["count"])
    t_lo, t_hi = params["t_range"]
    x_lo, x_hi = params["x_range"]
    pts = tuple((float(t), float(x)) for t, x in
                zip(rng.uniform(t_lo, t_hi, count), rng.uniform(x_lo, x_hi, count)))
    mu1 = DiscreteMeasure(pts, np.full(count, 1.0 / count))
    resolutions = [int(r) for r in _pick(params, "resolutions")]
    labels, lhs, rhs, prov = [], [], [], {}
    devs, spacings = [], []
    for res in resolutions:
        rep = brenier_mccann_check(model, tuple(params["origin"]), mu1,
                                   params["q"], resolution=res)
        devs.append(float(rep.provenance["max_deviation"]))
        spacings.append(float(rep.provenance["spacing"]))
        for lab, a, b in zip(rep.labels, rep.lhs, rep.rhs):
            labels.append(f"res={res}:{lab}")
            lhs.append(float(a))
            rhs.append(float(b))
        prov[f"res={res}"] = {"max_deviation": devs[-1],
                              "mean_deviation": rep.provenance["mean_deviation"],
                              "spacing": spacings[-1]}
    factor = params["shrink_factor"]
    for (r0, d0), (r1, d1) in zip(zip(resolutions, devs), zip(resolutions[1:], devs[1:])):
        labels.append(f"shrink:{r0}->{r1}")
        lhs.append(d1)
        rhs.append(factor * d0)
    merged = make_report("brenier-mccann", lhs, rhs, 0.0, labels, prov)
    return [merged], [_plot("deviation.csv", "spacing", "max_deviation",
                            np.column_stack([spacings, devs]),
                            "endpoint-map deviation by grid spacing")]


def _run_dalembert(model, params, rng):
    resolutions = [int(r) for r in _pick(params, "resolutions")]
    bumps = [_build_bump(b) for b in params["bumps"]]
    labels, lhs, rhs, prov = [], [], [], {}
    plots = []
    for i, bump in enumerate(bumps):
        devs, spacings = [], []
        for res in resolutions:
            rep = dalembert_check(model, tuple(params["origin"]), bump,
                                  params["K"], params["n"], params["q_prime"],
                                  params["variant"], resolution=res)
            dev = abs(float(rep.lhs[0]) - float(rep.rhs[0]))
            spacing = float(rep.provenance["spacing"])
            devs.append(dev)
            spacings.append(spacing)
            labels.append(f"bump{i}:res={res}")
            lhs.append(dev)
            rhs.append(10.0 * spacing)
        for (r0, d0), (r1, d1) in zip(zip(resolutions, devs),
                                      zip(resolutions[1:], devs[1:])):
            labels.append(f"bump{i}:refine:{r0}->{r1}")
            lhs.append(d1)
            rhs.append(d0)
        prov[f"bump{i}"] = {"center": list(bumps[i].center),
                            "radius": jsonable(bumps[i].radius),
                            "deviations": devs}
        plots.append(_plot(f"deviation_bump{i}.csv", "spacing", "deviation",
                           np.column_stack([spacings, devs]),
                           f"weak-identity deviation, bump {i}"))
    merged = make_report("dalembert", lhs, rhs, 0.0, labels,
                         {**prov, "variant": params["variant"]})
    return [merged], plots


def _run_needles(model, params, rng):
    window = tuple(float(v) for v in params["window"])
    dec = needle_decomposition(model, tuple(params["origin"]), window,
                               n_rays=int(params["n_rays"]),
                               r=params["r"],
                               tau_samples=int(params["tau_samples"]))
    box = _build_region({"box": params["box"]})
    exact = region_measure(model, box, int(_pick(params, "reference_resolution")))
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
                      {"rays": int(params["n_rays"]), "l_max": l_max,
                       "box_measure": exact, "cd_fraction": fraction})
    rows = np.column_stack([[ray.rapidity for ray in dec.rays],
                            dec.quotient_weights])
    return [rep], [_plot("quotient.csv", "rapidity", "weight", rows,
                         "quotient measure over the needle fan")]


def _run_mollify(grid, params, rng):
    eps_list = [float(e) for e in params["eps_list"]]
    labels, lhs, rhs = [], [], []
    errs = []
    for eps in eps_list:
        sm = mollify(grid, eps)
        errs.append(sm.sup_error)
        labels.append(f"eps={eps:g}")
        lhs.append(sm.sup_error)
        rhs.append(grid.lipschitz_bound * eps + 1e-12)
    rep = make_report("mollify", lhs, rhs, 0.0, labels,
                      {"lipschitz_bound": grid.lipschitz_bound, "eps_list": eps_list})
    return [rep], [_plot("sup_error.csv", "eps", "sup_error",
                         np.column_stack([eps_list, errs]),
                         "smoothing error by kernel radius")]


def _run_lp_deficit(grid, params, rng):
    eps_list = [float(e) for e in params["eps_list"]]
    curves = lp_deficit_curves(grid, params["K"],
                               [float(p) for p in params["p_list"]],
                               eps_list, params["n"])
    reports, plots = [], []
    for p, curve in zip(params["p_list"], curves):
        ds = [d for _, d in curve]
        labels, lhs, rhs = [], [], []
        for (e0, d0), (e1, d1) in zip(curve, curve[1:]):
            labels.append(f"p={p:g}:eps={e1:g}<{e0:g}")
            lhs.append(d1)
            rhs.append(d0)
        labels.append(f"p={p:g}:strict-decrease")
        lhs.append(1.0)
        rhs.append(float(all(b < a for a, b in zip(ds, ds[1:]))))
        labels.append(f"p={p:g}:final-ratio")
        lhs.append(ds[-1])
        rhs.append(params["final_ratio"] * ds[0])
        reports.append(make_report(f"lp-deficit-p{p:g}", lhs, rhs, 0.0, labels,
                                   {"K": params["K"], "p": p, "eps_list": eps_list,
                                    "deficits": ds}))
        plots.append(_plot(f"deficit_p{p:g}.csv", "eps", "deficit",
                           np.column_stack([eps_list, ds]),
                           f"curvature deficit by kernel radius, p={p:g}"))
    return reports, plots


def _curvature_fn(spec):
    if spec is None or spec == "default":
        return None
    if "constant" in spec:
        v = float(spec["constant"])
        return lambda t: v * np.ones_like(np.asarray(t, dtype=float))
    if "dip" in spec:
        floor = float(spec["dip"].get("floor", 1.0))
        depth = float(spec["dip"].get("depth", 0.05))
        width = float(spec["dip"].get("width", 0.2))
        return lambda t: floor - depth * np.exp(-(np.asarray(t, dtype=float) / width) ** 2)
    raise ConfigError(f"cannot build a curvature floor from {spec!r}")


def _run_aubry(model, params, rng):
    rep = aubry_spacetime_check(model, params["K"], params["n"], params["p"],
                                c_const=params["c_const"],
                                k_fn=_curvature_fn(params["curvature"]),
                                boxes=int(params["boxes"]),
                                raster=int(_pick(params, "raster")),
                                resolution=int(_pick(params, "resolution")),
                                n_needles=int(params["n_needles"]),
                                needle_samples=int(params["needle_samples"]))
    rows = [(row["x"], row["deficit"]) for row in rep.provenance["needles"]
            if "deficit" in row]
    plots = []
    if rows:
        plots.append(_plot("needle_deficits.csv", "x", "deficit",
                           np.asarray(rows, dtype=float),
                           "per-needle curvature deficit"))
    return [rep], plots


def _run_suite(model, params, rng):
    raise ConfigError("the suite command does not run through a single runner")


# ---------------------------------------------------------------------------
# command registry: help statement, default model, default parameters, runner
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CommandSpec:
    statement: str
    model: dict | None
    parameters: dict
    runner: object


_BIG_FLAT = {"kind": "minkowski", "bounds": [[-2.5, 2.5], [-2.0, 2.0]]}
_T7 = [0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875]
_KINKED = {"kind": "kinked-grid", "slope": 0.25, "t_bounds": [-2.0, 2.0],
           "x_bounds": [0.0, 2.0], "shape": [1025, 129]}
_BUMPS3 = [{"center": [1.2, 0.0], "radius": 0.35},
           {"center": [0.9, -0.3], "radius": 0.25},
           {"center": [1.6, 0.4], "radius": 0.3}]

COMMANDS = {
    "distortion": CommandSpec(
        "closed forms, curvature monotonicity, and the defect inequality for "
        "the distortion coefficients",
        None,
        {"check": "all", "kappas": [-4.0, -1.0, 0.0, 1.0, 4.0],
         "pairs": 1000, "quick_pairs": 200, "tuples": 1000, "quick_tuples": 200,
         "quick": False},
        _run_distortion),
    "cd-verify": CommandSpec(
        "the one-dimensional model densities satisfy the curvature-dimension "
        "inequality; the explicit entropy-gap threshold formula",
        None,
        {"check": "all", "k_values": [-1.0, 0.0, 1.0, 4.0],
         "n_values": [2.0, 3.0, 4.5], "tolerance": 1e-6, "tuples": 100,
         "quick": False},
        _run_cd_verify),
    "transport": CommandSpec(
        "optimality certificates for causal couplings and affine "
        "interpolation of the q-cost along displacement geodesics",
        {"kind": "minkowski", "bounds": [[-2.0, 2.0], [-2.0, 2.0]]},
        {"check": "all", "instances": 50, "quick_instances": 10,
         "origin": [-1.0, 0.0], "q": 0.5,
         "target": {"uniform_on_box": [[0.8, 1.2], [-0.3, 0.3]], "per_axis": 3},
         "t_grid": [0.0, 0.25, 0.5, 0.75, 1.0], "gap_tolerance": 1e-6,
         "quick": False},
        _run_transport),
    "tmcp": CommandSpec(
        "the timelike measure-contraction entropy inequality toward a point",
        _BIG_FLAT,
        {"origin": [0.0, 0.0],
         "target": {"uniform_on_box": [[1.0, 1.8], [-0.4, 0.4]], "per_axis": 4},
         "K": 0.0, "n": 2.0, "q": 0.5, "t_grid": _T7,
         "n_prime_grid": [2.0, 3.0, 4.0], "variant": "past",
         "tolerance": 1e-3, "equality_n_prime": 2.0, "equality_tolerance": 2e-3,
         "cells_resolution": 256, "quick_cells_resolution": 128,
         "resolution": 257, "quick": False},
        _run_tmcp),
    "tcd": CommandSpec(
        "displacement semiconvexity of the entropy between two measures "
        "(timelike curvature-dimension)",
        _BIG_FLAT,
        {"source": {"uniform_on_box": [[0.2, 0.6], [-0.2, 0.2]], "per_axis": 3},
         "target": {"uniform_on_box": [[1.6, 2.0], [-0.2, 0.2]], "per_axis": 3},
         "K": 0.0, "n": 2.0, "q": 0.5, "t_grid": [0.25, 0.5, 0.75],
         "tolerance": 5e-3, "cells_resolution": 256,
         "quick_cells_resolution": 128, "resolution": 257, "quick": False},
        _run_tcd),
    "brunn-minkowski": CommandSpec(
        "the timelike Brunn-Minkowski volume-growth inequality",
        _BIG_FLAT,
        {"source": [0.0, 0.0], "x1": {"box": [[1.0, 1.6], [-0.3, 0.3]]},
         "K": 0.0, "n": 2.0, "t_list": [0.5], "resolution": 512,
         "quick_resolution": 256, "tolerance": 5e-3, "max_pairs": 400000,
         "quick": False},
        _run_brunn_minkowski),
    "bishop-gromov": CommandSpec(
        "the timelike Bishop-Gromov volume and area monotonicity",
        {"kind": "minkowski", "bounds": [[-0.05, 1.35], [-0.85, 0.85]]},
        {"origin": [0.0, 0.0], "region": {"cone": {"slope": 0.6}},
         "K": 0.0, "n": 2.0, "r_list": [0.25, 0.5, 0.75, 1.0],
         "resolution": 1024, "dr": 0.005,
         "tolerance": 5e-3,
         "ratio_pairs": [[0.5, 1.0], [0.25, 1.0], [0.5, 0.75]],
         "ratio_tolerance": 1e-3, "quick": False},
        _run_bishop_gromov),
    "bonnet-myers": CommandSpec(
        "the timelike Bonnet-Myers diameter bound",
        {"kind": "desitter", "delta": 0.02, "x_half": 1.0},
        {"K": 1.0, "n": 2.0, "resolution": 257, "quick_resolution": 129,
         "tolerance": 0.02, "window": [math.pi - 0.1, math.pi + 0.05],
         "quick": False},
        _run_bonnet_myers),
    "dalembert": CommandSpec(
        "the distributional wave-operator comparison for powers of the "
        "time separation against smooth bumps",
        {"kind": "minkowski", "bounds": [[0.0, 2.6], [-1.2, 1.2]]},
        {"origin": [0.0, 0.0], "K": 0.0, "n": 2.0, "q_prime": 0.5,
         "variant": "distance", "bumps": _BUMPS3,
         "resolutions": [65, 129, 257], "quick_resolutions": [65, 129],
         "quick": False},
        _run_dalembert),
    "eikonal": CommandSpec(
        "the eikonal identity for the gradient of the time separation",
        {"kind": "minkowski", "bounds": [[0.0, 2.0], [-1.0, 1.0]]},
        {"origin": [0.0, 0.0],
         "region": {"cone": {"slope": 0.6, "t_min": 0.5}},
         "resolutions": [129, 257], "quick_resolutions": [65, 129],
         "order_floor": 1e-10, "order_min": 0.9, "quick": False},
        _run_eikonal),
    "brenier": CommandSpec(
        "the gradient representation of the optimal map between a point "
        "mass and a discrete target",
        {"kind": "minkowski", "bounds": [[-0.5, 2.5], [-1.0, 1.0]]},
        {"origin": [0.0, 0.0], "q": 0.5, "count": 50,
         "t_range": [0.9, 1.8], "x_range": [-0.5, 0.5],
         "resolutions": [257, 513], "quick_resolutions": [129, 257],
         "shrink_factor": 0.75, "quick": False},
        _run_brenier),
    "needles": CommandSpec(
        "localization of the chart volume into one-dimensional needle "
        "densities over a radial fan",
        {"kind": "minkowski", "bounds": [[0.0, 1.5], [-1.5, 1.5]]},
        {"origin": [0.0, 0.0], "window": [-0.8, 0.8], "n_rays": 64, "r": 0.1,
         "tau_samples": 4097, "box": [[0.6, 1.1], [-0.2, 0.2]],
         "box_tolerance": 1e-3, "n": 2.0, "reference_resolution": 4096,
         "quick_reference_resolution": 2048, "quick": False},
        _run_needles),
    "mollify": CommandSpec(
        "the linear-in-radius error bound for metric mollification",
        _KINKED,
        {"eps_list": [0.6, 0.3, 0.15], "quick": False},
        _run_mollify),
    "lp-deficit": CommandSpec(
        "decay of the integral curvature deficit under shrinking "
        "mollification radii",
        _KINKED,
        {"K": 0.0, "p_list": [1.0, 2.0], "eps_list": [0.8, 0.5, 0.3, 0.15],
         "n": 2.0, "final_ratio": 0.1, "quick": False},
        _run_lp_deficit),
    "aubry": CommandSpec(
        "the deficit-perturbed diameter bound and its needle reduction",
        {"kind": "desitter", "delta": 0.02, "x_half": 1.0},
        {"K": 1.0, "n": 2.0, "p": 2.0, "c_const": 10.0, "curvature": "default",
         "boxes": 4, "raster": 256, "quick_raster": 128, "resolution": 257,
         "quick_resolution": 129, "n_needles": 9, "needle_samples": 1025,
         "quick": False},
        _run_aubry),
    "suite": CommandSpec(
        "the full acceptance matrix, one table row per criterion",
        None,
        {"mode": "full", "quick": False},
        _run_suite),
}


# ---------------------------------------------------------------------------
# validation before dispatch
# ---------------------------------------------------------------------------


_GRID_COMMANDS = {"mollify", "lp-deficit"}
_GRID_OK_COMMANDS = _GRID_COMMANDS | {"eikonal", "dalembert"}
_CHECKS = {"distortion": {"all", "closed-forms", "ordering", "defect"},
           "cd-verify": {"all", "model-density", "delta-formula"},
           "transport": {"all", "certificates", "q-geodesic"}}


def _validate_p_list(p_list) -> None:
    # reports and plot files are named by f"{p:g}", so two exponents that
    # print alike would overwrite each other's deficit_p*.csv
    if not isinstance(p_list, (list, tuple)) or not p_list:
        raise ConfigError("p_list must be a non-empty list of exponents")
    for p in p_list:
        if isinstance(p, bool) or not isinstance(p, numbers.Real) \
                or not math.isfinite(p) or p <= 0.0:
            raise ConfigError(f"p_list values must be finite numbers > 0, got {p!r}")
    if len({f"{p:g}" for p in p_list}) < len(p_list):
        raise ConfigError(f"p_list values must be distinct, got {p_list}")


def _validate(config: ExperimentConfig, resolved: dict) -> None:
    model = resolved["model"]
    params = resolved["parameters"]
    _validate_model(model)
    cmd = config.command
    grid = model is not None and _model_kind(model).grid
    if grid and cmd not in _GRID_OK_COMMANDS:
        raise ConfigError(f"command {cmd!r} needs a model chart, not a grid")
    if cmd in _GRID_COMMANDS and not grid:
        raise ConfigError(f"command {cmd!r} operates on a sampled metric grid")
    if cmd in _CHECKS and params.get("check") not in _CHECKS[cmd]:
        raise ConfigError(
            f"check must be one of {sorted(_CHECKS[cmd])}, got {params.get('check')!r}")
    for key in ("q", "q_prime"):
        if key in params and not 0.0 < float(params[key]) < 1.0:
            raise ConfigError(f"{key} must lie in (0, 1)")
    if "t_grid" in params and any(not 0.0 <= float(t) <= 1.0 for t in params["t_grid"]):
        raise ConfigError("t_grid values must lie in [0, 1]")
    if "t_list" in params and any(not 0.0 <= float(t) <= 1.0 for t in params["t_list"]):
        raise ConfigError("t_list values must lie in [0, 1]")
    for key in ("resolution", "cells_resolution", "reference_resolution",
                "raster", "tau_samples", "needle_samples"):
        if key in params and int(params[key]) < 17:
            raise ConfigError(f"{key} must be at least 17")
    for key in ("resolutions", "quick_resolutions"):
        if key in params and any(int(r) < 17 for r in params[key]):
            raise ConfigError("every resolution must be at least 17")
    if cmd in ("bonnet-myers", "aubry") and float(params["K"]) <= 0.0:
        raise ConfigError("the diameter bound needs K > 0")
    if "eps_list" in params:
        eps = [float(e) for e in params["eps_list"]]
        if not eps or any(e <= 0.0 for e in eps):
            raise ConfigError("eps_list must be positive")
        if cmd == "lp-deficit" and any(b >= a for a, b in zip(eps, eps[1:])):
            raise ConfigError("eps_list must be strictly decreasing")
    if "p_list" in params:
        _validate_p_list(params["p_list"])
    if "count" in params and int(params["count"]) < 1:
        raise ConfigError("count must be positive")
    if params.get("ratio_pairs"):
        radii = {float(r) for r in params["r_list"]}
        missing = sorted({float(r) for pair in params["ratio_pairs"] for r in pair}
                         - radii)
        if missing:
            raise ConfigError(f"ratio_pairs name radii missing from r_list: {missing}")
    if cmd == "suite" and params["mode"] not in ("quick", "full"):
        raise ConfigError("suite mode must be 'quick' or 'full'")


# ---------------------------------------------------------------------------
# running and writing
# ---------------------------------------------------------------------------


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


def _execute(config: ExperimentConfig, resolved: dict):
    """Dispatch to the runner; returns (reports, plots)."""
    params = resolved["parameters"]
    rng = np.random.default_rng(config.seed)
    if config.command == "suite":
        return _suite_rows(params["mode"], config.seed)
    model = _build_model(resolved["model"])
    return COMMANDS[config.command].runner(model, params, rng)


def _checked(config: ExperimentConfig) -> dict:
    """The resolved config, validated: everything that runs before dispatch."""
    resolved = config.resolved()
    _validate(config, resolved)
    return resolved


def run(config: ExperimentConfig) -> RunRecord:
    """Validate, dispatch, and persist one experiment run."""
    return _dispatch(config, _checked(config))


def _dispatch(config: ExperimentConfig, resolved: dict) -> RunRecord:
    """Run a validated config and write its outputs."""
    started = _now()
    reports, plots = _execute(config, resolved)
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
        spec = COMMANDS[cmd]
        params = dict(spec.parameters)
        params.update(overrides)
        rng = np.random.default_rng([seed, idx])
        t0 = time.perf_counter()
        reports, _ = spec.runner(_build_model(spec.model), params, rng)
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
        resolved = _checked(config)
    except Exception as exc:        # loading, resolving or validating: exit 2
        _error_json("invalid-config", str(exc))
        return 2
    try:
        record = _dispatch(config, resolved)
    except ConfigError as exc:      # a measure, region or floor spec the runner rejects
        _error_json("invalid-config", str(exc))
        return 2
    except Exception as exc:        # anything else after dispatch: exit 3
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
