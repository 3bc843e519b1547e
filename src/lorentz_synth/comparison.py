"""End-to-end inequality verifiers on model charts.

Every verifier returns an :class:`InequalityReport` whose ``margin`` array is
``rhs - lhs``: entries at or above ``-tolerance`` mean the inequality held.
The rhs slot always carries the side the inequality bounds from above, so
entropy-contraction checks put the distortion bound there while volume checks
put the measured volume there.

Covered here: entropy contraction toward a point and between two measures
along q-optimal interpolations, Brunn-Minkowski / Bishop-Gromov volume
comparison, the sharp diameter bound and its deficit-perturbed version,
eikonal and endpoint-gradient identities for the time separation, the weak
wave-operator comparison against smooth bumps, and the radial needle
disintegration of a flat chart.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np
from scipy import ndimage

from .distortion import KappaProfile, const_first_zero, const_sine, tau_coeff, ttilde_coeff
from .errors import HypothesisViolatedError, InvalidInputError, UnsupportedModelError
from .lipschitz_grid import MetricGrid
from .models import (Event, ModelSpacetime, _node_grid, as_event,
                     ball_volumes_areas, cell_centers, lipschitz_1p1,
                     lorentz_distance_field, maximizing_paths, minkowski,
                     region_measure, time_separations, timelike_diameter,
                     warped_product)
from .onedim import (CDDensity, DEFAULT_C_CONST, aubry_diameter_bound,
                     curvature_deficit_sup, diameter_report)
from .transport import (DiscreteMeasure, _optimal_plan, dirac, dynamical_coupling,
                        eval_pushforward, renyi_entropy, separation_matrix)

__all__ = [
    "InequalityReport", "BumpFunction", "NeedleRay", "NeedleDecomposition",
    "voronoi_cell_masses", "check_tmcp", "check_tcd_semiconvexity",
    "brunn_minkowski", "bishop_gromov", "bonnet_myers", "eikonal_check",
    "brenier_mccann_check", "dalembert_check", "needle_decomposition",
    "aubry_spacetime_check",
]


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InequalityReport:
    """Outcome of one inequality verification.

    ``lhs`` and ``rhs`` are aligned arrays (scalar checks are length-1);
    ``margin = rhs - lhs`` entrywise, and the check passes iff the smallest
    margin is at least ``-tolerance``. ``labels`` names the entries and
    ``provenance`` records the run configuration plus diagnostics.
    """

    name: str
    lhs: np.ndarray
    rhs: np.ndarray
    margin: np.ndarray
    tolerance: float
    passed: bool
    labels: tuple
    provenance: dict

    def worst_margin(self) -> float:
        return float(np.min(self.margin))

    def to_json(self) -> str:
        return json.dumps({
            "name": self.name,
            "lhs": [float(v) for v in self.lhs],
            "rhs": [float(v) for v in self.rhs],
            "margin": [float(v) for v in self.margin],
            "tolerance": self.tolerance,
            "passed": bool(self.passed),
            "labels": list(self.labels),
            "provenance": jsonable(self.provenance),
        })

    def to_csv(self) -> str:
        """Flat plot-ready table: one row per margin entry."""
        return csv_text(("label", "lhs", "rhs", "margin"),
                        zip(self.labels, self.lhs, self.rhs, self.margin))


def csv_text(header, rows) -> str:
    """CSV text of a header and rows, each line ending in a bare newline.

    Strings are quoted where the ``csv`` module needs it (a comma, a quote or
    a line break); every other value is written as ``repr(float(v))``, which
    reads back to the same float.
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([v if isinstance(v, str) else repr(float(v)) for v in row]
                     for row in rows)
    return out.getvalue()


def jsonable(obj):
    """JSON-ready copy: string keys, tuples and arrays as lists, numpy
    scalars as Python numbers."""
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def make_report(name, lhs, rhs, tolerance, labels, provenance) -> InequalityReport:
    """The report of ``lhs <= rhs`` entrywise: margins ``rhs - lhs``, passed
    iff the smallest margin is at least ``-tolerance``."""
    lhs = np.atleast_1d(np.asarray(lhs, dtype=float))
    rhs = np.atleast_1d(np.asarray(rhs, dtype=float))
    if lhs.shape != rhs.shape or len(labels) != lhs.size:
        raise InvalidInputError("report sides and labels must align")
    margin = rhs - lhs
    passed = bool(lhs.size == 0 or np.min(margin) >= -tolerance)
    return InequalityReport(name, lhs, rhs, margin, float(tolerance), passed,
                            tuple(labels), dict(provenance))


# ---------------------------------------------------------------------------
# smooth test bumps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BumpFunction:
    """Tensor product of the standard mollifier profile on a coordinate box.

    phi(p) = prod_i exp(1 - 1 / (1 - u_i^2)) with u_i = (p_i - c_i) / r_i,
    supported on the open box c +- r and equal to 1 at the center. The
    gradient is evaluated from the same closed form, never by differencing.
    """

    center: tuple
    radius: tuple

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        r = self.radius if isinstance(self.radius, (tuple, list, np.ndarray)) \
            else (self.radius,) * len(self.center)
        object.__setattr__(self, "radius", tuple(float(v) for v in r))
        if len(self.radius) != len(self.center):
            raise InvalidInputError("one radius per axis")
        if any(v <= 0.0 for v in self.radius):
            raise InvalidInputError("bump radii must be positive")

    @property
    def support_box(self) -> tuple:
        return tuple((c - r, c + r) for c, r in zip(self.center, self.radius))

    def _factors(self, pts):
        pts = np.asarray(pts, dtype=float)
        u = (pts - np.asarray(self.center)) / np.asarray(self.radius)
        w = 1.0 - u * u
        inside = w > 1e-12
        safe = np.where(inside, w, 1.0)
        fac = np.where(inside, np.exp(1.0 - 1.0 / safe), 0.0)
        return u, safe, inside, fac

    def __call__(self, pts):
        return np.prod(self._factors(pts)[3], axis=-1)

    def gradient(self, pts):
        """Analytic lowered-index gradient, shape (..., dim)."""
        u, w, inside, fac = self._factors(pts)
        phi = np.prod(fac, axis=-1)
        dlog = np.where(inside, -2.0 * u / (w * w), 0.0) / np.asarray(self.radius)
        return phi[..., None] * dlog


# ---------------------------------------------------------------------------
# shared numeric helpers
# ---------------------------------------------------------------------------


def _pi_radius(K: float, n_param: float) -> float:
    """Conjugate radius of the constant profile K/(N-1): +inf when K <= 0."""
    return const_first_zero(K / (n_param - 1.0))


def _tau_const(K: float, n_param: float, t: float, theta: float) -> float:
    """Distortion coefficient on a constant-curvature profile of length theta."""
    if theta == 0.0:
        return float(t)
    return tau_coeff(KappaProfile.constant(float(K), float(theta)),
                     n_param, float(t), float(theta))


def _ttilde_vec(K: float, n_param: float, thetas: np.ndarray) -> np.ndarray:
    if K == 0.0:
        return np.ones_like(thetas)
    return np.asarray([ttilde_coeff(K, n_param, float(th)) for th in thetas])


def _as_model(obj) -> ModelSpacetime:
    """Accept a chart model directly, or lift a diagonal unit-lapse metric
    grid with x-independent coefficients to its warped chart."""
    if isinstance(obj, ModelSpacetime):
        return obj
    if isinstance(obj, MetricGrid):
        if obj.dims != 2:
            raise UnsupportedModelError("grid conversion is implemented in 1+1 only")
        g = obj.nodes
        if not (np.allclose(g[..., 0, 0], 1.0, atol=1e-9)
                and np.allclose(g[..., 0, 1], 0.0, atol=1e-9)):
            raise UnsupportedModelError("only unit-lapse diagonal grids lift to a chart")
        a2 = -g[..., 1, 1]
        if np.max(np.abs(a2 - a2[:, :1])) > 1e-9 \
                or np.max(np.abs(obj.weight_nodes - obj.weight_nodes[:, :1])) > 1e-9:
            raise UnsupportedModelError("grid coefficients must not depend on x")
        ts, xs = obj.axes()
        warp = np.column_stack([ts, np.sqrt(a2[:, 0])])
        weight = None
        if np.max(np.abs(obj.weight_nodes)) > 0.0:
            weight = np.column_stack([ts, obj.weight_nodes[:, 0]])
        return lipschitz_1p1(warp, (ts[0], ts[-1]), (xs[0], xs[-1]), weight=weight)
    raise InvalidInputError("expected a model spacetime or a metric grid")


def _spacing(ts, xs) -> float:
    """The larger node spacing of a field grid."""
    return max(float(ts[1] - ts[0]), float(xs[1] - xs[0]))


def _field_gradients(model: ModelSpacetime, ts, xs, field):
    """Central-difference gradient of the separation field.

    Returns (ok, gt, gx, gsq): ``ok`` marks nodes whose full 5-point stencil
    lies in {l_o > 0}; gradient values elsewhere are meaningless. ``gsq`` is
    the raised-index norm g(grad l, grad l) = (d_t l)^2 - (d_x l)^2 / a^2.
    """
    pos = field > 0.0
    ok = np.zeros_like(pos)
    ok[1:-1, 1:-1] = (pos[1:-1, 1:-1] & pos[:-2, 1:-1] & pos[2:, 1:-1]
                      & pos[1:-1, :-2] & pos[1:-1, 2:])
    safe = np.where(pos, field, 0.0)
    gt, gx = np.gradient(safe, ts, xs)
    a2 = np.asarray(model.warp(ts), float) ** 2
    gsq = gt * gt - gx * gx / a2[:, None]
    return ok, gt, gx, gsq


def _chronological_separations(model, o, points, resolution=257) -> np.ndarray:
    seps = time_separations(model, (o,), points, resolution)[0]
    if np.any(~np.isfinite(seps)) or np.any(seps <= 0.0):
        raise InvalidInputError(
            "every point must lie in the chronological future of the source")
    return seps


def _flip_event(p: Event) -> tuple:
    return (-p.t,) + tuple(p.coords[1:])


def _time_reversed(model: ModelSpacetime) -> ModelSpacetime:
    """The same chart run backwards in time (bounds and coefficients flipped)."""
    (t0, t1), *rest = model.bounds
    tb = (-t1, -t0)
    weight = None
    if model.weight_samples is not None:
        weight = (lambda tv: model.weight(-np.asarray(tv, float)))
    if model.kind == "minkowski":
        return minkowski((tb,) + tuple(rest), weight=weight)
    return warped_product(lambda tv: model.warp(-np.asarray(tv, float)),
                          tb, rest[0], weight=weight, kind=model.kind)


def _reversed_measure(mu: DiscreteMeasure) -> DiscreteMeasure:
    return DiscreteMeasure(tuple(_flip_event(p) for p in mu.support),
                           mu.weights.copy())


# ---------------------------------------------------------------------------
# reference cells for discrete entropies
# ---------------------------------------------------------------------------


def voronoi_cell_masses(model: ModelSpacetime, mu: DiscreteMeasure,
                        resolution: int = 256) -> np.ndarray:
    """Reference-measure masses of the nearest-support cells of ``mu``.

    The support's bounding box, padded by half the median nearest-neighbour
    spacing and clipped to the chart, is rasterized into ``resolution``^2
    midpoint cells; each cell contributes its measure (chart density times
    area) to the nearest support point. Supports laid out as uniform box
    grids get back exactly the cells they were built from. A single-point
    support has no positive-measure partition and gets mass 0 (a pure atom).
    """
    pts = np.asarray([p.coords for p in mu.support], dtype=float)
    n = len(pts)
    if n == 1:
        return np.zeros(1)
    d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
    np.fill_diagonal(d2, np.inf)
    pad = 0.5 * float(np.median(np.sqrt(np.min(d2, axis=1))))
    (bt0, bt1), (bx0, bx1) = model.bounds
    t0 = max(float(pts[:, 0].min()) - pad, bt0)
    t1 = min(float(pts[:, 0].max()) + pad, bt1)
    x0 = max(float(pts[:, 1].min()) - pad, bx0)
    x1 = min(float(pts[:, 1].max()) + pad, bx1)
    tc, ht = cell_centers(t0, t1, resolution)
    xc, hx = cell_centers(x0, x1, resolution)
    cell_mass = (model.density(tc) * ht * hx)[:, None] * np.ones((1, resolution))
    grid = _node_grid(tc, xc).reshape(-1, 2)
    masses = np.zeros(n)
    chunk = max(1, int(4e6) // n)
    for lo in range(0, grid.shape[0], chunk):
        sl = grid[lo:lo + chunk]
        d = np.sum((sl[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
        owner = np.argmin(d, axis=1)
        masses += np.bincount(owner, weights=cell_mass.ravel()[lo:lo + chunk],
                              minlength=n)
    return masses


# ---------------------------------------------------------------------------
# entropy contraction along interpolations
# ---------------------------------------------------------------------------


def check_tmcp(model: ModelSpacetime, o, mu1: DiscreteMeasure, K: float,
               n_param: float, q: float, t_grid: Sequence[float],
               n_prime_grid: Sequence[float], variant: str = "past",
               tolerance: float = 5e-3, samples_per_curve: int = 17,
               cells_resolution: int = 256, resolution: int = 257) -> InequalityReport:
    """Entropy contraction toward a point along the q-optimal interpolation.

    For every (t, N') the Renyi entropy of the push-forward mu_t is checked
    against -sum_j tau^{(t)}_{K,N'}(l(o, y_j)) rho_j^{-1/N'} w_j, where rho is
    the density of mu1 against its nearest-support reference cells. For K = 0
    the plain contraction bound t * S(mu1) is appended as extra entries.
    ``variant="future"`` reruns the verifier on the time-reversed chart, so o
    must then lie in the chronological future of the support.
    """
    if variant not in ("past", "future"):
        raise InvalidInputError("variant must be 'past' or 'future'")
    if variant == "future":
        rep = check_tmcp(_time_reversed(model), _flip_event(as_event(o)),
                         _reversed_measure(mu1), K, n_param, q, t_grid,
                         n_prime_grid, variant="past", tolerance=tolerance,
                         samples_per_curve=samples_per_curve,
                         cells_resolution=cells_resolution, resolution=resolution)
        return replace(rep, provenance={**rep.provenance, "variant": "future"})
    o = as_event(o)
    model.require_inside(o)
    seps = _chronological_separations(model, o, mu1.support, resolution)
    m1 = voronoi_cell_masses(model, mu1, cells_resolution)
    if np.any(m1 <= 0.0):
        raise InvalidInputError("mu1 needs positive reference cell masses")
    rho1 = mu1.weights / m1
    value, plan = _optimal_plan(dirac(o), mu1, seps[None, :], q)
    dc = dynamical_coupling(model, plan, samples_per_curve)

    lhs, rhs, labels = [], [], []
    entropies = {}
    for t in (float(t) for t in t_grid):
        mu_t = eval_pushforward(dc, t)
        cells_t = voronoi_cell_masses(model, mu_t, cells_resolution)
        for npr in (float(v) for v in n_prime_grid):
            ent = renyi_entropy(mu_t, cells_t, npr)
            entropies[(t, npr)] = ent
            taus = np.asarray([_tau_const(K, npr, t, float(th)) for th in seps])
            lhs.append(ent)
            rhs.append(float(-np.sum(taus * rho1 ** (-1.0 / npr) * mu1.weights)))
            labels.append(f"t={t:g},N'={npr:g}")
    if K == 0.0:
        s1 = {float(npr): renyi_entropy(mu1, m1, float(npr))
              for npr in n_prime_grid}
        for t in (float(t) for t in t_grid):
            for npr in (float(v) for v in n_prime_grid):
                lhs.append(entropies[(t, npr)])
                rhs.append(t * s1[npr])
                labels.append(f"flat:t={t:g},N'={npr:g}")
    provenance = {"K": K, "N": n_param, "q": q, "variant": "past",
                  "t_grid": [float(t) for t in t_grid],
                  "n_prime_grid": [float(v) for v in n_prime_grid],
                  "lq_value": value, "cells_resolution": cells_resolution,
                  "samples_per_curve": samples_per_curve,
                  "resolution": resolution}
    return make_report("tmcp", lhs, rhs, tolerance, labels, provenance)


def check_tcd_semiconvexity(model: ModelSpacetime, mu0: DiscreteMeasure,
                            mu1: DiscreteMeasure, K: float, n_param: float,
                            q: float, t_grid: Sequence[float],
                            tolerance: float = 5e-3, samples_per_curve: int = 17,
                            cells_resolution: int = 256,
                            resolution: int = 257) -> InequalityReport:
    """Displacement semiconvexity of the Renyi entropy between two measures.

    Along the q-optimal dynamical coupling pi the entropy of mu_t is checked
    against -sum_ij [tau^{(1-t)}_{K,N}(l_ij) rho0_i^{-1/N}
    + tau^{(t)}_{K,N}(l_ij) rho1_j^{-1/N}] pi_ij. At t in {0, 1} the tau
    coefficients degenerate to {0, 1} and the bound collapses to the endpoint
    entropy.
    """
    L = separation_matrix(model, mu0, mu1, resolution)
    if np.any(~np.isfinite(L)) or np.any(L <= 0.0):
        raise InvalidInputError("supports must be pairwise chronological")
    m0 = voronoi_cell_masses(model, mu0, cells_resolution)
    m1 = voronoi_cell_masses(model, mu1, cells_resolution)
    if np.any(m0 <= 0.0) or np.any(m1 <= 0.0):
        raise InvalidInputError("marginals need positive reference cell masses")
    rho0 = (mu0.weights / m0) ** (-1.0 / n_param)
    rho1 = (mu1.weights / m1) ** (-1.0 / n_param)
    value, plan = _optimal_plan(mu0, mu1, L, q)
    dc = dynamical_coupling(model, plan, samples_per_curve)

    lhs, rhs, labels = [], [], []
    for t in (float(t) for t in t_grid):
        mu_t = eval_pushforward(dc, t)
        ent = renyi_entropy(mu_t, voronoi_cell_masses(model, mu_t, cells_resolution),
                            n_param)
        tau0 = np.asarray([[_tau_const(K, n_param, 1.0 - t, float(th)) for th in row]
                           for row in L])
        tau1 = np.asarray([[_tau_const(K, n_param, t, float(th)) for th in row]
                           for row in L])
        bound = -float(np.sum((tau0 * rho0[:, None] + tau1 * rho1[None, :])
                              * plan.matrix))
        lhs.append(ent)
        rhs.append(bound)
        labels.append(f"t={t:g}")
    provenance = {"K": K, "N": n_param, "q": q,
                  "t_grid": [float(t) for t in t_grid], "lq_value": value,
                  "cells_resolution": cells_resolution,
                  "samples_per_curve": samples_per_curve,
                  "resolution": resolution}
    return make_report("tcd", lhs, rhs, tolerance, labels, provenance)


# ---------------------------------------------------------------------------
# volume comparison
# ---------------------------------------------------------------------------


def brunn_minkowski(model: ModelSpacetime, source, X1: Callable, K: float,
                    n_param: float, t: float, resolution: int = 512,
                    tolerance: float = 5e-3, max_pairs: int = 400000) -> InequalityReport:
    """Measure growth of the set of t-intermediate points of {source} x X1.

    The intermediate set is swept by geodesic interpolation between raster
    samples of the two sets, then rasterized. The one-cell dilated coverage
    carries the pass margin (raw coverage is recorded as the inner estimate);
    the lhs is inf tau^{(t)}_{K,N} over the attained separations times
    m[X1]^{1/N}. Lattice kinds compute one longest-path field per source and
    backtrack one lattice geodesic per pair, so keep their sample counts
    small.
    """
    if not 0.0 <= t <= 1.0:
        raise InvalidInputError("t outside [0, 1]")
    (t0, t1), (x0, x1) = model.bounds
    tc, ht = cell_centers(t0, t1, resolution)
    xc, hx = cell_centers(x0, x1, resolution)
    grid = _node_grid(tc, xc)
    mask1 = np.asarray(X1(grid), bool)
    if not np.any(mask1):
        raise InvalidInputError("X1 misses the raster entirely")
    m_x1 = region_measure(model, X1, resolution)
    targets = grid[mask1]

    if callable(source):
        src = grid[np.asarray(source(grid), bool)]
        if len(src) == 0:
            raise InvalidInputError("source region misses the raster")
    else:
        src = np.asarray([as_event(source).coords], dtype=float)

    # thin the pair set deterministically if the sweep would be too dense
    n_pairs = len(src) * len(targets)
    stride = max(1, int(math.ceil(n_pairs / max_pairs)))
    tgt = targets[::stride] if len(src) == 1 else targets
    while len(src) * len(tgt) > max_pairs and len(src) > 1:
        src = src[::2]

    if model.kind != "minkowski" and len(src) * len(tgt) > 4096:
        tgt = tgt[::max(1, len(tgt) // max(1, 4096 // max(1, len(src))))]
    seps = time_separations(model, src, tgt).ravel()
    if np.any(~np.isfinite(seps)) or np.any(seps <= 0.0):
        raise InvalidInputError("X1 must be chronologically after the source")
    if model.kind == "minkowski":
        sweep = ((1.0 - t) * src[:, None, :] + t * tgt[None, :, :]).reshape(-1, 2)
    else:
        # one lattice field per source and level, one backtrack per pair
        paths = maximizing_paths(model, [(a, b) for a in src for b in tgt])
        sweep = np.asarray([path.points(np.array([t]))[0] for path in paths])

    inf_tau = min(_tau_const(K, n_param, t, float(th))
                  for th in np.linspace(float(seps.min()), float(seps.max()), 33))
    lower = inf_tau * m_x1 ** (1.0 / n_param)

    ii = np.clip(((sweep[:, 0] - t0) / ht).astype(int), 0, resolution - 1)
    jj = np.clip(((sweep[:, 1] - x0) / hx).astype(int), 0, resolution - 1)
    cover = np.zeros((resolution, resolution), dtype=bool)
    cover[ii, jj] = True
    cell_mass = (model.density(tc) * ht * hx)[:, None]
    inner = float(np.sum(cover * cell_mass))
    upper = float(np.sum(ndimage.binary_dilation(cover, np.ones((3, 3), bool))
                         * cell_mass))
    provenance = {"K": K, "N": n_param, "t": t, "resolution": resolution,
                  "m_x1": m_x1, "inf_tau": inf_tau,
                  "inner_measure": inner, "upper_measure": upper,
                  "inner_lhs": inner ** (1.0 / n_param),
                  "pairs": int(len(seps))}
    return make_report("brunn-minkowski", [lower], [upper ** (1.0 / n_param)],
                       tolerance, ["volume"], provenance)


def bishop_gromov(model: ModelSpacetime, o, region: Callable, K: float,
                  n_param: float, r_list: Sequence[float],
                  resolution: int = 1024, dr: float = 0.005,
                  tolerance: float = 5e-3) -> InequalityReport:
    """Relative volume and area monotonicity of l_o-balls in a region.

    For every ordered pair r < R from ``r_list`` the measured ratios
    v(r)/v(R) and s(r)/s(R) are checked from below by the constant-curvature
    model ratios (integrated resp. pointwise powers of the generalized sine).
    Area ratios inherit an O(dr) bias from the difference quotient, so give
    them a looser tolerance than the volume ratios when dr is coarse.
    """
    o = as_event(o)
    rs = [float(r) for r in r_list]
    if len(rs) < 2 or any(b <= a for a, b in zip(rs, rs[1:])) or rs[0] <= 0.0:
        raise InvalidInputError("need a strictly increasing list of positive radii")
    if rs[-1] >= _pi_radius(K, n_param):
        raise InvalidInputError("radii must stay below the conjugate radius")
    vols, areas = ball_volumes_areas(model, o, rs, region, dr, resolution)
    if min(vols) <= 0.0 or min(areas) <= 0.0:
        raise InvalidInputError("every ball must have positive measure and area")

    kk = K / (n_param - 1.0)
    dense = np.linspace(0.0, rs[-1], 4097)
    sines = np.asarray(const_sine(kk, dense)) ** (n_param - 1.0)
    step = dense[1] - dense[0]
    cums = np.concatenate([[0.0], np.cumsum((sines[1:] + sines[:-1]) * 0.5 * step)])
    vol_model = np.interp(rs, dense, cums)
    area_model = np.interp(rs, dense, sines)

    lhs, rhs, labels = [], [], []
    for i in range(len(rs)):
        for j in range(i + 1, len(rs)):
            lhs.append(vol_model[i] / vol_model[j])
            rhs.append(vols[i] / vols[j])
            labels.append(f"v:r={rs[i]:g},R={rs[j]:g}")
    for i in range(len(rs)):
        for j in range(i + 1, len(rs)):
            lhs.append(area_model[i] / area_model[j])
            rhs.append(areas[i] / areas[j])
            labels.append(f"s:r={rs[i]:g},R={rs[j]:g}")
    provenance = {"K": K, "N": n_param, "r_list": rs, "volumes": vols,
                  "areas": areas, "dr": dr, "resolution": resolution}
    return make_report("bishop-gromov", lhs, rhs, tolerance, labels, provenance)


def bonnet_myers(model: ModelSpacetime, K: float, n_param: float,
                 resolution: int = 257, tolerance: float = 0.02) -> InequalityReport:
    """Lattice timelike diameter against the sharp bound pi sqrt((N-1)/K).

    Only meaningful on models certified to have timelike curvature at least
    K > 0; the tolerance absorbs the lattice's diameter underestimate.
    """
    if K <= 0.0:
        raise InvalidInputError("the diameter bound needs K > 0")
    diam = timelike_diameter(model, resolution)
    bound = math.pi * math.sqrt((n_param - 1.0) / K)
    provenance = {"K": K, "N": n_param, "resolution": resolution,
                  "diameter": diam, "bound": bound}
    return make_report("bonnet-myers", [diam], [bound], tolerance, ["diameter"],
                       provenance)


# ---------------------------------------------------------------------------
# gradient identities for the time separation
# ---------------------------------------------------------------------------


def eikonal_check(model_or_grid, o, sample_region: Callable,
                  resolution: int = 257, tolerance: float = 0.0) -> InequalityReport:
    """Finite-difference check of g(grad l_o, grad l_o) = 1 on a region.

    The report compares the max deviation from 1 against 5 * spacing and
    records the fraction of sampled nodes whose raised gradient has negative
    time component (past-directed).
    """
    model = _as_model(model_or_grid)
    o = as_event(o)
    ts, xs, field = lorentz_distance_field(model, o, resolution)
    spacing = _spacing(ts, xs)
    ok, gt, _, gsq = _field_gradients(model, ts, xs, field)
    sel = ok & np.asarray(sample_region(_node_grid(ts, xs)), bool)
    if not np.any(sel):
        raise InvalidInputError("no valid interior nodes in the sample region")
    dev = np.abs(gsq[sel] - 1.0)
    provenance = {"spacing": spacing, "resolution": resolution,
                  "nodes": int(np.sum(sel)),
                  "mean_deviation": float(np.mean(dev)),
                  "past_directed_fraction": float(np.mean(gt[sel] < 0.0))}
    return make_report("eikonal", [float(np.max(dev))], [5.0 * spacing],
                       tolerance, ["max-deviation"], provenance)


def brenier_mccann_check(model: ModelSpacetime, o, mu1: DiscreteMeasure,
                         q: float, resolution: int = 513,
                         tolerance: float = 0.0) -> InequalityReport:
    """Endpoint gradient identity |grad(l_o^q / q)|(gamma_1) = l(o, gamma_1)^{q-1}.

    One entry per geodesic of the q-optimal dynamical coupling from o to mu1:
    the finite-difference norm at the node nearest the endpoint against the
    closed-form target, each compared with a 10 * spacing allowance.
    """
    if not 0.0 < q < 1.0:
        raise InvalidInputError("q must lie in (0, 1)")
    o = as_event(o)
    seps = _chronological_separations(model, o, mu1.support, resolution)
    value, plan = _optimal_plan(dirac(o), mu1, seps[None, :], q)
    dc = dynamical_coupling(model, plan)
    ts, xs, field = lorentz_distance_field(model, o, resolution)
    spacing = _spacing(ts, xs)
    ok, _, _, gsq = _field_gradients(model, ts, xs, field)
    ends = [samples[-1] for samples, _ in dc.curves]
    end_seps = time_separations(model, (o,), ends, resolution)[0]

    lhs, labels = [], []
    for idx, (y, sep) in enumerate(zip(ends, end_seps)):
        i = int(round((y[0] - ts[0]) / (ts[1] - ts[0])))
        j = int(round((y[1] - xs[0]) / (xs[1] - xs[0])))
        i = min(max(i, 1), len(ts) - 2)
        j = min(max(j, 1), len(xs) - 2)
        if not ok[i, j]:
            raise InvalidInputError(
                "an endpoint sits too close to the light cone for the stencil")
        measured = field[i, j] ** (q - 1.0) * math.sqrt(gsq[i, j])
        target = float(sep) ** (q - 1.0)
        lhs.append(abs(measured - target))
        labels.append(f"endpoint:{idx}")
    rhs = [10.0 * spacing] * len(lhs)
    provenance = {"q": q, "resolution": resolution, "spacing": spacing,
                  "lq_value": value, "endpoints": len(lhs),
                  "max_deviation": float(max(lhs)),
                  "mean_deviation": float(np.mean(lhs))}
    return make_report("brenier-mccann", lhs, rhs, tolerance, labels, provenance)


def dalembert_check(model_or_grid, o, phi, K: float, n_param: float,
                    q_prime: float, variant: str, resolution: int = 513,
                    tolerance: float | None = None) -> InequalityReport:
    """Weak wave-operator comparison tested against a smooth bump.

    variant "distance":
        -int dphi(grad l) |grad l|^{q'-2} dm <= int phi (N ttilde(l) - 1)/l dm
    variant "power" (u = l^q / q, 1/q + 1/q' = 1, so q' < 0):
        -int dphi(grad u) |grad u|^{q'-2} dm <= N int ttilde(l) phi dm

    Both integrals use nodal quadrature on the separation-field grid with
    central-difference gradients of l and the analytic gradient of phi. The
    default tolerance is 10 * spacing.
    """
    if variant not in ("power", "distance"):
        raise InvalidInputError("variant must be 'power' or 'distance'")
    if not hasattr(phi, "gradient"):
        raise InvalidInputError("phi must provide an analytic .gradient(pts)")
    model = _as_model(model_or_grid)
    o = as_event(o)
    ts, xs, field = lorentz_distance_field(model, o, resolution)
    spacing = _spacing(ts, xs)
    ok, gt, gx, gsq = _field_gradients(model, ts, xs, field)
    grid = _node_grid(ts, xs)
    pv = np.asarray(phi(grid), float)
    sup = pv > 0.0
    tol = 10.0 * spacing if tolerance is None else float(tolerance)
    provenance = {"K": K, "N": n_param, "q_prime": q_prime, "variant": variant,
                  "resolution": resolution, "spacing": spacing,
                  "support_nodes": int(np.sum(sup))}
    if not np.any(sup):
        return make_report("dalembert", [0.0], [0.0], tol, [variant], provenance)

    interior = np.zeros_like(sup)
    interior[2:-2, 2:-2] = True
    if np.any(sup & ~(ok & interior)):
        raise InvalidInputError(
            "bump support touches the chronological or chart boundary")
    if np.any(field[sup] >= _pi_radius(K, n_param) - 2.0 * spacing):
        raise InvalidInputError("bump support reaches the conjugate radius")
    if np.any(gsq[sup] <= 0.0):
        raise InvalidInputError("separation gradient degenerates inside the support")

    gphi = np.asarray(phi.gradient(grid), float)
    a2g = np.broadcast_to((np.asarray(model.warp(ts), float) ** 2)[:, None],
                          field.shape)
    dens = np.broadcast_to(model.density(ts)[:, None], field.shape)
    cell = float(ts[1] - ts[0]) * float(xs[1] - xs[0])

    l = field[sup]
    pair = gphi[..., 0][sup] * gt[sup] - gphi[..., 1][sup] * gx[sup] / a2g[sup]
    norm = np.sqrt(gsq[sup])
    tt = _ttilde_vec(K, n_param, l)
    if variant == "power":
        if q_prime >= 0.0:
            raise InvalidInputError("the power variant needs the conjugate q' < 0")
        q = q_prime / (q_prime - 1.0)
        fac = l ** (q - 1.0)
        lhs_val = -float(np.sum(pair * fac * (fac * norm) ** (q_prime - 2.0)
                                * dens[sup])) * cell
        rhs_val = n_param * float(np.sum(tt * pv[sup] * dens[sup])) * cell
    else:
        lhs_val = -float(np.sum(pair * norm ** (q_prime - 2.0) * dens[sup])) * cell
        rhs_val = float(np.sum((n_param * tt - 1.0) / l * pv[sup] * dens[sup])) * cell
    return make_report("dalembert", [lhs_val], [rhs_val], tol, [variant], provenance)


# ---------------------------------------------------------------------------
# needle disintegration of a flat chart
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NeedleRay:
    base: Event                    # point on the cross-section {l_o = r}
    rapidity: float
    tau: np.ndarray                # proper time from the apex
    points: np.ndarray             # (len(tau), 2) chart samples
    density: np.ndarray            # conditional density h(tau), h(0) = 0


@dataclass(frozen=True)
class NeedleDecomposition:
    """Disintegration of the chart measure over a fan of radial geodesics.

    Each ray through the cross-section arc carries the conditional density
    (radial Jacobian times weight ratio); ``quotient_weights`` is the
    cross-section measure normalized to a probability vector, with its total
    kept in ``cross_section_mass`` so masses reassemble as
    cross_section_mass * sum_i q_i int 1_B(ray_i(tau)) h_i(tau) dtau.
    """

    rays: tuple
    quotient_weights: np.ndarray
    cross_section_mass: float
    apex: Event
    r: float
    window: tuple

    def reassemble(self, region: Callable) -> float:
        total = 0.0
        for w, ray in zip(self.quotient_weights, self.rays):
            inside = np.asarray(region(ray.points), bool)
            total += w * float(np.trapezoid(ray.density * inside, ray.tau))
        return self.cross_section_mass * total

    def total_mass(self) -> float:
        return self.reassemble(lambda p: np.ones(p.shape[:-1], dtype=bool))

    def cd_densities(self, n_param: float = 2.0,
                     kappa_fn: Callable | None = None) -> tuple:
        """One CDDensity per ray, with the curvature floor sampled along it
        (identically zero by default, matching the flat chart)."""
        out = []
        for ray in self.rays:
            length = float(ray.tau[-1])
            if kappa_fn is None:
                prof = KappaProfile.constant(0.0, length)
            else:
                prof = KappaProfile(length, ray.tau.copy(),
                                    np.asarray(kappa_fn(ray.points), float))
            out.append(CDDensity(0.0, length, ray.density.copy(), prof, n_param))
        return tuple(out)


def _sector_mass(model: ModelSpacetime, o: Event, window, l_max: float) -> float:
    """Measure of the rapidity sector by quadrature in polar coordinates."""
    bs = np.linspace(window[0], window[1], 513)
    taus = np.linspace(0.0, l_max, 2049)
    tvals = o.t + taus[:, None] * np.cosh(bs)[None, :]
    integ = np.exp(-model.weight(tvals)) * taus[:, None]
    return float(np.trapezoid(np.trapezoid(integ, taus, axis=0), bs))


def needle_decomposition(model: ModelSpacetime, o, window, n_rays: int = 64,
                         r: float = 0.1, l_max: float | None = None,
                         tau_samples: int = 4097) -> NeedleDecomposition:
    """Radial-fan disintegration of a flat chart about the apex o.

    ``window`` is a rapidity interval; the fan covers the sector out to
    proper time ``l_max`` (auto-fitted to the chart walls by default). Each
    ray gamma(tau) = o + tau (cosh b, sinh b) carries the conditional density
    h(tau) = (tau / r) * weight-ratio, and the cross-section arc {l_o = r}
    supplies the quotient weights. The construction relies on the flat
    chart's closed-form radial geodesics, so other kinds are rejected.
    The disintegration identity is verified on the full sector at build time.
    """
    if model.kind != "minkowski" or model.dim != 2:
        raise UnsupportedModelError("radial needles need a flat 1+1 chart")
    o = as_event(o)
    model.require_inside(o)
    b0, b1 = float(window[0]), float(window[1])
    if not b0 < b1:
        raise InvalidInputError("empty rapidity window")
    (t0, t1), (x0, x1) = model.bounds
    bs = np.linspace(b0, b1, 4 * n_rays + 1)
    sh = np.sinh(bs)
    exit_tau = (t1 - o.t) / np.cosh(bs)
    right = sh > 0.0
    left = sh < 0.0
    exit_tau[right] = np.minimum(exit_tau[right], (x1 - o.x) / sh[right])
    exit_tau[left] = np.minimum(exit_tau[left], (x0 - o.x) / sh[left])
    auto = 0.999 * float(np.min(exit_tau))
    if auto <= 0.0:
        raise InvalidInputError("the fan exits the chart immediately")
    if l_max is None:
        l_max = auto
    l_max = float(l_max)
    if not 0.0 < l_max <= auto:
        raise InvalidInputError("l_max must keep the fan inside the chart")
    if not 0.0 < r < l_max:
        raise InvalidInputError("cross-section radius must sit inside the fan")

    betas, db = cell_centers(b0, b1, n_rays)
    taus = np.linspace(0.0, l_max, tau_samples)
    oc = np.asarray(o.coords, dtype=float)
    rays, arc = [], []
    for b in betas:
        direction = np.array([math.cosh(b), math.sinh(b)])
        pts = oc[None, :] + taus[:, None] * direction[None, :]
        base_t = o.t + r * direction[0]
        dens_base = math.exp(-float(model.weight(base_t)))
        h = (taus / r) * np.exp(-model.weight(pts[:, 0])) / dens_base
        base = as_event(tuple(oc + r * direction))
        rays.append(NeedleRay(base, float(b), taus, pts, h))
        arc.append(r * db * dens_base)
    arc = np.asarray(arc)
    cs_mass = float(np.sum(arc))
    dec = NeedleDecomposition(tuple(rays), arc / cs_mass, cs_mass, o,
                              float(r), (b0, b1))
    exact = _sector_mass(model, o, (b0, b1), l_max)
    defect = abs(dec.total_mass() - exact)
    if defect > 1e-3 * max(1.0, abs(exact)):
        raise RuntimeError(f"needle reassembly defect {defect:.3e} "
                           "exceeds the quadrature budget")
    return dec


# ---------------------------------------------------------------------------
# deficit-perturbed diameter bound
# ---------------------------------------------------------------------------


def _ricci_quotient_fn(model: ModelSpacetime) -> Callable:
    """Default curvature floor of a chart: 0 on flat charts, -a''/a from
    finite differences of the warp otherwise. Weighted flat charts and kinked
    warps should be given an analytic floor instead."""
    if model.kind == "minkowski":
        return lambda pts: np.zeros(np.shape(pts)[:-1])
    (t0, t1), _ = model.bounds
    tg = np.linspace(t0, t1, 4097)
    a = np.asarray(model.warp(tg), float)
    dda = np.gradient(np.gradient(a, tg), tg)
    kcol = -dda / a
    # the one-sided end stencils are low-order: hold the nearest interior value
    kcol[:2] = kcol[2]
    kcol[-2:] = kcol[-3]
    return lambda pts: np.interp(np.asarray(pts, float)[..., 0], tg, kcol)


def aubry_spacetime_check(model: ModelSpacetime, K: float, n_param: float,
                          p: float, c_const: float = DEFAULT_C_CONST,
                          k_fn: Callable | None = None, boxes: int = 4,
                          raster: int = 256, resolution: int = 257,
                          n_needles: int = 9, needle_samples: int = 1025,
                          tolerance: float = 0.0) -> InequalityReport:
    """Deficit-perturbed diameter bound on a chart plus its needle reduction.

    The curvature floor ``k_fn`` is compared against K in normalized L^p over
    a family of boxes (the full chart plus a ``boxes`` x ``boxes``
    subdivision); the perturbed bound from the sup-deficit is checked against
    the lattice diameter. Every comoving needle (a constant-x column, which
    is a unit-speed maximizer on these charts) additionally runs through the
    one-dimensional deficit/diameter pipeline with k restricted to the ray.
    A deficit above 1/c_const reports the vacuous bound +inf with status
    "hypothesis-violated" rather than failing.
    """
    if K <= 0.0:
        raise InvalidInputError("the diameter bound needs K > 0")
    if k_fn is None:
        k_fn = _ricci_quotient_fn(model)
    (t0, t1), (x0, x1) = model.bounds

    tc, ht = cell_centers(t0, t1, raster)
    xc, hx = cell_centers(x0, x1, raster)
    kv = np.asarray(k_fn(_node_grid(tc, xc)), float)
    wts = np.broadcast_to((model.density(tc) * ht * hx)[:, None], kv.shape)
    regions = [(kv.ravel(), wts.ravel())]
    step = raster // boxes
    for bi in range(boxes):
        for bj in range(boxes):
            sk = kv[bi * step:(bi + 1) * step, bj * step:(bj + 1) * step]
            sw = wts[bi * step:(bi + 1) * step, bj * step:(bj + 1) * step]
            regions.append((sk.ravel(), sw.ravel()))
    deficit = curvature_deficit_sup(K, p, regions)

    status = "checked"
    try:
        bound = aubry_diameter_bound(K, n_param, p, deficit, c_const)
    except HypothesisViolatedError:
        bound, status = math.inf, "hypothesis-violated"
    diam = timelike_diameter(model, resolution)

    lhs, rhs, labels = [diam], [bound], ["spacetime"]
    needle_rows = []
    tg = np.linspace(t0, t1, needle_samples)
    length = t1 - t0
    for xcol in x0 + (x1 - x0) * (np.arange(n_needles) + 0.5) / n_needles:
        pts = np.column_stack([tg, np.full_like(tg, xcol)])
        density = CDDensity(0.0, length, model.density(tg),
                            KappaProfile(length, tg - t0,
                                         np.asarray(k_fn(pts), float)),
                            n_param)
        try:
            rep = diameter_report(density, K, p, c_const)
            lhs.append(rep.diameter)
            rhs.append(rep.bound)
            needle_rows.append({"x": float(xcol), "deficit": rep.deficit,
                                "status": "checked"})
        except HypothesisViolatedError:
            lhs.append(length)
            rhs.append(math.inf)
            needle_rows.append({"x": float(xcol), "status": "hypothesis-violated"})
        labels.append(f"needle:x={xcol:g}")
    provenance = {"K": K, "N": n_param, "p": p, "c_const": c_const,
                  "deficit": deficit, "status": status, "boxes": boxes,
                  "raster": raster, "resolution": resolution,
                  "needles": needle_rows}
    return make_report("aubry", lhs, rhs, tolerance, labels, provenance)
