"""Analytic model spacetimes: time separation, geodesics, volumes.

Three chart kinds on a rectangular chart with signature (+, -, ...):

* ``minkowski``: g = dt^2 - |dx|^2, any dimension; closed-form time separation;
* ``warped``: g = dt^2 - a(t)^2 dx^2 in 1+1 with a sampled smooth warp;
* ``lipschitz1p1``: same form but a(t) only Lipschitz (kinks allowed).

For the non-flat kinds the time separation is computed as a longest causal
path over a lattice: nodes on a uniform grid, jump fan of gcd-reduced integer
directions, edge lengths by 3-point Gauss quadrature of sqrt(g(gamma', gamma'))
along straight chart segments, edges discarded if the radicand goes negative
at any quadrature or endpoint node. The lattice value converges to l from
below under refinement; one Richardson step over two nested resolutions
cancels the leading linear error. An optional log-density weight (a function
of t) enters the measure, never the lengths.

The time separation convention, the same on both chart kinds: l(x, x) = 0,
l(x, y) = -inf when y is not in the causal future of x, and causal pairs that
are not chronological (the null cone, or pairs below the lattice's chronology
resolution) get 0. The flat closed form lives in :func:`_flat_separations`
and the Richardson step in :func:`_richardson`; pair matrices, whole fields,
the diameter and the ball volumes all read l through them. Ball volumes for
any number of radii read one l_o field and one raster pass per call.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvalidInputError, NoGeodesicError
from .extreal import NEG_INF

FAN_MAX_DEN = 16        # Farey density of the jump fan for slopes <= 1
FAN_WIDE_DEN = 8        # coarser density for slopes in (1, 2]
# bytes one stacked longest-path DP may hold: its S fields of n_t x n_x
# float64 plus the per-row candidate buffer; more sources run in chunks
STACK_BUDGET_BYTES = 32 * 2 ** 20
CHART_TOL = 1e-9        # how far outside its bounds a point still counts as inside
# 3-point Gauss-Legendre nodes on [0, 1] flanked by the endpoints; the
# endpoints take part in the causality check only
_QS = np.array([0.0, 0.5 - 0.5 * math.sqrt(0.6), 0.5, 0.5 + 0.5 * math.sqrt(0.6), 1.0])
_QW = np.array([5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0])


@dataclass(frozen=True)
class Event:
    """A chart point; the first coordinate is time."""

    coords: tuple

    @property
    def t(self) -> float:
        return self.coords[0]

    @property
    def x(self) -> float:
        return self.coords[1]

    def __len__(self):
        return len(self.coords)


def event(*coords: float) -> Event:
    return Event(tuple(float(c) for c in coords))


def as_event(p) -> Event:
    if isinstance(p, Event):
        return p
    return Event(tuple(float(c) for c in p))


def _sample_curve(fn_or_samples, lo: float, hi: float, samples: int) -> np.ndarray:
    if callable(fn_or_samples):
        ts = np.linspace(lo, hi, samples)
        vals = np.asarray(fn_or_samples(ts), dtype=float)
        return np.column_stack([ts, vals])
    arr = np.asarray(fn_or_samples, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise InvalidInputError("sampled curve must be an (n, 2) array of [t, value]")
    return arr


@dataclass(frozen=True)
class ModelSpacetime:
    """Immutable chart-based model; see the module docstring for the kinds."""

    dim: int
    kind: str                       # "minkowski" | "warped" | "lipschitz1p1"
    bounds: tuple                   # ((t0, t1), (x0, x1), ...)
    warp_samples: np.ndarray | None = None      # [[t, a(t)], ...]
    weight_samples: np.ndarray | None = None    # [[t, f(t)], ...], f = log-density

    def __post_init__(self):
        if self.kind not in ("minkowski", "warped", "lipschitz1p1"):
            raise InvalidInputError(f"unknown kind {self.kind!r}")
        if self.dim < 2:
            raise InvalidInputError("need dimension >= 2")
        if len(self.bounds) != self.dim:
            raise InvalidInputError("bounds must list one (lo, hi) per axis")
        for lo, hi in self.bounds:
            if not lo < hi:
                raise InvalidInputError("empty chart axis")
        if self.kind != "minkowski":
            if self.dim != 2:
                raise InvalidInputError("lattice kinds are implemented in 1+1 only")
            if self.warp_samples is None:
                raise InvalidInputError("warped kinds need warp samples")
            ws = np.asarray(self.warp_samples, dtype=float)
            object.__setattr__(self, "warp_samples", ws)
            if np.any(ws[:, 1] <= 0.0):
                raise InvalidInputError("warp must be strictly positive")
        if self.weight_samples is not None:
            object.__setattr__(self, "weight_samples",
                               np.asarray(self.weight_samples, dtype=float))

    def _key(self):
        return (self.dim, self.kind, self.bounds,
                None if self.warp_samples is None else self.warp_samples.tobytes(),
                None if self.weight_samples is None else self.weight_samples.tobytes())

    def __hash__(self):
        return hash(self._key())

    def __eq__(self, other):
        return isinstance(other, ModelSpacetime) and self._key() == other._key()

    # -- coefficient evaluation ------------------------------------------------

    def warp(self, t):
        if self.kind == "minkowski":
            return np.ones_like(np.asarray(t, dtype=float))
        return np.interp(t, self.warp_samples[:, 0], self.warp_samples[:, 1])

    def weight(self, t):
        if self.weight_samples is None:
            return np.zeros_like(np.asarray(t, dtype=float))
        return np.interp(t, self.weight_samples[:, 0], self.weight_samples[:, 1])

    def density(self, t):
        """Chart density exp(-weight) sqrt|det g| as a function of time."""
        return self.warp(t) * np.exp(-self.weight(t))

    def lipschitz_bound(self) -> float:
        """Recorded sup of finite-difference quotients of the coefficients."""
        out = 0.0
        for arr in (self.warp_samples, self.weight_samples):
            if arr is not None:
                out = max(out, float(np.max(np.abs(np.diff(arr[:, 1]) / np.diff(arr[:, 0])))))
        return out

    def contains(self, p: Event, tol: float = CHART_TOL) -> bool:
        return all(lo - tol <= c <= hi + tol
                   for c, (lo, hi) in zip(p.coords, self.bounds))

    def require_inside(self, *points: Event):
        for p in points:
            if len(p.coords) != self.dim:
                raise InvalidInputError("event dimension mismatch")
            if not self.contains(p):
                raise InvalidInputError(f"event {p.coords} outside the chart")

    # -- serialization ----------------------------------------------------------

    def to_json(self) -> str:
        data = {"dim": self.dim, "kind": self.kind,
                "bounds": [[lo, hi] for lo, hi in self.bounds]}
        if self.warp_samples is not None:
            key = "a" if self.kind == "lipschitz1p1" else "warp"
            data[key] = self.warp_samples.tolist()
        if self.weight_samples is not None:
            data["weight"] = self.weight_samples.tolist()
        return json.dumps(data)

    @classmethod
    def from_json(cls, text: str) -> "ModelSpacetime":
        d = json.loads(text)
        warp = d.get("warp", d.get("a"))
        return cls(int(d["dim"]), d["kind"],
                   tuple((float(lo), float(hi)) for lo, hi in d["bounds"]),
                   None if warp is None else np.asarray(warp, dtype=float),
                   None if "weight" not in d else np.asarray(d["weight"], dtype=float))


# -- constructors ---------------------------------------------------------------


def minkowski(bounds: Sequence = ((0.0, 1.0), (-1.0, 1.0)),
              weight: Callable | None = None, weight_samples: int = 1025) -> ModelSpacetime:
    bounds = tuple((float(lo), float(hi)) for lo, hi in bounds)
    ws = None
    if weight is not None:
        ws = _sample_curve(weight, bounds[0][0], bounds[0][1], weight_samples)
    return ModelSpacetime(len(bounds), "minkowski", bounds, None, ws)


def warped_product(warp, t_bounds, x_bounds, weight=None, samples: int = 2049,
                   kind: str = "warped") -> ModelSpacetime:
    t_bounds = (float(t_bounds[0]), float(t_bounds[1]))
    x_bounds = (float(x_bounds[0]), float(x_bounds[1]))
    wsamp = _sample_curve(warp, t_bounds[0], t_bounds[1], samples)
    weight_s = None if weight is None else _sample_curve(weight, *t_bounds, samples)
    return ModelSpacetime(2, kind, (t_bounds, x_bounds), wsamp, weight_s)


def lipschitz_1p1(a, t_bounds, x_bounds, weight=None, samples: int = 2049) -> ModelSpacetime:
    return warped_product(a, t_bounds, x_bounds, weight, samples, kind="lipschitz1p1")


def cosh_warp_model(t_half: float = 1.2, x_half: float = 1.2) -> ModelSpacetime:
    """Negatively curved warped slab a(t) = cosh t (timelike Ricci quotient -1)."""
    return warped_product(np.cosh, (-t_half, t_half), (-x_half, x_half))


def desitter_like(delta: float = 0.02, x_half: float = 1.0) -> ModelSpacetime:
    """Positively curved warped slab a(t) = cos t on |t| < pi/2 - delta.

    Normalized so the timelike Ricci quotient is +1 (Ric = -a''/a g on timelike
    directions with these index conventions): the sharp diameter comparison
    gives diam <= pi, approached as delta -> 0 by the comoving maximizers of
    length pi - 2 delta.
    """
    if not 0.0 < delta < math.pi / 4:
        raise InvalidInputError("delta out of range")
    half = math.pi / 2 - delta
    return warped_product(np.cos, (-half, half), (-x_half, x_half))


def kinked_slab(slope: float = 0.25) -> ModelSpacetime:
    """Lipschitz model a(t) = 1 - slope * |t| with a kink at t = 0."""
    return lipschitz_1p1(lambda t: 1.0 - slope * np.abs(t), (-1.0, 1.0), (-1.0, 1.0))


def double_cone_kink() -> ModelSpacetime:
    """A Lipschitz warp with an expensive spatial band around t = 0.

    Crossing in x is cheap near the slab ends and dear in the middle. The
    maximizer between a point-symmetric chronological pair with spatial
    offset is still unique (the length integrand is strictly concave in
    dx/dt) and passes through the centre, though lattice paths tie near it.
    """
    return lipschitz_1p1(lambda t: 1.0 + 1.5 * np.clip(1.0 - np.abs(t) / 0.3, 0.0, None),
                         (-1.0, 1.0), (-1.0, 1.0))


# -- lattice machinery ----------------------------------------------------------


def _jump_fan():
    fan = [(1, 0)]
    for di in range(1, FAN_MAX_DEN + 1):
        for dj in range(1, di + 1):
            if math.gcd(di, dj) == 1:
                fan.append((di, dj))
                fan.append((di, -dj))
    for di in range(1, FAN_WIDE_DEN + 1):
        for dj in range(di + 1, 2 * di + 1):
            if math.gcd(di, dj) == 1:
                fan.append((di, dj))
                fan.append((di, -dj))
    return fan


_FAN = tuple(_jump_fan())
_PAD = max(abs(dj) for _, dj in _FAN)      # -inf columns on each side of a DP row
_FAN_E = np.arange(len(_FAN))
_FAN_DI = np.array([di for di, _ in _FAN])
_FAN_DJ = np.array([dj for _, dj in _FAN])
# offset of each jump's predecessor window in a padded row: node j of row
# i - di is reached from column j - dj, i.e. window _PAD - dj
_FAN_WINDOW = _PAD - _FAN_DJ
# the jumps of each distinct time step di, in fan order
_FAN_STEPS = tuple((di, np.flatnonzero(_FAN_DI == di)) for di in sorted(set(_FAN_DI.tolist())))


def _lattice_shape(model: ModelSpacetime, resolution: int):
    """Node counts (n_t, n_x) with comparable spacings along both axes."""
    (t0, t1), (x0, x1) = model.bounds
    n_x = max(4 * FAN_WIDE_DEN + 3,
              int(round((x1 - x0) / (t1 - t0) * (resolution - 1))) + 1)
    return resolution, n_x


def _fine_shape(shape):
    """The refinement whose nodes contain the given grid exactly."""
    return 2 * shape[0] - 1, 2 * shape[1] - 1


def _lattice_axes(model: ModelSpacetime, shape):
    (t0, t1), (x0, x1) = model.bounds
    return np.linspace(t0, t1, shape[0]), np.linspace(x0, x1, shape[1])


@lru_cache(maxsize=64)
def _edge_table(model: ModelSpacetime, shape):
    """Edge weights W[e, i] for a jump of type e leaving time index i.

    Weights depend on time only (the warp is a function of t); -inf marks
    edges that leave the chart or go spacelike at some quadrature node. The
    quadrature times depend on the jump's time step only, so the warp is
    interpolated once per distinct di and every dj of that step is weighed
    in one broadcast.
    """
    ts, xs = _lattice_axes(model, shape)
    dt = ts[1] - ts[0]
    dx = xs[1] - xs[0]
    n_t = len(ts)
    W = np.full((len(_FAN), n_t), -np.inf)
    for di, es in _FAN_STEPS:
        imax = n_t - di
        if imax <= 0:
            continue
        tmat = ts[:imax, None] + _QS[None, :] * (di * dt)
        rad = (di * dt) ** 2 - (model.warp(tmat) * (_FAN_DJ[es, None, None] * dx)) ** 2
        ok = np.all(rad >= -1e-15, axis=2)                  # (jumps, imax)
        vals = np.sqrt(np.clip(rad[:, :, 1:4], 0.0, None)) @ _QW
        W[es, :imax] = np.where(ok, vals, -np.inf)
    return ts, xs, W


def _dp_longest(model: ModelSpacetime, shape, sources):
    """Longest-path value to every node, one field per source lattice node.

    ``sources`` lists (i, j) nodes; their fields are stacked on a leading
    axis, shape (S, n_t, n_x), and ``None`` gives the one free-start field
    (1, n_t, n_x). The sweep starts at the lowest source row; rows below a
    source's own row stay -inf, so every stacked field is bit-identical to
    a one-source run. Each row takes the max over the whole jump fan in one
    gather of predecessor windows. Memory is S x n_t x n_x float64 plus a
    (fan x S x n_x) row buffer; callers split sources with
    :func:`_source_chunks` to stay within ``STACK_BUDGET_BYTES``.
    """
    ts, xs, W = _edge_table(model, shape)
    n_t, n_x = len(ts), len(xs)
    if sources is None:
        dist = np.full((n_t, 1, n_x + 2 * _PAD), -np.inf)
        dist[:, :, _PAD:-_PAD] = 0.0
        start = 0
    else:
        dist = np.full((n_t, len(sources), n_x + 2 * _PAD), -np.inf)
        for k, (i, j) in enumerate(sources):
            dist[i, k, _PAD + j] = 0.0
        start = min(i for i, _ in sources)
    windows = sliding_window_view(dist, n_x, axis=2)     # (n_t, S, 2 _PAD + 1, n_x)
    for i in range(start + 1, n_t):
        ip = i - _FAN_DI
        live = ip >= start
        e, ip = _FAN_E[live], ip[live]
        w = W[e, ip]
        ok = w > -np.inf
        if not ok.any():
            continue
        e, ip, w = e[ok], ip[ok], w[ok]
        cand = windows[ip, :, _FAN_WINDOW[e]]           # (edges, S, n_x)
        cand += w[:, None, None]
        row = dist[i, :, _PAD:-_PAD]
        np.maximum(row, cand.max(axis=0), out=row)
    return ts, xs, np.moveaxis(dist[:, :, _PAD:-_PAD], 1, 0)


def _source_chunks(shape, sources: list) -> list:
    """Consecutive runs of ``sources`` small enough to stack in one DP."""
    per_source = (shape[0] + len(_FAN)) * (shape[1] + 2 * _PAD) * 8
    size = max(1, STACK_BUDGET_BYTES // per_source)
    return [sources[k:k + size] for k in range(0, len(sources), size)]


def _snap(ts: np.ndarray, xs: np.ndarray, p: Event):
    i = int(round((p.t - ts[0]) / (ts[1] - ts[0])))
    j = int(round((p.x - xs[0]) / (xs[1] - xs[0])))
    return (min(max(i, 0), len(ts) - 1), min(max(j, 0), len(xs) - 1))


def _null_reach(model: ModelSpacetime, t_a: float, t_b: float) -> float:
    """Maximal |x|-displacement of causal curves between two time slices."""
    tt = np.linspace(t_a, t_b, 1025)
    return float(np.trapezoid(1.0 / model.warp(tt), tt))


def causally_related(model: ModelSpacetime, x: Event, y: Event) -> bool:
    """Whether y lies in the causal future of x."""
    model.require_inside(x, y)
    if y.t < x.t:
        return False
    if model.kind == "minkowski":
        dt = y.t - x.t
        dxs = np.asarray(y.coords[1:]) - np.asarray(x.coords[1:])
        return dt + 1e-15 >= float(np.linalg.norm(dxs))
    return abs(y.x - x.x) <= _null_reach(model, x.t, y.t) + 1e-12


def _flat_separations(x, y) -> np.ndarray:
    """l(x, y) on a flat chart, entrywise over broadcast (..., dim) arrays:
    sqrt(dt^2 - |dx|^2) inside the future cone, 0 on the null cone and at
    equal points, -inf outside J^+(x)."""
    d = np.asarray(y, dtype=float) - np.asarray(x, dtype=float)
    dt = d[..., 0]
    s2 = dt * dt - np.sum(d[..., 1:] ** 2, axis=-1)
    out = np.where((dt > 0.0) & (s2 >= 0.0), np.sqrt(np.maximum(s2, 0.0)), -np.inf)
    out[np.all(d == 0.0, axis=-1)] = 0.0
    return out


def _richardson(coarse, fine) -> np.ndarray:
    """One Richardson step over the lattice values at the coarse grid and at
    its nested refinement, entrywise: max(fine, 2 fine - coarse) where both
    levels see a path, the one finite value where only one does, -inf where
    neither does. Callers clamp at 0."""
    coarse, fine = np.asarray(coarse), np.asarray(fine)
    with np.errstate(invalid="ignore"):
        ext = np.maximum(fine, 2.0 * fine - coarse)
    return np.where((coarse > -np.inf) & (fine > -np.inf), ext, np.maximum(coarse, fine))


def _chart_points(model: ModelSpacetime, points) -> np.ndarray:
    """``points`` as an (n, dim) float array, checked as
    :meth:`ModelSpacetime.require_inside` checks events: the first point of
    the wrong dimension or outside the chart raises. An (n, dim) array is
    checked without a Python loop."""
    if isinstance(points, np.ndarray) and points.ndim == 2:
        rows = points.astype(float)
        good = len(rows) if rows.shape[1] == model.dim else 0
    else:
        rows = [as_event(p).coords for p in points]
        good = next((k for k, c in enumerate(rows) if len(c) != model.dim), len(rows))
    arr = np.array(rows[:good], dtype=float).reshape(good, model.dim)
    lo, hi = np.asarray(model.bounds, dtype=float).T
    outside = ~np.all((lo - CHART_TOL <= arr) & (arr <= hi + CHART_TOL), axis=1)
    if np.any(outside):
        k = int(np.argmax(outside))
        coords = rows[k] if isinstance(rows, list) else tuple(float(c) for c in rows[k])
        raise InvalidInputError(f"event {coords} outside the chart")
    if good < len(rows):
        raise InvalidInputError("event dimension mismatch")
    return arr


def time_separations(model: ModelSpacetime, sources, targets,
                     resolution: int = 257) -> np.ndarray:
    """l(x_i, y_j) for every source x_i and target y_j: an (n, m) array with
    -inf sentinels where y_j is not in J^+(x_i).

    Pair by pair the rules of :func:`time_separation` hold. Flat charts use
    the closed form. On the lattice kinds each event snaps once to the
    coarse grid, pairs that snap to one node give 0, pairs whose snapped
    nodes are not causally related give -inf (the rule of
    :func:`causally_related`, with one null reach per distinct pair of
    source and target rows), the rest read the longest-path
    values at the coarse grid and its nested refinement, combined by
    :func:`_richardson` and clamped at 0 (a causal pair no lattice path
    reaches gets 0). Each distinct snapped source gets one longest-path field
    per lattice level, shared by all its targets: the sources are stacked in
    one DP, S x n_t x n_x float64 per level, in chunks of at most
    ``STACK_BUDGET_BYTES``.
    """
    x = _chart_points(model, sources)
    y = _chart_points(model, targets)
    if model.kind == "minkowski":
        return _flat_separations(x[:, None, :], y[None, :, :])
    srcs = [Event(tuple(p)) for p in x.tolist()]
    tgts = [Event(tuple(p)) for p in y.tolist()]
    out = np.empty((len(srcs), len(tgts)))
    # snap once on the coarse grid; the fine grid nests, so a coarse node
    # (i, j) is the fine node (2i, 2j) and both passes see the same pair
    shape = _lattice_shape(model, resolution)
    ts, xs = _lattice_axes(model, shape)
    snapped_x = [_snap(ts, xs, p) for p in srcs]
    snapped_y = [_snap(ts, xs, p) for p in tgts]
    reads: dict = {}              # snapped source -> pairs read from its field
    reach: dict = {}              # (source row, target row) -> their null reach
    for i, x in enumerate(srcs):
        si, sj = snapped_x[i]
        for j, y in enumerate(tgts):
            ti, tj = snapped_y[j]
            if x.coords == y.coords or snapped_x[i] == snapped_y[j]:
                out[i, j] = 0.0
                continue
            # causally_related on the two nodes, one null reach per row pair
            if ti >= si and (si, ti) not in reach:
                reach[si, ti] = _null_reach(model, float(ts[si]), float(ts[ti]))
            if ti < si or not abs(float(xs[tj]) - float(xs[sj])) <= reach[si, ti] + 1e-12:
                out[i, j] = NEG_INF
            else:
                reads.setdefault(snapped_x[i], []).append((i, j))
    lattice = np.full((2, len(srcs), len(tgts)), -np.inf)
    for k, sh in enumerate((shape, _fine_shape(shape))):
        m = 2 ** k
        for chunk in _source_chunks(sh, list(reads)):
            _, _, dist = _dp_longest(model, sh, [(i * m, j * m) for i, j in chunk])
            for node, field in zip(chunk, dist):
                for i, j in reads[node]:
                    lattice[k, i, j] = field[snapped_y[j][0] * m, snapped_y[j][1] * m]
    vals = np.maximum(_richardson(*lattice), 0.0)
    for pairs in reads.values():
        for i, j in pairs:
            out[i, j] = vals[i, j]
    return out


def time_separation(model: ModelSpacetime, x, y, resolution: int = 257) -> float:
    """Time separation l(x, y); -inf sentinel when y is not in J^+(x).

    The 1 x 1 case of :func:`time_separations`: on the lattice kinds one
    longest-path field of n_t x n_x float64 per lattice level for x.
    """
    return float(time_separations(model, (x,), (y,), resolution)[0, 0])


def lorentz_distance(model: ModelSpacetime, o) -> Callable[[Event], float]:
    """The function l_o = l(o, .); l_o(o) = 0."""
    o = as_event(o)

    def l_o(p):
        return time_separation(model, o, p)

    return l_o


def _node_grid(ts, xs) -> np.ndarray:
    """The (len(ts), len(xs), 2) array of chart points (t_i, x_j)."""
    return np.stack(np.meshgrid(ts, xs, indexing="ij"), axis=-1)


def lorentz_distance_field(model: ModelSpacetime, o, resolution: int = 257):
    """l(o, .) on a node grid of a 1+1 chart: (ts, xs, values).

    Values follow the convention of :func:`time_separations`: -inf outside
    J^+(o), 0 on the null cone and at o. Flat charts evaluate the closed form
    on ``resolution`` time nodes and near-square cells (at least 9 columns).
    The lattice kinds return the fine lattice of the Richardson pair; at the
    nodes it shares with the coarse grid the two fields are combined by
    :func:`_richardson`, so there the value equals :func:`time_separations`
    to that node for every chronological pair. Causal values are clamped at
    0.
    """
    o = as_event(o)
    model.require_inside(o)
    if model.dim != 2:
        raise InvalidInputError("the distance field is implemented in 1+1 only")
    if model.kind == "minkowski":
        (t0, t1), (x0, x1) = model.bounds
        ts = np.linspace(t0, t1, resolution)
        xs = np.linspace(x0, x1, max(int(round((x1 - x0) / (ts[1] - ts[0]))) + 1, 9))
        return ts, xs, _flat_separations(o.coords, _node_grid(ts, xs))
    shape = _lattice_shape(model, resolution)
    src = _snap(*_lattice_axes(model, shape), o)
    _, _, (coarse,) = _dp_longest(model, shape, [src])
    ts, xs, (fine,) = _dp_longest(model, _fine_shape(shape), [(2 * src[0], 2 * src[1])])
    field = fine.copy()
    field[::2, ::2] = _richardson(coarse, fine[::2, ::2])
    np.maximum(field, 0.0, out=field, where=field > -np.inf)
    return ts, xs, field


@dataclass(frozen=True)
class LatticePath:
    """A maximizing lattice path with its cumulative lengths."""

    nodes: np.ndarray          # (k, 2) events along the path
    cumlen: np.ndarray         # (k,) cumulative length from the start
    length: float

    def points(self, fractions: np.ndarray) -> np.ndarray:
        """Chart points at the given fractions of the path length, linear in
        ``cumlen`` between nodes: an (len(fractions), 2) array."""
        want = fractions * self.length
        k = np.clip(np.searchsorted(self.cumlen, want, side="right") - 1,
                    0, len(self.cumlen) - 2)
        seg = self.cumlen[k + 1] - self.cumlen[k]
        frac = np.where(seg > 0.0,
                        (want - self.cumlen[k]) / np.where(seg > 0, seg, 1.0), 0.0)
        return self.nodes[k] + frac[:, None] * (self.nodes[k + 1] - self.nodes[k])


def _jumps_into(W, dist, source, target):
    """Every fan jump into a node of rows source[0]..target[0] of ``dist``,
    one gather per node.

    Returns ``into(i, j)``: the weight of each jump of the fan into node
    (i, j), in fan order, and its predecessor's value plus that weight. A
    jump that leaves a row below the source, that leaves the chart, that is
    spacelike or whose predecessor is unreached carries -inf in the second
    array, so it never matches a finite value. Two tables serve every node:
    the jump weights into each row, -inf where the jump starts below the
    source, and the rows' values with -inf margins of _PAD columns on each
    side and max(di) rows below.
    """
    i0, i1 = source[0], target[0]
    below = int(_FAN_DI.max())
    starts = np.arange(i0, i1 + 1)[:, None] - _FAN_DI     # (rows, jumps)
    w_in = np.where(starts >= i0, W[_FAN_E, np.maximum(starts, 0)], -np.inf)
    slab = np.full((below + i1 - i0 + 1, dist.shape[1] + 2 * _PAD), -np.inf)
    slab[below:, _PAD:-_PAD] = dist[i0:i1 + 1]
    # the predecessor row i - di of a jump sits at slab row i - i0 + below - di
    row_shift = below - _FAN_DI

    def into(i, j):
        w = w_in[i - i0]
        return w, slab[i - i0 + row_shift, j + _FAN_WINDOW] + w

    return into


def _backtrack(into, dist, source, target):
    """The maximizer from ``source`` to ``target`` in ``dist``: at each node
    the first jump in fan order whose predecessor's value plus its weight
    gives the node's value to 1e-9 relative. ``into`` is :func:`_jumps_into`
    of the field. Returns the nodes from source to target and the weight of
    the jump into each node after the first."""
    path, weights = [target], []
    cur = target
    rel = 1e-9 * max(1.0, abs(float(dist[target])))
    while cur != source:
        w, reach = into(*cur)
        hit = np.flatnonzero(np.abs(reach - dist[cur]) <= rel)
        if len(hit) == 0:
            raise NoGeodesicError("backtracking lost the maximizing path")
        e = hit[0]
        cur = (cur[0] - int(_FAN_DI[e]), cur[1] - int(_FAN_DJ[e]))
        path.append(cur)
        weights.append(w[e])
    path.reverse()
    weights.reverse()
    return path, weights


def _lattice_path(ts, xs, W, dist, source, target) -> LatticePath:
    """Backtrack the maximizer from ``source``'s field ``dist`` to ``target``."""
    if dist[target] == -np.inf or dist[target] <= 0.0:
        raise NoGeodesicError("endpoints are not chronologically related on the lattice")

    path, weights = _backtrack(_jumps_into(W, dist, source, target), dist, source, target)
    rows, cols = np.array(path).T
    nodes = np.column_stack([ts[rows], xs[cols]])
    return LatticePath(nodes, np.cumsum([0.0] + weights), float(dist[target]))


def maximizing_paths(model: ModelSpacetime, pairs, resolution: int = 513) -> list:
    """:func:`maximizing_path` for every (x, y) of ``pairs``, in order.

    Each distinct snapped source gets one longest-path field, stacked with
    the others in one DP (S x n_t x n_x float64, in chunks of at most
    ``STACK_BUDGET_BYTES``), and every pair from it is backtracked there.
    """
    ends = [(as_event(x), as_event(y)) for x, y in pairs]
    for x, y in ends:
        model.require_inside(x, y)
    if model.kind == "minkowski":
        raise InvalidInputError("flat-chart geodesics are straight; no lattice needed")
    shape = _lattice_shape(model, resolution)
    ts, xs, W = _edge_table(model, shape)
    nodes = [(_snap(ts, xs, x), _snap(ts, xs, y)) for x, y in ends]
    paths = [None] * len(nodes)
    for chunk in _source_chunks(shape, list(dict.fromkeys(s for s, _ in nodes))):
        _, _, dist = _dp_longest(model, shape, chunk)
        fields = dict(zip(chunk, dist))
        for k, (source, target) in enumerate(nodes):
            if source in fields:
                paths[k] = _lattice_path(ts, xs, W, fields[source], source, target)
    return paths


def maximizing_path(model: ModelSpacetime, x, y, resolution: int = 513) -> LatticePath:
    """Longest lattice path between the snapped endpoints; where lattice
    paths tie, the backtrack takes the first jump in fan order."""
    return maximizing_paths(model, [(x, y)], resolution)[0]


def geodesic_point(model: ModelSpacetime, x, y, t: float, resolution: int = 513) -> Event:
    """A point gamma_t on a maximizing geodesic, affinely parametrized:
    l(x, gamma_t) = t l(x, y) up to lattice tolerance."""
    x, y = as_event(x), as_event(y)
    if not 0.0 <= t <= 1.0:
        raise InvalidInputError("t outside [0, 1]")
    if model.kind == "minkowski":
        l = time_separation(model, x, y)
        if l == NEG_INF or l <= 0.0:
            raise NoGeodesicError("endpoints are not chronologically related")
        return Event(tuple((1 - t) * a + t * b for a, b in zip(x.coords, y.coords)))
    p = maximizing_path(model, x, y, resolution).points(np.array([t]))[0]
    return Event(tuple(float(c) for c in p))


# -- measures and volumes ---------------------------------------------------------


def cell_centers(lo: float, hi: float, n: int):
    """Midpoints of ``n`` equal cells tiling [lo, hi], and the cell width."""
    h = (hi - lo) / n
    return lo + h * (np.arange(n) + 0.5), h


def _raster_measures(model: ModelSpacetime, masks: Callable, resolution: int) -> list:
    """Midpoint-rule measures of several regions in one pass over the chart's
    cell-centre raster.

    The raster runs in chunks of rows; ``masks`` maps each chunk's
    (rows, resolution, 2) points to an iterable of boolean masks, one per
    region, and each region's measure is the sum over chunks of its masked
    density sum, times the cell area.
    """
    if model.dim != 2:
        raise InvalidInputError("region integration is implemented in 1+1 only")
    (t0, t1), (x0, x1) = model.bounds
    t_centers, ht = cell_centers(t0, t1, resolution)
    x_centers, hx = cell_centers(x0, x1, resolution)
    totals = 0.0
    chunk = max(1, int(2e6) // resolution)
    pts = np.empty((chunk, resolution, 2))
    for lo in range(0, resolution, chunk):
        hi = min(lo + chunk, resolution)
        m = hi - lo
        pts[:m, :, 0] = t_centers[lo:hi, None]
        pts[:m, :, 1] = x_centers[None, :]
        dens = model.density(t_centers[lo:hi])[:, None]
        totals = totals + np.array([float(np.sum(np.asarray(mask, dtype=bool) * dens))
                                    for mask in masks(pts[:m])])
    return [float(v) for v in totals * ht * hx]


def region_measure(model: ModelSpacetime, region: Callable[[np.ndarray], np.ndarray],
                   resolution: int = 1024) -> float:
    """Midpoint-rule measure of a region: exp(-weight) sqrt|det g| summed over
    cell centers where ``region`` holds.

    ``region`` maps an (..., dim) coordinate array to a boolean mask.
    Implemented for 1+1 charts (all lattice models, and flat charts of any
    width in the spatial axis).
    """
    return _raster_measures(model, lambda pts: [region(pts)], resolution)[0]


def _assert_star_shaped(model: ModelSpacetime, o: Event,
                        region: Callable[[np.ndarray], np.ndarray], rays: int = 64):
    """Sample rays from o, locate the far boundary, and check that the
    intermediate points stay in the region (straight chart segments stand in
    for geodesics; exact in the flat case)."""
    (t0, t1), (x0, x1) = model.bounds
    span = math.hypot(t1 - t0, x1 - x0)
    angles = np.linspace(0.0, 2.0 * math.pi, rays, endpoint=False)
    dirs = np.column_stack([np.cos(angles), np.sin(angles)])
    rr = np.linspace(1e-6, span, 256)
    pts = o.coords + rr[None, :, None] * dirs[:, None, :]
    inside = np.asarray(region(pts), dtype=bool)
    inside &= (pts[..., 0] >= t0) & (pts[..., 0] <= t1) \
        & (pts[..., 1] >= x0) & (pts[..., 1] <= x1)
    for k in range(rays):
        hit = np.nonzero(inside[k])[0]
        if len(hit) == 0:
            continue
        # along each sampled geodesic: the region must be entered at the apex
        # and left exactly once
        if hit[0] > 2 or np.any(np.diff(hit) != 1):
            raise InvalidInputError("region is not star-shaped about the apex")


def ball_volumes_areas(model: ModelSpacetime, o, radii: Sequence[float],
                       region: Callable[[np.ndarray], np.ndarray],
                       dr: float = 0.01, resolution: int = 1024):
    """Ball volumes v(r) = m[region and {0 <= l_o <= r}] and difference
    quotient areas s(r) = (v(r + dr) - v(r)) / dr for every r in ``radii``:
    two lists of floats.

    One l_o field serves all radii (flat charts read the closed form at the
    cell centres, the lattice kinds the node of :func:`lorentz_distance_field`
    nearest to each centre), and one raster pass measures every ball; each
    volume is the same sum of per-chunk masked sums that
    :func:`region_measure` of its ball gives. The region must be star-shaped
    about o.
    """
    o = as_event(o)
    model.require_inside(o)
    radii = [float(r) for r in radii]
    if any(r <= 0.0 for r in radii):
        raise InvalidInputError("need r > 0")
    _assert_star_shaped(model, o, region)

    if model.kind == "minkowski":
        def l_of(pts):
            return _flat_separations(o.coords, pts)
    else:
        ts, xs, field = lorentz_distance_field(model, o)

        def l_of(pts):
            ii = np.clip((pts[..., 0] - ts[0]) / (ts[1] - ts[0]), 0, len(ts) - 1)
            jj = np.clip((pts[..., 1] - xs[0]) / (xs[1] - xs[0]), 0, len(xs) - 1)
            return field[np.round(ii).astype(int), np.round(jj).astype(int)]

    def balls(pts):
        l = l_of(pts)
        inside = region(pts) & (l >= 0.0)
        return (inside & (l <= level) for r in radii for level in (r, r + dr))

    v = _raster_measures(model, balls, resolution)
    vols, outer = v[0::2], v[1::2]
    return vols, [(v1 - v0) / dr for v0, v1 in zip(vols, outer)]


def ball_volume_area(model: ModelSpacetime, o, r: float,
                     region: Callable[[np.ndarray], np.ndarray],
                     dr: float = 0.01, resolution: int = 1024):
    """Ball volume v(r) and area s(r): the one-radius case of
    :func:`ball_volumes_areas`."""
    vols, areas = ball_volumes_areas(model, o, [r], region, dr, resolution)
    return vols[0], areas[0]


def timelike_diameter(model: ModelSpacetime, resolution: int = 257) -> float:
    """Sup of the time separation over chart pairs (lattice lower estimate):
    the maxima of the free-start fields on both lattice levels, combined by
    :func:`_richardson`."""
    (t0, t1) = model.bounds[0]
    if model.kind == "minkowski":
        return t1 - t0          # attained by any constant-space pair
    shape = _lattice_shape(model, resolution)
    _, _, coarse = _dp_longest(model, shape, None)
    _, _, fine = _dp_longest(model, _fine_shape(shape), None)
    return max(float(_richardson(np.max(coarse), np.max(fine))), 0.0)
