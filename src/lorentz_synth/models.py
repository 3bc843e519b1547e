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

Geodesics on the non-flat kinds are exact: along a maximizer the momentum
J = a^2 x' / sqrt(1 - a^2 x'^2) is conserved, and its reach and length are
closed forms on each linear piece of the warp.

The time separation convention, the same on both chart kinds: l(x, x) = 0,
l(x, y) = -inf when y is not in the causal future of x, and causal pairs that
are not chronological (the null cone, or pairs below the lattice's chronology
resolution) get 0. The flat closed form lives in :func:`_flat_separations`
and the Richardson step in :func:`_richardson`; pair matrices, whole fields
and the ball volumes all read l through them. Ball volumes for any number of
radii read one l_o field and one raster pass per call. The diameter reads no
l: on these charts it is the time extent t1 - t0. Causality on the lattice
kinds reads the null reach, the exact integral of 1/a over the warp's linear
pieces.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvalidInputError, NoGeodesicError
from .extreal import NEG_INF

FAN_MAX_DEN = 16        # Farey density of the jump fan for slopes <= 1
FAN_WIDE_DEN = 8        # coarser density for slopes in (1, 2]
# bytes one stacked longest-path DP may hold: its S fields of at most
# n_t x n_x float64 plus the per-row candidate buffer; more sources run in
# chunks; so do the pairs of a momentum solve, at PIECE_BYTES per warp piece
STACK_BUDGET_BYTES = 32 * 2 ** 20
PIECE_BYTES = 160
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
    dx/dt) and passes through the centre.
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


def _edge_table(model: ModelSpacetime, shape, lo: int = 0, hi: int | None = None):
    """Edge weights W[e, i - lo] for a jump of type e leaving time index i,
    for the rows lo <= i < hi (hi defaults to the last row plus one).

    Weights depend on time only (the warp is a function of t); -inf marks
    edges that leave the chart or go spacelike at some quadrature node. The
    quadrature times depend on the jump's time step only, so the warp is
    interpolated once per distinct di and every dj of that step is weighed
    in one broadcast. Each row's weights are those of the whole table: every
    entry reads its own row only. Not cached: each lattice pass builds the
    table of its own rows once.
    """
    ts, xs = _lattice_axes(model, shape)
    dt = ts[1] - ts[0]
    dx = xs[1] - xs[0]
    n_t = len(ts)
    hi = n_t if hi is None else hi
    W = np.full((len(_FAN), hi - lo), -np.inf)
    for di, es in _FAN_STEPS:
        imax = min(hi, n_t - di)
        if imax <= lo:
            continue
        # a one-row product takes numpy's dot route, whose bits differ from
        # those of a row of a many-row product: weigh at least two rows where
        # the whole table has them, and keep the window's
        last = max(imax, min(lo + 2, n_t - di))
        first = max(0, min(lo, last - 2))
        tmat = ts[first:last, None] + _QS[None, :] * (di * dt)
        rad = (di * dt) ** 2 - (model.warp(tmat) * (_FAN_DJ[es, None, None] * dx)) ** 2
        ok = np.all(rad >= -1e-15, axis=2)                  # (jumps, last - first)
        vals = np.sqrt(np.clip(rad[:, :, 1:4], 0.0, None)) @ _QW
        W[es, :imax - lo] = np.where(ok, vals, -np.inf)[:, lo - first:imax - first]
    return ts, xs, W


def _dp_longest(model: ModelSpacetime, shape, sources, stop: int | None = None):
    """Longest-path value to every node of rows start..stop, one field per
    source lattice node.

    ``sources`` lists (i, j) nodes; ``start`` is the lowest source row and
    ``stop`` defaults to the last row. The fields are stacked on a leading
    axis, shape (S, stop - start + 1, n_x), row r of each the lattice row
    start + r; the sweep reads :func:`_edge_table` of rows start..stop - 1. Rows
    below a source's own row stay -inf, so every stacked field is
    bit-identical to the same rows of a one-source run: row i reads only rows
    below i, and each edge weight only its own row. Each row takes the max
    over the whole jump fan in one gather of predecessor windows. Memory is
    S x (stop - start + 1) x n_x float64 plus a (fan x S x n_x) row buffer;
    callers split sources with :func:`_source_chunks` to stay within
    ``STACK_BUDGET_BYTES``.
    """
    n_t, n_x = shape
    stop = n_t - 1 if stop is None else stop
    start = min(i for i, _ in sources)
    dist = np.full((stop - start + 1, len(sources), n_x + 2 * _PAD), -np.inf)
    for k, (i, j) in enumerate(sources):
        dist[i - start, k, _PAD + j] = 0.0
    _, _, W = _edge_table(model, shape, start, stop)
    windows = sliding_window_view(dist, n_x, axis=2)     # (rows, S, 2 _PAD + 1, n_x)
    for i in range(1, stop - start + 1):
        ip = i - _FAN_DI
        live = ip >= 0
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
    return np.moveaxis(dist[:, :, _PAD:-_PAD], 1, 0)


def _source_chunks(shape, sources: list) -> list:
    """Consecutive runs of ``sources`` small enough to stack in one DP."""
    per_source = (shape[0] + len(_FAN)) * (shape[1] + 2 * _PAD) * 8
    size = max(1, STACK_BUDGET_BYTES // per_source)
    return [sources[k:k + size] for k in range(0, len(sources), size)]


def _snap(ts: np.ndarray, xs: np.ndarray, p: Event):
    i = int(round((p.t - ts[0]) / (ts[1] - ts[0])))
    j = int(round((p.x - xs[0]) / (xs[1] - xs[0])))
    return (min(max(i, 0), len(ts) - 1), min(max(j, 0), len(xs) - 1))


def _piece_reaches(h, d, a0):
    """Integral of 1/a over pieces of width h on which the linear warp moves
    from a0 by d, entrywise: h log1p(d / a0) / d, or h / a0 where d = 0."""
    flat = d == 0.0
    return np.where(flat, h / a0, h * np.log1p(d / a0) / np.where(flat, 1.0, d))


def _null_reaches(model: ModelSpacetime, ts) -> np.ndarray:
    """Integral of 1/a from the first warp sample to each time of ``ts``,
    exact for the piecewise-linear warp: a causal curve between the slices
    t_a <= t_b moves by at most the difference of the two values in |x|.
    Outside its samples the warp is held constant, as ``np.interp`` holds
    it."""
    T, A = model.warp_samples[:, 0], model.warp_samples[:, 1]
    cum = np.concatenate([[0.0], np.cumsum(_piece_reaches(np.diff(T), np.diff(A), A[:-1]))])
    ts = np.asarray(ts, dtype=float)
    inside = np.clip(ts, T[0], T[-1])
    k = np.clip(np.searchsorted(T, inside, side="right") - 1, 0, len(T) - 2)
    part = _piece_reaches(inside - T[k], np.interp(inside, T, A) - A[k], A[k])
    return cum[k] + part + (ts - inside) / model.warp(ts)


def causally_related(model: ModelSpacetime, x: Event, y: Event) -> bool:
    """Whether y lies in the causal future of x."""
    model.require_inside(x, y)
    if y.t < x.t:
        return False
    if model.kind == "minkowski":
        dt = y.t - x.t
        dxs = np.asarray(y.coords[1:]) - np.asarray(x.coords[1:])
        return dt + 1e-15 >= float(np.linalg.norm(dxs))
    f_x, f_y = _null_reaches(model, [x.t, y.t])
    return abs(y.x - x.x) <= f_y - f_x + 1e-12


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
    :func:`causally_related`, on the null reaches of every row read,
    evaluated once), the rest read the longest-path values at the coarse
    grid and its nested refinement, combined by
    :func:`_richardson` and clamped at 0 (a causal pair no lattice path
    reaches gets 0). Each distinct snapped source gets one longest-path field
    per lattice level, shared by all its targets: the sources are stacked in
    one DP, in chunks of at most ``STACK_BUDGET_BYTES``. A chunk's sweep
    covers only the rows from its lowest source to the highest target row it
    reads (twice those rows on the fine level), S x rows x n_x float64, with
    the edge table of those rows alone.
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
    # causally_related on the snapped nodes: the null reaches of every row
    # read, evaluated once
    reach = _null_reaches(model, ts[[i for i, _ in snapped_x + snapped_y]]).tolist()
    f_x, f_y = reach[:len(srcs)], reach[len(srcs):]
    reads: dict = {}              # snapped source -> pairs read from its field
    for i, x in enumerate(srcs):
        si, sj = snapped_x[i]
        for j, y in enumerate(tgts):
            ti, tj = snapped_y[j]
            if x.coords == y.coords or snapped_x[i] == snapped_y[j]:
                out[i, j] = 0.0
                continue
            if ti < si or not abs(float(xs[tj]) - float(xs[sj])) <= f_y[j] - f_x[i] + 1e-12:
                out[i, j] = NEG_INF
            else:
                reads.setdefault(snapped_x[i], []).append((i, j))
    lattice = np.full((2, len(srcs), len(tgts)), -np.inf)
    for k, sh in enumerate((shape, _fine_shape(shape))):
        m = 2 ** k
        for chunk in _source_chunks(sh, list(reads)):
            start = min(i for i, _ in chunk) * m
            stop = max(snapped_y[j][0] for node in chunk for _, j in reads[node]) * m
            dist = _dp_longest(model, sh, [(i * m, j * m) for i, j in chunk], stop)
            for node, field in zip(chunk, dist):
                for i, j in reads[node]:
                    lattice[k, i, j] = field[snapped_y[j][0] * m - start, snapped_y[j][1] * m]
    vals = np.maximum(_richardson(*lattice), 0.0)
    for pairs in reads.values():
        for i, j in pairs:
            out[i, j] = vals[i, j]
    return out


def time_separation(model: ModelSpacetime, x, y, resolution: int = 257) -> float:
    """Time separation l(x, y); -inf sentinel when y is not in J^+(x).

    The 1 x 1 case of :func:`time_separations`: on the lattice kinds one
    longest-path field per lattice level for x, over the rows from x's
    snapped row to y's.
    """
    return float(time_separations(model, (x,), (y,), resolution)[0, 0])


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
    (coarse,) = _dp_longest(model, shape, [src])
    (fine,) = _dp_longest(model, _fine_shape(shape), [(2 * src[0], 2 * src[1])])
    ts, xs = _lattice_axes(model, _fine_shape(shape))
    # rows below o's own are -inf; the sweeps start at o's row
    field = np.full((len(ts), len(xs)), -np.inf)
    field[2 * src[0]:] = fine
    field[2 * src[0]::2, ::2] = _richardson(coarse, fine[::2, ::2])
    np.maximum(field, 0.0, out=field, where=field > -np.inf)
    return ts, xs, field


# -- geodesics --------------------------------------------------------------------


def _warp_pieces(model: ModelSpacetime, ta: float, tb: float):
    """(left, h, a0, a1) of the linear pieces of the warp between the times
    ta < tb: the intervals of the warp samples cut at ta and tb, each with
    its start, width and end values (the warp held constant outside its
    samples, as ``np.interp`` holds it)."""
    T, A = model.warp_samples[:, 0], model.warp_samples[:, 1]
    lo, hi = np.searchsorted(T, ta, side="right"), np.searchsorted(T, tb, side="left")
    ts = np.concatenate([[ta], T[lo:hi], [tb]])
    a = np.concatenate([[model.warp(ta)], A[lo:hi], [model.warp(tb)]])
    return ts[:-1], np.diff(ts), a[:-1], a[1:]


def _piece_terms(h, a0, a1, J):
    """Reach X, length l and dX/dJ of the J-geodesic across pieces of width h
    on which the warp runs linearly from a0 to a1, entrywise. With
    c = sqrt(a^2 + J^2): l = h (a0 + a1) / (c0 + c1), dX/dJ = l / (c0 c1) and
    X = h (asinh(J / a0) - asinh(J / a1)) / (a1 - a0) = h z asinh(y) / y
    with z = J (a0 + a1) / (a0 a1 (c0 + c1)) and y = (a1 - a0) z: no
    cancellation as a1 -> a0, and h z on a constant piece."""
    c0, c1 = np.sqrt(a0 * a0 + J * J), np.sqrt(a1 * a1 + J * J)
    l = h * (a0 + a1) / (c0 + c1)
    z = J * (a0 + a1) / (a0 * a1 * (c0 + c1))
    y = (a1 - a0) * z
    reach = h * z * np.divide(np.arcsinh(y), y, out=np.ones_like(y), where=y != 0.0)
    return reach, l, l / (c0 * c1)


def _momenta(owner, h, a0, a1, dx, lo, hi) -> np.ndarray:
    """The momentum J in [lo, hi] of each pair whose reach, summed over the
    pieces it owns, is dx. X is increasing and concave in J >= 0, so Newton
    from lo rises monotonically to the root; a pair stops once its step is
    rounding (the residual reached 0, or J the bound hi). dx = 0 gives 0."""
    J = lo.copy()
    live = np.flatnonzero(dx > 0.0)
    keep = np.isin(owner, live)
    own, h, a0, a1 = np.searchsorted(live, owner[keep]), h[keep], a0[keep], a1[keep]
    for _ in range(200):
        if len(live) == 0:
            return J
        reach, _, slope = _piece_terms(h, a0, a1, J[live][own])
        gap = dx[live] - np.bincount(own, reach, len(live))
        now = J[live]
        J[live] = np.where(gap > 0.0, np.minimum(
            now + gap / np.bincount(own, slope, len(live)), hi[live]), now)
        going = J[live] - now > 4.0 * np.finfo(float).eps * J[live]
        keep = going[own]
        own = (np.cumsum(going) - 1)[own[keep]]
        h, a0, a1, live = h[keep], a0[keep], a1[keep], live[going]
    raise NoGeodesicError("the momentum of a geodesic did not converge")


@dataclass(frozen=True, eq=False)
class Geodesic:
    """The maximizer from x to y on a warped chart: the curve of conserved
    momentum J, parametrized by its length."""

    model: ModelSpacetime
    x: Event
    y: Event
    J: float
    length: float

    def points(self, fractions) -> np.ndarray:
        """Chart points at the given fractions of the length, (n, 2). On the
        piece reached, c = sqrt(a^2 + J^2) grows by g = r (a1 - a0) / h over
        the length r, so a^2 = (c - J)(c + J) with c - J = a0^2 / (c0 + J) + g,
        and the time step is r (2 c0 + g) / (a + a0) (r c0 / a0 if constant)."""
        J = self.J
        left, h, a0, a1 = _warp_pieces(self.model, self.x.t, self.y.t)
        reach, l, _ = _piece_terms(h, a0, a1, J)
        cum_l, cum_x = (np.concatenate([[0.0], np.cumsum(v)]) for v in (l, reach))
        want = np.asarray(fractions, dtype=float) * self.length
        k = np.clip(np.searchsorted(cum_l, want, side="right") - 1, 0, len(h) - 1)
        r, h, a0, a1 = np.clip(want - cum_l[k], 0.0, l[k]), h[k], a0[k], a1[k]
        c0 = np.sqrt(a0 * a0 + J * J)
        g = r * (a1 - a0) / h
        a = np.sqrt(np.maximum((a0 * a0 / (c0 + J) + g) * (c0 + g + J), 0.0))
        tau = r * (2.0 * c0 + g) / (a + a0)
        x = cum_x[k] + _piece_terms(tau, a0, a, J)[0]
        return np.column_stack([left[k] + tau,
                                self.x.x + math.copysign(1.0, self.y.x - self.x.x) * x])


def maximizing_paths(model: ModelSpacetime, pairs) -> list:
    """:func:`maximizing_path` for every (x, y) of ``pairs``, in order: one
    Newton solve of X(J) = |dx| (:func:`_momenta`) per chunk of pairs whose
    pieces fit ``STACK_BUDGET_BYTES``. With r = |dx| / (null reach),
    a_min r / sqrt(1 - r^2) <= J <= a_max r / sqrt(1 - r^2) over the pair's
    pieces, since X(J) / (null reach) lies between J / sqrt(a^2 + J^2) at
    a_max and at a_min."""
    ends = [(as_event(x), as_event(y)) for x, y in pairs]
    for x, y in ends:
        model.require_inside(x, y)
    if model.kind == "minkowski":
        raise InvalidInputError("flat-chart geodesics are straight; no warp to integrate")
    ta, xa, tb, xb = np.array([x.coords + y.coords for x, y in ends]).reshape(-1, 4).T
    dx = np.abs(xb - xa)
    null = _null_reaches(model, tb) - _null_reaches(model, ta)
    # on or past the null cone; a y not later than x (x itself too) has null <= 0
    bad = dx >= null
    if np.any(bad):
        x, y = ends[int(np.argmax(bad))]
        raise NoGeodesicError(f"{x.coords} -> {y.coords}: not chronologically related")
    q = dx / np.sqrt((null - dx) * (null + dx))
    size = max(1, STACK_BUDGET_BYTES // (PIECE_BYTES * (len(model.warp_samples) + 1)))
    paths = []
    for lo in range(0, len(ends), size):
        sl = slice(lo, lo + size)
        pieces = [_warp_pieces(model, a, b) for a, b in zip(ta[sl], tb[sl])]
        counts = [len(p[1]) for p in pieces]
        owner, starts = np.repeat(np.arange(len(counts)), counts), np.cumsum(counts) - counts
        _, h, a0, a1 = (np.concatenate(arrays) for arrays in zip(*pieces))
        J = _momenta(owner, h, a0, a1, dx[sl],
                     np.minimum.reduceat(np.minimum(a0, a1), starts) * q[sl],
                     np.maximum.reduceat(np.maximum(a0, a1), starts) * q[sl])
        lengths = np.bincount(owner, _piece_terms(h, a0, a1, J[owner])[1], len(counts))
        paths += [Geodesic(model, x, y, float(j), float(length))
                  for (x, y), j, length in zip(ends[sl], J, lengths)]
    return paths


def maximizing_path(model: ModelSpacetime, x, y) -> Geodesic:
    """The exact J-geodesic from x to y on a warped chart; raises
    :class:`NoGeodesicError` unless y is in the chronological future of x."""
    return maximizing_paths(model, [(x, y)])[0]


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


def timelike_diameter(model: ModelSpacetime) -> float:
    """Sup of the time separation over chart pairs: the chart's time extent
    t1 - t0 on every kind. Each chart is flat or g = dt^2 - a(t)^2 dx^2, so
    along a causal curve dl <= dt, with equality on the comoving curves
    x = const that join the two time faces."""
    (t0, t1) = model.bounds[0]
    return t1 - t0
