"""Gridded Lipschitz Lorentzian metrics and finite-difference curvature.

A MetricGrid stores nodal coefficient matrices g_ij (signature +, -, ..., -),
a log-density weight, and a validity mask. Rough metrics are smoothed by
convolution with a compactly supported bump before any curvature is read off:

* ``mollify``      -- tensor-product bump kernel of radius eps, interior-only;
* ``cone_narrowed`` -- g - c dt (x) dt, shrinking the timelike cones;
* ``christoffels`` / ``ricci`` / ``bakry_emery`` -- central finite differences
  (4th order, so the truncation error stays far below the mollification-scale
  features the deficit integrals need to resolve);
* ``timelike_lower_bound_fn`` -- worst Ricci quotient over sampled cones;
* ``lp_deficit_curves`` -- integral of |(k - K)_-|^p along a mollification
  schedule for every p in a list, the quantitative track of curvature bounds
  surviving smoothing; k is scanned once per radius and read by every p
  (``lp_deficit_curve`` is the one-p case).

Derivatives at a node use neighbors up to 4 steps away; every operation
records which nodes remain trustworthy in the ``valid`` mask instead of
falling back to one-sided stencils.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateMetricError, InvalidInputError

COND_LIMIT = 1e12
CURV_MARGIN = 4          # nodes a curvature stencil reaches past its center
CONE_DIRECTIONS = 16     # slopes per node, one sample each
CONE_SPEED = 0.5


def _check_signature(nodes: np.ndarray, mask: np.ndarray):
    if not np.any(mask):
        raise InvalidInputError("no valid nodes left")
    eig = np.linalg.eigvalsh(nodes[mask])
    if np.any(eig[..., :-1] >= 0.0) or np.any(eig[..., -1] <= 0.0):
        raise DegenerateMetricError("nodal matrix without Lorentzian signature")


def _fd_sup_quotient(arr: np.ndarray, spacing, axes: int) -> float:
    out = 0.0
    for ax in range(axes):
        d = np.abs(np.diff(arr, axis=ax)) / spacing[ax]
        if d.size:
            out = max(out, float(np.max(d)))
    return out


@dataclass(frozen=True)
class MetricGrid:
    """Sampled Lorentzian metric with a log-density weight on a uniform grid."""

    spacing: tuple                 # grid step per axis
    origin: tuple                  # coordinate of node (0, ..., 0)
    nodes: np.ndarray              # (*shape, dims, dims), symmetric
    weight_nodes: np.ndarray       # (*shape,), -log of dm/dvol_g
    valid: np.ndarray              # (*shape,) bool
    lipschitz_bound: float
    sup_error: float = 0.0         # recorded mollification error to the parent

    def __post_init__(self):
        if self.dims < 2:
            raise InvalidInputError("need at least one time and one space axis")
        if self.nodes.shape[:-2] != self.weight_nodes.shape:
            raise InvalidInputError("weight array shape mismatch")
        if not np.all(np.isfinite(self.weight_nodes)):
            raise InvalidInputError("weight must be finite at every node")
        if not np.allclose(self.nodes, np.swapaxes(self.nodes, -1, -2),
                           atol=1e-12, rtol=0.0):
            raise InvalidInputError("nodal matrices must be symmetric")
        _check_signature(self.nodes, self.valid)

    @property
    def dims(self) -> int:
        return self.nodes.shape[-1]

    @property
    def shape(self) -> tuple:
        return self.nodes.shape[:-2]

    def axes(self):
        return [self.origin[k] + self.spacing[k] * np.arange(n)
                for k, n in enumerate(self.shape)]

    def _key(self):
        return (self.spacing, self.origin, self.nodes.tobytes(),
                self.weight_nodes.tobytes(), self.valid.tobytes())

    def __hash__(self):
        return hash(self._key())

    def __eq__(self, other):
        return isinstance(other, MetricGrid) and self._key() == other._key()


def metric_grid(fn: Callable, bounds: Sequence, shape: Sequence,
                weight: Callable | None = None) -> MetricGrid:
    """Sample ``fn(point) -> (dims, dims) matrix`` over a coordinate box."""
    axes = [np.linspace(lo, hi, n) for (lo, hi), n in zip(bounds, shape)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack(mesh, axis=-1)
    nodes = np.asarray(fn(pts), dtype=float)
    w = np.zeros(pts.shape[:-1]) if weight is None else np.asarray(weight(pts), dtype=float)
    spacing = tuple(float(ax[1] - ax[0]) for ax in axes)
    lip = max(_fd_sup_quotient(nodes, spacing, len(shape)),
              _fd_sup_quotient(w, spacing, len(shape)))
    return MetricGrid(spacing, tuple(float(ax[0]) for ax in axes), nodes, w,
                      np.ones(pts.shape[:-1], dtype=bool), lip)


def minkowski_grid(bounds: Sequence, shape: Sequence,
                   weight: Callable | None = None) -> MetricGrid:
    dims = len(bounds)

    def fn(pts):
        g = np.zeros(pts.shape[:-1] + (dims, dims))
        g[..., 0, 0] = 1.0
        for k in range(1, dims):
            g[..., k, k] = -1.0
        return g

    return metric_grid(fn, bounds, shape, weight)


def warped_grid(a: Callable, t_bounds, x_bounds, shape,
                weight: Callable | None = None) -> MetricGrid:
    """1+1 grid for g = dt^2 - a(t)^2 dx^2."""

    def fn(pts):
        g = np.zeros(pts.shape[:-1] + (2, 2))
        g[..., 0, 0] = 1.0
        g[..., 1, 1] = -np.asarray(a(pts[..., 0])) ** 2
        return g

    wfn = None if weight is None else (lambda pts: weight(pts[..., 0]))
    return metric_grid(fn, (t_bounds, x_bounds), shape, wfn)


# -- mollification and cone narrowing --------------------------------------------


def _bump_kernel(radius_nodes: int, h: float, eps: float) -> np.ndarray:
    off = np.arange(-radius_nodes, radius_nodes + 1) * h / eps
    k = np.where(np.abs(off) < 1.0, np.exp(-1.0 / np.clip(1.0 - off ** 2, 1e-300, None)), 0.0)
    return k / np.sum(k)


def mollify(grid: MetricGrid, eps: float) -> MetricGrid:
    """Convolve every coefficient and the weight with a smooth bump of radius
    eps; the boundary band the kernel cannot see is marked invalid. The
    smoothed grid is built as a ``MetricGrid``, which checks its signature."""
    # imported here, as in _eroded, so that importing the package loads no
    # scipy (cli.CommandSpec.imports)
    from scipy import ndimage

    if eps < 2.0 * max(grid.spacing):
        raise InvalidInputError("kernel radius below twice the grid spacing")
    nodes = grid.nodes.copy()
    w = grid.weight_nodes.copy()
    valid = grid.valid.copy()
    for ax, h in enumerate(grid.spacing):
        r = int(math.floor(eps / h))
        kern = _bump_kernel(r, h, eps)
        for i in range(grid.dims):
            for j in range(i, grid.dims):
                sm = ndimage.convolve1d(nodes[..., i, j], kern, axis=ax, mode="nearest")
                nodes[..., i, j] = sm
                nodes[..., j, i] = sm
        w = ndimage.convolve1d(w, kern, axis=ax, mode="nearest")
        valid = ndimage.minimum_filter1d(valid.astype(np.uint8), 2 * r + 1,
                                         axis=ax, mode="constant", cval=0).astype(bool)
    if not np.any(valid):
        raise InvalidInputError("kernel radius leaves no interior nodes")
    sup_err = max(float(np.max(np.abs(nodes - grid.nodes)[valid])),
                  float(np.max(np.abs(w - grid.weight_nodes)[valid])))
    lip = max(_fd_sup_quotient(nodes, grid.spacing, len(grid.shape)),
              _fd_sup_quotient(w, grid.spacing, len(grid.shape)))
    return MetricGrid(grid.spacing, grid.origin, nodes, w, valid, lip, sup_err)


def cone_narrowed(grid: MetricGrid, c: float) -> MetricGrid:
    """Subtract c dt (x) dt from each nodal matrix and re-validate (the
    ``MetricGrid`` rebuilt by ``replace`` checks the signature)."""
    if c < 0.0:
        raise InvalidInputError("need c >= 0")
    if c == 0.0:
        return grid
    nodes = grid.nodes.copy()
    nodes[..., 0, 0] -= c
    return replace(grid, nodes=nodes)


def narrowing_constant(grid: MetricGrid) -> float:
    """The cone-narrowing strength for a mollified grid: twice the recorded
    smoothing error plus one grid step, so the narrowed null cone sits
    strictly inside the rough metric's timelike cone."""
    return 2.0 * grid.sup_error + max(grid.spacing)


# -- finite-difference curvature --------------------------------------------------


def _d1(f: np.ndarray, axis: int, h: float) -> np.ndarray:
    fp1, fm1 = np.roll(f, -1, axis), np.roll(f, 1, axis)
    fp2, fm2 = np.roll(f, -2, axis), np.roll(f, 2, axis)
    return (-fp2 + 8.0 * fp1 - 8.0 * fm1 + fm2) / (12.0 * h)


def _d2(f: np.ndarray, axis: int, h: float) -> np.ndarray:
    fp1, fm1 = np.roll(f, -1, axis), np.roll(f, 1, axis)
    fp2, fm2 = np.roll(f, -2, axis), np.roll(f, 2, axis)
    return (-fp2 + 16.0 * fp1 - 30.0 * f + 16.0 * fm1 - fm2) / (12.0 * h * h)


def _scalar_hessian(f: np.ndarray, spacing) -> np.ndarray:
    d = len(spacing)
    out = np.empty(f.shape + (d, d))
    for i in range(d):
        out[..., i, i] = _d2(f, i, spacing[i])
        for j in range(i + 1, d):
            mixed = _d1(_d1(f, i, spacing[i]), j, spacing[j])
            out[..., i, j] = mixed
            out[..., j, i] = mixed
    return out


def _eroded(valid: np.ndarray, margin: int) -> np.ndarray:
    from scipy import ndimage

    out = valid
    for ax in range(valid.ndim):
        out = ndimage.minimum_filter1d(out.astype(np.uint8), 2 * margin + 1,
                                       axis=ax, mode="constant", cval=0).astype(bool)
    return out


@dataclass(frozen=True)
class CurvatureField:
    """Per-node curvature tensors; entries outside ``valid`` are garbage."""

    grid: MetricGrid
    valid: np.ndarray
    christoffel: np.ndarray                 # (*shape, k, i, j)
    ricci: np.ndarray | None = None
    bakry_emery: np.ndarray | None = None
    hessian_weight: np.ndarray | None = None
    n_param: float | None = None


def _christoffel_arrays(nodes: np.ndarray, spacing):
    d = nodes.shape[-1]
    dg = np.empty(nodes.shape[:-2] + (d, d, d))
    for k in range(d):
        dg[..., k, :, :] = _d1(nodes, k, spacing[k])
    # T[l, i, j] = d_i g_jl + d_j g_il - d_l g_ij
    T = (np.moveaxis(dg, [-3, -2, -1], [-2, -1, -3])
         + np.moveaxis(dg, [-3, -2, -1], [-1, -2, -3])
         - dg)
    return 0.5 * np.einsum("...kl,...lij->...kij", np.linalg.inv(nodes), T)


def _check_conditioning(grid: MetricGrid):
    if np.any(np.linalg.cond(grid.nodes[grid.valid]) > COND_LIMIT):
        raise DegenerateMetricError("nodal matrix close to singular")


def christoffels(grid: MetricGrid) -> CurvatureField:
    """Gamma^k_ij = g^kl (d_i g_jl + d_j g_il - d_l g_ij) / 2."""
    _check_conditioning(grid)
    gamma = _christoffel_arrays(grid.nodes, grid.spacing)
    return CurvatureField(grid, _eroded(grid.valid, CURV_MARGIN), gamma)


def _ricci_arrays(nodes: np.ndarray, spacing):
    """Ricci tensor from nodal matrices; symmetric by construction because the
    contracted Christoffel is taken as the gradient of log sqrt|det g|."""
    gamma = _christoffel_arrays(nodes, spacing)
    d = nodes.shape[-1]
    s = 0.5 * np.log(np.abs(np.linalg.det(nodes)))
    dgam = np.zeros(gamma.shape[:-3] + (d, d))
    for k in range(d):
        dgam += _d1(gamma[..., k, :, :], k, spacing[k])
    hess_s = _scalar_hessian(s, spacing)
    ds = np.stack([_d1(s, k, spacing[k]) for k in range(d)], axis=-1)
    quad1 = np.einsum("...l,...lij->...ij", ds, gamma)
    quad2 = np.einsum("...kil,...lkj->...ij", gamma, gamma)
    return dgam - hess_s + quad1 - quad2, gamma


def ricci(grid: MetricGrid) -> CurvatureField:
    _check_conditioning(grid)
    ric, gamma = _ricci_arrays(grid.nodes, grid.spacing)
    return CurvatureField(grid, _eroded(grid.valid, CURV_MARGIN), gamma, ric)


def bakry_emery(grid: MetricGrid, n_param: float) -> CurvatureField:
    """Ric - Hess f - df (x) df / (N - dims) for the log-density f.

    N = dims is admitted only for constant weight (the correction term has no
    finite normalization otherwise).
    """
    d = grid.dims
    w_span = float(np.max(grid.weight_nodes) - np.min(grid.weight_nodes))
    if n_param < d or (n_param == d and w_span > 1e-12):
        raise InvalidInputError("need N > dims, or N = dims with constant weight")
    base = ricci(grid)
    f = grid.weight_nodes
    df = np.stack([_d1(f, k, grid.spacing[k]) for k in range(d)], axis=-1)
    hess = _scalar_hessian(f, grid.spacing) \
        - np.einsum("...kij,...k->...ij", base.christoffel, df)
    be = base.ricci - hess
    if n_param > d:
        be = be - np.einsum("...i,...j->...ij", df, df) / (n_param - d)
    return CurvatureField(grid, base.valid, base.christoffel, base.ricci,
                          be, hess, n_param)


# -- cone scans and deficit curves -------------------------------------------------


def _quadratic_form(v: np.ndarray, m: np.ndarray) -> np.ndarray:
    """v.M.v at every node, for component-major arrays: ``v`` is (dims, *shape)
    and ``m`` is (dims, dims, *shape).

    The terms v_i M_ij v_j are multiplied left to right and added one at a
    time onto 0, i outer and j inner: the order of
    ``np.einsum("...i,...ij,...j->...")``, so both give the same bits.
    """
    d = len(v)
    out = np.zeros(v.shape[1:])
    term = np.empty_like(out)
    for i in range(d):
        for j in range(d):
            np.multiply(v[i], m[i][j], out=term)
            term *= v[j]
            out += term
    return out


def _components(tensors: np.ndarray) -> np.ndarray:
    """(*shape, dims, dims) -> contiguous (dims, dims, *shape)."""
    return np.ascontiguousarray(np.moveaxis(tensors, (-2, -1), (0, 1)))


def default_cone_samples(grid: MetricGrid, directions: int = CONE_DIRECTIONS,
                         speed: float = CONE_SPEED):
    """Per-node timelike samples: ``directions`` chart slopes spread across the
    cone, each at g-length ``speed``. Returns (*shape, directions, dims), a
    view of a contiguous sample-major (directions, dims, *shape) array.

    Sample n moves along spatial axis a = 1 + (n mod (dims - 1)): v = e_0 +
    w e_a. In that plane the null slopes are the roots of g00 + 2 g0a w +
    gaa w^2, centre -g0a/gaa and half-width sqrt(g00 - g0a^2/gaa) /
    sqrt(-gaa); the slopes sit at fractions s in [-0.9, 0.9] of the
    half-width about the centre. With g0a = 0 this is s sqrt(g00) / sqrt(-gaa).

    One speed per direction is enough: the Ricci quotient of
    ``timelike_lower_bound_fn`` is homogeneous of degree 0, and rescaling a
    sample by a power of two changes no bit of it."""
    d = grid.dims
    g_ij = _components(grid.nodes)
    # per spatial axis: the centre of the null slopes, the numerator of their
    # half-width and its denominator sqrt(-gaa)
    cones = {}
    for ax in range(1, d):
        neg_aa = np.clip(-g_ij[ax, ax], 1e-300, None)
        g_0a = g_ij[0, ax]
        root = np.sqrt(np.clip(g_ij[0, 0] + g_0a * g_0a / neg_aa, 0.0, None))
        cones[ax] = (g_0a / neg_aa, root, np.sqrt(neg_aa))
    vs = np.zeros((directions, d) + grid.shape)
    for n, s in enumerate(np.linspace(-0.9, 0.9, directions)):
        v = vs[n]
        v[0] = 1.0
        ax = 1 + (n % (d - 1))
        centre, root, scale = cones[ax]
        v[ax] = s * root / scale + centre
        v /= np.sqrt(np.clip(_quadratic_form(v, g_ij), 1e-300, None))
        v *= speed
    return np.moveaxis(vs, (0, 1), (-2, -1))


def timelike_lower_bound_fn(field: CurvatureField, grid: MetricGrid,
                            cone_samples: np.ndarray | None = None) -> np.ndarray:
    """k(x) = min over sampled timelike v of BakryEmery(v, v) / g(v, v).

    ``cone_samples`` is (*shape, samples, dims). Entries outside
    ``field.valid`` are NaN.
    """
    tensor = field.bakry_emery if field.bakry_emery is not None else field.ricci
    if tensor is None:
        raise InvalidInputError("field carries no Ricci-type tensor")
    if cone_samples is None:
        cone_samples = default_cone_samples(grid)
    if cone_samples.shape[-2] == 0:
        raise InvalidInputError("empty cone sample")
    samples = np.ascontiguousarray(np.moveaxis(cone_samples, (-2, -1), (0, 1)))
    g_ij, t_ij = _components(grid.nodes), _components(tensor)
    k = np.full(grid.shape, np.inf)
    for v in samples:
        gvv = _quadratic_form(v, g_ij)
        if np.any(gvv[field.valid] <= 0.0):
            raise InvalidInputError("cone sample is not timelike at a valid node")
        quot = _quadratic_form(v, t_ij)
        quot /= gvv
        np.minimum(k, quot, out=k)
    k[~field.valid] = np.nan
    return k


def _measure_weights(grid: MetricGrid) -> np.ndarray:
    dens = np.sqrt(np.abs(np.linalg.det(grid.nodes))) * np.exp(-grid.weight_nodes)
    return dens * np.prod(grid.spacing)


def lp_deficit_curves(grid: MetricGrid, K: float, p_list: Sequence[float],
                      eps_list: Sequence[float], n_param: float):
    """For each mollification radius: smooth, narrow cones, rebuild the
    curvature, scan k once, and integrate |(k - K)_-|^p for every p over one
    fixed interior region (the validity region of the largest radius).

    Returns one curve per p, in the order of ``p_list``: a list of
    (eps, deficit) pairs."""
    eps_list = [float(e) for e in eps_list]
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise InvalidInputError("radii must be strictly decreasing")
    if any(e < 2.0 * max(grid.spacing) for e in eps_list):
        raise InvalidInputError("kernel radius below twice the grid spacing")
    if len(p_list) == 0:
        raise InvalidInputError("need at least one exponent p")
    curves = [[] for _ in p_list]
    region = None
    for eps in eps_list:
        sm = mollify(grid, eps)
        narrowed = cone_narrowed(sm, narrowing_constant(sm))
        field = bakry_emery(narrowed, n_param)
        k = timelike_lower_bound_fn(field, narrowed)
        if region is None:
            region = field.valid
        shortfall = np.clip(K - k[region], 0.0, None)
        weights = _measure_weights(sm)[region]
        for p, curve in zip(p_list, curves):
            curve.append((eps, float(np.sum(shortfall ** p * weights))))
    return curves


def lp_deficit_curve(grid: MetricGrid, K: float, p: float,
                     eps_list: Sequence[float], n_param: float):
    """The one-p case of ``lp_deficit_curves``: a list of (eps, deficit)."""
    return lp_deficit_curves(grid, K, [p], eps_list, n_param)[0]


# -- binary grid format -------------------------------------------------------------


def save_grid(grid: MetricGrid, path):
    """Row-major float64 blocks (coefficients, weight, validity) plus a JSON
    manifest next to the binary."""
    path = Path(path)
    blocks = [grid.nodes.ravel(), grid.weight_nodes.ravel(),
              grid.valid.astype(np.float64).ravel()]
    np.concatenate(blocks).tofile(path)
    manifest = {"dims": grid.dims, "shape": list(grid.shape),
                "spacing": list(grid.spacing), "origin": list(grid.origin),
                "lipschitz_bound": grid.lipschitz_bound, "sup_error": grid.sup_error}
    path.with_suffix(path.suffix + ".json").write_text(json.dumps(manifest))


def load_grid(path) -> MetricGrid:
    path = Path(path)
    manifest = json.loads(path.with_suffix(path.suffix + ".json").read_text())
    shape = tuple(manifest["shape"])
    d = manifest["dims"]
    raw = np.fromfile(path, dtype=np.float64)
    n = int(np.prod(shape))
    nodes = raw[: n * d * d].reshape(shape + (d, d))
    w = raw[n * d * d: n * d * d + n].reshape(shape)
    valid = raw[n * d * d + n:].reshape(shape).astype(bool)
    return MetricGrid(tuple(manifest["spacing"]), tuple(manifest["origin"]),
                      nodes, w, valid, manifest["lipschitz_bound"],
                      manifest["sup_error"])
