"""Gridded Lipschitz Lorentzian metrics and finite-difference curvature.

A MetricGrid stores nodal coefficient matrices g_ij (signature +, -, ..., -),
a log-density weight, and a validity mask. Rough metrics are smoothed by
convolution with a compactly supported bump before any curvature is read off:

* ``mollify``      -- tensor-product bump kernel of radius eps, interior-only;
  each axis pass sums x_i w_r, then (x_{i-j} + x_{i+j}) w_{r-j} for j = r
  down to 1, edge values repeated past the ends: the summation order of
  ``scipy.ndimage.convolve1d(mode="nearest")`` for a symmetric kernel, so the
  smoothed grid has the same bits as with scipy (which the tests use as the
  reference; the package itself needs only numpy here);
* ``cone_narrowed`` -- g - c dt (x) dt, shrinking the timelike cones;
* ``christoffels`` / ``ricci`` / ``bakry_emery`` -- central finite differences
  (4th order, so the truncation error stays far below the mollification-scale
  features the deficit integrals need to resolve). Every index contraction is
  a loop over the d <= 3 components that adds each rounded product onto
  zeros as it is formed, the contracted index ascending (for Gamma^k_il
  Gamma^l_kj, k outer and l inner): the order of numpy's ``einsum`` on
  C-contiguous operands, so both give the same bits, signed zeros included
  (the tests hold them to an ``einsum`` oracle), on every platform. (Where
  both operands hold the contracted index innermost in memory, ``einsum``
  sums it in SIMD lanes instead; for three terms that moves the last bit and
  differs between CPUs.) The conditioning check reads the worst
  max|lambda| / min|lambda| that the signature check of ``MetricGrid``
  computed from its eigenvalues, so a grid is decomposed once: in closed
  form on 1+1 grids, by LAPACK's ``eigvalsh`` on 2+1 grids;
* ``timelike_lower_bound_fn`` -- worst Ricci quotient over sampled cones,
  built one direction at a time;
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
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateMetricError, InvalidInputError

COND_LIMIT = 1e12
CURV_MARGIN = 4          # nodes a curvature stencil reaches past its center
CONE_DIRECTIONS = 16     # slopes per node, one sample each
CONE_SPEED = 0.5


def _eigvalsh_2x2(a: np.ndarray, b: np.ndarray, d: np.ndarray):
    """Both eigenvalues of every [[a, b], [b, d]], lower then upper, in closed
    form. Each matrix is first scaled by a power of two (exact) so that its
    largest entry lies in [0.5, 1), where no square below over- or
    underflows. The eigenvalue of larger magnitude is mid +- r, mid = (a +
    d) / 2 and r = sqrt(((a - d) / 2)^2 + b^2), with the sign of mid, where
    no cancellation occurs; the other is det / (that one), so an exactly
    singular matrix gives an exact 0. The zero matrix gives NaN."""
    e = -np.frexp(np.maximum(np.maximum(np.abs(a), np.abs(b)), np.abs(d)))[1]
    a, b, d = np.ldexp(a, e), np.ldexp(b, e), np.ldexp(d, e)
    mid = 0.5 * (a + d)
    half = 0.5 * (a - d)
    r = np.sqrt(half * half + b * b)
    big = np.where(mid < 0.0, mid - r, mid + r)
    with np.errstate(invalid="ignore"):
        small = (a * d - b * b) / big
    return np.minimum(big, small), np.maximum(big, small)


def _check_signature(nodes: np.ndarray, mask: np.ndarray) -> float:
    """Raise unless every masked nodal matrix has signature (+, -, ..., -).
    Returns the worst 2-norm condition number over those nodes: for a
    symmetric matrix max|lambda| / min|lambda|, the ratio numpy's
    ``linalg.cond`` takes from an SVD, here from the eigenvalues at hand:
    in closed form for d = 2 (``_eigvalsh_2x2``), from ``eigvalsh`` for
    d = 3, where an eigenvalue within numpy's ``matrix_rank`` tolerance
    d eps max|lambda| of 0 is the rounding of an exact 0 and fails too."""
    if not np.any(mask):
        raise InvalidInputError("no valid nodes left")
    if nodes.shape[-1] == 2:
        a, b, d = (nodes[..., i, j][mask] for i, j in ((0, 0), (0, 1), (1, 1)))
        lowest, upper = _eigvalsh_2x2(a, b, d)
        nearest, singular = lowest, False
    else:
        # ascending order: eig[:, 0] is the most negative, eig[:, -2] the
        # negative one nearest 0, and eig[:, -1] the one positive eigenvalue
        eig = np.linalg.eigvalsh(nodes[mask])
        lowest, nearest, upper = eig[:, 0], eig[:, -2], eig[:, -1]
        size = np.abs(eig)
        singular = np.any(size.min(axis=1) <= eig.shape[1] * np.finfo(float).eps * size.max(axis=1))
    # written so that a NaN eigenvalue fails it
    if singular or not (np.all(nearest < 0.0) and np.all(upper > 0.0)):
        raise DegenerateMetricError("nodal matrix without Lorentzian signature")
    top = np.maximum(-lowest, upper)
    low = np.minimum(-nearest, upper)
    return float(np.max(top / low))


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
    # worst condition number of a valid nodal matrix, set by the signature check
    cond_max: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.dims < 2:
            raise InvalidInputError("need at least one time and one space axis")
        if self.nodes.shape[:-2] != self.weight_nodes.shape:
            raise InvalidInputError("weight array shape mismatch")
        if not np.all(np.isfinite(self.nodes)):
            raise InvalidInputError("metric coefficients must be finite at every node")
        if not np.all(np.isfinite(self.weight_nodes)):
            raise InvalidInputError("weight must be finite at every node")
        # the pairs i < j alone: a diagonal entry always equals itself
        if any(np.any(np.abs(self.nodes[..., i, j] - self.nodes[..., j, i]) > 1e-12)
               for i in range(self.dims) for j in range(i + 1, self.dims)):
            raise InvalidInputError("nodal matrices must be symmetric")
        object.__setattr__(self, "cond_max", _check_signature(self.nodes, self.valid))

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


def _convolved(a: np.ndarray, kern: np.ndarray, axis: int) -> np.ndarray:
    """Convolve ``a`` with the odd-length symmetric ``kern`` along ``axis``,
    edge values repeated past either end. The sum runs in the order of
    ``scipy.ndimage.convolve1d(mode="nearest")`` for a symmetric kernel, so
    both give the same bits: x_i w_r, then (x_{i-j} + x_{i+j}) w_{r-j} added
    for j = r down to 1 (w is the reversed kernel, r its half-width)."""
    w = kern[::-1]
    r, n = len(kern) // 2, a.shape[axis]
    # the padded lines, with ``axis`` first so that each shift is one block
    x = np.moveaxis(a, axis, 0)[np.clip(np.arange(-r, n + r), 0, n - 1)]
    out = x[r:r + n] * w[r]
    tmp = np.empty_like(out)
    for j in range(r, 0, -1):
        np.add(x[r - j:r - j + n], x[r + j:r + j + n], out=tmp)
        tmp *= w[r - j]
        out += tmp
    return np.moveaxis(out, 0, axis)


def _and_window(valid: np.ndarray, r: int, axis: int) -> np.ndarray:
    """True where every node within ``r`` steps along ``axis`` is True, nodes
    past either end counting as False (``scipy.ndimage.minimum_filter1d``
    with size 2r + 1, ``mode="constant"``, ``cval=0``): no False node in the
    window, counted from one cumulative sum."""
    v = np.moveaxis(valid, axis, 0)
    pad = [(r + 1, r)] + [(0, 0)] * (v.ndim - 1)
    # window i is padded nodes i + 1 .. i + 2r + 1; node 0 only anchors the
    # sums, which stay below n + 2r + 2, so int32 counts them exactly
    falses = np.cumsum(np.pad(~v, pad, constant_values=True), axis=0, dtype=np.int32)
    return np.moveaxis(falses[2 * r + 1:] == falses[:len(v)], 0, axis)


def _smoothed(a: np.ndarray, kern: np.ndarray, axis: int) -> np.ndarray:
    """``_convolved``, except that an array whose entries all have the same
    bits (g01 = 0 and g00 = 1 on warped charts, a zero weight) is convolved
    at one node and broadcast: every node adds the same values in the same
    order, so each gets those bits. +0.0 and -0.0 count as different."""
    c = a.flat[0]
    if (a == c).all() and (np.signbit(a) == np.signbit(c)).all():
        return np.full(a.shape, _convolved(np.array([c]), kern, 0)[0])
    return _convolved(a, kern, axis)


def mollify(grid: MetricGrid, eps: float) -> MetricGrid:
    """Convolve every coefficient and the weight with a smooth bump of radius
    eps; the boundary band the kernel cannot see is marked invalid. The
    smoothed grid is built as a ``MetricGrid``, which checks its signature."""
    if eps < 2.0 * max(grid.spacing):
        raise InvalidInputError("kernel radius below twice the grid spacing")
    nodes = grid.nodes.copy()
    w, valid = grid.weight_nodes, grid.valid
    for ax, h in enumerate(grid.spacing):
        r = int(math.floor(eps / h))
        kern = _bump_kernel(r, h, eps)
        for i in range(grid.dims):
            for j in range(i, grid.dims):
                sm = _smoothed(nodes[..., i, j], kern, ax)
                nodes[..., i, j] = sm
                nodes[..., j, i] = sm
        w = _smoothed(w, kern, ax)
        valid = _and_window(valid, r, ax)
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


def _shifts(f: np.ndarray, axis: int):
    """f_{i-2}, f_{i-1}, f_{i+1}, f_{i+2} along ``axis``, indices taken modulo
    its length (the values of four rolls): views of one wrap-padded copy."""
    n = f.shape[axis]
    p = np.take(f, np.arange(-2, n + 2) % n, axis=axis)
    head = (slice(None),) * axis
    return tuple(p[head + (slice(k, k + n),)] for k in (0, 1, 3, 4))


def _d1(f: np.ndarray, axis: int, h: float) -> np.ndarray:
    fm2, fm1, fp1, fp2 = _shifts(f, axis)
    return (-fp2 + 8.0 * fp1 - 8.0 * fm1 + fm2) / (12.0 * h)


def _d2(f: np.ndarray, axis: int, h: float) -> np.ndarray:
    fm2, fm1, fp1, fp2 = _shifts(f, axis)
    return (-fp2 + 16.0 * fp1 - 30.0 * f + 16.0 * fm1 - fm2) / (12.0 * h * h)


def _sum_of_products(pairs, shape) -> np.ndarray:
    """0 + a_1 b_1 + a_2 b_2 + ..., each product rounded and added as it is
    formed, left to right (see the module docstring)."""
    out = np.zeros(shape)
    term = np.empty(shape)
    for a, b in pairs:
        np.multiply(a, b, out=term)
        out += term
    return out


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
    out = valid
    for ax in range(valid.ndim):
        out = _and_window(out, margin, ax)
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
    ginv = np.linalg.inv(nodes)
    # sum over l of g^kl T[l, i, j]
    return 0.5 * _sum_of_products(
        ((ginv[..., :, l, None, None], T[..., None, l, :, :]) for l in range(d)), T.shape)


def _check_conditioning(grid: MetricGrid):
    if grid.cond_max > COND_LIMIT:
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
    # sum over l of d_l s Gamma^l_ij; sum over k, then l, of Gamma^k_il Gamma^l_kj
    quad1 = _sum_of_products(
        ((ds[..., l, None, None], gamma[..., l, :, :]) for l in range(d)), dgam.shape)
    quad2 = _sum_of_products(
        ((gamma[..., k, :, l, None], gamma[..., l, k, None, :])
         for k in range(d) for l in range(d)), dgam.shape)
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
    shape = base.ricci.shape
    # sum over k of Gamma^k_ij d_k f
    hess = _scalar_hessian(f, grid.spacing) - _sum_of_products(
        ((base.christoffel[..., k, :, :], df[..., k, None, None]) for k in range(d)), shape)
    be = base.ricci - hess
    if n_param > d:
        be = be - _sum_of_products([(df[..., :, None], df[..., None, :])], shape) \
            / (n_param - d)
    return CurvatureField(grid, base.valid, base.christoffel, base.ricci,
                          be, hess, n_param)


# -- cone scans and deficit curves -------------------------------------------------


def _quadratic_form(v: np.ndarray, m: np.ndarray) -> np.ndarray:
    """v.M.v at every node, for component-major arrays: ``v`` is (dims, *shape)
    and ``m`` is (dims, dims, *shape).

    The terms v_i M_ij v_j are multiplied left to right and added one at a
    time onto 0, i outer and j inner: the order of
    ``einsum("...i,...ij,...j->...")``, so both give the same bits.
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


def _cone_samples(g_ij: np.ndarray, directions: int, speed: float):
    """Yield per-node timelike samples: ``directions`` chart slopes spread
    across the cone, each at g-length ``speed``, one direction at a time,
    each written into one (dims, *shape) array that the next overwrites;
    ``g_ij`` is the metric as ``_components`` gives it.

    Sample n moves along spatial axis a = 1 + (n mod (dims - 1)): v = e_0 +
    w e_a. In that plane the null slopes are the roots of g00 + 2 g0a w +
    gaa w^2, centre -g0a/gaa and half-width sqrt(g00 - g0a^2/gaa) /
    sqrt(-gaa); the slopes sit at fractions s in [-0.9, 0.9] of the
    half-width about the centre. With g0a = 0 this is s sqrt(g00) / sqrt(-gaa).

    One speed per direction is enough: the Ricci quotient of
    ``timelike_lower_bound_fn`` is homogeneous of degree 0, and rescaling a
    sample by a power of two changes no bit of it."""
    d = len(g_ij)
    # per spatial axis: the centre of the null slopes, the numerator of their
    # half-width and its denominator sqrt(-gaa)
    cones = {}
    for ax in range(1, d):
        neg_aa = np.clip(-g_ij[ax, ax], 1e-300, None)
        g_0a = g_ij[0, ax]
        root = np.sqrt(np.clip(g_ij[0, 0] + g_0a * g_0a / neg_aa, 0.0, None))
        cones[ax] = (g_0a / neg_aa, root, np.sqrt(neg_aa))
    v = np.empty(g_ij.shape[1:])
    for n, s in enumerate(np.linspace(-0.9, 0.9, directions)):
        v.fill(0.0)
        v[0] = 1.0
        ax = 1 + (n % (d - 1))
        centre, root, scale = cones[ax]
        v[ax] = s * root / scale + centre
        v /= np.sqrt(np.clip(_quadratic_form(v, g_ij), 1e-300, None))
        v *= speed
        yield v


def timelike_lower_bound_fn(field: CurvatureField, grid: MetricGrid) -> np.ndarray:
    """k(x) = min over sampled timelike v of BakryEmery(v, v) / g(v, v).

    The samples of ``_cone_samples`` are built one direction at a time, just
    before the scan reads each, and never held all at once. Entries outside
    ``field.valid`` are NaN.
    """
    tensor = field.bakry_emery if field.bakry_emery is not None else field.ricci
    if tensor is None:
        raise InvalidInputError("field carries no Ricci-type tensor")
    g_ij, t_ij = _components(grid.nodes), _components(tensor)
    k = np.full(grid.shape, np.inf)
    for v in _cone_samples(g_ij, CONE_DIRECTIONS, CONE_SPEED):
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
        if region is None:
            region = field.valid
        # the weights need the smoothed grid, the cone scan does not: freed
        # before the scan (the run's memory peak), and this radius' grids and
        # tensors before the next radius is smoothed
        weights = _measure_weights(sm)[region]
        del sm
        k = timelike_lower_bound_fn(field, narrowed)
        del narrowed, field
        shortfall = np.clip(K - k[region], 0.0, None)
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
    """Read a grid written by ``save_grid``. The binary must hold exactly the
    n (d^2 + 2) float64 values its manifest implies, and the validity block
    only 0 and 1."""
    path = Path(path)
    manifest = json.loads(path.with_suffix(path.suffix + ".json").read_text())
    shape = tuple(manifest["shape"])
    d = manifest["dims"]
    raw = np.fromfile(path, dtype=np.float64)
    n = int(np.prod(shape))
    if raw.size != n * (d * d + 2):
        raise InvalidInputError(f"{path}: expected {n * (d * d + 2)} float64 values "
                                f"for shape {list(shape)} and dims {d}, found {raw.size}")
    flags = raw[n * d * d + n:]
    bad = int(np.count_nonzero((flags != 0.0) & (flags != 1.0)))
    if bad:
        raise InvalidInputError(f"{path}: expected {n} validity entries of 0 or 1, "
                                f"found {bad} other values")
    nodes = raw[: n * d * d].reshape(shape + (d, d))
    w = raw[n * d * d: n * d * d + n].reshape(shape)
    valid = flags.reshape(shape).astype(bool)
    return MetricGrid(tuple(manifest["spacing"]), tuple(manifest["origin"]),
                      nodes, w, valid, manifest["lipschitz_bound"],
                      manifest["sup_error"])
