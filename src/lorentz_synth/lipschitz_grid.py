"""Gridded Lipschitz Lorentzian metrics and finite-difference curvature.

A MetricGrid stores nodal coefficient matrices g_ij (signature +, -, ..., -),
a log-density weight, and a validity mask. Rough metrics are smoothed by
convolution with a compactly supported bump before any curvature is read off:

* ``mollify``      -- tensor-product bump kernel of radius eps, interior-only;
  each axis pass sums x_i w_r, then (x_{i-j} + x_{i+j}) w_{r-j} for j = r
  down to 1, edge values repeated past the ends: the summation order of
  ``scipy.ndimage.convolve1d(mode="nearest")`` for a symmetric kernel, so the
  smoothed grid has the same bits as with scipy (which the tests use as the
  reference; the package itself needs only numpy here), each plane on one
  line of every axis along which it is invariant;
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
  differs between CPUs.) The derivatives of g, the Christoffel symbols,
  the Hessians and the Ricci-type tensors are held component-major, as
  contiguous (d, d[, d], *shape) planes, so each product is one multiply
  over the grid; ``CurvatureField`` shows them indexed (*shape, k, i, j)
  as views. The conditioning check reads the worst max|lambda| /
  min|lambda| that the signature check of ``MetricGrid`` computed from its
  eigenvalues, so a grid is decomposed once. On 1+1 grids the
  eigenvalues, the inverse and the determinant are taken in closed form
  from each 2 x 2 matrix scaled by a power of two, with no LAPACK call:
  the inverse has LAPACK's bits wherever g_01 = 0, and ad - bc is
  correctly rounded there. 2+1 grids take LAPACK's ``eigvalsh``, ``inv``
  and ``det``;
* ``timelike_lower_bound_fn`` -- worst Ricci quotient over sampled cones,
  built one direction at a time;
* ``lp_deficit_curves`` -- integral of |(k - K)_-|^p along a mollification
  schedule for every p in a list, the quantitative track of curvature bounds
  surviving smoothing; k is scanned once per radius and read by every p
  (``lp_deficit_curve`` is the one-p case). A schedule whose largest
  radius leaves no node to integrate over is rejected. Every stage runs on
  the grid cut to one node along each axis on which it is invariant (x on
  warped grids), with the bits of the full width; the validity masks stay
  full-shape, and k and the measure weights are broadcast back.

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


def _pow2_scaled(*entries: np.ndarray):
    """(e, scaled entries): the entries of every nodal matrix multiplied by
    one power of two 2^e per node (exact), e chosen so that the largest
    magnitude lies in [0.5, 1), where no product of two entries over- or
    underflows. A zero matrix gets e = 0."""
    top = np.abs(entries[0])
    for x in entries[1:]:
        top = np.maximum(top, np.abs(x))
    e = -np.frexp(top)[1]
    return e, [np.ldexp(x, e) for x in entries]


def _eigvalsh_2x2(a: np.ndarray, b: np.ndarray, d: np.ndarray):
    """Both eigenvalues of every [[a, b], [b, d]], lower then upper, in closed
    form, of the matrix scaled by ``_pow2_scaled``. The eigenvalue of larger
    magnitude is mid +- r, mid = (a + d) / 2 and r = sqrt(((a - d) / 2)^2 +
    b^2), with the sign of mid, where no cancellation occurs; the other is
    det / (that one), so an exactly singular matrix gives an exact 0. The
    zero matrix gives NaN."""
    _, (a, b, d) = _pow2_scaled(a, b, d)
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


def _first(a: np.ndarray, axes) -> np.ndarray:
    """The view of ``a`` at the first node of each of ``axes``, each kept as
    an axis of width 1."""
    index = [slice(None)] * a.ndim
    for ax in axes:
        index[ax] = slice(0, 1)
    return a[tuple(index)]


def _invariant(a: np.ndarray, axis: int) -> bool:
    """Whether ``a`` holds the same bits at every node along ``axis``: +0.0
    and -0.0 count as different."""
    head = _first(a, (axis,))
    return bool((a == head).all() and (np.signbit(a) == np.signbit(head)).all())


def _invariant_axes(grid: MetricGrid) -> tuple:
    """The axes along which every coefficient plane and the weight of
    ``grid`` are invariant (``_invariant``)."""
    return tuple(ax for ax in range(len(grid.shape))
                 if _invariant(grid.nodes, ax) and _invariant(grid.weight_nodes, ax))


def _smoothed(a: np.ndarray, kern: np.ndarray, axis: int) -> np.ndarray:
    """``_convolved`` of ``a`` cut to its first node along every axis on which
    it is invariant, broadcast back: each line along ``axis`` adds the same
    values in the same order as at full width, so every node gets the same
    bits (g00 and g01 of warped grids are convolved at one node)."""
    axes = [ax for ax in range(a.ndim) if _invariant(a, ax)]
    out = _convolved(_first(a, axes), kern, axis)
    return np.broadcast_to(out, a.shape).copy() if axes else out


def _and_windows(valid: np.ndarray, radii) -> np.ndarray:
    """``_and_window`` along every axis, ``radii[ax]`` steps along axis ax."""
    for ax, r in enumerate(radii):
        valid = _and_window(valid, r, ax)
    return valid


def mollify(grid: MetricGrid, eps: float, axes: Sequence[int] = ()) -> MetricGrid:
    """Convolve every coefficient and the weight with a smooth bump of radius
    eps; the boundary band the kernel cannot see is marked invalid. The
    smoothed grid is built as a ``MetricGrid``, which checks its signature.

    With ``axes``, along which ``grid`` must be invariant
    (``_invariant_axes``), both grids are cut to their first node along
    each, and the mask, taken at full width, is reduced by ``any`` along
    them: each node stands for its line, so every check and bound is a max
    over the same values as at full width."""
    if eps < 2.0 * max(grid.spacing):
        raise InvalidInputError("kernel radius below twice the grid spacing")
    radii = [int(math.floor(eps / h)) for h in grid.spacing]
    rough, rough_w = _first(grid.nodes, axes), _first(grid.weight_nodes, axes)
    nodes, w = rough.copy(), rough_w
    for ax, (h, r) in enumerate(zip(grid.spacing, radii)):
        kern = _bump_kernel(r, h, eps)
        for i in range(grid.dims):
            for j in range(i, grid.dims):
                sm = _smoothed(nodes[..., i, j], kern, ax)
                nodes[..., i, j] = sm
                nodes[..., j, i] = sm
        w = _smoothed(w, kern, ax)
    valid = _and_windows(grid.valid, radii)
    if not np.any(valid):
        raise InvalidInputError("kernel radius leaves no interior nodes")
    valid = np.any(valid, axis=tuple(axes), keepdims=True)
    sup_err = max(float(np.max(np.abs(nodes - rough)[valid])),
                  float(np.max(np.abs(w - rough_w)[valid])))
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
    formed, left to right (see the module docstring). The operands are
    component-major planes, so each product is one multiply over the grid,
    broadcast in the component axes only."""
    out = np.zeros(shape)
    term = np.empty(shape)
    for a, b in pairs:
        np.multiply(a, b, out=term)
        out += term
    return out


def _node_major(planes: np.ndarray, comps: int) -> np.ndarray:
    """The (dims, ..., dims, *shape) planes with ``comps`` component axes as
    a (*shape, dims, ..., dims) view."""
    return np.moveaxis(planes, tuple(range(comps)), tuple(range(-comps, 0)))


def _planes(tensors: np.ndarray, comps: int) -> np.ndarray:
    """The (*shape, dims, ..., dims) tensors with ``comps`` component axes as
    a (dims, ..., dims, *shape) view, the inverse of ``_node_major``."""
    return np.moveaxis(tensors, tuple(range(-comps, 0)), tuple(range(comps)))


def _components(tensors: np.ndarray) -> np.ndarray:
    """(*shape, dims, dims) -> contiguous (dims, dims, *shape); no copy when
    ``tensors`` is already a view of such planes (``_node_major``)."""
    return np.ascontiguousarray(_planes(tensors, 2))


def _entries_2x2(nodes: np.ndarray):
    """e and the entries a, b, c, d of every [[a, b], [c, d]] nodal matrix,
    scaled by 2^e (``_pow2_scaled``)."""
    return _pow2_scaled(nodes[..., 0, 0], nodes[..., 0, 1], nodes[..., 1, 0], nodes[..., 1, 1])


def _det(nodes: np.ndarray) -> np.ndarray:
    """det g at every node. For d = 2, ad - bc of the scaled entries, scaled
    back: correctly rounded wherever b = 0, and exact in scale wherever the
    result is a normal float. For d = 3, LAPACK's ``det``."""
    if nodes.shape[-1] != 2:
        return np.linalg.det(nodes)
    e, (a, b, c, d) = _entries_2x2(nodes)
    return np.ldexp(a * d - b * c, -2 * e)


def _inverse(nodes: np.ndarray) -> np.ndarray:
    """g^kl as contiguous (d, d, *shape) planes. For d = 2 in closed form on
    the scaled entries, scaled back: g^00 = 1 / (a - bc / d), g^11 = 1 / (d -
    bc / a), g^01 = -b / (ad - bc) and g^10 = -c / (ad - bc), except that a
    zero b or c gives the zero LAPACK's elimination leaves, (0 - 0) / a in
    g^01 and (0 - 0) / d in g^10. So wherever b = c = 0 (warped, kinked and
    Minkowski grids) every entry has LAPACK's bits, signed zeros included.
    Singular matrices, which only invalid nodes may hold, give infinities
    or NaN there. For d = 3, LAPACK's ``inv``."""
    if nodes.shape[-1] != 2:
        return _components(np.linalg.inv(nodes))
    e, (a, b, c, d) = _entries_2x2(nodes)
    bc = b * c
    det = a * d - bc
    inv = np.empty((2, 2) + det.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(1.0, a - bc / d, out=inv[0, 0])
        np.divide(-b, det, out=inv[0, 1])
        np.divide(0.0, a, out=inv[0, 1], where=b == 0.0)
        np.divide(-c, det, out=inv[1, 0])
        np.divide(0.0, d, out=inv[1, 0], where=c == 0.0)
        np.divide(1.0, d - bc / a, out=inv[1, 1])
    return np.ldexp(inv, e, out=inv)


def _scalar_hessian(f: np.ndarray, spacing) -> np.ndarray:
    """The (d, d, *shape) planes of the finite-difference Hessian of f."""
    d = len(spacing)
    out = np.empty((d, d) + f.shape)
    for i in range(d):
        out[i, i] = _d2(f, i, spacing[i])
        for j in range(i + 1, d):
            mixed = _d1(_d1(f, i, spacing[i]), j, spacing[j])
            out[i, j] = mixed
            out[j, i] = mixed
    return out


def _gradient(f: np.ndarray, spacing) -> np.ndarray:
    """The (d, *shape) planes of the finite-difference gradient of f."""
    return np.stack([_d1(f, k, h) for k, h in enumerate(spacing)])


@dataclass(frozen=True)
class CurvatureField:
    """Per-node curvature tensors; entries outside ``valid`` are garbage.

    Each tensor is indexed (*shape, k, i, j) or (*shape, i, j), as a view of
    the contiguous component-major planes the curvature path computes."""

    grid: MetricGrid
    valid: np.ndarray
    christoffel: np.ndarray                 # (*shape, k, i, j)
    ricci: np.ndarray | None = None
    bakry_emery: np.ndarray | None = None
    hessian_weight: np.ndarray | None = None
    n_param: float | None = None


def _field(grid: MetricGrid, gamma: np.ndarray, ric: np.ndarray | None = None):
    """A ``CurvatureField`` of component-major planes, shown node-major."""
    valid = _and_windows(grid.valid, [CURV_MARGIN] * len(grid.shape))
    return CurvatureField(grid, valid, _node_major(gamma, 3),
                          None if ric is None else _node_major(ric, 2))


def _christoffel_arrays(nodes: np.ndarray, spacing) -> np.ndarray:
    """Gamma^k_ij as (d, d, d, *shape) planes, indexed [k, i, j]."""
    # the inverse first: taken after d_k g_ij is freed, it left the heap
    # fragmented, and the default lp-deficit run peaked at 94 MB resident
    # against 87 MB (the Python-tracked peak is the same either way)
    ginv = _inverse(nodes)
    g = _components(nodes)
    d = len(g)
    dg = np.empty((d,) + g.shape)
    for k in range(d):
        dg[k] = _d1(g, 2 + k, spacing[k])
    del g
    # T[l, i, j] = d_i g_jl + d_j g_il - d_l g_ij; d_k g_ij is freed before the
    # contraction, which would otherwise set the memory peak of bakry_emery
    T = np.moveaxis(dg, (0, 1, 2), (1, 2, 0)) + np.moveaxis(dg, (0, 1, 2), (2, 1, 0)) - dg
    del dg
    # sum over l of g^kl T[l, i, j]
    gamma = _sum_of_products(((ginv[:, l, None, None], T[None, l]) for l in range(d)), T.shape)
    gamma *= 0.5
    return gamma


def _check_conditioning(grid: MetricGrid):
    if grid.cond_max > COND_LIMIT:
        raise DegenerateMetricError("nodal matrix close to singular")


def christoffels(grid: MetricGrid) -> CurvatureField:
    """Gamma^k_ij = g^kl (d_i g_jl + d_j g_il - d_l g_ij) / 2."""
    _check_conditioning(grid)
    return _field(grid, _christoffel_arrays(grid.nodes, grid.spacing))


def _ricci_arrays(nodes: np.ndarray, spacing):
    """(Ricci, Gamma) from nodal matrices, as (d, d, *shape) and (d, d, d,
    *shape) planes; symmetric by construction because the contracted
    Christoffel is taken as the gradient of log sqrt|det g|."""
    gamma = _christoffel_arrays(nodes, spacing)
    d = len(gamma)
    s = 0.5 * np.log(np.abs(_det(nodes)))
    ric = np.zeros(gamma.shape[1:])
    for k in range(d):
        ric += _d1(gamma[k], 2 + k, spacing[k])
    ric -= _scalar_hessian(s, spacing)
    ds = _gradient(s, spacing)
    # sum over l of d_l s Gamma^l_ij; sum over k, then l, of Gamma^k_il Gamma^l_kj
    ric += _sum_of_products(((ds[l], gamma[l]) for l in range(d)), ric.shape)
    ric -= _sum_of_products(((gamma[k, :, l, None], gamma[l, k, None, :])
                             for k in range(d) for l in range(d)), ric.shape)
    return ric, gamma


def ricci(grid: MetricGrid) -> CurvatureField:
    _check_conditioning(grid)
    ric, gamma = _ricci_arrays(grid.nodes, grid.spacing)
    return _field(grid, gamma, ric)


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
    gamma, ric = _planes(base.christoffel, 3), _planes(base.ricci, 2)
    f = grid.weight_nodes
    df = _gradient(f, grid.spacing)
    # sum over k of Gamma^k_ij d_k f
    hess = _scalar_hessian(f, grid.spacing)
    hess -= _sum_of_products(((gamma[k], df[k]) for k in range(d)), ric.shape)
    be = ric - hess
    if n_param > d:
        corr = _sum_of_products([(df[:, None], df[None, :])], ric.shape)
        corr /= n_param - d
        be -= corr
    return replace(base, bakry_emery=_node_major(be, 2), hessian_weight=_node_major(hess, 2),
                   n_param=n_param)


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
    dens = np.sqrt(np.abs(_det(grid.nodes))) * np.exp(-grid.weight_nodes)
    return dens * np.prod(grid.spacing)


def lp_deficit_curves(grid: MetricGrid, K: float, p_list: Sequence[float],
                      eps_list: Sequence[float], n_param: float):
    """For each mollification radius: smooth, narrow cones, rebuild the
    curvature, scan k once, and integrate |(k - K)_-|^p for every p over one
    fixed interior region (the validity region of the largest radius), which
    must hold a node. Each node stands for its line along every invariant
    axis (``_invariant_axes``); the masks and sums are taken at full width.

    Returns one curve per p, in the order of ``p_list``: a list of
    (eps, deficit) pairs."""
    eps_list = [float(e) for e in eps_list]
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise InvalidInputError("radii must be strictly decreasing")
    if any(e < 2.0 * max(grid.spacing) for e in eps_list):
        raise InvalidInputError("kernel radius below twice the grid spacing")
    if len(p_list) == 0:
        raise InvalidInputError("need at least one exponent p")
    axes = _invariant_axes(grid)
    curves = [[] for _ in p_list]
    region = None
    for eps in eps_list:
        sm = mollify(grid, eps, axes)
        narrowed = cone_narrowed(sm, narrowing_constant(sm))
        field = bakry_emery(narrowed, n_param)
        # the stencils' mask at full width, where an axis of width 1 would put
        # every node next to an end: the kernel's window of r steps and the
        # stencils' margin make one window of r + CURV_MARGIN steps
        valid = _and_windows(grid.valid, [int(math.floor(eps / h)) + CURV_MARGIN
                                          for h in grid.spacing])
        field = replace(field, valid=np.any(valid, axis=axes, keepdims=True))
        if region is None:
            region = valid
            if not np.any(region):
                raise InvalidInputError("the curvature stencils leave no interior nodes "
                                        "at the largest kernel radius")
        # the weights need the smoothed grid, the cone scan does not: freed
        # before the scan (the run's memory peak), and this radius' grids and
        # tensors before the next radius is smoothed
        weights = np.broadcast_to(_measure_weights(sm), grid.shape)[region]
        del sm
        k = np.broadcast_to(timelike_lower_bound_fn(field, narrowed), grid.shape)
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
