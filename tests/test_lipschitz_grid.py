"""Gridded metrics: mollification, FD curvature, cone scans, deficit curves."""

import contextlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from lorentz_synth import lipschitz_grid as L
from lorentz_synth.errors import DegenerateMetricError, InvalidInputError
from lorentz_synth.lipschitz_grid import _ricci_arrays

from oracles import (bakry_emery_einsum, christoffel_einsum, cone_scan_einsum, d1_roll,
                     d2_roll, ricci_einsum, signature_eigvalsh, too_ill_conditioned_svd)


def kinked_grid(shape=(1025, 129)):
    return L.warped_grid(lambda t: 1.0 - np.abs(t) / 4.0, (-2.0, 2.0), (0.0, 2.0), shape)


def tilted_grid(dims, shape, off, weight):
    """A smooth non-diagonal chart: g_00 and the spatial diagonal vary, and
    ``off`` sets g_01 in 1+1 or g_12 in 2+1; the log-density is
    weight * t * x."""
    def fn(pts):
        t, x = pts[..., 0], pts[..., 1]
        g = np.zeros(pts.shape[:-1] + (dims, dims))
        g[..., 0, 0] = 1.0 + 0.2 * np.sin(t + x)
        g[..., 1, 1] = -(1.0 + 0.3 * t ** 2)
        a, b = (0, 1) if dims == 2 else (1, 2)
        if dims == 3:
            g[..., 2, 2] = -(1.0 + 0.2 * np.cos(pts[..., 2]))
        g[..., a, b] = g[..., b, a] = off * np.sin(x + pts[..., -1])
        return g

    bounds = ((-0.5, 0.5),) + ((0.0, 1.0),) * (dims - 1)
    return L.metric_grid(fn, bounds, shape, weight=lambda p: weight * p[..., 0] * p[..., 1])


def general_grid(dims, shape):
    """A smooth chart on which every coefficient varies and no off-diagonal
    entry vanishes, so each index contraction of the curvature sums d
    nonzero terms; the log-density is 0.4 t x."""
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

    bounds = ((-1.0, 1.0),) + ((0.0, 1.0),) * (dims - 1)
    return L.metric_grid(fn, bounds, shape, weight=lambda p: 0.4 * p[..., 0] * p[..., 1])


class TestMetricGrid:
    def test_rejects_riemannian_signature(self):
        def fn(pts):
            g = np.zeros(pts.shape[:-1] + (2, 2))
            g[..., 0, 0] = 1.0
            g[..., 1, 1] = 1.0
            return g

        with pytest.raises(DegenerateMetricError):
            L.metric_grid(fn, ((0, 1), (0, 1)), (9, 9))

    def test_rejects_nonfinite_weight(self):
        with pytest.raises(InvalidInputError):
            L.minkowski_grid(((0, 1), (0, 1)), (9, 9),
                             weight=lambda p: np.where(p[..., 0] > 0.5, np.nan, 0.0))

    @pytest.mark.parametrize("entry, bad", [
        ((0, 0), math.inf), ((0, 0), -math.inf), ((0, 0), math.nan),
        ((0, 1), math.inf), ((1, 1), math.nan)])
    def test_rejects_nonfinite_coefficients(self, entry, bad):
        # checked before the symmetry test, so a NaN is not reported as an
        # asymmetric matrix, and an inf does not pass at all
        def fn(pts):
            g = np.zeros(pts.shape[:-1] + (2, 2))
            g[..., 0, 0] = 1.0
            g[..., 1, 1] = -1.0
            g[(3, 4) + entry] = g[(3, 4) + entry[::-1]] = bad
            return g

        with pytest.raises(InvalidInputError, match="finite at every node"):
            L.metric_grid(fn, ((0, 1), (0, 1)), (9, 9))

    @pytest.mark.parametrize("dims", [2, 3])
    @pytest.mark.parametrize("gap", [0.0, 5e-13, 1e-12, 1.0000000000000002e-12, 2e-12, 1.0])
    def test_symmetry_verdict_is_the_allclose_verdict(self, dims, gap):
        # each pair i < j, either side of it moved, against the whole-tensor
        # np.allclose the check compares the off-diagonal pairs instead of
        for i in range(dims):
            for j in range(i + 1, dims):
                for a, b in ((i, j), (j, i)):
                    g = L.minkowski_grid(((0, 1),) * dims, (5,) * dims)
                    nodes = g.nodes.copy()
                    nodes[(2,) * dims + (a, b)] += gap
                    symmetric = np.allclose(nodes, np.swapaxes(nodes, -1, -2),
                                            atol=1e-12, rtol=0.0)
                    with (contextlib.nullcontext() if symmetric else
                          pytest.raises(InvalidInputError, match="symmetric")):
                        L.MetricGrid(g.spacing, g.origin, nodes, g.weight_nodes, g.valid, 0.0)

    def test_lipschitz_bound_records_the_steepest_quotient(self):
        g = kinked_grid((257, 17))
        # d(a^2)/dt = 2 a a' peaks at |a'| = 1/4, a = 1
        assert g.lipschitz_bound == pytest.approx(0.5, abs=5e-3)

    def test_binary_roundtrip(self, tmp_path):
        g = L.warped_grid(np.cosh, (-1, 1), (0, 1), (33, 17),
                          weight=lambda t: 0.3 * t)
        L.save_grid(g, tmp_path / "g.bin")
        assert L.load_grid(tmp_path / "g.bin") == g

    @pytest.mark.parametrize("edit, message", [
        (lambda raw: raw[:-1], "expected 12870 float64 values .* found 12869"),
        (lambda raw: np.append(raw, 0.0), "expected 12870 float64 values .* found 12871"),
        (lambda raw: np.where(np.arange(raw.size) == raw.size - 7, 0.5, raw),
         "expected 2145 validity entries of 0 or 1, found 1 other values"),
    ], ids=["short", "long", "half-valid"])
    def test_load_rejects_a_file_that_disagrees_with_its_manifest(self, tmp_path,
                                                                  edit, message):
        # 65 x 33 nodes of a 1+1 grid: 2145 nodes, 6 float64 values each
        path = tmp_path / "g.bin"
        L.save_grid(L.minkowski_grid(((0, 1), (0, 1)), (65, 33)), path)
        edit(np.fromfile(path, dtype=np.float64)).tofile(path)
        with pytest.raises(InvalidInputError, match=message) as err:
            L.load_grid(path)
        assert str(path) in str(err.value)


class TestMollify:
    def test_constant_grid_is_untouched(self):
        g = L.minkowski_grid(((0, 1), (0, 1)), (65, 65))
        sm = L.mollify(g, 0.1)
        assert np.allclose(sm.nodes[sm.valid], g.nodes[sm.valid], atol=1e-14)
        assert sm.sup_error <= 1e-14

    def test_kink_smoothing_leaves_a_negative_curvature_bump(self):
        # a = 1 - |t|/4 has a'' = -(1/2) delta_0; after smoothing the second
        # derivative must be a negative bump of mass ~ -1/2 and width ~ eps
        g = kinked_grid()
        sm = L.mollify(g, 0.2)
        ts = sm.axes()[0]
        mid = sm.shape[1] // 2
        a_eff = np.sqrt(-sm.nodes[:, mid, 1, 1])
        h = ts[1] - ts[0]
        app = np.gradient(np.gradient(a_eff, h), h)
        sel = sm.valid[:, mid]
        mass = np.trapezoid(app[sel], ts[sel])
        assert mass == pytest.approx(-0.5, abs=5e-3)
        support = ts[sel][np.abs(app[sel]) > 1e-3]
        assert np.max(np.abs(support)) < 0.25

    def test_sup_error_is_linear_in_the_radius(self):
        g = kinked_grid((513, 65))
        errs = [L.mollify(g, e).sup_error for e in (0.4, 0.2, 0.1)]
        assert errs == sorted(errs, reverse=True)
        for e, err in zip((0.4, 0.2, 0.1), errs):
            assert err <= g.lipschitz_bound * e + 1e-12

    def test_w11_convergence_of_first_derivatives(self):
        g = kinked_grid((513, 65))
        h = g.spacing[0]
        dists = []
        region = None
        for e in (0.4, 0.2, 0.1):
            sm = L.mollify(g, e)
            if region is None:
                region = sm.valid[1:, :] & sm.valid[:-1, :]
            d_sm = np.diff(sm.nodes[..., 1, 1], axis=0) / h
            d_g = np.diff(g.nodes[..., 1, 1], axis=0) / h
            dists.append(float(np.mean(np.abs(d_sm - d_g)[region])))
        assert dists == sorted(dists, reverse=True)

    def test_underresolved_kernel_is_rejected(self):
        g = L.minkowski_grid(((0, 1), (0, 1)), (17, 17))
        with pytest.raises(InvalidInputError):
            L.mollify(g, 0.05)

    def test_one_signature_check_per_built_grid(self, monkeypatch):
        g = kinked_grid((257, 33))
        seen = []
        check = L._check_signature
        monkeypatch.setattr(L, "_check_signature",
                            lambda nodes, mask: seen.append(1) or check(nodes, mask))
        sm = L.mollify(g, 0.25)
        L.cone_narrowed(sm, L.narrowing_constant(sm))
        assert len(seen) == 2

    def test_signature_loss_is_reported(self):
        # an oscillating off-diagonal coefficient keeps det = -delta pointwise,
        # but smoothing replaces b^2 by its average and the determinant flips
        def fn(pts):
            b = np.sin(40.0 * pts[..., 0])
            g = np.zeros(pts.shape[:-1] + (2, 2))
            g[..., 0, 0] = 1.0
            g[..., 0, 1] = b
            g[..., 1, 0] = b
            g[..., 1, 1] = b ** 2 - 0.05
            return g

        g = L.metric_grid(fn, ((0, 2), (0, 1)), (513, 17))
        with pytest.raises(DegenerateMetricError):
            L.mollify(g, 0.3)


# values with both zeros, subnormals and mixed signs, small enough that no sum
# overflows
_FILTER_VALUES = st.one_of(
    st.floats(-1e3, 1e3),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308]),
    st.floats(-1e-300, 1e-300))


@st.composite
def _filter_case(draw, dtype, elements):
    """An array of 1 to 3 axes, sometimes with every entry the same, one of
    its axes, and a window radius from 1 to past that axis' length."""
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=7))
    if draw(st.booleans()):
        a = draw(hnp.arrays(dtype, shape, elements=elements))
    else:
        a = np.full(shape, draw(elements), dtype=dtype)
    axis = draw(st.integers(0, len(shape) - 1))
    return a, axis, draw(st.integers(1, shape[axis] + 3))


class TestFilterReplicas:
    """The numpy filters of ``mollify`` against the scipy.ndimage calls they
    replace, byte for byte; scipy is the reference here only."""

    @given(case=_filter_case(float, _FILTER_VALUES), frac=st.floats(0.0, 0.999))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_convolution_is_scipys_bit_for_bit(self, case, frac):
        from scipy import ndimage

        a, axis, r = case
        # radius r nodes as mollify builds it; frac = 0 puts zeros at the ends
        kern = L._bump_kernel(r, 0.1, (r + frac) * 0.1)
        # a strided view too, as mollify passes nodes[..., i, j]
        view = np.stack([a, -a], axis=-1)[..., 0]
        for x in (a, view):
            want = ndimage.convolve1d(x, kern, axis=axis, mode="nearest").tobytes()
            assert L._convolved(x, kern, axis).tobytes() == want
            assert L._smoothed(x, kern, axis).tobytes() == want

    @given(case=_filter_case(bool, st.booleans()))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_and_window_is_the_minimum_filter(self, case):
        from scipy import ndimage

        mask, axis, r = case
        want = ndimage.minimum_filter1d(mask.astype(np.uint8), 2 * r + 1, axis=axis,
                                        mode="constant", cval=0).astype(bool)
        got = L._and_window(mask, r, axis)
        assert got.dtype == bool and np.array_equal(got, want)

    def test_only_constant_planes_are_convolved_at_one_node(self, monkeypatch):
        from scipy import ndimage

        seen = []
        conv = L._convolved
        monkeypatch.setattr(L, "_convolved",
                            lambda a, kern, axis: seen.append(a.shape) or conv(a, kern, axis))
        one_subnormal = np.zeros((9, 5))
        one_subnormal[4, 2] = 5e-324
        one_negative_zero = np.zeros((9, 5))
        one_negative_zero[2, 3] = -0.0
        planes = [np.zeros((9, 5)), np.full((9, 5), -0.0), np.full((9, 5), 0.7),
                  one_subnormal, one_negative_zero]
        kern = L._bump_kernel(3, 0.1, 0.3)      # zero weights at both ends
        for plane in planes:
            want = ndimage.convolve1d(plane, kern, axis=0, mode="nearest")
            assert L._smoothed(plane, kern, 0).tobytes() == want.tobytes()
        assert seen == [(1,), (1,), (1,), (9, 5), (9, 5)]
        assert np.all(np.signbit(L._smoothed(planes[1], kern, 0)))

    @pytest.mark.parametrize("grid", [
        kinked_grid((257, 33)),
        tilted_grid(2, (65, 49), 0.1, 0.4),
        tilted_grid(3, (17, 21, 19), 0.1, 0.4),
    ], ids=["kinked", "tilted-1+1", "tilted-2+1"])
    def test_mollify_is_the_scipy_mollify_bit_for_bit(self, grid, monkeypatch):
        from scipy import ndimage

        eps = 4.0 * max(grid.spacing)
        got = L.mollify(grid, eps)
        # every plane through scipy, constant ones included
        monkeypatch.setattr(L, "_smoothed", lambda a, kern, axis: ndimage.convolve1d(
            a, kern, axis=axis, mode="nearest"))
        monkeypatch.setattr(L, "_and_window", lambda valid, r, axis: ndimage.minimum_filter1d(
            valid.astype(np.uint8), 2 * r + 1, axis=axis, mode="constant", cval=0).astype(bool))
        want = L.mollify(grid, eps)
        assert got == want
        assert (got.lipschitz_bound, got.sup_error) == (want.lipschitz_bound, want.sup_error)


# entries for an off-diagonal coefficient plane and the weight: both zeros,
# subnormals, and magnitudes from 1e-300 up to 1e-2, small enough that every
# nodal matrix keeps its signature
_CURVATURE_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308]),
    st.floats(-1e-300, 1e-300),
    st.floats(-1e-2, 1e-2))


@st.composite
def _curvature_case(draw):
    """A small kinked, tilted 1+1 or general 2+1 grid, one off-diagonal
    plane replaced by drawn values or left as it is, the weight replaced by
    drawn values or by one drawn constant or left as it is, the metric
    scaled by a drawn magnitude; and N."""
    chart = draw(st.sampled_from(["kinked", "tilted-1+1", "general-2+1"]))
    grid = {"kinked": lambda: kinked_grid((21, 11)),
            "tilted-1+1": lambda: tilted_grid(2, (13, 11), 0.1, 0.4),
            "general-2+1": lambda: general_grid(3, (13, 11, 11))}[chart]()
    d = grid.dims
    nodes, weight = grid.nodes.copy(), grid.weight_nodes.copy()
    if draw(st.booleans()):
        a, b = draw(st.sampled_from([(i, j) for i in range(d) for j in range(i + 1, d)]))
        nodes[..., a, b] = nodes[..., b, a] = draw(
            hnp.arrays(float, grid.shape, elements=_CURVATURE_VALUES))
    nodes *= draw(st.sampled_from([1.0, 1e-3, 7.0, 2.0 ** 40, 3e-20]))
    how = draw(st.sampled_from(["chart", "drawn", "constant"]))
    if how == "drawn":
        weight = draw(hnp.arrays(float, grid.shape, elements=_CURVATURE_VALUES))
    elif how == "constant":
        weight = np.full(grid.shape, draw(_CURVATURE_VALUES))
    n_param = d + draw(st.sampled_from([0.5, 2.0] + [0.0] * (how == "constant")))
    return L.MetricGrid(grid.spacing, grid.origin, nodes, weight, grid.valid,
                        grid.lipschitz_bound), n_param


def library_planes(nodes):
    """The library's inverse, as (*shape, d, d), and determinant of every
    nodal matrix, fed to the einsum oracles so that they check the
    contraction order; the closed-form 2 x 2 inverse and determinant are
    held to LAPACK's on their own (``test_closed_form_inverse_and_det``)."""
    return {"ginv": L._node_major(L._inverse(nodes), 2), "det": L._det(nodes)}


def _assert_curvature_is_the_einsum_curvature(grid, n_param):
    planes = library_planes(grid.nodes)
    be, hess, ric, gamma = bakry_emery_einsum(grid.nodes, grid.weight_nodes,
                                              grid.spacing, n_param, **planes)
    field = L.bakry_emery(grid, n_param)
    assert field.christoffel.tobytes() == gamma.tobytes()
    assert field.ricci.tobytes() == ric.tobytes()
    assert field.hessian_weight.tobytes() == hess.tobytes()
    assert field.bakry_emery.tobytes() == be.tobytes()
    assert L.christoffels(grid).christoffel.tobytes() == \
        christoffel_einsum(grid.nodes, grid.spacing, ginv=planes["ginv"]).tobytes()
    assert L.ricci(grid).ricci.tobytes() == \
        ricci_einsum(grid.nodes, grid.spacing, **planes)[0].tobytes()


@st.composite
def _lorentzian_matrices(draw):
    """A symmetric (d, d) matrix, d = 2 or 3, with one positive eigenvalue:
    a random rotation of eigenvalues whose magnitudes span a ratio drawn from
    [1e10, 1e14]."""
    d = draw(st.sampled_from([2, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    ratio = 10.0 ** draw(st.floats(10.0, 14.0))
    top = 10.0 ** draw(st.floats(-3.0, 3.0))
    mags = np.concatenate([[top, top / ratio], top / ratio ** rng.uniform(0, 1, d - 2)])
    rng.shuffle(mags)
    lam = -mags
    lam[0] = mags[0]
    m = (q * lam) @ q.T
    return 0.5 * (m + m.T)


@st.composite
def _two_by_two_matrices(draw):
    """(kind, m): a symmetric 2 x 2 matrix that is Lorentzian or definite (a
    random rotation of eigenvalues whose magnitudes span a ratio drawn from
    [1, 1e14]), has an exactly zero eigenvalue (diagonal, or the rank-one
    s [[p^2, pq], [pq, q^2]] with small integers p, q and every entry exact),
    or is zero; scaled by the magnitudes ``_curvature_case`` draws, or by
    1e200 or 1e-200, where det = ad - b^2 over- or underflows unscaled."""
    kind = draw(st.sampled_from(["lorentzian", "definite", "diagonal zero", "rank one", "zero"]))
    scale = draw(st.sampled_from([1.0, 1e-3, 7.0, 2.0 ** 40, 3e-20, 1e200, 1e-200]))
    sign = draw(st.sampled_from([1.0, -1.0]))
    if kind == "zero":
        return kind, np.zeros((2, 2))
    if kind == "diagonal zero":
        lam = draw(st.floats(0.1, 10.0))
        return kind, np.diag(draw(st.permutations([sign * lam * scale, 0.0])))
    if kind == "rank one":
        p, q = draw(st.integers(-15, 15)), draw(st.integers(1, 15))
        m, e = math.frexp(scale)
        s = sign * math.ldexp(round(math.ldexp(m, 40)), e - 40)    # 40 significant bits
        return kind, s * np.array([[p * p, p * q], [p * q, q * q]], dtype=float)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    top = draw(st.floats(0.1, 10.0))
    lam = np.array([top, top / 10.0 ** draw(st.floats(0.0, 14.0))])
    rng.shuffle(lam)
    lam *= sign * np.array([1.0, -1.0 if kind == "lorentzian" else 1.0])
    m = (q * lam) @ q.T
    return kind, scale * 0.5 * (m + m.T)


@st.composite
def _rotated_lorentzian_2x2(draw):
    """(diagonal, m): a symmetric 2 x 2 matrix with eigenvalues top and
    -top / ratio, in either order, ratio drawn from [1, 1e12], turned by a
    random rotation unless ``diagonal``, and scaled by 1, 7, 2^40, 1e200 or
    1e-200."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    top = draw(st.floats(0.1, 10.0))
    lam = np.array([top, -top / 10.0 ** draw(st.floats(0.0, 12.0))])
    rng.shuffle(lam)
    scale = draw(st.sampled_from([1.0, 7.0, 2.0 ** 40, 1e200, 1e-200]))
    diagonal = draw(st.booleans())
    if diagonal:
        return diagonal, scale * np.diag(lam)
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    m = (q * lam) @ q.T
    return diagonal, scale * 0.5 * (m + m.T)


class TestCurvatureOracles:
    """``christoffels``, ``ricci`` and ``bakry_emery`` against the einsum /
    roll route they replace (``oracles``), byte for byte, wrapped band
    included."""

    @given(case=_curvature_case())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_curvature_is_the_einsum_curvature(self, case):
        _assert_curvature_is_the_einsum_curvature(*case)

    @pytest.mark.parametrize("grid", [
        kinked_grid((257, 33)),
        tilted_grid(2, (65, 49), 0.1, 0.4),
        general_grid(2, (65, 49)),
        general_grid(3, (17, 21, 19)),
    ], ids=["kinked", "tilted-1+1", "general-1+1", "general-2+1"])
    def test_mollified_narrowed_curvature_is_the_einsum_curvature(self, grid):
        sm = L.mollify(grid, 4.0 * max(grid.spacing))
        nr = L.cone_narrowed(sm, L.narrowing_constant(sm))
        _assert_curvature_is_the_einsum_curvature(nr, grid.dims + 0.5)

    @pytest.mark.parametrize("grid", [general_grid(2, (65, 49)), general_grid(3, (33, 17, 17))],
                             ids=["general-1+1", "general-2+1"])
    def test_lane_order_einsum_is_within_rounding(self, grid):
        # with l innermost in T's memory, as the library once called it,
        # einsum sums its d terms in SIMD lanes: the same bits for d = 2; for
        # d = 3 two orders of three rounded products differ by at most
        # 3 eps sum_l |g^kl T_lij|, halved with Gamma. The oracle takes
        # LAPACK's inverse; on 1+1 grids the library's closed form is a
        # further 4 eps cond |g^-1|_2 from it in each entry
        # (``test_closed_form_inverse_and_det``), halved with Gamma
        eps = np.finfo(float).eps
        lanes = christoffel_einsum(grid.nodes, grid.spacing, contiguous=False)
        got = L.christoffels(grid).christoffel
        dg = np.stack([d1_roll(grid.nodes, k, h) for k, h in enumerate(grid.spacing)], axis=-3)
        T = (np.moveaxis(dg, [-3, -2, -1], [-2, -1, -3])
             + np.moveaxis(dg, [-3, -2, -1], [-1, -2, -3]) - dg)
        size = np.einsum("...kl,...lij->...kij", np.abs(np.linalg.inv(grid.nodes)), np.abs(T))
        bound = 1.5 * eps * size
        if grid.dims == 2:
            own = christoffel_einsum(grid.nodes, grid.spacing, contiguous=False,
                                     ginv=library_planes(grid.nodes)["ginv"])
            assert got.tobytes() == own.tobytes()
            lam = np.abs(np.linalg.eigvalsh(grid.nodes))
            inverse_gap = 4.0 * eps * lam.max(axis=-1) / lam.min(axis=-1) ** 2
            bound = bound + 0.5 * inverse_gap[..., None, None, None] \
                * np.abs(T).sum(axis=-3)[..., None, :, :]
        assert np.all(np.abs(got - lanes) <= bound)

    @given(a=hnp.arrays(float, hnp.array_shapes(min_dims=1, max_dims=3, min_side=1,
                                                max_side=7), elements=_FILTER_VALUES),
           data=st.data())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_differences_are_the_rolled_differences(self, a, data):
        # every axis length from 1 up, where the wrap-around repeats nodes
        axis = data.draw(st.integers(0, a.ndim - 1))
        h = data.draw(st.sampled_from([0.1, 1.0 / 3.0, 2.0 ** -10]))
        assert L._d1(a, axis, h).tobytes() == d1_roll(a, axis, h).tobytes()
        assert L._d2(a, axis, h).tobytes() == d2_roll(a, axis, h).tobytes()

    @given(m=_lorentzian_matrices(), nodes_shape=st.sampled_from([(1,), (3,)]))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_condition_verdict_is_the_svd_verdict(self, m, nodes_shape):
        d = m.shape[0]
        shape = nodes_shape + (1,) * (d - 1)
        nodes = np.broadcast_to(m, shape + (d, d)).copy()
        # two routes to max|lambda| / min|lambda| agree to about d eps cond,
        # some 6e-4 of it at 1e12 (measured on 40k such matrices); closer
        # to the limit the verdict is rounding, not geometry
        cond = np.linalg.cond(m)
        assume(abs(cond / L.COND_LIMIT - 1.0) > 1e-2)
        grid = L.MetricGrid((0.1,) * d, (0.0,) * d, nodes, np.zeros(shape),
                            np.ones(shape, dtype=bool), 0.0)
        rejected = too_ill_conditioned_svd(grid.nodes, grid.valid, L.COND_LIMIT)
        assert rejected == (cond > L.COND_LIMIT)
        for check in (L.christoffels, L.ricci):
            if rejected:
                with pytest.raises(DegenerateMetricError, match="close to singular"):
                    check(grid)
            else:
                check(grid)

    @given(case=_two_by_two_matrices(), nodes_shape=st.sampled_from([(1,), (3,)]))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_closed_form_signature_is_the_eigvalsh_signature(self, case, nodes_shape):
        kind, m = case
        nodes = np.broadcast_to(m, nodes_shape + (2, 2)).copy()
        mask = np.ones(nodes_shape, dtype=bool)
        want = signature_eigvalsh(nodes, mask)
        try:
            got = L._check_signature(nodes, mask)
        except DegenerateMetricError:
            got = None
        if kind == "rank one":
            # det is exactly 0 and the closed form says so; eigvalsh may leave
            # a rounding-sized eigenvalue of either sign, and where it makes
            # the matrix Lorentzian the conditioning check rejects it
            assert got is None
            assert want is None or want > L.COND_LIMIT
            return
        assert (got is None) == (want is None)
        if kind == "lorentzian":
            assert got is not None
            # the smaller eigenvalue of both routes is accurate to some eps
            # times the larger one
            assert abs(got - want) <= 4.0 * np.finfo(float).eps * want * want
        else:
            assert got is None

    @given(p=st.lists(st.integers(-9, 9), min_size=3, max_size=3),
           q=st.lists(st.integers(-9, 9), min_size=3, max_size=3),
           nodes_shape=st.sampled_from([(1,), (3,)]))
    @example(p=[-1, 0, 5], q=[9, -9, -7], nodes_shape=(1,))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_exactly_singular_three_by_three_nodes_fail(self, p, q, nodes_shape):
        # p p^T - q q^T has rank at most two, every entry exact; eigvalsh
        # leaves a rounding-sized third eigenvalue (-5.9e-15 of (-202.5, .,
        # 17.5) at the example), whose sign alone passed about half of them
        p, q = np.array(p, dtype=float), np.array(q, dtype=float)
        m = np.outer(p, p) - np.outer(q, q)
        nodes = np.broadcast_to(m, nodes_shape + (3, 3)).copy()
        with pytest.raises(DegenerateMetricError, match="without Lorentzian signature"):
            L._check_signature(nodes, np.ones(nodes_shape, dtype=bool))

    @given(case=_rotated_lorentzian_2x2(), nodes_shape=st.sampled_from([(1,), (3,)]))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_closed_form_inverse_and_det(self, case, nodes_shape):
        diagonal, m = case
        nodes = np.broadcast_to(m, nodes_shape + (2, 2)).copy()
        inv, want_inv = L._node_major(L._inverse(nodes), 2), np.linalg.inv(nodes)
        with np.errstate(over="ignore"):
            det, want_det = L._det(nodes), np.linalg.det(nodes)
        eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
        lam = np.abs(np.linalg.eigvalsh(m))
        cond = lam.max() / lam.min()
        if diagonal:
            # LAPACK's bits, signed zeros included; and det is the correctly
            # rounded ad, where LAPACK's exp of a sum of logs is not
            assert inv.tobytes() == want_inv.tobytes()
            with np.errstate(over="ignore", under="ignore"):
                ad = m[0, 0] * m[1, 1]
            assert det.tobytes() == np.full(nodes_shape, ad).tobytes()
        # the two inverses are within 4 eps cond |g^-1|_2 of each other
        # (1.24 at most over 40k draws)
        assert np.all(np.linalg.norm(inv - want_inv, 2, axis=(-2, -1))
                      <= 4.0 * eps * cond / lam.min())
        if tiny <= abs(want_det[0]) < np.inf:
            # ad - bc is within eps cond of the exact determinant, relative
            # (0.68 at most over 20k draws); LAPACK's exp of a sum of logs
            # adds |log|det|| eps, below 56 eps at these scales
            exact = (Fraction(m[0, 0]) * Fraction(m[1, 1])
                     - Fraction(m[0, 1]) * Fraction(m[1, 0]))
            assert abs(Fraction(float(det[0])) - exact) <= 2.0 * eps * cond * abs(exact)
            assert np.all(np.abs(det - want_det) <= 64.0 * eps * cond * np.abs(want_det))
        else:
            # at 1e200 and 1e-200 both routes overflow to -inf or underflow to 0
            assert np.all(det == want_det)

    def test_two_plus_one_grids_take_eigvalsh(self, monkeypatch):
        calls = []
        real = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or real(a))
        grid = general_grid(3, (9, 7, 5))
        L.cone_narrowed(grid, 0.01)
        general_grid(2, (9, 7))
        assert calls == [(9 * 7 * 5, 3, 3)] * 2

    def test_the_deficit_curves_call_no_einsum_roll_or_cond(self, monkeypatch):
        # nor eigvalsh, inv or det on 1+1 grids: their signature, inverse and
        # determinant are taken in closed form; 2+1 grids call LAPACK
        calls = []
        for owner, name in ((np, "einsum"), (np, "roll"), (np.linalg, "cond"),
                            (np.linalg, "eigvalsh"), (np.linalg, "inv"), (np.linalg, "det")):
            real = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *a, _real=real, _name=name, **k:
                                calls.append(_name) or _real(*a, **k))
        g = kinked_grid((257, 33))
        curves = L.lp_deficit_curves(g, 0.0, [1.0, 2.0], [0.5, 0.25], 2.0)
        assert all(d > 0.0 for curve in curves for _, d in curve)
        assert calls == []
        g = general_grid(3, (17, 21, 19))
        curves = L.lp_deficit_curves(g, 0.0, [1.0], [0.3, 0.25], 3.5)
        assert all(math.isfinite(d) for curve in curves for _, d in curve)
        assert set(calls) == {"eigvalsh", "inv", "det"}


class TestConeNarrowing:
    def test_flat_example(self):
        g = L.minkowski_grid(((0, 1), (0, 1)), (17, 17))
        out = L.cone_narrowed(g, 0.1)
        assert np.allclose(out.nodes[..., 0, 0], 0.9)
        assert L.cone_narrowed(g, 0.0) is g

    def test_losing_the_timelike_eigenvalue_raises(self):
        g = L.minkowski_grid(((0, 1), (0, 1)), (9, 9))
        with pytest.raises(DegenerateMetricError):
            L.cone_narrowed(g, 2.0)

    def test_narrowed_causal_vectors_are_timelike_for_the_rough_input(self):
        raw = kinked_grid((513, 65))
        sm = L.mollify(raw, 0.25)
        nr = L.cone_narrowed(sm, L.narrowing_constant(sm))
        rng = np.random.default_rng(19)
        idx = np.nonzero(nr.valid)
        pick = rng.integers(0, len(idx[0]), 1000)
        for a, b in zip(idx[0][pick], idx[1][pick]):
            gt = nr.nodes[a, b]
            s_null = math.sqrt(gt[0, 0] / -gt[1, 1])
            v = np.array([1.0, rng.uniform(-1.0, 1.0) * s_null])
            assert v @ gt @ v >= -1e-12
            assert v @ raw.nodes[a, b] @ v > 0.0


class TestCurvature:
    def test_constant_metric_has_no_christoffels(self):
        g = L.minkowski_grid(((0, 1), (0, 1)), (33, 33))
        f = L.christoffels(g)
        assert np.max(np.abs(f.christoffel[f.valid])) == 0.0

    def test_warped_christoffels_match_hand_values(self):
        g = L.warped_grid(np.cosh, (-1.2, 1.2), (0.0, 0.5), (257, 33))
        f = L.christoffels(g)
        ts = g.axes()[0]
        want_txx = (np.cosh(ts) * np.sinh(ts))[:, None]
        want_xtx = np.tanh(ts)[:, None]
        sel = f.valid
        assert np.max(np.abs((f.christoffel[..., 0, 1, 1] - want_txx)[sel])) < 1e-4
        assert np.max(np.abs((f.christoffel[..., 1, 0, 1] - want_xtx)[sel])) < 1e-4
        assert np.array_equal(f.christoffel[..., :, 0, 1], f.christoffel[..., :, 1, 0])

    def test_near_singular_nodes_are_rejected(self):
        def fn(pts):
            g = np.zeros(pts.shape[:-1] + (2, 2))
            g[..., 0, 0] = 1.0
            g[..., 1, 1] = -1e-13
            return g

        g = L.metric_grid(fn, ((0, 1), (0, 1)), (9, 9))
        with pytest.raises(DegenerateMetricError):
            L.christoffels(g)

    def test_flat_ricci_vanishes(self):
        g = L.minkowski_grid(((0, 1), (-1, 1)), (65, 65))
        f = L.ricci(g)
        assert np.max(np.abs(f.ricci[f.valid])) < 1e-8

    def test_cosh_warp_ricci_is_minus_the_metric(self):
        g = L.warped_grid(np.cosh, (-1.2, 1.2), (0.0, 0.5), (257, 33))
        f = L.ricci(g)
        tt = f.ricci[..., 0, 0][f.valid]
        assert np.max(np.abs(tt + 1.0)) < 1e-3
        sym = np.abs(f.ricci - np.swapaxes(f.ricci, -1, -2))
        assert np.max(sym[f.valid]) < 1e-10

    def test_convergence_order_of_the_warped_ricci(self):
        errs = []
        for n in (65, 129):
            g = L.warped_grid(np.cosh, (-1.2, 1.2), (0.0, 0.5), (n, 17))
            f = L.ricci(g)
            errs.append(np.max(np.abs(f.ricci[..., 0, 0][f.valid] + 1.0)))
        assert math.log2(errs[0] / errs[1]) >= 1.8

    def test_spatial_sign_flip_leaves_ricci_tt_alone(self):
        # diagonal 1+1: Ric_tt only sees g_xx through log|det| and the squared
        # mixed symbol, so the (unphysical) sign flip changes nothing
        ts = np.linspace(-1.0, 1.0, 33)
        a2 = (1.0 + 0.3 * np.sin(ts)) ** 2
        nodes = np.zeros((33, 9, 2, 2))
        nodes[..., 0, 0] = 1.0
        nodes[..., 1, 1] = -a2[:, None]
        flipped = nodes.copy()
        flipped[..., 1, 1] = a2[:, None]
        h = (ts[1] - ts[0], 0.125)
        ric_a, _ = _ricci_arrays(nodes, h)
        ric_b, _ = _ricci_arrays(flipped, h)
        assert np.allclose(ric_a[0, 0, 16, 4], ric_b[0, 0, 16, 4], atol=1e-12)


class TestBakryEmery:
    def test_constant_weight_reduces_to_ricci(self):
        g = L.warped_grid(np.cosh, (-1, 1), (0, 1), (65, 33),
                          weight=lambda t: 0.7 * np.ones_like(t))
        f = L.bakry_emery(g, 2.0)
        assert np.allclose(f.bakry_emery[f.valid], f.ricci[f.valid], atol=1e-12)

    def test_flat_gaussian_weight_example(self):
        g = L.minkowski_grid(((-1, 1), (-1, 1)), (129, 33),
                             weight=lambda p: p[..., 0] ** 2 / 2)
        f = L.bakry_emery(g, 3.0)
        ts = g.axes()[0]
        want = (-1.0 - ts ** 2)[:, None]
        got = f.bakry_emery[..., 0, 0]
        assert np.max(np.abs((got - want)[f.valid])) < 1e-6
        sym = np.abs(f.bakry_emery - np.swapaxes(f.bakry_emery, -1, -2))
        assert np.max(sym[f.valid]) < 1e-10

    def test_dimension_matching_needs_constant_weight(self):
        g = L.minkowski_grid(((-1, 1), (-1, 1)), (33, 33),
                             weight=lambda p: p[..., 0] ** 2)
        with pytest.raises(InvalidInputError):
            L.bakry_emery(g, 2.0)
        with pytest.raises(InvalidInputError):
            L.bakry_emery(g, 1.5)


def scan_samples(grid, directions, speed):
    """The samples the cone scan builds, as (*shape, directions, dims): each
    yielded array is copied, since the generator writes every direction into
    one buffer."""
    vs = np.stack([v.copy() for v in L._cone_samples(L._components(grid.nodes),
                                                       directions, speed)])
    return np.moveaxis(vs, (0, 1), (-2, -1))


class TestConeScan:
    def test_flat_lower_bound_is_zero(self):
        g = L.minkowski_grid(((0, 1), (-1, 1)), (65, 65))
        k = L.timelike_lower_bound_fn(L.ricci(g), g)
        assert np.nanmax(np.abs(k)) < 1e-8

    def test_cosh_warp_lower_bound(self):
        g = L.warped_grid(np.cosh, (-1.2, 1.2), (0.0, 0.5), (257, 33))
        k = L.timelike_lower_bound_fn(L.ricci(g), g)
        assert np.nanmax(np.abs(k + 1.0)) < 1e-3

    def test_quotient_ignores_sample_rescaling(self):
        # the scan's samples at speed 0.5 against the einsum scan's at 1.5 and 3
        g = L.warped_grid(np.cosh, (-1, 1), (0, 1), (65, 33))
        f = L.ricci(g)
        k1 = L.timelike_lower_bound_fn(f, g)
        k2 = cone_scan_einsum(f, g, speed=1.5)
        sel = f.valid
        assert np.allclose(k1[sel], k2[sel], atol=1e-12)

    @pytest.mark.parametrize("case", ["kinked", "weighted", "3d-tilted"])
    def test_scan_equals_the_two_speed_einsum_scan(self, case):
        if case == "kinked":
            sm = L.mollify(kinked_grid((257, 33)), 0.25)
            g = L.cone_narrowed(sm, L.narrowing_constant(sm))
            field = L.bakry_emery(g, 2.0)
        elif case == "weighted":
            g = L.warped_grid(np.cosh, (-1, 1), (0, 1), (65, 33),
                              weight=lambda t: 0.3 * t ** 2 + 0.1 * t)
            field = L.bakry_emery(g, 3.0)
        else:
            g = tilted_grid(3, (25, 17, 17), 0.4, 0.3)
            field = L.bakry_emery(g, 4.5)
        k = L.timelike_lower_bound_fn(field, g)
        assert np.array_equal(k, cone_scan_einsum(field, g), equal_nan=True)
        assert np.all(np.isfinite(k[field.valid]))

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(dims=st.sampled_from([2, 3]), off=st.floats(0.0, 1.0),
           weight=st.floats(-1.0, 1.0), extra=st.floats(0.5, 4.0))
    def test_scan_equals_the_oracle_on_tilted_charts(self, dims, off, weight, extra):
        # a time-space g_01 up to 0.3 in 1+1, where the samples follow the tilted cone
        g = tilted_grid(dims, (17,) + (13,) * (dims - 1),
                        0.3 * off if dims == 2 else 0.5 * off, weight)
        field = L.bakry_emery(g, dims + extra)
        k = L.timelike_lower_bound_fn(field, g)
        assert np.array_equal(k, cone_scan_einsum(field, g), equal_nan=True)

    def test_default_samples_are_one_speed_per_direction(self):
        g = tilted_grid(3, (9, 9, 9), 0.3, 0.0)
        vs = scan_samples(g, 6, 0.5)
        assert vs.shape == g.shape + (6, 3)
        gvv = np.einsum("...i,...ij,...j->...", vs, g.nodes[..., None, :, :], vs)
        assert np.allclose(gvv, 0.25, rtol=1e-12)

    @pytest.mark.parametrize("off", [0.0, 0.2, 0.35])
    def test_samples_spread_between_the_null_slopes(self, off):
        # 1+1 with g_01 = off sin(2x): the slopes w of v = (1, w) sit at
        # fractions -0.9 .. 0.9 of the half-width about the centre of the two
        # roots of g00 + 2 g01 w + g11 w^2
        g = tilted_grid(2, (17, 13), off, 0.0)
        vs = scan_samples(g, 5, 0.5)
        g00, g01, g11 = g.nodes[..., 0, 0], g.nodes[..., 0, 1], g.nodes[..., 1, 1]
        disc = np.sqrt(g01 * g01 - g00 * g11)
        lo, hi = (-g01 + disc) / g11, (-g01 - disc) / g11
        w = vs[..., 1] / vs[..., 0]
        frac = (w - 0.5 * (lo + hi)[..., None]) / (0.5 * (hi - lo))[..., None]
        assert np.allclose(frac, np.linspace(-0.9, 0.9, 5), atol=1e-12)
        gvv = np.einsum("...i,...ij,...j->...", vs, g.nodes[..., None, :, :], vs)
        assert np.allclose(gvv, 0.25, rtol=1e-12)

    def test_sheared_minkowski_chart_has_zero_lower_bound(self):
        # dt^2 - dx^2 written in (t, y) with x = y - c t: null slopes dy/dt =
        # c - 1 and c + 1, so slopes spread by g00 and g11 alone (up to
        # +-0.78) would leave the cone for c = 0.5
        c = 0.5

        def fn(pts):
            g = np.zeros(pts.shape[:-1] + (2, 2))
            g[..., 0, 0] = 1.0 - c * c
            g[..., 0, 1] = g[..., 1, 0] = c
            g[..., 1, 1] = -1.0
            return g

        g = L.metric_grid(fn, ((0.0, 1.0), (0.0, 1.0)), (33, 33))
        k = L.timelike_lower_bound_fn(L.ricci(g), g)
        assert np.nanmax(np.abs(k)) < 1e-12

    def test_tilted_grid_runs_the_deficit_curves(self):
        # g_01 = 0.2 sin(2x) on the tilted chart: every sample is timelike
        g = tilted_grid(2, (65, 65), 0.2, 0.3)
        curves = L.lp_deficit_curves(g, 0.0, [1.0, 2.0], [0.25, 0.125], 2.5)
        assert all(math.isfinite(d) and d >= 0.0 for curve in curves for _, d in curve)


class TestDeficitCurve:
    def test_satisfied_bound_gives_negligible_deficit(self):
        g = L.warped_grid(np.cosh, (-1.2, 1.2), (0.0, 1.0), (513, 129))
        curve = L.lp_deficit_curve(g, -1.2, 2.0, [0.3, 0.15], 2.0)
        assert all(d <= 1e-6 for _, d in curve)

    def test_concave_kink_deficits_fall_along_the_schedule(self):
        g = kinked_grid()
        eps = [0.5, 0.25, 0.125]
        for p in (1.0, 2.0):
            ds = [d for _, d in L.lp_deficit_curve(g, 0.0, p, eps, 2.0)]
            assert ds[0] >= ds[1] >= ds[2]
            assert ds[2] <= 0.1 * ds[0]

    def test_rough_uniform_lower_bound_across_refinements(self):
        worst = []
        for shape in ((513, 65), (1025, 129)):
            g = kinked_grid(shape)
            mins = []
            for eps in (0.5, 0.25, 0.125):
                sm = L.mollify(g, eps)
                nr = L.cone_narrowed(sm, L.narrowing_constant(sm))
                k = L.timelike_lower_bound_fn(L.bakry_emery(nr, 2.0), nr)
                mins.append(-np.nanmin(k))
            worst.append(max(mins))
        assert all(w <= 0.5 for w in worst)

    def test_one_scan_serves_every_p(self):
        g = kinked_grid((257, 33))
        p_list, eps = [1.0, 2.0, 0.5], [0.5, 0.25]

        def einsum_curve(K, p):
            # one full pass per p on the einsum scan, the region of the first radius
            out, region = [], None
            for e in eps:
                sm = L.mollify(g, e)
                nr = L.cone_narrowed(sm, L.narrowing_constant(sm))
                field = L.bakry_emery(nr, 2.0)
                region = field.valid if region is None else region
                k = cone_scan_einsum(field, nr)
                dens = np.sqrt(np.abs(library_planes(sm.nodes)["det"])) \
                    * np.exp(-sm.weight_nodes) * np.prod(sm.spacing)
                out.append((e, float(np.sum(np.clip(K - k[region], 0.0, None) ** p
                                            * dens[region]))))
            return out

        for K in (0.0, 0.3):
            curves = L.lp_deficit_curves(g, K, p_list, eps, 2.0)
            assert curves == [L.lp_deficit_curve(g, K, p, eps, 2.0) for p in p_list]
            assert curves == [einsum_curve(K, p) for p in p_list]
            assert all(d > 0.0 for curve in curves for _, d in curve)
        with pytest.raises(InvalidInputError):
            L.lp_deficit_curves(g, 0.0, [], [0.5, 0.25], 2.0)

    def test_an_empty_region_is_rejected(self):
        # a convex kink on x-spacing 1/64: the radius-0.2 kernel keeps the
        # middle column of 25 and the curvature stencils none, which read as
        # a deficit of 0 at every radius; 41 columns keep 9
        def kink(columns):
            return L.warped_grid(lambda t: 1.0 + 0.25 * np.abs(t), (-2.0, 2.0),
                                 (0.0, (columns - 1) / 64.0), (257, columns))

        with pytest.raises(InvalidInputError, match="no interior nodes"):
            L.lp_deficit_curves(kink(25), 0.0, [1.0, 2.0], [0.2, 0.1], 2.0)
        curves = L.lp_deficit_curves(kink(41), 0.0, [1.0, 2.0], [0.2, 0.1], 2.0)
        assert all(d > 0.0 for curve in curves for _, d in curve)

    def test_schedule_validation(self):
        g = L.minkowski_grid(((0, 1), (0, 1)), (65, 65))
        with pytest.raises(InvalidInputError):
            L.lp_deficit_curve(g, 0.0, 2.0, [0.1, 0.2], 2.0)
        with pytest.raises(InvalidInputError):
            L.lp_deficit_curve(g, 0.0, 2.0, [0.2, 0.01], 2.0)
