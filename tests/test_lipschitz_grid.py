"""Gridded metrics: mollification, FD curvature, cone scans, deficit curves."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lorentz_synth import lipschitz_grid as L
from lorentz_synth.errors import DegenerateMetricError, InvalidInputError
from lorentz_synth.lipschitz_grid import _ricci_arrays

from oracles import cone_scan_einsum


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

    def test_lipschitz_bound_records_the_steepest_quotient(self):
        g = kinked_grid((257, 17))
        # d(a^2)/dt = 2 a a' peaks at |a'| = 1/4, a = 1
        assert g.lipschitz_bound == pytest.approx(0.5, abs=5e-3)

    def test_binary_roundtrip(self, tmp_path):
        g = L.warped_grid(np.cosh, (-1, 1), (0, 1), (33, 17),
                          weight=lambda t: 0.3 * t)
        L.save_grid(g, tmp_path / "g.bin")
        assert L.load_grid(tmp_path / "g.bin") == g


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
        assert np.allclose(ric_a[16, 4, 0, 0], ric_b[16, 4, 0, 0], atol=1e-12)


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
        g = L.warped_grid(np.cosh, (-1, 1), (0, 1), (65, 33))
        f = L.ricci(g)
        vs = L.default_cone_samples(g)
        k1 = L.timelike_lower_bound_fn(f, g, vs)
        k2 = L.timelike_lower_bound_fn(f, g, 3.0 * vs)
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
        vs = L.default_cone_samples(g, directions=6, speed=0.5)
        assert vs.shape == g.shape + (6, 3)
        gvv = np.einsum("...i,...ij,...j->...", vs, g.nodes[..., None, :, :], vs)
        assert np.allclose(gvv, 0.25, rtol=1e-12)

    @pytest.mark.parametrize("off", [0.0, 0.2, 0.35])
    def test_samples_spread_between_the_null_slopes(self, off):
        # 1+1 with g_01 = off sin(2x): the slopes w of v = (1, w) sit at
        # fractions -0.9 .. 0.9 of the half-width about the centre of the two
        # roots of g00 + 2 g01 w + g11 w^2
        g = tilted_grid(2, (17, 13), off, 0.0)
        vs = L.default_cone_samples(g, directions=5, speed=0.5)
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

    def test_empty_cone_sample_is_invalid(self):
        g = L.minkowski_grid(((0, 1), (0, 1)), (33, 33))
        with pytest.raises(InvalidInputError):
            L.timelike_lower_bound_fn(L.ricci(g), g, np.zeros(g.shape + (0, 2)))


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
                dens = np.sqrt(np.abs(np.linalg.det(sm.nodes))) \
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

    def test_schedule_validation(self):
        g = L.minkowski_grid(((0, 1), (0, 1)), (65, 65))
        with pytest.raises(InvalidInputError):
            L.lp_deficit_curve(g, 0.0, 2.0, [0.1, 0.2], 2.0)
        with pytest.raises(InvalidInputError):
            L.lp_deficit_curve(g, 0.0, 2.0, [0.2, 0.01], 2.0)
