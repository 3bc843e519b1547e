"""Inequality-verifier tests: entropy contraction on flat, weighted and warped
charts, volume comparison, diameter bounds with curvature deficits, gradient
identities of the separation field, the weak wave-operator comparison, and the
radial needle disintegration. Flat scenarios are checked against closed forms;
warped ones against frozen lattice-error bands."""

import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lorentz_synth import comparison as C
from lorentz_synth.comparison import (BumpFunction, aubry_spacetime_check,
                                      bishop_gromov, bonnet_myers,
                                      brenier_mccann_check, brunn_minkowski,
                                      check_tcd_semiconvexity, check_tmcp,
                                      dalembert_check, eikonal_check, make_report,
                                      needle_decomposition, voronoi_cell_masses)
from lorentz_synth.errors import InvalidInputError, UnsupportedModelError
from lorentz_synth.lipschitz_grid import metric_grid, minkowski_grid
from lorentz_synth.models import (cosh_warp_model, desitter_like, maximizing_path,
                                  minkowski, region_measure, time_separation)
from lorentz_synth.onedim import aubry_diameter_bound, verify_cd_density
from lorentz_synth.transport import DiscreteMeasure, dirac, uniform_on_box

T_GRID = (0.25, 0.5, 0.75)


def flat_box(p, t_lo, t_hi, x_half):
    return (p[..., 0] > t_lo) & (p[..., 0] < t_hi) & (np.abs(p[..., 1]) < x_half)


def big_flat():
    return minkowski(((-2.5, 2.5), (-2.0, 2.0)))


# ---------------------------------------------------------------------------
# report plumbing and test bumps
# ---------------------------------------------------------------------------


class TestReportPlumbing:
    def test_json_roundtrip(self):
        rep = bonnet_myers(desitter_like(), 1.0, 2.0, resolution=65)
        back = json.loads(rep.to_json())
        assert back["name"] == "bonnet-myers"
        assert back["labels"] == ["diameter"]
        assert back["margin"][0] == pytest.approx(rep.worst_margin())
        assert back["provenance"]["K"] == 1.0
        assert isinstance(back["passed"], bool)

    def test_csv_plain_floats_and_quoting(self):
        model = minkowski(((-0.5, 2.5), (-1.0, 1.0)))
        mu1 = uniform_on_box(((1.2, 2.0), (-0.4, 0.4)), 2)
        tmcp = check_tmcp(model, (0.0, 0.0), mu1, 0.0, 2.0, 0.5, (0.5,), (2.0,))
        # a label with a comma and embedded quotes must come back whole
        quoted = make_report("quoted", [0.5, -1.0], [1.0, math.inf], 0.0,
                             ['say "hi", then', 'plain'], {})
        for rep in (tmcp, quoted):
            text = rep.to_csv()
            assert "np.float64" not in text
            rows = list(csv.reader(io.StringIO(text)))
            assert rows[0] == ["label", "lhs", "rhs", "margin"]
            assert len(rows) == 1 + len(rep.labels)
            for row, lab, m in zip(rows[1:], rep.labels, rep.margin):
                assert len(row) == 4
                assert row[0] == lab
                assert float(row[3]) == pytest.approx(float(m), abs=0.0)

    def test_worst_margin(self):
        rep = bonnet_myers(desitter_like(), 1.0, 2.0, resolution=65)
        assert rep.worst_margin() == float(np.min(rep.margin))


class TestBumpFunction:
    def test_center_and_support(self):
        phi = BumpFunction((1.0, 0.5), (0.4, 0.25))
        assert phi((1.0, 0.5)) == pytest.approx(1.0)
        assert phi((1.4, 0.5)) == 0.0
        assert phi((1.0, 0.76)) == 0.0
        assert phi.support_box == ((0.6, 1.4), (0.25, 0.75))

    def test_scalar_radius_broadcasts(self):
        phi = BumpFunction((0.0, 0.0), 0.3)
        assert phi.radius == (0.3, 0.3)

    def test_gradient_matches_finite_differences(self):
        phi = BumpFunction((1.0, 0.5), (0.4, 0.25))
        pts = np.array([[1.1, 0.45], [0.8, 0.6], [1.3, 0.42], [0.7, 0.33]])
        grad = phi.gradient(pts)
        h = 1e-6
        for ax in range(2):
            e = np.zeros(2)
            e[ax] = h
            fd = (phi(pts + e) - phi(pts - e)) / (2.0 * h)
            assert np.max(np.abs(fd - grad[..., ax])) < 1e-7

    @given(ct=st.floats(-1.0, 1.0), cx=st.floats(-1.0, 1.0),
           rt=st.floats(0.05, 0.8), rx=st.floats(0.05, 0.8))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_range_and_support_containment(self, ct, cx, rt, rx):
        phi = BumpFunction((ct, cx), (rt, rx))
        grid = np.stack(np.meshgrid(np.linspace(-2.0, 2.0, 41),
                                    np.linspace(-2.0, 2.0, 41),
                                    indexing="ij"), axis=-1)
        vals = phi(grid)
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0 + 1e-12)
        outside = (np.abs(grid[..., 0] - ct) >= rt) | (np.abs(grid[..., 1] - cx) >= rx)
        assert np.all(vals[outside] == 0.0)
        assert np.all(phi.gradient(grid)[outside] == 0.0)

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            BumpFunction((0.0, 0.0), (0.3, -0.1))
        with pytest.raises(InvalidInputError):
            BumpFunction((0.0, 0.0), (0.3, 0.3, 0.3))


# ---------------------------------------------------------------------------
# reference cells
# ---------------------------------------------------------------------------


class TestVoronoiCells:
    def test_uniform_grid_recovers_build_cells(self):
        model = minkowski(((-0.5, 2.5), (-1.0, 1.0)))
        mu = uniform_on_box(((0.0, 1.0), (-0.5, 0.5)), 4)
        masses = voronoi_cell_masses(model, mu)
        assert np.max(np.abs(masses - 0.0625)) < 1e-12

    def test_single_point_is_an_atom(self):
        assert voronoi_cell_masses(big_flat(), dirac((0.0, 0.0))) == pytest.approx([0.0])

    def test_weighted_masses_sum_to_hull_measure(self):
        model = minkowski(((-0.5, 1.4), (-1.0, 1.0)), weight=lambda t: 0.25 * t * t)
        mu = uniform_on_box(((0.8, 1.2), (-0.2, 0.2)), 4)
        total = float(np.sum(voronoi_cell_masses(model, mu)))
        hull = region_measure(model, lambda p: flat_box(p, 0.8, 1.2, 0.2), 2048)
        assert total == pytest.approx(hull, rel=2e-3)

    @given(n=st.integers(2, 7), seed=st.integers(0, 50))
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_masses_nonnegative_and_bounded_by_hull(self, n, seed):
        rng = np.random.default_rng(seed)
        model = big_flat()
        pts = [(float(t), float(x)) for t, x in
               zip(rng.uniform(-1.0, 1.0, n), rng.uniform(-1.5, 1.5, n))]
        if len({p for p in pts}) < n:
            return
        masses = voronoi_cell_masses(model, DiscreteMeasure(tuple(pts), np.full(n, 1.0 / n)),
                                     resolution=64)
        assert np.all(masses >= 0.0)
        # the padded hull is at most the whole chart
        assert float(np.sum(masses)) <= 20.0 + 1e-9


# ---------------------------------------------------------------------------
# entropy contraction
# ---------------------------------------------------------------------------


class TestTmcp:
    def test_flat_matches_scaling_closed_form(self):
        # uniform box marginal: S(mu_t) = -(V t^2)^(1/N') exactly, V = 0.64
        model = minkowski(((-0.5, 2.5), (-1.0, 1.0)))
        mu1 = uniform_on_box(((1.2, 2.0), (-0.4, 0.4)), 8)
        rep = check_tmcp(model, (0.0, 0.0), mu1, 0.0, 2.0, 0.5,
                         T_GRID, (2.0, 3.0, 4.0))
        assert rep.passed
        by_label = dict(zip(rep.labels, rep.margin))
        lhs_by_label = dict(zip(rep.labels, rep.lhs))
        for t in T_GRID:
            for npr in (2.0, 3.0, 4.0):
                lab = f"t={t:g},N'={npr:g}"
                assert lhs_by_label[lab] == pytest.approx(
                    -(0.64 * t * t) ** (1.0 / npr), abs=1e-12)
                if npr == 2.0:
                    # dimension-sharp case: contraction is an equality
                    assert abs(by_label[lab]) < 1e-9
                else:
                    assert by_label[lab] > 0.01
        # with K = 0 the distortion bound collapses to t * S(mu1), so the
        # appended plain-contraction entries duplicate the tau entries
        n_half = len(rep.labels) // 2
        assert all(lab.startswith("flat:") for lab in rep.labels[n_half:])
        assert np.allclose(rep.rhs[:n_half], rep.rhs[n_half:], atol=1e-12)

    def test_weighted_flat_chart_keeps_margin(self):
        model = minkowski(((-0.5, 1.4), (-1.0, 1.0)), weight=lambda t: 0.25 * t * t)
        mu1 = uniform_on_box(((0.8, 1.2), (-0.2, 0.2)), 4)
        rep = check_tmcp(model, (0.0, 0.0), mu1, 0.0, 3.0, 0.5,
                         T_GRID, (3.0, 4.0, 6.0))
        assert rep.passed
        assert rep.worst_margin() > 0.02
        assert rep.provenance["variant"] == "past"

    def test_cosh_warp_within_lattice_band(self):
        # K = -1 run on the cosh slab; margins sit in a +-1e-2 band set by the
        # path-snapping error of the interpolant positions
        mu1 = uniform_on_box(((0.55, 0.95), (-0.2, 0.2)), 4)
        rep = check_tmcp(cosh_warp_model(), (-0.6, 0.0), mu1, -1.0, 2.0, 0.5,
                         T_GRID, (2.0, 3.0), cells_resolution=192, tolerance=1e-2)
        assert rep.passed
        assert abs(rep.worst_margin()) < 1e-2
        assert not any(lab.startswith("flat:") for lab in rep.labels)

    def test_future_variant_mirrors_past(self):
        model = big_flat()
        fut = check_tmcp(model, (1.0, 0.0),
                         uniform_on_box(((-1.4, -1.0), (-0.2, 0.2)), 2),
                         0.0, 2.0, 0.5, (0.5,), (2.0, 3.0), variant="future")
        past = check_tmcp(model, (-1.0, 0.0),
                          uniform_on_box(((1.0, 1.4), (-0.2, 0.2)), 2),
                          0.0, 2.0, 0.5, (0.5,), (2.0, 3.0))
        assert fut.provenance["variant"] == "future"
        assert np.max(np.abs(fut.margin - past.margin)) < 1e-12
        assert fut.passed

    def test_validation(self):
        model = big_flat()
        spacelike = uniform_on_box(((0.1, 0.3), (1.0, 1.4)), 2)
        with pytest.raises(InvalidInputError):
            check_tmcp(model, (0.0, 0.0), spacelike, 0.0, 2.0, 0.5, (0.5,), (2.0,))
        ok = uniform_on_box(((1.0, 1.4), (-0.2, 0.2)), 2)
        with pytest.raises(InvalidInputError):
            check_tmcp(model, (0.0, 0.0), ok, 0.0, 2.0, 0.5, (0.5,), (2.0,),
                       variant="sideways")


class TestTcd:
    def test_flat_endpoints_are_tight(self):
        model = big_flat()
        mu0 = uniform_on_box(((-1.6, -1.2), (-0.3, 0.3)), 3)
        mu1 = uniform_on_box(((1.2, 1.8), (-0.4, 0.4)), 3)
        rep = check_tcd_semiconvexity(model, mu0, mu1, 0.0, 2.0, 0.5,
                                      (0.0, 0.25, 0.5, 0.75, 1.0))
        assert rep.passed
        assert rep.labels[0] == "t=0" and rep.labels[-1] == "t=1"
        # tau^{(0)} = 0 and tau^{(1)} = 1, so the bound collapses to the
        # endpoint entropy computed from the same cells
        assert abs(rep.margin[0]) < 1e-9
        assert abs(rep.margin[-1]) < 1e-9
        assert rep.worst_margin() > -1e-12

    def test_desitter_within_lattice_band(self):
        mu0 = uniform_on_box(((-1.3, -1.1), (-0.15, 0.15)), 2)
        mu1 = uniform_on_box(((1.1, 1.3), (-0.15, 0.15)), 2)
        rep = check_tcd_semiconvexity(desitter_like(), mu0, mu1, 1.0, 2.0, 0.5,
                                      T_GRID, tolerance=1e-2)
        assert rep.passed
        assert abs(rep.worst_margin()) < 1e-2

    def test_rejects_non_chronological_supports(self):
        mu = uniform_on_box(((-1.4, -1.0), (-0.2, 0.2)), 2)
        with pytest.raises(InvalidInputError):
            check_tcd_semiconvexity(big_flat(), mu, mu, 0.0, 2.0, 0.5, (0.5,))


# ---------------------------------------------------------------------------
# volume comparison
# ---------------------------------------------------------------------------


class TestBrunnMinkowski:
    def x1(self, p):
        return flat_box(p, 1.0, 1.6, 0.3)

    def test_midpoint_margin_shrinks_under_refinement(self):
        model = big_flat()
        coarse = brunn_minkowski(model, (0.0, 0.0), self.x1, 0.0, 2.0, 0.5,
                                 resolution=256)
        fine = brunn_minkowski(model, (0.0, 0.0), self.x1, 0.0, 2.0, 0.5,
                               resolution=512)
        assert coarse.passed and fine.passed
        assert coarse.worst_margin() > 0.0
        assert fine.worst_margin() < 0.5 * coarse.worst_margin()
        assert fine.provenance["inner_measure"] <= fine.provenance["upper_measure"]
        assert fine.provenance["pairs"] > 0

    def test_t_one_recovers_the_target_set(self):
        rep = brunn_minkowski(big_flat(), (0.0, 0.0), self.x1, 0.0, 2.0, 1.0,
                              resolution=512)
        # midpoint samples rasterize back onto their own cells
        assert rep.provenance["inner_measure"] == rep.provenance["m_x1"]
        assert abs(rep.provenance["m_x1"] - 0.36) < 5e-3
        assert float(rep.lhs[0]) == pytest.approx(
            math.sqrt(rep.provenance["m_x1"]), abs=1e-12)
        assert rep.worst_margin() >= 0.0

    def test_lattice_sweep_matches_the_per_pair_loop(self, monkeypatch):
        # the batched lattice branch against one separation and one maximizer
        # per (source, target) pair, bit for bit
        model = cosh_warp_model()
        source = lambda p: flat_box(p, -0.7, -0.6, 0.1)
        target = lambda p: flat_box(p, 0.4, 0.6, 0.1)
        args = (model, source, target, -1.0, 2.0, 0.4)
        batched = brunn_minkowski(*args, resolution=24)
        monkeypatch.setattr(C, "time_separations", lambda m, xs, ys: np.array(
            [[time_separation(m, x, y) for y in ys] for x in xs]))
        monkeypatch.setattr(C, "maximizing_paths", lambda m, pairs: [
            maximizing_path(m, x, y) for x, y in pairs])
        pairwise = brunn_minkowski(*args, resolution=24)
        assert batched.provenance["pairs"] == 8
        assert batched.to_json() == pairwise.to_json()

    def test_validation(self):
        model = big_flat()
        with pytest.raises(InvalidInputError):
            brunn_minkowski(model, (0.0, 0.0),
                            lambda p: np.zeros(p.shape[:-1], bool), 0.0, 2.0, 0.5)
        with pytest.raises(InvalidInputError):
            brunn_minkowski(model, (0.0, 0.0),
                            lambda p: flat_box(p, 0.1, 0.2, 0.8) & (p[..., 1] > 0.5),
                            0.0, 2.0, 0.5)
        with pytest.raises(InvalidInputError):
            brunn_minkowski(model, (0.0, 0.0), self.x1, 0.0, 2.0, 1.5)


class TestBishopGromov:
    def cone(self, p):
        return np.abs(p[..., 1]) <= 0.6 * p[..., 0]

    def test_flat_cone_ratios(self):
        model = minkowski(((-0.05, 1.35), (-0.85, 0.85)))
        rs = (0.25, 0.5, 0.75, 1.0)
        rep = bishop_gromov(model, (0.0, 0.0), self.cone, 0.0, 2.0, rs)
        assert rep.passed
        v = [m for lab, m in zip(rep.labels, rep.margin) if lab.startswith("v:")]
        s = [m for lab, m in zip(rep.labels, rep.margin) if lab.startswith("s:")]
        assert len(v) == len(s) == 6
        # exact scaling of the flat cone: volume ratios equal (r/R)^2
        assert max(abs(m) for m in v) < 1e-3
        # area ratios carry the O(dr) difference-quotient bias
        assert min(s) > -5e-3
        # the measured ball volumes are atanh(0.6) r^2
        for vol, r in zip(rep.provenance["volumes"], rs):
            assert vol == pytest.approx(math.atanh(0.6) * r * r, abs=1e-4)

    def test_one_lattice_field_serves_every_radius(self, monkeypatch):
        # one l_o field (its coarse and fine longest-path passes) for all
        # four radii, where rebuilding it per radius ran eight passes
        from lorentz_synth import models as M

        passes = []
        dp = M._dp_longest

        def counted(model, shape, sources):
            passes.append(shape)
            return dp(model, shape, sources)

        monkeypatch.setattr(M, "_dp_longest", counted)
        cone = lambda p: np.abs(p[..., 1]) <= 0.6 * (p[..., 0] + 1.0)
        rep = bishop_gromov(cosh_warp_model(), (-1.0, 0.0), cone, -1.0, 2.0,
                            (0.2, 0.4, 0.6, 0.8), resolution=256, dr=0.01)
        assert len(rep.provenance["volumes"]) == 4
        assert passes == [(257, 257), (513, 513)]

    def test_validation(self):
        model = big_flat()
        whole = lambda p: np.ones(p.shape[:-1], bool)
        with pytest.raises(InvalidInputError):
            bishop_gromov(model, (0.0, 0.0), whole, 0.0, 2.0, (0.5, 0.25))
        with pytest.raises(InvalidInputError):
            bishop_gromov(model, (0.0, 0.0), whole, 1.0, 2.0, (1.0, 2.0, 3.0, 4.0))


class TestBonnetMyers:
    def test_desitter_diameter_under_sharp_bound(self):
        rep = bonnet_myers(desitter_like(), 1.0, 2.0)
        assert rep.passed
        # the comoving maximizer is a lattice path: diameter = pi - 2 delta
        assert rep.provenance["diameter"] == pytest.approx(math.pi - 0.04, abs=1e-9)
        assert float(rep.rhs[0]) == pytest.approx(math.pi, abs=1e-12)

    def test_bound_formula(self):
        rep = bonnet_myers(desitter_like(), 0.5, 3.0, resolution=65, tolerance=10.0)
        assert float(rep.rhs[0]) == pytest.approx(2.0 * math.pi, abs=1e-12)

    def test_needs_positive_k(self):
        with pytest.raises(InvalidInputError):
            bonnet_myers(desitter_like(), 0.0, 2.0)


# ---------------------------------------------------------------------------
# gradient identities
# ---------------------------------------------------------------------------


def wedge(p):
    return (p[..., 0] >= 0.5) & (np.abs(p[..., 1]) <= 0.6 * p[..., 0])


class TestEikonal:
    def test_flat_closed_form_is_machine_exact(self):
        model = minkowski(((0.0, 2.0), (-1.0, 1.0)))
        rep = eikonal_check(model, (0.0, 0.0), wedge)
        assert rep.passed
        assert float(rep.lhs[0]) < 1e-12
        assert rep.provenance["mean_deviation"] < 1e-12
        assert float(rep.rhs[0]) == pytest.approx(5.0 * 2.0 / 256.0)
        # the raised gradient of l_o points to the past everywhere
        assert rep.provenance["past_directed_fraction"] == 0.0

    def test_metric_grid_lifts_to_lattice_route(self):
        grid = minkowski_grid(((0.0, 2.0), (-1.0, 1.0)), (65, 65))
        rep = eikonal_check(grid, (0.0, 0.0), wedge)
        assert rep.passed
        # the lattice field saturates at the fan-quantization floor but stays
        # inside the 5 * spacing budget at this resolution
        assert 1e-3 < float(rep.lhs[0]) < float(rep.rhs[0])

    def test_validation(self):
        model = minkowski(((0.0, 2.0), (-1.0, 1.0)))
        with pytest.raises(InvalidInputError):
            eikonal_check(model, (0.0, 0.0),
                          lambda p: np.zeros(p.shape[:-1], bool))
        with pytest.raises(InvalidInputError):
            eikonal_check(42, (0.0, 0.0), wedge)
        xdep = metric_grid(
            lambda p: np.broadcast_to(np.diag([1.0, -1.0]),
                                      p.shape[:-1] + (2, 2)).copy(),
            ((0.0, 2.0), (-1.0, 1.0)), (33, 33), weight=lambda p: p[..., 1] ** 2)
        with pytest.raises(UnsupportedModelError):
            eikonal_check(xdep, (0.0, 0.0), wedge)


class TestBrenierMccann:
    def endpoints(self):
        rng = np.random.default_rng(11)
        pts = [(float(t), float(x)) for t, x in zip(rng.uniform(0.9, 1.8, 50),
                                                    rng.uniform(-0.5, 0.5, 50))]
        return DiscreteMeasure(tuple(pts), np.full(50, 0.02))

    def test_endpoint_identity_shrinks_with_spacing(self):
        model = minkowski(((-0.5, 2.5), (-1.0, 1.0)))
        mu1 = self.endpoints()
        coarse = brenier_mccann_check(model, (0.0, 0.0), mu1, 0.5, resolution=257)
        fine = brenier_mccann_check(model, (0.0, 0.0), mu1, 0.5, resolution=513)
        assert coarse.passed and fine.passed
        assert len(coarse.lhs) == 50
        assert coarse.labels[0] == "endpoint:0"
        assert coarse.provenance["max_deviation"] < 6e-3
        assert fine.provenance["max_deviation"] < 0.7 * coarse.provenance["max_deviation"]

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            brenier_mccann_check(big_flat(), (0.0, 0.0), self.endpoints(), 1.5)


class TestDalembert:
    def setup_method(self):
        self.model = minkowski(((0.0, 2.6), (-1.2, 1.2)))
        self.bump = BumpFunction((1.2, 0.0), (0.35, 0.35))

    def test_distance_variant_near_equality(self):
        # flat chart: box l = (N-1)/l distributionally, so both sides agree
        # up to quadrature residue
        for res in (257, 513):
            rep = dalembert_check(self.model, (0.0, 0.0), self.bump, 0.0, 2.0,
                                  -1.0, "distance", resolution=res)
            assert rep.passed
            assert abs(rep.worst_margin()) < 1e-4

    def test_power_variant_matches_bump_mass(self):
        rep = dalembert_check(self.model, (0.0, 0.0), self.bump, 0.0, 2.0,
                              -2.0, "power", resolution=513)
        assert rep.passed
        assert abs(rep.worst_margin()) < 1e-4
        # for K = 0 the rhs is N int phi dm; cross-check by 1-d product quadrature
        u = np.linspace(-1.0, 1.0, 20001)
        profile = np.exp(1.0 - 1.0 / (1.0 - np.clip(u * u, None, 1.0 - 1e-12)))
        ref = (0.35 * float(np.trapezoid(profile, u))) ** 2
        assert float(rep.rhs[0]) == pytest.approx(2.0 * ref, rel=1e-6)

    def test_vanishing_bump_reports_zero(self):
        rep = dalembert_check(self.model, (0.0, 0.0),
                              BumpFunction((10.0, 0.0), (0.3, 0.3)),
                              0.0, 2.0, -1.0, "distance")
        assert rep.passed
        assert float(rep.lhs[0]) == 0.0 and float(rep.rhs[0]) == 0.0
        assert rep.provenance["support_nodes"] == 0

    def test_validation(self):
        args = (self.model, (0.0, 0.0), self.bump, 0.0, 2.0)
        with pytest.raises(InvalidInputError):
            dalembert_check(*args, 0.5, "power")          # conjugate q' must be < 0
        with pytest.raises(InvalidInputError):
            dalembert_check(*args, -1.0, "waves")
        with pytest.raises(InvalidInputError):
            dalembert_check(self.model, (0.0, 0.0), lambda p: np.ones(p.shape[:-1]),
                            0.0, 2.0, -1.0, "distance")
        with pytest.raises(InvalidInputError):
            dalembert_check(self.model, (0.0, 0.0),
                            BumpFunction((0.3, 0.0), (0.35, 0.35)),
                            0.0, 2.0, -1.0, "distance")   # support crosses the cone
        with pytest.raises(InvalidInputError):
            dalembert_check(self.model, (0.0, 0.0), self.bump, 4.5, 2.0,
                            -1.0, "distance")             # support past pi_K


# ---------------------------------------------------------------------------
# needle disintegration
# ---------------------------------------------------------------------------


def box_region(p):
    return (p[..., 0] >= 0.6) & (p[..., 0] <= 1.1) & (np.abs(p[..., 1]) <= 0.2)


class TestNeedles:
    def test_flat_sector_masses(self):
        model = minkowski(((0.0, 1.5), (-1.0, 1.0)))
        dec = needle_decomposition(model, (0.0, 0.0), (-0.5, 0.5))
        assert len(dec.rays) == 64
        assert float(np.sum(dec.quotient_weights)) == pytest.approx(1.0, abs=1e-12)
        assert all(ray.density[0] == 0.0 for ray in dec.rays)
        # unweighted sector mass in polar coordinates is (b1 - b0) l_max^2 / 2
        l_max = float(dec.rays[0].tau[-1])
        assert dec.total_mass() == pytest.approx(l_max * l_max / 2.0, rel=1e-12)

    def test_box_reassembly_matches_chart_measure(self):
        model = minkowski(((0.0, 1.5), (-1.0, 1.0)))
        dec = needle_decomposition(model, (0.0, 0.0), (-0.5, 0.5))
        # the box [0.6, 1.1] x [-0.2, 0.2] sits inside the rapidity sector:
        # max |x|/t = 1/3, artanh(1/3) = 0.347 < 0.5
        exact = region_measure(model, box_region, 4096)
        assert abs(dec.reassemble(box_region) - exact) < 1e-3

    def test_weighted_chart_reassembly(self):
        model = minkowski(((0.0, 1.5), (-1.0, 1.0)), weight=lambda t: 0.3 * t)
        dec = needle_decomposition(model, (0.0, 0.0), (-0.4, 0.6))
        exact = region_measure(model, box_region, 4096)
        assert abs(dec.reassemble(box_region) - exact) < 1e-3

    def test_every_ray_is_a_cd_density(self):
        model = minkowski(((0.0, 1.5), (-1.0, 1.0)))
        dec = needle_decomposition(model, (0.0, 0.0), (-0.5, 0.5))
        results = [verify_cd_density(d) for d in dec.cd_densities()]
        assert all(r.passed for r in results)
        assert max(r.worst_violation for r in results) < 1e-9

    def test_validation(self):
        model = minkowski(((0.0, 1.5), (-1.0, 1.0)))
        with pytest.raises(UnsupportedModelError):
            needle_decomposition(cosh_warp_model(), (0.0, 0.0), (-0.5, 0.5))
        with pytest.raises(InvalidInputError):
            needle_decomposition(model, (0.0, 0.0), (0.5, -0.5))
        with pytest.raises(InvalidInputError):
            needle_decomposition(model, (0.0, 0.0), (-0.5, 0.5), l_max=5.0)
        with pytest.raises(InvalidInputError):
            needle_decomposition(model, (0.0, 0.0), (-0.5, 0.5), r=2.0)


# ---------------------------------------------------------------------------
# deficit-perturbed diameter bound
# ---------------------------------------------------------------------------


class TestAubry:
    def test_exact_floor_recovers_sharp_bound(self):
        rep = aubry_spacetime_check(desitter_like(), 1.0, 2.0, 2.0,
                                    k_fn=lambda p: np.ones(p.shape[:-1]))
        assert rep.passed
        assert rep.provenance["deficit"] == 0.0
        assert rep.provenance["status"] == "checked"
        assert len(rep.labels) == 10 and rep.labels[0] == "spacetime"
        # zero deficit on the chart and on every comoving needle
        assert np.allclose(rep.rhs, math.pi, atol=1e-12)

    def test_default_floor_from_warp(self):
        rep = aubry_spacetime_check(desitter_like(), 1.0, 2.0, 2.0)
        assert rep.passed
        assert rep.provenance["deficit"] < 1e-10
        assert rep.provenance["status"] == "checked"
        assert all(r["status"] == "checked" for r in rep.provenance["needles"])
        assert float(rep.rhs[0]) == pytest.approx(
            aubry_diameter_bound(1.0, 2.0, 2.0, rep.provenance["deficit"], 10.0))

    def test_perturbed_floor_loosens_the_bound(self):
        dip = lambda p: 1.0 - 0.05 * np.exp(-(p[..., 0] / 0.2) ** 2)
        rep = aubry_spacetime_check(desitter_like(), 1.0, 2.0, 2.0, k_fn=dip)
        assert rep.passed
        deficit = rep.provenance["deficit"]
        assert 1e-5 < deficit < 0.1
        assert float(rep.rhs[0]) > math.pi
        assert float(rep.rhs[0]) == pytest.approx(
            aubry_diameter_bound(1.0, 2.0, 2.0, deficit, 10.0))

    def test_large_deficit_is_vacuous_not_failing(self):
        rep = aubry_spacetime_check(desitter_like(), 1.0, 2.0, 2.0,
                                    k_fn=lambda p: -4.0 * np.ones(p.shape[:-1]))
        assert rep.passed
        assert rep.provenance["status"] == "hypothesis-violated"
        assert math.isinf(float(rep.rhs[0]))
        assert all(r["status"] == "hypothesis-violated"
                   for r in rep.provenance["needles"])

    def test_needs_positive_k(self):
        with pytest.raises(InvalidInputError):
            aubry_spacetime_check(desitter_like(), -1.0, 2.0, 2.0)
