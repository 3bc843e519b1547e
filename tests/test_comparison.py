"""Inequality-verifier tests: entropy contraction on flat, weighted and warped
charts, volume comparison, diameter bounds with curvature deficits, gradient
identities of the separation field, the weak wave-operator comparison, and the
radial needle disintegration. Flat scenarios are checked against closed forms;
warped ones against frozen lattice-error bands."""

import csv
import inspect
import io
import json
import math
import textwrap
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from lorentz_synth import cli
from lorentz_synth import comparison as C
from lorentz_synth import distortion as D
from lorentz_synth import models as M
from lorentz_synth import transport as TR
from lorentz_synth.comparison import (BumpFunction, aubry_spacetime_check,
                                      bishop_gromov, bonnet_myers,
                                      brenier_mccann_check, brunn_minkowski,
                                      check_tcd_semiconvexity, check_tmcp, csv_text,
                                      dalembert_check, eikonal_check, ladder_steps,
                                      make_report, needle_decomposition,
                                      voronoi_cell_masses)
from lorentz_synth.errors import InvalidInputError, UnsupportedModelError
from lorentz_synth.lipschitz_grid import metric_grid, minkowski_grid
from lorentz_synth.models import (cell_centers, cosh_warp_model, desitter_like, maximizing_path,
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
        rep = bonnet_myers(desitter_like(), 1.0, 2.0)
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
        # the rows of margins.csv, written by csv_text
        for rep in (tmcp, quoted):
            text = csv_text(("report", "label", "lhs", "rhs", "margin"),
                            ((rep.name, *row) for row in
                             zip(rep.labels, rep.lhs, rep.rhs, rep.margin)))
            assert "np.float64" not in text
            rows = list(csv.reader(io.StringIO(text)))
            assert rows[0] == ["report", "label", "lhs", "rhs", "margin"]
            assert len(rows) == 1 + len(rep.labels)
            for row, lab, m in zip(rows[1:], rep.labels, rep.margin):
                assert len(row) == 5
                assert row[:2] == [rep.name, lab]
                assert float(row[4]) == pytest.approx(float(m), abs=0.0)

    def test_worst_margin(self):
        rep = bonnet_myers(desitter_like(), 1.0, 2.0)
        assert rep.worst_margin() == float(np.min(rep.margin))

    # the step labels of the brenier, dalembert and lp-deficit runners
    @pytest.mark.parametrize("factor, label, levels, expected", [
        (0.75, "shrink:{a}->{b}", [129, 257, 513],
         ["shrink:129->257", "shrink:257->513"]),
        (1.0, "bump2:refine:{a}->{b}", [65, 129, 257],
         ["bump2:refine:65->129", "bump2:refine:129->257"]),
        (1.0, "p=2:eps={b:g}<{a:g}", [0.8, 0.5, 0.3],
         ["p=2:eps=0.5<0.8", "p=2:eps=0.3<0.5"]),
    ])
    def test_ladder_steps_hold_at_exactly_factor_times_the_last(
            self, factor, label, levels, expected):
        devs = [3.0e-3]
        for _ in levels[1:]:
            devs.append(factor * devs[-1])
        labels, lhs, rhs = ladder_steps(levels, devs, factor, label)
        assert labels == expected
        assert lhs == devs[1:]
        assert make_report("ladder", lhs, rhs, 0.0, labels, {}).passed
        # one ulp above factor * d_k fails
        devs[-1] = float(np.nextafter(devs[-1], np.inf))
        labels, lhs, rhs = ladder_steps(levels, devs, factor, label)
        rep = make_report("ladder", lhs, rhs, 0.0, labels, {})
        assert not rep.passed and rep.margin[-1] < 0.0 and rep.margin[0] == 0.0


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


    # nonnegative, as the square roots the padding takes; small sampled values
    # give ties, and infinities give the inf and inf + inf middles
    @given(values=st.lists(st.floats(min_value=0.0, allow_nan=False).map(abs)
                           | st.sampled_from([0.0, 0.5, 1.0, 3.0, math.inf]),
                           min_size=1, max_size=299))
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_padding_median_is_numpys_bit_for_bit(self, values):
        a = np.array(values)
        with np.errstate(over="ignore"):         # two middles near the top float
            assert np.float64(C._median(a)).tobytes() == np.median(a).tobytes()

    # the shapes the tcd runs take (an 8 x 8 box, 2 points at 256 on the
    # lattice chart), resolutions that are not multiples of the tile, and ties
    @pytest.mark.parametrize("case", ["box", "box-9", "random", "ties", "many-chunks",
                                      "box-8x8-256", "desitter-2", "res-1", "res-15",
                                      "res-17", "shared-coordinates"])
    def test_masses_equal_the_difference_cube(self, case):
        # per-axis distance tables against the (chunk, n, 2) cube, bit for bit
        model = minkowski(((-2.5, 2.5), (-2.0, 2.0)), weight=lambda t: 0.1 * t)
        rng = np.random.default_rng(7)
        resolution = 128
        if case in ("box", "box-8x8-256"):
            mu = uniform_on_box(((0.2, 0.6), (-0.2, 0.2)), 8)
            resolution = 256 if case == "box-8x8-256" else 128
        elif case == "box-9":
            mu, resolution = uniform_on_box(((-1.0, 1.0), (-1.5, 1.5)), 3), 97
        elif case == "desitter-2":
            model, resolution = desitter_like(x_half=0.5), 256
            mu = DiscreteMeasure(((0.6, -0.075), (0.6, 0.075)), np.full(2, 0.5))
        elif case.startswith("res-"):
            pts = tuple(map(tuple, rng.uniform(-1.0, 1.0, (23, 2))))
            mu, resolution = DiscreteMeasure(pts, np.full(23, 1.0 / 23)), int(case[4:])
        elif case == "ties":
            # a square and its centre: cells on the diagonals and the axes are
            # equidistant from two or more points
            pts = ((0.0, -0.5), (0.0, 0.5), (1.0, -0.5), (1.0, 0.5), (0.5, 0.0))
            mu, resolution = DiscreteMeasure(pts, np.full(5, 0.2)), 64
        elif case == "shared-coordinates":
            # a 2 x 2 lattice on the padded box [-0.25, 0.75] x [-0.5, 0.5]:
            # at an odd resolution the middle row and column of cells are
            # equidistant from two points (the middle cell from four), and
            # they run through every tile row and column
            pts = ((0.0, -0.25), (0.0, 0.25), (0.5, -0.25), (0.5, 0.25))
            mu, resolution = DiscreteMeasure(pts, np.full(4, 0.25)), 97
            tc, _ = cell_centers(-0.25, 0.75, resolution)
            xc, _ = cell_centers(-0.5, 0.5, resolution)
            pa = np.array(pts)
            d = (tc[:, None, None] - pa[:, 0]) ** 2 + (xc[None, :, None] - pa[:, 1]) ** 2
            tied = np.count_nonzero(d == d.min(axis=2, keepdims=True), axis=2) > 1
            assert np.count_nonzero(tied) == 2 * resolution - 1
        else:
            n = 17 if case == "random" else 300
            pts = tuple(map(tuple, rng.uniform((-2.0, -1.5), (2.0, 1.5), (n, 2))))
            mu = DiscreteMeasure(pts, np.full(n, 1.0 / n))
        if case == "many-chunks":
            # the cells span more than one bincount chunk
            assert resolution ** 2 > int(4e6) // 300
        got = voronoi_cell_masses(model, mu, resolution)
        assert got.tobytes() == oracles.voronoi_masses_cube(model, mu, resolution).tobytes()

    # points on a coarse lattice, so that many cells are equidistant from two
    # or more of them
    @given(cells=st.lists(st.tuples(st.integers(0, 11), st.integers(-5, 5)),
                          min_size=2, max_size=120, unique=True),
           resolution=st.integers(1, 160), scale=st.sampled_from([0.25, 1.0, 3.0]))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_owners_are_the_first_argmin(self, cells, resolution, scale):
        pts = np.array(cells, dtype=float) * scale
        tc, _ = cell_centers(-0.5 * scale, 11.5 * scale, resolution)
        xc, _ = cell_centers(-5.5 * scale, 5.5 * scale, resolution)
        got = C._nearest_owners(tc, xc, pts).reshape(resolution, resolution)
        dx2 = (xc[:, None] - pts[None, :, 1]) ** 2
        for i, t in enumerate(tc):
            want = np.argmin((t - pts[None, :, 0]) ** 2 + dx2, axis=1)
            assert np.array_equal(got[i], want)

    # one tile per band, 12 tiles per band, one band of all 64 tiles (the
    # padding blocks change alike)
    @pytest.mark.parametrize("block", [64, 64 * 50, 64 * 128 * 3 + 5])
    def test_masses_do_not_depend_on_the_distance_block(self, monkeypatch, block):
        model = big_flat()
        pts = tuple(map(tuple, np.random.default_rng(3).uniform(-1.0, 1.0, (64, 2))))
        mu = DiscreteMeasure(pts, np.full(64, 1.0 / 64))
        want = voronoi_cell_masses(model, mu, 128)
        monkeypatch.setattr(C, "VORONOI_BLOCK", block)
        assert voronoi_cell_masses(model, mu, 128).tobytes() == want.tobytes()

    # one-cell tiles (only tied points are candidates), ragged tiles, one
    # padded tile over the whole raster
    @pytest.mark.parametrize("tile", [1, 5, 16, 200])
    def test_masses_do_not_depend_on_the_tile(self, monkeypatch, tile):
        model = big_flat()
        pts = tuple(map(tuple, np.random.default_rng(3).uniform(-1.0, 1.0, (64, 2))))
        mu = DiscreteMeasure(pts, np.full(64, 1.0 / 64))
        monkeypatch.setattr(C, "VORONOI_TILE", tile)
        got = voronoi_cell_masses(model, mu, 128)
        assert got.tobytes() == oracles.voronoi_masses_cube(model, mu, 128).tobytes()

    def test_owner_search_holds_no_distance_block(self):
        # 2 points at 256 (lattice-tcd's shape): the owners and the cell
        # measures, 512 KB each, and not much else; a block of cell-to-point
        # distances took another 1 MB
        model = desitter_like(x_half=0.5)
        mu = DiscreteMeasure(((0.6, -0.075), (0.6, 0.075)), np.full(2, 0.5))
        voronoi_cell_masses(model, mu, 256)
        tracemalloc.start()
        try:
            voronoi_cell_masses(model, mu, 256)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * 2 ** 20

    # one point per padding block, 7 points and a ragged last block, one block
    @pytest.mark.parametrize("block", [300, 7 * 300 + 5, 2 ** 18])
    def test_padding_blocks_equal_the_difference_cube(self, monkeypatch, block):
        # the nearest-neighbour padding taken in row blocks of the support
        # against the full (n, n, 2) cube, bit for bit
        model = minkowski(((-2.5, 2.5), (-2.0, 2.0)), weight=lambda t: 0.1 * t)
        pts = tuple(map(tuple, np.random.default_rng(11).uniform((-2.0, -1.5), (2.0, 1.5),
                                                                 (300, 2))))
        mu = DiscreteMeasure(pts, np.full(300, 1.0 / 300))
        monkeypatch.setattr(C, "VORONOI_BLOCK", block)
        got = voronoi_cell_masses(model, mu, 64)
        assert got.tobytes() == oracles.voronoi_masses_cube(model, mu, 64).tobytes()

    def test_memory_stays_within_the_block_for_many_points(self):
        # the (n, n, 2) cube of 3000 points alone would take 144 MB
        pts = tuple(map(tuple, np.random.default_rng(5).uniform((0.0, -1.0), (1.0, 1.0),
                                                                (3000, 2))))
        mu = DiscreteMeasure(pts, np.full(3000, 1.0 / 3000))
        tracemalloc.start()
        try:
            masses = voronoi_cell_masses(minkowski(((0.0, 1.0), (-1.0, 1.0))), mu, 64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20
        assert float(np.sum(masses)) == pytest.approx(2.0, rel=1e-2)


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

    @given(curv=st.floats(0.0, 0.5), tilt=st.floats(-0.2, 0.2),
           slope=st.floats(-1.0, 1.0), t_o=st.floats(0.3, 0.8),
           t_mu=st.floats(-0.7, -0.3), K=st.sampled_from([-1.0, 0.0, 0.5]))
    @settings(max_examples=8, deadline=None, derandomize=True)
    def test_future_variant_is_the_past_run_on_reversed_data(self, curv, tilt, slope,
                                                             t_o, t_mu, K):
        # weighted warped chart a(t) = 1 + tilt t + curv t^2, log-density slope t
        def warp(t):
            t = np.asarray(t, float)
            return 1.0 + tilt * t + curv * t * t

        def weight(t):
            return slope * np.asarray(t, float)

        model = M.warped_product(warp, (-1.0, 1.0), (-1.0, 1.0), weight=weight)
        mu = uniform_on_box(((t_mu - 0.1, t_mu + 0.1), (-0.1, 0.1)), 2)
        kw = dict(cells_resolution=64, resolution=65, samples_per_curve=9)
        args = (K, 2.0, 0.5, (0.25, 0.5), (2.0, 3.0))
        fut = check_tmcp(model, (t_o, 0.0), mu, *args, variant="future", **kw)
        past = check_tmcp(C._time_reversed(model), (-t_o, 0.0),
                          C._reversed_measure(mu), *args, **kw)
        assert fut.labels == past.labels
        assert fut.lhs.tobytes() == past.lhs.tobytes()
        assert fut.rhs.tobytes() == past.rhs.tobytes()
        assert fut.provenance == {**past.provenance, "variant": "future"}
        # the mirror chart built from a(-t) and the weight at -t directly
        mirror = M.warped_product(lambda t: warp(-np.asarray(t, float)), (-1.0, 1.0),
                                  (-1.0, 1.0), weight=lambda t: weight(-np.asarray(t, float)))
        direct = check_tmcp(mirror, (-t_o, 0.0), C._reversed_measure(mu), *args, **kw)
        assert np.allclose(direct.lhs, fut.lhs, rtol=0.0, atol=1e-9)
        assert np.allclose(direct.rhs, fut.rhs, rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("kind", ["warped", "flat"])
    def test_future_variant_reads_the_exact_mirror_of_an_off_grid_kink(self, kind):
        # the kinks at t = 0.1 (warp) and t = 0.3 (weight) fall between the
        # nodes of a 2049- or 1025-point resample of the reversed slab; the
        # mirror chart, its apex and its measure are flipped by hand
        weight = np.array([[-1.0, 0.0], [0.3, 0.4], [1.0, -0.2]])
        mirror_weight = np.array([[-1.0, -0.2], [-0.3, 0.4], [1.0, 0.0]])
        if kind == "warped":
            model = M.warped_product(np.array([[-1.0, 1.0], [0.1, 2.0], [1.0, 1.0]]),
                                     (-1.0, 1.0), (-1.0, 1.0), weight=weight)
            mirror = M.warped_product(np.array([[-1.0, 1.0], [-0.1, 2.0], [1.0, 1.0]]),
                                      (-1.0, 1.0), (-1.0, 1.0), weight=mirror_weight)
        else:
            model = minkowski(((-1.0, 1.0), (-1.0, 1.0)), weight=weight)
            mirror = minkowski(((-1.0, 1.0), (-1.0, 1.0)), weight=mirror_weight)
        mu = uniform_on_box(((-0.7, -0.5), (-0.1, 0.1)), 2)
        mirror_mu = DiscreteMeasure(tuple((-p.t, p.x) for p in mu.support), mu.weights)
        kw = dict(cells_resolution=64, resolution=65, samples_per_curve=9)
        args = (0.0, 2.0, 0.5, (0.25, 0.5), (2.0, 3.0))
        fut = check_tmcp(model, (0.6, 0.0), mu, *args, variant="future", **kw)
        past = check_tmcp(mirror, (-0.6, 0.0), mirror_mu, *args, variant="past", **kw)
        assert fut.labels == past.labels
        assert fut.lhs.tobytes() == past.lhs.tobytes()
        assert fut.rhs.tobytes() == past.rhs.tobytes()
        assert fut.provenance == {**past.provenance, "variant": "future"}
        assert C._time_reversed(model) == mirror

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

    @pytest.mark.parametrize("K", [1.6, 2.0])
    def test_pairs_past_the_conjugate_radius(self, K):
        # the plan carries the four pairs at separation 2.399; pi / sqrt(K)
        # is 2.484 at K = 1.6, below the separations 2.49 of four pairs the
        # plan leaves empty, where tau is +inf: they add nothing (0 * inf =
        # 0) and the bound stays finite. At K = 2 (2.221) the carried pairs
        # are past it too, and every margin is -inf, as in check_tmcp
        mu0 = uniform_on_box(((-1.3, -1.1), (-0.15, 0.15)), 2)
        mu1 = uniform_on_box(((1.1, 1.3), (-0.15, 0.15)), 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = check_tcd_semiconvexity(desitter_like(), mu0, mu1, K, 2.0, 0.5, T_GRID)
        if K < 2.0:
            assert np.all(np.isfinite(rep.margin))
        else:
            assert np.all(rep.margin == -np.inf)
            assert not rep.passed

    def test_one_sine_solve_per_distinct_separation(self, monkeypatch):
        # at most one sine solve per distinct separation, and in fact none:
        # tau^{(1-t)} and tau^{(t)} come from the constant-curvature closed
        # form, with no tau_coeff call, however many distinct separations
        # the 64 x 64 matrix holds
        model = big_flat()
        mu0 = uniform_on_box(((0.2, 0.6), (-0.2, 0.2)), 8)
        mu1 = uniform_on_box(((1.6, 2.0), (-0.2, 0.2)), 8)
        distinct = len(np.unique(TR.separation_matrix(model, mu0, mu1)))
        assert 1 < distinct < 64 * 64
        calls, solves = [], []
        scalar, solve = D.tau_coeff, D._solve
        monkeypatch.setattr(D, "tau_coeff", lambda *a: calls.append(a) or scalar(*a))
        monkeypatch.setattr(D, "_solve", lambda *a: solves.append(a) or solve(*a))
        rep = check_tcd_semiconvexity(model, mu0, mu1, -1.0, 2.0, 0.5, (0.25, 0.5),
                                      cells_resolution=128)
        assert rep.passed
        assert calls == []
        assert solves == []

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

    @given(st.integers(1, 12), st.integers(1, 12),
           st.sampled_from([0.0, 0.05, 0.3, 0.8, 1.0]), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=120, deadline=None, derandomize=True)
    def test_dilation_equals_binary_dilation(self, rows, cols, density, seed):
        # densities 0 and 1 give the all-False and all-True masks; small
        # shapes put most set cells on the border
        from scipy import ndimage

        mask = np.random.default_rng(seed).random((rows, cols)) < density
        got = C._dilated(mask)
        assert got.dtype == bool
        assert np.array_equal(got, ndimage.binary_dilation(mask, np.ones((3, 3), bool)))

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

        def counted(model, shape, sources, stop=None):
            passes.append(shape)
            return dp(model, shape, sources, stop)

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
        # the diameter is the time extent pi - 2 delta, the comoving length
        assert rep.provenance["diameter"] == pytest.approx(math.pi - 0.04, abs=1e-9)
        assert float(rep.rhs[0]) == pytest.approx(math.pi, abs=1e-12)

    def test_bound_formula(self):
        rep = bonnet_myers(desitter_like(), 0.5, 3.0, tolerance=10.0)
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

    @staticmethod
    def default_run(monkeypatch, check):
        """The default ``brenier`` run (seed 0) with ``check`` as the verifier."""
        monkeypatch.setattr(cli, "brenier_mccann_check", check)
        model, params = cli._checked(cli.ExperimentConfig.from_mapping(
            {"command": "brenier"}))
        reports, _ = cli.COMMANDS["brenier"].runner(model, params, 0)
        return reports[0]

    @staticmethod
    def mutant(line, replacement):
        """brenier_mccann_check with one source line replaced."""
        source = textwrap.dedent(inspect.getsource(C.brenier_mccann_check))
        assert line in source
        namespace = dict(vars(C))
        exec(compile(source.replace(line, replacement), C.__file__, "exec"), namespace)
        return namespace["brenier_mccann_check"]

    def test_default_run_passes_and_the_target_exponent_mutant_fails(self, monkeypatch):
        assert self.default_run(monkeypatch, brenier_mccann_check).passed
        line = "targets = seps[carrying] ** (q - 1.0)"
        mutant = self.mutant(line, line.replace("(q - 1.0)", "q"))
        rep = self.default_run(monkeypatch, mutant)
        assert not rep.passed
        # the identity itself fails, not only the shrink step
        assert min(m for lab, m in zip(rep.labels, rep.margin)
                   if lab.startswith("res=")) < 0.0

    def test_endpoint_moved_by_one_cell(self, monkeypatch, record_property):
        # reported, not gated: a one-cell shift moves the measured side by
        # about |d_t l^(q-1)| h, well inside the 10 * spacing allowance
        line = "ends = mu1.points()[carrying]"
        mutant = self.mutant(line, line + " + [ts[1] - ts[0], 0.0]")
        rep = self.default_run(monkeypatch, mutant)
        record_property("one_cell_shift_caught", not rep.passed)
        print(f"endpoint moved by one cell in t: caught={not rep.passed}, "
              f"worst margin {rep.worst_margin():.3e}")

    @pytest.mark.parametrize("model, o, pts", [
        (minkowski(((-0.5, 2.5), (-1.0, 1.0))), (0.0, 0.0),
         ((1.2, 0.1), (1.5, -0.2), (1.0, 0.3))),
        (cosh_warp_model(), (-0.8, 0.0), ((0.4, 0.1), (0.6, -0.2), (0.5, 0.2)))],
        ids=["flat", "lattice"])
    def test_one_separation_call(self, monkeypatch, model, o, pts):
        calls = []
        original = M.time_separations

        def counted(*args, **kwargs):
            calls.append(args[0].kind)
            return original(*args, **kwargs)

        for module in (M, C, TR):
            monkeypatch.setattr(module, "time_separations", counted)
        mu1 = DiscreteMeasure(pts, np.full(3, 1.0 / 3.0))
        rep = brenier_mccann_check(model, o, mu1, 0.5, resolution=129)
        assert len(rep.lhs) == 3
        assert calls == [model.kind]


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
