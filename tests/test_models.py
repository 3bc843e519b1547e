"""Model spacetimes: lattice time separation, geodesics, measures, diameters."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from lorentz_synth import models as M
from lorentz_synth.errors import InvalidInputError, NoGeodesicError
from lorentz_synth.extreal import NEG_INF, is_neg_inf
from lorentz_synth.models import _lattice_axes, _lattice_shape

from oracles import (backtrack_per_jump, ball_volume_rasters, dp_longest_loop,
                     edge_table_per_jump, lattice_path_per_jump, minkowski_l,
                     time_separation_pairwise, warped_l_shooting)

ARCTANH_06 = 0.6931471805599453  # artanh(0.6), frozen


def flat_slab():
    return M.lipschitz_1p1(lambda t: np.ones_like(t), (0.0, 1.0), (-1.0, 1.0))


def node_grid(model, resolution=257):
    return _lattice_axes(model, _lattice_shape(model, resolution))


class TestMinkowski:
    def test_closed_form_examples(self):
        mk = M.minkowski(((0.0, 2.0), (-2.0, 2.0)))
        l_o = M.lorentz_distance(mk, (0.0, 0.0))
        assert l_o((2.0, 1.0)) == pytest.approx(math.sqrt(3.0), abs=1e-12)
        assert l_o((0.0, 0.0)) == 0.0
        assert l_o((1.0, 0.0)) == 1.0

    def test_non_causal_pairs_get_the_sentinel(self):
        mk = M.minkowski(((0.0, 2.0), (-2.0, 2.0)))
        assert is_neg_inf(M.time_separation(mk, (0.0, 0.0), (0.1, 0.5)))
        assert is_neg_inf(M.time_separation(mk, (1.0, 0.0), (0.0, 0.0)))
        # on the null cone: causal but not chronological
        assert M.time_separation(mk, (0.0, 0.0), (1.0, 1.0)) == 0.0

    def test_chart_membership_is_enforced(self):
        mk = M.minkowski(((0.0, 1.0), (-1.0, 1.0)))
        with pytest.raises(InvalidInputError):
            M.time_separation(mk, (0.0, 0.0), (5.0, 0.0))
        with pytest.raises(InvalidInputError):
            M.time_separation(mk, (0.0, 0.0, 0.0), (0.5, 0.0))

    def test_higher_dimensional_chart(self):
        mk = M.minkowski(((0.0, 1.0), (-1.0, 1.0), (-1.0, 1.0)), )
        got = M.time_separation(mk, (0.0, 0.0, 0.0), (1.0, 0.3, 0.4))
        assert got == pytest.approx(math.sqrt(1.0 - 0.25), abs=1e-12)

    def test_reverse_triangle_on_random_triples(self):
        rng = np.random.default_rng(41)
        mk = M.minkowski(((0.0, 3.0), (-3.0, 3.0)))
        checked = 0
        while checked < 200:
            x = rng.uniform((0.0, -1.0), (1.0, 1.0))
            y = x + rng.uniform((0.1, -0.5), (1.0, 0.5))
            z = y + rng.uniform((0.1, -0.5), (1.0, 0.5))
            lxy = M.time_separation(mk, x, y)
            lyz = M.time_separation(mk, y, z)
            if lxy <= 0.0 or lyz <= 0.0:
                continue
            assert M.time_separation(mk, x, z) >= lxy + lyz - 1e-12
            checked += 1


class TestLatticeSeparation:
    def test_flat_coefficients_recover_the_closed_form(self):
        # a(t) = 1 makes the lattice value comparable against the flat formula;
        # node-aligned pairs with |slope| <= 0.8 keep clear of the fan's
        # worsening resolution near the null cone
        fl = flat_slab()
        ts, xs = node_grid(fl)
        rng = np.random.default_rng(3)
        for _ in range(8):
            i0, i1 = rng.integers(0, 50), rng.integers(200, 257)
            j0 = int(rng.integers(120, 392))
            jmax = int(0.8 * (ts[i1] - ts[i0]) / (xs[1] - xs[0]))
            j1 = int(np.clip(j0 + rng.integers(-jmax, jmax + 1), 0, len(xs) - 1))
            a, b = (ts[i0], xs[j0]), (ts[i1], xs[j1])
            assert M.time_separation(fl, a, b) == pytest.approx(
                minkowski_l(a, b), abs=1e-3)

    def test_cosh_warp_against_shooting_oracle(self):
        cw = M.cosh_warp_model()
        ts, xs = node_grid(cw)
        rng = np.random.default_rng(11)
        pairs = 0
        for _ in range(4):
            i0, j0 = int(rng.integers(0, 50)), int(rng.integers(64, 192))
            src = (ts[i0], xs[j0])
            for _ in range(5):
                i1 = int(rng.integers(200, 257))
                jmax = int(0.6 * (ts[i1] - ts[i0]) / (xs[1] - xs[0]))
                j1 = int(np.clip(j0 + rng.integers(-jmax, jmax + 1), 0, len(xs) - 1))
                dst = (ts[i1], xs[j1])
                want = warped_l_shooting(np.cosh, src, dst)
                assert M.time_separation(cw, src, dst) == pytest.approx(want, abs=2e-3)
                pairs += 1
        assert pairs == 20

    def test_spacelike_pair_gets_the_sentinel(self):
        cw = M.cosh_warp_model()
        assert is_neg_inf(M.time_separation(cw, (0.0, -1.1), (0.1, 1.1)))

    def test_reverse_triangle_is_exact_on_one_lattice(self):
        # a concatenation of maximizing paths through y is itself a candidate
        # path from x to z, so the raw single-grid values obey the inequality
        # up to float accumulation only
        cw = M.cosh_warp_model()
        shape = _lattice_shape(cw, 257)
        rng = np.random.default_rng(5)
        for _ in range(6):
            i = np.sort(rng.choice(np.arange(0, 257, 8), 3, replace=False))
            j = rng.integers(96, 160, 3)
            x, y, z = ((int(a), int(b)) for a, b in zip(i, j))
            _, _, (from_x, from_y) = M._dp_longest(cw, shape, [x, y])
            lxy, lyz, lxz = from_x[y], from_y[z], from_x[z]
            if lxy > 0.0 and lyz > 0.0:
                assert lxz >= lxy + lyz - 1e-9

    def test_refinement_is_monotone_and_cauchy(self):
        # the raw longest-path values of one pair on three nested lattices
        cw = M.cosh_warp_model()
        ts, xs = node_grid(cw, 129)
        pair = [M.event(ts[8], xs[40]), M.event(ts[120], xs[80])]
        vals = []
        for n in (129, 257, 513):
            shape = _lattice_shape(cw, n)
            source, target = (M._snap(*_lattice_axes(cw, shape), p) for p in pair)
            vals.append(M._dp_longest(cw, shape, [source])[2][0][target])
        assert vals[0] <= vals[1] + 1e-12
        assert vals[1] <= vals[2] + 1e-12
        assert abs(vals[2] - vals[1]) <= 1e-3


class TestGeodesics:
    def test_flat_midpoint(self):
        mk = M.minkowski(((0.0, 2.0), (-2.0, 2.0)))
        g = M.geodesic_point(mk, (0.0, 0.0), (2.0, 1.0), 0.5)
        assert g.coords == pytest.approx((1.0, 0.5), abs=1e-14)

    def test_flat_spacelike_pair_has_no_geodesic(self):
        mk = M.minkowski(((0.0, 2.0), (-2.0, 2.0)))
        with pytest.raises(NoGeodesicError):
            M.geodesic_point(mk, (0.0, 0.0), (0.5, 1.0), 0.5)
        with pytest.raises(InvalidInputError):
            M.geodesic_point(mk, (0.0, 0.0), (2.0, 1.0), 1.5)

    def test_affine_parametrization_on_the_lattice(self):
        cw = M.cosh_warp_model()
        x, y = (-1.0, -0.3), (1.0, 0.45)
        l = M.time_separation(cw, x, y)
        for t in (0.25, 0.5, 0.75):
            g = M.geodesic_point(cw, x, y, t, resolution=257)
            assert M.time_separation(cw, x, g.coords) == pytest.approx(
                t * l, abs=2e-2)

    def test_focusing_kink_maximizer_passes_through_the_centre(self):
        # the continuum maximizer is unique (the length integrand is strictly
        # concave in dx/dt) and, by point symmetry, passes through (0, 0);
        # lattice paths tie near it
        dc = M.double_cone_kink()
        path = M.maximizing_path(dc, (-1.0, -0.6), (1.0, 0.6), resolution=257)
        assert np.max(np.abs(path.nodes[1:-1, 1])) < 0.6
        assert np.any(np.all(path.nodes == 0.0, axis=1))
        ws = dc.warp_samples
        want = warped_l_shooting(lambda t: float(np.interp(t, ws[:, 0], ws[:, 1])),
                                 (-1.0, -0.6), (1.0, 0.6))
        assert path.length == pytest.approx(want, abs=5e-3)

    def test_comoving_pair_has_a_unique_maximizer(self):
        dc = M.double_cone_kink()
        path = M.maximizing_path(dc, (-1.0, 0.0), (1.0, 0.0), resolution=257)
        assert np.all(path.nodes[:, 1] == 0.0)
        assert path.length == pytest.approx(2.0, abs=1e-9)

    def test_lattice_rejects_non_chronological_pairs(self):
        dc = M.double_cone_kink()
        with pytest.raises(NoGeodesicError):
            M.maximizing_path(dc, (0.0, -0.9), (0.05, 0.9), resolution=129)


LATTICE_MODELS = {"desitter": M.desitter_like(), "kinked": M.kinked_slab()}


class TestStackedFields:
    """The stacked longest-path DP against the one-source loop, and the
    batched separations against the one-pair rules in the oracles, bit for
    bit."""

    @pytest.mark.parametrize("name", sorted(LATTICE_MODELS))
    @given(data=st.data())
    @settings(max_examples=12, deadline=None, derandomize=True)
    def test_stacked_fields_equal_per_source_loops(self, name, data):
        model = LATTICE_MODELS[name]
        shape = _lattice_shape(model, 33)
        rows = data.draw(st.lists(st.integers(0, shape[0] - 1), min_size=2,
                                  max_size=4, unique=True))
        sources = [(i, data.draw(st.integers(0, shape[1] - 1))) for i in rows]
        ts, xs, stacked = M._dp_longest(model, shape, sources)
        _, _, W = M._edge_table(model, shape)
        assert stacked.shape == (len(sources),) + shape
        for field, source in zip(stacked, sources):
            want = dp_longest_loop(W, M._FAN, *shape, source)
            assert np.array_equal(field, want)
            assert np.array_equal(M._dp_longest(model, shape, [source])[2][0], want)

    @pytest.mark.parametrize("name", sorted(LATTICE_MODELS))
    @pytest.mark.parametrize("budget", [M.STACK_BUDGET_BYTES, 1],
                             ids=["one-stack", "one-source-chunks"])
    @given(data=st.data())
    @settings(max_examples=6, deadline=None, derandomize=True)
    def test_batched_matrix_equals_pairwise(self, name, budget, data):
        model = LATTICE_MODELS[name]
        ts, xs = node_grid(model, 33)
        point = st.tuples(st.floats(float(ts[0]), float(ts[-1])),
                          st.floats(float(xs[0]), float(xs[-1])))
        i = data.draw(st.integers(1, len(ts) - 2))
        j = data.draw(st.integers(0, len(xs) - 2))
        node = (ts[i], xs[j])
        sources = [node] + data.draw(st.lists(point, min_size=0, max_size=2))
        targets = data.draw(st.lists(point, min_size=1, max_size=3))
        targets += [node,                                       # coincident
                    (ts[i], xs[j] + 0.2 * (xs[1] - xs[0])),     # same node
                    (ts[0], xs[-1]),                            # not causal
                    (ts[-1], xs[-1])]
        # causally related, but no lattice path at either level
        sources.append((ts[0], xs[17]))
        targets.append((ts[1], xs[20]))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(M, "STACK_BUDGET_BYTES", budget)
            got = M.time_separations(model, sources, targets, resolution=33)
        want = np.array([[time_separation_pairwise(model, x, y, resolution=33)
                          for y in targets] for x in sources])
        assert np.array_equal(got, want)
        assert M.time_separation(model, sources[0], targets[0], 33) == want[0, 0]
        n = len(targets)
        assert got[0, n - 5] == 0.0 and got[0, n - 4] == 0.0
        assert got[0, n - 3] == NEG_INF
        if name == "desitter":
            assert got[-1, -1] == 0.0
            assert M.causally_related(model, M.event(ts[0], xs[17]),
                                      M.event(ts[1], xs[20]))

    def test_lattice_tcd_runs_three_stacked_passes(self, monkeypatch):
        # one separation matrix at 129 rows (plus its 257-row refinement),
        # reused by the plan and its dualizability check, and one 513-row
        # field for the geodesics of both sources
        from lorentz_synth.comparison import check_tcd_semiconvexity
        from lorentz_synth.transport import DiscreteMeasure

        passes = []
        dp = M._dp_longest

        def counted(model, shape, sources):
            passes.append((shape[0], None if sources is None else len(sources)))
            return dp(model, shape, sources)

        monkeypatch.setattr(M, "_dp_longest", counted)
        half = np.array([0.5, 0.5])
        mu0 = DiscreteMeasure(((0.6, -0.075), (0.6, 0.075)), half)
        mu1 = DiscreteMeasure(((1.2, -0.075), (1.2, 0.075)), half)
        rep = check_tcd_semiconvexity(M.desitter_like(x_half=0.5), mu0, mu1,
                                      1.0, 2.0, 0.5, (0.25, 0.5, 0.75),
                                      tolerance=1e-2, resolution=129)
        assert rep.passed
        assert passes == [(129, 2), (257, 2), (513, 2)]


EDGE_MODELS = {"desitter": M.desitter_like, "cosh": M.cosh_warp_model,
               "kinked": M.kinked_slab, "double-cone": M.double_cone_kink}


def assert_same_path(got, want):
    assert got.nodes.tobytes() == want.nodes.tobytes()
    assert got.cumlen.tobytes() == want.cumlen.tobytes()
    assert got.length == want.length


class TestBatchedLatticeSteps:
    """The edge table grouped by time step, the gathered backtrack and the
    null reaches shared by row pairs, against the per-jump and per-pair
    loops in the oracles, bit for bit."""

    @pytest.mark.parametrize("name", sorted(EDGE_MODELS))
    @pytest.mark.parametrize("resolution", [65, 129, 257])
    @pytest.mark.parametrize("fine", [False, True], ids=["coarse", "fine"])
    def test_edge_table_equals_the_per_jump_loop(self, name, resolution, fine):
        model = EDGE_MODELS[name]()
        shape = _lattice_shape(model, resolution)
        if fine:
            shape = M._fine_shape(shape)
        got = M._edge_table(model, shape)
        want = edge_table_per_jump(model, shape)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    @given(data=st.data())
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_backtracks_equal_the_per_jump_loop(self, data):
        knots = data.draw(st.lists(st.floats(0.3, 3.0), min_size=2, max_size=6))
        warp = np.column_stack([np.linspace(-1.0, 1.0, len(knots)), knots])
        model = M.lipschitz_1p1(warp, (-1.0, 1.0), (-1.0, 1.0))
        # 5 rows: fewer than the fan's longest time step
        shape = _lattice_shape(model, data.draw(st.sampled_from([5, 17, 33, 65])))
        ts, xs, W = M._edge_table(model, shape)
        assert W.tobytes() == edge_table_per_jump(model, shape)[2].tobytes()
        source = (data.draw(st.integers(0, shape[0] - 2)),
                  data.draw(st.integers(0, shape[1] - 1)))
        _, _, (dist,) = M._dp_longest(model, shape, [source])
        reached = np.argwhere(dist > 0.0)
        assume(len(reached) > 0)
        target = tuple(int(c) for c in reached[data.draw(st.integers(0, len(reached) - 1))])
        into = M._jumps_into(W, dist, source, target)
        path, weights = M._backtrack(into, dist, source, target)
        assert path == backtrack_per_jump(ts, xs, W, dist, source, target)
        assert len(weights) == len(path) - 1
        assert_same_path(M._lattice_path(ts, xs, W, dist, source, target),
                         lattice_path_per_jump(ts, xs, W, dist, source, target))

    @pytest.mark.parametrize("pair", [
        ((-1.0, -0.6), (1.0, 0.6)),
        ((-1.0, 0.0), (1.0, 0.0)),
        ((-0.5, 0.1), (0.7, -0.4)),
    ], ids=["mirror-maximizers", "comoving", "oblique"])
    def test_paths_on_the_focusing_kink_equal_the_per_jump_loop(self, pair):
        model = M.double_cone_kink()
        ts, xs, W = M._edge_table(model, _lattice_shape(model, 257))
        source, target = (M._snap(ts, xs, M.as_event(p)) for p in pair)
        _, _, (dist,) = M._dp_longest(model, _lattice_shape(model, 257), [source])
        got = M.maximizing_path(model, *pair, resolution=257)
        assert_same_path(got, lattice_path_per_jump(ts, xs, W, dist, source, target))

    def test_null_reach_once_per_row_pair(self):
        # 24 pairs on two source rows and three target rows: four row pairs
        # with the target row at or above the source row
        model = M.desitter_like()
        ts, xs = node_grid(model, 33)
        sources = [(ts[i], xs[j]) for i in (3, 8) for j in (5, 12)]
        targets = [(ts[i], xs[j]) for i in (2, 8, 20) for j in (2, 14)]
        calls = []
        reach = M._null_reach
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(M, "_null_reach",
                          lambda m, a, b: calls.append((a, b)) or reach(m, a, b))
            got = M.time_separations(model, sources, targets, resolution=33)
        assert sorted(calls) == [(ts[a], ts[b]) for a, b in ((3, 8), (3, 20), (8, 8), (8, 20))]
        want = np.array([[time_separation_pairwise(model, x, y, resolution=33)
                          for y in targets] for x in sources])
        assert np.array_equal(got, want)
        assert np.sum(got == NEG_INF) >= 4 and np.sum(got > 0.0) >= 4


class TestOneSeparation:
    """The flat closed form, the Richardson step and the distance field give
    the values of time_separation(s), bit for bit."""

    def test_flat_field_equals_time_separation_at_every_node(self):
        # the default eikonal chart at resolution 129: besides the origin,
        # 128 nodes sit on the null cone |x| = t, where both give 0
        mk = M.minkowski(((0.0, 2.0), (-1.0, 1.0)))
        ts, xs, field = M.lorentz_distance_field(mk, (0.0, 0.0), 129)
        nodes = M._node_grid(ts, xs)
        want = M.time_separations(mk, [(0.0, 0.0)], nodes.reshape(-1, 2))[0]
        assert np.array_equal(field, want.reshape(field.shape))
        null = np.abs(nodes[..., 1]) == nodes[..., 0]
        assert np.sum(null) == 129 and np.all(field[null] == 0.0)
        assert np.all(field[nodes[..., 0] < np.abs(nodes[..., 1])] == NEG_INF)

    @given(data=st.data())
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_flat_matrix_equals_the_oracle(self, data):
        # dyadic coordinates keep the differences exact, so the null pairs
        # are null in floating point too
        mk = M.minkowski(((-2.0, 2.0), (-2.0, 2.0)))
        coord = st.integers(-32, 32).map(lambda k: k / 64)
        step = st.integers(1, 48).map(lambda k: k / 64)
        x = (data.draw(coord), data.draw(coord))
        h, w = data.draw(step), data.draw(step)
        offsets = [(0.0, 0.0),                        # coincident
                   (h, h), (h, -h),                   # null
                   (-h, 0.0), (-h, w),                # past
                   (0.0, w), (h, h + w),              # spacelike
                   (h + w, h), (h + w, -h)]           # timelike
        targets = [(x[0] + a, x[1] + b) for a, b in offsets]
        targets.append((data.draw(st.floats(-2.0, 2.0)), data.draw(st.floats(-2.0, 2.0))))
        sources = [x, (data.draw(coord), data.draw(coord))]
        got = M.time_separations(mk, sources, targets)
        want = np.array([[minkowski_l(a, b) for b in targets] for a in sources])
        assert np.array_equal(got, want)
        assert list(got[0, :3]) == [0.0, 0.0, 0.0]
        assert np.all(got[0, 3:7] == NEG_INF) and np.all(got[0, 7:9] > 0.0)

    @pytest.mark.parametrize("kind", ["flat", "lattice"])
    @pytest.mark.parametrize("as_array", [False, True], ids=["events", "array"])
    @pytest.mark.parametrize("case", ["nan-source", "outside-target", "wrong-dim",
                                      "source-first", "tolerance"])
    def test_chart_membership_is_checked_on_arrays(self, case, as_array, kind):
        # the (n, dim) check raises what require_inside raises for the first
        # offending point, sources before targets
        model = (M.minkowski(((0.0, 2.0), (-1.0, 1.0))) if kind == "flat"
                 else M.cosh_warp_model())
        (t0, t1), (x0, x1) = model.bounds
        good = [(t0 + 0.1, 0.0), (t0 + 0.2, 0.1)]
        later = [(t1 - 0.1, 0.0), (t1 - 0.2, -0.1)]
        sources, targets, message = {
            "nan-source": (good + [(math.nan, 0.0)], later,
                           f"event {(math.nan, 0.0)} outside the chart"),
            "outside-target": (good, later + [(t1, x1 + 0.5), (t1 + 1.0, 0.0)],
                               f"event {(t1, x1 + 0.5)} outside the chart"),
            "wrong-dim": (good, later[:1] + [(t1 - 0.1, 0.0, 0.0)],
                          "event dimension mismatch"),
            "source-first": (good + [(t0 - 1.0, 0.0)], [(t1, 0.0, 0.0)],
                             f"event {(t0 - 1.0, 0.0)} outside the chart"),
            "tolerance": (good, [(t1 + 5e-10, x0 - 5e-10), (t1 + 2e-9, 0.0)],
                          f"event {(t1 + 2e-9, 0.0)} outside the chart"),
        }[case]
        with pytest.raises(InvalidInputError) as old:
            model.require_inside(*map(M.as_event, sources), *map(M.as_event, targets))
        assert str(old.value) == message
        if as_array and case != "wrong-dim":
            sources, targets = np.array(sources), np.array(targets)
        with pytest.raises(InvalidInputError) as new:
            M.time_separations(model, sources, targets, resolution=33)
        assert str(new.value) == message

    def test_whole_array_of_the_wrong_dimension(self):
        mk = M.minkowski(((0.0, 2.0), (-1.0, 1.0), (-1.0, 1.0)))
        with pytest.raises(InvalidInputError, match="event dimension mismatch"):
            M.time_separations(mk, np.zeros((3, 2)), np.ones((2, 3)))
        got = M.time_separations(mk, np.zeros((0, 2)), np.ones((2, 3)))
        assert got.shape == (0, 2)

    @pytest.mark.parametrize("resolution", [65, 129])
    @pytest.mark.parametrize("name", ["cosh", "desitter", "double-cone", "kinked"])
    def test_pair_values_read_the_field_at_fine_nodes(self, name, resolution):
        # both read one Richardson rule: a chronological pair's value is the
        # field of its source at the fine node (2i, 2j) of the snapped target
        model = {"cosh": M.cosh_warp_model(), "desitter": M.desitter_like(),
                 "double-cone": M.double_cone_kink(), "kinked": M.kinked_slab()}[name]
        (t0, t1), (x0, x1) = model.bounds
        rng = np.random.default_rng(19)
        sources = np.column_stack([rng.uniform(t0, t0 + 0.4 * (t1 - t0), 3),
                                   rng.uniform(0.5 * x0, 0.5 * x1, 3)])
        targets = np.column_stack([rng.uniform(t0, t1, 40), rng.uniform(x0, x1, 40)])
        got = M.time_separations(model, sources, targets, resolution)
        ts, xs = node_grid(model, resolution)
        checked = 0
        for source, row in zip(sources, got):
            _, _, field = M.lorentz_distance_field(model, source, resolution)
            for y, value in zip(targets, row):
                if value > 0.0:
                    i, j = M._snap(ts, xs, M.as_event(y))
                    assert value == field[2 * i, 2 * j]
                    checked += 1
        assert checked >= 20


class TestMeasures:
    def region_all(self, p):
        return np.ones(p.shape[:-1], dtype=bool)

    def test_flat_unit_square(self):
        mk = M.minkowski(((0.0, 1.0), (0.0, 1.0)))
        assert M.region_measure(mk, self.region_all, resolution=256) == pytest.approx(1.0, abs=1e-12)

    def test_constant_warp_scales_the_density(self):
        w2 = M.lipschitz_1p1(lambda t: 2.0 * np.ones_like(t), (0.0, 1.0), (0.0, 1.0))
        assert M.region_measure(w2, self.region_all, resolution=256) == pytest.approx(2.0, abs=1e-12)

    def test_log2_weight_halves_measures(self):
        mk = M.minkowski(((0.0, 1.0), (0.0, 1.0)),
                         weight=lambda t: math.log(2.0) * np.ones_like(t))
        assert M.region_measure(mk, self.region_all, resolution=256) == pytest.approx(0.5, abs=1e-12)

    def test_additive_over_disjoint_regions(self):
        cw = M.cosh_warp_model()
        left = lambda p: p[..., 1] < 0.2
        right = lambda p: p[..., 1] >= 0.2
        whole = M.region_measure(cw, self.region_all, resolution=512)
        split = (M.region_measure(cw, left, resolution=512)
                 + M.region_measure(cw, right, resolution=512))
        assert split == pytest.approx(whole, abs=1e-12)


class TestBallVolumes:
    @staticmethod
    def wedge_diamond(p):
        t, x = p[..., 0], p[..., 1]
        return (np.abs(x) <= 0.6 * t) & (t + np.abs(x) <= 0.9)

    def test_flat_ball_volume_grows_quadratically(self):
        # within the rapidity wedge |x| <= 0.6 t the sublevels {l_o <= r} have
        # measure artanh(0.6) r^2 until the diamond truncation bites
        mk = M.minkowski(((0.0, 1.0), (-1.0, 1.0)))
        vols = []
        for r in (0.2, 0.3, 0.4):
            v, s_area = M.ball_volume_area(mk, (0.0, 0.0), r, self.wedge_diamond,
                                           resolution=1024)
            assert v / r ** 2 == pytest.approx(ARCTANH_06, rel=5e-3)
            assert s_area >= 0.0
            vols.append(v)
        assert vols == sorted(vols)

    def test_rejects_nonpositive_radius(self):
        mk = M.minkowski(((0.0, 1.0), (-1.0, 1.0)))
        with pytest.raises(InvalidInputError):
            M.ball_volume_area(mk, (0.0, 0.0), 0.0, self.wedge_diamond)

    def test_rejects_region_not_star_shaped_about_the_apex(self):
        mk = M.minkowski(((0.0, 1.0), (-1.0, 1.0)))

        def shell(p):
            t, x = p[..., 0], p[..., 1]
            l2 = t * t - x * x
            return (t > 0) & (l2 >= 0.09) & (l2 <= 0.25)

        with pytest.raises(InvalidInputError):
            M.ball_volume_area(mk, (0.0, 0.0), 0.4, shell)

    @pytest.mark.parametrize("name, resolution", [("flat", 1500), ("cosh", 512)])
    def test_one_field_volumes_equal_the_per_radius_rasters(self, name, resolution):
        # 1500 raster rows run in two chunks of the shared raster loop
        model = {"flat": M.minkowski(((0.0, 1.0), (-1.0, 1.0))),
                 "cosh": M.cosh_warp_model()}[name]
        o = (model.bounds[0][0] + 0.1, 0.0)
        cone = lambda p: np.abs(p[..., 1] - o[1]) <= 0.6 * (p[..., 0] - o[0])
        radii = (0.2, 0.35, 0.5, 0.65)
        vols, areas = M.ball_volumes_areas(model, o, radii, cone, 0.01, resolution)
        want = [ball_volume_rasters(model, o, r, cone, 0.01, resolution) for r in radii]
        assert vols == [v for v, _ in want]
        assert areas == [s for _, s in want]
        assert M.ball_volume_area(model, o, 0.5, cone, 0.01, resolution) == want[2]
        assert 0.0 < vols[0] < vols[-1]

    def test_lattice_kind_ball_volume(self):
        # a = 1 slab: the lattice distance field must reproduce the flat v(r)
        fl = flat_slab()
        v, _ = M.ball_volume_area(fl, (0.0, 0.0), 0.3, self.wedge_diamond,
                                  resolution=512)
        assert v == pytest.approx(ARCTANH_06 * 0.09, rel=2e-2)


class TestDiameter:
    def test_flat_slab_diameter_is_the_height(self):
        mk = M.minkowski(((0.0, 2.0), (-1.0, 1.0)))
        assert M.timelike_diameter(mk) == pytest.approx(2.0, abs=1e-12)

    def test_positive_curvature_slab_diameter(self):
        ds = M.desitter_like(0.02)
        d = M.timelike_diameter(ds, resolution=257)
        assert math.pi - 0.1 <= d <= math.pi + 0.05

    def test_diameter_monotone_in_the_slab(self):
        small = M.warped_product(np.cosh, (-0.8, 0.8), (-1.0, 1.0))
        large = M.warped_product(np.cosh, (-1.2, 1.2), (-1.0, 1.0))
        d_small = M.timelike_diameter(small, resolution=129)
        d_large = M.timelike_diameter(large, resolution=129)
        assert d_small <= d_large + 1e-12


class TestConstruction:
    def test_json_roundtrip(self):
        cw = M.warped_product(np.cosh, (-1.2, 1.2), (-1.2, 1.2),
                              weight=lambda t: 0.1 * t)
        assert M.ModelSpacetime.from_json(cw.to_json()) == cw
        kk = M.kinked_slab()
        assert '"a"' in kk.to_json()
        assert M.ModelSpacetime.from_json(kk.to_json()) == kk

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            M.ModelSpacetime(2, "schwarzschild", ((0, 1), (0, 1)))
        with pytest.raises(InvalidInputError):
            M.minkowski(((0.0, 1.0),))
        with pytest.raises(InvalidInputError):
            M.lipschitz_1p1(lambda t: np.zeros_like(t), (0, 1), (0, 1))
        with pytest.raises(InvalidInputError):
            M.desitter_like(0.0)

    def test_lipschitz_bound_reports_the_warp_slope(self):
        kk = M.kinked_slab(slope=0.25)
        assert kk.lipschitz_bound() == pytest.approx(0.25, abs=1e-6)
