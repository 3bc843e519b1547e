"""Transport tests: LP values against brute-force vertex enumeration, plan
certification, dynamical couplings and their push-forwards, Renyi entropy."""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from lorentz_synth import transport
from lorentz_synth.errors import InvalidInputError, NoGeodesicError
from lorentz_synth.extreal import NEG_INF, is_neg_inf
from lorentz_synth.models import cosh_warp_model, minkowski
from lorentz_synth.transport import (Coupling, DiscreteMeasure,
                                     DynamicalCoupling, dirac,
                                     dynamical_coupling, eval_pushforward,
                                     _optimal_plan, is_timelike_q_dualizable,
                                     lq_distance,
                                     renyi_entropy, separation_matrix,
                                     uniform_on_box, verify_q_geodesic)

from oracles import lq_bruteforce_vertices, lq_plan_dense, minkowski_l

# frozen from tests/oracles.py (permutation and spanning-tree enumerations)
LQ33_EQUAL = 1.929621696174356       # 3x3 equal weights, q = 1/2
LQ34_MIXED = 1.6992980844632781      # 3x4 mixed weights, one spacelike pair
PRODUCT_VAL = 1.091567810858469      # (sum l_o^q nu)^(1/q) for the delta_o case

XS3 = ((-1.0, 0.0), (-0.8, 0.3), (-0.9, -0.4))
YS3 = ((1.0, 0.2), (1.2, -0.3), (0.9, 0.0))
XS34 = ((-1.0, 0.0), (-0.5, 0.8), (-0.7, -0.6))
MU34_W = (0.5, 0.3, 0.2)
YS34 = ((0.8, 0.1), (1.1, -0.5), (0.6, 0.9), (1.3, 0.4))
NU34_W = (0.25, 0.25, 0.25, 0.25)


def flat():
    return minkowski(((-2.0, 2.0), (-2.0, 2.0)))


def measure(points, weights=None):
    n = len(points)
    w = np.full(n, 1.0 / n) if weights is None else np.asarray(weights, float)
    return DiscreteMeasure(tuple(points), w)


class TestDiscreteMeasure:
    def test_validation(self):
        with pytest.raises(InvalidInputError):
            measure([(0.0, 0.0), (1.0, 0.0)], [0.7, 0.7])
        with pytest.raises(InvalidInputError):
            measure([(0.0, 0.0), (1.0, 0.0)], [1.3, -0.3])
        with pytest.raises(InvalidInputError):
            measure([(0.0, 0.0), (0.0, 0.0)])
        with pytest.raises(InvalidInputError):
            DiscreteMeasure(((0.0, 0.0),), np.array([0.5, 0.5]))

    def test_uniform_on_box_midpoints(self):
        nu = uniform_on_box(((0.0, 1.0), (0.0, 2.0)), 2)
        assert len(nu) == 4
        assert np.allclose(sorted(p.t for p in nu.support), [0.25, 0.25, 0.75, 0.75])
        assert np.allclose(sorted(p.x for p in nu.support), [0.5, 0.5, 1.5, 1.5])
        assert np.allclose(nu.weights, 0.25)

    def test_json_roundtrip(self):
        mu = measure(XS3, (0.5, 0.25, 0.25))
        back = DiscreteMeasure.from_json(mu.to_json())
        assert back.support == mu.support
        assert np.array_equal(back.weights, mu.weights)

    def test_coupling_roundtrip_and_validation(self):
        mu = measure([(-1.0, 0.0)])
        nu = measure(YS3)
        plan = Coupling(mu, nu, np.full((1, 3), 1.0 / 3.0))
        back = Coupling.from_json(plan.to_json())
        assert np.array_equal(back.matrix, plan.matrix)
        with pytest.raises(InvalidInputError):
            Coupling(mu, nu, np.full((1, 3), 0.5))   # marginals off
        with pytest.raises(InvalidInputError):
            Coupling(mu, nu, np.full((3, 1), 1.0 / 3.0))


class TestLqDistance:
    def test_dirac_to_dirac(self):
        val, plan = lq_distance(flat(), dirac((-1.0, 0.0)), dirac((1.0, 0.0)), 0.5)
        assert abs(val - 2.0) < 1e-12
        assert plan.matrix.shape == (1, 1) and abs(plan.matrix[0, 0] - 1.0) < 1e-12

    def test_product_coupling_from_dirac(self):
        nu = measure(((1.0, 0.2), (1.5, -0.4), (0.9, 0.1)), (0.5, 0.3, 0.2))
        val, plan = lq_distance(flat(), dirac((0.0, 0.0)), nu, 0.5)
        assert abs(val - PRODUCT_VAL) < 1e-10
        # the only coupling from a Dirac is the product one
        assert np.allclose(plan.matrix[0], nu.weights, atol=1e-12)

    def test_3x3_matches_bruteforce(self):
        val, plan = lq_distance(flat(), measure(XS3), measure(YS3), 0.5)
        assert abs(val - LQ33_EQUAL) < 1e-10
        assert is_timelike_q_dualizable(plan, flat())

    def test_3x4_exclusions_match_bruteforce(self):
        val, plan = lq_distance(flat(), measure(XS34, MU34_W),
                                measure(YS34, NU34_W), 0.5)
        assert abs(val - LQ34_MIXED) < 1e-10
        # the spacelike pair x_2, y_2 must carry no mass
        assert plan.matrix[2, 2] == 0.0

    def test_random_instances_match_vertex_enumeration(self):
        rng = np.random.default_rng(7)
        model = flat()
        for _ in range(10):
            n, m = rng.integers(2, 5, size=2)
            xs = [(float(t), float(x)) for t, x in
                  zip(rng.uniform(-1.2, -0.4, n), rng.uniform(-1.5, 1.5, n))]
            ys = [(float(t), float(x)) for t, x in
                  zip(rng.uniform(0.4, 1.2, m), rng.uniform(-1.5, 1.5, m))]
            mu_w = rng.random(n) + 0.1
            mu_w /= mu_w.sum()
            nu_w = rng.random(m) + 0.1
            nu_w /= nu_w.sum()
            q = float(rng.uniform(0.2, 0.9))
            val, _ = lq_distance(model, measure(xs, mu_w), measure(ys, nu_w), q)
            ref = lq_bruteforce_vertices(xs, mu_w.tolist(), ys, nu_w.tolist(), q)
            if is_neg_inf(ref):
                assert is_neg_inf(val)
            else:
                assert abs(val - ref) < 1e-10

    def test_restriction_of_optimal_plan_is_optimal(self):
        model = flat()
        mu, nu = measure(XS34, MU34_W), measure(YS34, NU34_W)
        q = 0.5
        _, plan = lq_distance(model, mu, nu, q)
        rows, cols = (0, 1), (0, 1, 3)
        block = plan.matrix[np.ix_(rows, cols)]
        total = block.sum()
        assert total > 1e-6
        sub_mu = DiscreteMeasure(tuple(mu.support[i] for i in rows),
                                 block.sum(axis=1) / total)
        sub_nu = DiscreteMeasure(tuple(nu.support[j] for j in cols),
                                 block.sum(axis=0) / total)
        cost = np.array([[max(minkowski_l(x.coords, y.coords), 0.0) ** q
                          for y in sub_nu.support] for x in sub_mu.support])
        from_block = float(np.sum(cost * block / total)) ** (1.0 / q)
        resolved, _ = lq_distance(model, sub_mu, sub_nu, q)
        assert abs(resolved - from_block) < 1e-9

    def test_no_causal_coupling_is_neg_inf(self):
        val, plan = lq_distance(flat(), dirac((0.0, 0.0)), dirac((0.5, 1.8)), 0.5)
        assert is_neg_inf(val) and plan is None

    def test_q_validation(self):
        for q in (0.0, 1.0, 1.2, -0.5):
            with pytest.raises(InvalidInputError):
                lq_distance(flat(), dirac((0.0, 0.0)), dirac((1.0, 0.0)), q)

    def test_separation_matrix_sentinels(self):
        L = separation_matrix(flat(), measure(XS34, MU34_W), measure(YS34, NU34_W))
        assert is_neg_inf(L[2, 2])
        assert L[0, 0] > 0.0


def random_measures(data, max_points=6):
    """Two measures on the flat chart whose supports mix chronological and
    spacelike pairs, with random weights."""
    seed = data.draw(st.integers(0, 2 ** 31 - 1))
    n, m = data.draw(st.integers(1, max_points)), data.draw(st.integers(1, max_points))
    rng = np.random.default_rng(seed)
    xs = np.column_stack([rng.uniform(-1.2, -0.2, n), rng.uniform(-1.5, 1.5, n)])
    ys = np.column_stack([rng.uniform(0.2, 1.2, m), rng.uniform(-1.5, 1.5, m)])
    mu_w, nu_w = rng.random(n) + 0.1, rng.random(m) + 0.1
    return (measure(list(map(tuple, xs)), mu_w / mu_w.sum()),
            measure(list(map(tuple, ys)), nu_w / nu_w.sum()))


def permuted(mu, order):
    return DiscreteMeasure(tuple(mu.support[k] for k in order), mu.weights[list(order)])


def certified_duals(monkeypatch):
    """The duals each later ``_certify`` call reads, in call order."""
    seen = []
    certify = transport._certify

    def spy(cost, plan, duals, allowed):
        seen.append(duals)
        return certify(cost, plan, duals, allowed)

    monkeypatch.setattr(transport, "_certify", spy)
    return seen


def assert_same_solve(mu, nu, L, q, seen):
    """``_optimal_plan`` gives ``linprog``'s value, plan and duals, bit for
    bit, or (-inf, None) with no certificate where ``linprog`` fails."""
    seen.clear()
    val, plan = _optimal_plan(mu, nu, L, q)
    want_val, want_plan, want_duals = lq_plan_dense(mu.weights, nu.weights, L, q)
    assert val == want_val
    if want_plan is None:
        assert plan is None and seen == []
    else:
        assert plan.matrix.tobytes() == want_plan.tobytes()
        assert len(seen) == 1 and seen[0].tobytes() == want_duals.tobytes()


class TestSparseLp:
    @pytest.mark.parametrize("n, m", [(8, 8), (20, 30), (64, 64), (144, 144), (1, 5)])
    def test_plan_equals_the_dense_build_bit_for_bit(self, n, m, monkeypatch):
        seen = certified_duals(monkeypatch)
        rng = np.random.default_rng(n * 1000 + m)
        for drop in (0.0, 0.3, 0.8):
            L = rng.uniform(0.1, 2.0, (n, m))
            L[rng.random((n, m)) < drop] = -np.inf
            mu_w, nu_w = rng.random(n) + 0.1, rng.random(m) + 0.1
            mu = DiscreteMeasure(tuple((float(i), 0.0) for i in range(n)), mu_w / mu_w.sum())
            nu = DiscreteMeasure(tuple((float(j), 1.0) for j in range(m)), nu_w / nu_w.sum())
            assert_same_solve(mu, nu, L, 0.5, seen)

    def test_no_causal_pair_and_an_infeasible_lp_give_no_plan(self, monkeypatch):
        seen = certified_duals(monkeypatch)
        mu = measure(((0.0, 0.0), (0.0, 1.0)), (0.5, 0.5))
        nu = measure(((1.0, 0.0), (1.0, 1.0), (1.0, 2.0)), (0.2, 0.3, 0.5))
        # every pair excluded: no LP is built
        assert_same_solve(mu, nu, np.full((2, 3), -np.inf), 0.5, seen)
        # the third target has no allowed pair, so its column constraint
        # cannot hold: the LP is infeasible
        L = np.array([[1.0, 0.5, -np.inf], [0.7, 1.2, -np.inf]])
        assert_same_solve(mu, nu, L, 0.5, seen)
        assert _optimal_plan(mu, nu, L, 0.5) == (NEG_INF, None)
        # the first source reaches one target of weight 0.2 only: feasible
        # column by column, infeasible as a whole
        L = np.array([[1.0, -np.inf, -np.inf], [0.7, 1.2, 0.9]])
        assert_same_solve(mu, nu, L, 0.5, seen)
        assert _optimal_plan(mu, nu, L, 0.5) == (NEG_INF, None)

    @given(data=st.data())
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_lq_distance_is_invariant_under_permuting_either_support(self, data):
        mu, nu = random_measures(data)
        q = data.draw(st.floats(0.1, 0.9))
        val, _ = lq_distance(flat(), mu, nu, q)
        for side in ("mu", "nu"):
            order = data.draw(st.permutations(range(len(mu if side == "mu" else nu))))
            pair = (permuted(mu, order), nu) if side == "mu" else (mu, permuted(nu, order))
            got, _ = lq_distance(flat(), *pair, q)
            if is_neg_inf(val):
                assert is_neg_inf(got)
            else:
                assert got == pytest.approx(val, rel=1e-10, abs=1e-12)


class TestDualizable:
    def test_chronological_supports(self):
        _, plan = lq_distance(flat(), measure(XS3), measure(YS3), 0.5)
        assert is_timelike_q_dualizable(plan, flat()) is True

    def test_null_pair_not_dualizable(self):
        val, plan = lq_distance(flat(), dirac((0.0, 0.0)), dirac((1.0, 1.0)), 0.5)
        assert val == 0.0
        assert is_timelike_q_dualizable(plan, flat()) is False

    def test_spacelike_pair_not_dualizable(self):
        val, plan = lq_distance(flat(), dirac((0.0, 0.0)), dirac((0.0, 1.0)), 0.5)
        assert is_neg_inf(val)
        assert is_timelike_q_dualizable(plan, flat()) is False


class TestDynamicalCoupling:
    def test_single_straight_segment(self):
        model = flat()
        _, plan = lq_distance(model, dirac((-1.0, 0.0)), dirac((1.0, 0.5)), 0.5)
        dc = dynamical_coupling(model, plan, samples_per_curve=9)
        assert len(dc.curves) == 1
        samples, mass = dc.curves[0]
        assert mass == 1.0
        assert np.allclose(samples[4], [0.0, 0.25], atol=1e-15)
        dc.validate(model)

    def test_flat_midpoint(self):
        model = minkowski(((0.0, 2.0), (-2.0, 2.0)))
        _, plan = lq_distance(model, dirac((0.0, 0.0)), dirac((2.0, 1.0)), 0.5)
        mid = eval_pushforward(dynamical_coupling(model, plan), 0.5)
        assert mid.support[0].coords == pytest.approx((1.0, 0.5), abs=1e-14)

    def test_flat_spacelike_pair_has_no_geodesic(self):
        # a straight segment between a spacelike pair is no causal curve, and
        # no geodesic parameter lies outside [0, 1]
        model = minkowski(((0.0, 2.0), (-2.0, 2.0)))
        seg = np.array([[0.0, 0.0], [0.25, 0.5], [0.5, 1.0]])
        with pytest.raises(NoGeodesicError):
            DynamicalCoupling(np.array([0.0, 0.5, 1.0]), ((seg, 1.0),)).validate(model)
        _, plan = lq_distance(model, dirac((0.0, 0.0)), dirac((2.0, 1.0)), 0.5)
        with pytest.raises(InvalidInputError):
            eval_pushforward(dynamical_coupling(model, plan), 1.5)

    def test_pushforward_marginals_exact(self):
        model = flat()
        mu, nu = measure(XS3), measure(YS3)
        _, plan = lq_distance(model, mu, nu, 0.5)
        dc = dynamical_coupling(model, plan)
        assert len(dc.curves) <= len(mu) * len(nu)
        for t, ref in ((0.0, mu), (1.0, nu)):
            pushed = eval_pushforward(dc, t)
            got = {p.coords: w for p, w in zip(pushed.support, pushed.weights)}
            assert set(got) == {p.coords for p in ref.support}
            for p, w in zip(ref.support, ref.weights):
                assert abs(got[p.coords] - w) < 1e-9

    @given(data=st.data(), t=st.floats(0.0, 1.0))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_pushforward_keeps_total_mass(self, data, t):
        mu, nu = random_measures(data)
        _, plan = lq_distance(flat(), mu, nu, 0.5)
        assume(plan is not None and is_timelike_q_dualizable(plan, flat()))
        dc = dynamical_coupling(flat(), plan)
        pushed = eval_pushforward(dc, t)
        assert len(pushed) <= len(dc.curves)
        assert math.fsum(pushed.weights) == pytest.approx(
            math.fsum(mass for _, mass in dc.curves), abs=1e-12)
        assert abs(math.fsum(pushed.weights) - 1.0) <= 1e-12

    def test_warped_curves_validate_and_pin_endpoints(self):
        model = cosh_warp_model()
        src, dst = (-1.0, 0.0), (0.9, 0.3)
        _, plan = lq_distance(model, dirac(src), dirac(dst), 0.5)
        dc = dynamical_coupling(model, plan, samples_per_curve=17)
        dc.validate(model)
        assert eval_pushforward(dc, 0.0).support[0].coords == src
        assert eval_pushforward(dc, 1.0).support[0].coords == dst

    def test_halfway_pushforward_scales_square(self):
        model = flat()
        o = (-1.0, 0.0)
        nu = uniform_on_box(((0.0, 0.4), (-0.2, 0.2)), 2)
        _, plan = lq_distance(model, dirac(o), nu, 0.5)
        dc = dynamical_coupling(model, plan)
        mid = eval_pushforward(dc, 0.5)
        expected = {(0.5 * (o[0] + p.t), 0.5 * (o[1] + p.x)) for p in nu.support}
        got = {(round(p.t, 9), round(p.x, 9)) for p in mid.support}
        assert got == {(round(a, 9), round(b, 9)) for a, b in expected}
        assert np.allclose(mid.weights, 0.25)

    def test_rejects_non_chronological_plan(self):
        model = flat()
        _, plan = lq_distance(model, dirac((0.0, 0.0)), dirac((1.0, 1.0)), 0.5)
        with pytest.raises(InvalidInputError):
            dynamical_coupling(model, plan)

    def test_validate_flags_non_maximizer(self):
        bent = np.array([[-1.0, 0.0], [0.0, 0.6], [1.0, 0.0]])
        dc = DynamicalCoupling(np.array([0.0, 0.5, 1.0]), ((bent, 1.0),))
        with pytest.raises(InvalidInputError):
            dc.validate(flat())

    def test_validate_flags_non_affine_parametrization(self):
        skew = np.array([[-1.0, 0.0], [0.5, 0.0], [1.0, 0.0]])
        dc = DynamicalCoupling(np.array([0.0, 0.5, 1.0]), ((skew, 1.0),))
        with pytest.raises(InvalidInputError):
            dc.validate(flat())

    def test_masses_must_sum_to_one(self):
        seg = np.array([[-1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(InvalidInputError):
            DynamicalCoupling(np.array([0.0, 1.0]), ((seg, 0.7),))

    def test_eval_requires_unit_interval(self):
        seg = np.array([[-1.0, 0.0], [1.0, 0.0]])
        dc = DynamicalCoupling(np.array([0.0, 1.0]), ((seg, 1.0),))
        with pytest.raises(InvalidInputError):
            eval_pushforward(dc, 1.5)


class TestQGeodesic:
    def test_dirac_to_dirac_gap_zero(self):
        model = flat()
        _, plan = lq_distance(model, dirac((-1.0, 0.0)), dirac((1.0, 0.4)), 0.5)
        dc = dynamical_coupling(model, plan)
        passed, worst = verify_q_geodesic(model, dc, 0.5,
                                          [0.0, 0.25, 0.5, 0.75, 1.0])
        assert passed and worst < 1e-12

    def test_dirac_to_four_points(self):
        model = flat()
        nu = measure(((1.0, 0.2), (1.2, -0.3), (0.9, 0.0), (1.4, 0.5)))
        _, plan = lq_distance(model, dirac((-0.5, 0.1)), nu, 0.5)
        dc = dynamical_coupling(model, plan)
        passed, worst = verify_q_geodesic(model, dc, 0.5, [0.0, 0.25, 0.5, 1.0])
        assert passed and worst <= 1e-6

    def test_corrupted_curve_fails(self):
        bent = np.array([[-1.0, 0.0], [0.0, 0.3], [1.0, 0.0]])
        dc = DynamicalCoupling(np.array([0.0, 0.5, 1.0]), ((bent, 1.0),))
        passed, worst = verify_q_geodesic(flat(), dc, 0.5, [0.0, 0.5, 1.0])
        assert not passed
        # the bent midpoint costs sqrt(0.91) of separation against 0.5 * 2
        assert abs(worst - (1.0 - math.sqrt(0.91))) < 1e-9


class TestRenyiEntropy:
    def test_dirac_is_zero(self):
        assert renyi_entropy(dirac((0.0, 0.0)), [0.0], 3.0) == 0.0

    def test_uniform_density_closed_form(self):
        # density 1/V on cells of total mass V = 0.8 gives -V^(1/N')
        nu = uniform_on_box(((0.0, 1.0), (0.0, 1.0)), 4)
        cells = np.full(16, 0.8 / 16)
        for n_prime in (2.0, 3.0, 7.5):
            s = renyi_entropy(nu, cells, n_prime)
            assert abs(s - (-0.8 ** (1.0 / n_prime))) < 1e-12

    def test_reference_rescaling_identity(self):
        rng = np.random.default_rng(11)
        w = rng.random(6) + 0.05
        mu = measure([(0.1 * k, 0.0) for k in range(6)], w / w.sum())
        cells = rng.random(6) + 0.2
        for lam in (1.5, 4.0):
            s1 = renyi_entropy(mu, cells, 4.0)
            s2 = renyi_entropy(mu, lam * cells, 4.0)
            assert abs(s2 - lam ** (1.0 / 4.0) * s1) < 1e-12

    def test_jensen_lower_bound(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = int(rng.integers(2, 8))
            w = rng.random(n) + 0.01
            mu = measure([(0.1 * k, 0.0) for k in range(n)], w / w.sum())
            cells = rng.random(n) * 2.0
            cells[rng.random(n) < 0.2] = 0.0     # sprinkle atoms
            n_prime = float(rng.uniform(1.5, 9.0))
            s = renyi_entropy(mu, cells, n_prime)
            assert s <= 0.0
            assert s >= -float(np.sum(cells)) ** (1.0 / n_prime) - 1e-12

    def test_validation(self):
        mu = measure([(0.0, 0.0), (1.0, 0.0)])
        with pytest.raises(InvalidInputError):
            renyi_entropy(mu, [0.5, 0.5], 1.0)
        with pytest.raises(InvalidInputError):
            renyi_entropy(mu, [0.5], 3.0)
        with pytest.raises(InvalidInputError):
            renyi_entropy(mu, [-0.5, 0.5], 3.0)
