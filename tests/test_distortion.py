"""Tests for generalized sines, distortion coefficients, and the defect bound."""

import math
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import oracles
from lorentz_synth import distortion as D
from lorentz_synth.distortion import (
    InvalidInputError,
    KappaProfile,
    const_first_zero,
    const_sine,
    const_tau,
    const_ttilde,
    defect_bound,
    defect_constants,
    first_zero,
    generalized_sine,
    sigma_coeff,
    simpson_uniform,
    tau_coeff,
    ttilde_coeff,
)
from lorentz_synth.extreal import INF, is_inf, xmul, xpow

# values frozen from tests/oracles.py closed forms
SINH_ONE = 1.1752011936438014          # oracles.sine_closed(-1, 1)
TAU_HALF_UNIT = 0.5337354043260923     # sqrt(0.5 sin(0.5) / sin(1))
D_CONST_1_2_03 = 4.3838633618241225    # oracles.defect_constants_closed(1,2,2,0.3)[1]
OMEGA_1_2_03 = 443.6741142771788       # ... [2], = sin(0.3)^{-5}


def profile_const(kappa, length=2.0):
    return KappaProfile.constant(kappa, length)


# --- generalized sine --------------------------------------------------------

def test_flat_sine_is_identity():
    s = generalized_sine(profile_const(0.0, 1.0))
    assert abs(s(0.7) - 0.7) < 1e-12
    assert abs(s(0.0)) == 0.0


def test_unit_kappa_quarter_period():
    s = generalized_sine(profile_const(1.0))
    assert abs(s(math.pi / 2) - 1.0) < 1e-8


def test_sinh_value_frozen():
    s = generalized_sine(profile_const(-1.0))
    assert abs(s(1.0) - SINH_ONE) < 1e-8


@pytest.mark.parametrize("kappa", [-4.0, -1.0, 0.0, 1.0, 4.0])
def test_constant_kappa_matches_closed_form(kappa):
    L = 2.0
    s = generalized_sine(profile_const(kappa, L))
    hi = min(L, oracles.pi_closed(kappa) - 0.01)
    grid = np.linspace(0.0, hi, 1537)
    ref = np.array([oracles.sine_closed(kappa, x) for x in grid])
    assert np.max(np.abs(s(grid) - ref)) <= 1e-8


def test_derivative_samples_track_closed_form():
    # u' at each piece start is the slope coefficient of u's polynomial in
    # y = (x - start) / h, over h; u' = cos(2 theta) for kappa = 4
    fs = D.sine_fundamental(profile_const(4.0, 1.5))
    assert len(fs.widths) == 3
    slopes = fs.u_series[1] / fs.widths
    assert np.max(np.abs(slopes - np.cos(2.0 * fs.nodes[:-1]))) < 1e-14


def _same_bits(a, b):
    return all(x.tobytes() == y.tobytes() for x, y in zip(a, b))


@pytest.mark.parametrize("kappa", [-0.0, 0.0, 1.0, -2.5])
def test_constant_profiles_take_the_piece_route(kappa):
    # a constant profile, signed zeros too, takes the route of every
    # profile: ceil(L sqrt|kappa|) pieces (at least one), whose product
    # gives the closed form at the nodes; -0.0 gives the bits of +0.0
    profile = KappaProfile.constant(kappa, 7.5)
    fs = D.sine_fundamental(profile)
    assert len(fs.widths) == max(1, math.ceil(7.5 * math.sqrt(abs(kappa))))
    want = np.array([oracles.sine_closed(kappa, x) for x in fs.nodes])
    assert np.max(np.abs(fs.node_u - want)) <= 1e-14 * np.max(np.abs(want))
    if kappa == 0.0:
        flat = D.sine_fundamental(KappaProfile.constant(0.0, 7.5))
        for name in ("nodes", "widths", "node_u", "u_series", "w_series"):
            assert getattr(fs, name).tobytes() == getattr(flat, name).tobytes()


def test_first_zero_examples():
    assert abs(first_zero(profile_const(4.0)) - math.pi / 2) <= 1e-8
    assert is_inf(first_zero(profile_const(0.0)))
    assert is_inf(first_zero(profile_const(-2.5)))
    assert abs(first_zero(profile_const(1.0, 10.0)) - math.pi) <= 1e-8


def test_first_zero_past_the_bisection_resolution_ends():
    # near 3e7 adjacent floats are 4e-9 apart, wider than the 1e-10 bisection
    # width, so the bisection must stop at adjacent floats
    got = first_zero(profile_const(1e-14, 1e8))
    assert got == pytest.approx(math.pi * 1e7, rel=1e-9)


def test_first_zero_variable_profile_against_adaptive_solver():
    prof = KappaProfile.from_samples([[0.0, 4.0], [1.0, 1.0], [3.0, 2.0]])
    want = oracles.first_zero_ode(prof, 3.0)
    assert abs(first_zero(prof) - want) < 1e-9


@st.composite
def ramps(draw, bound=30.0):
    """A two-sample ramp with curvatures in [-bound, bound] on [0, L], L in
    [0.2, 3]."""
    k0, k1 = draw(st.floats(-bound, bound)), draw(st.floats(-bound, bound))
    return KappaProfile.from_samples([[0.0, k0], [draw(st.floats(0.2, 3.0)), k1]])


def _assert_exact_sine(profile, rel=1e-12):
    # against the adaptive solve at points short of the first zero, where
    # the sine is positive (DOP853 at rtol 3e-14 errs by up to about 5e-13)
    fz = first_zero(profile)
    xs = np.linspace(0.0, min(profile.length, 0.95 * fz), 41)[1:]
    want = oracles.sine_ode(profile, profile.length, rtol=3e-14, atol=1e-20)(xs)
    got = generalized_sine(profile)(xs)
    assert np.all(np.abs(got - want) <= rel * np.abs(want))


@given(profile=ramps())
@settings(max_examples=30, deadline=None, derandomize=True)
def test_sine_matches_the_adaptive_solve_on_ramps(profile):
    _assert_exact_sine(profile)


@pytest.mark.parametrize("d", [1e-2, 1e-6, 1e-10])
def test_sine_matches_the_adaptive_solve_on_nearly_constant_ramps(d):
    # 4 -> 4 + d on [0, 3]: a series in alpha and beta, with no cancellation
    # where beta is small (Airy functions lose digits there)
    _assert_exact_sine(KappaProfile.from_samples([[0.0, 4.0], [3.0, 4.0 + d]]))
    _assert_exact_sine(KappaProfile.from_samples([[0.0, -4.0], [3.0, -4.0 - d]]))


@given(k0=st.floats(2.0, 30.0), k1=st.floats(2.0, 30.0))
@settings(max_examples=15, deadline=None, derandomize=True)
def test_first_zero_matches_the_adaptive_solve(k0, k1):
    profile = KappaProfile.from_samples([[0.0, k0], [3.0, k1]])
    assert abs(first_zero(profile) - oracles.first_zero_ode(profile, 3.0)) < 1e-9


@given(kappa=st.one_of(st.floats(-400.0, -1.0), st.floats(1.0, 400.0)),
       length=st.floats(0.5, 3.0), inner=st.lists(st.floats(0.05, 0.95), max_size=4))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_sine_matches_the_closed_form_across_many_pieces(kappa, length, inner):
    # constant curvature on samples cut anywhere: up to 60 pieces, each
    # interval into ceil(h sqrt|kappa|); sine and first zero of the closed form
    params = np.unique(np.concatenate(([0.0], np.array(inner) * length, [length])))
    profile = KappaProfile(length, params, np.full(len(params), kappa))
    fs = D.sine_fundamental(profile)
    dp = np.diff(params)
    assert len(fs.widths) == int(np.sum(np.maximum(np.ceil(dp * math.sqrt(abs(kappa))), 1)))
    xs = np.linspace(0.0, min(length, 0.95 * oracles.pi_closed(kappa)), 101)[1:]
    want = np.array([oracles.sine_closed(kappa, x) for x in xs])
    assert np.all(np.abs(fs.eval_u(xs) - want) <= 1e-13 * np.abs(want))
    if oracles.pi_closed(kappa) < length:
        assert abs(first_zero(profile) - oracles.pi_closed(kappa)) < 1e-9


def test_sine_of_a_1025_sample_profile():
    # one piece per sample interval (|kappa| h^2 <= 30 / 512^2), against the
    # adaptive solve restarted at every sample
    grid = np.linspace(0.0, 2.0, 1025)
    profile = KappaProfile(2.0, grid, 30.0 * np.sin(7.0 * grid))
    fs = D.sine_fundamental(profile)
    assert len(fs.widths) == 1024
    fz = first_zero(profile)
    want = oracles.sine_ode_samples(profile)
    inside = (grid > 0.0) & (grid < 0.95 * fz)
    assert np.all(np.abs(fs.eval_u(grid) - want)[inside] <= 1e-12 * np.abs(want[inside]))
    assert fs.eval_u(grid).tobytes() == np.concatenate(([0.0], fs.node_u[1:-1], [fs.eval_u(2.0)])).tobytes()


@given(profile=ramps(8.0), t=st.floats(0.0, 1.0), frac=st.floats(0.05, 1.0))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_sigma_matches_the_rk4_reference_at_its_error(profile, t, frac):
    # classical RK4 with step L / 4096 and Hermite lookups errs by about
    # 2e-13 on ramps in [-8, 8]
    theta = frac * profile.length
    got = sigma_coeff(profile, t, theta)
    want = oracles.sigma_full_solve(profile, t, theta)
    if is_inf(got) or is_inf(want):
        # the two first zeros agree to about 1e-10: only a theta within
        # that of the guarded zero may fall on different sides
        zero = first_zero(profile) * (1.0 - D.FIRST_ZERO_GUARD)
        assert is_inf(got) == is_inf(want) or abs(theta - zero) < 1e-9
    else:
        assert got == pytest.approx(want, rel=1e-11, abs=1e-15)


def test_profiles_that_need_too_many_pieces_are_rejected():
    # sqrt(kappa) L = MAX_PIECES pieces is the most a solve takes
    most = KappaProfile.constant(float(D.MAX_PIECES) ** 2, 1.0)
    assert len(D.sine_fundamental(most).widths) == D.MAX_PIECES
    for profile in (most.scaled(1.001), KappaProfile.constant(-1e300, 2.0)):
        for call in (generalized_sine, lambda p: sigma_coeff(p, 0.5, 1.0),
                     lambda p: tau_coeff(p, 2.0, 0.5, 1e-3)):
            with pytest.raises(InvalidInputError, match="pieces"):
                call(profile)


def test_invalid_profiles_rejected():
    with pytest.raises(InvalidInputError):
        KappaProfile(1.0, np.array([0.0, 0.5, 1.0]), np.array([1.0, math.nan, 1.0]))
    with pytest.raises(InvalidInputError):
        KappaProfile(1.0, np.array([0.0, 0.7, 0.5, 1.0]), np.ones(4))
    with pytest.raises(InvalidInputError):
        KappaProfile(-1.0, np.array([0.0, 1.0]), np.ones(2))
    with pytest.raises(InvalidInputError):
        KappaProfile(1.0, np.array([0.1, 1.0]), np.ones(2))


def test_checked_constructors_equal_the_validating_one():
    assert profile_const(2.0, 1.5) == KappaProfile(1.5, [0.0, 1.5], [2.0, 2.0])
    prof = KappaProfile.from_samples([[0.0, -1.0], [0.4, 2.0], [2.0, 0.5]])
    assert prof.scaled(0.5) == KappaProfile(2.0, prof.params, prof.values * 0.5)
    assert prof.scaled(0.5).params is not prof.params


@pytest.mark.parametrize("make", [
    lambda: profile_const(10.0).scaled(math.inf),
    lambda: profile_const(10.0).scaled(math.nan),
    lambda: profile_const(10.0).scaled(1e308),        # 1e309 overflows to inf
    lambda: profile_const(10.0).scaled(np.ones((3, 1))),
    lambda: KappaProfile.constant(math.nan, 1.0),
    lambda: KappaProfile.constant(1.0, 0.0),
    lambda: KappaProfile.constant(1.0, math.inf),
], ids=["scaled-inf", "scaled-nan", "scaled-overflow", "scaled-shape",
        "constant-nan", "constant-zero-length", "constant-inf-length"])
def test_checked_constructors_reject(make):
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(InvalidInputError):
            make()


def test_profile_json_roundtrip():
    prof = KappaProfile.from_samples([[0.0, -1.0], [0.4, 2.0], [2.0, 0.5]])
    again = KappaProfile.from_json(prof.to_json())
    assert again == prof
    assert again(1.3) == prof(1.3)


# --- sigma / tau -------------------------------------------------------------

def test_sigma_flat_and_degenerate():
    assert sigma_coeff(profile_const(0.0, 6.0), 0.3, 5.0) == pytest.approx(0.3, abs=1e-10)
    assert sigma_coeff(profile_const(-3.0), 0.6, 0.0) == 0.6
    assert is_inf(sigma_coeff(profile_const(1.0, 4.0), 0.5, math.pi))
    assert is_inf(sigma_coeff(profile_const(1.0, 4.0), 0.5, 3.5))


@given(kappa=st.floats(-4.0, 4.0), t=st.floats(0.0, 1.0), frac=st.floats(0.05, 0.9))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_sigma_constant_matches_closed_form(kappa, t, frac):
    L = 2.0
    theta = frac * min(L, oracles.pi_closed(kappa))
    got = sigma_coeff(profile_const(kappa, L), t, theta)
    want = oracles.sigma_closed(kappa, t, theta)
    assert got == pytest.approx(want, abs=1e-8, rel=1e-8)


def test_tau_examples_frozen():
    assert tau_coeff(profile_const(0.0, 3.0), 3.0, 0.4, 2.0) == pytest.approx(0.4, abs=1e-10)
    assert tau_coeff(profile_const(2.0), 2.5, 1.0, 0.9) == pytest.approx(1.0, abs=1e-10)
    got = tau_coeff(profile_const(1.0), 2.0, 0.5, 1.0)
    assert got == pytest.approx(TAU_HALF_UNIT, abs=1e-6)
    # sine samples near 1e-300, whose products underflow to 0
    assert tau_coeff(profile_const(0.0, 1e-300), 2.0, 0.5, 1e-300) == pytest.approx(0.5, rel=1e-12)


def test_tau_zero_time_convention():
    # 0 * inf = 0: at t = 0 the coefficient vanishes even past the first zero
    assert tau_coeff(profile_const(9.0, 4.0), 2.0, 0.0, 2.0) == 0.0
    assert is_inf(tau_coeff(profile_const(9.0, 4.0), 2.0, 0.5, 2.0))


def _oracle_tau(K, n_param, t, theta):
    """oracles.tau_closed, nan where its math.sinh overflows (N near 1 with
    K < 0; test_const_tau_where_sinh_overflows covers those)."""
    try:
        return oracles.tau_closed(K, n_param, t, theta)
    except OverflowError:
        return math.nan


def _oracle_taus(K, n_param, ts, thetas):
    return np.array([[_oracle_tau(K, n_param, t, float(th)) for th in thetas.ravel()]
                     for t in ts]).reshape((len(ts),) + thetas.shape)


def _assert_matches_oracle(got, want, thetas, radius):
    # no nan anywhere; the same +-inf pattern, and relative 1e-12, wherever
    # the oracle is defined and theta is outside the guard band just below
    # the conjugate radius (const_tau's inf starts there, the oracle's at it)
    assert not np.any(np.isnan(got))
    band = (thetas >= radius * (1.0 - D.FIRST_ZERO_GUARD)) & (thetas < radius)
    keep = ~np.isnan(want) & ~band
    assert np.array_equal(np.isinf(got)[keep], np.isinf(want)[keep])
    fin = keep & np.isfinite(want)
    assert np.all(np.abs(got[fin] - want[fin]) <= 1e-12 * np.abs(want[fin]))


@given(K=st.floats(-4.0, 4.0), n_param=st.floats(1.0, 5.0, exclude_min=True),
       t=st.floats(0.0, 1.0),
       fracs=st.lists(st.floats(0.02, 1.6), min_size=1, max_size=4))
# t theta underflows to 0 here, where tau is about t, not 0
@example(K=1.0, n_param=1.0625, t=5e-324, fracs=[0.5])
@settings(max_examples=40, deadline=None, derandomize=True)
def test_const_tau_matches_the_closed_form_oracle(K, n_param, t, fracs):
    # fractions of the conjugate radius of K/(N-1) (of 2 when it is infinite);
    # those past 1 sit beyond it, where tau is the inf sentinel unless t = 0
    radius = const_first_zero(K / (n_param - 1.0))
    scale = radius if math.isfinite(radius) else 2.0
    vals = [0.0] + [f * scale for f in fracs] + ([1.2 * scale] if math.isfinite(radius) else [])
    thetas = np.array(vals + vals[::-1]).reshape(2, -1)     # repeats, 2-d
    got = const_tau(K, n_param, t, thetas)
    assert got.shape == thetas.shape
    assert np.all(got[thetas == 0.0] == t)
    _assert_matches_oracle(got, _oracle_taus(K, n_param, [t], thetas)[0], thetas, radius)
    if math.isfinite(radius):
        assert got[0, -1] == (0.0 if t == 0.0 else INF)


@pytest.mark.parametrize("n_param", [1.0 + 1e-12, 1.0001, 1.01])
def test_const_tau_where_sinh_overflows(n_param):
    # a theta far past the sinh overflow of K/(N-1) < 0: there the ratio is
    # e^{-a(1-t)theta} to double precision, a = sqrt(-K/(N-1))
    ts = [0.0, 0.25, 0.5, 0.9, 1.0]
    thetas = np.array([50.0, 1000.0])
    a = math.sqrt(1.0 / (n_param - 1.0))
    got = const_tau(-1.0, n_param, ts, thetas)
    want = [[t ** (1.0 / n_param) * math.exp(-(1.0 - 1.0 / n_param) * a * (1.0 - t) * th)
             for th in thetas] for t in ts]
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)


def test_const_tau_scalar_and_empty_inputs():
    assert const_tau(1.0, 2.0, 0.5, 1.0).shape == ()
    assert float(const_tau(1.0, 2.0, 0.5, 1.0)) == pytest.approx(
        oracles.tau_closed(1.0, 2.0, 0.5, 1.0), rel=1e-12)
    assert const_tau(1.0, 2.0, 0.5, np.empty((0, 3))).shape == (0, 3)
    assert const_tau(1.0, 2.0, [0.5, 0.25], np.empty((0, 3))).shape == (2, 0, 3)


@given(K=st.floats(-4.0, 4.0), n_param=st.floats(1.0, 5.0, exclude_min=True),
       ts=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
       fracs=st.lists(st.floats(0.0, 1.6), min_size=1, max_size=5))
# sqrt(-K) theta underflows to 0, where the log of the sinh ratio read 0 / 0
@example(K=-3.6216817146878017e-146, n_param=2.0, ts=[0.0], fracs=[1e-300])
@settings(max_examples=30, deadline=None, derandomize=True)
def test_const_tau_over_an_array_of_t(K, n_param, ts, fracs):
    # a leading t axis: each row is the oracle at its t, and the last row is
    # the scalar-t call bit for bit
    radius = const_first_zero(K / (n_param - 1.0))
    scale = radius if math.isfinite(radius) else 2.0
    thetas = np.array([f * scale for f in fracs])
    got = const_tau(K, n_param, ts, thetas)
    assert got.shape == (len(ts), len(thetas))
    _assert_matches_oracle(got, _oracle_taus(K, n_param, ts, thetas), thetas, radius)
    assert got[-1].tobytes() == const_tau(K, n_param, ts[-1], thetas).tobytes()


def test_const_tau_solves_each_theta_once_for_every_t(monkeypatch):
    # 600 distinct thetas, each asked at three t: the closed form solves no
    # sine and calls no tau_coeff at all, and a repeated theta gives the
    # same value at every t
    calls, solves = [], []
    scalar, solve = D.tau_coeff, D._solve
    monkeypatch.setattr(D, "tau_coeff", lambda *a: calls.append(a) or scalar(*a))
    monkeypatch.setattr(D, "_solve", lambda *a: solves.append(a) or solve(*a))
    thetas = np.linspace(0.05, 1.5, 600)
    got = const_tau(-1.0, 3.0, [0.25, 0.5, 0.75], np.concatenate([thetas, thetas[::-1]]))
    assert solves == []
    assert calls == []
    assert got.shape == (3, 1200)
    assert np.all(np.isfinite(got))
    assert np.array_equal(got[:, :600], got[:, :599:-1])
    assert const_tau(1.0, 2.0, [0.5, 0.25], np.empty((0, 3))).shape == (2, 0, 3)


@pytest.mark.parametrize("n_param, t, thetas", [
    (2.0, 1.5, np.zeros(2)),            # t past 1 where every theta is 0
    (0.5, 0.5, np.empty(0)),            # N below 1 with no theta at all
    (1.0, 0.5, np.ones(2)),
    (2.0, -0.25, np.ones(2)),
    (2.0, [0.5, math.nan], np.ones(2)),
    (2.0, [[0.5]], np.ones(2)),
    (2.0, 0.5, np.array([0.5, -1.0])),
    (2.0, 0.5, np.array([math.inf])),
    (2.0, 0.5, np.array([math.nan])),
], ids=["t-past-1-theta-0", "n-below-1-empty", "n-is-1", "t-negative", "t-nan",
        "t-2d", "theta-negative", "theta-inf", "theta-nan"])
def test_const_tau_checks_inputs_before_evaluating(n_param, t, thetas):
    with pytest.raises(InvalidInputError):
        const_tau(1.0, n_param, t, thetas)


@given(K=st.floats(-4.0, 4.0), n_param=st.floats(1.5, 5.0), t=st.floats(0.0, 1.0),
       frac=st.floats(0.01, 0.95))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_solved_tau_agrees_with_the_closed_form(K, n_param, t, frac):
    # the piece solve on a constant profile against const_tau: the anchor
    # that ties the ODE route to the closed form
    radius = const_first_zero(K / (n_param - 1.0))
    theta = frac * (radius if math.isfinite(radius) else 2.5)
    solved = tau_coeff(KappaProfile.constant(K, theta), n_param, t, theta)
    assert solved == pytest.approx(float(const_tau(K, n_param, t, theta)), rel=1e-8, abs=1e-8)


def test_const_ttilde_is_the_scalar_coefficient_bit_for_bit():
    thetas = np.array([[0.0, 0.3, 1.1], [1.1, 0.3, 2.5]])
    for K in (-1.5, 0.0, 1.0):
        got = const_ttilde(K, 2.5, thetas)
        want = np.array([[ttilde_coeff(K, 2.5, float(th)) for th in row] for row in thetas])
        assert got.tobytes() == want.tobytes()


affine_profiles = st.tuples(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0),
                            st.floats(1.0, 2.5))


@given(base=affine_profiles, drop=st.tuples(st.floats(0.0, 3.0), st.floats(0.0, 3.0)),
       n_param=st.sampled_from([2.0, 3.0, 4.5]), t=st.floats(0.0, 1.0),
       frac=st.floats(0.05, 0.95))
@settings(max_examples=80, deadline=None, derandomize=True)
def test_monotone_in_kappa_and_tau_dominates(base, drop, n_param, t, frac):
    a, b, L = base
    hi = KappaProfile.from_samples([[0.0, a], [L, b]])
    lo = KappaProfile.from_samples([[0.0, a - drop[0]], [L, b - drop[1]]])
    theta = frac * L
    s_hi = sigma_coeff(hi.scaled(1.0 / n_param), t, theta)
    s_lo = sigma_coeff(lo.scaled(1.0 / n_param), t, theta)
    if not is_inf(s_hi):
        assert s_lo <= s_hi + 1e-10
    t_hi = tau_coeff(hi, n_param, t, theta)
    t_lo = tau_coeff(lo, n_param, t, theta)
    if not is_inf(t_hi):
        assert t_lo <= t_hi + 1e-10
    # tau_{k,N} >= sigma_{k/N} wherever both are defined
    if not is_inf(t_hi):
        assert t_hi >= s_hi - 1e-10


@given(base=affine_profiles, frac=st.floats(0.1, 0.8))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_interpolated_sigma_satisfies_ode(base, frac):
    """sigma^{(t)}(theta) as a function of t solves v'' + kappa(t theta) theta^2 v = 0;
    checked by central second differences. Affine coefficients keep the fourth
    derivative bounded, so the stencil error stays well under tolerance."""
    a, b, L = base
    prof = KappaProfile.from_samples([[0.0, a], [L, b]])
    sine = generalized_sine(prof)
    theta = frac * min(L, 0.85 * sine.first_zero)
    assume(theta > 0.05)
    delta = 1.0 / 4096.0
    ts = np.arange(0.0, 1.0 + delta / 2, delta)
    v = sine(ts * theta) / sine(theta)
    resid = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / delta ** 2 \
        + prof(ts[1:-1] * theta) * theta ** 2 * v[1:-1]
    assert np.max(np.abs(resid)) <= 1e-5


@pytest.mark.parametrize("call", [
    lambda: tau_coeff(profile_const(-1.0, 10.0), 1.0001, 0.5, 10.0),
    lambda: sigma_coeff(profile_const(-1e4, 10.0), 0.5, 10.0),
    lambda: defect_bound(0.0, 2.0, 2.0, 0.1, profile_const(-1e4, 10.0), 0.5, 9.0),
], ids=["tau", "sigma", "defect-bound"])
def test_an_overflowing_sine_raises_instead_of_returning_nan(call):
    # the product of a strongly negative profile's pieces overflows to inf, and the
    # sine ratio would be inf/inf
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(InvalidInputError, match="overflows"):
            call()


@pytest.mark.parametrize("coeff", ["sigma", "tau"])
@pytest.mark.parametrize("samples, theta, cause", [
    # np.interp's slope 1e10 / 1e-300 overflows, and with it the piece's B
    ([[0.0, 0.0], [1e-300, 1e10]], 5e-301, "curvature is not finite"),
    ([[0.0, 0.0], [1.0, -1e8]], 0.5, "profile is too negative"),
], ids=["steep-positive", "too-negative"])
def test_an_overflowing_sine_names_its_cause(coeff, samples, theta, cause):
    profile = KappaProfile.from_samples(samples)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(InvalidInputError, match=cause):
            if coeff == "sigma":
                sigma_coeff(profile, 0.5, theta)
            else:
                tau_coeff(profile, 3.0, 0.5, theta)
    # the pieces up to theta and the whole profile raise the same message
    _assert_prefix_keeps_the_full_solve(profile, 0.5, theta, 3.0)


@pytest.mark.parametrize("kappa", [0.0, 0.1, -0.1])
def test_sigma_where_the_sine_underflows_is_t(kappa):
    # pieces of width 2 or 4: theta / h, and the sine at theta with it,
    # underflow to 0, where sigma is t, as at theta = 0, and tau is t too
    profile = profile_const(kappa, 4.0)
    for t in (0.0, 0.3, 1.0):
        assert sigma_coeff(profile, t, 5e-324) == t
        assert tau_coeff(profile, 2.0, t, 5e-324) == pytest.approx(t, rel=1e-15)


def test_sigma_input_validation():
    with pytest.raises(InvalidInputError):
        sigma_coeff(profile_const(1.0), -0.1, 0.5)
    with pytest.raises(InvalidInputError):
        sigma_coeff(profile_const(1.0), 0.5, 2.5)
    with pytest.raises(InvalidInputError):
        tau_coeff(profile_const(1.0), 1.0, 0.5, 0.5)


# --- sigma on the pieces up to theta against the whole profile's sine --------

def _outcome(fn, *args):
    """The bytes of ``fn(*args)``, or the type and message of what it raised."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            return np.float64(fn(*args)).tobytes()
        except InvalidInputError as exc:
            return ("raised", type(exc), str(exc))


def _sigma_whole(profile, t, theta):
    """``sigma_coeff`` read off the sine of the whole profile, with its
    checks, guard and overflow error."""
    if not 0.0 <= t <= 1.0:
        raise InvalidInputError(f"t = {t} outside [0, 1]")
    if not 0.0 <= theta <= profile.length + 1e-12:
        raise InvalidInputError(f"theta = {theta} outside [0, {profile.length}]")
    if theta == 0.0:
        return float(t)
    sine = generalized_sine(profile)
    if theta >= sine.first_zero * (1.0 - D.FIRST_ZERO_GUARD):
        return INF
    num, denom = sine(t * theta), sine(theta)
    if not (math.isfinite(num) and math.isfinite(denom)):
        raise D._sine_overflow(profile, theta)
    return num / denom if denom != 0.0 else float(t)


def _tau_whole(profile, n_param, t, theta):
    sig = _sigma_whole(profile.scaled(1.0 / (n_param - 1.0)), t, theta)
    return xmul(math.pow(t, 1.0 / n_param), xpow(sig, 1.0 - 1.0 / n_param))


def _assert_prefix_keeps_the_full_solve(profile, t, theta, n_param):
    assert _outcome(sigma_coeff, profile, t, theta) == _outcome(_sigma_whole, profile, t, theta)
    assert _outcome(tau_coeff, profile, n_param, t, theta) == \
        _outcome(_tau_whole, profile, n_param, t, theta)


@st.composite
def sampled_profiles(draw):
    """Two-sample and multi-sample profiles, curvatures in [-30, 30]."""
    length = draw(st.floats(0.2, 3.0))
    inner = draw(st.lists(st.floats(0.01, 0.99), max_size=6, unique=True))
    params = np.concatenate(([0.0], np.sort(inner) * length, [length]))
    assume(np.all(np.diff(params) > 0.0))
    values = draw(st.lists(st.floats(-30.0, 30.0), min_size=len(params),
                           max_size=len(params)))
    return KappaProfile(length, params, np.array(values))


@st.composite
def thetas_for(draw, profile):
    """theta anywhere on [0, L], on a piece end, at L and just past it."""
    length = profile.length
    kind = draw(st.sampled_from(["any", "node", "end"]))
    if kind == "any":
        return draw(st.floats(0.0, length))
    if kind == "node":
        nodes = D.sine_fundamental(profile).nodes
        return float(nodes[draw(st.integers(1, len(nodes) - 1))])
    return draw(st.sampled_from([length, length + 5e-13]))


@given(data=st.data(), t=st.floats(0.0, 1.0), n_param=st.sampled_from([1.5, 2.0, 4.0]))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_sigma_and_tau_keep_the_bits_of_the_full_solve(data, t, n_param):
    profile = data.draw(sampled_profiles())
    theta = data.draw(thetas_for(profile))
    _assert_prefix_keeps_the_full_solve(profile, t, theta, n_param)


@given(data=st.data(), sign=st.sampled_from([0.0, -0.0]), length=st.floats(0.2, 3.0),
       t=st.floats(0.0, 1.0))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_signed_zero_profiles_keep_the_bits_of_the_full_solve(data, sign, length, t):
    profile = KappaProfile.constant(sign, length)
    _assert_prefix_keeps_the_full_solve(profile, t, data.draw(thetas_for(profile)), 2.0)


# the length floor: L / 8192 subnormal: 0.0 (1e-321); 24.3 subnormal units
# (199066 units of L); L / 4096 normal with an odd last bit, so L / 8192
# rounds below the smallest normal (4096 min(1 + eps)); and two ulps below
# the floor 8192 min (one ulp below, L / 8192 rounds up to min, so that
# length is the shortest accepted)
_SUBNORMAL_STEP = 199066 * 5e-324
_ODD_MIN_STEP = 4096 * float(np.nextafter(sys.float_info.min, 1.0))
_MIN_LENGTH = 8192 * sys.float_info.min
_BELOW_MIN_LENGTH = float(np.nextafter(_MIN_LENGTH, 0.0))


@pytest.mark.parametrize("length", [1e-321, 1e-319, _SUBNORMAL_STEP, 1e-310, _ODD_MIN_STEP,
                                    float(np.nextafter(_BELOW_MIN_LENGTH, 0.0))])
def test_lengths_whose_half_step_is_subnormal_are_rejected(length):
    with pytest.raises(InvalidInputError, match="subnormal"):
        KappaProfile.constant(0.0, length)
    with pytest.raises(InvalidInputError, match="subnormal"):
        KappaProfile.from_samples([[0.0, 0.0], [length, 1.0]])


@pytest.mark.parametrize("length, theta", [
    (_MIN_LENGTH, 0.98 * _MIN_LENGTH), (_MIN_LENGTH, _MIN_LENGTH),
    (1e-300, 1e-300), (1e-300, 3e-301)])
def test_lengths_whose_step_underflows_keep_the_bits(length, theta):
    # h^2, and with it the recurrence's A and B, underflow to 0 here
    _assert_prefix_keeps_the_full_solve(KappaProfile.constant(1.0, length), 0.5, theta, 2.0)


@pytest.mark.parametrize("length", [_BELOW_MIN_LENGTH, _MIN_LENGTH,
                                    float(np.nextafter(_MIN_LENGTH, 1.0)),
                                    3e-304, 1e-300, 1e-290, 1e-270, 1e-250])
def test_sigma_of_short_constant_profiles_is_t(length):
    # sin_kappa(x) = x to double precision this close to 0: sigma is t up to
    # the rounding of the offsets and the Horner sums
    for kappa in (0.0, 1.0, -1.0, 1e6, -1e6):
        profile = KappaProfile.constant(kappa, length)
        for t in (0.1, 0.25, 0.5):
            for frac in (0.01, 0.37, 0.98, 1.0):
                assert abs(sigma_coeff(profile, t, frac * length) - t) <= 4.5e-16 * t


@given(kappa=st.floats(-1e5, -1e3), length=st.floats(5.0, 20.0), frac=st.floats(0.0, 1.0),
       t=st.floats(0.0, 1.0))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_overflowing_sines_keep_the_outcome_of_the_full_solve(kappa, length, frac, t):
    # the whole profile's sine overflows to inf (and inf - inf to NaN) far
    # before L; the pieces up to theta must raise where it raised and return
    # its value where it did not
    profile = KappaProfile.from_samples([[0.0, kappa], [length, 0.5 * kappa]])
    _assert_prefix_keeps_the_full_solve(profile, t, frac * length, 1.5)


@given(kappa=st.floats(2.0, 30.0), slope=st.floats(-1.0, 1.0), side=st.sampled_from([-1, 1]),
       t=st.floats(0.0, 1.0))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_theta_at_the_guarded_first_zero_keeps_the_bits(kappa, slope, side, t):
    # theta = fz (1 - guard) (1 +- 1e-12): either side of the conjugate cut
    profile = KappaProfile.from_samples([[0.0, kappa], [3.0, kappa + slope]])
    fz = first_zero(profile)
    assume(fz < 3.0)
    theta = fz * (1.0 - D.FIRST_ZERO_GUARD) * (1.0 + side * 1e-12)
    _assert_prefix_keeps_the_full_solve(profile, t, theta, 2.0)


# 4096 sample intervals of 1 / 4096, one piece each
_MANY_PIECES = KappaProfile(1.0, np.linspace(0.0, 1.0, 4097),
                            30.0 * np.sin(np.linspace(0.0, 40.0, 4097)))


@pytest.mark.parametrize("n_steps", [1, 2, 3, 5, 1000, 2049, 4095])
def test_a_short_scan_is_the_head_of_the_full_scan(n_steps):
    # the pieces that start below a reach: the head of the whole profile's
    # system, bit for bit, from a scan of that many matrices
    full = D.sine_fundamental(_MANY_PIECES)
    assert len(full.widths) == 4096
    [head] = D._solve([(_MANY_PIECES, float(full.nodes[n_steps]))])
    assert len(head.widths) == n_steps
    for name in ("nodes", "widths", "node_u"):
        assert getattr(head, name).tobytes() == getattr(full, name)[:len(getattr(head, name))].tobytes()
    # the head may keep fewer rows: those past its last nonzero one add 0
    rows = len(head.u_series)
    for got, want in ((head.u_series, full.u_series), (head.w_series, full.w_series)):
        assert got.tobytes() == np.ascontiguousarray(want[:rows, :n_steps]).tobytes()
        assert not want[rows:, :n_steps].any()
    matrices = oracles.rk4_matrices(_MANY_PIECES(np.linspace(0.0, 1.0, 8193)), 1.0 / 4096)
    whole = D._product_scan(*(m.copy() for m in matrices))
    short = D._product_scan(*(m[:n_steps].copy() for m in matrices))
    assert _same_bits(short, [entry[:n_steps] for entry in whole])


@st.composite
def scan_profiles(draw):
    """Multi-sample profiles in [-30, 30], constant profiles of +-0.0, and
    steep negative ramps whose scan overflows to inf (and inf - inf to NaN)."""
    kind = draw(st.sampled_from(["sampled", "signed zero", "overflowing"]))
    if kind == "sampled":
        return draw(sampled_profiles())
    if kind == "signed zero":
        return KappaProfile.constant(draw(st.sampled_from([0.0, -0.0])), draw(st.floats(0.2, 3.0)))
    kappa = draw(st.floats(-1e5, -1e3))
    return KappaProfile.from_samples([[0.0, kappa], [draw(st.floats(5.0, 20.0)), 0.5 * kappa]])


_OVERFLOWING = KappaProfile.from_samples([[0.0, -1e5], [20.0, -5e4]])


@given(profile=scan_profiles(),
       n_steps=st.sampled_from([1, 2, 3, 4, 5, 2047, 2048, 2049, 4095, 4096]))
@example(profile=_OVERFLOWING, n_steps=2048)
@example(profile=_OVERFLOWING, n_steps=4096)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_the_scan_keeps_the_bits_of_the_allocating_scan(profile, n_steps):
    # the matrices of RK4 steps of L / 4096 (the reference route's), whose
    # products overflow on the steep ramps; the round count changes at powers
    # of two, and with it the buffer set that holds the result
    h = profile.length / 4096
    kappa_half = profile(np.linspace(0.0, profile.length, 8193))[:2 * n_steps + 1]
    with np.errstate(over="ignore", invalid="ignore"):
        matrices = oracles.rk4_matrices(kappa_half, h)
        got = D._product_scan(*(m.copy() for m in matrices))
        want = oracles.scan_allocating(*(m.copy() for m in matrices))
    assert all(len(entry) == n_steps for entry in got)
    assert _same_bits(got, want)


@pytest.mark.parametrize("n_steps", [2048, 2049, 4096])
def test_kept_solves_own_their_memory(n_steps):
    # a system keeps no buffer of the scan (it returns its second set after
    # an odd number of rounds, as for 2048 pieces), only arrays it made
    buffers = []
    scan = D._product_scan

    def spy(*entries):
        out = scan(*entries)
        buffers.extend(entries + out)
        return out

    profile = KappaProfile(1.0, _MANY_PIECES.params[:n_steps + 1] * (4096 / n_steps),
                           _MANY_PIECES.values[:n_steps + 1])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(D, "_product_scan", spy)
        fs = D.sine_fundamental(profile)
    assert len(fs.widths) == n_steps
    kept = (fs.nodes, fs.widths, fs.node_u, fs.u_series, fs.w_series)
    assert not any(np.shares_memory(a, b) for a in kept for b in buffers)


def test_sigma_scans_only_the_steps_up_to_theta(monkeypatch):
    # sigma and tau (N = 2: the same profile) solve the pieces that start
    # below theta / (1 - guard), at the end of the profile all of them, one
    # solve per call
    solved = []
    transfer = D._piece_transfer
    monkeypatch.setattr(D, "_piece_transfer",
                        lambda a, b, h: solved.append(len(h)) or transfer(a, b, h))
    profile = KappaProfile.from_samples([[0.0, 40.0], [1.0, 1.0], [3.0, 50.0]])
    nodes = D.sine_fundamental(profile).nodes
    assert len(nodes) == 1 + 7 + 15       # ceil(sqrt(40)) and ceil(2 sqrt(50)) pieces
    for theta in (1e-9, 0.01, 0.5, 1.3, float(nodes[20]), 2.99, 3.0, 3.0 + 5e-13):
        for call in (lambda: sigma_coeff(profile, 0.5, theta),
                     lambda: tau_coeff(profile, 2.0, 0.5, theta)):
            solved.clear()
            call()
            reach = theta / (1.0 - D.FIRST_ZERO_GUARD)
            assert solved == [max(1, int(np.searchsorted(nodes[:-1], reach)))]
    sigma_coeff(profile, 0.5, 3.0)
    assert solved[-1] == len(nodes) - 1


# --- the defect bound's sigma: sigma_coeff's route ---------------------------

@st.composite
def ramps_and_thetas(draw):
    """A two-sample ramp in [-30, 30] on [0, L], L in [0.2, 3], or level on
    the shortest accepted length or on 1e-300 (a ramp's slope would overflow
    there), and theta anywhere in (0, L], just below L, or at it."""
    length = draw(st.one_of(st.floats(0.2, 3.0), st.sampled_from([_MIN_LENGTH, 1e-300])))
    k0 = draw(st.floats(-30.0, 30.0))
    k1 = draw(st.floats(-30.0, 30.0)) if length > 1.0e-300 else k0
    profile = KappaProfile.from_samples([[0.0, k0], [length, k1]])
    kind = draw(st.sampled_from(["any", "near end", "end"]))
    if kind == "any":
        theta = draw(st.floats(0.0, length, exclude_min=True))
    elif kind == "near end":
        theta = length * (1.0 - draw(st.floats(0.0, 4.0)) / 4096)
    else:
        theta = length
    assume(theta > 0.0)
    return profile, theta


@given(case=ramps_and_thetas(), n_param=st.sampled_from([2.0, 2.5, 3.0]),
       rs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))
# the sine at theta underflows to 0 (theta / h does)
@example(case=(KappaProfile.constant(0.0, 2.0), 5e-324), n_param=2.0, rs=[0.0, 0.3])
@settings(max_examples=150, deadline=None, derandomize=True)
def test_the_defect_bound_reads_the_bits_of_sigma_coeff(case, n_param, rs):
    # every node's sigma is sigma_coeff's, bit for bit, and where the bound
    # reads none (None) sigma_coeff is the +inf sentinel at every r
    profile, theta = case
    scaled = profile.scaled(1.0 / (n_param - 1.0))
    rs = np.array([0.0, 1.0] + rs)
    got = D._sigma_profile_values(next(D._sines_to([(scaled, theta)])), scaled, theta, rs)
    want = [sigma_coeff(scaled, float(r), theta) for r in rs]
    if got is None:
        assert all(w == INF for w in want)
    else:
        assert got.tobytes() == np.array(want).tobytes()


def test_the_defect_bound_takes_one_prefix_scan_and_no_cached_solve(monkeypatch):
    # one solve per bound, of the pieces up to theta, and no solve of the
    # whole profile
    solved, whole = [], []
    transfer, fundamental = D._piece_transfer, D.sine_fundamental
    monkeypatch.setattr(D, "_piece_transfer",
                        lambda a, b, h: solved.append(len(h)) or transfer(a, b, h))
    monkeypatch.setattr(D, "sine_fundamental", lambda p: whole.append(p) or fundamental(p))
    profile = KappaProfile.from_samples([[0.0, 0.2], [2.0, 3.0]])
    nodes = fundamental(profile).nodes
    scaled = fundamental(profile.scaled(1.0 / 1.5)).nodes
    solved.clear()
    for theta in (0.3, 1.2, 1.9):
        assert 0.0 < defect_bound(1.0, 2.5, 2.5, 0.4, profile, 0.4, theta) < INF
    assert whole == []
    assert solved == [int(np.searchsorted(scaled[:-1], theta / (1.0 - D.FIRST_ZERO_GUARD)))
                      for theta in (0.3, 1.2, 1.9)]
    assert len(nodes) > solved[0]


# --- defect constants and bound ----------------------------------------------

def test_defect_constants_frozen():
    c = defect_constants(0.0, 2.0, 2.0, 0.5)
    assert c.c_np == pytest.approx(4.5, abs=1e-12)
    assert c.lam == 1.0 and c.omega == c.c_np and c.d_const == 1.0
    cneg = defect_constants(-1.0, 3.0, 2.5, 1.0)
    assert cneg.lam == 1.0 and cneg.omega == cneg.c_np

    cpos = defect_constants(1.0, 2.0, 2.0, 0.3)
    assert cpos.d_const == pytest.approx(D_CONST_1_2_03, rel=1e-9)
    assert cpos.omega == pytest.approx(OMEGA_1_2_03, rel=1e-9)
    assert cpos.lam == cpos.d_const
    assert cpos.omega >= cpos.c_np


def test_defect_constants_validation():
    with pytest.raises(InvalidInputError):
        defect_constants(1.0, 2.0, 2.0, 2.0)      # eta past half conjugate radius
    with pytest.raises(InvalidInputError):
        defect_constants(1.0, 1.5, 2.0, 0.1)      # N < 2
    with pytest.raises(InvalidInputError):
        defect_constants(1.0, 3.0, 1.2, 0.1)      # p <= N/2


def test_defect_bound_zero_when_no_undershoot():
    prof = profile_const(1.0)
    assert defect_bound(1.0, 2.0, 2.0, 0.3, prof, 0.5, 1.0) == 0.0
    tk = tau_coeff(profile_const(1.0, 2.0), 2.0, 0.5, 1.0)
    assert abs(tk - tau_coeff(prof, 2.0, 0.5, 1.0)) < 1e-12


def test_defect_bound_dominates_fixed_instance():
    K, N, p, eta, t, theta = 1.0, 2.0, 2.0, 0.3, 0.5, 1.0
    prof = profile_const(K - 0.5, 2.0)
    bound = defect_bound(K, N, p, eta, prof, t, theta)
    actual = tau_coeff(profile_const(K, 2.0), N, t, theta) - tau_coeff(prof, N, t, theta)
    assert bound >= actual
    assert bound >= 0.0
    # library Simpson agrees with the adaptive-quadrature reference route
    ref = oracles.defect_rhs_quad(K, N, p, eta, lambda x: K - 0.5, t, theta)
    assert bound == pytest.approx(ref, rel=1e-8)


@given(base=st.tuples(st.floats(-1.5, 0.5), st.floats(-1.5, 0.5)),
       t=st.floats(0.05, 0.95), frac=st.floats(0.1, 0.9),
       n_param=st.sampled_from([2.0, 3.0]), p=st.floats(2.0, 3.0))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_defect_bound_dominates_random(base, t, frac, n_param, p):
    K, eta = 1.0, 0.3
    L = 2.0
    prof = KappaProfile.from_samples([[0.0, K + base[0]], [L, K + base[1]]])
    theta_max = min(L, const_first_zero(K / (n_param - 1.0)) - eta)
    theta = frac * theta_max
    assume(theta > 1e-3)
    bound = defect_bound(K, n_param, p, eta, prof, t, theta)
    tK = tau_coeff(KappaProfile.constant(K, L), n_param, t, theta)
    tk = tau_coeff(prof, n_param, t, theta)
    if is_inf(tk):
        return
    assert tK - tk <= bound + 1e-8


def test_defect_bound_range_validation():
    prof = profile_const(0.5)
    with pytest.raises(InvalidInputError):
        defect_bound(1.0, 2.0, 2.0, 0.3, prof, 0.0, 1.0)
    with pytest.raises(InvalidInputError):
        defect_bound(1.0, 2.0, 2.0, 0.3, prof, 0.5, math.pi - 0.3)
    with pytest.raises(InvalidInputError):
        defect_bound(1.0, 2.0, 2.0, 0.3, prof, 0.5, 0.0)


def test_simpson_matches_polynomial():
    xs = np.linspace(0.0, 2.0, 513)
    assert simpson_uniform(xs ** 3, 0.0, 2.0) == pytest.approx(4.0, abs=1e-12)
    with pytest.raises(InvalidInputError):
        simpson_uniform(np.ones(4), 0.0, 1.0)


# --- model coefficient for the wave-operator comparison ----------------------

def test_ttilde_values():
    assert ttilde_coeff(0.0, 2.0, 0.7) == 1.0
    assert ttilde_coeff(1.0, 2.0, 0.0) == 1.0
    got = ttilde_coeff(1.0, 2.0, 1.0)
    assert got == pytest.approx(0.5 + 0.5 / math.tan(1.0), rel=1e-12)
    goth = ttilde_coeff(-1.0, 2.0, 1.0)
    assert goth == pytest.approx(0.5 + 0.5 / math.tanh(1.0), rel=1e-12)
    # continuity at theta -> 0
    assert ttilde_coeff(1.0, 3.0, 1e-6) == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(InvalidInputError):
        ttilde_coeff(1.0, 2.0, math.pi + 0.1)


# --- batched requests: the bytes of one-request calls -------------------------

# 300 sample intervals, one piece each, and no zero before L = 2: a request
# near L solves more pieces than a chunk of the batched solve holds
_LONG = KappaProfile(2.0, np.linspace(0.0, 2.0, 301),
                     0.5 * np.sin(5.0 * np.linspace(0.0, 2.0, 301)))


@st.composite
def batch_profiles(draw):
    """Ramps of 1 to 6 pieces, flat profiles (+-0.0, whose polynomial rows
    are trimmed), sampled profiles in [-30, 30] (zeros before L), the
    300-piece profile, and a steep negative ramp whose sine overflows."""
    kind = draw(st.sampled_from(["ramp", "ramp", "flat", "sampled", "long", "overflowing"]))
    if kind == "ramp":
        length = draw(st.floats(0.2, 2.5))
        k0, k1 = draw(st.floats(-4.0, 4.0)), draw(st.floats(-4.0, 4.0))
        return KappaProfile.from_samples([[0.0, k0], [length, k1]])
    if kind == "flat":
        return KappaProfile.constant(draw(st.sampled_from([0.0, -0.0])), draw(st.floats(0.2, 3.0)))
    if kind == "sampled":
        return draw(sampled_profiles())
    if kind == "long":
        return _LONG
    return _OVERFLOWING


@st.composite
def sigma_requests(draw):
    """(profile, t, theta): theta at 0, anywhere on [0, L], on a piece end,
    at L or just past it (past L + 1e-12 sometimes, which fails its check)."""
    profile = draw(batch_profiles())
    kind = draw(st.sampled_from(["zero", "theta", "theta", "past"]))
    if kind == "zero":
        theta = 0.0
    elif kind == "theta":
        theta = draw(thetas_for(profile))
    else:
        theta = profile.length * (1.0 + draw(st.sampled_from([1e-13, 1e-3])))
    return profile, draw(st.floats(0.0, 1.0)), theta


def _batch_outcome(fn, requests):
    """The bytes of ``fn(requests)``, or the type and message it raised."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            return np.array(fn(requests), dtype=float).tobytes()
        except InvalidInputError as exc:
            return ("raised", type(exc), str(exc))


def _assert_batch_is_single_calls(batch, single, requests):
    # the batch's bytes are those of one call per request; where a request
    # raises, the batch raises what the first one that raises does
    singles = [_outcome(single, *request) for request in requests]
    failed = [outcome for outcome in singles if isinstance(outcome, tuple)]
    want = failed[0] if failed else b"".join(singles)
    assert _batch_outcome(batch, requests) == want


@given(requests=st.lists(sigma_requests(), min_size=1, max_size=12))
@example(requests=[(_LONG, 0.5, 1.99), (KappaProfile.constant(0.0, 1.0), 0.3, 0.7),
                   (_OVERFLOWING, 0.5, 15.0), (_LONG, 0.5, 2.0 * (1.0 + 1e-3))])
@settings(max_examples=60, deadline=None, derandomize=True)
def test_batched_sigma_and_tau_give_the_bytes_of_single_calls(requests):
    _assert_batch_is_single_calls(D.sigma_coeffs, sigma_coeff, requests)
    tau_requests = [(profile, 1.5 + t, t, theta) for profile, t, theta in requests]
    _assert_batch_is_single_calls(D.tau_coeffs, tau_coeff, tau_requests)


@st.composite
def defect_requests(draw):
    """(K, N, p, eta, profile, t, theta) as the defect check draws them, on
    ramps, sampled profiles or the 300-piece one; theta sometimes past its
    bound, which fails its check."""
    big_k = draw(st.floats(0.5, 2.0))
    n_param = draw(st.sampled_from([2.0, 2.5, 3.0]))
    p = draw(st.floats(max(2.0, n_param / 2.0 + 0.3), 3.5))
    fz = const_first_zero(big_k / (n_param - 1.0))
    eta = draw(st.floats(0.05, 0.45)) * fz
    profile = draw(st.one_of(ramps(4.0), sampled_profiles(), st.just(_LONG)))
    theta_max = min(profile.length, fz - eta)
    theta = draw(st.one_of(st.floats(0.05, 0.95), st.just(1.5))) * theta_max
    return big_k, n_param, p, eta, profile, draw(st.floats(0.05, 0.95)), theta


@given(requests=st.lists(defect_requests(), min_size=1, max_size=6))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_batched_defect_bounds_give_the_bytes_of_single_calls(requests):
    _assert_batch_is_single_calls(D.defect_bounds, defect_bound, requests)


def test_a_batch_stops_solving_at_its_first_failing_request(monkeypatch):
    # requests past one that fails its checks are never solved, and the
    # batch raises that request's error
    solved = []
    transfer = D._piece_transfer
    monkeypatch.setattr(D, "_piece_transfer",
                        lambda a, b, h: solved.append(len(h)) or transfer(a, b, h))
    good = KappaProfile.from_samples([[0.0, 1.0], [2.0, 3.0]])
    sigma_coeff(good, 0.5, 1.0)
    alone, solved[:] = list(solved), []
    with pytest.raises(InvalidInputError, match="t = 1.5"):
        D.sigma_coeffs([(good, 0.5, 1.0), (good, 1.5, 1.0), (_LONG, 0.5, 1.9)])
    assert solved == alone == [3]


def test_chunks_hold_whole_requests():
    # a request of more than a chunk's pieces is solved alone, and the
    # requests around it in chunks of at most _CHUNK padded entries; every
    # system has the bits of its one-request solve
    requests = [(KappaProfile.from_samples([[0.0, 4.0], [2.5, -4.0]]), 2.0)] * 60 + \
        [(_LONG, 2.0)] + [(KappaProfile.constant(0.0, 1.0), 1.0)] * 3
    systems = list(D._solve(requests))
    assert len(systems[60].widths) == 300 > D._CHUNK
    for request, system in zip(requests, systems):
        [alone] = D._solve([request])
        for name in ("nodes", "widths", "node_u", "u_series", "w_series"):
            assert np.ascontiguousarray(getattr(system, name)).tobytes() == \
                np.ascontiguousarray(getattr(alone, name)).tobytes()
