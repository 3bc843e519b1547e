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
from lorentz_synth.extreal import INF, is_inf

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
    s = generalized_sine(profile_const(4.0, 1.5))
    # u' = cos(2 theta) for kappa = 4
    assert np.max(np.abs(s.derivative_values - np.cos(2.0 * s.thetas))) < 1e-9


def _general_scan(kappa_half, length):
    return D._rk4_scan_matrices(kappa_half, length / D.ODE_STEPS, D.ODE_STEPS)


def _same_bits(a, b):
    return all(x.tobytes() == y.tobytes() for x, y in zip(a, b))


@pytest.mark.parametrize("kappa", [-0.0, 0.0, 1.0, -2.5])
def test_sine_solve_scans_the_evaluated_half_grid(kappa):
    # every profile, constant or not, takes the general scan of the half grid
    # it evaluates: np.interp of a -0.0 profile gives +0.0 inside and -0.0 at
    # its ends, and the scan sees those values
    profile = KappaProfile.constant(kappa, 1.5)
    half_grid = np.linspace(0.0, 1.5, 2 * D.ODE_STEPS + 1)
    thetas, *entries = D._rk4_sine_solve(profile)
    assert thetas.tobytes() == half_grid[::2].tobytes()
    assert _same_bits(entries, _general_scan(profile(half_grid), 1.5))


def test_one_cached_solve_per_profile_for_both_entry_points(monkeypatch):
    # generalized_sine and sine_fundamental read the same RK4 solve, whichever
    # asks first, and the first zero is bisected once per solve
    solves, bisections = [], []
    solve, bisect = D._rk4_sine_solve, D._first_zero_from_samples
    monkeypatch.setattr(D, "_rk4_sine_solve", lambda p: solves.append(p) or solve(p))
    monkeypatch.setattr(D, "_first_zero_from_samples",
                        lambda *a: bisections.append(a) or bisect(*a))
    D.sine_fundamental.cache_clear()
    profile = KappaProfile.from_samples([[0.0, 4.0], [1.0, 1.0], [3.0, 2.0]])
    sine = generalized_sine(profile)
    fs = D.sine_fundamental(profile)
    assert generalized_sine(profile) is sine
    assert first_zero(profile) == sine.first_zero
    assert len(solves) == 1 and len(bisections) == 1
    assert sine.values.tobytes() == fs.u.tobytes()
    assert sine.derivative_values.tobytes() == fs.du.tobytes()
    assert sine.thetas.tobytes() == fs.thetas.tobytes()

    D.sine_fundamental.cache_clear()
    fs = D.sine_fundamental(profile.reversed())
    assert generalized_sine(profile.reversed()).values.tobytes() == fs.u.tobytes()
    assert len(solves) == 2

    # the cache stays bounded however many distinct profiles pass through it
    size = D.sine_fundamental.cache_info().maxsize
    for k in range(size + 5):
        generalized_sine(KappaProfile.constant(0.01 * k, 1.0))
    info = D.sine_fundamental.cache_info()
    assert info.currsize <= size
    assert len(solves) == 2 + size + 5


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
    # more distinct thetas than the sine cache holds, each asked at three t:
    # the closed form solves no sine and calls no tau_coeff at all, and a
    # repeated theta gives the same value at every t
    calls = []
    scalar = D.tau_coeff
    monkeypatch.setattr(D, "tau_coeff", lambda *a: calls.append(a) or scalar(*a))
    thetas = np.linspace(0.05, 1.5, 600)
    D.sine_fundamental.cache_clear()
    got = const_tau(-1.0, 3.0, [0.25, 0.5, 0.75], np.concatenate([thetas, thetas[::-1]]))
    assert D.sine_fundamental.cache_info().misses == 0
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
    # the RK4 solve on a constant profile against const_tau: the anchor that
    # ties the ODE route to the closed form
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
    # the RK4 scan of a strongly negative profile overflows to inf, and the
    # sine ratio would be inf/inf
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(InvalidInputError, match="overflows"):
            call()


@pytest.mark.parametrize("coeff", ["sigma", "tau"])
@pytest.mark.parametrize("samples, theta, cause", [
    # np.interp's slope 1e10 / 1e-300 overflows: the half grid is +inf past 0
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
    # the prefix scan and the full solve raise the same message
    _assert_prefix_keeps_the_full_solve(profile, 0.5, theta, 3.0)


def test_sigma_input_validation():
    with pytest.raises(InvalidInputError):
        sigma_coeff(profile_const(1.0), -0.1, 0.5)
    with pytest.raises(InvalidInputError):
        sigma_coeff(profile_const(1.0), 0.5, 2.5)
    with pytest.raises(InvalidInputError):
        tau_coeff(profile_const(1.0), 1.0, 0.5, 0.5)


# --- sigma's prefix scan against the full solve ------------------------------

def _outcome(fn, *args):
    """The bytes of ``fn(*args)``, or the type and message of what it raised."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            return np.float64(fn(*args)).tobytes()
        except InvalidInputError as exc:
            return ("raised", type(exc), str(exc))


def _assert_prefix_keeps_the_full_solve(profile, t, theta, n_param):
    assert _outcome(sigma_coeff, profile, t, theta) == \
        _outcome(oracles.sigma_full_solve, profile, t, theta)
    assert _outcome(tau_coeff, profile, n_param, t, theta) == \
        _outcome(oracles.tau_full_solve, profile, n_param, t, theta)


def _nodes(length):
    return np.linspace(0.0, length, 2 * D.ODE_STEPS + 1)[::2]


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
    """theta anywhere on [0, L], on a solver node, at L and just past it."""
    length = profile.length
    kind = draw(st.sampled_from(["any", "node", "end"]))
    if kind == "any":
        return draw(st.floats(0.0, length))
    if kind == "node":
        return float(_nodes(length)[draw(st.integers(1, D.ODE_STEPS))])
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


# L / 8192 subnormal: 0.0 (1e-321); 24.3 subnormal units, so the nodes are 48
# units apart where h is 49 (199066 units); h normal with an odd last bit, so
# L / 8192 rounds (4096 min(1 + eps)); and a normal step (1e-300)
_SUBNORMAL_STEP = 199066 * 5e-324
_ODD_MIN_STEP = D.ODE_STEPS * float(np.nextafter(sys.float_info.min, 1.0))


@pytest.mark.parametrize("length, theta", [
    (1e-321, 1e-321), (1e-321, 5e-13),
    (_SUBNORMAL_STEP, 0.98 * _SUBNORMAL_STEP), (_SUBNORMAL_STEP, 0.5 * _SUBNORMAL_STEP),
    (_ODD_MIN_STEP, 0.98 * _ODD_MIN_STEP), (_ODD_MIN_STEP, _ODD_MIN_STEP),
    (1e-300, 1e-300), (1e-300, 3e-301)])
def test_lengths_whose_step_underflows_keep_the_bits(length, theta):
    # where L / 8192 is subnormal the nodes are not h apart: sigma scans the
    # whole profile there
    _assert_prefix_keeps_the_full_solve(KappaProfile.constant(1.0, length), 0.5, theta, 2.0)


@given(kappa=st.floats(-1e5, -1e3), length=st.floats(5.0, 20.0), frac=st.floats(0.0, 1.0),
       t=st.floats(0.0, 1.0))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_overflowing_sines_keep_the_outcome_of_the_full_solve(kappa, length, frac, t):
    # the full scan overflows to inf (and inf - inf to NaN) far before L; the
    # prefix must raise where it raised and return its value where it did not
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


@pytest.mark.parametrize("n_steps", [1, 2, 3, 5, 1000, 2049, 4095])
def test_a_short_scan_is_the_head_of_the_full_scan(n_steps):
    profile = KappaProfile.from_samples([[0.0, 3.0], [0.7, -8.0], [1.9, 12.0], [2.5, 0.4]])
    h = profile.length / D.ODE_STEPS
    kappa_half = profile(np.linspace(0.0, profile.length, 2 * D.ODE_STEPS + 1))
    full = D._rk4_scan_matrices(kappa_half, h, D.ODE_STEPS)
    head = D._rk4_scan_matrices(kappa_half[:2 * n_steps + 1], h, n_steps)
    assert _same_bits(head, [entry[:n_steps] for entry in full])
    thetas, *entries = D._rk4_sine_solve(profile, n_steps)
    assert thetas.tobytes() == _nodes(profile.length)[:n_steps + 1].tobytes()
    assert _same_bits(entries, head)


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
    # the round count changes at powers of two, and with it the buffer set
    # that holds the result
    h = profile.length / D.ODE_STEPS
    kappa_half = profile(np.linspace(0.0, profile.length, 2 * D.ODE_STEPS + 1))
    kappa_half = kappa_half[:2 * n_steps + 1]
    with np.errstate(over="ignore", invalid="ignore"):
        got = D._rk4_scan_matrices(kappa_half, h, n_steps)
        want = oracles.rk4_scan_allocating(kappa_half, h, n_steps)
    assert all(len(entry) == n_steps for entry in got)
    assert _same_bits(got, want)


@pytest.mark.parametrize("n_steps", [2048, 2049, D.ODE_STEPS])
def test_kept_solves_own_their_memory(n_steps):
    # a cache entry and a prefix sine keep copies of the scan's entries, never
    # its buffers (it returns its second set after an odd number of rounds,
    # as for 2048 steps), so an entry stays at 197 KB
    profile = KappaProfile.from_samples([[0.0, 4.0], [1.0, -3.0], [3.0, 2.0]])
    D.sine_fundamental.cache_clear()
    fs = D.sine_fundamental(profile)
    assert all(a.base is None for a in (fs.u, fs.du, fs.w, fs.dw))
    # the nodes are a view of the 8193-node half grid alone
    assert fs.thetas.base.shape == (2 * D.ODE_STEPS + 1,)
    assert sum(a.nbytes for a in (fs.u, fs.du, fs.w, fs.dw, fs.thetas.base)) == 196648
    sine = D._prefix_sine(profile, n_steps)
    assert sine.values.base is None and sine.derivative_values.base is None
    assert sine.thetas.base.shape == (2 * D.ODE_STEPS + 1,)


def test_sigma_scans_only_the_steps_up_to_theta(monkeypatch):
    # below the last four steps sigma solves a prefix, at the end of the
    # profile all of it; never through the cache
    scans = []
    scan = D._rk4_scan_matrices
    monkeypatch.setattr(D, "_rk4_scan_matrices",
                        lambda k, h, n: scans.append(n) or scan(k, h, n))
    profile = KappaProfile.from_samples([[0.0, 4.0], [1.0, 1.0], [3.0, 2.0]])
    h = profile.length / D.ODE_STEPS
    D.sine_fundamental.cache_clear()
    for theta in (1e-9, 0.01, 0.5, 1.3, float(_nodes(3.0)[2000]), 2.99):
        sigma_coeff(profile, 0.5, theta)
        assert scans[-1] <= int(theta / (1.0 - D.FIRST_ZERO_GUARD) / h) + 4
        tau_coeff(profile, 3.0, 0.5, theta)
        assert scans[-1] <= int(theta / (1.0 - D.FIRST_ZERO_GUARD) / h) + 4
    assert D.sine_fundamental.cache_info().misses == 0
    for theta in (3.0, 3.0 + 5e-13):
        sigma_coeff(profile, 0.5, theta)
        assert scans[-1] == D.ODE_STEPS
    assert D.sine_fundamental.cache_info().misses == 0


# --- the defect bound's sigma: sigma_coeff's route ---------------------------

@st.composite
def ramps_and_thetas(draw):
    """A two-sample ramp in [-30, 30] on [0, L], L in [0.2, 3], or level on a
    length whose L / 8192 is subnormal (a ramp's slope would overflow there),
    and theta anywhere in (0, L], within four steps of L, or at it."""
    length = draw(st.one_of(st.floats(0.2, 3.0), st.sampled_from([1e-321, _SUBNORMAL_STEP])))
    k0 = draw(st.floats(-30.0, 30.0))
    k1 = draw(st.floats(-30.0, 30.0)) if length > 1.0e-300 else k0
    profile = KappaProfile.from_samples([[0.0, k0], [length, k1]])
    kind = draw(st.sampled_from(["any", "near end", "end"]))
    if kind == "any":
        theta = draw(st.floats(0.0, length, exclude_min=True))
    elif kind == "near end":
        theta = length * (1.0 - draw(st.floats(0.0, 4.0)) / D.ODE_STEPS)
    else:
        theta = length
    assume(theta > 0.0)
    return profile, theta


@given(case=ramps_and_thetas(), n_param=st.sampled_from([2.0, 2.5, 3.0]),
       rs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_the_defect_bound_reads_the_bits_of_sigma_coeff(case, n_param, rs):
    # every node's sigma is sigma_coeff's, bit for bit, and where the bound
    # reads none (None) sigma_coeff is the +inf sentinel at every r
    profile, theta = case
    scaled = profile.scaled(1.0 / (n_param - 1.0))
    rs = np.array([0.0, 1.0] + rs)
    got = D._sigma_profile_values(scaled, theta, rs)
    want = [sigma_coeff(scaled, float(r), theta) for r in rs]
    if got is None:
        assert all(w == INF for w in want)
    else:
        assert got.tobytes() == np.array(want).tobytes()


def test_the_defect_bound_takes_one_prefix_scan_and_no_cached_solve(monkeypatch):
    scans = []
    scan = D._rk4_scan_matrices
    monkeypatch.setattr(D, "_rk4_scan_matrices",
                        lambda k, h, n: scans.append(n) or scan(k, h, n))
    profile = KappaProfile.from_samples([[0.0, 0.2], [2.0, 1.4]])
    D.sine_fundamental.cache_clear()
    for theta in (0.3, 1.2, 1.9):
        assert 0.0 < defect_bound(1.0, 2.5, 2.5, 0.4, profile, 0.4, theta) < INF
    info = D.sine_fundamental.cache_info()
    assert info.hits + info.misses == 0
    h = profile.length / D.ODE_STEPS
    assert scans == [int(theta / (1.0 - D.FIRST_ZERO_GUARD) / h) + 4 for theta in (0.3, 1.2, 1.9)]


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
