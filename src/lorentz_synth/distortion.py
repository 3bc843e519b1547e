"""Generalized sine functions and volume-distortion coefficients.

This module implements the one-dimensional comparison machinery:

* generalized sine ``sin_kappa``: the unique solution of ``u'' + kappa u = 0``
  with ``u(0) = 0``, ``u'(0) = 1`` for a continuous coefficient
  ``kappa: [0, L] -> R``, together with its first positive zero ``pi_kappa``;
* the sigma distortion coefficient ``sigma^{(t)}(theta)``
  (``= sin_kappa(t theta) / sin_kappa(theta)`` inside the conjugate radius);
* the tau coefficient ``tau^{(t)} = t^{1/N} sigma^{(t)}(theta)^{1-1/N}`` with
  the curvature profile rescaled by ``1/(N-1)``;
* the explicit constants and right-hand side of the quantitative defect
  estimate comparing ``tau`` under a variable profile against the constant
  lower bound ``K``.

Numerical contract (fixed, deterministic):
  - classical RK4 with fixed step ``L / 4096`` for the sine ODE, its step
    matrices composed by a doubling scan whose rounds allocate nothing (they
    swap two buffer sets) and keep the bits of a scan that allocates every
    round (see :func:`_rk4_scan_matrices`),
  - sigma, tau and the defect bound scan only the first
    ``int(theta / (1 - 1e-9) / h) + 4`` steps (all 4096 near L, or when
    ``L / 8192`` is subnormal), uncached, with the bits of the full solve,
    one scan per sigma or per bound by one route (see :func:`_sine_to`),
  - constant-curvature tau in closed form (:func:`const_tau`), with no solve,
  - cubic Hermite interpolation between solver nodes (the solver stores u'),
  - sign-change scan + bisection to 1e-10 for first zeros,
  - composite Simpson on 512 panels for the defect-bound quadratures.

Infinities are explicit sentinels with the conventions of
:mod:`lorentz_synth.extreal` (0 * inf = 0, inf ** alpha = inf for alpha > 0).
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .errors import InvalidInputError
from .extreal import INF, xmul, xpow

ODE_STEPS = 4096
SIMPSON_PANELS = 512
BISECT_TOL = 1e-10
# theta this close (relatively) to the computed first zero counts as conjugate
FIRST_ZERO_GUARD = 1e-9


# ---------------------------------------------------------------------------
# curvature profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class KappaProfile:
    """Piecewise-linear curvature profile ``kappa: [0, L] -> R``.

    ``params`` are strictly increasing sample parameters with first value 0
    and last value ``length``; ``values`` are the corresponding curvatures
    (units 1/time^2). Evaluation interpolates linearly between samples.
    """

    length: float
    params: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        params = np.asarray(self.params, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "values", values)
        if not (self.length > 0.0 and math.isfinite(self.length)):
            raise InvalidInputError("profile length must be finite and positive")
        if params.ndim != 1 or params.shape != values.shape or len(params) < 2:
            raise InvalidInputError("profile needs matching 1-d params/values, >= 2 samples")
        if not np.all(np.isfinite(values)):
            raise InvalidInputError("non-finite curvature sample")
        if not np.all(np.diff(params) > 0.0):
            raise InvalidInputError("sample parameters must be strictly increasing")
        if abs(params[0]) > 1e-12 or abs(params[-1] - self.length) > 1e-12:
            raise InvalidInputError("samples must span exactly [0, length]")

    # profiles are value-objects: identity for caching is the sample data
    def _key(self) -> tuple:
        return (float(self.length), self.params.tobytes(), self.values.tobytes())

    def __hash__(self):
        return hash(self._key())

    def __eq__(self, other):
        return isinstance(other, KappaProfile) and self._key() == other._key()

    def __call__(self, theta):
        """Piecewise-linear evaluation; clamps to the end samples."""
        return np.interp(theta, self.params, self.values)

    @classmethod
    def _trusted(cls, length, params: np.ndarray, values: np.ndarray) -> "KappaProfile":
        """A profile from data its caller has already checked: skips the
        checks of ``__post_init__``."""
        profile = object.__new__(cls)
        object.__setattr__(profile, "length", length)
        object.__setattr__(profile, "params", params)
        object.__setattr__(profile, "values", values)
        return profile

    @classmethod
    def constant(cls, kappa: float, length: float) -> "KappaProfile":
        if not (length > 0.0 and math.isfinite(length)):
            raise InvalidInputError("profile length must be finite and positive")
        values = np.array([kappa, kappa], dtype=float)
        if not np.all(np.isfinite(values)):
            raise InvalidInputError("non-finite curvature sample")
        return cls._trusted(length, np.array([0.0, length]), values)

    @classmethod
    def from_samples(cls, samples: Sequence[Sequence[float]], length: float | None = None) -> "KappaProfile":
        arr = np.asarray(samples, dtype=float)
        if length is None:
            length = float(arr[-1, 0])
        return cls(length, arr[:, 0].copy(), arr[:, 1].copy())

    def scaled(self, factor: float) -> "KappaProfile":
        """Profile with all curvature values multiplied by ``factor``.

        Length and params come from this checked profile; only the new
        values are checked (an inf or nan factor, or an overflowing product,
        gives non-finite samples).
        """
        values = self.values * factor
        if values.shape != self.params.shape:
            raise InvalidInputError("profile needs matching 1-d params/values, >= 2 samples")
        if not np.all(np.isfinite(values)):
            raise InvalidInputError("non-finite curvature sample")
        return KappaProfile._trusted(self.length, self.params.copy(), values)

    def reversed(self) -> "KappaProfile":
        """The time-reversed profile ``theta -> kappa(L - theta)``."""
        return KappaProfile(self.length, (self.length - self.params)[::-1].copy(),
                            self.values[::-1].copy())

    def to_json(self) -> str:
        return json.dumps({"L": self.length,
                           "samples": [[float(p), float(v)] for p, v in zip(self.params, self.values)]})

    @classmethod
    def from_json(cls, text: str) -> "KappaProfile":
        data = json.loads(text)
        return cls.from_samples(data["samples"], length=float(data["L"]))


# ---------------------------------------------------------------------------
# generalized sine
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeneralizedSine:
    """Sampled solution of ``u'' + kappa u = 0``, ``u(0)=0``, ``u'(0)=1``.

    ``first_zero`` is the first positive zero of u on (0, L], or the +inf
    sentinel if u stays positive on the whole domain.
    """

    profile: KappaProfile
    thetas: np.ndarray
    values: np.ndarray
    derivative_values: np.ndarray
    first_zero: float

    def __call__(self, theta):
        """Cubic Hermite evaluation between solver nodes (O(h^4) accurate)."""
        return _hermite_eval(self.thetas, self.values, self.derivative_values, theta)


def _hermite_eval(xs: np.ndarray, ys: np.ndarray, dys: np.ndarray, x):
    x = np.asarray(x, dtype=float)
    h = xs[1] - xs[0]
    # np.minimum(np.maximum(...)) is np.clip without its Python wrapper
    idx = np.minimum(np.maximum(((x - xs[0]) / h).astype(int), 0), len(xs) - 2)
    s = (x - xs[idx]) / h
    y0, y1 = ys[idx], ys[idx + 1]
    d0, d1 = dys[idx] * h, dys[idx + 1] * h
    h00 = (1 + 2 * s) * (1 - s) ** 2
    h10 = s * (1 - s) ** 2
    h01 = s * s * (3 - 2 * s)
    h11 = s * s * (s - 1)
    out = h00 * y0 + h10 * d0 + h01 * y1 + h11 * d1
    return out if out.shape else float(out)


def _rk4_step(c0, ch, c1, h, u, d):
    """One classical RK4 step for u'' = -c u from state (u, u'); elementwise."""
    k1u = d
    k1d = -c0 * u
    k2u = d + 0.5 * h * k1d
    k2d = -ch * (u + 0.5 * h * k1u)
    k3u = d + 0.5 * h * k2d
    k3d = -ch * (u + 0.5 * h * k2u)
    k4u = d + h * k3d
    k4d = -c1 * (u + h * k3u)
    return (u + (h / 6.0) * (k1u + 2 * k2u + 2 * k3u + k4u),
            d + (h / 6.0) * (k1d + 2 * k2d + 2 * k3d + k4d))


def _rk4_scan_matrices(kappa_half: np.ndarray, h: float, n_steps: int):
    """Prefix products of the per-step RK4 transition matrices.

    The step map is linear in (u, u'), so its matrix columns are the step
    applied to the basis states; those are computed vectorized over all steps
    and composed with a doubling scan instead of a Python-level time loop.
    Returns the four entry arrays of P_k = M_k ... M_0 (length n_steps).

    No round allocates or copies a result back: round s writes entries [s:]
    into a second set of the four arrays, each entry's second product going
    through a scratch array, copies across the head [:s] it leaves as it is,
    and swaps the two sets. Each entry is still fl(fl(a b) + fl(c d)) of the
    same operands as in a scan that allocates its products every round (the
    test oracle ``rk4_scan_allocating``), so every bit is that scan's. The
    result lies in either set: a caller copies what it keeps.

    The five arrays are allocated apart, at most 32 KB each, which the
    allocator serves from its heap: as one 5 x n block (160 KB at 4096
    steps) they crossed glibc's 128 KB mmap threshold, and a ``distortion``
    run of 150 pairs and tuples took 6k to 13k minor page faults, not 2k.
    """
    c0 = kappa_half[0:-1:2]
    ch = kappa_half[1::2]
    c1 = kappa_half[2::2]
    p00, p10 = _rk4_step(c0, ch, c1, h, 1.0, 0.0)
    p01, p11 = _rk4_step(c0, ch, c1, h, 0.0, 1.0)
    q00, q01, q10, q11, product = (np.empty(n_steps) for _ in range(5))
    s = 1
    while s < n_steps:
        # for k >= s, the product of the s steps ending at k (at [s:]) times
        # that of the s steps ending at k - s (at [:-s]), cut at M_0
        a00, a01, a10, a11 = p00[s:], p01[s:], p10[s:], p11[s:]
        b00, b01, b10, b11 = p00[:-s], p01[:-s], p10[:-s], p11[:-s]
        second = product[s:]
        for out, x, y, z, w in ((q00[s:], a00, b00, a01, b10), (q01[s:], a00, b01, a01, b11),
                                (q10[s:], a10, b00, a11, b10), (q11[s:], a10, b01, a11, b11)):
            np.multiply(x, y, out=out)
            np.multiply(z, w, out=second)
            np.add(out, second, out=out)
        q00[:s], q01[:s], q10[:s], q11[:s] = p00[:s], p01[:s], p10[:s], p11[:s]
        p00, p01, p10, p11, q00, q01, q10, q11 = q00, q01, q10, q11, p00, p01, p10, p11
        s *= 2
    return p00, p01, p10, p11


def _half_grid(profile: KappaProfile, n_steps: int) -> np.ndarray:
    """The nodes and midpoints of the first ``n_steps`` RK4 steps of
    ``L / ODE_STEPS``, where the scan reads the curvature."""
    return np.linspace(0.0, profile.length, 2 * ODE_STEPS + 1)[:2 * n_steps + 1]


def _rk4_sine_solve(profile: KappaProfile, n_steps: int = ODE_STEPS):
    """The RK4 scan of the sine ODE of ``profile`` over its first ``n_steps``
    steps of ``L / ODE_STEPS``: the solver nodes and the four entry arrays of
    the prefix transition matrices (see :func:`_rk4_scan_matrices`), constant
    profiles included; constant-curvature tau does not come here (see
    :func:`const_tau`).

    A scan of n steps is the first n entries of the full scan, byte for byte:
    round s of the doubling scan updates only the indices k >= s, and P_k
    reads only M_0 ... M_k. The half grid is a slice of the full
    ``linspace`` (a shorter one would move the nodes' bits), and np.interp
    evaluates it element by element."""
    half_grid = _half_grid(profile, n_steps)
    kappa_half = profile(half_grid)
    entries = _rk4_scan_matrices(kappa_half, profile.length / ODE_STEPS, n_steps)
    # the nodes are a view, so a cached solve keeps the half grid (66 KB):
    # copied out after the scan they measured no faster, and copied before it
    # the sine-scan run took 57k minor page faults instead of 1.1k
    return (half_grid[::2], *entries)


@dataclass(frozen=True)
class FundamentalSystem:
    """Both fundamental solutions of u'' + kappa u = 0 on [0, L], sampled:
    u with (u, u')(0) = (0, 1) and w with (w, w')(0) = (1, 0). Their Wronskian
    is identically 1, which lets segment-restricted sines be recombined as
    w(x0) u(x) - u(x0) w(x) without re-solving per segment."""

    profile: KappaProfile
    thetas: np.ndarray
    u: np.ndarray
    du: np.ndarray
    w: np.ndarray
    dw: np.ndarray

    def eval_u(self, x):
        return _hermite_eval(self.thetas, self.u, self.du, x)

    def eval_w(self, x):
        return _hermite_eval(self.thetas, self.w, self.dw, x)

    @cached_property
    def sine(self) -> GeneralizedSine:
        """u as a :class:`GeneralizedSine`; its first zero is bisected on the
        first access only."""
        return GeneralizedSine(self.profile, self.thetas, self.u, self.du,
                               _first_zero_from_samples(self.thetas, self.u, self.du))


# Measured reuse, every lookup logged: in each default run and in
# `suite --quick` a profile asked for again is the one asked for just before
# it (1 hit in the 6 lookups of `distortion`, 63 in 64 of `needles`, 66 in 83
# of the suite; sigma, tau and the defect bound scan outside the cache, and
# no other default run asks); in the tier-1 tests,
# measured while sigma still read every solve here, every fundamental-system
# hit came within 14 distinct profiles, and 16 entries kept 2329 of the 2355
# hits that 512 would.
# An entry holds four arrays of 4097 floats and the 8193-node half grid, 197 KB.
SINE_CACHE_SIZE = 16


@lru_cache(maxsize=SINE_CACHE_SIZE)
def sine_fundamental(profile: KappaProfile) -> FundamentalSystem:
    """Fundamental system for the sine ODE of ``profile``: the one cached RK4
    solve of the profile, which :func:`generalized_sine` reads too."""
    thetas, p00, p01, p10, p11 = _rk4_sine_solve(profile)
    return FundamentalSystem(
        profile, thetas,
        np.concatenate(([0.0], p01)), np.concatenate(([1.0], p11)),
        np.concatenate(([1.0], p00)), np.concatenate(([0.0], p10)))


def _first_zero_from_samples(thetas, u, du) -> float:
    # a zero or a change of sign between neighbours: a sample times the sign
    # of the next, since the product of two samples underflows to 0 for a
    # profile shorter than about 1e-159
    sign_change = np.nonzero(u[1:-1] * np.sign(u[2:]) <= 0.0)[0]
    if len(sign_change) == 0:
        return INF
    i = sign_change[0] + 1
    if u[i + 1] == 0.0 and u[i] > 0.0:
        return float(thetas[i + 1])
    lo, hi = thetas[i], thetas[i + 1]
    flo = u[i]

    def f(x):
        return _hermite_eval(thetas, u, du, x)

    while hi - lo > BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:     # adjacent floats: past ~1e6 their gap exceeds the tolerance
            break
        if f(mid) * flo > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def generalized_sine(profile: KappaProfile) -> GeneralizedSine:
    """Solve the generalized sine ODE for ``profile`` (cached, deterministic)."""
    return sine_fundamental(profile).sine


def first_zero(profile: KappaProfile) -> float:
    """First positive zero of the generalized sine (+inf sentinel if none)."""
    return generalized_sine(profile).first_zero


# closed forms for constant curvature; used by model densities and the defect
# constants, and independently re-derived in the test oracles
def const_sine(kappa: float, theta):
    """Closed-form generalized sine for constant curvature."""
    theta = np.asarray(theta, dtype=float)
    if kappa > 0.0:
        rt = math.sqrt(kappa)
        out = np.sin(rt * theta) / rt
    elif kappa == 0.0:
        out = theta.copy()
    else:
        rt = math.sqrt(-kappa)
        out = np.sinh(rt * theta) / rt
    return out if out.shape else float(out)


def const_first_zero(kappa: float) -> float:
    """pi / sqrt(kappa) for positive constant curvature, +inf otherwise."""
    if kappa > 0.0:
        return math.pi / math.sqrt(kappa)
    return INF


# ---------------------------------------------------------------------------
# distortion coefficients
# ---------------------------------------------------------------------------


def sigma_coeff(profile: KappaProfile, t: float, theta: float) -> float:
    """sigma^{(t)}(theta): t at theta = 0, the sine ratio inside the conjugate
    radius, +inf sentinel at or past it."""
    if not 0.0 <= t <= 1.0:
        raise InvalidInputError(f"t = {t} outside [0, 1]")
    if not 0.0 <= theta <= profile.length + 1e-12:
        raise InvalidInputError(f"theta = {theta} outside [0, {profile.length}]")
    if theta == 0.0:
        return float(t)
    sine = _sine_to(profile, theta)
    if sine is None:
        return INF
    # one lookup of both points: elementwise, so each has its scalar bits
    num, denom = sine(np.array([t * theta, theta])).tolist()
    if not (math.isfinite(num) and math.isfinite(denom)):
        raise _sine_overflow(sine, theta)
    return num / denom


def _sine_to(profile: KappaProfile, theta: float) -> GeneralizedSine | None:
    """The sine every sigma^{(r)}(theta) reads, 0 < theta <= L + 1e-12: the
    first int(theta / (1 - guard) / h) + 4 RK4 steps (see :func:`_prefix_sine`),
    all of them near L or when L / 8192 is subnormal (L below about 1.8e-304,
    where the nodes are not h apart); None at or past the guarded first zero."""
    reach, h = theta / (1.0 - FIRST_ZERO_GUARD), profile.length / ODE_STEPS
    n_steps = ODE_STEPS
    if reach < (ODE_STEPS - 4) * h and profile.length / (2 * ODE_STEPS) >= sys.float_info.min:
        n_steps = int(reach / h) + 4
    sine = _prefix_sine(profile, n_steps)
    return None if theta >= sine.first_zero * (1.0 - FIRST_ZERO_GUARD) else sine


def _prefix_sine(profile: KappaProfile, n_steps: int) -> GeneralizedSine:
    """The sine of ``profile`` on its first ``n_steps`` RK4 steps, uncached,
    for sigma at theta < (n_steps - 3) h (1 - FIRST_ZERO_GUARD),
    or at any theta when ``n_steps`` is ODE_STEPS (the full solve's bits,
    first zero and overflow included).

    There it gives sigma the bits of the full solve: u(t theta) and
    u(theta) are Hermite lookups whose clip at len - 2 never binds, and a
    first zero inside the prefix is the full solve's first zero. With none
    inside, the full one lies past (n_steps - 1) h > theta / (1 - guard), so
    the guard is false on both sides; ``first_zero`` then reads +inf where
    the full solve's is finite, which is why this sine stays private."""
    thetas, _, p01, _, p11 = _rk4_sine_solve(profile, n_steps)
    u, du = np.concatenate(([0.0], p01)), np.concatenate(([1.0], p11))
    return GeneralizedSine(profile, thetas, u, du, _first_zero_from_samples(thetas, u, du))


def _sine_overflow(sine: GeneralizedSine, theta: float) -> InvalidInputError:
    """Never a silent NaN: a sine that overflowed in the RK4 scan would make
    the ratio inf/inf. Only this error path reads the curvature again, on
    the half grid of the steps up to theta (one past the last node at or
    below it, which a lookup at theta may read; so the prefix and the full
    scan name the same cause): where it is not finite, the interpolated
    slope between two samples overflowed, and the profile is too steep
    rather than too negative."""
    thetas = sine.thetas
    steps = min(int(np.searchsorted(thetas, theta, side="right")) + 1, len(thetas) - 1)
    kappa = sine.profile(_half_grid(sine.profile, steps))
    if not np.isfinite(kappa).all():
        return InvalidInputError(f"the curvature is not finite on the RK4 grid of [0, {theta}]: "
                                 "the profile's slope between two samples overflows")
    return InvalidInputError(f"the generalized sine overflows on [0, {theta}]: "
                             "the profile is too negative for the RK4 scan")


def tau_coeff(profile: KappaProfile, n_param: float, t: float, theta: float) -> float:
    """tau^{(t)}(theta) = t^{1/N} sigma^{(t)}(theta)^{1 - 1/N} with the profile
    rescaled by 1/(N-1); follows the 0 * inf = 0 convention."""
    if n_param <= 1.0:
        raise InvalidInputError("dimension parameter must exceed 1")
    sig = sigma_coeff(profile.scaled(1.0 / (n_param - 1.0)), t, theta)
    return xmul(math.pow(t, 1.0 / n_param), xpow(sig, 1.0 - 1.0 / n_param))


def const_tau(K: float, n_param: float, t, thetas) -> np.ndarray:
    """tau^{(t)}_{K,N}(theta) for every t of ``t`` (a scalar or a 1-d array)
    and every entry of the array ``thetas``; shape ``shape(t) + shape(thetas)``.

    Closed form t^{1/N} (s_k(t theta) / s_k(theta))^{1 - 1/N} with
    k = K/(N-1), evaluated in one pass with no sine solve: t at theta = 0,
    and at or past the guarded first zero of s_k the +inf sentinel, or 0 for
    t = 0 (0 * inf = 0). For k < 0 the sinh ratio enters through its log,
    -a(1-t)theta + log((1 - e^{-2at theta}) / (1 - e^{-2a theta})) with
    a = sqrt(-k), which neither overflows where sinh(a theta) would nor
    underflows before the power 1 - 1/N is taken.
    """
    if n_param <= 1.0:
        raise InvalidInputError("dimension parameter must exceed 1")
    ts = np.asarray(t, dtype=float)
    if ts.ndim > 1 or not np.all((ts >= 0.0) & (ts <= 1.0)):
        raise InvalidInputError(f"t = {t} outside [0, 1]")
    thetas = np.asarray(thetas, dtype=float)
    if not np.all((thetas >= 0.0) & (thetas < INF)):
        raise InvalidInputError("theta must be finite and nonnegative")
    kappa = K / (n_param - 1.0)
    tt = np.atleast_1d(ts).reshape((-1,) + (1,) * thetas.ndim)
    power = 1.0 - 1.0 / n_param
    with np.errstate(divide="ignore", invalid="ignore"):
        if kappa < 0.0:
            a = math.sqrt(-kappa)
            log_sigma = a * (tt * thetas - thetas) + np.log(
                np.expm1(-2.0 * a * (tt * thetas)) / np.expm1(-2.0 * a * thetas))
            sigma_power = np.exp(power * log_sigma)
        else:
            sigma_power = (const_sine(kappa, tt * thetas) / const_sine(kappa, thetas)) ** power
        # both sine ratios are t to double precision for x = sqrt(|k|) theta
        # below 2^-27, also where x underflows and the formulas read 0 / 0
        if kappa != 0.0:
            sigma_power = np.where(math.sqrt(abs(kappa)) * thetas < 2.0 ** -27,
                                   tt ** power, sigma_power)
        tau = tt ** (1.0 / n_param) * sigma_power
    conjugate = thetas >= const_first_zero(kappa) * (1.0 - FIRST_ZERO_GUARD)
    tau = np.where(conjugate, np.where(tt == 0.0, 0.0, INF), tau)
    out = np.where(thetas == 0.0, tt, tau)
    return out if ts.ndim else out[0]


def const_ttilde(K: float, n_param: float, thetas) -> np.ndarray:
    """:func:`ttilde_coeff` for every entry of the array ``thetas``, one
    scalar call per distinct theta, scattered back (1 everywhere for K = 0)."""
    if K == 0.0:
        return np.ones(np.shape(thetas))
    thetas = np.asarray(thetas, dtype=float)
    distinct, inverse = np.unique(thetas, return_inverse=True)
    table = np.array([ttilde_coeff(K, n_param, float(v)) for v in distinct], dtype=float)
    return table[inverse].reshape(thetas.shape)


def ttilde_coeff(K: float, n_param: float, theta: float) -> float:
    """Model coefficient for the wave-operator comparison: the t-derivative at
    t = 1 of the constant-curvature tau coefficient.

    Closed form: 1/N + (theta/N) sqrt(K(N-1)) cot(theta sqrt(K/(N-1))) for
    K > 0, the coth analogue for K < 0, and 1 for K = 0; the removable
    singularity at theta = 0 is patched with its limit 1.
    """
    if n_param <= 1.0:
        raise InvalidInputError("dimension parameter must exceed 1")
    if theta == 0.0:
        return 1.0
    N = n_param
    if K > 0.0:
        z = theta * math.sqrt(K / (N - 1.0))
        if z >= math.pi:
            raise InvalidInputError("theta at or past the conjugate radius")
        return 1.0 / N + (theta / N) * math.sqrt(K * (N - 1.0)) / math.tan(z)
    if K == 0.0:
        return 1.0
    z = theta * math.sqrt(-K / (N - 1.0))
    return 1.0 / N + (theta / N) * math.sqrt(-K * (N - 1.0)) / math.tanh(z)


# ---------------------------------------------------------------------------
# defect estimate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DefectConstants:
    """The four explicit constants entering the defect estimate."""

    c_np: float
    d_const: float
    omega: float
    lam: float
    params: tuple = field(default=())

    def __post_init__(self):
        if self.params and self.params[0] <= 0.0 and self.lam != 1.0:
            raise InvalidInputError("lambda must be 1 for nonpositive K")


def defect_constants(K: float, n_param: float, p: float, eta: float) -> DefectConstants:
    """Evaluate the defect-estimate constants for parameters (K, N, p, eta).

    Preconditions: N >= 2, p > N/2, and for K > 0 the shift eta must lie in
    (0, pi_{K/(N-1)} / 2); for K <= 0 the eta constraint is vacuous (the
    conjugate radius is infinite) but eta must still be positive.
    """
    N = n_param
    if N < 2.0:
        raise InvalidInputError("need N >= 2")
    if p <= N / 2.0:
        raise InvalidInputError("need p > N/2")
    if eta <= 0.0:
        raise InvalidInputError("need eta > 0")
    c_np = math.pow(2.0 * p - 1.0, p) * math.pow((N - 1.0) / (2.0 * p - N), p - 1.0)
    if K > 0.0:
        kt = K / (N - 1.0)
        pi_b = math.pi / math.sqrt(kt)
        if eta >= pi_b / 2.0:
            raise InvalidInputError("eta must be below half the conjugate radius")
        # maximize sin^{1-N} over [pi_b/2, pi_b - eta] on a fine grid
        rr = np.linspace(pi_b / 2.0, pi_b - eta, 4097)
        svals = np.sin(math.sqrt(kt) * rr) / math.sqrt(kt)
        d_const = 1.0 + float(np.max(svals ** (1.0 - N)))
        s_eta = math.sin(math.sqrt(kt) * eta) / math.sqrt(kt)
        omega = max(c_np, math.pow(s_eta, N + 1.0 - 4.0 * p))
        lam = d_const
    else:
        d_const = 1.0
        omega = c_np
        lam = 1.0
    return DefectConstants(c_np, d_const, omega, lam, params=(K, N, p, eta))


def simpson_uniform(y: np.ndarray, a: float, b: float) -> float:
    """Composite Simpson on a uniform grid with an even panel count."""
    n = len(y) - 1
    if n % 2 != 0:
        raise InvalidInputError("Simpson needs an even number of panels")
    h = (b - a) / n
    return float(h / 3.0 * (y[0] + y[-1] + 4.0 * np.sum(y[1:-1:2]) + 2.0 * np.sum(y[2:-1:2])))


def _sigma_profile_values(profile: KappaProfile, theta: float, r_nodes: np.ndarray):
    """sigma^{(r)}(theta) for all r in r_nodes, with the bits of
    :func:`sigma_coeff`; None at the conjugate radius (sigma is the +inf
    sentinel there) or where the sine at theta is not positive."""
    sine = _sine_to(profile, theta)
    if sine is None:
        return None
    num, denom = sine(r_nodes * theta), sine(theta)
    if not (math.isfinite(denom) and np.isfinite(num).all()):
        raise _sine_overflow(sine, theta)
    if denom <= 0.0:
        return None
    return num / denom


def defect_bound(K: float, n_param: float, p: float, eta: float,
                 profile: KappaProfile, t: float, theta: float) -> float:
    """Right-hand side of the defect estimate for tau coefficients.

    Bounds tau_{K}^{(t)}(theta) - tau_{profile}^{(t)}(theta) by the product of
    the constant factor (Lambda Omega^{1/(2p-1)})^{1/N}, an L^N mean of tau
    over [t, 1], and a weighted integral of the negative part (kappa - K)_-.
    Both integrals use composite Simpson on 512 panels. Returns +inf when the
    variable profile reaches a conjugate point at theta (legal: the estimate
    is void there). The result is nonnegative.
    """
    N = n_param
    consts = defect_constants(K, N, p, eta)
    pi_b = const_first_zero(K / (N - 1.0))
    if not 0.0 < t < 1.0:
        raise InvalidInputError("t must lie strictly inside (0, 1)")
    theta_max = min(profile.length, pi_b - eta)
    if not 0.0 < theta < theta_max:
        raise InvalidInputError(f"theta must lie strictly inside (0, {theta_max})")

    # sigma at the nodes of both quadratures, from one prefix scan
    r_full = np.linspace(0.0, 1.0, 2 * SIMPSON_PANELS + 1)
    r_tail = np.linspace(t, 1.0, SIMPSON_PANELS + 1)
    sig = _sigma_profile_values(profile.scaled(1.0 / (N - 1.0)), theta,
                                np.concatenate((r_full, r_tail)))
    if sig is None:
        return INF
    sig, sig_tail = sig[:len(r_full)], sig[len(r_full):]

    # \int_t^1 tau^{(r)}(theta)^N dr  with  tau^N = r sigma^{N-1}
    tau_pow_n = r_tail * sig_tail ** (N - 1.0)
    int_tau = simpson_uniform(tau_pow_n, t, 1.0)

    # \int_0^1 (kappa(r theta) - K)_-  sigma^{(r)}(theta)^{N-1} dr
    neg_part = np.maximum(K - profile(r_full * theta), 0.0)
    int_neg = simpson_uniform(neg_part * sig ** (N - 1.0), 0.0, 1.0)

    lead = math.pow(consts.lam * math.pow(consts.omega, 1.0 / (2.0 * p - 1.0)), 1.0 / N)
    mid = math.pow(int_tau, 2.0 * (p - 1.0) / (N * (2.0 * p - 1.0)))
    tail = math.pow(t * theta ** (2.0 * p) * int_neg, 1.0 / (N * (2.0 * p - 1.0)))
    return lead * mid * tail
