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
  - the sine ODE solved exactly on the linear pieces of the profile, cut at
    its samples and into pieces with |kappa| h^2 <= 1 (at most MAX_PIECES):
    each piece's transfer a TERMS-term Taylor polynomial in the offset whose
    dropped terms sum below 1e-17 (see :func:`_piece_transfer`), the pieces'
    matrices composed by a doubling scan (see :func:`_product_scan`),
  - profile lengths whose L / 8192 is a normal float (L from about
    1.82e-304); shorter profiles are rejected,
  - sigma, tau and the defect bound solve only the pieces up to theta, with
    the whole profile's bits, by one route (see :func:`_sines_to`); their
    batched forms solve many requests together, a chunk of consecutive
    requests at a time (see :func:`_solve`), each with the bits of a
    one-request call, and raise the error of the first request that fails,
  - sigma is t where the sine at theta underflows to 0 (a subnormal theta),
  - constant-curvature tau in closed form (:func:`const_tau`), with no solve,
    and t (theta / s_k(theta))^{1 - 1/N} where t theta underflows,
  - sign change between piece ends + bisection to 1e-10 for first zeros,
  - composite Simpson on 512 panels for the defect-bound quadratures.

Infinities are explicit sentinels with the conventions of
:mod:`lorentz_synth.extreal` (0 * inf = 0, inf ** alpha = inf for alpha > 0).
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import InvalidInputError
from .extreal import INF, xmul, xpow

TERMS = 30
MAX_PIECES = 2 ** 14
SIMPSON_PANELS = 512
BISECT_TOL = 1e-10
# theta this close (relatively) to the computed first zero counts as conjugate
FIRST_ZERO_GUARD = 1e-9


# ---------------------------------------------------------------------------
# curvature profiles
# ---------------------------------------------------------------------------


def _check_length(length: float) -> None:
    """A profile length must be finite, positive, and at least 8192 times the
    smallest normal float (about 1.82e-304): lengths whose L / 8192 is
    subnormal are rejected."""
    if not (length > 0.0 and math.isfinite(length)):
        raise InvalidInputError("profile length must be finite and positive")
    if length / 8192 < sys.float_info.min:
        raise InvalidInputError(f"profile length {length} below "
                                f"{8192 * sys.float_info.min}: L / 8192 is subnormal")


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
        _check_length(self.length)
        if params.ndim != 1 or params.shape != values.shape or len(params) < 2:
            raise InvalidInputError("profile needs matching 1-d params/values, >= 2 samples")
        if not np.all(np.isfinite(values)):
            raise InvalidInputError("non-finite curvature sample")
        if not np.all(np.diff(params) > 0.0):
            raise InvalidInputError("sample parameters must be strictly increasing")
        if abs(params[0]) > 1e-12 or abs(params[-1] - self.length) > 1e-12:
            raise InvalidInputError("samples must span exactly [0, length]")

    # profiles are value-objects: equality and hash read the sample data
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
        _check_length(length)
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


def _pieces(profiles):
    """The profiles cut at their samples, and each sample interval into equal
    pieces with max |kappa| h^2 <= 1 on it: per profile its piece count, or 0
    and the InvalidInputError of one that needs more than MAX_PIECES (else
    None); the n + 1 piece ends of each profile in turn; and over the pieces
    of all profiles in order, kappa at each piece's start, its slope and its
    width h. Every value is that of the profile cut alone: the arithmetic is
    elementwise over the sample intervals, with those between two profiles
    dropped."""
    sizes = np.array([len(profile.params) for profile in profiles])
    params = np.concatenate([profile.params for profile in profiles])
    values = np.concatenate([profile.values for profile in profiles])
    ends = sizes.cumsum()
    inner = np.ones(len(params) - 1, dtype=bool)
    inner[ends[:-1] - 1] = False
    lo, lo_values = params[:-1][inner], values[:-1][inner]
    dp, dv = (params[1:] - params[:-1])[inner], (values[1:] - values[:-1])[inner]
    size = np.abs(values)
    counts = np.maximum(np.ceil(dp * np.sqrt(np.maximum(size[:-1], size[1:])[inner])), 1.0)
    first = ends - sizes - np.arange(len(profiles))      # each profile's first interval
    totals = np.add.reduceat(counts, first)
    errors = [None] * len(profiles)
    for i in np.nonzero(~(totals <= MAX_PIECES))[0]:
        total = counts[first[i]:first[i] + sizes[i] - 1].sum()
        errors[i] = InvalidInputError(f"the profile needs {total:g} pieces with |kappa| h^2 "
                                      f"<= 1, more than {MAX_PIECES}: sqrt(|kappa|) L is too large")
    ok = totals <= MAX_PIECES
    repeats = np.where(ok.repeat(sizes - 1), counts, 0.0).astype(int)
    interval = np.arange(len(dp)).repeat(repeats)
    index = np.arange(len(interval)) - (repeats.cumsum() - repeats).repeat(repeats)
    widths = (dp / counts)[interval]
    kappa = lo_values[interval] + dv[interval] * (index / counts[interval])
    starts = lo[interval] + index * widths
    pieces = np.where(ok, totals, 0.0).astype(int)
    # each profile's piece starts, then its end
    nodes = np.empty(len(starts) + len(profiles))
    last = pieces.cumsum() + np.arange(len(profiles))
    nodes[np.arange(len(starts)) + np.repeat(np.arange(len(profiles)), pieces)] = starts
    nodes[last] = params[ends - 1]
    return pieces, errors, nodes, (kappa, (dv / dp)[interval], widths)


def _piece_transfer(alpha, beta, h):
    """The transfer of u'' + kappa u = 0 across the pieces kappa(s + x) =
    alpha + beta x, 0 <= x <= h (arrays), as polynomials in y = x / h: c of
    shape (TERMS, 2, *shape) with w(s + y h) = sum_n c[n, 0] y^n and
    u(s + y h) = h sum_n c[n, 1] y^n for (w, w')(s) = (1, 0) and
    (u, u')(s) = (0, 1), so w' = sum_n n c[n, 0] y^(n-1) / h and
    u' = sum_n n c[n, 1] y^(n-1). y = 1 gives a whole piece's matrix, y < 1
    a partial one's. The c[n] are the Taylor coefficients a_n h^n of
    a_{n+2} = -(alpha a_n + beta a_{n-1}) / ((n + 2)(n + 1)): with
    A = alpha h^2 and B = beta h^3, c[n + 2] = -(A c[n] + B c[n - 1]) /
    ((n + 2)(n + 1)), each factor taken once with the rounded reciprocal.

    Truncation: on the pieces of :func:`_pieces`, |A| <= 1 and |B| <= 2, so
    r_{n+2} = (r_n + 2 r_{n-1}) / ((n + 2)(n + 1)), r_0 = r_1 = 1, bounds
    every |c[n]|, and for 0 <= y <= 1 the terms n >= TERMS sum to below
    3e-19 in the values and 1e-17 in the derivatives (u', and h w')."""
    shape = (2,) + np.shape(alpha)
    steps = -1.0 / (np.arange(2.0, TERMS) * np.arange(1.0, TERMS - 1))
    # the factors in the shape of a row of c, made a row at a time:
    # broadcasting in the loop would double the time of each small product,
    # and all rows made at once would take twice the memory of c
    a, b = alpha * h * h, beta * h * h * h
    pair_a, pair_b = np.array([a, a]), np.array([b, b])
    c = np.zeros((TERMS,) + shape)
    c[0, 0] = c[1, 1] = 1.0
    rows, factor, scratch = list(c), np.empty(shape), np.empty(shape)
    for n in range(TERMS - 2):
        np.multiply(pair_a, steps[n], out=factor)
        np.multiply(factor, rows[n], out=rows[n + 2])
        if n:
            np.multiply(pair_b, steps[n], out=factor)
            np.add(rows[n + 2], np.multiply(factor, rows[n - 1], out=scratch), out=rows[n + 2])
    return c


def _product_scan(p00, p01, p10, p11):
    """Prefix products P_k = M_k ... M_0 of 2 x 2 matrices by a doubling
    scan along the last axis, from and to the four entry arrays (one scan
    per row); it writes into those passed in.

    No round allocates or copies a result back: round s writes entries [s:]
    into a second set of the four arrays (each entry's second product going
    through a scratch array), copies across the head [:s] and swaps the two
    sets. Each entry is fl(fl(a b) + fl(c d)) of the same operands as in a
    scan that allocates every round (the test oracle ``scan_allocating``),
    so every bit is that scan's. Round s updates only the k >= s, and P_k
    reads only M_0 ... M_k, so the scan of the first m matrices is the head
    of the scan of all, bit for bit: a row padded at its end (with identity
    matrices, say) keeps the bits of its head. The result lies in either
    set: a caller copies what it keeps. The five arrays are allocated apart:
    one 5 x n block would cross glibc's 128 KB mmap threshold at a fifth of
    the length.
    """
    n = p00.shape[-1]
    q00, q01, q10, q11, product = (np.empty_like(p00) for _ in range(5))
    s = 1
    while s < n:
        # for k >= s, the product of the s matrices ending at k (at [s:])
        # times that of the s ending at k - s (at [:-s]), cut at M_0
        a00, a01, a10, a11 = p00[..., s:], p01[..., s:], p10[..., s:], p11[..., s:]
        b00, b01, b10, b11 = p00[..., :-s], p01[..., :-s], p10[..., :-s], p11[..., :-s]
        second = product[..., s:]
        for out, x, y, z, w in ((q00[..., s:], a00, b00, a01, b10),
                                (q01[..., s:], a00, b01, a01, b11),
                                (q10[..., s:], a10, b00, a11, b10),
                                (q11[..., s:], a10, b01, a11, b11)):
            np.multiply(x, y, out=out)
            np.multiply(z, w, out=second)
            np.add(out, second, out=out)
        for q, p in ((q00, p00), (q01, p01), (q10, p10), (q11, p11)):
            q[..., :s] = p[..., :s]
        p00, p01, p10, p11, q00, q01, q10, q11 = q00, q01, q10, q11, p00, p01, p10, p11
        s *= 2
    return p00, p01, p10, p11


@dataclass(frozen=True)
class FundamentalSystem:
    """Both fundamental solutions of u'' + kappa u = 0 on the pieces of a
    profile (see :func:`_pieces`): u with (u, u')(0) = (0, 1) and w with
    (w, w')(0) = (1, 0). Their Wronskian is identically 1, which lets
    segment-restricted sines be recombined as w(x0) u(x) - u(x0) w(x) without
    re-solving per segment.

    ``nodes`` are the n + 1 piece ends, ``widths`` the piece widths,
    ``node_u`` u at the nodes (the prefix products of the pieces' matrices);
    the rows of ``u_series`` and ``w_series`` are the coefficients of u and w
    on each piece in y = (x - start) / h: its transfer polynomials (see
    :func:`_piece_transfer`) applied to the state at its start."""

    profile: KappaProfile
    nodes: np.ndarray
    widths: np.ndarray
    node_u: np.ndarray
    u_series: np.ndarray
    w_series: np.ndarray

    def _eval(self, x, *series):
        """sum_n s[n, k] y^n for each s of ``series`` at each point x, k its
        piece and y its offset there (one piece search for all series), by
        Horner's rule: acc * y + c, two roundings per term, in two buffers of
        the size of x, or in Python floats at one point."""
        if np.ndim(x) == 0:
            k = min(max(int(np.searchsorted(self.nodes, x, side="right")) - 1, 0),
                    len(self.widths) - 1)
            y = (float(x) - float(self.nodes[k])) / float(self.widths[k])
            out = []
            for s in series:
                acc, *rest = s[::-1, k].tolist()
                for c in rest:
                    acc = acc * y + c
                out.append(acc)
            return out
        x = np.asarray(x, dtype=float)
        flat = x.reshape(-1)
        # np.minimum(np.maximum(...)) is np.clip without its Python wrapper
        k = np.minimum(np.maximum(np.searchsorted(self.nodes, flat, side="right") - 1, 0),
                       len(self.widths) - 1)
        y = (flat - self.nodes[k]) / self.widths[k]
        out, term = [], np.empty(len(flat))
        for s in series:
            acc = s[-1].take(k)
            for row in s[-2::-1]:
                np.multiply(acc, y, out=acc)
                np.add(acc, row.take(k, out=term), out=acc)
            out.append(acc.reshape(x.shape))
        return out

    def eval_u(self, x):
        return self._eval(x, self.u_series)[0]

    def eval_w(self, x):
        return self._eval(x, self.w_series)[0]

    def eval_uw(self, x):
        """(u(x), w(x)) from one piece search and one set of offsets, with
        the bits of :meth:`eval_u` and :meth:`eval_w`."""
        u, w = self._eval(x, self.u_series, self.w_series)
        return u, w

    @property
    def sine(self) -> GeneralizedSine:
        """u as a :class:`GeneralizedSine`, its first zero bisected anew on
        each access (kept on the system, it would form a reference cycle that
        only the garbage collector frees)."""
        return GeneralizedSine(self, _first_zero(self))


@dataclass(frozen=True)
class GeneralizedSine:
    """The solution of ``u'' + kappa u = 0``, ``u(0)=0``, ``u'(0)=1``, of a
    :class:`FundamentalSystem`; ``first_zero`` is its first positive zero on
    the system's pieces, or the +inf sentinel if it stays positive there."""

    system: FundamentalSystem
    first_zero: float

    def __call__(self, theta):
        return self.system.eval_u(theta)


# the most entries of a chunk's (requests, max pieces) scan arrays, unless it
# holds one request: the chunk's (TERMS, 2, pieces) transfer polynomials then
# take at most 123 KB, under glibc's 128 KB mmap threshold, so that a batch of
# any size solves in the same few heap blocks, chunk after chunk
_CHUNK = 256


def _solve(requests):
    """For each (profile, reach) of ``requests``, in order, the fundamental
    system of the profile on its pieces that start below reach (at least
    one), or the InvalidInputError its pieces raise.

    The pieces of all requests are cut together (:func:`_pieces`). A chunk of
    consecutive requests then takes one :func:`_piece_transfer` call, one
    pair of sums and one doubling scan over a (requests, max pieces) array
    padded with identity matrices at the end. Each system is the head of the
    whole profile's system, bit for bit, however the requests are batched: a
    piece's polynomials read that piece alone, its sums at y = 1 are taken
    row after row, and each row's prefix products only its own matrices (see
    :func:`_product_scan`). Solved lazily, a chunk at a time; a caller that
    stops early solves no further chunk."""
    if not requests:
        return
    pieces, errors, nodes, arrays = _pieces([p for p, _ in requests])
    offsets = pieces.cumsum() - pieces
    node_offsets = offsets + np.arange(len(requests))
    # the pieces that start below reach: a profile's nodes are nondecreasing,
    # so their count is searchsorted's on its nodes but the last. Counted in
    # floats: a bool cast would load numpy code pages that no other path of
    # the package touches (64 KB of resident memory)
    below = np.where(nodes < np.repeat([r for _, r in requests], pieces + 1), 1.0, 0.0)
    below[node_offsets + pieces] = 0.0
    below = np.concatenate(([0.0], np.cumsum(below)))
    used = [max(int(n), 1) for n in (below[node_offsets + pieces] - below[node_offsets]).tolist()]
    head, most = 0, 0              # the chunk's first request, its most pieces

    def chunk(end):
        return _solve_chunk(requests[head:end], used[head:end], offsets[head:end],
                            node_offsets[head:end], nodes, arrays, most)
    for i, error in enumerate(errors):
        if error is None and (i == head or (i - head + 1) * max(most, used[i]) <= _CHUNK):
            most = max(most, used[i])
            continue
        yield from chunk(i)
        if error is not None:
            yield error
        head, most = (i + 1, 0) if error is not None else (i, used[i])
    yield from chunk(len(requests))


def _solve_chunk(requests, used, offsets, node_offsets, nodes, arrays, most):
    """The systems of consecutive requests, each on its first ``used``
    pieces, in one transfer, one pair of sums and one scan over a (requests,
    ``most``) array. ``nodes`` and ``arrays`` are those of :func:`_pieces`,
    where a request's pieces start at its offset and its nodes at its node
    offset."""
    if not requests:
        return
    kappa, slope, widths = arrays
    count = len(requests)
    used = np.array(used)
    first = used.cumsum() - used                 # each request's first piece in the chunk
    take = np.arange(first[-1] + used[-1]) + np.repeat(offsets - first, used)
    widths = widths[take]
    c = _piece_transfer(kappa[take], slope[take], widths)
    # the whole pieces, y = 1: the values and derivatives summed row by row
    values = np.add.reduce(c, axis=0)
    derivs = np.add.reduce(c * np.arange(TERMS)[:, None, None], axis=0)
    cells = np.arange(len(take)) + np.repeat(np.arange(count) * most - first, used)
    scan = []
    for pad, entry in ((1.0, values[0]), (0.0, widths * values[1]),
                       (0.0, derivs[0] / widths), (1.0, derivs[1])):
        padded = np.full(count * most, pad)
        padded[cells] = entry
        scan.append(padded.reshape(count, most))
    w, u, dw, du = (entry.reshape(-1) for entry in _product_scan(*scan))
    # the state at each piece's start: the product of the pieces before it
    w0, u0, dw0, du0 = (entry.take(cells - 1) for entry in (w, u, dw, du))
    w0[first], u0[first], dw0[first], du0[first] = 1.0, 0.0, 0.0, 1.0
    u_series = c[:, 0] * u0
    u_series += c[:, 1] * (widths * du0)
    w_series = c[:, 0] * w0
    w_series += c[:, 1] * (widths * dw0)
    del c
    # rows past a request's last nonzero one add exactly 0 (a flat profile
    # has two): each system keeps its rows up to that one
    nonzero = np.logical_or.reduceat(u_series.astype(bool) | w_series.astype(bool), first, axis=1)
    rows = np.where(nonzero, np.arange(1.0, TERMS + 1.0)[:, None], 1.0).max(axis=0).tolist()
    u = u.reshape(count, most)
    for i, (profile, _) in enumerate(requests):
        a, n, k, r = int(first[i]), int(used[i]), int(node_offsets[i]), int(rows[i])
        yield FundamentalSystem(profile, nodes[k:k + n + 1], widths[a:a + n],
                                np.concatenate(([0.0], u[i, :n])),
                                u_series[:r, a:a + n], w_series[:r, a:a + n])


def sine_fundamental(profile: KappaProfile) -> FundamentalSystem:
    """Fundamental system for the sine ODE of ``profile`` on all of [0, L]."""
    return _checked(next(_solve([(profile, INF)])))


def _checked(outcome):
    """``outcome``, unless it is an InvalidInputError: then raise it."""
    if isinstance(outcome, InvalidInputError):
        raise outcome
    return outcome


def _first_zero(system: FundamentalSystem) -> float:
    """The first sign change of u between the nodes, bisected to BISECT_TOL
    on u: a piece holds at most one zero (zeros lie pi / sqrt(max kappa) > h
    apart), and the first piece none."""
    u, nodes = system.node_u, system.nodes
    # a zero or a change of sign between neighbours: a value times the sign
    # of the next, since the product of two values underflows to 0 for a
    # profile shorter than about 1e-159
    sign_change = np.nonzero(u[1:-1] * np.sign(u[2:]) <= 0.0)[0]
    if len(sign_change) == 0:
        return INF
    i = sign_change[0] + 1
    if u[i + 1] == 0.0 and u[i] > 0.0:
        return float(nodes[i + 1])
    lo, hi = float(nodes[i]), float(nodes[i + 1])
    flo = u[i]
    while hi - lo > BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:     # adjacent floats: past ~1e6 their gap exceeds the tolerance
            break
        if system.eval_u(mid) * flo > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def generalized_sine(profile: KappaProfile) -> GeneralizedSine:
    """Solve the generalized sine ODE for ``profile`` (deterministic)."""
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


def _evaluate(requests, prepare) -> list:
    """The outcome of each request of ``requests``, in order; raises the
    InvalidInputError of the first request that fails. ``prepare(*request)``
    checks a request and returns its outcome, or (profile, theta, finish)
    where the outcome reads the sine of (profile, theta) (see
    :func:`_sines_to`): it is then ``finish(sine)``. The sines of all
    requests before the first that fails its checks are solved in one batch,
    lazily: a request that fails stops the solve."""
    staged, error = [], None
    for request in requests:
        try:
            staged.append(prepare(*request))
        except InvalidInputError as exc:
            error = exc
            break
    sines = _sines_to([stage[:2] for stage in staged if type(stage) is tuple])
    out = [stage[2](_checked(next(sines))) if type(stage) is tuple else stage
           for stage in staged]
    if error is not None:
        raise error
    return out


def _sines_to(requests):
    """For each (profile, theta) of ``requests``, 0 < theta <= L + 1e-12, in
    order: the sine every sigma^{(r)}(theta) reads, that of the pieces that
    start below theta / (1 - guard), with the whole profile's bits (see
    :func:`_solve`); None at or past the guarded first zero; or the
    InvalidInputError its pieces raise. Its ``first_zero`` is +inf where the
    whole profile's lies past those pieces, so past theta / (1 - guard): it
    stays private."""
    guard = 1.0 - FIRST_ZERO_GUARD
    systems = _solve([(profile, theta / guard) for profile, theta in requests])
    for (_, theta), system in zip(requests, systems):
        if isinstance(system, InvalidInputError):
            yield system
            continue
        sine = system.sine
        yield None if theta >= sine.first_zero * guard else sine


def sigma_coeff(profile: KappaProfile, t: float, theta: float) -> float:
    """sigma^{(t)}(theta): t at theta = 0, the sine ratio inside the conjugate
    radius, +inf sentinel at or past it."""
    return sigma_coeffs([(profile, t, theta)])[0]


def sigma_coeffs(requests) -> list:
    """:func:`sigma_coeff` of each (profile, t, theta) of ``requests``, with
    its bits, from one batched solve; raises the error of the first request
    that fails, in order."""
    return _evaluate(requests, _sigma_request)


def _sigma_request(profile: KappaProfile, t: float, theta: float):
    if not 0.0 <= t <= 1.0:
        raise InvalidInputError(f"t = {t} outside [0, 1]")
    if not 0.0 <= theta <= profile.length + 1e-12:
        raise InvalidInputError(f"theta = {theta} outside [0, {profile.length}]")
    if theta == 0.0:
        return float(t)

    def finish(sine):
        if sine is None:
            return INF
        num, denom = sine(t * theta), sine(theta)
        if not (math.isfinite(num) and math.isfinite(denom)):
            raise _sine_overflow(profile, theta)
        return float(t) if _sigma_is_t(profile, theta) else num / denom
    return profile, theta, finish


def _sigma_is_t(profile: KappaProfile, theta: float) -> bool:
    """Whether sigma^{(t)}(theta) is t to double precision for every t: the
    rule of :func:`const_tau`, sqrt(max |kappa|) theta < 2^-27. There the
    sine ratio loses digits where t theta or theta / h leave the normal
    range; a sine that overflows still raises first. The test on theta
    alone comes first, so a request at theta >= 2^-27 reads no sample."""
    return (theta < 2.0 ** -27
            and math.sqrt(float(np.max(np.abs(profile.values)))) * theta < 2.0 ** -27)


def _sine_overflow(profile: KappaProfile, theta: float) -> InvalidInputError:
    """Never a silent NaN: a sine that overflowed would make the ratio
    inf/inf. Only this error path reads the samples again: where the slope
    of a sample interval that starts at or below theta (those a lookup at
    theta reads) is not finite, the profile is too steep rather than too
    negative."""
    end = int(np.searchsorted(profile.params, theta, side="right")) + 1
    with np.errstate(over="ignore", invalid="ignore"):
        slopes = np.diff(profile.values[:end]) / np.diff(profile.params[:end])
    if not np.isfinite(slopes).all():
        return InvalidInputError(f"the curvature is not finite on the pieces of [0, {theta}]: "
                                 "the profile's slope between two samples overflows")
    return InvalidInputError(f"the generalized sine overflows on [0, {theta}]: "
                             "the profile is too negative")


def tau_coeff(profile: KappaProfile, n_param: float, t: float, theta: float) -> float:
    """tau^{(t)}(theta) = t^{1/N} sigma^{(t)}(theta)^{1 - 1/N} with the profile
    rescaled by 1/(N-1); follows the 0 * inf = 0 convention."""
    return tau_coeffs([(profile, n_param, t, theta)])[0]


def tau_coeffs(requests) -> list:
    """:func:`tau_coeff` of each (profile, N, t, theta) of ``requests``, with
    its bits, from one batched solve; raises the error of the first request
    that fails, in order."""
    return _evaluate(requests, _tau_request)


def _tau_request(profile: KappaProfile, n_param: float, t: float, theta: float):
    if n_param <= 1.0:
        raise InvalidInputError("dimension parameter must exceed 1")

    def tau(sig):
        return xmul(math.pow(t, 1.0 / n_param), xpow(sig, 1.0 - 1.0 / n_param))
    stage = _sigma_request(profile.scaled(1.0 / (n_param - 1.0)), t, theta)
    if type(stage) is not tuple:
        return tau(stage)
    scaled, theta, finish = stage
    return scaled, theta, lambda sine: tau(finish(sine))


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
    tth = tt * thetas
    power = 1.0 - 1.0 / n_param
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if kappa < 0.0:
            a = math.sqrt(-kappa)
            log_sigma = a * (tth - thetas) + np.log(
                np.expm1(-2.0 * a * tth) / np.expm1(-2.0 * a * thetas))
            sigma_power = np.exp(power * log_sigma)
        else:
            sigma_power = (const_sine(kappa, tth) / const_sine(kappa, thetas)) ** power
        # both sine ratios are t to double precision for x = sqrt(|k|) theta
        # below 2^-27, also where x underflows and the formulas read 0 / 0
        if kappa != 0.0:
            sigma_power = np.where(math.sqrt(abs(kappa)) * thetas < 2.0 ** -27,
                                   tt ** power, sigma_power)
        tau = tt ** (1.0 / n_param) * sigma_power
        # where t theta underflows (t > 0), s_k(t theta) is t theta to double
        # precision, so tau = t (theta / s_k(theta))^{1 - 1/N}, with no t theta
        # formed; theta / s_k(theta) is 1 where x is below 2^-27
        under = (tth < sys.float_info.min) & (tt > 0.0)
        if under.any():
            ratio = np.where(math.sqrt(abs(kappa)) * thetas < 2.0 ** -27, 1.0,
                             thetas / const_sine(kappa, thetas))
            tau = np.where(under, tt * ratio ** power, tau)
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


def _sigma_profile_values(sine, profile: KappaProfile, theta: float, r_nodes: np.ndarray):
    """sigma^{(r)}(theta) for all r in r_nodes, from ``sine``, that of
    :func:`_sines_to` for (profile, theta), with the bits of
    :func:`sigma_coeff`; None at the conjugate radius (sigma is the +inf
    sentinel there) or where the sine at theta is negative; r itself where
    :func:`sigma_coeff` gives t (see :func:`_sigma_is_t`)."""
    if sine is None:
        return None
    num, denom = sine(r_nodes * theta), sine(theta)
    if not (math.isfinite(denom) and np.isfinite(num).all()):
        raise _sine_overflow(profile, theta)
    if _sigma_is_t(profile, theta):
        return r_nodes.astype(float)
    if denom < 0.0:
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
    return defect_bounds([(K, n_param, p, eta, profile, t, theta)])[0]


def defect_bounds(requests) -> list:
    """:func:`defect_bound` of each (K, N, p, eta, profile, t, theta) of
    ``requests``, with its bits, from one batched solve; raises the error of
    the first request that fails, in order."""
    return _evaluate(requests, _defect_request)


def _defect_request(K: float, n_param: float, p: float, eta: float,
                    profile: KappaProfile, t: float, theta: float):
    N = n_param
    consts = defect_constants(K, N, p, eta)
    pi_b = const_first_zero(K / (N - 1.0))
    if not 0.0 < t < 1.0:
        raise InvalidInputError("t must lie strictly inside (0, 1)")
    theta_max = min(profile.length, pi_b - eta)
    if not 0.0 < theta < theta_max:
        raise InvalidInputError(f"theta must lie strictly inside (0, {theta_max})")
    scaled = profile.scaled(1.0 / (N - 1.0))

    def finish(sine):
        # sigma at the nodes of both quadratures, from one prefix scan
        r_full = np.linspace(0.0, 1.0, 2 * SIMPSON_PANELS + 1)
        r_tail = np.linspace(t, 1.0, SIMPSON_PANELS + 1)
        sig = _sigma_profile_values(sine, scaled, theta, np.concatenate((r_full, r_tail)))
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
    return scaled, theta, finish
