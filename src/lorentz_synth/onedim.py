"""One-dimensional CD(kappa, N) densities and diameter estimates.

A density h on an interval I = (a, b) is a CD(kappa, N) density when, along
every straight segment gamma in I,

    h(gamma_t)^{1/(N-1)} >= sigma^{(1-t)}[kappa_rev](|gamma'|) h(gamma_0)^{1/(N-1)}
                          + sigma^{(t)}[kappa_fwd](|gamma'|) h(gamma_1)^{1/(N-1)},

with the curvature profile restricted to the segment (forward and reversed)
and rescaled by 1/(N-1). The verifier below checks this on a deterministic
grid of endpoint pairs and interior times, using one fundamental-system solve
for the whole interval: the segment sine from x0 is w(x0) u(x) - u(x0) w(x)
by constancy of the Wronskian, so no per-segment integration is needed.

The module also houses the integral curvature deficit, the deficit-perturbed
diameter bound, and the explicit delta threshold of the almost-rigidity
statement, all of which the spacetime-level checks reduce to on needles.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .distortion import (
    KappaProfile,
    const_first_zero,
    const_sine,
    simpson_uniform,
    sine_fundamental,
)
from .errors import HypothesisViolatedError, InvalidInputError
from .extreal import INF

DEFAULT_C_CONST = 10.0
T_GRID = np.arange(1, 16) / 16.0


@dataclass(frozen=True)
class CDDensity:
    """Sampled density on an interval with an attached curvature profile.

    ``h_samples`` are values on the uniform closed grid over [a, b] (the
    endpoint samples are the continuous extensions). ``kappa`` lives on
    [0, b - a]; kappa at the point x of the interval is ``kappa(x - a)``.
    """

    a: float
    b: float
    h_samples: np.ndarray
    kappa: KappaProfile
    n_param: float

    def __post_init__(self):
        object.__setattr__(self, "h_samples", np.asarray(self.h_samples, dtype=float))
        if not self.a < self.b:
            raise InvalidInputError("need a < b")
        if self.h_samples.ndim != 1 or len(self.h_samples) < 2:
            raise InvalidInputError("need >= 2 density samples")
        if self.n_param <= 1.0:
            raise InvalidInputError("dimension parameter must exceed 1")
        if abs(self.kappa.length - (self.b - self.a)) > 1e-9:
            raise InvalidInputError("curvature profile must span the interval")

    @property
    def length(self) -> float:
        return self.b - self.a

    def grid(self) -> np.ndarray:
        return np.linspace(self.a, self.b, len(self.h_samples))

    def h(self, x):
        """Linear interpolation of the samples; continuous at the endpoints."""
        return np.interp(x, self.grid(), self.h_samples)

    def total_mass(self) -> float:
        return float(np.trapezoid(self.h_samples, self.grid()))

    def normalized(self) -> "CDDensity":
        m = self.total_mass()
        if m <= 0.0:
            raise InvalidInputError("cannot normalize a zero-mass density")
        return CDDensity(self.a, self.b, self.h_samples / m, self.kappa, self.n_param)

    def to_json(self) -> str:
        return json.dumps({"a": self.a, "b": self.b,
                           "h": [float(v) for v in self.h_samples],
                           "kappa": json.loads(self.kappa.to_json()),
                           "N": self.n_param})

    @classmethod
    def from_json(cls, text: str) -> "CDDensity":
        d = json.loads(text)
        return cls(float(d["a"]), float(d["b"]), np.asarray(d["h"], dtype=float),
                   KappaProfile.from_json(json.dumps(d["kappa"])), float(d["N"]))


@dataclass(frozen=True)
class VerificationResult:
    passed: bool
    worst_violation: float
    witness: tuple | None      # (x0, x1, t) attaining the worst violation
    status: str                # "checked" or "identically-zero-or-invalid"


@dataclass(frozen=True)
class DiameterReport:
    diameter: float
    bound: float
    deficit: float
    passed: bool
    params: tuple              # (K, N, p, c_const)

    def to_json(self) -> str:
        return json.dumps({"diameter": self.diameter, "bound": self.bound,
                           "deficit": self.deficit, "passed": bool(self.passed),
                           "params": list(self.params)})


def verify_cd_density(density: CDDensity, line_samples: int = 64,
                      tolerance: float = 1e-6) -> VerificationResult:
    """Check the CD(kappa, N) segment inequality on a deterministic grid.

    Endpoint pairs run over a uniform ``line_samples``-node grid, interior
    times over {k/16}. Reversing a segment swaps the two right-hand terms, so
    ordered pairs x0 < x1 suffice. Returns the worst positive violation
    (RHS - LHS)_+ with its witness; +inf records a conjugate point inside a
    segment whose endpoint densities are positive, which no finite density
    can dominate.
    """
    if line_samples < 10:
        raise InvalidInputError("need at least 10 line samples")
    if np.any(density.h_samples < 0.0):
        raise InvalidInputError("negative density sample")
    hmax = float(np.max(density.h_samples))
    if hmax <= 1e-14:
        # h == 0 satisfies the defining inequality vacuously
        return VerificationResult(True, 0.0, None, "identically-zero-or-invalid")

    inner = density.h_samples[1:-1]
    if np.any(inner == 0.0):
        # vanishes somewhere inside but not identically: not a CD density.
        # (Only exact zeros short-circuit: densities with high-order endpoint
        # tangency have interior samples arbitrarily close to zero, and finite
        # near-zero dips are caught by the segment inequality itself.)
        k = int(np.argmin(inner)) + 1
        x_bad = float(density.grid()[k])
        return VerificationResult(False, INF, (x_bad, x_bad, 0.0),
                                  "identically-zero-or-invalid")

    xs = np.linspace(density.a, density.b, line_samples)
    hn = density.h(xs)

    expo = 1.0 / (density.n_param - 1.0)
    hne = hn ** expo

    scaled = density.kappa.scaled(1.0 / (density.n_param - 1.0))
    fs = sine_fundamental(scaled)
    un, wn = fs.eval_uw(xs - density.a)

    # segment sine from x_i evaluated at the nodes: V[i, k] = w_i u_k - u_i w_k
    V = np.outer(wn, un) - np.outer(un, wn)

    ii, jj = np.triu_indices(line_samples, k=1)
    denom = V[ii, jj]

    # disconjugacy per pair: the segment sine must stay positive strictly
    # between the endpoints (and at the far endpoint)
    interior_min = np.full((line_samples, line_samples), np.inf)
    for i in range(line_samples - 1):
        interior_min[i, i + 1:] = np.minimum.accumulate(V[i, i + 1:])
    finite = interior_min[ii, jj] > 0.0

    theta = xs[jj] - xs[ii]
    gam = xs[ii][:, None] + np.outer(theta, T_GRID)          # (pairs, |T|)
    ug, wg = fs.eval_uw(gam - density.a)

    w_i, u_i = wn[ii][:, None], un[ii][:, None]
    w_j, u_j = wn[jj][:, None], un[jj][:, None]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        sig_fwd = (w_i * ug - u_i * wg) / denom[:, None]     # sigma^{(t)}, forward
        sig_rev = (u_j * wg - w_j * ug) / denom[:, None]     # sigma^{(1-t)}, reversed
        rhs = sig_rev * hne[ii][:, None] + sig_fwd * hne[jj][:, None]
    lhs = density.h(gam) ** expo

    viol = rhs - lhs
    # conjugate point inside the segment: coefficients are +inf; the term
    # survives unless the matching endpoint density vanishes (0 * inf = 0)
    blowup = (hne[ii] > 0.0) | (hne[jj] > 0.0)
    viol[~finite] = np.where(blowup[~finite, None], np.inf, -np.inf)

    flat = np.argmax(viol)
    pair, ti = np.unravel_index(flat, viol.shape)
    worst = float(viol[pair, ti])
    worst = max(worst, 0.0)
    witness = (float(xs[ii[pair]]), float(xs[jj[pair]]), float(T_GRID[ti]))
    return VerificationResult(worst <= tolerance, worst, witness, "checked")


def model_density(K: float, n_param: float, length: float,
                  samples: int = 16385) -> CDDensity:
    """The comparison density sin_{K/(N-1)}(x)^{N-1} on (0, length).

    The default sampling is dense enough that linear interpolation between
    samples stays within the 1e-6 verification tolerance even where h bends
    fastest (near the endpoints for N well above 2).
    """
    kt = K / (n_param - 1.0)
    if not 0.0 < length < const_first_zero(kt):
        raise InvalidInputError("length must lie in (0, first zero of the model sine)")
    xs = np.linspace(0.0, length, samples)
    h = const_sine(kt, xs) ** (n_param - 1.0)
    return CDDensity(0.0, length, h, KappaProfile.constant(K, length), n_param)


def integral_deficit(density: CDDensity, K: float, p: float) -> float:
    """Simpson quadrature of |(kappa - K)_-|^p h over the interval."""
    if p < 1.0:
        raise InvalidInputError("need p >= 1")
    xs = np.linspace(density.a, density.b, 1025)
    neg = np.maximum(K - density.kappa(xs - density.a), 0.0)
    return simpson_uniform(neg ** p * density.h(xs), density.a, density.b)


def aubry_diameter_bound(K: float, n_param: float, p: float, deficit: float,
                         c_const: float = DEFAULT_C_CONST) -> float:
    """Deficit-perturbed diameter bound pi sqrt((N-1)/K) (1 + c deficit^{1/5}).

    Only valid under the smallness hypothesis deficit <= 1/c_const.
    """
    if K <= 0.0:
        raise InvalidInputError("need K > 0")
    if deficit < 0.0:
        raise InvalidInputError("deficit must be nonnegative")
    if deficit > 1.0 / c_const:
        raise HypothesisViolatedError(
            f"deficit {deficit} exceeds the smallness threshold {1.0 / c_const}")
    return math.pi * math.sqrt((n_param - 1.0) / K) * (1.0 + c_const * deficit ** 0.2)


def tmcp_delta(K: float, n_param: float, p: float, eps: float,
               c_const: float = DEFAULT_C_CONST) -> float:
    """Explicit threshold min{[eps sqrt(K/(N-1)) / (pi c)]^5, 1/c}."""
    if K <= 0.0 or eps <= 0.0:
        raise InvalidInputError("need K > 0 and eps > 0")
    if c_const <= 0.0:
        raise InvalidInputError("need c_const > 0")
    first = (eps * math.sqrt(K / (n_param - 1.0)) / (math.pi * c_const)) ** 5
    return min(first, 1.0 / c_const)


def curvature_deficit_sup(K: float, p: float,
                          regions: Sequence[tuple[np.ndarray, np.ndarray]]) -> float:
    """Sup over regions of the measure-normalized integral of (k - K)_-^p.

    Each region is a pair (k_values, weights) sampling the curvature lower
    bound against the measure on that region. Invariant under scaling all
    weights by one positive constant.
    """
    if len(regions) == 0:
        raise InvalidInputError("need at least one region")
    out = 0.0
    for kvals, weights in regions:
        kvals = np.asarray(kvals, dtype=float)
        weights = np.asarray(weights, dtype=float)
        total = float(np.sum(weights))
        if total <= 0.0:
            raise InvalidInputError("region with nonpositive total measure")
        neg = np.maximum(K - kvals, 0.0)
        out = max(out, float(np.sum(neg ** p * weights)) / total)
    return out


def diameter_report(density: CDDensity, K: float, p: float,
                    c_const: float = DEFAULT_C_CONST) -> DiameterReport:
    """Diameter-vs-bound report for a (probability) CD density.

    The deficit is the integral deficit of the normalized density; the bound
    is the deficit-perturbed diameter estimate. Raises HypothesisViolatedError
    when the deficit is too large for the estimate to apply.
    """
    norm = density.normalized()
    deficit = integral_deficit(norm, K, p)
    bound = aubry_diameter_bound(K, norm.n_param, p, deficit, c_const)
    diam = norm.length
    return DiameterReport(diam, bound, deficit, diam <= bound + 1e-9,
                          (K, norm.n_param, p, c_const))
