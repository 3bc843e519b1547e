"""Discrete q-Lorentz-Wasserstein transport between finitely supported measures.

The distance between probability measures maximizes int l(x, y)^q dpi over
couplings pi whose mass stays on causally related pairs; q in (0, 1). The
maximization is a transportation linear program: non-causal pairs are excluded
variables (never large negative costs), so an infeasible program reproduces
the sup-of-empty-set = -inf convention exactly. Optimality of the returned
plan is certified against the LP duals by complementary slackness.

Optimal plans are upgraded to dynamical couplings - one maximizing geodesic
per positive matrix entry - whose time-t push-forwards realize the measure
geodesics the entropy inequalities are stated along.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import InvalidInputError, NoGeodesicError
from .extreal import NEG_INF, is_neg_inf
from .models import (Event, ModelSpacetime, as_event, maximizing_paths,
                     time_separation, time_separations)

MARGINAL_TOL = 1e-10
MERGE_DECIMALS = 12          # eval-map support points snap at 1e-12


@dataclass(frozen=True)
class DiscreteMeasure:
    """Probability measure on finitely many events."""

    support: tuple                      # tuple of Events
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "support",
                           tuple(as_event(p) for p in self.support))
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        if len(self.support) != len(w):
            raise InvalidInputError("one weight per support point")
        if np.any(w < 0.0):
            raise InvalidInputError("weights must be nonnegative")
        if abs(float(np.sum(w)) - 1.0) > 1e-12:
            raise InvalidInputError("weights must sum to 1")
        if len({p.coords for p in self.support}) != len(self.support):
            raise InvalidInputError("support points must be distinct")

    def __len__(self):
        return len(self.support)

    def points(self) -> np.ndarray:
        return np.array([p.coords for p in self.support])

    def to_json(self) -> str:
        return json.dumps({"support": [list(p.coords) for p in self.support],
                           "weights": self.weights.tolist()})

    @classmethod
    def from_json(cls, text: str) -> "DiscreteMeasure":
        d = json.loads(text)
        return cls(tuple(tuple(p) for p in d["support"]),
                   np.asarray(d["weights"], dtype=float))


def dirac(point) -> DiscreteMeasure:
    return DiscreteMeasure((as_event(point),), np.array([1.0]))


def uniform_on_box(bounds: Sequence, per_axis: int) -> DiscreteMeasure:
    """Equal weights on a per_axis^dim lattice of box midpoints."""
    axes = [lo + (hi - lo) * (np.arange(per_axis) + 0.5) / per_axis
            for lo, hi in bounds]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack(mesh, axis=-1).reshape(-1, len(bounds))
    n = len(pts)
    return DiscreteMeasure(tuple(map(tuple, pts)), np.full(n, 1.0 / n))


@dataclass(frozen=True)
class Coupling:
    """Transport plan between two discrete measures.

    ``separations`` is the l matrix on the supports that the plan was solved
    on, when known; it is neither serialized nor compared.
    """

    mu: DiscreteMeasure
    nu: DiscreteMeasure
    matrix: np.ndarray
    marginal_tol: float = MARGINAL_TOL
    separations: np.ndarray | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", m)
        if m.shape != (len(self.mu), len(self.nu)):
            raise InvalidInputError("plan shape must match the supports")
        if self.separations is not None and np.shape(self.separations) != m.shape:
            raise InvalidInputError("separations must match the plan shape")
        if np.any(m < -1e-15):
            raise InvalidInputError("plan entries must be nonnegative")
        if (np.max(np.abs(m.sum(axis=1) - self.mu.weights)) > self.marginal_tol
                or np.max(np.abs(m.sum(axis=0) - self.nu.weights)) > self.marginal_tol):
            raise InvalidInputError("marginals do not match")

    def to_json(self) -> str:
        return json.dumps({"mu": json.loads(self.mu.to_json()),
                           "nu": json.loads(self.nu.to_json()),
                           "matrix": self.matrix.tolist()})

    @classmethod
    def from_json(cls, text: str) -> "Coupling":
        d = json.loads(text)
        return cls(DiscreteMeasure.from_json(json.dumps(d["mu"])),
                   DiscreteMeasure.from_json(json.dumps(d["nu"])),
                   np.asarray(d["matrix"], dtype=float))


def separation_matrix(model: ModelSpacetime, mu: DiscreteMeasure,
                      nu: DiscreteMeasure, resolution: int = 257) -> np.ndarray:
    """l(x_i, y_j) for all support pairs; -inf marks non-causal pairs.

    On the lattice kinds each distinct source of ``mu`` gets one
    longest-path field per lattice level, shared by all of ``nu``: the
    sources are stacked in one DP of S x n_t x n_x float64 per level, in
    chunks of at most ``models.STACK_BUDGET_BYTES`` (see
    :func:`models.time_separations`).
    """
    return time_separations(model, mu.support, nu.support, resolution)


def _certify(cost, plan, res, allowed):
    """Complementary slackness against the equality duals; the LP claims
    optimality, this makes the claim independently checkable."""
    n, m = cost.shape
    duals = res.eqlin.marginals          # duals of the minimized -cost problem
    u, v = -duals[:n], -duals[n:]
    red = cost - u[:, None] - v[None, :]
    if np.any(red[allowed] > 1e-7):
        raise RuntimeError("dual feasibility violated; solver result untrusted")
    active = allowed & (plan > 1e-9)
    if np.any(np.abs(red[active]) > 1e-7):
        raise RuntimeError("complementary slackness violated")


def lq_distance(model: ModelSpacetime, mu: DiscreteMeasure, nu: DiscreteMeasure,
                q: float, resolution: int = 257):
    """Maximal (int l^q dpi)^(1/q) over causal couplings.

    Returns (value, plan); (-inf, None) when no causal coupling exists.
    """
    return _optimal_plan(mu, nu, separation_matrix(model, mu, nu, resolution), q)


def _optimal_plan(mu: DiscreteMeasure, nu: DiscreteMeasure, L: np.ndarray, q: float):
    """:func:`lq_distance` on a given separation matrix ``L`` of the supports;
    the plan keeps ``L`` as its ``separations``."""
    # imported here, not at module level, so that importing the package loads
    # no scipy: the import takes longer than most runs that solve no LP
    # (cli.CommandSpec.imports)
    from scipy import optimize, sparse

    if not 0.0 < q < 1.0:
        raise InvalidInputError("need q in (0, 1)")
    allowed = L > NEG_INF
    cost = np.where(allowed, np.clip(L, 0.0, None) ** q, 0.0)

    n, m = len(mu), len(nu)
    idx = np.nonzero(allowed)
    nvar = len(idx[0])
    if nvar == 0:
        return NEG_INF, None
    # rows then columns as equality constraints over the allowed entries:
    # column k has its two ones in row constraint i and column constraint n + j
    a_eq = sparse.csc_array(
        (np.ones(2 * nvar), np.column_stack([idx[0], n + idx[1]]).ravel(),
         np.arange(0, 2 * nvar + 1, 2)), shape=(n + m, nvar))
    b_eq = np.concatenate([mu.weights, nu.weights])
    res = optimize.linprog(-cost[allowed], A_eq=a_eq, b_eq=b_eq,
                           bounds=(0, None), method="highs")
    if not res.success:
        return NEG_INF, None
    plan = np.zeros((n, m))
    plan[idx] = res.x
    _certify(cost, plan, res, allowed)
    value = float(np.sum(cost * plan)) ** (1.0 / q)
    return value, Coupling(mu, nu, plan, separations=L)


def is_timelike_q_dualizable(plan: Coupling | None, model: ModelSpacetime) -> bool:
    """Whether every mass-carrying pair of the plan is chronological.

    Reads the separations the plan was solved on, so a plan from
    :func:`lq_distance` is judged at its own lattice resolution; a plan
    without them (built by hand or loaded from JSON) is judged at the
    default resolution.
    """
    if plan is None:
        return False
    L = plan.separations
    if L is None:
        L = separation_matrix(model, plan.mu, plan.nu)
    carrying = plan.matrix > 1e-12
    return bool(np.all(L[carrying] > 0.0))


@dataclass(frozen=True)
class DynamicalCoupling:
    """Measures on geodesics: sampled curves with masses summing to 1."""

    t_samples: np.ndarray               # shared parameter grid in [0, 1]
    curves: tuple                       # of (samples (k, dim) ndarray, mass)

    def __post_init__(self):
        total = sum(m for _, m in self.curves)
        if abs(total - 1.0) > 1e-10:
            raise InvalidInputError("curve masses must sum to 1")

    def validate(self, model: ModelSpacetime, tol: float = 1e-2):
        """Check each curve maximizes (endpoint l = arc length +- tol) and is
        affinely parametrized at the halfway sample."""
        for samples, _ in self.curves:
            x, y = samples[0], samples[-1]
            l = time_separation(model, x, y)
            if is_neg_inf(l):
                raise NoGeodesicError("curve endpoints not causally related")
            length = 0.0
            for a, b in zip(samples[:-1], samples[1:]):
                seg = time_separation(model, a, b)
                length += max(seg, 0.0) if not is_neg_inf(seg) else 0.0
            if abs(length - l) > tol:
                raise InvalidInputError("curve is not maximizing")
            k = len(samples) // 2
            t_mid = self.t_samples[k]
            l_mid = time_separation(model, x, samples[k])
            if abs(l_mid - t_mid * l) > tol:
                raise InvalidInputError("curve is not affinely parametrized")


def _sample_geodesic(x: Event, y: Event, ts: np.ndarray, path) -> np.ndarray:
    """Samples at parameters ``ts`` of the lattice path, or of the straight
    segment when ``path`` is None (flat charts)."""
    if path is None:
        a = np.asarray(x.coords)
        b = np.asarray(y.coords)
        out = a[None, :] + ts[:, None] * (b - a)[None, :]
    else:
        out = path.points(ts)
    # rounding (and, on lattices, endpoint snapping) would otherwise keep the
    # time-0/1 push-forwards from reproducing the measures' support exactly
    out[ts == 0.0] = np.asarray(x.coords)
    out[ts == 1.0] = np.asarray(y.coords)
    return out


def dynamical_coupling(model: ModelSpacetime, plan: Coupling,
                       samples_per_curve: int = 9) -> DynamicalCoupling:
    """One sampled maximizing geodesic per positive plan entry.

    On the lattice kinds the geodesics come from one stacked 513-row field
    for the plan's distinct carrying sources, whatever resolution the plan
    was solved at.
    """
    if not is_timelike_q_dualizable(plan, model):
        raise InvalidInputError("plan carries mass on non-chronological pairs")
    ts = np.linspace(0.0, 1.0, samples_per_curve)
    carrying = list(zip(*np.nonzero(plan.matrix > 1e-12)))
    ends = [(plan.mu.support[i], plan.nu.support[j]) for i, j in carrying]
    if model.kind == "minkowski":
        paths = [None] * len(ends)
    else:
        paths = maximizing_paths(model, ends)
    curves = tuple((_sample_geodesic(x, y, ts, path), float(plan.matrix[i, j]))
                   for (i, j), (x, y), path in zip(carrying, ends, paths))
    return DynamicalCoupling(ts, curves)


def eval_pushforward(dc: DynamicalCoupling, t: float) -> DiscreteMeasure:
    """The law of gamma_t: support {gamma_t}, masses merged on collisions."""
    if not 0.0 <= t <= 1.0:
        raise InvalidInputError("t outside [0, 1]")
    merged: dict = {}                    # snapped key -> [exact point, mass]
    for samples, mass in dc.curves:
        pos = tuple(float(np.interp(t, dc.t_samples, samples[:, c]))
                    for c in range(samples.shape[1]))
        key = tuple(np.round(pos, MERGE_DECIMALS))
        if key in merged:
            merged[key][1] += mass
        else:
            merged[key] = [pos, mass]
    pts, masses = zip(*merged.values())
    return DiscreteMeasure(tuple(pts), np.array(masses))


def verify_q_geodesic(model: ModelSpacetime, dc: DynamicalCoupling, q: float,
                      t_grid: Sequence[float], tolerance: float = 1e-6):
    """Max deviation of lq between push-forwards from the affine law."""
    t_grid = sorted(float(t) for t in t_grid)
    base, _ = lq_distance(model, eval_pushforward(dc, 0.0),
                          eval_pushforward(dc, 1.0), q)
    worst = 0.0
    for a_i, s in enumerate(t_grid):
        for t in t_grid[a_i + 1:]:
            val, _ = lq_distance(model, eval_pushforward(dc, s),
                                 eval_pushforward(dc, t), q)
            val = 0.0 if is_neg_inf(val) else val
            worst = max(worst, abs(val - (t - s) * base))
    return worst <= tolerance, worst


def renyi_entropy(mu: DiscreteMeasure, reference_cell_masses, n_prime: float) -> float:
    """- int rho^(1 - 1/N') dm for the density rho of the absolutely continuous
    part; support points sitting in zero-mass cells are atoms and contribute 0."""
    if n_prime <= 1.0:
        raise InvalidInputError("need N' > 1")
    m = np.asarray(reference_cell_masses, dtype=float)
    if len(m) != len(mu):
        raise InvalidInputError("one reference cell mass per support point")
    if np.any(m < 0.0):
        raise InvalidInputError("reference masses must be nonnegative")
    ac = m > 0.0
    rho = mu.weights[ac] / m[ac]
    return float(-np.sum(rho ** (1.0 - 1.0 / n_prime) * m[ac]))
