"""Independent reference computations for freezing expected test values.

Deliberately written against a different numerical stack than the library
(scipy adaptive integrators, closed forms, permutation enumeration) so that a
shared bug cannot hide in both routes.
"""

import math
from itertools import permutations

import numpy as np
from scipy.integrate import quad, solve_ivp


# --- constant-curvature closed forms ---------------------------------------

def sine_closed(kappa, theta):
    if kappa > 0:
        return math.sin(math.sqrt(kappa) * theta) / math.sqrt(kappa)
    if kappa == 0:
        return theta
    return math.sinh(math.sqrt(-kappa) * theta) / math.sqrt(-kappa)


def pi_closed(kappa):
    return math.pi / math.sqrt(kappa) if kappa > 0 else math.inf


def sigma_closed(kappa, t, theta):
    if theta == 0:
        return t
    if theta >= pi_closed(kappa):
        return math.inf
    return sine_closed(kappa, t * theta) / sine_closed(kappa, theta)


def tau_closed(kappa, n_param, t, theta):
    sig = sigma_closed(kappa / (n_param - 1), t, theta)
    if math.isinf(sig):
        return 0.0 if t == 0 else math.inf
    return t ** (1 / n_param) * sig ** (1 - 1 / n_param)


# --- adaptive-solver route for variable coefficients ------------------------

def sine_ode(kappa_fn, theta_max, rtol=1e-11, atol=1e-13):
    """Adaptive high-order solve of u'' + kappa u = 0, u(0)=0, u'(0)=1.

    Returns a dense-output callable for u on [0, theta_max].
    """
    sol = solve_ivp(lambda x, y: [y[1], -kappa_fn(x) * y[0]],
                    (0.0, theta_max), [0.0, 1.0], method="DOP853",
                    rtol=rtol, atol=atol, dense_output=True)
    assert sol.success
    return lambda x: float(np.atleast_2d(sol.sol(x))[0, 0]) if np.isscalar(x) else sol.sol(x)[0]


def sigma_ode(kappa_fn, t, theta, rtol=1e-11):
    u = sine_ode(kappa_fn, theta, rtol=rtol)
    return u(t * theta) / u(theta)


def first_zero_ode(kappa_fn, L):
    """First positive zero via dense sampling + Brent on the adaptive solve."""
    from scipy.optimize import brentq
    u = sine_ode(kappa_fn, L)
    xs = np.linspace(1e-9, L, 20001)
    vals = np.array([u(x) for x in xs])
    idx = np.nonzero(vals[:-1] * vals[1:] <= 0)[0]
    if len(idx) == 0:
        return math.inf
    i = idx[0]
    return brentq(u, xs[i], xs[i + 1], xtol=1e-13)


# --- defect estimate, adaptive quadrature route -----------------------------

def c_np_closed(n_param, p):
    return (2 * p - 1) ** p * ((n_param - 1) / (2 * p - n_param)) ** (p - 1)


def defect_constants_closed(K, n_param, p, eta):
    N = n_param
    c = c_np_closed(N, p)
    if K <= 0:
        return c, 1.0, c, 1.0
    kt = K / (N - 1)
    pib = math.pi / math.sqrt(kt)
    # sin is symmetric-decreasing past pi_b/2, so the max of sin^{1-N} sits at
    # the right endpoint pi_b - eta
    d = 1.0 + sine_closed(kt, pib - eta) ** (1.0 - N)
    omega = max(c, sine_closed(kt, eta) ** (N + 1 - 4 * p))
    return c, d, omega, d


def defect_rhs_quad(K, n_param, p, eta, kappa_fn, t, theta):
    """Right-hand side of the defect estimate via scipy adaptive quadrature."""
    N = n_param
    _, _, omega, lam = defect_constants_closed(K, N, p, eta)
    u = sine_ode(lambda x: kappa_fn(x) / (N - 1), theta)
    denom = u(theta)
    assert denom > 0

    def sigma_r(r):
        return u(r * theta) / denom

    int_tau = quad(lambda r: r * sigma_r(r) ** (N - 1), t, 1, epsabs=1e-12)[0]
    int_neg = quad(lambda r: max(K - kappa_fn(r * theta), 0.0) * sigma_r(r) ** (N - 1),
                   0, 1, epsabs=1e-12)[0]
    lead = (lam * omega ** (1 / (2 * p - 1))) ** (1 / N)
    mid = int_tau ** (2 * (p - 1) / (N * (2 * p - 1)))
    tail = (t * theta ** (2 * p) * int_neg) ** (1 / (N * (2 * p - 1)))
    return lead * mid * tail


def tau_ode(kappa_fn, n_param, t, theta):
    """tau coefficient for a variable profile via the adaptive solver."""
    if t == 0:
        return 0.0
    sig = sigma_ode(lambda x: kappa_fn(x) / (n_param - 1), t, theta)
    return t ** (1 / n_param) * sig ** (1 - 1 / n_param)


# --- flat-space transport helpers -------------------------------------------

def minkowski_l(x, y):
    """Time separation between events in flat 1+1 space, -inf if non-causal."""
    dt = y[0] - x[0]
    dx = y[1] - x[1]
    s2 = dt * dt - dx * dx
    if dt >= 0 and s2 >= 0:
        return math.sqrt(s2)
    return -math.inf


def lq_bruteforce_equal_weights(xs, ys, q):
    """ell_q between uniform measures on equally many points, by enumerating
    all permutation couplings (Birkhoff extreme points)."""
    n = len(xs)
    best = -math.inf
    for perm in permutations(range(n)):
        ls = [minkowski_l(xs[i], ys[perm[i]]) for i in range(n)]
        if any(l < 0 for l in ls):
            continue
        best = max(best, (sum(l ** q for l in ls) / n) ** (1 / q))
    return best


# --- warped 1+1 geodesics by shooting ----------------------------------------

def warped_l_shooting(warp, src, dst):
    """Time separation in g = dt^2 - a(t)^2 dx^2 by shooting on the conserved
    momentum J = a^2 dx/ds: maximizers are graphs over t, with
    dx/dt = J / (a^2 sqrt(1 + J^2/a^2)) and dl = dt / sqrt(1 + J^2/a^2).
    The spatial reach X(J) is strictly increasing, so brentq pins J."""
    from scipy.integrate import quad
    from scipy.optimize import brentq

    t0, x0 = src
    t1, x1 = dst
    if t1 <= t0:
        raise ValueError("need a strictly chronological pair")
    dx = x1 - x0

    def reach(J):
        return quad(lambda t: J / (warp(t) ** 2 * math.sqrt(1.0 + J ** 2 / warp(t) ** 2)),
                    t0, t1, epsabs=1e-13, epsrel=1e-12, limit=200)[0]

    if dx == 0.0:
        J = 0.0
    else:
        hi = 1.0
        while abs(reach(math.copysign(hi, dx))) < abs(dx):
            hi *= 2.0
            if hi > 1e8:
                raise ValueError("pair too close to the light cone for shooting")
        J = brentq(lambda J: reach(J) - dx, -hi, hi, xtol=1e-13, rtol=1e-14)

    return quad(lambda t: 1.0 / math.sqrt(1.0 + J ** 2 / warp(t) ** 2),
                t0, t1, epsabs=1e-13, epsrel=1e-12, limit=200)[0]


def lq_bruteforce_vertices(xs, mu_w, ys, nu_w, q, l_fn=None):
    """lq transport value by enumerating the vertices of the transportation
    polytope: every vertex is supported on a spanning forest of the bipartite
    support graph, so trying all (n + m - 1)-edge subsets and peeling leaves
    recovers each basic feasible solution exactly."""
    from itertools import combinations

    l_fn = l_fn or minkowski_l
    n, m = len(mu_w), len(nu_w)
    L = [[l_fn(x, y) for y in ys] for x in xs]
    edges = [(i, j) for i in range(n) for j in range(m)]
    best = -math.inf
    for sub in combinations(edges, n + m - 1):
        row = list(mu_w)
        col = list(nu_w)
        remaining = list(sub)
        flow = {}
        ok = True
        while remaining:
            deg_r = [0] * n
            deg_c = [0] * m
            for i, j in remaining:
                deg_r[i] += 1
                deg_c[j] += 1
            leaf = None
            for (i, j) in remaining:
                if deg_r[i] == 1:
                    leaf, amt, side = (i, j), row[i], "r"
                    break
                if deg_c[j] == 1:
                    leaf, amt, side = (i, j), col[j], "c"
                    break
            if leaf is None:        # a cycle: not a forest, skip
                ok = False
                break
            i, j = leaf
            flow[leaf] = amt
            row[i] -= amt
            col[j] -= amt
            remaining.remove(leaf)
        if not ok or any(abs(r) > 1e-12 for r in row) or any(abs(c) > 1e-12 for c in col):
            continue
        if any(f < -1e-12 for f in flow.values()):
            continue
        if any(f > 1e-12 and L[i][j] < 0 for (i, j), f in flow.items()):
            continue
        val = sum(f * max(L[i][j], 0.0) ** q for (i, j), f in flow.items() if f > 0)
        best = max(best, val)
    return best if best == -math.inf else best ** (1.0 / q)


# --- lattice longest path, one source at a time -----------------------------

def dp_longest_loop(W, fan, n_t, n_x, source):
    """Longest-path field from one lattice node, edge by edge: the plain
    loop over the jump fan that the stacked DP must reproduce bit for bit.
    ``W[e, i]`` is the weight of jump ``fan[e]`` leaving time row i."""
    dist = np.full((n_t, n_x), -np.inf)
    dist[source] = 0.0
    buf = np.empty(n_x)
    for i in range(source[0] + 1, n_t):
        row = dist[i]
        for e, (di, dj) in enumerate(fan):
            ip = i - di
            if ip < source[0] or W[e, ip] == -np.inf:
                continue
            prev = dist[ip]
            if dj == 0:
                np.maximum(row, prev + W[e, ip], out=row)
            elif dj > 0:
                buf[:dj] = -np.inf
                np.add(prev[:-dj], W[e, ip], out=buf[dj:])
                np.maximum(row, buf, out=row)
            else:
                buf[dj:] = -np.inf
                np.add(prev[-dj:], W[e, ip], out=buf[:dj])
                np.maximum(row, buf, out=row)
    return dist


def time_separation_pairwise(model, x, y, resolution=257, richardson=True):
    """l(x, y) for one pair on a lattice chart, by the one-pair rules written
    out on their own: both events snap to the coarse grid, one node gives 0,
    snapped nodes that are not causally related give -inf, otherwise one
    one-source DP (:func:`dp_longest_loop`) per lattice level, a Richardson
    step over the levels that reach the target, and a clamp at 0. Only the
    lattice geometry (shape, axes, snapping, edge weights, the causal cone)
    comes from the library."""
    from lorentz_synth import models as M

    x, y = M.as_event(x), M.as_event(y)
    model.require_inside(x, y)
    if x.coords == y.coords:
        return 0.0
    shape = M._lattice_shape(model, resolution)
    ts, xs = M._lattice_axes(model, shape)
    src, tgt = M._snap(ts, xs, x), M._snap(ts, xs, y)
    if src == tgt:
        return 0.0
    sx = M.Event((float(ts[src[0]]), float(xs[src[1]])))
    sy = M.Event((float(ts[tgt[0]]), float(xs[tgt[1]])))
    if not M.causally_related(model, sx, sy):
        return -math.inf
    vals = []
    shapes = [shape, M._fine_shape(shape)] if richardson else [shape]
    for k, sh in enumerate(shapes):
        m = 2 ** k
        _, _, W = M._edge_table(model, sh)
        dist = dp_longest_loop(W, M._FAN, *sh, (src[0] * m, src[1] * m))
        vals.append(float(dist[tgt[0] * m, tgt[1] * m]))
    good = [v for v in vals if v != -math.inf]
    if not good:
        return 0.0          # causal, but below the lattice's chronology resolution
    out = good[-1]
    if len(good) == 2:
        out = max(good[1], 2.0 * good[1] - good[0])
    return max(float(out), 0.0)


# --- ball volumes, one raster per radius -------------------------------------

def ball_volume_rasters(model, o, r, region, dr, resolution):
    """Ball volume v(r) = m[region and {0 <= l_o <= r}] and area
    (v(r + dr) - v(r)) / dr with the l_o field rebuilt for the radius and one
    midpoint raster per ball: flat charts read the closed form at the cell
    centres, lattice charts the node of ``lorentz_distance_field`` nearest to
    each centre. The raster runs in chunks of 2e6 // resolution rows, each
    chunk's masked density sum added to a running total."""
    from lorentz_synth import models as M

    if model.kind == "minkowski":
        def l_of(pts):
            dt = pts[..., 0] - o[0]
            dx = pts[..., 1] - o[1]
            s2 = dt * dt - dx * dx
            out = np.where((dt > 0) & (s2 >= 0), np.sqrt(np.clip(s2, 0, None)), -np.inf)
            return np.where((dt == 0) & (dx == 0), 0.0, out)
    else:
        ts, xs, field = M.lorentz_distance_field(model, o)

        def l_of(pts):
            ii = np.clip((pts[..., 0] - ts[0]) / (ts[1] - ts[0]), 0, len(ts) - 1)
            jj = np.clip((pts[..., 1] - xs[0]) / (xs[1] - xs[0]), 0, len(xs) - 1)
            return field[np.round(ii).astype(int), np.round(jj).astype(int)]

    (t0, t1), (x0, x1) = model.bounds
    ht, hx = (t1 - t0) / resolution, (x1 - x0) / resolution
    t_centers = t0 + ht * (np.arange(resolution) + 0.5)
    x_centers = x0 + hx * (np.arange(resolution) + 0.5)
    chunk = max(1, int(2e6) // resolution)

    def measure(radius):
        total = 0.0
        for lo in range(0, resolution, chunk):
            hi = min(lo + chunk, resolution)
            pts = np.empty((hi - lo, resolution, 2))
            pts[..., 0] = t_centers[lo:hi, None]
            pts[..., 1] = x_centers[None, :]
            l = l_of(pts)
            mask = np.asarray(region(pts) & (l >= 0.0) & (l <= radius), dtype=bool)
            total += float(np.sum(mask * model.density(t_centers[lo:hi])[:, None]))
        return total * ht * hx

    v0, v1 = measure(r), measure(r + dr)
    return v0, (v1 - v0) / dr


def cone_scan_einsum(field, grid, directions=16, speed=0.5):
    """k(x) = min over cone samples of T(v, v) / g(v, v), T the Bakry-Emery
    tensor (else Ricci), NaN off ``field.valid``: the two-speed scan, one
    ``np.einsum`` per sample. Each of ``directions`` slopes in [-0.9, 0.9]
    along spatial axis 1 + (m mod (dims - 1)), scaled by the chart null
    slope, is normalised to g-length 1 and taken at speeds ``speed`` and
    ``2 speed``, stored as (*shape, 2 directions, dims)."""
    d = grid.dims
    nodes = grid.nodes
    vs = np.zeros(grid.shape + (2 * directions, d))
    for m, s in enumerate(np.linspace(-0.9, 0.9, directions)):
        v = np.zeros(grid.shape + (d,))
        v[..., 0] = 1.0
        ax = 1 + (m % (d - 1))
        scale = np.sqrt(np.clip(-nodes[..., ax, ax], 1e-300, None))
        v[..., ax] = s * np.sqrt(np.clip(nodes[..., 0, 0], 0.0, None)) / scale
        norm2 = np.einsum("...i,...ij,...j->...", v, nodes, v)
        unit = v / np.sqrt(np.clip(norm2, 1e-300, None))[..., None]
        vs[..., m, :] = speed * unit
        vs[..., directions + m, :] = 2.0 * speed * unit
    tensor = field.bakry_emery if field.bakry_emery is not None else field.ricci
    k = np.full(grid.shape, np.inf)
    for m in range(vs.shape[-2]):
        v = vs[..., m, :]
        gvv = np.einsum("...i,...ij,...j->...", v, nodes, v)
        quot = np.einsum("...i,...ij,...j->...", v, tensor, v) / gvv
        np.minimum(k, quot, out=k)
    k[~field.valid] = np.nan
    return k
