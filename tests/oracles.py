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

def _sine_over_theta(kappa, theta):
    """sine_closed(kappa, theta) / theta as sin(x) / x or sinh(x) / x with
    x = sqrt(|kappa|) theta, and its limit 1 at x = 0: no sine that
    underflows is divided by."""
    x = math.sqrt(abs(kappa)) * theta
    if x == 0:
        return 1.0
    return (math.sin(x) if kappa > 0 else math.sinh(x)) / x


def sine_closed(kappa, theta):
    if kappa > 0:
        return math.sin(math.sqrt(kappa) * theta) / math.sqrt(kappa)
    return theta * _sine_over_theta(kappa, theta)


def pi_closed(kappa):
    return math.pi / math.sqrt(kappa) if kappa > 0 else math.inf


def sigma_closed(kappa, t, theta):
    if theta == 0:
        return t
    if theta >= pi_closed(kappa):
        return math.inf
    # t s(t theta) / s(theta) with s = sine / theta, which is sine(t theta) /
    # sine(theta) also where the product t theta underflows
    return t * _sine_over_theta(kappa, t * theta) / _sine_over_theta(kappa, theta)


def tau_closed(kappa, n_param, t, theta):
    sig = sigma_closed(kappa / (n_param - 1), t, theta)
    if math.isinf(sig) or theta == 0:
        return (0.0 if t == 0 else math.inf) if math.isinf(sig) else t
    # t^{1/N} sigma^{1-1/N} = t q^{1-1/N} with sigma = t q: q is normal where
    # sigma underflows for a subnormal t
    q = _sine_over_theta(kappa / (n_param - 1), t * theta) / \
        _sine_over_theta(kappa / (n_param - 1), theta)
    return t * q ** (1 - 1 / n_param)


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


def sine_ode_samples(profile, rtol=3e-14):
    """u at the samples of a piecewise-linear ``profile``, integrated one
    sample interval at a time (DOP853 restarted at each kink, where a solve
    across the kinks loses digits)."""
    state, out = [0.0, 1.0], [0.0]
    for a, b, ka, kb in zip(profile.params[:-1], profile.params[1:],
                            profile.values[:-1], profile.values[1:]):
        slope = (kb - ka) / (b - a)
        sol = solve_ivp(lambda x, y: [y[1], -(ka + slope * (x - a)) * y[0]], (a, b), state,
                        method="DOP853", rtol=rtol, atol=1e-20)
        assert sol.success
        state = sol.y[:, -1]
        out.append(state[0])
    return np.array(out)


def sigma_ode(kappa_fn, t, theta, rtol=1e-11):
    u = sine_ode(kappa_fn, theta, rtol=rtol)
    return u(t * theta) / u(theta)


def first_zero_ode(kappa_fn, L):
    """First positive zero via dense sampling + Brent on the adaptive solve."""
    from scipy.optimize import brentq
    u = sine_ode(kappa_fn, L)
    xs = np.linspace(1e-9, L, 20001)
    vals = u(xs)
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


# --- the classical RK4 route: a reference at its own error -------------------

RK4_STEPS = 4096


def rk4_step(c0, ch, c1, h, u, d):
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


def rk4_matrices(kappa_half, h):
    """The four entry arrays of each RK4 step's transition matrix, from the
    curvature at the nodes and midpoints of the steps (2 n + 1 values)."""
    c0, ch, c1 = kappa_half[0:-1:2], kappa_half[1::2], kappa_half[2::2]
    p00, p10 = rk4_step(c0, ch, c1, h, 1.0, 0.0)
    p01, p11 = rk4_step(c0, ch, c1, h, 0.0, 1.0)
    return p00, p01, p10, p11


def scan_allocating(p00, p01, p10, p11):
    """Prefix products M_k ... M_0 of 2 x 2 matrices by a doubling scan that
    allocates its products and sums every round and copies them back: the
    reference whose bits the buffer-swapping ``distortion._product_scan``
    must keep. Writes into the arrays passed in."""
    s, n = 1, len(p00)
    while s < n:
        q00 = p00[s:] * p00[:-s] + p01[s:] * p10[:-s]
        q01 = p00[s:] * p01[:-s] + p01[s:] * p11[:-s]
        q10 = p10[s:] * p00[:-s] + p11[s:] * p10[:-s]
        q11 = p10[s:] * p01[:-s] + p11[s:] * p11[:-s]
        p00[s:], p01[s:], p10[s:], p11[s:] = q00, q01, q10, q11
        s *= 2
    return p00, p01, p10, p11


def _hermite(xs, ys, dys, x):
    """Cubic Hermite interpolation between the nodes xs (h apart)."""
    x = np.asarray(x, dtype=float)
    h = xs[1] - xs[0]
    idx = np.clip(((x - xs[0]) / h).astype(int), 0, len(xs) - 2)
    s = (x - xs[idx]) / h
    out = ((1 + 2 * s) * (1 - s) ** 2 * ys[idx] + s * (1 - s) ** 2 * dys[idx] * h
           + s * s * (3 - 2 * s) * ys[idx + 1] + s * s * (s - 1) * dys[idx + 1] * h)
    return out if out.shape else float(out)


def rk4_sine(profile):
    """The generalized sine of ``profile`` by classical RK4 with the fixed
    step L / 4096 and cubic Hermite lookups between the nodes: (sine, first
    zero), the first zero bisected to 1e-10 on the lookups after the first
    sign change between nodes (+inf if none)."""
    half = np.linspace(0.0, profile.length, 2 * RK4_STEPS + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        _, p01, _, p11 = scan_allocating(*rk4_matrices(profile(half), profile.length / RK4_STEPS))
    xs, u, du = half[::2], np.concatenate(([0.0], p01)), np.concatenate(([1.0], p11))

    def sine(x):
        return _hermite(xs, u, du, x)

    change = np.nonzero(u[1:-1] * np.sign(u[2:]) <= 0.0)[0]
    if len(change) == 0:
        return sine, math.inf
    i = change[0] + 1
    lo, hi = xs[i], xs[i + 1]
    while hi - lo > 1e-10 and lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if sine(mid) * u[i] > 0.0 else (lo, mid)
    return sine, 0.5 * (lo + hi)


def sigma_full_solve(profile, t, theta):
    """sigma^{(t)}(theta) from the RK4 sine of ``profile`` over all of
    [0, L], with the conjugate guard of ``sigma_coeff`` (+inf at or past
    (1 - 1e-9) times the first zero), or None where the RK4 sine is not
    finite at t theta or theta."""
    if theta == 0.0:
        return float(t)
    sine, zero = rk4_sine(profile)
    if theta >= zero * (1.0 - 1e-9):
        return math.inf
    num, denom = sine(t * theta), sine(theta)
    if not (math.isfinite(num) and math.isfinite(denom)):
        return None
    return float(num / denom)


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


def lq_plan_dense(mu_w, nu_w, L, q):
    """The transport LP of ``transport._optimal_plan`` with the equality
    matrix built dense, (n + m) x nvar: (value, plan) or (-inf, None)."""
    from scipy.optimize import linprog

    allowed = L > -math.inf
    cost = np.where(allowed, np.clip(L, 0.0, None) ** q, 0.0)
    n, m = L.shape
    idx = np.nonzero(allowed)
    nvar = len(idx[0])
    if nvar == 0:
        return -math.inf, None
    a_eq = np.zeros((n + m, nvar))
    a_eq[idx[0], np.arange(nvar)] = 1.0
    a_eq[n + idx[1], np.arange(nvar)] = 1.0
    res = linprog(-cost[allowed], A_eq=a_eq, b_eq=np.concatenate([mu_w, nu_w]),
                  bounds=(0, None), method="highs")
    if not res.success:
        return -math.inf, None
    plan = np.zeros((n, m))
    plan[idx] = res.x
    return float(np.sum(cost * plan)) ** (1.0 / q), plan


# --- nearest-support reference cells ------------------------------------------

def voronoi_masses_cube(model, mu, resolution=256):
    """``comparison.voronoi_cell_masses`` written out with the (chunk, n, 2)
    difference cube: each chunk of the raster's cells holds its differences to
    every support point, squares them and sums over the last axis, and the
    chunk's cell measures go to the nearest point by one ``np.bincount``."""
    pts = np.asarray([p.coords for p in mu.support], dtype=float)
    n = len(pts)
    if n == 1:
        return np.zeros(1)
    d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
    np.fill_diagonal(d2, np.inf)
    pad = 0.5 * float(np.median(np.sqrt(np.min(d2, axis=1))))
    (bt0, bt1), (bx0, bx1) = model.bounds
    t0 = max(float(pts[:, 0].min()) - pad, bt0)
    t1 = min(float(pts[:, 0].max()) + pad, bt1)
    x0 = max(float(pts[:, 1].min()) - pad, bx0)
    x1 = min(float(pts[:, 1].max()) + pad, bx1)
    ht, hx = (t1 - t0) / resolution, (x1 - x0) / resolution
    tc = t0 + ht * (np.arange(resolution) + 0.5)
    xc = x0 + hx * (np.arange(resolution) + 0.5)
    cell_mass = (model.density(tc) * ht * hx)[:, None] * np.ones((1, resolution))
    grid = np.stack(np.meshgrid(tc, xc, indexing="ij"), axis=-1).reshape(-1, 2)
    masses = np.zeros(n)
    chunk = max(1, int(4e6) // n)
    for lo in range(0, grid.shape[0], chunk):
        sl = grid[lo:lo + chunk]
        d = np.sum((sl[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
        owner = np.argmin(d, axis=1)
        masses += np.bincount(owner, weights=cell_mass.ravel()[lo:lo + chunk],
                              minlength=n)
    return masses


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


def edge_table_per_jump(model, shape):
    """``models._edge_table`` written out jump by jump: one warp
    interpolation, radicand, causality test and 3-point Gauss sum per jump
    of the fan, in fan order. The batched table must equal it bit for bit."""
    from lorentz_synth import models as M

    ts, xs = M._lattice_axes(model, shape)
    dt = ts[1] - ts[0]
    dx = xs[1] - xs[0]
    n_t = len(ts)
    W = np.full((len(M._FAN), n_t), -np.inf)
    for e, (di, dj) in enumerate(M._FAN):
        imax = n_t - di
        if imax <= 0:
            continue
        tmat = ts[:imax, None] + M._QS[None, :] * (di * dt)
        rad = (di * dt) ** 2 - (model.warp(tmat) * (dj * dx)) ** 2
        ok = np.all(rad >= -1e-15, axis=1)
        vals = np.sqrt(np.clip(rad[:, 1:4], 0.0, None)) @ M._QW
        W[e, :imax] = np.where(ok, vals, -np.inf)
    return ts, xs, W


def backtrack_per_jump(ts, xs, W, dist, source, target):
    """The maximizer from ``source`` to ``target`` in the field ``dist``, one
    Python step per fan jump at every path node: the first predecessor in
    fan order whose value plus the jump's weight gives the node's value to
    1e-9 relative."""
    from lorentz_synth import models as M
    from lorentz_synth.errors import NoGeodesicError

    path = [target]
    cur = target
    rel = 1e-9 * max(1.0, abs(float(dist[target])))
    while cur != source:
        best = None
        for e, (di, dj) in enumerate(M._FAN):
            ip, jp = cur[0] - di, cur[1] - dj
            if ip < source[0] or not 0 <= jp < len(xs):
                continue
            w = W[e, ip]
            if w == -np.inf or dist[ip, jp] == -np.inf:
                continue
            if abs(dist[ip, jp] + w - dist[cur]) <= rel:
                best = (ip, jp)
                break
        if best is None:
            raise NoGeodesicError("backtracking lost the maximizing path")
        path.append(best)
        cur = best
    path.reverse()
    return path


def lattice_path_per_jump(ts, xs, W, dist, source, target):
    """``models._lattice_path`` over :func:`backtrack_per_jump`, each
    segment's weight looked up by its (di, dj) in the fan."""
    from lorentz_synth import models as M
    from lorentz_synth.errors import NoGeodesicError

    if dist[target] == -np.inf or dist[target] <= 0.0:
        raise NoGeodesicError("endpoints are not chronologically related on the lattice")

    first = backtrack_per_jump(ts, xs, W, dist, source, target)
    nodes = np.array([[ts[i], xs[j]] for i, j in first])
    seg = np.zeros(len(first))
    for k in range(1, len(first)):
        i0, j0 = first[k - 1]
        i1, j1 = first[k]
        e = M._FAN.index((i1 - i0, j1 - j0))
        seg[k] = W[e, i0]
    return M.LatticePath(nodes, np.cumsum(seg), float(dist[target]))


def time_separation_pairwise(model, x, y, resolution=257):
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
    for k, sh in enumerate((shape, M._fine_shape(shape))):
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
    ``np.einsum`` per sample. Each of ``directions`` fractions s in
    [-0.9, 0.9] gives the slope along spatial axis a = 1 + (m mod (dims - 1))
    at s times the half-width about the centre of the two null slopes of the
    (0, a) plane, the roots w of g00 + 2 g0a w + gaa w^2: centre -g0a / gaa,
    half-width sqrt(g00 - g0a^2 / gaa) / sqrt(-gaa). Each sample is
    normalised to g-length 1 and taken at speeds ``speed`` and ``2 speed``,
    stored as (*shape, 2 directions, dims)."""
    d = grid.dims
    nodes = grid.nodes
    vs = np.zeros(grid.shape + (2 * directions, d))
    for m, s in enumerate(np.linspace(-0.9, 0.9, directions)):
        v = np.zeros(grid.shape + (d,))
        v[..., 0] = 1.0
        ax = 1 + (m % (d - 1))
        g00, g0a, gaa = nodes[..., 0, 0], nodes[..., 0, ax], nodes[..., ax, ax]
        scale = np.sqrt(np.clip(-gaa, 1e-300, None))
        root = np.sqrt(np.clip(g00 - g0a * g0a / gaa, 0.0, None))
        v[..., ax] = s * root / scale + (-g0a / gaa)
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


# --- finite-difference curvature, the roll / einsum / SVD route -------------

def d1_roll(f, axis, h):
    """4th-order central first difference along ``axis``, periodic."""
    fp1, fm1 = np.roll(f, -1, axis), np.roll(f, 1, axis)
    fp2, fm2 = np.roll(f, -2, axis), np.roll(f, 2, axis)
    return (-fp2 + 8.0 * fp1 - 8.0 * fm1 + fm2) / (12.0 * h)


def d2_roll(f, axis, h):
    """4th-order central second difference along ``axis``, periodic."""
    fp1, fm1 = np.roll(f, -1, axis), np.roll(f, 1, axis)
    fp2, fm2 = np.roll(f, -2, axis), np.roll(f, 2, axis)
    return (-fp2 + 16.0 * fp1 - 30.0 * f + 16.0 * fm1 - fm2) / (12.0 * h * h)


def _roll_hessian(f, spacing):
    d = len(spacing)
    out = np.empty(f.shape + (d, d))
    for i in range(d):
        out[..., i, i] = d2_roll(f, i, spacing[i])
        for j in range(i + 1, d):
            mixed = d1_roll(d1_roll(f, i, spacing[i]), j, spacing[j])
            out[..., i, j] = mixed
            out[..., j, i] = mixed
    return out


def christoffel_einsum(nodes, spacing, contiguous=True, ginv=None):
    """Gamma^k_ij = g^kl (d_i g_jl + d_j g_il - d_l g_ij) / 2 from 4th-order
    central differences taken with ``np.roll`` (periodic, so the band within
    4 nodes of an edge is garbage), contracted with one ``np.einsum``. The
    inverse g^kl, as (*shape, d, d), is ``ginv`` if given, else LAPACK's
    ``np.linalg.inv``: the contraction order is held to the library's bits
    with its own inverse, whose closed form on 1+1 grids moves last bits
    where g_01 != 0.

    T is made C-contiguous first unless ``contiguous`` is False. Built as a
    sum of moved axes it has l innermost in memory, like g^kl; einsum then
    sums over l in SIMD lanes, not in index order: with two lanes (x86
    without FMA) it reads (p_0 + p_2) + p_1 for d = 3, with fused
    multiply-adds on aarch64. On a C-contiguous T it sums l = 0, 1, 2 in
    turn, one rounded product at a time, on every platform. For d = 2 both
    give the same bits."""
    d = nodes.shape[-1]
    dg = np.empty(nodes.shape[:-2] + (d, d, d))
    for k in range(d):
        dg[..., k, :, :] = d1_roll(nodes, k, spacing[k])
    # T[l, i, j] = d_i g_jl + d_j g_il - d_l g_ij
    T = (np.moveaxis(dg, [-3, -2, -1], [-2, -1, -3])
         + np.moveaxis(dg, [-3, -2, -1], [-1, -2, -3])
         - dg)
    if contiguous:
        T = np.ascontiguousarray(T)
    if ginv is None:
        ginv = np.linalg.inv(nodes)
    return 0.5 * np.einsum("...kl,...lij->...kij", ginv, T)


def ricci_einsum(nodes, spacing, ginv=None, det=None):
    """(Ricci, Gamma): d_k Gamma^k_ij - Hess(s)_ij + d_l s Gamma^l_ij -
    Gamma^k_il Gamma^l_kj with s = log sqrt|det g|, both quadratic terms one
    ``np.einsum`` each; ``ginv`` and ``det`` default to LAPACK's, as in
    ``christoffel_einsum``."""
    gamma = christoffel_einsum(nodes, spacing, ginv=ginv)
    d = nodes.shape[-1]
    if det is None:
        det = np.linalg.det(nodes)
    s = 0.5 * np.log(np.abs(det))
    dgam = np.zeros(gamma.shape[:-3] + (d, d))
    for k in range(d):
        dgam += d1_roll(gamma[..., k, :, :], k, spacing[k])
    hess_s = _roll_hessian(s, spacing)
    ds = np.stack([d1_roll(s, k, spacing[k]) for k in range(d)], axis=-1)
    quad1 = np.einsum("...l,...lij->...ij", ds, gamma)
    quad2 = np.einsum("...kil,...lkj->...ij", gamma, gamma)
    return dgam - hess_s + quad1 - quad2, gamma


def bakry_emery_einsum(nodes, weight, spacing, n_param, ginv=None, det=None):
    """(Bakry-Emery, weighted Hessian, Ricci, Gamma) for the log-density
    ``weight``: Ric - (Hess f - Gamma^k d_k f) - df (x) df / (N - dims), the
    last term left out for N = dims; ``ginv`` and ``det`` as in
    ``ricci_einsum``."""
    ric, gamma = ricci_einsum(nodes, spacing, ginv, det)
    d = nodes.shape[-1]
    df = np.stack([d1_roll(weight, k, spacing[k]) for k in range(d)], axis=-1)
    hess = _roll_hessian(weight, spacing) - np.einsum("...kij,...k->...ij", gamma, df)
    be = ric - hess
    if n_param > d:
        be = be - np.einsum("...i,...j->...ij", df, df) / (n_param - d)
    return be, hess, ric, gamma


def too_ill_conditioned_svd(nodes, valid, limit):
    """Whether any valid nodal matrix has a 2-norm condition number (one SVD
    per node) above ``limit``."""
    return bool(np.any(np.linalg.cond(nodes[valid]) > limit))


def signature_eigvalsh(nodes, mask):
    """The signature check by one ``np.linalg.eigvalsh`` per masked node, as
    ``lipschitz_grid`` made it for every dimension before its 2 x 2 closed
    form: None where some masked nodal matrix lacks signature (+, -, ..., -),
    else the worst max|lambda| / min|lambda|."""
    eig = np.linalg.eigvalsh(nodes[mask])
    if np.any(eig[..., :-1] >= 0.0) or np.any(eig[..., -1] <= 0.0):
        return None
    top = np.maximum(-eig[:, 0], eig[:, -1])
    low = np.minimum(-eig[:, -2], eig[:, -1])
    return float(np.max(top / low))


# --- curvature deficit curves at full width -------------------------------------

def mollify_full(grid, eps):
    """``lipschitz_grid.mollify`` with every coefficient plane and the weight
    convolved at full width by ``scipy.ndimage.convolve1d(mode="nearest")``
    and the mask eroded by ``minimum_filter1d``: no plane is cut along an
    axis on which it is invariant."""
    from scipy import ndimage
    from lorentz_synth import lipschitz_grid as L
    from lorentz_synth.errors import InvalidInputError

    if eps < 2.0 * max(grid.spacing):
        raise InvalidInputError("kernel radius below twice the grid spacing")
    nodes = grid.nodes.copy()
    w, valid = grid.weight_nodes, grid.valid
    for ax, h in enumerate(grid.spacing):
        r = int(math.floor(eps / h))
        kern = L._bump_kernel(r, h, eps)
        for i in range(grid.dims):
            for j in range(i, grid.dims):
                sm = ndimage.convolve1d(nodes[..., i, j], kern, axis=ax, mode="nearest")
                nodes[..., i, j] = sm
                nodes[..., j, i] = sm
        w = ndimage.convolve1d(w, kern, axis=ax, mode="nearest")
        valid = ndimage.minimum_filter1d(valid.astype(np.uint8), 2 * r + 1, axis=ax,
                                         mode="constant", cval=0).astype(bool)
    if not np.any(valid):
        raise InvalidInputError("kernel radius leaves no interior nodes")
    sup_err = max(float(np.max(np.abs(nodes - grid.nodes)[valid])),
                  float(np.max(np.abs(w - grid.weight_nodes)[valid])))
    lip = max(L._fd_sup_quotient(nodes, grid.spacing, len(grid.shape)),
              L._fd_sup_quotient(w, grid.spacing, len(grid.shape)))
    return L.MetricGrid(grid.spacing, grid.origin, nodes, w, valid, lip, sup_err)


def lp_deficit_curves_full(grid, K, p_list, eps_list, n_param):
    """``lipschitz_grid.lp_deficit_curves`` on full-width arrays, the grid
    smoothed by ``mollify_full``: every radius smooths, narrows, rebuilds the
    Bakry-Emery tensor and scans k at every node, and integrates over the
    validity region of the largest radius."""
    from lorentz_synth import lipschitz_grid as L
    from lorentz_synth.errors import InvalidInputError

    eps_list = [float(e) for e in eps_list]
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise InvalidInputError("radii must be strictly decreasing")
    if any(e < 2.0 * max(grid.spacing) for e in eps_list):
        raise InvalidInputError("kernel radius below twice the grid spacing")
    if len(p_list) == 0:
        raise InvalidInputError("need at least one exponent p")
    curves = [[] for _ in p_list]
    region = None
    for eps in eps_list:
        sm = mollify_full(grid, eps)
        narrowed = L.cone_narrowed(sm, L.narrowing_constant(sm))
        field = L.bakry_emery(narrowed, n_param)
        if region is None:
            region = field.valid
            if not np.any(region):
                raise InvalidInputError("the curvature stencils leave no interior nodes "
                                        "at the largest kernel radius")
        weights = L._measure_weights(sm)[region]
        k = L.timelike_lower_bound_fn(field, narrowed)
        shortfall = np.clip(K - k[region], 0.0, None)
        for p, curve in zip(p_list, curves):
            curve.append((eps, float(np.sum(shortfall ** p * weights))))
    return curves
