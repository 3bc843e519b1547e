"""End-to-end acceptance matrix.

Fifteen checks, one per headline guarantee, each printing a single
``criterion NN <title>: PASS|FAIL`` line (visible under ``pytest -s``) and
asserting the stated tolerance and runtime budget.  Randomized criteria use
fixed seeds so reruns are bit-identical.
"""

import math
import time

import numpy as np

import oracles
from lorentz_synth import lipschitz_grid as L
from lorentz_synth.comparison import (BumpFunction, bishop_gromov,
                                      bonnet_myers, brenier_mccann_check,
                                      check_tmcp, dalembert_check,
                                      eikonal_check, needle_decomposition)
from lorentz_synth.distortion import (KappaProfile, const_first_zero,
                                      defect_bound, first_zero,
                                      generalized_sine, sigma_coeff, tau_coeff)
from lorentz_synth.extreal import is_inf, is_neg_inf
from lorentz_synth.models import minkowski, desitter_like, region_measure
from lorentz_synth.onedim import (CDDensity, model_density, tmcp_delta,
                                  verify_cd_density)
from lorentz_synth.transport import (DiscreteMeasure, dirac,
                                     dynamical_coupling, lq_distance,
                                     uniform_on_box, verify_q_geodesic)


def _line(num, title, ok, elapsed, budget):
    print(f"criterion {num:02d} {title}: {'PASS' if ok else 'FAIL'} "
          f"({elapsed:.1f}s / budget {budget:.0f}s)")
    assert ok, f"criterion {num:02d} {title}"
    assert elapsed < budget, f"criterion {num:02d} exceeded {budget:.0f}s"


def test_criterion_01_distortion_closed_forms():
    t0 = time.perf_counter()
    ok = True
    for kappa in (-4.0, -1.0, 0.0, 1.0, 4.0):
        length = 2.0
        sine = generalized_sine(KappaProfile.constant(kappa, length))
        hi = min(length, oracles.pi_closed(kappa) - 0.01)
        grid = np.linspace(0.0, hi, 513)
        ref = np.array([oracles.sine_closed(kappa, x) for x in grid])
        ok &= float(np.max(np.abs(sine(grid) - ref))) <= 1e-8
    fz = first_zero(KappaProfile.constant(4.0, 2.0))
    ok &= abs(fz - math.pi / 2.0) <= 1e-8
    _line(1, "distortion closed forms", ok, time.perf_counter() - t0, 1.0)


def test_criterion_02_distortion_ordering():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20)
    violations = 0
    for _ in range(1000):
        a, b = rng.uniform(-4.0, 4.0, 2)
        d0, d1 = rng.uniform(0.0, 3.0, 2)
        length = float(rng.uniform(1.0, 2.5))
        n_param = float(rng.choice((2.0, 3.0, 4.5)))
        t = float(rng.uniform(0.0, 1.0))
        theta = float(rng.uniform(0.05, 0.95)) * length
        upper = KappaProfile.from_samples([[0.0, a], [length, b]])
        lower = KappaProfile.from_samples([[0.0, a - d0], [length, b - d1]])
        s_up = sigma_coeff(upper.scaled(1.0 / n_param), t, theta)
        s_lo = sigma_coeff(lower.scaled(1.0 / n_param), t, theta)
        t_up = tau_coeff(upper, n_param, t, theta)
        t_lo = tau_coeff(lower, n_param, t, theta)
        if not is_inf(s_up) and s_lo - s_up > 1e-10:
            violations += 1
        if not is_inf(t_up):
            if t_lo - t_up > 1e-10:
                violations += 1
            if not is_inf(s_up) and s_up - t_up > 1e-10:
                violations += 1
    _line(2, "distortion monotonicity and ordering", violations == 0,
          time.perf_counter() - t0, 10.0)


def test_criterion_03_defect_estimate():
    t0 = time.perf_counter()
    rng = np.random.default_rng(21)
    used = 0
    worst = -math.inf
    while used < 1000:
        big_k = float(rng.uniform(0.5, 2.0))
        n_param = float(rng.choice((2.0, 2.5, 3.0)))
        p = float(rng.uniform(max(2.0, n_param / 2.0 + 0.3), 3.5))
        fz = const_first_zero(big_k / (n_param - 1.0))
        eta = float(rng.uniform(0.05, 0.45)) * fz
        length = 2.0
        offs = rng.uniform(-1.5, 0.5, 2)
        prof = KappaProfile.from_samples(
            [[0.0, big_k + offs[0]], [length, big_k + offs[1]]])
        theta_max = min(length, fz - eta)
        if theta_max <= 1e-2:
            continue
        theta = float(rng.uniform(0.1, 0.9)) * theta_max
        t = float(rng.uniform(0.05, 0.95))
        bound = defect_bound(big_k, n_param, p, eta, prof, t, theta)
        t_model = tau_coeff(KappaProfile.constant(big_k, length), n_param, t, theta)
        t_prof = tau_coeff(prof, n_param, t, theta)
        if is_inf(t_model) or is_inf(t_prof):
            continue
        worst = max(worst, (t_model - t_prof) - bound)
        used += 1
    _line(3, "defect estimate domination", worst <= 1e-8,
          time.perf_counter() - t0, 30.0)


def test_criterion_04_cd_densities():
    t0 = time.perf_counter()
    ok = True
    for big_k in (-1.0, 0.0, 1.0, 4.0):
        for n_param in (2.0, 3.0, 4.5):
            top = const_first_zero(big_k / (n_param - 1.0))
            length = 3.0 if is_inf(top) else min(3.0, 0.93 * top)
            res = verify_cd_density(model_density(big_k, n_param, length),
                                    tolerance=1e-6)
            ok &= res.passed
    xs = np.linspace(0.1, 1.0, 257)
    convex = CDDensity(0.1, 1.0, xs ** 2, KappaProfile.constant(0.0, 0.9), 2.0)
    res = verify_cd_density(convex)
    ok &= (not res.passed) and res.worst_violation > 1e-3
    _line(4, "model densities and counterexample", ok,
          time.perf_counter() - t0, 10.0)


def test_criterion_05_delta_formula():
    t0 = time.perf_counter()
    rng = np.random.default_rng(22)
    ok = True
    for _ in range(100):
        big_k = float(rng.uniform(0.2, 5.0))
        n_param = float(rng.uniform(2.0, 5.0))
        p = float(rng.uniform(1.0, 3.0))
        eps = float(rng.uniform(0.05, 3.0))
        c = float(rng.uniform(2.0, 20.0))
        ref = min((eps * math.sqrt(big_k / (n_param - 1.0)) / (math.pi * c)) ** 5,
                  1.0 / c)
        ok &= tmcp_delta(big_k, n_param, p, eps, c) == ref
    _line(5, "entropy-gap threshold formula", ok, time.perf_counter() - t0, 1.0)


def test_criterion_06_transport_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(23)
    model = minkowski(((-2.0, 2.0), (-2.0, 2.0)))
    ok = True
    for _ in range(50):
        n, m = rng.integers(2, 5, size=2)
        xs = tuple((float(t), float(x)) for t, x in
                   zip(rng.uniform(-1.2, -0.4, n), rng.uniform(-1.5, 1.5, n)))
        ys = tuple((float(t), float(x)) for t, x in
                   zip(rng.uniform(0.4, 1.2, m), rng.uniform(-1.5, 1.5, m)))
        mu_w = rng.random(n) + 0.1
        mu_w /= mu_w.sum()
        nu_w = rng.random(m) + 0.1
        nu_w /= nu_w.sum()
        q = float(rng.uniform(0.2, 0.9))
        val, _ = lq_distance(model, DiscreteMeasure(xs, mu_w),
                             DiscreteMeasure(ys, nu_w), q)
        ref = oracles.lq_bruteforce_vertices(xs, mu_w.tolist(), ys,
                                             nu_w.tolist(), q)
        if is_neg_inf(ref):
            ok &= is_neg_inf(val)
        else:
            ok &= abs(val - ref) < 1e-10
    _line(6, "transport matches vertex enumeration", ok,
          time.perf_counter() - t0, 10.0)


def test_criterion_07_q_geodesic_property():
    t0 = time.perf_counter()
    model = minkowski(((-2.0, 2.0), (-2.0, 2.0)))
    target = uniform_on_box(((0.8, 1.2), (-0.3, 0.3)), 3)
    q = 0.5
    _, plan = lq_distance(model, dirac((-1.0, 0.0)), target, q)
    dc = dynamical_coupling(model, plan)
    passed, worst = verify_q_geodesic(model, dc, q,
                                      (0.0, 0.25, 0.5, 0.75, 1.0),
                                      tolerance=1e-6)
    _line(7, "q-geodesic interpolation gap", passed and worst <= 1e-6,
          time.perf_counter() - t0, 5.0)


def test_criterion_08_tmcp_with_flat_equality():
    t0 = time.perf_counter()
    model = minkowski(((-2.5, 2.5), (-2.0, 2.0)))
    mu1 = uniform_on_box(((1.0, 1.8), (-0.4, 0.4)), 4)
    t_grid = tuple(k / 8.0 for k in range(1, 8))
    rep = check_tmcp(model, (0.0, 0.0), mu1, 0.0, 2.0, 0.5, t_grid,
                     (2.0, 3.0, 4.0), tolerance=1e-3)
    eq_margins = [abs(float(m)) for lab, m in zip(rep.labels, rep.margin)
                  if lab.startswith("t=") and lab.endswith("N'=2")]
    ok = rep.passed and len(eq_margins) == 7 and max(eq_margins) <= 2e-3
    _line(8, "entropy contraction, sharp when N'=2", ok,
          time.perf_counter() - t0, 30.0)


def test_criterion_09_bishop_gromov_equality():
    t0 = time.perf_counter()
    model = minkowski(((-0.05, 1.35), (-0.85, 0.85)))
    cone = lambda p: np.abs(p[..., 1]) <= 0.6 * p[..., 0]
    r_list = (0.25, 0.5, 0.75, 1.0)
    rep = bishop_gromov(model, (0.0, 0.0), cone, 0.0, 2.0, r_list,
                        resolution=1024)
    vols = [float(v) for v in rep.provenance["volumes"]]
    ok = True
    for r, big_r in ((0.5, 1.0), (0.25, 1.0), (0.5, 0.75)):
        ratio = vols[r_list.index(r)] / vols[r_list.index(big_r)]
        ok &= abs(ratio - (r / big_r) ** 2) <= 1e-3
    _line(9, "volume ratios on the flat cone", ok,
          time.perf_counter() - t0, 10.0)


def test_criterion_10_diameter_sharpness():
    t0 = time.perf_counter()
    rep = bonnet_myers(desitter_like(), 1.0, 2.0)
    diam = float(rep.lhs[0])
    ok = math.pi - 0.1 <= diam <= math.pi + 0.05
    _line(10, "diameter window on the closed model", ok,
          time.perf_counter() - t0, 60.0)


def test_criterion_11_eikonal_identity():
    t0 = time.perf_counter()
    model = minkowski(((0.0, 2.0), (-1.0, 1.0)))
    region = lambda p: (np.abs(p[..., 1]) <= 0.6 * p[..., 0]) & (p[..., 0] >= 0.5)
    devs, spacings = [], []
    ok = True
    for res in (129, 257):
        rep = eikonal_check(model, (0.0, 0.0), region, resolution=res)
        devs.append(float(rep.lhs[0]))
        spacings.append(float(rep.provenance["spacing"]))
        ok &= devs[-1] <= 5.0 * spacings[-1]
    if max(devs) > 1e-10:
        order = math.log(devs[0] / devs[1]) / math.log(spacings[0] / spacings[1])
        ok &= order >= 0.9
    # else: both residuals already at roundoff, nothing left to converge
    _line(11, "unit-slope identity for the gradient", ok,
          time.perf_counter() - t0, 10.0)


def test_criterion_12_dalembert_equality():
    t0 = time.perf_counter()
    model = minkowski(((0.0, 2.6), (-1.2, 1.2)))
    bumps = (BumpFunction((1.2, 0.0), 0.35), BumpFunction((0.9, -0.3), 0.25),
             BumpFunction((1.6, 0.4), 0.3))
    ok = True
    for bump in bumps:
        devs = []
        for res in (65, 129, 257):
            rep = dalembert_check(model, (0.0, 0.0), bump, 0.0, 2.0, 0.5,
                                  "distance", resolution=res)
            dev = abs(float(rep.lhs[0]) - float(rep.rhs[0]))
            ok &= dev <= 10.0 * float(rep.provenance["spacing"])
            devs.append(dev)
        ok &= all(b < a for a, b in zip(devs, devs[1:]))
    _line(12, "wave-operator equality under refinement", ok,
          time.perf_counter() - t0, 20.0)


def test_criterion_13_lp_deficit_convergence():
    t0 = time.perf_counter()
    grid = L.warped_grid(lambda t: 1.0 - np.abs(t) / 4.0, (-2.0, 2.0),
                         (0.0, 2.0), (1025, 129))
    ok = True
    for p in (1.0, 2.0):
        curve = L.lp_deficit_curve(grid, 0.0, p, [0.8, 0.5, 0.3, 0.15], 2.0)
        ds = [d for _, d in curve]
        ok &= all(b < a for a, b in zip(ds, ds[1:]))
        ok &= ds[-1] <= 0.1 * ds[0]
    _line(13, "curvature-deficit decay on the kinked metric", ok,
          time.perf_counter() - t0, 60.0)


def test_criterion_14_needle_decomposition():
    t0 = time.perf_counter()
    model = minkowski(((0.0, 1.5), (-1.5, 1.5)))
    dec = needle_decomposition(model, (0.0, 0.0), (-0.8, 0.8), n_rays=64)
    box = lambda p: ((p[..., 0] > 0.6) & (p[..., 0] < 1.1)
                     & (p[..., 1] > -0.2) & (p[..., 1] < 0.2))
    exact = region_measure(model, box, 4096)
    ok = abs(dec.reassemble(box) - exact) <= 1e-3
    results = [verify_cd_density(d) for d in dec.cd_densities(n_param=2.0)]
    ok &= all(r.passed for r in results)
    _line(14, "needle reassembly and conditional densities", ok,
          time.perf_counter() - t0, 30.0)


def test_criterion_15_brenier_mccann():
    t0 = time.perf_counter()
    model = minkowski(((-0.5, 2.5), (-1.0, 1.0)))
    rng = np.random.default_rng(24)
    pts = tuple((float(t), float(x)) for t, x in
                zip(rng.uniform(0.9, 1.8, 50), rng.uniform(-0.5, 0.5, 50)))
    mu1 = DiscreteMeasure(pts, np.full(50, 0.02))
    devs = []
    ok = True
    for res in (257, 513):
        rep = brenier_mccann_check(model, (0.0, 0.0), mu1, 0.5, resolution=res)
        ok &= rep.passed
        devs.append(float(rep.provenance["max_deviation"]))
    ok &= devs[1] <= 0.75 * devs[0]
    _line(15, "endpoint recovery from the gradient map", ok,
          time.perf_counter() - t0, 20.0)
