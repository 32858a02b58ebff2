"""End-to-end acceptance checks.

Each test exercises one headline property of the toolkit at fixed seeds and
prints a single PASS/FAIL line (collected into the terminal summary).  The
statistical checks run in regimes chosen so the frozen seeds pass with wide
margins; the margins themselves are asserted, not just the binary outcome.
"""

import itertools
import json
import math
import time

import numpy as np

import conftest
from multipack import (
    AVG_FORMULAS,
    BoundQuery,
    ExponentQuery,
    FiniteCode,
    PointList,
    avg_sq_radius,
    ball_log_volume_rate_finite,
    chebyshev_radius,
    density_report,
    exponent_E,
    expurgate,
    find_bad_lists,
    lambda_n_threshold,
    lambda_star,
    laplace_check,
    lb_blachman_few,
    lb_ppp,
    ld_capacity,
    mc_tail,
    quadratic_form_g,
    rate_function,
    sample_code,
    spectral_pair,
    tile,
    ub_elias_bassalygo,
    verify_packing,
)
from multipack.cli import main as cli_main
from oracles import chebyshev_radius_exact


def record(num, desc, ok, t0, budget_s):
    elapsed = time.monotonic() - t0
    verdict = "PASS" if ok and elapsed < budget_s else "FAIL"
    line = f"criterion {num:02d} {verdict} ({elapsed:.1f}s): {desc}"
    print(line)
    conftest.ACCEPTANCE_RESULTS.append(line)
    assert ok, line
    assert elapsed < budget_s, f"criterion {num} exceeded {budget_s}s: {elapsed:.1f}s"


def test_criterion_01_radius_representations():
    t0 = time.monotonic()
    rng = np.random.default_rng(77)
    ok = True
    for _ in range(1000):
        L = int(rng.integers(2, 9))
        n = int(rng.integers(1, 17))
        pl = PointList(rng.normal(size=(L, n)) * rng.uniform(0.2, 4.0))
        vals = [avg_sq_radius(pl, f) for f in AVG_FORMULAS]
        scale = max(abs(vals[0]), 1.0)
        ok &= max(vals) - min(vals) <= 1e-10 * scale
        cheb = chebyshev_radius(pl).radius_sq
        centroid = pl.points.mean(axis=0)
        maxd2 = float(np.max(np.sum((pl.points - centroid) ** 2, axis=1)))
        ok &= vals[0] <= cheb + 1e-9 * scale
        ok &= cheb <= maxd2 + 1e-9 * max(1.0, maxd2)
        if L == 2:
            d2 = float(np.sum((pl.points[0] - pl.points[1]) ** 2))
            ok &= abs(cheb - d2 / 4) <= 1e-9 * max(1.0, d2)
            ok &= abs(vals[0] - d2 / 4) <= 1e-9 * max(1.0, d2)
    record(1, "average-radius forms agree; sandwich and two-point collapse hold", ok, t0, 5.0)


def test_criterion_02_enclosing_ball_duality():
    t0 = time.monotonic()
    rng = np.random.default_rng(1234)
    gaps = []
    ok = True
    for _ in range(500):
        L = int(rng.integers(2, 9))
        n = int(rng.integers(1, 6))
        pl = PointList(rng.normal(size=(L, n)) * rng.uniform(0.5, 3.0))
        res = chebyshev_radius(pl)
        exact, _ = chebyshev_radius_exact(pl)
        ok &= abs(res.radius_sq - exact) <= 1e-6 * max(exact, 1e-12)
        gaps.append(res.gap)
    ok &= np.mean(np.array(gaps) <= 1e-9) >= 0.99
    record(2, "iterative ball solver matches enumeration oracle with certified gaps", ok, t0, 30.0)


def test_criterion_03_spectral_factorization():
    t0 = time.monotonic()
    ok = True
    for L in range(2, 17):
        sp = spectral_pair(L)
        eye = np.eye(L)
        ok &= np.max(np.abs(sp.U.T @ sp.U - eye)) <= 1e-12
        ok &= np.max(np.abs(sp.U @ sp.D @ sp.U.T - sp.A)) <= 1e-12
        ok &= abs(np.abs(sp.U[:, -1]).sum() - math.sqrt(L)) <= 1e-12
    record(3, "centering-form factorizations exact for all list sizes up to 16", ok, t0, 1.0)


def test_criterion_04_closed_form_identities():
    t0 = time.monotonic()
    ok = True
    for L in range(2, 12):
        for N in np.geomspace(1e-4, 0.05, 10):
            q = BoundQuery(N=float(N), L=L)
            gap = ub_elias_bassalygo(q) - lb_ppp(q)
            ok &= abs(gap - math.log(L) / (2 * (L - 1))) <= 1e-12
            eq = ExponentQuery(N=float(N), L=L, K=1.0)
            ok &= abs(exponent_E(eq) / (L - 1) - math.log(2.0) - lb_ppp(q)) <= 1e-12
            if L == 2:
                closed = 0.5 * math.log(1.0 / (8 * math.pi * math.e * N))
                ok &= abs(lb_ppp(q) - closed) <= 1e-12
    record(4, "bound-curve identities hold to 1e-12 on a 100-point grid", ok, t0, 1.0)


def test_criterion_05_asymptotic_integral():
    t0 = time.monotonic()
    ok = True
    for L in (2, 3, 4):
        r4 = laplace_check(L, 1.0, 1e4, quad_order=96).ratio
        r6 = laplace_check(L, 1.0, 1e6, quad_order=96).ratio
        ok &= abs(r4 - 1.0) <= 0.02
        ok &= abs(r6 - 1.0) <= 0.003
    record(5, "quadrature matches the saddle-point asymptotic at large argument", ok, t0, 30.0)


def test_criterion_06_rate_function_vs_closed_form():
    t0 = time.monotonic()
    ok = True
    for L in (2, 3):
        res = rate_function(L, 8.0, 0.01, quad_order=96)
        E = exponent_E(ExponentQuery(N=0.01, L=L, K=8.0))
        ok &= abs(res.rate - E) / E <= 0.03
        res16 = rate_function(L, 16.0, 0.01, quad_order=96)
        ls = lambda_star(BoundQuery(N=0.01, L=L))
        ok &= abs(res16.lambda_opt - ls) / ls <= 0.05
    record(6, "optimized rate matches the closed-form exponent at large support", ok, t0, 60.0)


def test_criterion_07_monte_carlo_tail(monkeypatch):
    t0 = time.monotonic()
    ok = True
    # closed-form point: P(|U1 - U2| <= 0.4) = 0.36 for uniforms on [-1, 1]
    est = mc_tail(L=2, n=1, K=1.0, N=0.04, samples=10**6, seed=42)
    sigma = math.sqrt(0.36 * 0.64 / 10**6)
    ok &= abs(est.p_hat - 0.36) <= 3 * sigma
    # high-dimensional consistency: the estimate's interval must cover the
    # quadrature rate (one-sided when nothing is observed)
    rate = rate_function(2, 2.0, 0.3643, quad_order=96).rate
    monkeypatch.setenv("MULTIPACK_THREADS", "2")
    hi = mc_tail(L=2, n=128, K=2.0, N=0.3643, samples=50_000, seed=0)
    if hi.hits == 0:
        ok &= -math.log(hi.ci_high) / 128 <= rate
    else:
        ok &= -math.log(hi.ci_high) / 128 <= rate <= -math.log(hi.ci_low) / 128
    # determinism across worker counts
    counts = set()
    for w in (1, 2, 4):
        monkeypatch.setenv("MULTIPACK_THREADS", str(w))
        counts.add(mc_tail(L=2, n=16, K=1.0, N=0.05, samples=100_000, seed=9).hits)
    ok &= len(counts) == 1
    monkeypatch.setenv("MULTIPACK_THREADS", "5")
    ok &= mc_tail(L=2, n=128, K=2.0, N=0.3643, samples=50_000, seed=0).hits == hi.hits
    record(7, "tail sampler hits the exact point, covers the rate, and is worker-invariant", ok, t0, 180.0)


def _pipeline_stats(n, L, N, seeds):
    q = ExponentQuery(N=N, L=L, K=1.0)
    lam_n = lambda_n_threshold(q, n)
    target = math.log(lam_n * math.exp(n * -0.1) / 2.0) / n
    bad_counts, rate_hits, all_clean = [], 0, True
    M = None
    for seed in seeds:
        code = sample_code(n=n, L=L, N=N, K=1.0, rate_margin=-0.1, seed=seed)
        M = code.M
        bad = find_bad_lists(code)
        bad_counts.append(len(bad))
        clean = expurgate(code, bad)
        all_clean &= find_bad_lists(clean) == []
        ach = math.log(clean.M) / n - math.log(2.0)
        rate_hits += ach >= target - 0.2
    return M, np.array(bad_counts, float), rate_hits, all_clean


def test_criterion_08_construction_pipeline(monkeypatch):
    t0 = time.monotonic()
    ok = True
    for (n, L, N) in ((4, 2, 0.005), (3, 3, 0.008)):
        M, bad20, rate_hits, all_clean = _pipeline_stats(n, L, N, range(20))
        ok &= all_clean
        ok &= rate_hits >= 16  # >= 80% of 20 seeds
        # expected-count law over 50 seeds against an independent estimate
        _, bad50, _, _ = _pipeline_stats(n, L, N, range(50))
        monkeypatch.setenv("MULTIPACK_THREADS", "2")
        est = mc_tail(L=L, n=n, K=1.0, N=N, samples=4_000_000, seed=777)
        C = math.comb(M, L)
        pred = C * est.p_hat
        se = math.hypot(bad50.std(ddof=1) / math.sqrt(50), C * (est.ci_high - est.ci_low) / 3.92)
        ok &= abs(bad50.mean() - pred) <= 4 * se
    record(8, "expurgated codes verify clean at the accounted rate; counts obey the mean law", ok, t0, 180.0)


def test_criterion_09_tiling():
    t0 = time.monotonic()
    ok = True
    code = sample_code(n=4, L=2, N=0.005, K=1.0, rate_margin=-0.1, seed=3)
    clean = expurgate(code, find_bad_lists(code))
    cons = tile(clean)
    ok &= cons.gap >= math.sqrt(4 * 0.005)
    v = verify_packing(cons, 1.5 * cons.period)
    ok &= v.passed
    # the periodic density identity is exact
    want = (math.log(clean.M) / 4 - math.log(2.0)) + math.log(1.0 / (1.0 + cons.gap))
    ok &= abs(cons.nld - want) <= 1e-12
    # a planted close pair in an unexpurgated base must be caught and named
    pts = np.vstack([clean.points, np.clip(clean.points[0] + [0.1, 0, 0, 0], -1, 1)])
    planted = FiniteCode(points=pts, n=4, L=2, N=0.005, K=1.0, seed=None)
    vp = verify_packing(tile(planted), 1.5 * cons.period)
    ok &= (not vp.passed) and vp.violation_base_indices == (0, pts.shape[0] - 1)
    ok &= vp.violation is not None and vp.violation.shape == (2, 4)
    record(9, "guarded tilings verify as whole constellations; planted violations are reported", ok, t0, 60.0)


def test_criterion_10_density_sandwich():
    t0 = time.monotonic()
    code = sample_code(n=4, L=2, N=0.005, K=1.0, rate_margin=-0.1, seed=3)
    clean = expurgate(code, find_bad_lists(code))
    cons = tile(clean)
    rep = density_report(cons, 25.0, 100_000, seed=11)
    predicted = cons.nld + ball_log_volume_rate_finite(0.005, 4)
    eps = 0.1
    lo = predicted - math.log(2 - 1) / 4 - eps
    hi = predicted + eps
    ok = (rep.covered > 0) and (lo <= rep.delta_hat <= hi)
    record(10, "measured covered-space density sits in the predicted band", ok, t0, 120.0)


def test_criterion_11_figure_data(tmp_path):
    t0 = time.monotonic()
    out = tmp_path / "curves.csv"
    rc = cli_main(
        ["bounds", "--multi-L", "3,4,5", "--N-min", "0.001", "--N-max", "0.05", "--steps", "40", "--out", str(out)]
    )
    ok = rc == 0
    curves = {}
    for L in (3, 4, 5):
        d = np.genfromtxt(tmp_path / f"curves_L{L}.csv", delimiter=",", names=True)
        curves[L] = d
        for name in ("lb_ppp", "lb_blachman_few", "ub_elias_bassalygo", "ld_capacity"):
            ok &= bool(np.all(np.diff(d[name]) < 0))
        ok &= bool(np.all(d["lb_blachman_few"] < d["lb_ppp"]))
        ok &= bool(np.all(d["lb_ppp"] <= d["ub_elias_bassalygo"]))
        ok &= bool(np.all(d["ub_elias_bassalygo"] < d["ld_capacity"]))
        man = json.loads((tmp_path / f"curves_L{L}.csv.manifest.json").read_text())
        ok &= man["parameters"]["steps"] == 40
    ok &= bool(np.all(curves[3]["lb_ppp"] < curves[4]["lb_ppp"]))
    ok &= bool(np.all(curves[4]["lb_ppp"] < curves[5]["lb_ppp"]))
    record(11, "curve files are monotone, correctly ordered, and improve with list size", ok, t0, 1.0)
