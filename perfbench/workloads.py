"""The benchmark's three workloads: construct, verify and analysis.

Each workload is a closed loop with one caller: ``build`` turns the workload
seed into a list of ops, and ``run.py`` runs the ops one after another, each
starting when the previous one returns.  An op calls the public functions of
``multipack`` and wraps every call in a span named after the layer it enters
(``<module>.<function>``), so a traced pass can split op time by layer from
the outside.  An op returns an ``Outcome``: the work counts it saw, which must
repeat exactly on every pass, and the outputs that ``check`` inspects after
the timed phase and ``digest`` fingerprints to compare passes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from multipack import cli, construction, deviation, fileio, geometry
from multipack.bounds import ExponentQuery, exponent_E

# The CLI defaults of `multipack construct` and `multipack verify`.
N_NOISE = 0.005
K_CUBE = 1.0
RATE_MARGIN = -0.1
WINDOW_PERIODS = 1.5
# `density_report` settings of scripts/run_pipeline_demo.py.
DENSITY_P = 25.0
DENSITY_SAMPLES = 100_000
# Figure-data settings of scripts/make_figure_data.py, with half its default
# tail samples.
QUAD_ORDER = 96
TAIL_N = 0.14
TAIL_SAMPLES = 100_000
CURVE_STEPS = 200


@dataclass
class Outcome:
    counts: dict = field(default_factory=dict)
    data: dict = field(default_factory=dict)

    def add(self, name: str, value) -> None:
        self.counts[name] = self.counts.get(name, 0) + value


@dataclass
class Op:
    label: str
    run: Callable  # (tracer) -> Outcome
    check: Callable  # (Outcome) -> list of problems
    digest: Callable  # (Outcome) -> bytes fingerprinting the outputs


def _sha(*parts) -> bytes:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode())
    return h.digest()


def _op_seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**63, size=count)]


def _removed_indices(code, clean) -> set[int]:
    kept = {row.tobytes() for row in clean.points}
    return {i for i, row in enumerate(code.points) if row.tobytes() not in kept}


# --------------------------------------------------------------------------
# construct: sample -> find_bad_lists -> expurgate -> write_code
# --------------------------------------------------------------------------

# Two (4,3) codes carry most of the enumeration work; the L=2 codes take the
# separate pair path.  Eleven (3,3) codes put the median op near the middle
# of one class, for any number of passes.
CONSTRUCT_MIX = [(4, 2), (5, 2), (6, 2)] + [(2, 4)] * 2 + [(3, 3)] * 11 + [(4, 3)] * 2


def build_construct(seed: int, workdir: str) -> list[Op]:
    ops = []
    for k, ((n, L), s) in enumerate(zip(CONSTRUCT_MIX, _op_seeds(seed, len(CONSTRUCT_MIX)))):
        path = os.path.join(workdir, f"code-{k:02d}.csv")
        ops.append(Op(f"construct n={n} L={L}", _construct_run(n, L, s, path), _construct_check, _construct_digest))
    return ops


def _construct_run(n, L, seed, path):
    def run(tr) -> Outcome:
        out = Outcome()
        with tr.span("construction.sample_code"):
            code = construction.sample_code(n, L, N_NOISE, K_CUBE, RATE_MARGIN, seed)
        with tr.span("construction.find_bad_lists"):
            bad = construction.find_bad_lists(code)
        with tr.span("construction.expurgate"):
            clean = construction.expurgate(code, bad)
        with tr.span("fileio.write"):
            fileio.write_code(path, clean)
        out.add("construction.sample_code.points", code.M)
        out.add("construction.find_bad_lists.subsets", math.comb(code.M, L))
        out.add("construction.find_bad_lists.bad_lists", len(bad))
        out.add("construction.expurgate.removed", clean.expurgated_count)
        out.add("construction.expurgate.kept", clean.M)
        out.add("fileio.write.bytes", os.path.getsize(path))
        out.data.update(code=code, bad=bad, clean=clean, path=path)
        return out

    return run


def _construct_check(out: Outcome) -> list[str]:
    code, bad, clean = out.data["code"], out.data["bad"], out.data["clean"]
    thr = code.n * code.N
    problems = []
    for t in bad:
        r = geometry.avg_sq_radius(geometry.PointList(code.points[list(t)]))
        if not r <= thr:
            problems.append(f"reported bad list {t} has avg_sq_radius {r!r} > nN = {thr!r}")
    removed = _removed_indices(code, clean)
    if len(removed) != clean.expurgated_count or clean.M + len(removed) != code.M:
        problems.append(f"expurgated_count {clean.expurgated_count} but {len(removed)} points missing")
    survivors = [t for t in bad if not removed.intersection(t)]
    if survivors:
        problems.append(f"{len(survivors)} bad lists survive expurgation, e.g. {survivors[0]}")
    back = fileio.read_code(out.data["path"])
    same = (
        np.array_equal(back.points, clean.points)
        and (back.n, back.L, back.N, back.K, back.seed, back.expurgated_count)
        == (clean.n, clean.L, clean.N, clean.K, clean.seed, clean.expurgated_count)
    )
    if not same:
        problems.append(f"{out.data['path']} does not round-trip the expurgated code")
    return problems


def _construct_digest(out: Outcome) -> bytes:
    return _sha(out.data["bad"], out.data["clean"].points.tobytes(), out.data["clean"].expurgated_count)


# --------------------------------------------------------------------------
# verify: load -> min_avg_subset -> verify_packing -> density_report
# --------------------------------------------------------------------------

# (4,3) is left out: one such verify takes over half a minute.  With the
# planted (4,2) op, three ops are faster than the nine (3,3) ops and two are
# slower, so the median op is a (3,3) op near the middle of its class.
VERIFY_MIX = [(4, 2), (2, 4)] + [(3, 3)] * 9 + [(5, 2)] * 2
PLANTED_SHAPE = (4, 2)


def _expurgated(n, L, seed):
    code = construction.sample_code(n, L, N_NOISE, K_CUBE, RATE_MARGIN, seed)
    return construction.expurgate(code, construction.find_bad_lists(code))


def _planted(seed):
    """An expurgated (4,2) code plus one point near base point i: the pair
    (i, M) is a same-tile violation that verify must report."""
    n, L = PLANTED_SHAPE
    clean = _expurgated(n, L, seed)
    i = int(np.random.default_rng(seed).integers(clean.M))
    x = clean.points[i]
    step = -0.05 * math.sqrt(clean.N) * np.sign(x)  # towards the origin; d^2/4 = nN/1600
    pts = np.vstack([clean.points, x + step])
    return construction.FiniteCode(pts, n, L, clean.N, clean.K, clean.seed, clean.expurgated_count), (i, clean.M)


def build_verify(seed: int, workdir: str) -> list[Op]:
    seeds = _op_seeds(seed, len(VERIFY_MIX) + 1)
    cases = [(_expurgated(n, L, s), s, None) for (n, L), s in zip(VERIFY_MIX, seeds)]
    planted, pair = _planted(seeds[-1])
    cases.append((planted, seeds[-1], pair))
    ops = []
    for k, (code, s, pair) in enumerate(cases):
        path = os.path.join(workdir, f"constellation-{k:02d}.csv")
        fileio.write_constellation(path, construction.tile(code))
        label = f"verify n={code.n} L={code.L}" + (" planted" if pair else "")
        ops.append(Op(label, _verify_run(path, s, pair), _verify_check, _verify_digest))
    return ops


def _verify_run(path, seed, planted_pair):
    size = os.path.getsize(path)

    def run(tr) -> Outcome:
        out = Outcome()
        with tr.span("fileio.read"):
            c = fileio.load(path)
        with tr.span("construction.min_avg_subset"):
            best = construction.min_avg_subset(c.base)
        with tr.span("construction.verify_packing"):
            verdict = construction.verify_packing(c, WINDOW_PERIODS * c.period)
        with tr.span("construction.density_report"):
            rep = construction.density_report(c, DENSITY_P, DENSITY_SAMPLES, seed)
        out.add("fileio.read.bytes", size)
        out.add("construction.min_avg_subset.subsets", math.comb(c.base.M, c.base.L))
        out.add("construction.verify_packing.window_points", verdict.window_points)
        out.add("construction.verify_packing.same_tile_lists", verdict.same_tile_lists)
        out.add("construction.verify_packing.fail_verdicts", int(not verdict.passed))
        out.add("construction.density_report.mc_samples", rep.mc_samples)
        out.add("construction.density_report.covered", rep.covered)
        out.data.update(c=c, best=best, verdict=verdict, report=rep, planted=planted_pair)
        return out

    return run


def _verify_check(out: Outcome) -> list[str]:
    c, (best, subset), v, rep = out.data["c"], out.data["best"], out.data["verdict"], out.data["report"]
    planted = out.data["planted"]
    thr = c.base.n * c.base.N
    problems = []
    if planted is None:
        if not v.passed:
            problems.append(f"expurgated constellation FAILs at base indices {v.violation_base_indices}")
        if not best > thr:
            problems.append(f"expurgated base has min avg_sq_radius {best!r} <= nN")
    else:
        if v.passed or v.violation_base_indices != planted:
            problems.append(f"planted violation {planted} not reported: passed={v.passed}, "
                            f"indices={v.violation_base_indices}")
        if tuple(subset or ()) != planted or not best <= thr:
            problems.append(f"min_avg_subset found {subset} ({best!r}), planted {planted}")
    # The window is recomputed with the public oracle; its tile split gives
    # the cross-tile pair count the verifier's certificate covers.
    pts = construction.enumerate_window(c, np.zeros(c.base.n), WINDOW_PERIODS * c.period)
    if len(pts) != v.window_points:
        problems.append(f"verify saw {v.window_points} window points, the oracle {len(pts)}")
    _, per_tile = np.unique(np.floor(pts / c.period + 0.5), axis=0, return_counts=True)
    W = len(pts)
    out.add("construction.verify_packing.cross_pairs", (W * W - int((per_tile.astype(np.int64) ** 2).sum())) // 2)
    if not 0 <= rep.covered <= rep.mc_samples:
        problems.append(f"density report covered {rep.covered} of {rep.mc_samples}")
    elif rep.covered and not rep.delta_ci_low <= rep.delta_hat <= rep.delta_ci_high:
        problems.append(f"density estimate {rep.delta_hat!r} outside its interval")
    return problems


def _verify_digest(out: Outcome) -> bytes:
    v, rep = out.data["verdict"], out.data["report"]
    return _sha(out.data["best"], v.passed, v.min_avg_radius_sq, v.violation_base_indices,
                v.min_cross_half_dist_sq, rep.covered, rep.delta_hat)


# --------------------------------------------------------------------------
# analysis: bounds curves, rate_function + laplace_check, mc_tail, radius
# --------------------------------------------------------------------------

RATE_GRID = [(L, K, N) for L in (2, 3, 4, 5) for K in (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)
             for N in (0.005, 0.01, 0.02, 0.05)]
TAIL_CASES = [(2, n) for n in (8, 16, 32, 64, 128)] + [(3, 8), (3, 16)]
# Radius reports are the most common op, so the median op is a radius report
# and the 90th percentile falls among the rate_function ops.
RADIUS_REPORTS = 200
RADIUS_SHAPES = [(L, n) for L in range(3, 9) for n in range(2, 9)]  # the seed draws the points
RATE_REL_TOL_K32 = 0.01  # |rate - exponent_E| / exponent_E at K = 32
LAPLACE_TOL = 0.02  # |1 - ratio| at K = 32, where K^2 * lam_opt >= 5e3
RADIUS_REL_TOL = 1e-9


def build_analysis(seed: int, workdir: str) -> list[Op]:
    rng = np.random.default_rng(seed)
    ops = [Op("bounds L=3,4,5", _bounds_run(os.path.join(workdir, "curves.csv")), _bounds_check, _bounds_digest)]
    ops += [Op(f"ratefn L={L} K={K:g} N={N:g}", _rate_run(L, K, N), _rate_check, _rate_digest)
            for L, K, N in RATE_GRID]
    tail_seeds = _op_seeds(seed, len(TAIL_CASES))
    ops += [Op(f"tail L={L} n={n}", _tail_run(L, n, s), _tail_check, _tail_digest)
            for (L, n), s in zip(TAIL_CASES, tail_seeds)]
    for k in range(RADIUS_REPORTS):
        L, n = RADIUS_SHAPES[k % len(RADIUS_SHAPES)]
        path = os.path.join(workdir, f"points-{k:03d}.csv")
        fileio.write_points(path, geometry.PointList(rng.standard_normal((L, n))))
        ops.append(Op(f"radius L={L} n={n}", _radius_run(path), _radius_check, _radius_digest))
    return ops


def _bounds_run(out_path):
    argv = ["bounds", "--multi-L", "3,4,5", "--N-min", "0.0005", "--N-max", "0.05",
            "--steps", str(CURVE_STEPS), "--out", out_path]
    stem, ext = os.path.splitext(out_path)
    files = [f"{stem}_L{L}{ext}" for L in (3, 4, 5)]

    def run(tr) -> Outcome:
        out = Outcome()
        with tr.span("cli.main"), contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        out.add("cli.main.calls", 1)
        out.add("cli.main.bytes_written", sum(os.path.getsize(f) for f in files))
        out.data.update(rc=rc, files=files)
        return out

    return run


def _bounds_check(out: Outcome) -> list[str]:
    if out.data["rc"] != 0:
        return [f"multipack bounds exited {out.data['rc']}"]
    problems = []
    curves = [np.genfromtxt(f, delimiter=",", names=True) for f in out.data["files"]]
    for L, d in zip((3, 4, 5), curves):
        if len(d) != CURVE_STEPS:
            problems.append(f"L={L}: {len(d)} rows, expected {CURVE_STEPS}")
        for name in ("lb_ppp", "lb_blachman_few", "ub_elias_bassalygo", "ld_capacity"):
            if not np.all(np.diff(d[name]) < 0):
                problems.append(f"L={L}: {name} is not decreasing in N")
        if not (np.all(d["lb_blachman_few"] < d["lb_ppp"]) and np.all(d["lb_ppp"] <= d["ub_elias_bassalygo"])
                and np.all(d["ub_elias_bassalygo"] < d["ld_capacity"])):
            problems.append(f"L={L}: curves are out of order")
    if not all(np.all(a["lb_ppp"] < b["lb_ppp"]) for a, b in zip(curves, curves[1:])):
        problems.append("lb_ppp does not improve with the list size")
    return problems


def _bounds_digest(out: Outcome) -> bytes:
    parts = []
    for f in out.data["files"]:
        with open(f, "rb") as fh:
            parts.append(fh.read())
    return _sha(out.data["rc"], *parts)


def _rate_run(L, K, N):
    def run(tr) -> Outcome:
        out = Outcome()
        with tr.span("deviation.rate_function"):
            res = deviation.rate_function(L, K, N, quad_order=QUAD_ORDER)
        with tr.span("deviation.laplace_check"):
            lp = deviation.laplace_check(L, K, res.lambda_opt, QUAD_ORDER)
        out.add("deviation.rate_function.calls", 1)
        out.add("deviation.rate_function.iterations", res.iterations)
        out.add("deviation.laplace_check.calls", 1)
        out.data.update(L=L, K=K, N=N, res=res, laplace=lp)
        return out

    return run


def _rate_check(out: Outcome) -> list[str]:
    L, K, N, res, lp = (out.data[k] for k in ("L", "K", "N", "res", "laplace"))
    problems = []
    if not res.rate > 0 or not res.lambda_opt > 0:
        problems.append(f"L={L} K={K} N={N}: degenerate rate {res.rate!r} at lambda {res.lambda_opt!r}")
    if K == 32.0:
        E = exponent_E(ExponentQuery(N=N, L=L, K=K))
        if not abs(res.rate - E) <= RATE_REL_TOL_K32 * abs(E):
            problems.append(f"L={L} N={N}: rate {res.rate!r} vs exponent_E {E!r} at K=32")
        if not 0.0 < 1.0 - lp.ratio <= LAPLACE_TOL:
            problems.append(f"L={L} N={N}: laplace ratio {lp.ratio!r} at K=32")
    return problems


def _rate_digest(out: Outcome) -> bytes:
    res, lp = out.data["res"], out.data["laplace"]
    return _sha(res.rate, res.lambda_opt, res.iterations, lp.ratio)


def _tail_run(L, n, seed):
    def run(tr) -> Outcome:
        out = Outcome()
        with tr.span("deviation.mc_tail"):
            est = deviation.mc_tail(L, n, 1.0, TAIL_N, TAIL_SAMPLES, seed)
        out.add("deviation.mc_tail.samples", est.samples)
        out.add("deviation.mc_tail.hits", est.hits)
        out.add("deviation.mc_tail.coords", est.samples * L * n)
        out.data.update(est=est)
        return out

    return run


def _tail_check(out: Outcome) -> list[str]:
    e = out.data["est"]
    ok = (
        0 <= e.hits <= e.samples == TAIL_SAMPLES
        and e.p_hat == e.hits / e.samples
        and 0.0 <= e.ci_low <= e.p_hat <= e.ci_high <= 1.0
    )
    return [] if ok else [f"tail L={e.L} n={e.n}: inconsistent estimate {e}"]


def _tail_digest(out: Outcome) -> bytes:
    return _sha(out.data["est"].csv_row())


def _radius_run(path):
    size = os.path.getsize(path)

    def run(tr) -> Outcome:
        out = Outcome()
        with tr.span("fileio.read"):
            pl = fileio.read_points(path)
        with tr.span("geometry.avg_sq_radius"):
            avg = [geometry.avg_sq_radius(pl, f) for f in geometry.AVG_FORMULAS]
        with tr.span("geometry.chebyshev_radius"):
            cheb = geometry.chebyshev_radius(pl)
        with tr.span("geometry.rad_p"):
            r4 = geometry.rad_p(pl, 4.0)
        out.add("fileio.read.bytes", size)
        out.add("geometry.avg_sq_radius.calls", len(avg))
        out.add("geometry.chebyshev_radius.calls", 1)
        out.add("geometry.chebyshev_radius.iterations", cheb.iterations)
        out.add("geometry.chebyshev_radius.unconverged", int(not cheb.converged))
        out.add("geometry.rad_p.calls", 1)
        out.data.update(pl=pl, avg=avg, cheb=cheb, r4=r4)
        return out

    return run


def _radius_check(out: Outcome) -> list[str]:
    pl, avg, cheb, r4 = (out.data[k] for k in ("pl", "avg", "cheb", "r4"))
    tol = RADIUS_REL_TOL * max(1.0, cheb.upper)
    half_diam = float(geometry.pairwise_sq_dists(pl.points).max()) / 4.0
    ok = (
        max(avg) - min(avg) <= tol
        and avg[0] <= r4 + tol
        and r4 <= cheb.upper + tol
        and half_diam <= cheb.upper + tol
        and cheb.lower <= cheb.upper + tol
    )
    return [] if ok else [f"radius L={pl.L} n={pl.n}: avg {avg}, rad_4 {r4!r}, cheb {cheb.lower!r}..{cheb.upper!r}"]


def _radius_digest(out: Outcome) -> bytes:
    c = out.data["cheb"]
    return _sha(out.data["avg"], c.upper, c.lower, c.iterations, out.data["r4"])


WORKLOADS = {
    "construct": build_construct,
    "verify": build_verify,
    "analysis": build_analysis,
}
