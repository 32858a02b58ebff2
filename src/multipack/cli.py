"""Command-line front end.

Subcommands: bounds (curve CSVs over a geometric N grid), radius (reports on
a point-list file), construct (sample + expurgate a code), verify (finite
code or whole periodic constellation), tail (Monte Carlo tail row), ratefn
(quadrature rate against the closed-form exponent).  Every output file gets
a sibling ``<file>.manifest.json`` recording the command line, resolved
parameters, seed, version, and wall time.  Exit codes: 0 success / verified,
1 verification failure, 2 budget or usage error, 141 (128 + SIGPIPE) when the
reader of standard output closes it early, with nothing on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, bounds, construction, deviation, fileio, geometry
from .errors import BudgetError, ParseError
from .rng import check_count, check_positive

CURVE_HEADER = "N,lb_ppp,lb_blachman_few,ub_elias_bassalygo,ld_capacity"


def _write_manifest(out_path, argv, args, seed, t0) -> None:
    manifest = {
        "command": "multipack " + " ".join(argv),
        "parameters": {k: v for k, v in vars(args).items() if k != "func"},
        "seed": seed,
        "version": __version__,
        "wall_time_s": round(time.monotonic() - t0, 6),
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }
    with open(str(out_path) + ".manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


def _as_int(text: str):
    """``text`` as an int when it is an integer literal, else unchanged, so
    that check_count names the flag and its rule."""
    try:
        return int(text)
    except ValueError:
        return text


class _ListSizes(argparse.Action):
    """``--L`` and ``--multi-L``: one option, kept with the spelling given so
    that cmd_bounds names it in its errors."""

    def __call__(self, parser, namespace, values, option_string=None):
        namespace.L, namespace.L_flag = values, option_string


def _fmt12(x: float) -> str:
    return f"{x:.12g}"


def cmd_bounds(args, argv) -> int:
    t0 = time.monotonic()
    if check_positive("--N-min", args.N_min) > check_positive("--N-max", args.N_max):
        raise ValueError("--N-max must be >= --N-min")
    check_count("--steps", args.steps, 1)
    Ls = [check_count(args.L_flag, _as_int(s), 2) for s in args.L.split(",")]
    if len(set(Ls)) < len(Ls):
        raise ValueError(f"{args.L_flag} must not repeat an entry, got {args.L!r}")
    grid = np.geomspace(args.N_min, args.N_max, args.steps)
    out = Path(args.out)
    for L in Ls:
        path = out if len(Ls) == 1 else out.with_name(f"{out.stem}_L{L}{out.suffix}")
        with open(path, "w") as fh:
            fh.write(CURVE_HEADER + "\n")
            for N in grid:
                q = bounds.BoundQuery(N=float(N), L=L)
                row = [
                    float(N),
                    bounds.lb_ppp(q),
                    bounds.lb_blachman_few(q),
                    bounds.ub_elias_bassalygo(q),
                    bounds.ld_capacity(float(N)),
                ]
                fh.write(",".join(_fmt12(v) for v in row) + "\n")
        _write_manifest(path, argv, args, None, t0)
        print(f"wrote {path} ({args.steps} rows, L={L})")
    return 0


def cmd_radius(args, argv) -> int:
    pl = fileio.read_points(args.input)
    if args.mode == "avg":
        values = {f: geometry.avg_sq_radius(pl, f) for f in geometry.AVG_FORMULAS}
        for name, value in values.items():
            print(f"{name}: {value!r}")
        vals = list(values.values())
        disc = max(abs(a - b) for a in vals for b in vals)
        print(f"max discrepancy: {disc:.3e}")
    elif args.mode == "cheb":
        res = geometry.chebyshev_radius(pl)
        print(f"radius_sq: {res.radius_sq!r}")
        print(f"lower: {res.lower!r}")
        print(f"upper: {res.upper!r}")
        print(f"gap: {res.gap:.3e}")
        print(f"center: {_fmt_vec(res.center)}")
        print(f"iterations: {res.iterations}")
    else:
        value = geometry.rad_p(pl, args.p)
        print(f"rad_p({args.p}): {value!r}")
    return 0


def _fmt_vec(v) -> str:
    return "[" + ", ".join(f"{x:.12g}" for x in v) + "]"


def cmd_construct(args, argv) -> int:
    t0 = time.monotonic()
    code = construction.sample_code(
        n=args.n,
        L=args.L,
        N=args.N,
        K=args.K,
        rate_margin=args.rate_margin,
        seed=args.seed,
        M=args.M,
    )
    bad = construction.find_bad_lists(code)
    clean = construction.expurgate(code, bad)
    target = bounds.accounting_target(bounds.ExponentQuery(N=args.N, L=args.L, K=args.K), args.n, args.rate_margin)
    print(f"M: {code.M}")
    print(f"bad lists: {len(bad)}")
    print(f"removed: {clean.expurgated_count}")
    print(f"achieved rate: {construction.achieved_rate(clean)!r}")
    print(f"accounting target: {target!r}")
    fileio.write_code(args.out, clean)
    _write_manifest(args.out, argv, args, args.seed, t0)
    print(f"wrote {args.out}")
    return 0


def cmd_verify(args, argv) -> int:
    obj = fileio.load(args.input)
    if isinstance(obj, construction.Constellation):
        verdict = construction.verify_packing(obj, 1.5 * obj.period)
        print(f"window points (radius 1.5 periods): {verdict.window_points}")
        print(f"same-tile lists in that window: {verdict.same_tile_lists}")
        print(f"threshold n*N: {verdict.threshold!r}")
        print(f"reported list avg_sq_radius: {verdict.min_avg_radius_sq!r}")
        print(f"min cross-tile (half distance)^2 within sqrt(2L*n*N): {verdict.min_cross_half_dist_sq!r}")
        if verdict.passed:
            print("PASS")
            return 0
        print(f"FAIL: base indices {verdict.violation_base_indices}")
        for row in verdict.violation:
            print("  " + _fmt_vec(row))
        return 1
    if not isinstance(obj, construction.FiniteCode):
        raise ValueError(f"{args.input} is a bare point list; nothing to verify")
    bad = construction.find_bad_lists(obj)
    print(f"M: {obj.M}")
    print(f"threshold n*N: {obj.n * obj.N!r}")
    print(f"bad lists: {len(bad)}")
    if not bad:
        print("PASS")
        return 0
    # every minimising list is bad, so the bad lists' members hold it, and
    # their sorted order keeps the lexicographically first one first
    members = np.unique(np.array(bad))
    sub = construction.FiniteCode(obj.points[members], obj.n, obj.L, obj.N, obj.K, obj.seed)
    radius, smallest = construction.min_avg_subset(sub)
    print(f"smallest bad list: {tuple(int(members[i]) for i in smallest)} with avg_sq_radius {radius!r}")
    print("FAIL")
    return 1


def cmd_tail(args, argv) -> int:
    est = deviation.mc_tail(
        L=args.L, n=args.n, K=args.K, N=args.N, samples=args.samples, seed=args.seed
    )
    print(deviation.TailEstimate.CSV_HEADER)
    print(est.csv_row())
    eq = bounds.ExponentQuery(N=args.N, L=args.L, K=args.K)
    print(f"exponent_E: {bounds.exponent_E(eq)!r}")
    try:
        res = deviation.rate_function(args.L, args.K, args.N)
        print(f"rate_function: {res.rate!r} (lambda_opt {res.lambda_opt!r})")
        print(f"exponent_hat - rate: {est.exponent_hat - res.rate!r}")
    except ValueError as exc:
        print(f"rate_function unavailable: {exc}")
    return 0


def cmd_ratefn(args, argv) -> int:
    res = deviation.rate_function(args.L, args.K, args.N, quad_order=args.quad_order)
    q = bounds.BoundQuery(N=args.N, L=args.L)
    eq = bounds.ExponentQuery(N=args.N, L=args.L, K=args.K)
    E = bounds.exponent_E(eq)
    print(f"rate: {res.rate!r}")
    print(f"lambda_opt: {res.lambda_opt!r}")
    print(f"mgf_log at opt: {res.mgf_log_at_opt!r}")
    print(f"lambda_star: {bounds.lambda_star(q)!r}")
    print(f"exponent_E: {E!r}")
    print(f"rate - exponent_E: {res.rate - E!r}")
    if res.lambda_opt > 0:
        lp = deviation.laplace_check(args.L, args.K, res.lambda_opt, args.quad_order)
        print(f"laplace ratio at lambda_opt: {lp.ratio!r}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="multipack",
        description="Average-radius multiple packing toolkit",
    )
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bounds", help="density bound curves over a geometric N grid")
    b.add_argument("--L", "--multi-L", dest="L", action=_ListSizes, default="3",
                   help="list size, or comma-separated sizes for one file per L")
    b.add_argument("--N-min", dest="N_min", type=float, required=True)
    b.add_argument("--N-max", dest="N_max", type=float, required=True)
    b.add_argument("--steps", type=int, default=100)
    b.add_argument("--out", required=True)
    b.set_defaults(func=cmd_bounds, L_flag="--L")

    r = sub.add_parser("radius", help="radius report for a point-list file")
    r.add_argument("input")
    r.add_argument("--mode", choices=("avg", "cheb", "p"), default="avg")
    r.add_argument("--p", type=float, default=2.0)
    r.set_defaults(func=cmd_radius)

    c = sub.add_parser("construct", help="sample and expurgate a cube code")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--L", type=int, required=True)
    c.add_argument("--N", type=float, required=True)
    c.add_argument("--K", type=float, required=True)
    c.add_argument("--rate-margin", dest="rate_margin", type=float, default=-0.1)
    c.add_argument("--M", type=int, default=None, help="override the computed size")
    c.add_argument("--seed", type=int, required=True)
    c.add_argument("--out", required=True)
    c.set_defaults(func=cmd_construct)

    v = sub.add_parser("verify", help="verify a code file or a whole constellation")
    v.add_argument("input")
    v.set_defaults(func=cmd_verify)

    t = sub.add_parser("tail", help="Monte Carlo tail estimate")
    t.add_argument("--L", type=int, required=True)
    t.add_argument("--n", type=int, required=True)
    t.add_argument("--K", type=float, required=True)
    t.add_argument("--N", type=float, required=True)
    t.add_argument("--samples", type=int, default=100_000)
    t.add_argument("--seed", type=int, required=True)
    t.set_defaults(func=cmd_tail)

    f = sub.add_parser("ratefn", help="quadrature rate vs the closed-form exponent")
    f.add_argument("--L", type=int, required=True)
    f.add_argument("--K", type=float, required=True)
    f.add_argument("--N", type=float, required=True)
    f.add_argument("--quad-order", dest="quad_order", type=int, default=64)
    f.set_defaults(func=cmd_ratefn)

    return p


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args, argv)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader has gone: send what is left to devnull, so the flush
        # at exit does not fail again, and exit as SIGPIPE would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except BudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return 2
    except (ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
