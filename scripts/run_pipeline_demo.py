#!/usr/bin/env python3
"""Walk the full construction once and print the accounting.

Samples a random cube code at the threshold density, expurgates it, tiles
the survivors into a periodic constellation, verifies the packing property
of the whole constellation (counting the points of a 1.5-period window
around the origin), and closes with a Monte Carlo density measurement
against the predicted value.
"""

import argparse
import math
import sys
import time

from multipack import (
    ExponentQuery,
    ball_log_volume_rate_finite,
    density_report,
    expurgate,
    find_bad_lists,
    achieved_rate,
    lambda_n_threshold,
    sample_code,
    tile,
    verify_packing,
)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=4)
    ap.add_argument("--L", type=int, default=2)
    ap.add_argument("--N", type=float, default=0.005)
    ap.add_argument("--K", type=float, default=1.0)
    ap.add_argument("--rate-margin", type=float, default=-0.1)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mc-samples", type=int, default=100_000)
    ap.add_argument("--mc-power", type=float, default=25.0)
    args = ap.parse_args(argv)

    t0 = time.monotonic()
    code = sample_code(
        n=args.n, L=args.L, N=args.N, K=args.K, rate_margin=args.rate_margin, seed=args.seed
    )
    lam_n = lambda_n_threshold(ExponentQuery(N=args.N, L=args.L, K=args.K), args.n)
    print(f"sampled M = {code.M} points on [-{args.K}, {args.K}]^{args.n}")
    print(f"  threshold density lambda_n = {lam_n:.6g}, margin {args.rate_margin}")

    bad = find_bad_lists(code)
    clean = expurgate(code, bad)
    print(f"expurgation: {len(bad)} violating lists, removed {clean.expurgated_count} points")
    print(f"  achieved rate {achieved_rate(clean):.6f} nats")
    target = math.log(lam_n * math.exp(args.n * args.rate_margin) / 2.0) / args.n
    print(f"  accounting target {target:.6f} nats")

    cons = tile(clean)
    print(f"tiled with gap {cons.gap:.6f}, period {cons.period:.6f}, NLD {cons.nld:.6f}")

    verdict = verify_packing(cons, 1.5 * cons.period)
    status = "PASS" if verdict.passed else "FAIL"
    print(
        f"packing check {status}: {verdict.window_points} window points, "
        f"{verdict.same_tile_lists} same-tile lists, threshold {verdict.threshold:.6f}"
    )
    if not verdict.passed:
        print(
            f"  violating base indices: {verdict.violation_base_indices}, "
            f"avg radius^2 {verdict.min_avg_radius_sq:.6f}"
        )
        return 1

    rep = density_report(cons, args.mc_power, args.mc_samples, seed=args.seed)
    predicted = cons.nld + ball_log_volume_rate_finite(args.N, args.n)
    print(
        f"density: measured {rep.delta_hat:.4f} (covered {rep.covered}/{rep.mc_samples}), "
        f"predicted {predicted:.4f}"
    )
    print(f"done in {time.monotonic() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
