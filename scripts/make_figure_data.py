#!/usr/bin/env python3
"""Generate the CSV data behind the standard plots.

Writes, under --out-dir:
  curves_L{3,4,5}.csv      bound curves over a geometric noise grid
  exponent_K.csv           closed-form exponent and quadrature rate vs K
  finite_n_bias.csv        MC exponent estimates approaching the rate in n

Each file gets the usual manifest sidecar when produced through the CLI, or
an inline comment header otherwise.
"""

import argparse
import math
import sys
from pathlib import Path

from multipack import ExponentQuery, exponent_E, mc_tail, rate_function
from multipack.cli import main as cli_main

# quadrature order of both tables' rate_function, and the bias table's seed
QUAD_ORDER = 96
SEED = 5


def write_exponent_table(path, L, N):
    with open(path, "w") as fh:
        fh.write(f"# L={L} N={N} quad_order={QUAD_ORDER}\n")
        fh.write("K,exponent_E,rate_function,lambda_opt,rel_gap\n")
        for K in (1.0, 2.0, 4.0, 8.0, 16.0, 32.0):
            E = exponent_E(ExponentQuery(N=N, L=L, K=K))
            res = rate_function(L, K, N, quad_order=QUAD_ORDER)
            rel = abs(res.rate - E) / abs(E) if E != 0 else math.inf
            fh.write(f"{K},{E!r},{res.rate!r},{res.lambda_opt!r},{rel!r}\n")


def write_bias_table(path, N, samples):
    rate = rate_function(2, 1.0, N, quad_order=QUAD_ORDER).rate
    with open(path, "w") as fh:
        fh.write(f"# rate_function={rate!r}\n")
        fh.write("n,hits,exponent_hat,excess\n")
        for n in (8, 16, 32, 64, 128):
            est = mc_tail(L=2, n=n, K=1.0, N=N, samples=samples, seed=SEED)
            fh.write(f"{n},{est.hits},{est.exponent_hat!r},{est.exponent_hat - rate!r}\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out-dir", default="figure_data")
    ap.add_argument("--steps", type=int, default=200)
    ap.add_argument("--samples", type=int, default=200_000)
    args = ap.parse_args(argv)

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    rc = cli_main(
        [
            "bounds",
            "--multi-L",
            "3,4,5",
            "--N-min",
            "0.0005",
            "--N-max",
            "0.05",
            "--steps",
            str(args.steps),
            "--out",
            str(out / "curves.csv"),
        ]
    )
    if rc != 0:
        return rc

    write_exponent_table(out / "exponent_K.csv", L=2, N=0.01)
    print(f"wrote {out / 'exponent_K.csv'}")
    write_bias_table(out / "finite_n_bias.csv", N=0.14, samples=args.samples)
    print(f"wrote {out / 'finite_n_bias.csv'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
