#!/usr/bin/env python3
"""Designed vs. random subsampling on a synthetic logistic pool.

Bootstrap-resamples the pool B times; on each replicate the two-stage
method fits a pilot, selects the rest of the budget by optimal design on
the distinct resampled records, and refits, while the random method just
refits on a uniform subsample.  Scores are mean squared deviations of the
refit coefficients from the full-data fit.  Example:

    python3 scripts/two_stage_demo.py --N 2000 --k 9 --n 300 --B 200 --r 0.4
"""

import argparse
import sys

import numpy as np

from batchdesign.cli import EXIT_OK, RUN_ERRORS, report_error
from batchdesign.pipeline import bootstrap_evaluate
from batchdesign.solvers import SolverConfig


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--N", type=int, default=2000, help="pool size")
    ap.add_argument("--k", type=int, default=9, help="feature count incl. intercept")
    ap.add_argument("--n", type=int, default=300, help="subsample budget")
    ap.add_argument("--r", type=float, default=0.4, help="pilot fraction of n")
    ap.add_argument("--B", type=int, default=200, help="bootstrap replicates")
    ap.add_argument("--p", type=float, default=1.0, help="criterion exponent")
    ap.add_argument("--v", type=float, default=1e-4, help="relaxation gap target")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    Z = np.empty((args.N, args.k))
    Z[:, 0] = 1.0
    Z[:, 1:] = rng.standard_normal((args.N, args.k - 1))
    beta_true = rng.uniform(-0.8, 0.8, args.k)
    y = (rng.random(args.N) < 1.0 / (1.0 + np.exp(-(Z @ beta_true)))).astype(int)

    try:
        boot = bootstrap_evaluate(Z, y, "logistic", ("two-stage", "random"),
                                  n=args.n, r_frac=args.r, p=args.p, B=args.B,
                                  cfg=SolverConfig(v0=1e-2, v=min(args.v, 1e-2)),
                                  seed=args.seed)
    except RUN_ERRORS as exc:  # exits as the batchdesign command would
        return report_error(exc)

    print(f"N={args.N} k={args.k} n={args.n} r={args.r} B={args.B} "
          f"(used {boot.used_replicates})")
    print(f"{'method':<10} {'total MSE':>12} {'vs random':>10} {'failures':>9}")
    for m in boot.methods:
        ratio = boot.ratio_to_random(m.name)
        print(f"{m.name:<10} {m.total_mse:>12.6f} {ratio:>10.4f} {m.failures:>9}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
