#!/usr/bin/env python3
"""Convergence scan: prediction accuracy of the quantized spectrum vs N.

For a circle symbol at fixed perturbation strength, measure the max
nearest-distance between interior eigenvalues and the principal-exact
predictions g(hbar*k) for a list of truncation sizes (hbar = 1/N), and
fit the log-log order.

Beware the two ends of the N range: small N is dominated by the
truncation edge layer, while large N at fixed eps runs into non-normal
spectral sensitivity (eigenvalue condition numbers grow like
exp(c*eps/hbar)), which caps what double precision can resolve.
"""

import argparse
import sys
import time

import numpy as np

from semispec import (ConfigError, ExperimentConfig, NumericError,
                      run_experiment)
from semispec.compare import directed_hausdorff


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--symbol", default="I + i*epsilon*(cos(theta) + I^2)")
    parser.add_argument("--epsilon", type=float, default=0.1)
    parser.add_argument("--Ns", default="24,33,48,66",
                        help="comma-separated truncation sizes")
    args = parser.parse_args(argv)

    try:
        ns = [int(v) for v in args.Ns.split(",")]
    except ValueError:
        print(f"config error: --Ns must be comma-separated integers, got "
              f"{args.Ns!r}", file=sys.stderr)
        return 2
    errs = []
    for n in ns:
        t0 = time.perf_counter()
        try:
            cfg = ExperimentConfig(model="circle", symbol=args.symbol, N=n,
                                   epsilon=args.epsilon)
            res = run_experiment(cfg, write=False)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        except NumericError as exc:
            print(f"numeric failure: {exc}", file=sys.stderr)
            return 3
        err = directed_hausdorff(
            res.in_window, res.predictions["principal_exact"].values())
        errs.append(err)
        print(f"N={n:4d}  hbar={1.0 / n:.6f}  max_dist={err:.6e}  "
              f"[{time.perf_counter() - t0:.2f}s]")
    if len(set(ns)) < 2:
        print("fitted log-log order: undefined (fewer than two distinct N)")
    elif min(errs) > 0:
        order = np.polyfit(np.log([1.0 / n for n in ns]), np.log(errs), 1)[0]
        print(f"fitted log-log order: {order:.2f}")
    else:
        print("fitted log-log order: undefined (a max_dist is 0)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
