#!/usr/bin/env python3
"""Measure outage diversity orders from the analytical curves.

Sweeps transmit power, keeps the points inside a target outage window, and
fits the log-log slope of the exact outage of the model (``op_exact``, the
curve the diversity criterion checks); compare against the prediction
2 min(t1, t2) N.  The slope of the paper's closed form, a high-SNR
approximation of that curve, is printed next to it with its gap.
"""

import argparse
import math

import numpy as np

from irislab import analysis as an
from irislab.geometry import NetworkConfig
from irislab.montecarlo import empirical_diversity_slope


def slopes_for(n: int, t1: float, t2: float, window=(1e-10, 1e-5)):
    """Fitted slopes of the exact outage and of the closed form, in that order."""
    exact, closed = [], []
    for pb_dbm in np.arange(-10.0, 80.0, 1.0):
        cfg = NetworkConfig(M=1, K=1, N=n, t1=t1, t2=t2,
                            p_b=1e-3 * 10 ** (pb_dbm / 10.0))
        snr_db = 10.0 * math.log10(cfg.p_b / cfg.sigma2)
        for curve, op in ((exact, an.op_exact(cfg)),
                          (closed, an.op_closed_form(cfg, clamp=False))):
            if window[0] <= op <= window[1]:
                curve.append((snr_db, op))
    return empirical_diversity_slope(exact), empirical_diversity_slope(closed)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--t1", type=float, default=2.0)
    parser.add_argument("--t2", type=float, default=1.0)
    parser.add_argument("--elements", default="1,2,3,4")
    args = parser.parse_args()
    for n in (int(s) for s in args.elements.split(",")):
        predicted = an.diversity_order(args.t1, args.t2, n)
        exact, closed = slopes_for(n, args.t1, args.t2)
        print(f"N={n}: exact slope {exact:6.3f}, predicted {predicted:4.1f}; "
              f"closed form {closed:6.3f} (gap {closed - exact:+.3f})")


if __name__ == "__main__":
    main()
