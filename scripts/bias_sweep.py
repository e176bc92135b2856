"""Zero-noise bias sweep over the sampling step.

Generates noiseless short-trajectory data for the planar rotation at a
sequence of step sizes and reports the max estimation error on interior
grid points, together with the fitted log-log slope.  With exact data
the error is pure discretisation bias, so the slope reflects the order
of the increment regression in dt.

Usage: python scripts/bias_sweep.py [--beta 2]
"""

from __future__ import annotations

import argparse

import numpy as np

from flowfit import IncrementRegressor, fit_rate, make_field
from flowfit.stubble import estimate_general, generate_stubble, horizon_regressions


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--beta", type=int, default=1)
    parser.add_argument("--n0", type=int, default=16)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    field = make_field("rotation")
    dts = [0.04, 0.02, 0.01, 0.005]
    spec = IncrementRegressor(degree=args.beta - 1)
    grid = np.linspace(0.25, 0.75, 3)
    queries = np.array([[a, b] for a in grid for b in grid])

    errors = []
    for dt in dts:
        data = generate_stubble(
            field, n0=args.n0, dt=dt, beta=args.beta, sigma=0.0, seed=args.seed
        )
        regressions = horizon_regressions(data, spec)
        worst = 0.0
        for x in queries:
            fhat = estimate_general(regressions, x)
            worst = max(worst, float(np.linalg.norm(fhat - field(x))))
        errors.append(worst)
        print(f"dt={dt:<8g} max error {worst:.3e}")

    slope, _ = fit_rate(dts, errors)
    print(f"log-log slope {slope:.3f} (expect about {args.beta})")


if __name__ == "__main__":
    main()
