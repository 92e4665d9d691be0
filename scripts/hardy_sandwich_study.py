#!/usr/bin/env python3
"""Truncation study for the Euclidean Hardy best constant.

Minimizes the discrete Rayleigh quotient for the inverse-distance weight
on widening annuli and prints the quotient, the log-substitution
prediction 1/4 + (pi/ln(R/eps))^2, the extrapolated limit and the gap of
the discrete minimizer (positive at every level: the constant is not
attained).
"""
import argparse
import math

from phardy.functionals import hardy_case
from phardy.geometry import euclidean_radial
from phardy.optimize import convergence_study
from phardy.weights import rho_catalog_entry


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dim", type=int, default=3)
    ap.add_argument("--levels", type=int, default=4)
    ap.add_argument("--n0", type=int, default=1000)
    args = ap.parse_args()

    model = euclidean_radial(args.dim)
    case = hardy_case(model, rho_catalog_entry("power", model, 2.0, beta=-1.0))
    study = convergence_study(case, levels=args.levels, n0=args.n0)
    limit = case.formula_constant
    print(f"{'eps':>9} {'R':>9} {'n':>6} {'quotient':>12} "
          f"{'predicted':>12} {'extrapolated':>13} {'gap(minimizer)':>15}")
    for grid, q, extrapolated, gap in zip(
        study.grids, study.quotients, study.extrapolated, study.gaps
    ):
        corr = (math.pi / math.log(grid.hi / grid.lo)) ** 2
        print(f"{grid.lo:9.1e} {grid.hi:9.1e} {grid.n:6d} {q:12.8f} "
              f"{limit + corr:12.8f} {extrapolated:13.8f} {gap:15.6e}")
    print(f"\ntheoretical lower bound ((p-1)/p)^p = {limit}")


if __name__ == "__main__":
    main()
