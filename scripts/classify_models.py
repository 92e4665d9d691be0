#!/usr/bin/env python3
"""Capacity-based parabolicity table for the model manifolds.

Prints the last capacity cap_p(B_1, B_b) of each schedule, the numbers
the rule tests and the resulting p-parabolic / p-hyperbolic
classification for Euclidean models over a (N, p) grid and
for the hyperbolic plane.
"""
import argparse

from phardy.capacity import classify_parabolicity
from phardy.geometry import euclidean_radial, hyperbolic_radial


def row(model, name, p):
    cls = classify_parabolicity(model, p)
    flag = " (inconclusive)" if cls.inconclusive else ""
    ratio = "-" if cls.ratio is None else f"{cls.ratio:.6f}"
    tail = "-" if cls.tail_share is None else f"{cls.tail_share:.2e}"
    print(f"{name:>14} p={p:<4g} {cls.classification:<14} "
          f"last cap={cls.values[-1]:10.3e} ratio={ratio:>8} tail share={tail:>8}{flag}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--pvals", type=float, nargs="+", default=[1.5, 2.0, 3.0, 4.0])
    args = ap.parse_args()
    for n in (2, 3, 4):
        for p in args.pvals:
            row(euclidean_radial(n), f"euclidean(N={n})", p)
    for p in args.pvals[:3]:
        row(hyperbolic_radial(2), "hyperbolic(N=2)", p)


if __name__ == "__main__":
    main()
