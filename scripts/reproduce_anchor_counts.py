#!/usr/bin/env python3
"""Reproduce the toric anchor computations and print the exact series.

Runs the two absolute-invariant anchors, the boundary-factor re-derivation,
and the reduced DT value, then prints everything as exact rationals.
"""

import argparse
import time

from tropgw.exactnum import LaurentSeries, two_sin_half
from tropgw.invariants import (absolute_invariant, cp3_fan, derive_line_factor,
                               p1_cubed_fan, reduced_dt)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--order", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    t0 = time.time()
    p13 = p1_cubed_fan()
    line = absolute_invariant(p13, [1, 1, 0, 0, 0, 0], 1, args.order, args.seed)
    print("line through a point on the product of three lines:")
    print("   ", line)
    print("    expected 1/x:", line.agrees(LaurentSeries.monomial(1, -1, args.order)))

    factor = derive_line_factor(args.order, args.seed)
    print("re-derived boundary factor:", factor)

    cp3 = cp3_fan()
    inv = absolute_invariant(cp3, [1, 1, 1, 1], 2, args.order, args.seed)
    one = two_sin_half(1, args.order)
    print("degree-one count through two points in projective 3-space:")
    print("   ", inv)
    print("    expected (sin(x/2)/(x/2))^2:", inv.agrees((one * one).shift(-2)))

    dt = reduced_dt(p13, [1, 1, 0, 0, 0, 0], 1, args.seed)
    print("reduced DT for the line class through a point:", dt)
    print(f"done in {time.time() - t0:.1f}s")


if __name__ == "__main__":
    main()
