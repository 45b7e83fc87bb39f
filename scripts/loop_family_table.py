#!/usr/bin/env python3
"""Tabulate the loop-family weights against their closed form.

For every partition mu with |mu| <= N, run the full pipeline (enumerate the
four-end family, pick out the loop type, resolve it at the eps-moved zero
shift) and compare with (1/lcm(mu)) prod [mu_i]^2 / mu_i.  Prints the leading
coefficients and a match flag per partition.
"""

import argparse
import time

from tropgw.enumeration import SearchBounds, _partitions, enumerate_curve_types
from tropgw.identities import expected_gamma_mu_weight, gamma_mu
from tropgw.tropcurve import are_isomorphic
from tropgw.weights import curve_weight


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--max-total", type=int, default=6)
    ap.add_argument("--order", type=int, default=20)
    args = ap.parse_args()

    bounds = SearchBounds()
    for total in range(1, args.max_total + 1):
        ends = [(1, 0, 0), (0, 1, 0), (-1, 0, total), (0, -1, -total)]
        types = enumerate_curve_types(ends, bounds)
        for mu in _partitions(total):
            t0 = time.time()
            target = gamma_mu(total, mu)
            match = [t for t in types if are_isomorphic(t, target)]
            assert len(match) == 1
            w = curve_weight(match[0], args.order, "lambda")
            expect = expected_gamma_mu_weight(mu, args.order)
            lead = w.coeff(w.low) if not w.is_zero() else 0
            print(f"mu={str(mu):18s} low=x^{w.low:<3d} lead={lead}  "
                  f"match={w.agrees(expect)}  ({time.time() - t0:.2f}s)")


if __name__ == "__main__":
    main()
