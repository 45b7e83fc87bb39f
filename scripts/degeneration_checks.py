#!/usr/bin/env python3
"""Cross-configuration count comparisons for the three four-end families.

Each family is counted under its alternative constraint positions; the
weighted totals must agree exactly even though different curve types
contribute.  Prints which types contributed on each side.
"""

import argparse

from tropgw.enumeration import SearchBounds, cycle_from_constraints
from tropgw.invariants import CountRequest, weighted_count


def run(ends, configs, order):
    results = []
    for cons in configs:
        cyc = cycle_from_constraints(ends, cons)
        req = CountRequest(tuple(ends), cyc, True, "lambda", SearchBounds())
        results.append(weighted_count(req, order))
    return results


def describe(res):
    return ", ".join(
        f"{c.ctype.n_internal}-edge type (index {c.lattice_factor}, aut {c.automorphisms})"
        for c in res.contributions) or "nothing"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--order", type=int, default=14)
    ap.add_argument("--max-n", type=int, default=4)
    args = ap.parse_args()

    families = [("opposite pairs", [(1, 0, 0), (0, 1, 0), (-1, 0, 0), (0, -1, 0)],
                 [{2: ("point", (0, 0, 0)), 1: ("plane", 1, 3), 3: ("plane", 1, -4)},
                  {2: ("point", (0, 0, 0)), 1: ("plane", 1, -4), 3: ("plane", 1, 3)}])]
    for k in (1, 2):
        for n in (1, 2):
            families.append((
                f"skew family k={k} n={n}",
                [(k, 0, 0), (0, n * k, 0), (0, 1, 0), (-k, -n * k - 1, 0)],
                [{1: ("point", (0, 0, 0)), 2: ("plane", 0, 2), 3: ("plane", 0, -3)},
                 {1: ("point", (0, 0, 0)), 2: ("plane", 0, -3), 3: ("plane", 0, 2)}]))
    for n in range(1, args.max_n + 1):
        families.append((
            f"loop family n={n}",
            [(1, 0, 0), (0, 1, 0), (-1, 0, n), (0, -1, -n)],
            [{1: ("point", (0, 0, -1)), 2: ("point", (0, 0, 1))},
             {1: ("point", (0, 0, 1)), 2: ("point", (0, 0, -1))}]))

    for name, ends, configs in families:
        ra, rb = run(ends, configs, args.order)
        ok = ra.value.agrees(rb.value)
        print(f"{name}: agree={ok}")
        print(f"    config A: {describe(ra)}")
        print(f"    config B: {describe(rb)}")
        if not ok:
            raise SystemExit(1)


if __name__ == "__main__":
    main()
