"""Exact linear feasibility by Fourier-Motzkin elimination.

Two uses downstream: deciding whether a deformation admits a solution with
all replacement lengths strictly positive (with the right-hand side kept
symbolic so one elimination serves many shift vectors), and the cone
intersection tests behind the toric convexity assumptions.  Problem sizes are
tiny, so no effort is spent fighting FM's worst-case growth beyond gcd
normalization and deduplication.
"""

from __future__ import annotations

from math import gcd
from typing import Sequence


def positive_combinations(b_rows: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Nonnegative combinations c with c*B = 0, generating the test cone.

    For the system  B s > r  (componentwise, strict) the returned rows are
    complete: the system is feasible iff  c . r < 0  for every returned c.
    Replacing > by >= everywhere turns the criterion into c . r <= 0.
    B must have integer entries (TypeError otherwise); r may be rational.
    """
    m = len(b_rows)
    if m == 0:
        return []
    n = len(b_rows[0])
    if not all(isinstance(x, int) for r in b_rows for x in r):
        raise TypeError("positive_combinations needs integer rows")
    # each work row: (B-part, combination-part)
    work = [(tuple(r), tuple(1 if i == j else 0 for j in range(m)))
            for i, r in enumerate(b_rows)]
    for var in range(n):
        pos = [w for w in work if w[0][var] > 0]
        neg = [w for w in work if w[0][var] < 0]
        zero = [w for w in work if w[0][var] == 0]
        new = list(zero)
        for p in pos:
            for q in neg:
                a, b = p[0][var], -q[0][var]
                row = tuple(b * x + a * y for x, y in zip(p[0], q[0]))
                comb = tuple(b * x + a * y for x, y in zip(p[1], q[1]))
                g = 0
                for x in row + comb:
                    g = gcd(g, abs(x))
                if g > 1:
                    row = tuple(x // g for x in row)
                    comb = tuple(x // g for x in comb)
                new.append((row, comb))
        # dedupe
        seen = set()
        work = []
        for w in new:
            if w not in seen:
                seen.add(w)
                work.append(w)
    return [comb for row, comb in work if all(x == 0 for x in row)]


def cone_meets_cone(gens_a: Sequence[Sequence[int]],
                    gens_b: Sequence[Sequence[int]]) -> bool:
    """Whether cone(gens_a) and cone(gens_b) share a nonzero point.

    Works for arbitrary (possibly dependent) generators.  One elimination on
    the rows a_1..a_na, -b_1..-b_nb returns generators c of the cone of
    nonnegative c with sum_i c_i a_i = sum_j c_(na+j) b_j; the shared point
    sum_i c_i a_i is linear in c, so it is nonzero somewhere on that cone iff
    it is nonzero on some generator.
    """
    if not gens_a or not gens_b:
        return False
    rows = list(gens_a) + [[-x for x in h] for h in gens_b]
    return any(any(sum(ci * g[d] for ci, g in zip(c, gens_a))
                   for d in range(len(gens_a[0])))
               for c in positive_combinations(rows))
