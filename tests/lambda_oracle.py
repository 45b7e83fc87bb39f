"""The series weight evaluated directly on the lambda side, kept as a test
oracle.

The library computes every curve weight exactly on the q side and reaches
the series weight by one substitution.  The evaluator here walks the same
derivation records with the series closed forms instead: 2 sin(n x/2)/n
(from two_sin_half) at a vertex of wedge n, x at a marker vertex, and
truncated series products and sums in between, so the tests can compare
the two paths byte for byte, truncation order included.
"""

from fractions import Fraction

from tropgw import weights
from tropgw.exactnum import LaurentSeries, two_sin_half
from tropgw.tropcurve import CurveType


def _vertex(n, order: int) -> LaurentSeries:
    if n == "marker":
        return LaurentSeries.monomial(1, 1, order)
    return two_sin_half(n, order).scale(Fraction(1, n))


def weight(t: CurveType, order: int, _memo=None) -> LaurentSeries:
    """The series weight of t through the given order, from the records of
    weights._derivation."""
    memo = {} if _memo is None else _memo
    rec = weights._derivation(t)
    if id(rec) in memo:
        return memo[id(rec)]
    one = LaurentSeries.one(order)
    if rec.kind == "disconnected":
        w = None
        for c in rec.parts:
            cw = weight(c, order, memo)
            w = cw if w is None else w * cw
    elif rec.kind == "transverse":
        w = one.scale(rec.multiplicity)
        for n in rec.parts:
            w = w * _vertex(n, order)
    else:
        w = one.scale(0)
        for index, parts in rec.parts:
            prod = one.scale(index)
            for part in parts:
                prod = prod * weight(part, order, memo)
            w = w + prod
    memo[id(rec)] = w
    return w
