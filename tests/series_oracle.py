"""Fraction-loop series kernels, kept as a test oracle.

The library runs its coefficient loops on integer numerators over one common
denominator.  The functions here do the same arithmetic the direct way, one
Fraction product and sum at a time, and use nothing from tropgw.exactnum but
the two containers, so the tests can compare the two paths.
"""

from fractions import Fraction
from math import factorial

from tropgw.exactnum import LaurentSeries, QHalfLaurent

_I_POWERS = ((1, 0), (0, 1), (-1, 0), (0, -1))   # i^m as (re, im), m mod 4


def add(a: LaurentSeries, b: LaurentSeries) -> LaurentSeries:
    """The truncated sum, one Fraction addition per stored coefficient."""
    order = min(a.order, b.order)
    if a.is_zero():
        return b.truncate(order)
    if b.is_zero():
        return a.truncate(order)
    low = min(a.low, b.low)
    n = order - low + 1
    cs = [Fraction(0)] * n
    for s in (a, b):
        for j, c in enumerate(s.coeffs):
            k = s.low + j - low
            if 0 <= k < n:
                cs[k] += c
    return LaurentSeries(low, cs, order)


def mul(a: LaurentSeries, b: LaurentSeries) -> LaurentSeries:
    """The truncated product, by direct convolution."""
    # the zero series counts as supported from its own order upwards
    a_low = a.low if a.coeffs else a.order
    b_low = b.low if b.coeffs else b.order
    order = min(a.order + b_low, b.order + a_low)
    if a.is_zero() or b.is_zero():
        return LaurentSeries.zero(order)
    low = a.low + b.low
    n = order - low + 1
    if n <= 0:
        return LaurentSeries.zero(order)
    cs = [Fraction(0)] * n
    for ia, x in enumerate(a.coeffs):
        if not x:
            continue
        for ib, y in enumerate(b.coeffs):
            k = ia + ib
            if k >= n:
                break
            cs[k] += x * y
    return LaurentSeries(low, cs, order)


def inverse(s: LaurentSeries) -> LaurentSeries:
    """The inverse, by iterating 1/(1 + t) with t of positive valuation."""
    if s.is_zero():
        raise ZeroDivisionError("inverse of the zero series")
    v = s.low
    lead = s.coeffs[0]
    m = s.order - v
    inv = [Fraction(1)] + [Fraction(0)] * m
    for k in range(1, m + 1):
        acc = Fraction(0)
        for j in range(1, min(k, len(s.coeffs) - 1) + 1):
            acc += (s.coeffs[j] / lead) * inv[k - j]
        inv[k] = -acc
    return LaurentSeries(-v, [c / lead for c in inv], s.order - 2 * v)


def two_sin_half(n: int, order: int) -> LaurentSeries:
    """2*sin(n*x/2) from powers of n/2 in Fractions."""
    half = Fraction(n, 2)
    cs = {}
    e = 1
    while e <= order:
        j = (e - 1) // 2
        cs[e] = 2 * (-1) ** j * half ** e / factorial(e)
        e += 2
    lo = min(cs) if cs else 0
    coeffs = [cs.get(k, Fraction(0)) for k in range(lo, order + 1)] if cs else []
    return LaurentSeries(lo, coeffs, order)


def q_to_lambda(p: QHalfLaurent, order: int) -> tuple[LaurentSeries, bool]:
    """Substitute q^(1/2) = i*exp(i*x/2), one Fraction term at a time."""
    re = [Fraction(0)] * (order + 1)
    im = [Fraction(0)] * (order + 1)
    for h, cre, cim in p.terms:
        # x^j coefficient of c * i^h * exp(i*h*x/2): c * i^(h+j) * (h/2)^j / j!
        t = Fraction(1)
        for j in range(order + 1):
            pr, pi = _I_POWERS[(h + j) % 4]
            re[j] += (cre * pr - cim * pi) * t
            im[j] += (cre * pi + cim * pr) * t
            t = t * Fraction(h, 2) / (j + 1)
    return LaurentSeries(0, re, order), not any(im)
