"""Exact reference values computed without any tropgw code.

A series is a dict from exponent to Fraction, truncated at a stated order.
Results are rendered in the JSON layout tropgw uses for a Laurent series
(leading and trailing zeros stripped, every coefficient a [num, den] pair),
so a checked value and its oracle compare as plain data.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd


def sin_bracket(m: int, order: int) -> dict[int, Fraction]:
    """2 sin(m x / 2) through x^order."""
    half = Fraction(m, 2)
    return {e: 2 * (-1) ** ((e - 1) // 2) * half ** e / factorial(e)
            for e in range(1, order + 1, 2)}


def mul(a: dict, b: dict, order: int) -> dict:
    out: dict[int, Fraction] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            if e <= order:
                out[e] = out.get(e, 0) + ca * cb
    return out


def scale(a: dict, c) -> dict:
    return {e: c * v for e, v in a.items()}


def series_json(s: dict, order: int) -> dict:
    nonzero = [e for e, c in s.items() if c != 0 and e <= order]
    if not nonzero:
        return {"lowest_exponent": 0, "coefficients": [],
                "truncation_order": order}
    low, high = min(nonzero), max(nonzero)
    coeffs = []
    for e in range(low, high + 1):
        c = Fraction(s.get(e, 0))
        coeffs.append([c.numerator, c.denominator])
    return {"lowest_exponent": low, "coefficients": coeffs,
            "truncation_order": order}


def gamma_mu(mu, order: int) -> dict:
    """Loop-family weight: prod over mu of [m]^2 / m, divided by lcm(mu),
    with [m] = 2 sin(m x / 2)."""
    lcm = 1
    for m in mu:
        lcm = lcm * m // gcd(lcm, m)
    acc = {0: Fraction(1, lcm)}
    for m in mu:
        b = sin_bracket(m, order)
        acc = mul(mul(acc, b, order), scale(b, Fraction(1, m)), order)
    return acc


def sinc_squared(order: int) -> dict:
    """(2 sin(x/2) / x)^2, the line count of P^3 through two points."""
    b = {e - 1: c for e, c in sin_bracket(1, order + 1).items()}
    return mul(b, b, order)


def vertex_weight(n: int, order: int) -> dict:
    """2 sin(n x / 2) / n, the trivalent vertex weight of wedge index n."""
    return scale(sin_bracket(n, order), Fraction(1, n))


def wedge_index(a, b) -> int:
    cross = (a[1] * b[2] - a[2] * b[1],
             a[2] * b[0] - a[0] * b[2],
             a[0] * b[1] - a[1] * b[0])
    g = 0
    for x in cross:
        g = gcd(g, abs(x))
    return g


def _coeff(c) -> tuple[Fraction, Fraction]:
    if isinstance(c[0], list):
        return Fraction(*c[0]), Fraction(*c[1])
    return Fraction(*c), Fraction(0)


def substitute_q(terms, order: int):
    """Substitute q^(1/2) = i e^(i x / 2) into a q-polynomial given as tropgw
    JSON ([[half_exponent, coeff], ...]).  Returns (real series, whether every
    imaginary part cancelled)."""
    re_s: dict[int, Fraction] = {}
    im_s: dict[int, Fraction] = {}
    for h, c in terms:
        cre, cim = _coeff(c)
        # c * i^h * exp(i h x / 2) = sum_j c * i^(h + j) (h/2)^j / j! x^j
        for j in range(order + 1):
            mag = Fraction(h, 2) ** j / factorial(j)
            pr, pi = ((1, 0), (0, 1), (-1, 0), (0, -1))[(h + j) % 4]
            re_s[j] = re_s.get(j, 0) + mag * (cre * pr - cim * pi)
            im_s[j] = im_s.get(j, 0) + mag * (cre * pi + cim * pr)
    return re_s, all(v == 0 for v in im_s.values())
