"""Machine-checked identity suites between the closed-form weights.

Each check returns a boolean; the suite runners collect (name, ok) pairs for
the command line and the acceptance tests.  All equalities are exact on
rational coefficients through the requested truncation order.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import product
from math import factorial, isqrt, lcm

from .exactnum import (
    LaurentSeries,
    QHalfLaurent,
    q_to_lambda,
    quantum_integer_q,
    two_sin_half,
)
from .enumeration import _partitions
from .invariants import (absolute_invariant, cp3_fan, derive_line_factor,
                         p1_cubed_fan, reduced_dt)
from .lattice import wedge_index
from .tropcurve import CurveType
from .weights import curve_weight, substitution_consistent, vertex_series


def _fraction_sqrt(x: Fraction) -> Fraction:
    n, d = x.numerator, x.denominator
    if n < 0:
        raise ValueError("negative radicand")
    rn, rd = isqrt(n), isqrt(d)
    if rn * rn != n or rd * rd != d:
        raise ValueError(f"{x} is not a rational square")
    return Fraction(rn, rd)


def series_sqrt(s: LaurentSeries) -> LaurentSeries:
    """Square root of a series whose valuation is even, with positive leading
    coefficient; used to bootstrap the even recursion step."""
    if s.is_zero():
        return s
    if s.low % 2 != 0:
        raise ValueError("square root needs even valuation")
    c0 = s.coeffs[0]
    if c0 <= 0:
        raise ValueError("square root needs a positive leading coefficient")
    r0 = _fraction_sqrt(c0)
    half = s.low // 2
    m = s.order - s.low
    out = [Fraction(0)] * (m + 1)
    out[0] = r0
    for k in range(1, m + 1):
        acc = s.coeff(s.low + k)
        for j in range(1, k):
            acc -= out[j] * out[k - j]
        out[k] = acc / (2 * r0)
    return LaurentSeries(half, out, s.order - half)


def brackets_by_recursion(top: int, order: int) -> dict[int, LaurentSeries]:
    """Solve the odd/even weighted-count relations forward from the base case.

    [2n+1] = (2n+1)[1] - [1] * sum_{k<=n} [k]^2
    [2n] [2] / 2 = [1]^2 (2n - [n]^2/2 - sum_{k<n} [k]^2),
    with [2] bootstrapped from the n = 1 even relation via a series root.
    """
    b: dict[int, LaurentSeries] = {1: two_sin_half(1, order)}
    one2 = b[1] * b[1]
    if top >= 2:
        # [2]^2 = [1]^2 (4 - [1]^2)
        rad = one2.scale(4) - one2 * one2
        b[2] = series_sqrt(rad)
    for m in range(3, top + 1):
        if m % 2 == 1:
            n = (m - 1) // 2
            acc = LaurentSeries.zero(order)
            for k in range(1, n + 1):
                acc = acc + b[k] * b[k]
            b[m] = b[1].scale(2 * n + 1) - b[1] * acc
        else:
            n = m // 2
            acc = LaurentSeries.zero(order)
            for k in range(1, n):
                acc = acc + b[k] * b[k]
            rhs = (LaurentSeries.monomial(2 * n, 0, order)
                   - (b[n] * b[n]).scale(Fraction(1, 2)) - acc)
            b[m] = (one2 * rhs).scale(2) * b[2].inverse()
    return b


def recursion_matches_closed_form(top: int, order: int) -> bool:
    b = brackets_by_recursion(top, order)
    return all(b[m].agrees(two_sin_half(m, order)) for m in range(1, top + 1))


def partition_aut(mu) -> int:
    out = 1
    for _, c in Counter(mu).items():
        out *= factorial(c)
    return out


def partition_identity_holds(n: int, order: int) -> bool:
    """n [1]^2 = sum over partitions mu of n of prod [mu_i]^2 / (|Aut mu| prod mu_i)."""
    lhs = (two_sin_half(1, order) * two_sin_half(1, order)).scale(n)
    rhs = LaurentSeries.zero(order)
    for mu in _partitions(n):
        term = LaurentSeries.one(order)
        denom = partition_aut(mu)
        for p in mu:
            term = term * two_sin_half(p, order) * two_sin_half(p, order)
            denom *= p
        rhs = rhs + term.scale(Fraction(1, denom))
    return lhs.agrees(rhs)


def pluecker_triples(count: int = 12):
    """Coplanar triples with all brackets positively oriented: determinants
    det(a,b), det(b,c), det(a,c) positive and det(a,b) > det(b,c)."""
    out = []
    for a1, a2, b1, b2, c1, c2 in product(range(-2, 3), repeat=6):
        d_ab = a1 * b2 - a2 * b1
        d_bc = b1 * c2 - b2 * c1
        d_ac = a1 * c2 - a2 * c1
        if d_ab > 0 and d_bc > 0 and d_ac > 0 and d_ab > d_bc:
            out.append(((a1, a2, 0), (b1, b2, 0), (c1, c2, 0)))
            if len(out) >= count:
                return out
    return out


def pluecker_identity_holds(a, b, c, order: int) -> bool:
    """[a^b][(a+b)^c] = [b^c][(b+c)^a] + [a^c][(a+c)^b] as a series identity."""
    def br(u, v):
        n = wedge_index(u, v)
        return two_sin_half(n, order)

    sab = tuple(x + y for x, y in zip(a, b))
    sbc = tuple(x + y for x, y in zip(b, c))
    sac = tuple(x + y for x, y in zip(a, c))
    lhs = br(a, b) * br(sab, c)
    rhs = br(b, c) * br(sbc, a) + br(a, c) * br(sac, b)
    return lhs.agrees(rhs)


def wedge_determines_vertex_weight(order: int, span: int = 3) -> bool:
    """Vertex weights for end pairs with equal wedge index agree coefficientwise."""
    seen: dict[int, LaurentSeries] = {}
    for a1, a2, b1, b2 in product(range(-span, span + 1), repeat=4):
        a = (a1, a2, 0)
        b = (b1, b2, 1)
        n = wedge_index(a, b)
        if n == 0 or n > 6:
            continue
        third = tuple(-(x + y) for x, y in zip(a, b))
        star = CurveType.make([0], (), [(0, a, 1), (0, b, 2), (0, third, 3)])
        w = vertex_series(star, order)
        if n in seen:
            if not w.agrees(seen[n]):
                return False
        else:
            seen[n] = w
    return True


def substitution_bridge_holds(top: int, order: int) -> bool:
    """Substituting the exponential into the quantum integer recovers the sine
    bracket, coefficientwise with no imaginary residue."""
    for n in range(1, top + 1):
        ser, real = q_to_lambda(quantum_integer_q(n), order)
        if not real or not ser.agrees(two_sin_half(n, order)):
            return False
    return True


# -- suites ---------------------------------------------------------------------


def gamma_mu(n, mu) -> CurveType:
    """The loop-family type: two vertices joined by one internal edge
    (0, 0, m) per part m of mu, with ends (1, 0, 0), (0, 1, 0), (-1, 0, n)
    and (0, -1, -n)."""
    ies = [(0, 1, (0, 0, m)) for m in mu]
    ees = [(1, (1, 0, 0), 1), (0, (0, 1, 0), 2),
           (1, (-1, 0, n), 3), (0, (0, -1, -n), 4)]
    return CurveType.make([0, 1], ies, ees)


def expected_gamma_mu_weight(mu, order: int) -> LaurentSeries:
    acc = LaurentSeries.monomial(Fraction(1, lcm(*mu)), 0, order)
    for m in mu:
        bm = two_sin_half(m, order)
        acc = acc * bm * bm.scale(Fraction(1, m))
    return acc


def expected_gamma_mu_qweight(mu) -> QHalfLaurent:
    """The q side of expected_gamma_mu_weight: (1/lcm mu) prod_m [m]_q^2/m."""
    acc = QHalfLaurent.one().scale(Fraction(1, lcm(*mu)))
    for m in mu:
        qm = quantum_integer_q(m)
        acc = acc * qm * qm.scale(Fraction(1, m))
    return acc


def suite_s3(order: int = 20) -> list[tuple[str, bool]]:
    """Identities from the four-end computations: closed forms, recursions,
    the partition identity and the planar bracket relation."""
    checks = []
    checks.append(("vertex weight depends on the wedge index only",
                   wedge_determines_vertex_weight(order)))
    checks.append((f"odd/even recursions reproduce closed forms through 12",
                   recursion_matches_closed_form(12, order)))
    for n in range(1, 9):
        checks.append((f"partition identity at n={n}",
                       partition_identity_holds(n, order)))
    triples = pluecker_triples(12)
    ok = all(pluecker_identity_holds(a, b, c, order) for a, b, c in triples)
    checks.append((f"planar bracket relation on {len(triples)} triples", ok))
    for total in range(1, 7):
        for mu in _partitions(total):
            w = curve_weight(gamma_mu(total, mu), order, "lambda")
            checks.append((f"loop family weight for mu={mu}",
                           w.agrees(expected_gamma_mu_weight(mu, order))))
    return checks


def suite_s4(order: int = 20, seed: int = 0) -> list[tuple[str, bool]]:
    """Toric anchor computations."""
    checks = []
    p13 = p1_cubed_fan()
    deg = [1, 1, 0, 0, 0, 0]
    inv = absolute_invariant(p13, deg, 1, order, seed)
    checks.append(("product-of-lines anchor equals 1/x",
                   inv.agrees(LaurentSeries.monomial(1, -1, order))))
    f = derive_line_factor(order, seed)
    checks.append(("derived boundary factor equals 1/x",
                   f.agrees(LaurentSeries.monomial(1, -1, order))))
    cp3 = cp3_fan()
    inv2 = absolute_invariant(cp3, [1, 1, 1, 1], 2, order, seed)
    exp2 = (two_sin_half(1, order) * two_sin_half(1, order)).shift(-2)
    checks.append(("projective-space line count through two points", inv2.agrees(exp2)))
    return checks


def suite_dt(order: int = 20, seed: int = 0) -> list[tuple[str, bool]]:
    """The q side: the substitution bridge, the vertex weights' consistency
    and the loop-family q weights against their closed form."""
    checks = []
    checks.append(("quantum integers substitute to sine brackets through 12",
                   substitution_bridge_holds(12, order)))
    v = CurveType.make([0], (), [(0, (1, 0, 0), 1), (0, (0, 1, 0), 2),
                                 (0, (-1, -1, 0), 3)])
    checks.append(("single vertex weight consistency",
                   substitution_consistent(v, order)))
    v0 = CurveType.make([0], (), [(0, (1, 0, 0), 1), (0, (0, 0, 0), 2),
                                  (0, (-1, 0, 0), 3)])
    checks.append(("marker vertex weight consistency",
                   substitution_consistent(v0, order)))
    for total in range(2, 5):
        for mu in _partitions(total):
            if len(mu) == 1:
                continue
            w = curve_weight(gamma_mu(total, mu), order, "q")
            checks.append((f"loop family consistency for mu={mu}",
                           w == expected_gamma_mu_qweight(mu)))
    dt = reduced_dt(p1_cubed_fan(), [1, 1, 0, 0, 0, 0], 1, seed)
    checks.append(("product-of-lines reduced DT equals q",
                   dt == QHalfLaurent.monomial(1, 2)))
    return checks


# every suite is called with (order, seed); s3 places no points
SUITES = {"s3": lambda order, seed: suite_s3(order), "s4": suite_s4,
          "dt": suite_dt}
