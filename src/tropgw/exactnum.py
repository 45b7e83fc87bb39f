"""Exact coefficient arithmetic.

Everything downstream works over the rationals: truncated Laurent series in
one formal variable with rational coefficients, and Laurent polynomials in a
formal half-integer power q^(1/2) with Gaussian rational coefficients, each
held as its real and imaginary Fraction parts.  The imaginary unit lives only
on the q side; the substitution q^(1/2) = i*exp(i*x/2) reports its imaginary
residue separately and returns a rational series.  No floats anywhere;
truncation orders are tracked through every operation so a result never
claims more precision than its inputs supported.

The coefficient loops (sums, products, inverses, the sine closed form and
the substitution) run on Python integers: the inputs are written as integer
numerators over one common denominator, and a Fraction is built once per
output coefficient.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm
from typing import Iterable


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


def _numerators(cs) -> tuple[list[int], int]:
    """The Fractions ``cs`` as integer numerators over their least common
    denominator."""
    den = lcm(*(c.denominator for c in cs))
    return [c.numerator * (den // c.denominator) for c in cs], den


_ZERO = Fraction(0)
_ONE = Fraction(1)
# i^m as (real, imaginary) parts, indexed by m mod 4
_I_POWERS = ((_ONE, _ZERO), (_ZERO, _ONE), (-_ONE, _ZERO), (_ZERO, -_ONE))


class LaurentSeries:
    """Truncated Laurent series with Fraction coefficients.

    ``low`` is the exponent of the first stored coefficient, ``order`` the
    largest exponent about which anything is known.  Coefficients between the
    last stored one and ``order`` are exactly zero; beyond ``order`` they are
    unknown.  The zero series stores no coefficients at all.
    """

    __slots__ = ("low", "coeffs", "order")

    def __init__(self, low: int, coeffs: Iterable[int | Fraction], order: int):
        cs = [_frac(c) for c in coeffs]
        # canonical form: strip leading and trailing zeros
        while cs and not cs[0]:
            cs.pop(0)
            low += 1
        while cs and not cs[-1]:
            cs.pop()
        if cs and low + len(cs) - 1 > order:
            raise ValueError("coefficients extend past the truncation order")
        if not cs:
            low = 0
        object.__setattr__(self, "low", low)
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "order", order)

    def __setattr__(self, *a):  # immutable
        raise AttributeError("LaurentSeries is immutable")

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero(order: int) -> "LaurentSeries":
        return LaurentSeries(0, (), order)

    @staticmethod
    def one(order: int) -> "LaurentSeries":
        return LaurentSeries(0, (_ONE,), order)

    @staticmethod
    def monomial(coeff: int | Fraction, exponent: int, order: int) -> "LaurentSeries":
        return LaurentSeries(exponent, (_frac(coeff),), order)

    # -- inspection -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, exponent: int) -> Fraction:
        """Coefficient of the given exponent; raises past the known order."""
        if exponent > self.order:
            raise ValueError(f"exponent {exponent} beyond truncation order {self.order}")
        i = exponent - self.low
        if not self.coeffs or i < 0 or i >= len(self.coeffs):
            return _ZERO
        return self.coeffs[i]

    def _eff_low(self) -> int:
        # lowest exponent for precision bookkeeping; the zero series behaves
        # as if supported arbitrarily high, capped at its own order
        return self.low if self.coeffs else self.order

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        order = min(self.order, other.order)
        if self.is_zero():
            return other.truncate(order)
        if other.is_zero():
            return self.truncate(order)
        low = min(self.low, other.low)
        n = order - low + 1
        # a series may start above the sum's order and add nothing
        na, da = _numerators(self.coeffs[:max(order - self.low + 1, 0)])
        nb, db = _numerators(other.coeffs[:max(order - other.low + 1, 0)])
        den = lcm(da, db)
        cs = [0] * n
        for s, nums, f in ((self, na, den // da), (other, nb, den // db)):
            for k, c in enumerate(nums, s.low - low):
                cs[k] += c * f
        return LaurentSeries(low, [Fraction(c, den) for c in cs], order)

    def __neg__(self) -> "LaurentSeries":
        return LaurentSeries(self.low, tuple(-c for c in self.coeffs), self.order)

    def __sub__(self, other: "LaurentSeries") -> "LaurentSeries":
        return self + (-other)

    def __mul__(self, other: "LaurentSeries") -> "LaurentSeries":
        order = min(self.order + other._eff_low(), other.order + self._eff_low())
        if self.is_zero() or other.is_zero():
            return LaurentSeries.zero(order)
        low = self.low + other.low
        n = order - low + 1
        if n <= 0:
            return LaurentSeries.zero(order)
        na, da = _numerators(self.coeffs[:n])
        nb, db = _numerators(other.coeffs[:n])
        cs = [0] * n
        for ia, a in enumerate(na):
            if a:
                for k, b in enumerate(nb[:n - ia], ia):
                    cs[k] += a * b
        den = da * db
        return LaurentSeries(low, [Fraction(c, den) for c in cs], order)

    def scale(self, c: int | Fraction) -> "LaurentSeries":
        c = _frac(c)
        if not c:
            return LaurentSeries.zero(self.order)
        return LaurentSeries(self.low, tuple(c * a for a in self.coeffs), self.order)

    def shift(self, k: int) -> "LaurentSeries":
        """Multiply by the k-th power of the variable."""
        return LaurentSeries(self.low + k, self.coeffs, self.order + k)

    def inverse(self) -> "LaurentSeries":
        """Multiplicative inverse.  Precision drops by twice the valuation."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of the zero series")
        v = self.low
        norder = self.order - 2 * v
        m = self.order - v  # usable tail length
        # With c_j/den the coefficients, 1/(1 + sum_j c_j/c_0 x^j) has x^k
        # coefficient w_k/c_0^k, where w_0 = 1 and
        # w_k = -sum_j c_j c_0^(j-1) w_(k-j); the inverse divides by c_0/den.
        c, den = _numerators(self.coeffs[:m + 1])
        lead = c[0]
        a = [cj * lead ** (j - 1) for j, cj in enumerate(c) if j]
        w = [1]
        for k in range(1, m + 1):
            w.append(-sum(a[j] * w[k - 1 - j] for j in range(min(k, len(a)))))
        return LaurentSeries(
            -v, [Fraction(den * wk, lead ** (k + 1)) for k, wk in enumerate(w)],
            norder)

    def truncate(self, order: int) -> "LaurentSeries":
        if order >= self.order:
            if order > self.order:
                raise ValueError("cannot extend a truncated series")
            return self
        keep = [c for j, c in enumerate(self.coeffs) if self.low + j <= order]
        return LaurentSeries(self.low, keep, order)

    # -- comparison -------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return (
            self.low == other.low
            and self.coeffs == other.coeffs
            and self.order == other.order
        )

    def __hash__(self):
        return hash((self.low, self.coeffs, self.order))

    def agrees(self, other: "LaurentSeries") -> bool:
        """Coefficientwise equality on the jointly known exponent range."""
        top = min(self.order, other.order)
        lo = min(self._eff_low(), other._eff_low())
        return all(self.coeff(e) == other.coeff(e) for e in range(lo, top + 1))

    def __repr__(self) -> str:
        if self.is_zero():
            return f"O(x^{self.order + 1})"
        parts = []
        for j, c in enumerate(self.coeffs):
            if not c:
                continue
            e = self.low + j
            if e == 0:
                parts.append(f"{c}")
            elif e == 1:
                parts.append(f"{c}*x")
            else:
                parts.append(f"{c}*x^{e}")
        return " + ".join(parts) + f" + O(x^{self.order + 1})"

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        return {"lowest_exponent": self.low,
                "coefficients": [[c.numerator, c.denominator] for c in self.coeffs],
                "truncation_order": self.order}

    @staticmethod
    def from_json(d: dict) -> "LaurentSeries":
        cs = [Fraction(n, den) for n, den in d["coefficients"]]
        return LaurentSeries(d["lowest_exponent"], cs, d["truncation_order"])


class QHalfLaurent:
    """Sparse Laurent polynomial in q^(1/2); exponents stored in half units.

    A term (h, re, im) means (re + im*i) * q^(h/2) with Fractions re and im.
    At most one term per half exponent, and never one with both parts zero.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[tuple[int, int | Fraction, int | Fraction]]):
        acc: dict[int, list] = {}
        for h, re, im in terms:
            if h in acc:
                c = acc[h]
                if re:
                    c[0] += re
                if im:
                    c[1] += im
            else:
                acc[h] = [re, im]
        object.__setattr__(self, "terms", tuple(
            (h, _frac(re), _frac(im))
            for h, (re, im) in sorted(acc.items()) if re or im))

    def __setattr__(self, *a):
        raise AttributeError("QHalfLaurent is immutable")

    @staticmethod
    def zero() -> "QHalfLaurent":
        return QHalfLaurent(())

    @staticmethod
    def one() -> "QHalfLaurent":
        return QHalfLaurent(((0, _ONE, _ZERO),))

    @staticmethod
    def monomial(coeff: int | Fraction, half_exponent: int) -> "QHalfLaurent":
        return QHalfLaurent(((half_exponent, _frac(coeff), _ZERO),))

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, half_exponent: int) -> tuple[Fraction, Fraction]:
        """The (real, imaginary) parts of the given half exponent's
        coefficient."""
        for h, re, im in self.terms:
            if h == half_exponent:
                return re, im
        return _ZERO, _ZERO

    def __add__(self, other: "QHalfLaurent") -> "QHalfLaurent":
        return QHalfLaurent(self.terms + other.terms)

    def __neg__(self) -> "QHalfLaurent":
        return QHalfLaurent(tuple((h, -re, -im) for h, re, im in self.terms))

    def __sub__(self, other: "QHalfLaurent") -> "QHalfLaurent":
        return self + (-other)

    def __mul__(self, other: "QHalfLaurent") -> "QHalfLaurent":
        # most factors are real or purely imaginary (quantum-integer
        # coefficients are powers of i, scalars are real): skip zero products
        out = []
        for h1, a, b in self.terms:
            for h2, c, d in other.terms:
                re = im = _ZERO
                if a:
                    if c:
                        re = a * c
                    if d:
                        im = a * d
                if b:
                    if d:
                        re -= b * d
                    if c:
                        im += b * c
                out.append((h1 + h2, re, im))
        return QHalfLaurent(out)

    def scale(self, c: int | Fraction) -> "QHalfLaurent":
        c = _frac(c)
        if not c:
            return QHalfLaurent.zero()
        return QHalfLaurent(tuple((h, c * re, c * im) for h, re, im in self.terms))

    def __eq__(self, other) -> bool:
        if not isinstance(other, QHalfLaurent):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for h, re, im in self.terms:
            if not im:
                c = f"{re}"
            elif not re:
                c = f"{im}*i"
            else:
                c = f"({re}{'+' if im > 0 else '-'}{abs(im)}*i)"
            if h == 0:
                bits.append(c)
            elif h % 2 == 0:
                bits.append(f"{c}*q^{h // 2}")
            else:
                bits.append(f"{c}*q^({h}/2)")
        return " + ".join(bits)

    def to_json(self) -> list:
        """[h, [num, den]] per real term, [h, [[num, den], [num, den]]]
        (real part, imaginary part) per other term."""
        out = []
        for h, re, im in self.terms:
            if not im:
                out.append([h, [re.numerator, re.denominator]])
            else:
                out.append([h, [[re.numerator, re.denominator],
                                [im.numerator, im.denominator]]])
        return out

    @staticmethod
    def from_json(data: list) -> "QHalfLaurent":
        terms = []
        for h, c in data:
            re, im = c if len(c) == 2 and isinstance(c[0], list) else (c, (0, 1))
            terms.append((h, Fraction(re[0], re[1]), Fraction(im[0], im[1])))
        return QHalfLaurent(terms)


# -- closed forms ----------------------------------------------------------


def two_sin_half(n: int, order: int) -> LaurentSeries:
    """2*sin(n*x/2) as a truncated series; the basic trivalent-vertex bracket."""
    if n <= 0:
        raise ValueError("n must be a positive integer")
    # x^e coefficient, e odd: 2 (-1)^((e-1)/2) (n/2)^e / e!
    coeffs = [Fraction((-1) ** (e // 2) * n ** e, 2 ** (e - 1) * factorial(e))
              if e % 2 else _ZERO for e in range(1, order + 1)]
    return LaurentSeries(1, coeffs, order)


def quantum_integer_q(n: int) -> QHalfLaurent:
    """i^-(n+1) q^(n/2) + i^(n+1) q^(-n/2), the q-side of the vertex bracket."""
    if n <= 0:
        raise ValueError("n must be a positive integer")
    return QHalfLaurent(((n, *_I_POWERS[-(n + 1) % 4]),
                         (-n, *_I_POWERS[(n + 1) % 4])))


def q_to_lambda(p: QHalfLaurent, order: int) -> tuple[LaurentSeries, bool]:
    """Substitute q^(1/2) = i*exp(i*x/2) into a q-polynomial.

    Returns the real part of the resulting series, truncated at ``order``,
    together with a flag telling whether every imaginary part cancelled.  An
    imaginary residue is reported, never raised: callers decide whether it is
    an error, and use the series only when the flag is set.
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    # c * q^(h/2) = c * i^h * exp(i*h*x/2), whose x^j coefficient is
    # c * i^(h+j) * h^j / (2^j j!).  With c = (a + b*i)/den over one
    # denominator, multiplying by i^(h+j) only rotates the integers (a, b).
    nums, den = _numerators([x for _, re, im in p.terms for x in (re, im)])
    re = [0] * (order + 1)
    im = [0] * (order + 1)
    for (h, _, _), a, b in zip(p.terms, nums[::2], nums[1::2]):
        turns = ((a, b), (-b, a), (-a, -b), (b, -a))
        hj = 1
        for j in range(order + 1):
            x, y = turns[(h + j) % 4]
            re[j] += x * hj
            im[j] += y * hj
            hj *= h
    cs = []
    for j in range(order + 1):
        cs.append(Fraction(re[j], den))
        den *= 2 * (j + 1)
    return LaurentSeries(0, cs, order), not any(im)
