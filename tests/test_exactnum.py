from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

import series_oracle

from tropgw.exactnum import (
    LaurentSeries,
    QHalfLaurent,
    q_to_lambda,
    quantum_integer_q,
    two_sin_half,
)


def F(a, b=1):
    return Fraction(a, b)


class TestSinHalf:
    def test_n1_k5_taylor(self):
        # oracle: Taylor expansion of 2 sin(x/2), computed independently with
        # sympy and frozen here
        s = two_sin_half(1, 5)
        assert s.low == 1
        assert s.coeff(1) == F(1)
        assert s.coeff(2) == 0
        assert s.coeff(3) == F(-1, 24)
        assert s.coeff(5) == F(1, 1920)

    def test_n2_is_plain_sine(self):
        s = two_sin_half(2, 3).scale(F(1, 2))
        assert s.coeff(1) == F(1)
        assert s.coeff(3) == F(-1, 6)

    def test_leading_term_is_x_for_all_n(self):
        for n in range(1, 13):
            s = two_sin_half(n, 20).scale(F(1, n))
            assert s.low == 1
            assert s.coeff(1) == F(1)

    def test_sympy_oracle(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.symbols("x")
        for n in (1, 3, 5):
            expans = sympy.series(2 * sympy.sin(n * x / 2), x, 0, 13).removeO()
            s = two_sin_half(n, 12)
            for e in range(1, 13):
                expect = sympy.Rational(expans.coeff(x, e))
                assert s.coeff(e) == Fraction(int(expect.p), int(expect.q))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            two_sin_half(0, 5)


class TestSeriesArithmetic:
    def test_x_times_inverse_x(self):
        x = LaurentSeries.monomial(1, 1, 20)
        assert (x * x.inverse()).agrees(LaurentSeries.one(18))

    def test_square_by_convolution_oracle(self):
        # brute-force coefficient convolution of (x - x^3/24) with itself
        a = LaurentSeries(1, [F(1), F(0), F(-1, 24)], 4)
        coeffs = {1: F(1), 3: F(-1, 24)}
        conv = {}
        for e1, c1 in coeffs.items():
            for e2, c2 in coeffs.items():
                conv[e1 + e2] = conv.get(e1 + e2, F(0)) + c1 * c2
        sq = a * a
        assert sq.order == 5
        for e in range(2, 6):
            assert sq.coeff(e) == conv.get(e, F(0))

    def test_zero_annihilates(self):
        z = LaurentSeries.zero(20)
        s = two_sin_half(3, 20)
        assert (z * s).is_zero()
        assert (s * z).is_zero()

    def test_division_tracks_valuation_loss(self):
        a = LaurentSeries(1, [F(1), F(0), F(-1, 24)], 5)
        inv = a.inverse()
        assert inv.low == -1
        assert inv.order == 3  # two powers lost to the valuation

    def test_truncate_cannot_extend(self):
        s = two_sin_half(1, 5)
        with pytest.raises(ValueError):
            s.truncate(9)

    def test_coefficients_are_fractions(self):
        s = two_sin_half(3, 9) * LaurentSeries.monomial(2, -1, 9)
        assert all(type(c) is Fraction for c in s.coeffs)

    def test_rational_json_round_trip(self):
        s = two_sin_half(2, 7).scale(F(-5, 6)).shift(-2)
        back = LaurentSeries.from_json(s.to_json())
        assert back == s

    def test_gaussian_scale_is_refused(self):
        with pytest.raises(TypeError):
            two_sin_half(2, 7).scale((F(1, 3), F(2)))


small_fracs = st.fractions(min_value=-3, max_value=3, max_denominator=6)


def series_strategy():
    return st.builds(
        lambda low, cs: LaurentSeries(low, cs, low + len(cs) + 1),
        st.integers(min_value=-3, max_value=3),
        st.lists(small_fracs, min_size=0, max_size=5),
    )


class TestRingAxioms:
    @given(series_strategy(), series_strategy(), series_strategy())
    def test_mul_associative_on_common_range(self, a, b, c):
        left = (a * b) * c
        right = a * (b * c)
        assert left.agrees(right)

    @given(series_strategy(), series_strategy(), series_strategy())
    def test_distributive_on_common_range(self, a, b, c):
        left = a * (b + c)
        right = a * b + a * c
        assert left.agrees(right)

    @given(series_strategy(), series_strategy())
    def test_addition_commutes(self, a, b):
        assert (a + b) == (b + a)


class TestQHalf:
    def test_quantum_integer_small_cases(self):
        q1 = quantum_integer_q(1)
        assert q1.coeff(1) == (F(-1), F(0))
        assert q1.coeff(-1) == (F(-1), F(0))
        q2 = quantum_integer_q(2)
        assert q2.coeff(2) == (F(0), F(1))
        assert q2.coeff(-2) == (F(0), F(-1))
        assert q2.coeff(0) == (F(0), F(0))

    def test_at_most_one_term_per_exponent(self):
        p = QHalfLaurent(((1, 1, 0), (1, 2, 0), (0, 3, 0), (2, 0, 0),
                          (3, 0, 1), (3, 0, -1), (-1, 1, 1), (-1, -1, 0)))
        assert p.terms == ((-1, F(0), F(1)), (0, F(3), F(0)), (1, F(3), F(0)))
        assert all(type(x) is Fraction for t in p.terms for x in t[1:])

    def test_json_round_trip(self):
        p = quantum_integer_q(3).scale(F(1, 3)) + QHalfLaurent.monomial(F(2, 7), 4)
        assert QHalfLaurent.from_json(p.to_json()) == p

    def test_text_of_gaussian_terms(self):
        # a real term is one [num, den] pair, any other its two parts
        p = QHalfLaurent(((1, F(1, 2), F(-1, 3)), (0, 2, 0), (-2, 0, F(5, 4))))
        assert p.to_json() == [[-2, [[0, 1], [5, 4]]], [0, [2, 1]],
                               [1, [[1, 2], [-1, 3]]]]
        assert repr(p) == "5/4*i*q^-1 + 2 + (1/2-1/3*i)*q^(1/2)"
        assert QHalfLaurent.from_json(p.to_json()) == p

    @pytest.mark.parametrize("bad", [(F(1), F(2)), 1j, 0.5, "1"])
    def test_only_rationals_scale(self, bad):
        with pytest.raises(TypeError):
            quantum_integer_q(2).scale(bad)
        with pytest.raises(TypeError):
            QHalfLaurent.monomial(bad, 1)


class TestSubstitution:
    def test_symmetric_pair_gives_negative_sine(self):
        # i e^{ix/2} + (i e^{ix/2})^{-1} = -2 sin(x/2), oracle-verified
        p = QHalfLaurent(((1, 1, 0), (-1, 1, 0)))
        ser, real = q_to_lambda(p, 3)
        assert real
        assert ser.agrees(two_sin_half(1, 3).scale(-1))

    def test_constant_passes_through(self):
        ser, real = q_to_lambda(QHalfLaurent.one(), 4)
        assert real
        assert ser.agrees(LaurentSeries.one(4))

    def test_negated_pair_is_the_basic_bracket(self):
        p = QHalfLaurent(((1, -1, 0), (-1, -1, 0)))
        ser, real = q_to_lambda(p, 12)
        assert real
        assert ser.agrees(two_sin_half(1, 12))

    def test_bridge_for_all_small_n(self):
        for n in range(1, 13):
            ser, real = q_to_lambda(quantum_integer_q(n), 20)
            assert real
            assert ser.agrees(two_sin_half(n, 20))

    def test_imaginary_residue_is_flagged_not_raised(self):
        ser, real = q_to_lambda(QHalfLaurent.monomial(1, 1), 4)
        assert not real


small_gauss = st.tuples(small_fracs, small_fracs)

fracs_or_zero = st.one_of(st.just(F(0)), small_fracs)
gauss_terms = st.lists(
    st.tuples(st.integers(min_value=-4, max_value=4), fracs_or_zero, fracs_or_zero),
    max_size=4)


def _qhalf(terms: dict) -> QHalfLaurent:
    """The q-polynomial of a dict from half exponents to (re, im) pairs."""
    return QHalfLaurent((h, re, im) for h, (re, im) in terms.items())


class TestGaussProduct:
    @given(gauss_terms, gauss_terms, small_fracs)
    def test_matches_four_products(self, a, b, r):
        # the product skips zero parts; the plain formula does not
        want = {}
        for ha, ar, ai in a:
            for hb, br, bi in b:
                re, im = want.get(ha + hb, (F(0), F(0)))
                want[ha + hb] = (re + ar * br - ai * bi, im + ar * bi + ai * br)
        p, q = QHalfLaurent(a), QHalfLaurent(b)
        assert (p * q).terms == tuple(
            (h, re, im) for h, (re, im) in sorted(want.items()) if re or im)
        assert p * q == q * p
        assert p.scale(r) == p * QHalfLaurent.monomial(r, 0)


class TestSubstitutionOracle:
    @given(st.dictionaries(st.integers(min_value=-6, max_value=6), small_gauss,
                           max_size=4),
           st.integers(min_value=0, max_value=6))
    def test_matches_sympy_expansion(self, terms, order):
        # oracle: sympy's expansion of sum c * (i e^(i x/2))^h, split into
        # real and imaginary parts coefficient by coefficient
        sympy = pytest.importorskip("sympy")
        x = sympy.symbols("x")
        expr = sum((sympy.Rational(re.numerator, re.denominator)
                    + sympy.I * sympy.Rational(im.numerator, im.denominator))
                   * (sympy.I * sympy.exp(sympy.I * x / 2)) ** h
                   for h, (re, im) in terms.items())
        poly = sympy.Poly(sympy.expand(
            sympy.series(sympy.sympify(expr), x, 0, order + 1).removeO()), x)
        ser, real = q_to_lambda(_qhalf(terms), order)
        residue = False
        for e in range(order + 1):
            re, im = poly.coeff_monomial(x ** e).as_real_imag()
            assert ser.coeff(e) == Fraction(int(re.p), int(re.q))
            residue = residue or im != 0
        assert real == (not residue)


# numerators up to 10^12 over denominators up to 10^6, with zeros mixed in so
# that canonical-form stripping and the zero-skipping branches are exercised
wide_fracs = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(min_value=-10**12, max_value=10**12),
              st.integers(min_value=1, max_value=10**6)))


def wide_series():
    return st.one_of(
        st.builds(LaurentSeries.zero, st.integers(min_value=-5, max_value=12)),
        st.builds(
            lambda low, cs, extra: LaurentSeries(low, cs, low + len(cs) - 1 + extra),
            st.integers(min_value=-5, max_value=5),
            st.lists(wide_fracs, min_size=0, max_size=12),
            st.integers(min_value=0, max_value=8)))


def _same(got: LaurentSeries, want: LaurentSeries):
    assert (got.coeffs, got.low, got.order) == (want.coeffs, want.low, want.order)


class TestKernelsAgainstOracle:
    """Each integer kernel against the Fraction loop of series_oracle."""

    @given(wide_series(), wide_series())
    # a stored list reaching past the sum's order, cut at a nonzero entry
    @example(LaurentSeries(0, [F(k + 1, 7 ** k) for k in range(12)], 11),
             LaurentSeries(-2, [F(3, 5)], 3))
    # a series starting above the sum's order
    @example(LaurentSeries(2, [F(1, 2), F(1, 3), F(1, 5)], 6),
             LaurentSeries(-1, [F(2, 3)], 0))
    def test_add(self, a, b):
        _same(a + b, series_oracle.add(a, b))
        _same(a - b, series_oracle.add(a, -b))

    @given(wide_series(), wide_series())
    # a stored list far longer than the product's order
    @example(LaurentSeries(0, [F(k + 1, 7 ** k) for k in range(12)], 11),
             LaurentSeries(-2, [F(3, 5)], 0))
    def test_mul(self, a, b):
        _same(a * b, series_oracle.mul(a, b))

    @given(wide_series())
    def test_inverse(self, a):
        if a.is_zero():
            with pytest.raises(ZeroDivisionError):
                a.inverse()
            return
        _same(a.inverse(), series_oracle.inverse(a))

    @given(st.integers(min_value=1, max_value=40),
           st.integers(min_value=-1, max_value=30))
    def test_two_sin_half(self, n, order):
        _same(two_sin_half(n, order), series_oracle.two_sin_half(n, order))

    @given(st.dictionaries(st.integers(min_value=-40, max_value=40),
                           st.tuples(wide_fracs, wide_fracs),
                           max_size=6),
           st.integers(min_value=0, max_value=20))
    def test_q_to_lambda(self, terms, order):
        p = _qhalf(terms)
        got, got_real = q_to_lambda(p, order)
        want, want_real = series_oracle.q_to_lambda(p, order)
        _same(got, want)
        assert got_real == want_real

    @given(st.integers(min_value=1, max_value=12),
           st.integers(min_value=1, max_value=12),
           st.sampled_from([F(1), F(-1), F(1, 3)]))
    def test_q_to_lambda_of_real_products(self, m, n, c):
        # a real q-polynomial: both sides must set the flag
        p = (quantum_integer_q(m) * quantum_integer_q(n)).scale(c)
        got, got_real = q_to_lambda(p, 16)
        want, want_real = series_oracle.q_to_lambda(p, 16)
        _same(got, want)
        assert got_real and want_real
