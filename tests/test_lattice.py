from fractions import Fraction
from itertools import product
from math import prod

import pytest
from hypothesis import given, strategies as st
from sympy import ZZ, Matrix
from sympy.matrices.normalforms import invariant_factors as sympy_invariant_factors

from tropgw.lattice import (
    INFINITE,
    integral_kernel,
    lattice_index,
    primitive_part,
    quotient_projection,
    rational_rank,
    saturation,
    solve_integral,
    wedge_index,
)


def sympy_factors(m) -> tuple[int, ...]:
    """Absolute invariant factors of the nonempty matrix with rows m from
    sympy, zeros included: one per min(rows, cols)."""
    return tuple(abs(int(x)) for x in sympy_invariant_factors(
        Matrix(m), domain=ZZ))


def _apply(m, v):
    """The integer matrix with rows m applied to the vector v."""
    return tuple(sum(a * x for a, x in zip(r, v)) for r in m)


def brute_force_quotient_size(m, box: int) -> int:
    """Count cosets of the column span of the matrix with rows m inside
    Z^rows by flood fill mod box.

    Valid whenever box * Z^rows lies inside the column span (for a square
    nonsingular matrix, box = |det| works by Cramer's rule).
    """
    rows = len(m)
    gens = list(zip(*m))
    seen = {(0,) * rows}
    frontier = [(0,) * rows]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            for sign in (1, -1):
                nxt = tuple((c + sign * x) % box for c, x in zip(cur, g))
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
    total = box ** rows
    assert total % len(seen) == 0
    return total // len(seen)


class TestLatticeIndex:
    def test_identity(self):
        assert lattice_index([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 1

    def test_double_of_z(self):
        assert lattice_index([[2]]) == 2

    def test_rank_deficient(self):
        assert lattice_index([[1, 2], [2, 4]]) is INFINITE

    def test_no_rows_is_the_whole_of_z0(self):
        assert lattice_index([]) == 1

    def test_rows_without_columns_span_nothing(self):
        assert lattice_index([[], []]) is INFINITE

    def test_brute_force_cosets_all_small_matrices(self):
        # every 2x2 (and a sweep of 1x1, 1x2) matrix with entries in [-3, 3]
        for a, b, c, d in product(range(-3, 4), repeat=4):
            m = [[a, b], [c, d]]
            idx = lattice_index(m)
            det = a * d - b * c
            if idx is INFINITE:
                assert det == 0
            else:
                assert idx == abs(det)
                assert idx == brute_force_quotient_size(m, box=abs(det))
        for a in range(-3, 4):
            m = [[a]]
            idx = lattice_index(m)
            if a == 0:
                assert idx is INFINITE
            else:
                assert idx == abs(a) == brute_force_quotient_size(m, box=abs(a))
        for a, b in product(range(-3, 4), repeat=2):
            m = [[a, b]]
            idx = lattice_index(m)
            if (a, b) == (0, 0):
                assert idx is INFINITE
            else:
                from math import gcd
                g = gcd(abs(a), abs(b))
                assert idx == g == brute_force_quotient_size(m, box=6 * g)


class TestDirectSumIndex:
    """|Z^2 / (span(a) + span(b))| for a pair of columns, the index a
    placement takes of its evaluation image and stratum, is the lattice
    index of the joined columns."""

    @staticmethod
    def index(a, b):
        return lattice_index([list(r) for r in zip(a, b)])

    def test_unit_basis(self):
        assert self.index((1, 0), (0, 1)) == 1

    def test_skew_pair(self):
        # |det| = 2, cross-checked by coset enumeration
        m = [[1, 1], [1, -1]]
        assert self.index((1, 1), (1, -1)) == 2
        assert brute_force_quotient_size(m, box=2) == 2

    def test_non_spanning_is_infinite(self):
        assert self.index((1, 0), (2, 0)) is INFINITE


class TestPrimitiveAndWedge:
    def test_primitive_examples(self):
        assert primitive_part((2, 4, 6)) == ((1, 2, 3), 2)
        assert primitive_part((0, 0, -3)) == ((0, 0, -1), 3)
        assert primitive_part((1, 1, 1)) == ((1, 1, 1), 1)
        with pytest.raises(ValueError):
            primitive_part((0, 0, 0))

    def test_wedge_examples(self):
        assert wedge_index((1, 0, 0), (0, 1, 0)) == 1
        for k in (1, 2, 3):
            for n in (1, 2, 3):
                assert wedge_index((k, 0, 0), (0, n * k, 0)) == k * k * n
        assert wedge_index((1, 0, 0), (2, 0, 0)) == 0

    @given(st.tuples(*[st.integers(-4, 4)] * 3), st.tuples(*[st.integers(-4, 4)] * 3))
    def test_wedge_symmetries(self, a, b):
        w = wedge_index(a, b)
        assert w == wedge_index(b, a)
        assert w == wedge_index(a, tuple(-x for x in b))
        assert w == wedge_index(a, tuple(x + y for x, y in zip(a, b)))


class TestQuotientProjection:
    def test_coordinate_axis(self):
        p = quotient_projection((0, 0, 1))
        assert p == ((1, 0, 0), (0, 1, 0))

    def test_depends_on_primitive_part_only(self):
        assert quotient_projection((0, 0, 5)) == quotient_projection((0, 0, 1))

    def test_diagonal_direction(self):
        p = quotient_projection((1, 1, 1))
        assert _apply(p, (1, 1, 1)) == (0, 0)
        assert sympy_factors(p) == (1, 1)

    # The evaluation coordinates of every end, and so the cycle bases of
    # stored count requests, are these matrices: they must never move.  The
    # vectors put the pivot of the primitive part in each position with
    # either sign, and most of them need several reduction steps.
    @pytest.mark.parametrize("alpha, rows", [
        ((1, 0, 0), [[0, 1, 0], [0, 0, 1]]),
        ((-1, 0, 0), [[0, 1, 0], [0, 0, 1]]),
        ((0, -1, 0), [[0, 0, 1], [1, 0, 0]]),
        ((0, 1, 0), [[0, 0, 1], [1, 0, 0]]),
        ((0, 0, 5), [[1, 0, 0], [0, 1, 0]]),
        ((0, 0, -5), [[1, 0, 0], [0, 1, 0]]),
        ((3, -2, 1), [[1, 0, -3], [0, 1, 2]]),
        ((-5, 0, 3), [[0, 1, 0], [-3, 0, -5]]),
        ((2, 3, 5), [[-1, -1, 1], [3, -2, 0]]),
        ((0, 4, -6), [[1, 0, 0], [0, -3, -2]]),
        ((7, 7, 7), [[-1, 1, 0], [-1, 0, 1]]),
        ((-3, 5, -7), [[-4, -1, 1], [-5, -3, 0]]),
        ((6, -4, 0), [[-2, -3, 0], [0, 0, 1]]),
    ])
    def test_pinned_projections(self, alpha, rows):
        assert quotient_projection(alpha) == tuple(map(tuple, rows))

    def test_kernel_and_surjectivity_sweep(self):
        for a in range(-4, 5):
            for b in range(-4, 5):
                for c in range(-4, 5):
                    if (a, b, c) == (0, 0, 0):
                        continue
                    p = quotient_projection((a, b, c))
                    assert _apply(p, (a, b, c)) == (0, 0)
                    assert sympy_factors(p) == (1, 1)

    def test_deterministic(self):
        for v in [(3, -2, 1), (0, 4, -6), (7, 7, 7)]:
            assert quotient_projection(v) == quotient_projection(v)


class TestIntegralKernel:
    def test_difference_functional(self):
        assert integral_kernel([[1, -1]], 2) == [(1, 1)]

    def test_identity_has_no_kernel(self):
        assert integral_kernel([[1, 0], [0, 1]], 2) == []

    def test_no_rows_leave_the_unit_basis(self):
        assert integral_kernel([], 3) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]

    def test_saturation(self):
        assert integral_kernel([[2, -2]], 2) == [(1, 1)]

    @given(st.integers(1, 3), st.integers(1, 4), st.randoms(use_true_random=False))
    def test_kernel_columns_annihilate_and_saturate(self, r, c, rng):
        m = [[rng.randint(-4, 4) for _ in range(c)] for _ in range(r)]
        k = integral_kernel(m, c)
        for v in k:
            assert _apply(m, v) == (0,) * r
        # a basis of the whole rational kernel ...
        assert len(k) == c - rational_rank(m)
        # ... whose span is saturated: Z^c / span is torsion-free
        if k:
            assert set(sympy_factors(k)) == {1}


class TestRationalSolvers:
    def test_unique_solution(self):
        den, (x,), null = solve_integral([[1, 1], [1, -1]], [[2, 0]])
        assert [Fraction(v, den) for v in x] == [1, 1] and null == []

    def test_inconsistent(self):
        assert solve_integral([[1, 1], [1, 1]], [[1, 2]]) is None

    def test_multi_matches_single(self):
        rows = [[1, 2, 0], [0, 1, 1]]
        den, sols, null = solve_integral(rows, [[1, 0], [0, 1]])
        assert den > 0
        for sol, rhs in zip(sols, ([1, 0], [0, 1])):
            for r, b in zip(rows, rhs):
                assert sum(x * s for x, s in zip(r, sol)) == den * b
            den1, (sol1,), null1 = solve_integral(rows, [rhs])
            assert [Fraction(x, den) for x in sol] == [Fraction(x, den1) for x in sol1]
            assert ([[Fraction(x, den) for x in v] for v in null]
                    == [[Fraction(x, den1) for x in v] for v in null1])
        assert len(null) == 1

    def test_left_null(self):
        # the left null space of M is the null space of its transpose
        rows = [[1, 2], [2, 4]]
        _, _, basis = solve_integral([list(c) for c in zip(*rows)], [])
        assert len(basis) == 1
        w = basis[0]
        assert w[0] * 1 + w[1] * 2 == 0
        assert w[0] * 2 + w[1] * 4 == 0

    @pytest.mark.parametrize("rows, rhs", [
        ([[Fraction(1, 2), 1]], []),
        ([[1, 1]], [[Fraction(1, 2)]]),
        # an integral Fraction too: the entries' type is checked, not value
        ([[Fraction(2), 1]], [[1]]),
        ([[1, 1.0]], [[1]]),
    ])
    def test_non_integer_entries_are_refused(self, rows, rhs):
        # exact // on a Fraction would floor it without notice
        with pytest.raises(TypeError):
            solve_integral(rows, rhs)
        with pytest.raises(TypeError):
            rational_rank([r + [b[i] for b in rhs] for i, r in enumerate(rows)])


class TestSaturationHelper:
    def test_scaled_column(self):
        assert saturation([(2, 2)], 2) == [(1, 1)]

    def test_no_vectors(self):
        assert saturation([], 3) == []

    def test_dependent_columns(self):
        s = saturation([(1, 0, 1), (2, 0, 2), (0, 3, 0)], 3)
        assert len(s) == 2
        # spans the right plane: (1,0,1) and (0,1,0) must be integer
        # combinations of the basis
        for target in [(1, 0, 1), (0, 1, 0)]:
            res = solve_integral([[v[i] for v in s] for i in range(3)], [target])
            assert res is not None
            den, (part,), _ = res
            assert all(x % den == 0 for x in part)


# -- differential tests against sympy ---------------------------------------

_entries = st.integers(-6, 6)


@st.composite
def _matrices(draw, entries=_entries, square=False):
    r = draw(st.integers(1, 4))
    c = r if square else draw(st.integers(1, 4))
    rows = [[draw(entries) for _ in range(c)] for _ in range(r)]
    if r >= 3 and draw(st.booleans()):
        # force a dependent row, so rank-deficient systems are common
        rows[-1] = [a + 2 * b for a, b in zip(rows[0], rows[1])]
    return rows


def _frac(x) -> Fraction:
    return Fraction(int(x.p), int(x.q))


class TestAgainstSympy:
    @given(_matrices(), st.data())
    def test_solve_integral_matches_rref_and_nullspace(self, rows, data):
        rhs = data.draw(st.lists(_entries, min_size=len(rows), max_size=len(rows)))
        n = len(rows[0])
        red, pivots = Matrix([r + [b] for r, b in zip(rows, rhs)]).rref()
        got = solve_integral(rows, [rhs])
        if n in pivots:
            assert got is None
            return
        # sympy's reduced answers, scaled by the common denominator
        den, (part,), null = got
        assert den > 0
        want = [0] * n
        for i, c in enumerate(pivots):
            want[c] = _frac(den * red[i, n])
        assert part == tuple(want)
        assert null == [tuple(_frac(den * x) for x in v)
                        for v in Matrix(rows).nullspace()]

    @given(_matrices())
    def test_rational_rank_matches(self, rows):
        assert rational_rank(rows) == Matrix(rows).rank()

    @given(_matrices(entries=st.integers(-5, 5), square=True))
    def test_determinant_matches(self, rows):
        # on a square matrix the lattice index is |det|, INFINITE when 0
        det = abs(Matrix(rows).det())
        idx = lattice_index(rows)
        assert idx == det if det else idx is INFINITE

    @given(_matrices(entries=st.integers(-6, 6)))
    def test_lattice_index_matches_invariant_factors(self, rows):
        idx = lattice_index(rows)
        if Matrix(rows).rank() < len(rows):
            assert idx is INFINITE
        else:
            assert idx == prod(sympy_factors(rows))

