from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st
from sympy import Eq, Rational, symbols, true
from sympy.solvers.simplex import lpmax

from tropgw.feasibility import cone_meets_cone, positive_combinations


def classify_strict(conditions, r):
    """Evaluate combination rows of positive_combinations against a
    concrete rhs: 'feasible' when some s has B s > r, 'boundary' when only
    non-strict solutions exist, 'infeasible' when none does."""
    boundary = False
    for c in conditions:
        val = sum(Fraction(a) * Fraction(b) for a, b in zip(c, r))
        if val > 0:
            return "infeasible"
        if val == 0:
            boundary = True
    return "boundary" if boundary else "feasible"


def feasible_strict(b_rows, r):
    return classify_strict(positive_combinations(b_rows), r) == "feasible"


def test_interval_cases():
    conds = positive_combinations([[1], [-1]])
    assert classify_strict(conds, [1, -3]) == "feasible"    # 1 < s < 3
    assert classify_strict(conds, [3, -1]) == "infeasible"  # 3 < s < 1
    assert classify_strict(conds, [1, -1]) == "boundary"    # s = 1 only


def test_open_simplex():
    assert feasible_strict([[1, 0], [0, 1], [-1, -1]], [0, 0, -1])
    assert not feasible_strict([[1, 0], [-1, 0]], [0, 0])


def test_no_conditions_means_feasible():
    assert positive_combinations([[1, 0], [0, 1]]) == []
    assert feasible_strict([[1, 0], [0, 1]], [100, 100])


def test_zero_rows_become_direct_conditions():
    conds = positive_combinations([[0], [1]])
    assert classify_strict(conds, [1, 0]) == "infeasible"
    assert classify_strict(conds, [-1, 5]) == "feasible"


def test_cone_meeting():
    assert cone_meets_cone([(1, 0)], [(1, 1), (1, -1)])
    assert not cone_meets_cone([(1, 0)], [(-1, 1), (-1, -1)])
    # 3d: positive axis against the rest of a cross-polytope fan
    assert not cone_meets_cone(
        [(1, 0, 0)],
        [(-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)])
    # shared ray on the boundary counts as meeting
    assert cone_meets_cone([(1, 0, 0), (0, 1, 0)], [(1, 0, 0), (0, 0, 1)])


def test_rational_rhs():
    conds = positive_combinations([[2], [-3]])
    assert classify_strict(conds, [Fraction(1, 2), Fraction(-9, 10)]) == "feasible"


def test_rational_rows_are_refused():
    # s/2 > 3/5 and -s > -1 have no common solution; clearing the first
    # row's denominator used to return combinations for the scaled rows
    with pytest.raises(TypeError):
        feasible_strict([[Fraction(1, 2)], [-1]], [Fraction(3, 5), -1])
    with pytest.raises(TypeError):
        positive_combinations([[Fraction(1, 2)], [-1]])
    assert not feasible_strict([[1], [-2]], [Fraction(6, 5), -2])


@st.composite
def _strict_systems(draw):
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 3))
    b = [[draw(st.integers(-3, 3)) for _ in range(n)] for _ in range(m)]
    r = [draw(st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)))
         for _ in range(m)]
    return b, r


@given(_strict_systems())
def test_feasible_strict_matches_exact_lp(system):
    # B s > r has a solution iff max t subject to B s - t >= r, t <= 1 is > 0
    b, r = system
    s = symbols(f"s0:{len(b[0])}")
    t = symbols("t")
    cons = [sum(x * v for x, v in zip(row, s)) - t
            >= Rational(c.numerator, c.denominator) for row, c in zip(b, r)]
    best, _ = lpmax(t, cons + [t <= 1])
    assert feasible_strict(b, r) == (best > 0)


@st.composite
def _cone_pairs(draw):
    dim = draw(st.integers(2, 3))
    vec = st.tuples(*[st.integers(-2, 2)] * dim).filter(any)
    return (draw(st.lists(vec, min_size=1, max_size=3)),
            draw(st.lists(vec, min_size=1, max_size=3)))


def _cones_meet_by_lp(gens_a, gens_b):
    # the cones share a nonzero point iff, for some coordinate d and sign s,
    # max s (A a)_d subject to a, b >= 0, A a = B b, s (A a)_d <= 1 is > 0
    a = symbols(f"a0:{len(gens_a)}")
    b = symbols(f"b0:{len(gens_b)}")
    point = [sum(x * g[d] for x, g in zip(a, gens_a)) for d in range(len(gens_a[0]))]
    other = [sum(y * h[d] for y, h in zip(b, gens_b)) for d in range(len(gens_a[0]))]
    cons = [v >= 0 for v in a + b]
    cons += [c for c in (Eq(p, q) for p, q in zip(point, other)) if c is not true]
    for coord in point:
        for sign in (1, -1):
            if coord == 0:
                continue
            best, _ = lpmax(sign * coord, cons + [sign * coord <= 1])
            if best > 0:
                return True
    return False


@settings(max_examples=20, deadline=None)
@given(_cone_pairs())
@example(([(2, -1, 1), (1, 2, -1), (0, -1, -1)], [(1, 0, -2)]))
def test_cone_meets_cone_matches_exact_lp(pair):
    gens_a, gens_b = pair
    assert cone_meets_cone(gens_a, gens_b) == _cones_meet_by_lp(gens_a, gens_b)
