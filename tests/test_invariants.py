import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest

import shift_oracle
from tropgw import invariants, weights
from tropgw.enumeration import SearchBounds, cycle_from_constraints
from tropgw.exactnum import LaurentSeries, QHalfLaurent, q_to_lambda, two_sin_half
from tropgw.invariants import (
    CountRequest,
    ToricFan,
    absolute_invariant,
    certified_count,
    cp3_fan,
    derive_line_factor,
    is_convex,
    is_convex_relative,
    p1_cubed_fan,
    reduced_dt,
    relative_invariant,
    weighted_count,
)

K = 20
B = SearchBounds()


def count(ends, cons, mode="lambda", connected=True, order=K, bounds=B):
    cyc = cycle_from_constraints(ends, cons)
    req = CountRequest(tuple(ends), cyc, connected, mode, bounds)
    return weighted_count(req, order)


def _apply(m, v):
    """The integer matrix with rows m applied to the vector v."""
    return tuple(sum(a * x for a, x in zip(r, v)) for r in m)


class TestFans:
    def test_bundled_fans_valid_and_smooth(self):
        assert cp3_fan().is_smooth()
        assert p1_cubed_fan().is_smooth()

    def test_singular_fan_is_not_smooth(self):
        # the weighted projective space P(1,1,1,2): a complete fan, but the
        # cone {0, 1, 3} has determinant -2
        rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -2)]
        fan = ToricFan.from_max_cones(
            rays, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
        assert is_convex(fan)
        assert not fan.is_smooth()
        assert not ToricFan.from_max_cones(rays, [(0, 1, 3)]).is_smooth()
        assert ToricFan.from_max_cones(rays, [(0, 1, 2), (0, 2, 3),
                                              (1, 2, 3)]).is_smooth()

    def test_nonprimitive_ray_rejected(self):
        with pytest.raises(ValueError):
            ToricFan.from_max_cones([(2, 0, 0)], [(0,)])

    def test_rays_outside_z3_rejected(self):
        with pytest.raises(ValueError, match="Z\\^3"):
            ToricFan.from_max_cones([(1, 0, 0, 0), (0, 1, 0, 0)], [(0, 1)])

    def test_faces_required(self):
        with pytest.raises(ValueError):
            ToricFan(((1, 0, 0), (0, 1, 0)), ((0, 1),), frozenset())

    def test_json_round_trip(self):
        fan = cp3_fan(special=(1,))
        assert ToricFan.from_json(fan.to_json()) == fan


class TestConvexity:
    def test_p1_cubed_convex(self):
        assert is_convex(p1_cubed_fan())

    def test_cp3_convex(self):
        assert is_convex(cp3_fan())

    def test_violating_fan(self):
        # a ray inside the span of two others
        bad = ToricFan.from_max_cones(
            [(1, 0, 0), (0, 1, 0), (1, 1, 0)], [(0, 2), (1, 2)])
        assert not is_convex(bad)

    def test_relative_all_special_reduces_to_absolute(self):
        fan_all = cp3_fan(special=(0, 1, 2, 3))
        assert is_convex_relative(fan_all) == is_convex(cp3_fan())

    def test_relative_no_special_vacuous(self):
        bad = ToricFan.from_max_cones(
            [(1, 0, 0), (0, 1, 0), (1, 1, 0)], [(0, 2), (1, 2)])
        assert is_convex_relative(bad)  # nothing is special

    def test_relative_one_special(self):
        assert is_convex_relative(cp3_fan(special=(0,)))


ENDS_SQUARE = [(1, 0, 0), (0, 1, 0), (-1, 0, 0), (0, -1, 0)]


class TestDegenerationInvariance:
    def test_family_one_value_and_invariance(self):
        ra = count(ENDS_SQUARE, {2: ("point", (0, 0, 0)),
                                 1: ("plane", 1, 3), 3: ("plane", 1, -4)})
        rb = count(ENDS_SQUARE, {2: ("point", (0, 0, 0)),
                                 1: ("plane", 1, -4), 3: ("plane", 1, 3)})
        assert ra.value.agrees(rb.value)
        one = two_sin_half(1, K)
        assert ra.value.agrees(one * one)

    def test_family_two_invariance(self):
        for k in (1, 2):
            for n in (1, 2):
                ends = [(k, 0, 0), (0, n * k, 0), (0, 1, 0), (-k, -n * k - 1, 0)]
                ra = count(ends, {1: ("point", (0, 0, 0)),
                                  2: ("plane", 0, 2), 3: ("plane", 0, -3)})
                rb = count(ends, {1: ("point", (0, 0, 0)),
                                  2: ("plane", 0, -3), 3: ("plane", 0, 2)})
                assert ra.value.agrees(rb.value), (k, n)

    def test_family_three_value_and_invariance(self):
        for n in (1, 2, 3):
            ends = [(1, 0, 0), (0, 1, 0), (-1, 0, n), (0, -1, -n)]
            ra = count(ends, {1: ("point", (0, 0, -1)), 2: ("point", (0, 0, 1))})
            rb = count(ends, {1: ("point", (0, 0, 1)), 2: ("point", (0, 0, -1))})
            assert ra.value.agrees(rb.value), n
            one = two_sin_half(1, K)
            assert ra.value.agrees((one * one).scale(n))


class TestAbsolute:
    def test_product_of_lines_anchor(self):
        deg = [1, 1, 0, 0, 0, 0]
        inv = absolute_invariant(p1_cubed_fan(), deg, 1, K, seed=0)
        assert inv.agrees(LaurentSeries.monomial(1, -1, K))

    def test_line_factor_rederivation(self):
        f = derive_line_factor(K, seed=0)
        assert f.agrees(LaurentSeries.monomial(1, -1, K))

    def test_cp3_two_point_anchor(self):
        inv = absolute_invariant(cp3_fan(), [1, 1, 1, 1], 2, K, seed=0)
        one = two_sin_half(1, K)
        assert inv.agrees((one * one).shift(-2))

    def test_unbalanced_degrees_rejected(self):
        with pytest.raises(ValueError):
            absolute_invariant(cp3_fan(), [1, 0, 0, 0], 1, K)

    def test_zero_class_rejected(self):
        with pytest.raises(ValueError):
            absolute_invariant(cp3_fan(), [0, 0, 0, 0], 1, K)

    def test_nonconvex_fan_rejected(self):
        bad = ToricFan.from_max_cones(
            [(1, 0, 0), (0, 1, 0), (1, 1, 0), (-1, -1, 0)],
            [(0, 2), (1, 2), (0, 3), (1, 3)])
        with pytest.raises(ValueError):
            absolute_invariant(bad, [1, 1, 1, 1], 0, K)

    def test_insufficient_insertions_rejected(self):
        # one point against a two-point expected dimension is a codimension
        # mismatch, reported before any enumeration happens
        with pytest.raises(ValueError):
            absolute_invariant(cp3_fan(), [1, 1, 1, 1], 1, K)


class TestRelative:
    def test_no_special_reduces_to_plain_count(self):
        fan = p1_cubed_fan()
        ends = [(1, 0, 0), (0, 1, 0), (-1, -1, 0)]
        cons = {1: ("point", (0, 1, 17)), 2: ("plane", 0, 4)}
        rel = relative_invariant(fan, [0] * 6, ends, cons, K)
        plain = count(ends, cons).value
        assert rel.agrees(plain)

    def test_all_special_reduces_to_absolute(self):
        fan = cp3_fan(special=(0, 1, 2, 3))
        pts = {1: ("point", (Fraction(3, 7), Fraction(-2, 5), Fraction(1, 3))),
               2: ("point", (Fraction(-1, 2), Fraction(5, 11), Fraction(4, 9)))}
        rel = relative_invariant(fan, [1, 1, 1, 1],
                                 [(0, 0, 0), (0, 0, 0)], pts, K)
        absv = absolute_invariant(cp3_fan(), [1, 1, 1, 1], 2, K, seed=0)
        assert rel.agrees(absv)

    def test_degree_on_nonspecial_ray_rejected(self):
        fan = cp3_fan(special=(0,))
        with pytest.raises(ValueError):
            relative_invariant(fan, [1, 1, 1, 1], [(0, 0, 0)], {}, K)

    def test_class_with_no_ends_rejected(self):
        # it used to count zero; absolute and dt refuse the zero class too
        with pytest.raises(ValueError, match="zero class"):
            relative_invariant(cp3_fan(special=(0, 1, 2, 3)), [0] * 4, [], {},
                               K)


class TestReducedDT:
    def test_product_of_lines_is_q(self):
        deg = [1, 1, 0, 0, 0, 0]
        dt = reduced_dt(p1_cubed_fan(), deg, 1, seed=0)
        assert dt == QHalfLaurent.monomial(1, 2)

    def test_cp3_substitutes_to_the_absolute_series(self):
        # F^DT(i e^{ix/2}) = F / x^k at the level of the assembled invariants:
        # here the two marker ends contribute x^2 and the q-side prefactor
        # q^{d/2} absorbs the x^{-d} normalization, so the substitution of
        # W^DT equals W * x^{-k} with W the absolute count before rescaling.
        from tropgw.exactnum import q_to_lambda
        fan = cp3_fan()
        dt = reduced_dt(fan, [1, 1, 1, 1], 2, seed=0)
        # undo the q^{d/2}/d! prefactor to recover W^DT
        wdt = dt * QHalfLaurent.monomial(1, -4)
        sub, real = q_to_lambda(wdt, K)
        assert real
        absv = absolute_invariant(fan, [1, 1, 1, 1], 2, K, seed=0)
        # absolute = W * x^-4, so W * x^-2 = absolute * x^2
        assert sub.agrees(absv.shift(4).shift(-2))

    def test_degree_two_rays_divide_by_factorials(self):
        # two lines in the x direction, one through each point: the bare
        # count is 4 = 2! * 2! (which line takes which copy of each ray), and
        # the normalization q^(sum(d)/2) / prod(d!) = q^2 / 4 leaves q^2
        dt = reduced_dt(p1_cubed_fan(), [2, 2, 0, 0, 0, 0], 2, seed=0)
        assert dt == QHalfLaurent.monomial(1, 4)

    def test_zero_class_rejected(self):
        with pytest.raises(ValueError):
            reduced_dt(p1_cubed_fan(), [0] * 6, 1)


def test_huge_class_is_not_listed():
    # 6 * 10^30 ends, cut to points by 2 * 10^30 point markers, are past the
    # edge bound: the count is zero before any end is listed.  Run apart,
    # under a memory limit, so that listing them fails at once instead of
    # taking the machine's memory.
    code = (
        "import resource, time\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from tropgw.invariants import absolute_invariant, cp3_fan\n"
        "start = time.perf_counter()\n"
        "v = absolute_invariant(cp3_fan(), [10 ** 30] * 4, 2 * 10 ** 30)\n"
        "assert time.perf_counter() - start < 1\n"
        "assert v.is_zero() and v.order == 20 - 4 * 10 ** 30\n")
    src = str(Path(invariants.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_huge_class_of_the_wrong_codimension_is_refused():
    # no point cuts 4 * 10^30 ends down; past the edge bound this class used
    # to count zero
    with pytest.raises(ValueError, match="codimension 0"):
        absolute_invariant(cp3_fan(), [10 ** 30] * 4, 0)


def _bridge_cases() -> dict:
    """name -> (request, k): the bundled count requests, whose ends carry no
    marker, and toric degree classes with k point markers, connected and
    disconnected."""
    data = resources.files("tropgw") / "data"
    cases = {name: (CountRequest.from_json(
                json.loads((data / f"{name}.json").read_text())), 0)
             for name in ("s3_family1_configA", "s3_family1_configB",
                          "s3_family3_n3_configA", "s3_family3_n3_configB")}
    for name, fan, degrees, points, connected in (
            ("cp3-1111", cp3_fan(), [1, 1, 1, 1], 2, True),
            ("p1cubed-110000", p1_cubed_fan(), [1, 1, 0, 0, 0, 0], 1, True),
            ("cp3-1111-disconnected", cp3_fan(), [1, 1, 1, 1], 2, False),
            ("p1cubed-220000-disconnected", p1_cubed_fan(),
             [2, 2, 0, 0, 0, 0], 2, False),
            ("p1cubed-111100-disconnected", p1_cubed_fan(),
             [1, 1, 1, 1, 0, 0], 2, False)):
        ends, cons = invariants._class_ends(fan, degrees, (), points, 0)
        cases[name] = (CountRequest(
            tuple(ends), cycle_from_constraints(ends, cons), connected),
            points)
    return cases


BRIDGE_CASES = _bridge_cases()


class TestLambdaQBridge:
    """The lambda count is x^k times the substitution of the q count, k the
    number of marker ends, through the same order.  At an order below k the
    substitution is taken at order 0 and cut back."""

    @pytest.mark.parametrize("order", (1, 3, 20))
    @pytest.mark.parametrize("req,k", BRIDGE_CASES.values(), ids=BRIDGE_CASES)
    def test_lambda_count_is_the_substituted_q_count(self, req, k, order):
        lam = weighted_count(replace(req, mode="lambda"), order).value
        q = weighted_count(replace(req, mode="q"), order).value
        sub, real = q_to_lambda(q, max(order - k, 0))
        assert real
        assert lam == sub.shift(k).truncate(order)

    def test_connected_q_counts(self):
        def q(name):
            return weighted_count(replace(BRIDGE_CASES[name][0], mode="q")).value

        # q^-1 + 2 + q, that is [1]_q^2
        assert q("cp3-1111") == (QHalfLaurent.monomial(1, -2)
                                 + QHalfLaurent.monomial(2, 0)
                                 + QHalfLaurent.monomial(1, 2))
        assert q("p1cubed-110000") == QHalfLaurent.one()

    @pytest.mark.parametrize("order", (1, 20))
    def test_empty_count_with_markers_is_zero(self, order):
        # no type of 6 ends fits without an internal edge; at order 1 the
        # k = 2 markers lie past the known range, at order 20 the
        # substitution sees the zero q count
        req, k = BRIDGE_CASES["cp3-1111"]
        req = replace(req, bounds=SearchBounds(0, 0, 0))
        assert k == 2
        assert (weighted_count(replace(req, mode="lambda"), order).value
                == LaurentSeries.zero(order))
        assert (weighted_count(replace(req, mode="q"), order).value
                == QHalfLaurent.zero())


def _set_partitions(n: int):
    """The set partitions of the labels 1..n as lists of blocks: label j
    joins each block of a partition of 1..j-1 in turn, or opens a new one."""
    blocks: list[list[int]] = []

    def grow(j):
        if j > n:
            yield [list(b) for b in blocks]
            return
        for b in blocks:
            b.append(j)
            yield from grow(j + 1)
            b.pop()
        blocks.append([j])
        yield from grow(j + 1)
        blocks.pop()

    yield from grow(1)


def _block_sum(ends, cons):
    """Sum over the set partitions of the labels into balanced blocks whose
    constraint codimension is their number of ends, of the product of the
    blocks' connected raw q counts."""
    total = QHalfLaurent.zero()
    for blocks in _set_partitions(len(ends)):
        term = QHalfLaurent.one()
        for block in blocks:
            sub = [ends[label - 1] for label in block]
            if any(sum(e[c] for e in sub) for c in range(3)):
                break
            cyc = cycle_from_constraints(sub, {
                i: cons[label] for i, label in enumerate(block, 1)
                if label in cons})
            if cyc.ambient_dim - len(cyc.strata[0].span) != len(sub):
                break
            term = term * weighted_count(
                CountRequest(tuple(sub), cyc, True, "q")).value
        else:
            total = total + term
    return total


_Q_ONE_PLUS = (QHalfLaurent.monomial(1, -2) + QHalfLaurent.monomial(2, 0)
               + QHalfLaurent.monomial(1, 2))


class TestDisconnectedOracle:
    """The raw disconnected q count against its assembly from connected
    counts of blocks, which shares only the connected weighted_count."""

    @pytest.mark.parametrize("seed", (0, 1))
    @pytest.mark.parametrize("fan,degrees,points,connected,disconnected", [
        (p1_cubed_fan(), [1, 1, 0, 0, 0, 0], 1, QHalfLaurent.one(),
         QHalfLaurent.one()),
        # all of it from two lines, one through each point
        (p1_cubed_fan(), [1, 1, 1, 1, 0, 0], 2, QHalfLaurent.zero(),
         QHalfLaurent.monomial(2, 0)),
        (cp3_fan(), [1, 1, 1, 1], 2, _Q_ONE_PLUS, _Q_ONE_PLUS),
    ], ids=["p1cubed-110000", "p1cubed-111100", "cp3-1111"])
    def test_disconnected_count_is_the_block_sum(
            self, fan, degrees, points, connected, disconnected, seed):
        ends, cons = invariants._class_ends(fan, degrees, (), points, seed)
        cyc = cycle_from_constraints(ends, cons)

        def raw(is_connected):
            return weighted_count(CountRequest(
                tuple(ends), cyc, is_connected, "q")).value

        assert raw(True) == connected
        assert raw(False) == disconnected
        assert _block_sum(ends, cons) == disconnected


class TestRobustness:
    def test_seed_invariance_of_counts(self, monkeypatch):
        # the count with each resolved weight summed at a seeded shift; with
        # the points swapped, a resolved type is placed
        ends = [(1, 0, 0), (0, 1, 0), (-1, 0, 2), (0, -1, -2)]
        configs = [{1: ("point", (0, 0, -1)), 2: ("point", (0, 0, 1))},
                   {1: ("point", (0, 0, 1)), 2: ("point", (0, 0, -1))}]
        base = [count(ends, cons) for cons in configs]
        assert any(weights._derivation(c.ctype).kind == "resolved"
                   for res in base for c in res.contributions)
        for s in range(5):
            def shifted(t, order, mode, s=s):
                if weights._derivation(t).kind != "resolved":
                    return weights.curve_weight(t, order, mode)
                return shift_oracle.weight(t, shift_oracle.sample_shifts(t, s))
            monkeypatch.setattr(invariants, "curve_weight", shifted)
            for cons, res in zip(configs, base):
                assert count(ends, cons).value.agrees(res.value)

    def test_gl3_invariance_of_counts(self):
        u = [[1, 2, 0], [0, 1, 0], [1, 1, 1]]  # det 1
        ends = [(1, 0, 0), (0, 1, 0), (-1, 0, 1), (0, -1, -1)]
        cons = {1: ("point", (0, 0, -1)), 2: ("point", (0, 0, 1))}
        base = count(ends, cons).value

        ends_u = [_apply(u, e) for e in ends]
        cons_u = {}
        for label, (kind, *rest) in cons.items():
            assert kind == "point"
            cons_u[label] = ("point", _apply(u, rest[0]))
        moved = count(ends_u, cons_u).value
        assert moved.agrees(base)

    @pytest.mark.parametrize("u_seed", [0, 1, 2])
    def test_gl3_invariance_of_the_cp3_request(self, u_seed):
        # a random unimodular U applied to the whole request: ends and
        # point constraints of the degree-1 two-point count on P^3
        rng = random.Random(u_seed)
        rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        for _ in range(8):
            i, j = rng.sample(range(3), 2)
            q = rng.randint(-2, 2)
            rows[i] = [a + q * b for a, b in zip(rows[i], rows[j])]
        for seed in (0, 1):
            ends, cons = invariants._class_ends(cp3_fan(), [1, 1, 1, 1], (),
                                                2, seed)
            ends_u = [_apply(rows, e) for e in ends]
            cons_u = {label: ("point", _apply(rows, pt))
                      for label, (_, pt) in cons.items()}
            base = count(ends, cons).value
            assert not base.is_zero()
            assert count(ends_u, cons_u).value == base

    @pytest.mark.parametrize("p_seed", range(6))
    def test_signed_permutation_invariance_with_planes(self, p_seed):
        # a plane x_i = v stays a coordinate plane only under a signed
        # permutation P: with P e_i = s e_j it becomes x_j = s v
        rng = random.Random(p_seed)
        perm = rng.sample(range(3), 3)
        signs = [rng.choice((1, -1)) for _ in range(3)]

        def act(x):
            out = [0, 0, 0]
            for i in range(3):
                out[perm[i]] = signs[i] * x[i]
            return tuple(out)

        ends = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1), (0, 0, 0)]
        cons = {5: ("point", (Fraction(3, 7), Fraction(-2, 5), Fraction(1, 3))),
                1: ("plane", 1, Fraction(5, 11)),
                2: ("plane", 2, Fraction(-4, 13))}
        moved = {label: ("point", act(con[1])) if con[0] == "point"
                 else ("plane", perm[con[1]], signs[con[1]] * con[2])
                 for label, con in cons.items()}
        base = count(ends, cons).value
        assert not base.is_zero()
        assert count([act(e) for e in ends], moved).value == base

    @pytest.mark.parametrize("fan, degrees, points, expected", [
        (cp3_fan(), [1, 1, 1, 1], 2,
         (two_sin_half(1, K) * two_sin_half(1, K)).shift(2)),
        (p1_cubed_fan(), [1, 1, 0, 0, 0, 0], 1, LaurentSeries.monomial(1, 1, K)),
    ], ids=["cp3", "p1cubed"])
    def test_grid_points_give_the_generic_value(self, fan, degrees, points,
                                                expected):
        # points on the {-1, 0, 1}^3 grid put curves on walls (zero lengths,
        # markers on vertices); the tie-break must still give the value at
        # generic points: criterion 5's anchor before the x^-4 normalization
        # for cp3, one line with its marker weight x for p1cubed
        ends, _ = invariants._class_ends(fan, degrees, (), points, 0)
        for grid_seed in range(18):
            rng = random.Random(grid_seed)
            cons = {len(ends) - points + j + 1:
                    ("point", tuple(rng.choice((-1, 0, 1)) for _ in range(3)))
                    for j in range(points)}
            assert count(ends, cons).value.agrees(expected), cons

    def test_certified_count(self):
        ends = [(1, 0, 0), (0, 1, 0), (-1, 0, 1), (0, -1, -1)]
        cons = {1: ("point", (0, 0, -1)), 2: ("point", (0, 0, 1))}
        cyc = cycle_from_constraints(ends, cons)
        res = certified_count(CountRequest(tuple(ends), cyc, True, "lambda",
                                           SearchBounds(max_genus=2)), K)
        assert res.certified is True

    def test_certified_count_widens_every_bound(self, monkeypatch):
        seen = []

        def fake_count(req, order):
            seen.append(req.bounds)
            return invariants.CountResult(LaurentSeries.zero(order), [],
                                          req.bounds, 0)

        monkeypatch.setattr(invariants, "weighted_count", fake_count)
        ends = [(1, 0, 0), (0, 1, 0), (-1, 0, 0), (0, -1, 0)]
        req = CountRequest(tuple(ends), cycle_from_constraints(ends, {}),
                           True, "lambda", SearchBounds(4, 2, 1))
        assert certified_count(req, K).certified is True
        assert seen == [SearchBounds(4, 2, 1), SearchBounds(5, 3, 2)]
