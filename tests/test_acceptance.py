"""Acceptance criteria, one test per criterion.

Every equality is exact on rational coefficients (truncation order 20).  Each
test prints a single PASS line on success; a pytest failure is the FAIL line.
Criterion 9 reruns the criteria whose points move with the seed across five
seeds, and sums every resolved type the criteria weigh at the seeded shifts.
"""

import random
from fractions import Fraction
from math import gcd

from tropgw.enumeration import (SearchBounds, _partitions, cycle_from_constraints,
                                 enumerate_curve_types)
from tropgw.exactnum import LaurentSeries, two_sin_half
from tropgw.identities import (brackets_by_recursion, expected_gamma_mu_weight,
                               gamma_mu, partition_identity_holds)
from tropgw.invariants import (CountRequest, absolute_invariant, cp3_fan,
                               derive_line_factor, p1_cubed_fan, weighted_count)
from tropgw.lattice import INFINITE, lattice_index
from tropgw.tropcurve import (CurveType, are_isomorphic, is_transverse,
                              loop_multiplicity)
from tropgw.weights import _derivation, curve_weight, substitution_consistent

import lambda_oracle
import shift_oracle
from edge_system import multiplicity

ORDER = 20
BOUNDS = SearchBounds()
SEEDS = (0, 1, 2, 3, 4)


def single_vertex(*ends):
    return CurveType.make([0], (), [(0, d, i + 1) for i, d in enumerate(ends)])


def wedge_vertex(n):
    return single_vertex((1, 0, 0), (0, n, 0), (-1, -n, 0))


def family3_ends(n):
    return [(1, 0, 0), (0, 1, 0), (-1, 0, n), (0, -1, -n)]


def run_count(ends, constraints, mode="lambda", connected=True):
    cyc = cycle_from_constraints(ends, constraints)
    req = CountRequest(tuple(ends), cyc, connected, mode, BOUNDS)
    return weighted_count(req, ORDER)


# -- criterion evaluators (shared with the seed-robustness pass) ----------------


def criterion_1_values():
    out = {}
    for n in range(1, 13):
        out[n] = curve_weight(wedge_vertex(n), ORDER, "lambda")
    return out


def criterion_3_pipeline_types():
    """mu -> the type of the four-end family isomorphic to Gamma_mu."""
    out = {}
    for total in range(1, 7):
        ends = family3_ends(total)
        types = enumerate_curve_types(ends, BOUNDS)
        for mu in _partitions(total):
            target = gamma_mu(total, mu)
            found = [t for t in types if are_isomorphic(t, target)]
            assert len(found) == 1, (mu, len(found))
            out[mu] = found[0]
    return out


FAMILY1 = ([(1, 0, 0), (0, 1, 0), (-1, 0, 0), (0, -1, 0)],
           [{2: ("point", (0, 0, 0)), 1: ("plane", 1, 3), 3: ("plane", 1, -4)},
            {2: ("point", (0, 0, 0)), 1: ("plane", 1, -4), 3: ("plane", 1, 3)}])


def family2(k, n):
    return ([(k, 0, 0), (0, n * k, 0), (0, 1, 0), (-k, -n * k - 1, 0)],
            [{1: ("point", (0, 0, 0)), 2: ("plane", 0, 2), 3: ("plane", 0, -3)},
             {1: ("point", (0, 0, 0)), 2: ("plane", 0, -3), 3: ("plane", 0, 2)}])


def family3_configs(n):
    return (family3_ends(n),
            [{1: ("point", (0, 0, -1)), 2: ("point", (0, 0, 1))},
             {1: ("point", (0, 0, 1)), 2: ("point", (0, 0, -1))}])


def criterion_4_values():
    """name -> the count of each family instance, and the placed types."""
    out, placed = {}, []
    instances = [("f1", FAMILY1)]
    for k in (1, 2):
        for n in (1, 2):
            instances.append((f"f2[{k},{n}]", family2(k, n)))
    for n in range(1, 7):
        instances.append((f"f3[{n}]", family3_configs(n)))
    for name, (ends, configs) in instances:
        results = [run_count(ends, cons) for cons in configs]
        placed.extend(c.ctype for r in results for c in r.contributions)
        values = [r.value for r in results]
        for v in values[1:]:
            assert values[0].agrees(v), f"{name}: configurations disagree"
        out[name] = values[0]
    return out, placed


def criterion_5_value(seed):
    return absolute_invariant(cp3_fan(), [1, 1, 1, 1], 2, ORDER, seed)


def criterion_6_values(seed):
    inv = absolute_invariant(p1_cubed_fan(), [1, 1, 0, 0, 0, 0], 1, ORDER, seed)
    factor = derive_line_factor(ORDER, seed)
    return inv, factor


def corpus_for_dt():
    corpus = [wedge_vertex(n) for n in range(1, 13)]
    corpus.append(single_vertex((1, 0, 0), (0, 0, 0), (-1, 0, 0)))
    for total in range(1, 7):
        for mu in _partitions(total):
            corpus.append(gamma_mu(total, mu))
    for ends, _ in (FAMILY1, family2(1, 1), family2(2, 1), family3_configs(2)):
        corpus.extend(enumerate_curve_types(ends, BOUNDS))
    return corpus


def criterion_7_values():
    """Per corpus type: the q weight substitutes to a real series, and the
    series weight derived from it equals the one the lambda-side oracle
    evaluates from the same resolutions."""
    return {i: substitution_consistent(t, ORDER)
            and curve_weight(t, ORDER, "lambda").to_json()
            == lambda_oracle.weight(t, ORDER).to_json()
            for i, t in enumerate(corpus_for_dt())}


# -- the criteria ----------------------------------------------------------------


def test_criterion_1_vertex_closed_form():
    values = criterion_1_values()
    for n in range(1, 13):
        assert values[n].agrees(two_sin_half(n, ORDER).scale(Fraction(1, n))), n
    print("ACCEPTANCE 1: PASS - vertex weight equals 2 sin(n x/2)/n "
          "coefficientwise to x^20 for n = 1..12")


def test_criterion_2_recursion_vs_closed_form():
    b = brackets_by_recursion(12, ORDER)
    for n in range(1, 13):
        assert b[n].agrees(two_sin_half(n, ORDER)), n
    print("ACCEPTANCE 2: PASS - odd/even recursions reproduce the closed "
          "forms exactly for n <= 12")


def test_criterion_3_partition_identity_and_pipeline():
    for n in range(1, 9):
        assert partition_identity_holds(n, ORDER), n
    for mu, t in criterion_3_pipeline_types().items():
        w = curve_weight(t, ORDER, "lambda")
        assert w.agrees(expected_gamma_mu_weight(mu, ORDER)), mu
    print("ACCEPTANCE 3: PASS - partition identity exact for n <= 8 and the "
          "loop-family pipeline reproduces its closed form for |mu| <= 6")


def test_criterion_4_degeneration_invariance():
    criterion_4_values()
    print("ACCEPTANCE 4: PASS - weighted counts agree exactly across the "
          "alternative constraint configurations of all three families")


def test_criterion_5_cp3_anchor():
    inv = criterion_5_value(seed=0)
    one = two_sin_half(1, ORDER)
    assert inv.agrees((one * one).shift(-2))
    print("ACCEPTANCE 5: PASS - degree-one count through two points equals "
          "(sin(x/2)/(x/2))^2 exactly to x^20")


def test_criterion_6_p1cubed_anchor():
    inv, factor = criterion_6_values(seed=0)
    assert inv.agrees(LaurentSeries.monomial(1, -1, ORDER))
    assert factor.agrees(LaurentSeries.monomial(1, -1, ORDER))
    print("ACCEPTANCE 6: PASS - line-through-a-point invariant is 1/x and "
          "the re-derived boundary factor is 1/x")


def test_criterion_7_gw_dt_bridge():
    results = criterion_7_values()
    assert all(results.values())
    print(f"ACCEPTANCE 7: PASS - x^k times the substituted q weight equals "
          f"the series weight evaluated on the lambda side on all "
          f"{len(results)} corpus types")


def test_criterion_8_multiplicity_oracle():
    from itertools import product

    rng = random.Random(20240)
    checked = 0
    while checked < 100:
        nv = rng.randint(1, 4)
        k = rng.randint(0, 5)
        ies = []
        for _ in range(k):
            a, b = rng.randint(0, nv - 1), rng.randint(0, nv - 1)
            if a == b:
                continue
            d = tuple(rng.randint(-4, 4) for _ in range(3))
            if d == (0, 0, 0):
                continue
            ies.append((a, b, d))
        bal = {v: [0, 0, 0] for v in range(nv)}
        for a, b, d in ies:
            for c in range(3):
                bal[a][c] += d[c]
                bal[b][c] -= d[c]
        ees = [(v, tuple(-x for x in bal[v]), v + 1) for v in range(nv)]
        try:
            t = CurveType.make(range(nv), ies, ees)
        except ValueError:
            continue
        if not t.is_connected() or not is_transverse(t):
            continue
        assert multiplicity(t) == loop_multiplicity(t)
        checked += 1

    for a, b, c, d in product(range(-3, 4), repeat=4):
        m = [[a, b], [c, d]]
        idx = lattice_index(m)
        det = a * d - b * c
        if idx is INFINITE:
            assert det == 0
        else:
            assert idx == abs(det)
            assert idx == _coset_count(m, box=max(1, abs(det)))
    for a, b in product(range(-3, 4), repeat=2):
        m = [[a, b]]
        idx = lattice_index(m)
        if (a, b) == (0, 0):
            assert idx is INFINITE
        else:
            g = gcd(abs(a), abs(b))
            assert idx == g == _coset_count(m, box=2 * g)
    print("ACCEPTANCE 8: PASS - loop multiplicity agrees with the edge-system "
          "oracle on 100 random transverse types and the lattice index "
          "matches brute-force coset counting on all small 2-row matrices")


def _coset_count(m: list[list[int]], box: int) -> int:
    rows = len(m)
    gens = list(zip(*m))
    seen = {(0,) * rows}
    frontier = [(0,) * rows]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            for sign in (1, -1):
                nxt = tuple((x + sign * y) % box for x, y in zip(cur, g))
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
    return box ** rows // len(seen)


def test_criterion_9_seed_robustness():
    # criteria 5 and 6 place seeded points
    c5, c6 = criterion_5_value(0), criterion_6_values(0)
    for seed in SEEDS[1:]:
        assert criterion_5_value(seed).agrees(c5)
        i6, f6 = criterion_6_values(seed)
        assert i6.agrees(c6[0]) and f6.agrees(c6[1])
    # every type criteria 3, 4 and 7 weigh is resolved once, at the zero
    # shift; its resolutions at each seeded shift sum to the same weight
    resolved = {}
    for t in [*criterion_3_pipeline_types().values(),
              *criterion_4_values()[1], *corpus_for_dt()]:
        for c in t.component_types():
            if _derivation(c).kind == "resolved":
                resolved.setdefault(c.canonical_key(), c)
    for t in resolved.values():
        want = curve_weight(t, ORDER, "q")
        for seed in SEEDS:
            shifts = shift_oracle.sample_shifts(t, seed)
            assert shift_oracle.weight(t, shifts) == want, (t, seed)
    print(f"ACCEPTANCE 9: PASS - criteria 5 and 6 identical across seeds "
          f"{SEEDS}, and the {len(resolved)} resolved types of criteria 3, "
          f"4 and 7 weigh the same at each seed's shift")
