import json
from fractions import Fraction
from importlib import resources
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import lambda_oracle
import shift_oracle

from tropgw import weights
from tropgw.enumeration import SearchBounds, _partitions, enumerate_curve_types
from tropgw.exactnum import (LaurentSeries, QHalfLaurent, q_to_lambda,
                             quantum_integer_q, two_sin_half)
from tropgw.identities import (gamma_mu, pluecker_identity_holds,
                               pluecker_triples, wedge_determines_vertex_weight)
from tropgw.lattice import InvariantError
from tropgw.tropcurve import (CurveType, automorphism_count, genus,
                              is_transverse, vertex_star)
from tropgw.weights import (
    UnsupportedVertex,
    curve_weight,
    resolve_with_shifts,
    substitution_consistent,
    vertex_qpoly,
    vertex_series,
)

K = 20


def single_vertex(*ends):
    return CurveType.make([0], (), [(0, d, i + 1) for i, d in enumerate(ends)])


def lcm(xs):
    out = 1
    for x in xs:
        out = out * x // gcd(out, x)
    return out


def expected_mu_weight(mu, order=K):
    acc = LaurentSeries.monomial(Fraction(1, lcm(mu)), 0, order)
    for m in mu:
        b = two_sin_half(m, order)
        acc = acc * b * b.scale(Fraction(1, m))
    return acc


class TestVertexWeights:
    def test_primitive_pair(self):
        s = vertex_series(single_vertex((1, 0, 0), (0, 1, 0), (-1, -1, 0)), K)
        assert s.agrees(two_sin_half(1, K))

    def test_marker_vertex_is_monomial(self):
        s = vertex_series(single_vertex((1, 0, 0), (0, 0, 0), (-1, 0, 0)), K)
        assert s.agrees(LaurentSeries.monomial(1, 1, K))

    def test_wedge_four(self):
        s = vertex_series(single_vertex((2, 0, 0), (0, 2, 0), (-2, -2, 0)), K)
        assert s.agrees(two_sin_half(4, K).scale(Fraction(1, 4)))

    def test_q_primitive_pair(self):
        p = vertex_qpoly(single_vertex((1, 0, 0), (0, 1, 0), (-1, -1, 0)))
        assert p == QHalfLaurent(((1, -1, 0), (-1, -1, 0)))

    def test_q_marker(self):
        p = vertex_qpoly(single_vertex((1, 0, 0), (0, 0, 0), (-1, 0, 0)))
        assert p == QHalfLaurent.one()

    def test_q_wedge_two(self):
        p = vertex_qpoly(single_vertex((2, 0, 0), (0, 1, 0), (-2, -1, 0)))
        assert p == quantum_integer_q(2).scale(Fraction(1, 2))

    def test_colinear_rejected(self):
        with pytest.raises(UnsupportedVertex):
            vertex_series(single_vertex((1, 0, 0), (1, 0, 0), (-2, 0, 0)), K)

    def test_multiple_markers_refused(self):
        with pytest.raises(UnsupportedVertex):
            vertex_series(single_vertex((0, 0, 0), (0, 0, 0), (0, 0, 0)), K)


class TestTransverseWeight:
    def test_chain_is_product_of_stars(self):
        t = CurveType.make(
            [0, 1], [(0, 1, (1, 1, 0))],
            [(0, (-1, 0, 0), 1), (0, (0, -1, 0), 2),
             (1, (1, 0, 0), 3), (1, (0, 1, 0), 4)])
        w = curve_weight(t, K, "lambda")
        per_vertex = two_sin_half(1, K)
        assert w.agrees(per_vertex * per_vertex)

    def test_single_vertex(self):
        t = single_vertex((1, 0, 0), (0, 1, 0), (-1, -1, 0))
        assert curve_weight(t, K, "lambda").agrees(vertex_series(t, K))

    def test_loop_multiplicity_scales(self):
        # triangle with loop index 2: weight = 2 * product of vertex weights
        t = CurveType.make(
            [0, 1, 2],
            [(0, 1, (1, 0, 0)), (1, 2, (0, 1, 0)), (2, 0, (0, 0, 2))],
            [(0, (-1, 0, 2), 1), (1, (1, -1, 0), 2), (2, (0, 1, -2), 3)])
        w = curve_weight(t, K, "lambda")
        prod = LaurentSeries.monomial(2, 0, K)
        for v in t.vertices:
            prod = prod * vertex_series(vertex_star(t, v).star, K)
        assert w.agrees(prod)


def doubled_edge(m):
    return CurveType.make(
        [0, 1], [(0, 1, (1, 0, m)), (0, 1, (1, 0, m))],
        [(0, (-1, 0, 0), 1), (0, (-1, 0, -2 * m), 2),
         (1, (0, 1, 0), 3), (1, (2, -1, 2 * m), 4)])


def assert_shift_free(t, shifts):
    # the weight is the resolution sum at any shift, ties included
    assert shift_oracle.weight(t, shifts) == curve_weight(t, K, "q")


class TestResolutions:
    def test_paper_shift_for_gamma_mu(self):
        # the hand-picked shifts (i, i, 0) admit exactly one resolution with
        # index prod(mu)/lcm(mu), and give the weight of the zero shift
        for mu in [(1, 1), (2, 1), (2, 2), (3, 2)]:
            t = gamma_mu(sum(mu), mu)
            shifts = tuple((i + 1, i + 1, 0) for i in range(len(mu)))
            res = shift_oracle.resolve_with_shifts(t, shifts)
            assert len(res) == 1
            prod = 1
            for m in mu:
                prod *= m
            assert res[0].index == prod // lcm(mu)
            assert_shift_free(t, shifts)

    @pytest.mark.parametrize("t", [
        *(gamma_mu(n, mu) for n in range(1, 6) for mu in _partitions(n)),
        doubled_edge(1), doubled_edge(2), doubled_edge(3)],
        ids=[*(str(mu) for n in range(1, 6) for mu in _partitions(n)),
             "doubled-1", "doubled-2", "doubled-3"])
    def test_zero_shift_is_the_numeric_perturbation_of_zero(self, t):
        # the resolutions at the eps-moved zero shift are those of the sweep
        # at the shift N^(3k-1), ..., N, 1: resolution by resolution, index
        # by index
        numeric = shift_oracle.epsilon_shifts(t.n_internal)
        res = resolve_with_shifts(t)
        assert res and res == shift_oracle.resolve_with_shifts(t, numeric)

    def test_relabeling_maps_candidates_onto_their_rep(self):
        # the Gamma_mu vertex stars, |mu| <= 4, and a star whose candidates
        # split both pairs of equal derivatives across their two vertices
        stars = [vertex_star(gamma_mu(n, mu), v).star
                 for n in range(1, 5) for mu in _partitions(n) for v in (0, 1)]
        stars.append(single_vertex((1, 0, 0), (1, 0, 0), (0, 1, 0),
                                   (0, 1, 0), (-2, -2, 0)))
        moved_ends = 0
        for star in stars:
            cands = enumerate_curve_types(
                [d for _, d, _ in star.external_edges],
                SearchBounds(max(star.n_ends - 3, 0), max_genus=0))
            for rep, c, inv in weights._group_by_relabeling(cands):
                relabeled = CurveType.make(
                    c.vertices, c.internal_edges,
                    [(v, d, inv[l - 1]) for v, d, l in c.external_edges])
                assert relabeled.canonical_key() == rep.canonical_key(), c
                moved_ends += sum(l != inv[l - 1] for _, _, l in
                                  c.external_edges)
        assert moved_ends > 0

    @pytest.mark.parametrize("seed", [None, 0, 15])
    def test_replacements_are_rigid_trees(self, seed):
        # the weights weigh each replacement curve without an automorphism
        # factor: every one is a transverse tree whose only automorphism
        # fixing its labeled ends is the identity, at the zero shift and at
        # the seeded ones, where the weight is the same
        for n in range(1, 5):
            for mu in _partitions(n):
                t = gamma_mu(n, mu)
                if seed is None:
                    res = resolve_with_shifts(t)
                else:
                    shifts = shift_oracle.sample_shifts(t, seed)
                    res = shift_oracle.resolve_with_shifts(t, shifts)
                    assert_shift_free(t, shifts)
                for r in res:
                    for p in r.vertex_types:
                        assert genus(p) == 0 and is_transverse(p), (mu, p)
                        assert automorphism_count(p) == 1, (mu, p)

    def test_paper_shift_for_doubled_edge(self):
        t = doubled_edge(2)
        shifts = ((1, 1, 0), (0, 0, 0))
        res = shift_oracle.resolve_with_shifts(t, shifts)
        assert len(res) == 1
        assert res[0].index == 2   # prod/lcm for the (m, m) split with m = 2
        assert_shift_free(t, shifts)

    def test_a_row_with_no_nonzero_block_discards(self, monkeypatch):
        # a zero certificate row asks 0 > 0, false at every shift
        solve = weights._ResolutionSolver._solve

        def with_zero_row(self, reps, wires):
            entry = solve(self, reps, wires)
            if entry[1] is not None:
                entry[1].append(())
            return entry

        monkeypatch.setattr(weights._ResolutionSolver, "_solve", with_zero_row)
        assert resolve_with_shifts(gamma_mu(2, (1, 1))) == []

    def test_trivial_resolution_on_transverse(self):
        t = CurveType.make(
            [0, 1], [(0, 1, (1, 1, 0))],
            [(0, (-1, 0, 0), 1), (0, (0, -1, 0), 2),
             (1, (1, 0, 0), 3), (1, (0, 1, 0), 4)])
        res = resolve_with_shifts(t)
        assert len(res) == 1
        assert res[0].index == 1
        for part in res[0].vertex_types:
            assert part.n_internal == 0

    def test_zero_shift_resolves_by_the_tie_break(self):
        # every sign test ties at the zero shift; the infinitesimal
        # tie-break still selects exactly one resolution of index 1
        res = resolve_with_shifts(gamma_mu(2, (1, 1)))
        assert len(res) == 1
        assert res[0].index == 1
        w = LaurentSeries.monomial(res[0].index, 0, K)
        for part in res[0].vertex_types:
            w = w * curve_weight(part, K, "lambda")
        assert w.agrees(expected_mu_weight((1, 1)))

    @settings(max_examples=20)
    @given(st.sampled_from([(1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1),
                            (2, 2), (3, 1), (2, 1, 1), (1, 1, 1, 1)]),
           st.data())
    def test_tie_break_matches_a_numeric_perturbation(self, mu, data):
        # at a random degenerate shift s the sweep decides its ties at
        # s + eps e_1 + eps^2 e_2 + ..., as at N^(3k) s + (N^(3k-1), ..., 1),
        # and sums to the weight of the zero shift
        k = len(mu)
        flat = data.draw(st.lists(st.integers(-1, 1), min_size=3 * k,
                                  max_size=3 * k))
        n = 2 ** 32
        eps = shift_oracle.epsilon_shifts(k, n)
        t = gamma_mu(sum(mu), mu)
        degenerate = tuple(tuple(flat[3 * e:3 * e + 3]) for e in range(k))
        numeric = tuple(tuple(n ** (3 * k) * x + y for x, y in zip(s, p))
                        for s, p in zip(degenerate, eps))
        assert shift_oracle.resolve_with_shifts(t, degenerate) == \
            shift_oracle.resolve_with_shifts(t, numeric)
        assert_shift_free(t, degenerate)

    def test_one_sweep_per_type(self, monkeypatch):
        # every certificate row ties at the zero shift; the tie-break
        # settles them all inside the one sweep
        calls = []

        def counted(*args):
            calls.append(args)
            return resolve_with_shifts(*args)

        weights.clear_caches()
        monkeypatch.setattr(weights, "resolve_with_shifts", counted)
        weights._derivation(gamma_mu(4, (1, 1, 1, 1)))
        assert len(calls) == 1

    def test_second_mode_and_trace_reuse_the_derivation(self, monkeypatch):
        # the lambda weight classifies and resolves the type and its parts;
        # the q weight and the trace only read what it found
        t = gamma_mu(3, (2, 1))
        calls = {}

        def counted(name):
            fn = getattr(weights, name)

            def wrapper(*args):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args)
            monkeypatch.setattr(weights, name, wrapper)

        names = ("is_general", "is_transverse", "loop_multiplicity",
                 "resolve_with_shifts")
        for name in names:
            counted(name)
        weights.clear_caches()
        curve_weight(t, K, "lambda")
        assert all(calls.get(name) for name in names), calls
        calls.clear()
        curve_weight(t, K, "q")
        weights.weight_trace(t)
        assert calls == {}


class TestCurveWeight:
    def test_gamma_mu_formula(self):
        for mu in [(1, 1), (2, 1), (1, 1, 1), (2, 2), (3, 1)]:
            w = curve_weight(gamma_mu(sum(mu), mu), K, "lambda")
            assert w.agrees(expected_mu_weight(mu)), mu

    def test_doubled_edge_value(self):
        for m in (2, 3):
            t = doubled_edge(m)
            b1, bm = two_sin_half(1, K), two_sin_half(m, K)
            expect = b1 * b1 * bm * bm.scale(Fraction(1, m))
            assert curve_weight(t, K, "lambda").agrees(expect)
            assert_shift_free(t, shift_oracle.sample_shifts(t, 3))

    def test_valuation_is_euler_grading(self):
        corpus = [
            single_vertex((1, 0, 0), (0, 1, 0), (-1, -1, 0)),
            gamma_mu(2, (1, 1)),
            gamma_mu(3, (2, 1)),
            gamma_mu(4, (1, 1, 2)),
        ]
        for t in corpus:
            w = curve_weight(t, K, "lambda")
            assert w.low == 2 * genus(t) - 2 + t.n_ends
            lead = w.coeffs[0]
            assert lead > 0
            if not is_transverse(t):
                assert_shift_free(t, shift_oracle.sample_shifts(t, 1))

    def test_disconnected_weight_is_product(self):
        t = CurveType.make(
            [0, 1],
            (),
            [(0, (1, 0, 0), 1), (0, (0, 1, 0), 2), (0, (-1, -1, 0), 3),
             (1, (0, 0, 1), 4), (1, (1, 0, 0), 5), (1, (-1, 0, -1), 6)])
        w = curve_weight(t, K, "lambda")
        one = two_sin_half(1, K)
        assert w.agrees(one * one)

    def test_seed_independence(self):
        # the resolution sums at the seeded shifts all give the one weight
        for mu in [(1, 1), (2, 1), (1, 1, 1)]:
            t = gamma_mu(sum(mu), mu)
            for s in range(6):
                assert_shift_free(t, shift_oracle.sample_shifts(t, s))

    def test_non_general_rejected(self):
        t = single_vertex((1, 0, 0), (1, 0, 0), (-2, 0, 0))
        with pytest.raises(ValueError):
            curve_weight(t, K, "lambda")


def _random_unimodular(rng):
    rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    for _ in range(8):
        i, j = rng.sample(range(3), 2)
        q = rng.randint(-2, 2)
        rows[i] = [a + q * b for a, b in zip(rows[i], rows[j])]
    return rows


class TestInvariance:
    @given(st.randoms(use_true_random=False))
    def test_unimodular_action_preserves_weights(self, rng):
        u = _random_unimodular(rng)
        for t in (single_vertex((1, 0, 0), (0, 1, 0), (-1, -1, 0)),
                  gamma_mu(2, (1, 1))):
            moved = t.map_derivatives(u)
            w0 = curve_weight(t, 12, "lambda")
            w1 = curve_weight(moved, 12, "lambda")
            assert w0.agrees(w1)
            if not is_transverse(moved):
                assert_shift_free(moved, shift_oracle.sample_shifts(moved, 1))

    def test_wedge_determines_the_weight(self):
        # pairs with the same wedge index share their weight series
        seen = {}
        for a, b in [((1, 0, 0), (0, 1, 0)), ((1, 2, 0), (0, 1, 1)),
                     ((2, 1, 0), (1, 1, 1)), ((2, 0, 0), (0, 1, 0)),
                     ((1, 3, 0), (1, 1, 2))]:
            from tropgw.lattice import wedge_index
            n = wedge_index(a, b)
            third = tuple(-(x + y) for x, y in zip(a, b))
            w = vertex_series(single_vertex(a, b, third), K)
            if n in seen:
                assert w.agrees(seen[n])
            seen[n] = w

    def test_wedge_determines_every_vertex_weight_in_the_box(self):
        assert wedge_determines_vertex_weight(K)


# the first 12 triples in the order of the six nested coordinate loops
PLUECKER_TRIPLES = [
    ((-2, -2, 0), (-1, -2, 0), (0, -1, 0)),
    ((-2, -2, 0), (0, -2, 0), (1, -2, 0)),
    ((-2, -2, 0), (0, -2, 0), (1, -1, 0)),
    ((-2, -2, 0), (0, -2, 0), (1, 0, 0)),
    ((-2, -2, 0), (0, -1, 0), (1, -2, 0)),
    ((-2, -2, 0), (0, -1, 0), (1, -1, 0)),
    ((-2, -2, 0), (0, -1, 0), (1, 0, 0)),
    ((-2, -2, 0), (1, -2, 0), (1, -1, 0)),
    ((-2, -2, 0), (1, -2, 0), (1, 0, 0)),
    ((-2, -2, 0), (1, -2, 0), (2, -2, 0)),
    ((-2, -2, 0), (1, -2, 0), (2, -1, 0)),
    ((-2, -2, 0), (1, -2, 0), (2, 0, 0)),
]


class TestPlanarBracketRelation:
    def test_triples_are_pinned(self):
        assert pluecker_triples(12) == PLUECKER_TRIPLES

    def test_relation_holds_on_the_triples(self):
        assert all(pluecker_identity_holds(a, b, c, K)
                   for a, b, c in PLUECKER_TRIPLES)


class TestSubstitutionConsistency:
    def test_single_vertices(self):
        assert substitution_consistent(
            single_vertex((1, 0, 0), (0, 1, 0), (-1, -1, 0)), K)
        assert substitution_consistent(
            single_vertex((1, 0, 0), (0, 0, 0), (-1, 0, 0)), K)

    def test_gamma_mu(self):
        for mu in [(1, 1), (2, 1), (2, 2)]:
            assert substitution_consistent(gamma_mu(sum(mu), mu), K)

    def test_q_weight_shares_resolutions(self):
        t = gamma_mu(3, (2, 1))
        wq = curve_weight(t, K, "q")
        sub, real = q_to_lambda(wq, K)
        assert real
        # no marker ends on this type, so no power of x to restore
        assert sub.to_json() == lambda_oracle.weight(t, K).to_json()

    def test_imaginary_residue_is_refused(self, monkeypatch):
        # a vertex weight of q^(1/2) substitutes to i e^(i x/2)
        monkeypatch.setattr(weights, "_vertex_weight",
                            lambda n: QHalfLaurent.monomial(1, 1))
        weights.clear_caches()
        t = single_vertex((1, 0, 0), (0, 1, 0), (-1, -1, 0))
        try:
            assert not substitution_consistent(t, K)
            with pytest.raises(InvariantError):
                curve_weight(t, K, "lambda")
        finally:
            weights.clear_caches()


ORDERS = (1, 2, 4, 12, 20)
ZERO = (0, 0, 0)
P3_RAYS = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]


def _bundled_type(name):
    doc = (resources.files("tropgw") / "data" / name).read_text()
    return CurveType.from_json(json.loads(doc))


def _derived_corpus(group):
    """The types of one corpus group."""
    if group == "gamma_mu":
        return [gamma_mu(n, mu) for n in range(1, 6) for mu in _partitions(n)]
    if group == "bundled":
        return [_bundled_type(name) for name in
                ("vertex_wedge1.json", "gamma_mu_21.json", "gamma_mu_1111.json")]
    ends, connected = {
        # transverse types with two marker vertices
        "p3_two_markers": (P3_RAYS + [ZERO, ZERO], True),
        # 58 of the 148 types are resolved with two marker ends: at order 1
        # the series is known through x^1, below the x^2 the markers give
        "loops_two_markers": ([(1, 0, 0), (0, 1, 0), (-1, 0, 2),
                               (0, -1, -2), ZERO, ZERO], True),
        "two_tripods": ([(1, 0, 0), (0, 1, 0), (-1, -1, 0),
                         (0, 0, 1), (1, 0, -1), (-1, 0, 0)], False),
        "tripod_and_marker": ([(1, 0, 0), (0, 1, 0), (-1, -1, 0),
                               (0, 0, 1), ZERO, (0, 0, -1)], False),
    }[group]
    return enumerate_curve_types(ends, SearchBounds(), connected=connected)


GROUPS = ["gamma_mu", "bundled", "p3_two_markers", "loops_two_markers",
          "two_tripods", "tripod_and_marker"]


class TestDerivedSeries:
    """The series weight, derived from the q weight by one substitution,
    against the series evaluated directly on the lambda side."""

    @pytest.mark.parametrize("group", GROUPS)
    def test_matches_the_lambda_oracle(self, group):
        kinds = set()
        for t in _derived_corpus(group):
            kinds.add(weights._derivation(t).kind)
            for order in ORDERS:
                got = curve_weight(t, order, "lambda").to_json()
                want = lambda_oracle.weight(t, order).to_json()
                assert got == want, (group, order)
        if group in ("two_tripods", "tripod_and_marker"):
            assert "disconnected" in kinds

    @pytest.mark.parametrize("group,seeds", [
        ("bundled", (0, 15)), ("loops_two_markers", (0,))])
    def test_resolved_weights_are_shift_free(self, group, seeds):
        # every resolved type of the group sums to its weight at the seeded
        # shifts too; test_q_weight_closed_form covers the gamma_mu group,
        # and the other groups resolve nothing
        resolved = [t for t in _derived_corpus(group)
                    if weights._derivation(t).kind == "resolved"]
        assert resolved
        for t in resolved:
            for seed in seeds:
                assert_shift_free(t, shift_oracle.sample_shifts(t, seed))

    def test_fewer_orders_than_markers_is_zero(self):
        # no coefficient is asked of the substitution below x^k
        t = next(t for t in _derived_corpus("loops_two_markers")
                 if weights._derivation(t).kind == "resolved")
        assert t.zero_end_count() == 2
        assert curve_weight(t, 1, "lambda") == LaurentSeries.zero(1)
        valuation = 2 * genus(t) - 2 + t.n_ends
        assert curve_weight(t, valuation, "lambda").low == valuation

    @pytest.mark.parametrize("seed", [0, 1, 15])
    def test_q_weight_closed_form(self, seed):
        # (1/lcm mu) prod_m [m]_q^2 / m, the q side of expected_mu_weight,
        # at the zero shift and summed at the seeded one
        for n in range(1, 6):
            for mu in _partitions(n):
                want = QHalfLaurent.one().scale(Fraction(1, lcm(mu)))
                for m in mu:
                    qm = quantum_integer_q(m)
                    want = want * qm * qm.scale(Fraction(1, m))
                t = gamma_mu(n, mu)
                assert curve_weight(t, K, "q") == want, mu
                assert shift_oracle.weight(
                    t, shift_oracle.sample_shifts(t, seed)) == want, mu
