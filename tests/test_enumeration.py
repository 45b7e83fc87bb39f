from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, strategies as st

import enumeration_oracle
from tropgw import enumeration
from tropgw.enumeration import (
    ConstraintCycle,
    SearchBounds,
    Stratum,
    _cheap_reject,
    _partitions,
    _tree_shapes,
    _tree_to_type,
    cycle_from_constraints,
    enumerate_curve_types,
    place_curves,
)
from tropgw.identities import gamma_mu
from tropgw.tropcurve import CurveType, is_general, vertex_star


B = SearchBounds()


def _partition_count(n):
    def rec(rest, mx):
        if rest == 0:
            return 1
        return sum(rec(rest - p, p) for p in range(min(rest, mx), 0, -1))
    return rec(n, n)


class TestEnumerate:
    def test_square_ends_have_two_types(self):
        ts = enumerate_curve_types(
            [(1, 0, 0), (0, 1, 0), (-1, 0, 0), (0, -1, 0)],
            SearchBounds(max_genus=0))
        assert len(ts) == 2
        ders = sorted(min(d, tuple(-x for x in d))
                      for t in ts for _, _, d in t.internal_edges)
        assert ders == [(-1, -1, 0), (-1, 1, 0)]

    def test_loop_family_appears_per_partition(self):
        for n in (1, 2, 3, 4):
            ts = enumerate_curve_types(
                [(1, 0, 0), (0, 1, 0), (-1, 0, n), (0, -1, -n)], B)
            # two chain pairings stay primitive; the third carries a partition
            assert len(ts) == 2 + _partition_count(n)
            assert all(is_general(t) for t in ts)

    def test_three_primitive_ends_single_vertex(self):
        ts = enumerate_curve_types([(1, 0, 0), (0, 1, 0), (-1, -1, 0)], B)
        assert len(ts) == 1
        assert ts[0].n_internal == 0 and ts[0].n_vertices == 1

    def test_unbalanced_total_rejected(self):
        with pytest.raises(ValueError):
            enumerate_curve_types([(1, 0, 0), (0, 1, 0)], B)

    def test_colinear_pair_yields_nothing(self):
        # the vertexless line is outside the model; no vertex type is general
        assert enumerate_curve_types([(1, 0, 0), (-1, 0, 0)], B) == []

    def test_deterministic_order(self):
        ends = [(1, 0, 0), (0, 1, 0), (-1, 0, 2), (0, -1, -2)]
        a = enumerate_curve_types(ends, B)
        b = enumerate_curve_types(ends, B)
        assert a == b

    def test_partitions(self):
        assert list(_partitions(0)) == [()]
        for n in range(1, 9):
            parts = list(_partitions(n))
            assert len(set(parts)) == len(parts) == _partition_count(n)
            assert all(sum(p) == n and list(p) == sorted(p, reverse=True)
                       for p in parts)

    def test_internal_edge_bound_drops_the_trees(self, monkeypatch):
        # three internal edges on every tree of 6 ends
        ends = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1), (0, 0, 0),
                (0, 0, 0)]
        assert enumerate_curve_types(ends, SearchBounds(2, 5, 0)) == []
        assert len(enumerate_curve_types(ends, SearchBounds(3, 5, 0))) == 90

        # a connected type with n ends has at least n - 3 internal edges,
        # so past the bound no tree shape is generated at all
        def no_shapes(n):
            raise AssertionError(f"tree shapes of {n} ends generated")

        monkeypatch.setattr(enumeration, "_tree_shapes", no_shapes)
        assert enumerate_curve_types(ends, SearchBounds(2, 5, 0)) == []
        doubled = ends[:4] * 2 + [(0, 0, 0)]
        assert enumerate_curve_types(doubled, SearchBounds(4, 5, 0)) == []

    def test_bounds_cut_genus(self):
        ends = [(1, 0, 0), (0, 1, 0), (-1, 0, 4), (0, -1, -4)]
        low = enumerate_curve_types(ends, SearchBounds(max_genus=1))
        high = enumerate_curve_types(ends, SearchBounds(max_genus=4))
        assert len(low) < len(high)
        assert {t.canonical_key() for t in low} <= {t.canonical_key() for t in high}


class TestTreeOracle:
    def test_depth_first_shapes_match_breadth_first(self):
        for n in range(3, 9):
            shapes = list(_tree_shapes(n))
            assert shapes == list(enumeration_oracle.tree_shapes(n))
            # the leaf of every end comes first, as _tree_to_type assumes
            assert all(v > n for edges in shapes for _, v in edges)

    def test_rooted_pass_matches_per_edge_sums(self):
        # the end sets of the enumerate benchmark workload and the vertex
        # stars of Gamma_mu, |mu| <= 6 (up to 8 ends)
        cp3 = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]
        mark = (0, 0, 0)
        end_sets = [
            cp3 + [mark] * 2,
            [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1),
             (0, 0, -1)],
            [(2, 0, 0), (0, 2, 0), (0, 0, 2), (-2, -2, -2), mark],
            cp3 + [mark],
        ] + [[d for _, d, _ in vertex_star(gamma_mu(n, mu), v).star.external_edges]
             for n in range(1, 7) for mu in _partitions(n) for v in (0, 1)]
        made = dropped = 0
        for ends in end_sets:
            for edges in _tree_shapes(len(ends)):
                t = _tree_to_type(edges, ends)
                assert t == enumeration_oracle.tree_to_type(edges, ends)
                made += t is not None
                dropped += t is None
        assert made and dropped


@st.composite
def _balanced_ends(draw):
    """3 to 7 ends with entries in [-2, 2], up to 2 of them zero; each entry
    is drawn from the values that still let its coordinate sum to 0."""
    n = draw(st.integers(3, 7))
    zeros = draw(st.integers(0, min(2, n - 2)))
    columns = []
    for _ in range(3):
        column, total = [], 0
        for later in range(n - zeros - 1, 0, -1):
            x = draw(st.integers(max(-2, -2 * later - total),
                                 min(2, 2 * later - total)))
            column.append(x)
            total += x
        columns.append(column + [-total])
    nonzero = list(zip(*columns))
    assume(all(any(e) for e in nonzero))
    return draw(st.permutations(nonzero + [(0, 0, 0)] * zeros))


class TestGenusZeroLayer:
    """The enumeration takes every tree that survives _tree_to_type and
    _cheap_reject, and every parallel split of one, as a general type of its
    own."""

    @given(_balanced_ends())
    @example([(1, 0, 0), (1, 0, 0), (0, 1, 0), (-2, -1, 0)])
    @example([(2, 0, 0), (0, 2, 0), (-2, -2, 0), (0, 0, 0), (0, 0, 0)])
    @example([(1, 0, 0), (-1, 0, 0), (0, 0, 0)])
    def test_surviving_trees_are_general_and_distinct(self, ends):
        trees = [t for t in (_tree_to_type(edges, ends)
                             for edges in _tree_shapes(len(ends)))
                 if t is not None and not _cheap_reject(t)]
        genus_zero = SearchBounds(max_genus=0)
        filtered = enumeration_oracle.enumerate_curve_types(ends, genus_zero)
        # the filter keeps a tree when it is general and its key is new, so
        # it keeps them all exactly when every one is general and no two
        # share a key
        assert len(filtered) == len(trees)
        assert enumerate_curve_types(ends, genus_zero) == filtered
        # 7 ends at the default bounds can split into tens of thousands of
        # candidates, too many for this test
        bounds = [B] if len(ends) <= 6 else []
        if len(ends) <= 5:
            bounds.append(SearchBounds(5, 1, 1))
        for b in bounds:
            assert (enumerate_curve_types(ends, b)
                    == enumeration_oracle.enumerate_curve_types(ends, b))

    def test_genus_zero_runs_no_rank_test(self, monkeypatch):
        calls = []
        real = enumeration._is_general

        def counted(t, blocks):
            calls.append(t)
            return real(t, blocks)

        monkeypatch.setattr(enumeration, "_is_general", counted)
        cp3 = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]
        p1_cubed = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1),
                    (0, 0, -1)]
        mark = (0, 0, 0)
        assert len(enumerate_curve_types(
            cp3 + [mark] * 2, SearchBounds(max_genus=0))) == 90
        # every internal edge is primitive, so nothing is split
        assert len(enumerate_curve_types(p1_cubed + [mark] * 2, B)) == 6120
        # the parallel splits of a tree are taken as they are too: those of
        # the doubled rays, and the Gamma_mu loop types of the four-end
        # family, the 10 splits of its edge of multiplicity 6
        assert len(enumerate_curve_types(
            [(2, 0, 0), (0, 2, 0), (0, 0, 2), (-2, -2, -2), mark], B)) == 60
        assert len(enumerate_curve_types(
            [(1, 0, 0), (0, 1, 0), (-1, 0, 6), (0, -1, -6)], B)) == 2 + 11
        assert calls == []
        # the loop-edge types and their splits still pass the rank tests
        assert len(enumerate_curve_types(cp3 + [mark], SearchBounds(5, 1, 1))) == 48
        assert len(calls) == 933

    @given(_balanced_ends())
    @example([(2, 0, 0), (0, 2, 0), (-2, -2, 0), (0, 0, 0), (0, 0, 0)])
    @example([(2, 0, 0), (0, 2, 0), (0, 0, 2), (-2, -2, -2), (0, 0, 0)])
    @example([(1, 0, 0), (0, 1, 0), (-1, 0, 6), (0, -1, -6)])
    def test_tree_splits_are_general_and_distinct(self, ends):
        # the premise of taking every parallel split of a surviving tree
        # without a filter: it is general, within both bounds, and no tree
        # or other split shares its key.  The 10,395 trees of 7 ends and
        # their splits take seconds per end set.
        assume(len(ends) <= 6)
        trees = [t for t in (_tree_to_type(edges, ends)
                             for edges in _tree_shapes(len(ends)))
                 if t is not None and not _cheap_reject(t)]
        keys = {t.canonical_key() for t in trees}
        assert len(keys) == len(trees)
        for t in trees:
            for s in enumeration._parallel_splits(t, B):
                assert not _cheap_reject(s)
                assert s.n_internal <= B.max_internal_edges
                assert s.n_internal - s.n_vertices + 1 <= B.max_genus
                assert is_general(s)
                key = s.canonical_key()
                assert key not in keys
                keys.add(key)


_CP3 = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]
_P1_CUBED = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1),
             (0, 0, -1)]
_FAMILY3_N2 = [(1, 0, 0), (0, 1, 0), (-1, 0, 2), (0, -1, -2)]


class TestDisconnected:
    @pytest.mark.parametrize("ends", [_FAMILY3_N2] + [
        rays + [(0, 0, 0)] * k for rays, top in ((_CP3, 3), (_P1_CUBED, 2))
        for k in range(top)],
        ids=["family3_n2", "cp3", "cp3+1", "cp3+2", "p1cubed", "p1cubed+1"])
    def test_matches_partition_oracle(self, ends):
        # the unions taken as they are against every set partition's unions,
        # deduplicated by key, in to_json and in order
        assert ([t.to_json() for t in enumerate_curve_types(ends, B, connected=False)]
                == [t.to_json() for t in
                    enumeration_oracle.enumerate_disconnected(ends, B)])

    @given(_balanced_ends())
    def test_random_ends_match_partition_oracle(self, ends):
        # the oracle takes seconds on one set of 7 ends
        assume(len(ends) <= 6)
        bounds = SearchBounds(6, 2, 0)
        assert (enumerate_curve_types(ends, bounds, connected=False)
                == enumeration_oracle.enumerate_disconnected(ends, bounds))

    def test_each_block_is_enumerated_once(self, monkeypatch):
        asked = []
        real = enumeration.enumerate_curve_types

        def counted(ends, bounds, connected=True):
            asked.append(tuple(ends))
            return real(ends, bounds, connected)

        monkeypatch.setattr(enumeration, "enumerate_curve_types", counted)
        ends = _P1_CUBED + [(0, 0, 0)] * 2
        types = enumeration._enumerate_disconnected(ends, B)
        # 31 nonempty balanced blocks of the 8 labels; walking all 4,140
        # set partitions enumerated them 75 times
        assert len(asked) == 30
        assert len(types) == 6192
        assert ([t.to_json() for t in types] == [
            t.to_json() for t in enumeration_oracle.enumerate_disconnected(ends, B)])

    def test_two_blocks(self):
        ends = [(1, 0, 0), (0, 1, 0), (-1, -1, 0),
                (0, 0, 1), (1, 0, 0), (-1, 0, -1)]
        ts = enumerate_curve_types(ends, B, connected=False)
        split = [t for t in ts if len(t.components()) == 2]
        whole = [t for t in ts if len(t.components()) == 1]
        assert split and whole
        for t in ts:
            assert is_general(t)

    def test_every_component_carries_an_end(self):
        ends = [(1, 0, 0), (-1, 0, 0), (0, 0, 0)]
        ts = enumerate_curve_types(ends, B, connected=False)
        for t in ts:
            for comp in t.component_types():
                assert comp.n_ends >= 1


class TestPlacement:
    def test_marker_point_unique_placement(self):
        t = CurveType.make([0], (), [(0, (1, 0, 0), 1), (0, (0, 0, 0), 2),
                                     (0, (-1, 0, 0), 3)])
        cyc = cycle_from_constraints(
            [(1, 0, 0), (0, 0, 0), (-1, 0, 0)], {2: ("point", (5, 7, 11))})
        pls = place_curves(t, cyc)
        assert len(pls) == 1
        assert pls[0].positions[0] == (5, 7, 11)
        assert pls[0].check()
        assert all(l > 0 for l in pls[0].lengths.values())

    def test_unreachable_constraint_empty(self):
        t = CurveType.make([0], (), [(0, (1, 0, 0), 1), (0, (0, 1, 0), 2),
                                     (0, (-1, -1, 0), 3)])
        cyc = cycle_from_constraints(
            [(1, 0, 0), (0, 1, 0), (-1, -1, 0)],
            {1: ("point", (0, 0, 0)), 2: ("plane", 2, 5)})
        assert place_curves(t, cyc) == []

    def test_left_configuration_selects_one_type(self):
        # fully pinning one end and boxing the opposite pair picks exactly one
        # of the two chain types
        ends = [(1, 0, 0), (0, 1, 0), (-1, 0, 0), (0, -1, 0)]
        types = enumerate_curve_types(ends, SearchBounds(max_genus=0))
        cyc = cycle_from_constraints(
            ends, {2: ("point", (0, 0, 0)), 1: ("plane", 1, 1),
                   3: ("plane", 1, -1)})
        hits = {i: len(place_curves(t, cyc)) for i, t in enumerate(types)}
        assert sorted(hits.values()) == [0, 1]

    def test_placements_are_exact(self):
        ends = [(1, 0, 0), (0, 1, 0), (-1, 0, 2), (0, -1, -2)]
        cyc = cycle_from_constraints(
            ends, {1: ("point", (0, 0, 1)), 2: ("point", (0, 0, -1))})
        for t in enumerate_curve_types(ends, B):
            for p in place_curves(t, cyc):
                assert p.check()  # exact substitution back into the system

    def test_boundary_hit_resolves_by_the_tie_break(self):
        # constrain both rays through the vertex of the single-vertex type so
        # each chain placement needs length zero; the tie-break keeps the
        # chains that the explicit perturbation base + sum d^(j+1) e_j,
        # d = 2^-32, keeps, and the kept one records its tied edge
        ends = [(1, 0, 0), (0, 1, 0), (-1, 0, 0), (0, -1, 0)]
        types = enumerate_curve_types(ends, SearchBounds(max_genus=0))
        cyc = cycle_from_constraints(
            ends, {2: ("point", (0, 0, 0)), 1: ("plane", 1, 0),
                   3: ("plane", 1, 0)})
        s = cyc.strata[0]
        d = Fraction(1, 2 ** 32)
        near = ConstraintCycle(cyc.ambient_dim, (Stratum(
            tuple(b + d ** (j + 1) for j, b in enumerate(s.base)),
            s.span, s.multiplicity),))
        kept = [place_curves(t, cyc) for t in types]
        assert [len(p) for p in kept] == [len(place_curves(t, near))
                                          for t in types]
        assert sorted(len(p) for p in kept) == [0, 1]
        (p,) = [p for ps in kept for p in ps]
        assert p.lengths == {0: 0}
        assert p.tied == {0}
        assert p.check()
        assert not replace(p, tied=frozenset()).check()
        assert all(l > 0 for pn in place_curves(p.ctype, near)
                   for l in pn.lengths.values())

    def test_positive_dimensional_family_places_nothing(self):
        # an unconstrained marker leaves the vertex free to move: a null
        # space, which no perturbed base turns into an isolated placement
        t = CurveType.make([0], (), [(0, (1, 0, 0), 1), (0, (0, 0, 0), 2),
                                     (0, (-1, 0, 0), 3)])
        cyc = cycle_from_constraints([(1, 0, 0), (0, 0, 0), (-1, 0, 0)], {})
        assert place_curves(t, cyc) == []


class TestCycleJson:
    def test_round_trip(self):
        ends = [(1, 0, 0), (0, 0, 0), (-1, 0, 0)]
        cyc = cycle_from_constraints(ends, {2: ("point", (1, 2, 3))})
        back = ConstraintCycle.from_json(cyc.to_json())
        assert back == cyc

    def test_round_trip_without_spanning_vectors(self):
        # every end on a point: the stratum is that point, with no tangents
        ends = [(1, 0, 0), (0, 1, 0), (-1, -1, 0)]
        cyc = cycle_from_constraints(
            ends, {label: ("point", (0, 0, 0)) for label in (1, 2, 3)})
        assert cyc.strata[0].span == ()
        assert ConstraintCycle.from_json(cyc.to_json()) == cyc

    def test_spanning_vector_of_wrong_length_is_refused(self):
        cyc = cycle_from_constraints([(1, 0, 0), (0, 1, 0), (-1, -1, 0)], {})
        doc = cyc.to_json()
        doc["strata"][0]["spanning"][0].append(0)
        with pytest.raises(ValueError, match="spanning"):
            ConstraintCycle.from_json(doc)
        s = cyc.strata[0]
        with pytest.raises(ValueError, match="spanning"):
            ConstraintCycle(cyc.ambient_dim, (replace(
                s, span=(s.span[0] + (0,),) + s.span[1:]),))
