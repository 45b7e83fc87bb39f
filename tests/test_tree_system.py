"""Differential oracle for the spanning-forest system behind is_general,
place_curves and the glued resolution systems: sympy decides the same
questions on the full edge system of edge_system.py, with evaluation rows
built here on the vertex positions."""

import json
from fractions import Fraction
from importlib import resources

import pytest

from tropgw import enumeration, weights
from tropgw.enumeration import (
    SearchBounds,
    cycle_from_constraints,
    enumerate_curve_types,
    place_curves,
)
from tropgw.identities import gamma_mu
from tropgw.invariants import (CountRequest, _class_ends, cp3_fan,
                               p1_cubed_fan)
from tropgw.lattice import integral_kernel, quotient_projection
from tropgw.tropcurve import _tree_system

from edge_system import deformation_space, edge_equation_matrix

sympy = pytest.importorskip("sympy")
from sympy import QQ  # noqa: E402
from sympy.matrices.normalforms import invariant_factors  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402

DATA = resources.files("tropgw") / "data"

_CP3 = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]
_P1CUBED = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
_MARK = (0, 0, 0)

# the four end sets of the perfbench enumerate workload, with their bounds
ENUMERATE_SETS = [
    (_CP3 + [_MARK] * 2, (8, 5, 0)),
    (_P1CUBED, (8, 5, 0)),
    ([(2, 0, 0), (0, 2, 0), (0, 0, 2), (-2, -2, -2), _MARK], (8, 5, 0)),
    (_CP3 + [_MARK], (5, 1, 1)),
]


def _orthogonal_rows(d):
    """Two rational rows whose common kernel is the line of d: a basis of
    the orthogonal complement, from sympy."""
    return [list(v) for v in sympy.Matrix([d]).nullspace()]


def _full_system(t, block):
    """The edge rows over (vertex positions, lengths) stacked on the
    evaluation rows, block(d) for an end of derivative d, in label order."""
    ncols = 3 * t.n_vertices + t.n_internal
    at = {v: 3 * i for i, v in enumerate(t.vertices)}
    edges = edge_equation_matrix(t)
    ev = []
    for v, d, _ in sorted(t.external_edges, key=lambda e: e[2]):
        rows = ([[int(i == c) for c in range(3)] for i in range(3)]
                if d == (0, 0, 0) else block(d))
        for b in rows:
            row = [0] * ncols
            row[at[v]:at[v] + 3] = b
            ev.append(row)
    return ncols, edges, ev


def _rank(rows, ncols):
    return DomainMatrix([[QQ.convert(x) for x in r] for r in rows],
                        (len(rows), ncols), QQ).rank()


def _sympy_general(t):
    ncols, edges, ev = _full_system(t, _orthogonal_rows)
    return (ncols - _rank(edges, ncols) == t.n_ends
            and _rank(edges + ev, ncols) == ncols)


def _checked_types(monkeypatch):
    """Record every (type, verdict) that enumerate_curve_types decides, and
    every type it returns with the verdict True: it returns the genus-0
    trees without deciding them."""
    seen = []
    real = enumeration._is_general
    real_enumerate = enumeration.enumerate_curve_types

    def recording(t, blocks):
        verdict = real(t, blocks)
        seen.append((t, verdict))
        return verdict

    def returning(*args, **kwargs):
        found = real_enumerate(*args, **kwargs)
        seen.extend((t, True) for t in found)
        return found

    monkeypatch.setattr(enumeration, "_is_general", recording)
    monkeypatch.setattr(enumeration, "enumerate_curve_types", returning)
    monkeypatch.setattr(weights, "enumerate_curve_types", returning)
    return seen


class TestGeneralityOracle:
    @pytest.mark.parametrize("ends, bounds", ENUMERATE_SETS)
    def test_enumerate_end_sets(self, monkeypatch, ends, bounds):
        seen = _checked_types(monkeypatch)
        enumeration.enumerate_curve_types(ends, SearchBounds(*bounds))
        assert seen
        for t, verdict in seen:
            assert verdict == _sympy_general(t), t

    def test_gamma_mu_replacement_searches(self, monkeypatch):
        seen = _checked_types(monkeypatch)
        for n in range(1, 5):
            for mu in enumeration._partitions(n):
                weights.clear_caches()
                weights.curve_weight(gamma_mu(n, mu), 4, "lambda")
        weights.clear_caches()
        assert seen
        for t, verdict in seen:
            assert verdict == _sympy_general(t), t


def _forest_lattice(t):
    """The forest coordinates' lattice on vertex positions and lengths: the
    position forms (3 rows per vertex, t.vertices order) and the length rows
    of _tree_system applied to each vector of the integral kernel of its loop
    rows."""
    n_roots, ncols, positions, loops = _tree_system(t)
    rows = [row for v in t.vertices for row in positions[v]]
    rows += [[int(c == n_roots + e) for c in range(ncols)]
             for e in range(t.n_internal)]
    return [[sum(a * x for a, x in zip(r, k)) for r in rows]
            for k in integral_kernel(loops, ncols)]


def _assert_spans_deformation_space(t):
    """The vectors lie in the edge system's kernel, have its rank and span
    a saturated lattice (every invariant factor 1), so they are a basis of
    the lattice of deformation_space(t)."""
    basis = _forest_lattice(t)
    assert not any(sum(a * x for a, x in zip(r, v))
                   for r in edge_equation_matrix(t) for v in basis), t
    factors = invariant_factors(sympy.Matrix(basis), domain=sympy.ZZ)
    assert len(basis) == len(factors) == len(deformation_space(t)), t
    assert all(abs(int(f)) == 1 for f in factors), t


class TestDeformationLatticeOracle:
    @pytest.mark.parametrize("ends, bounds", ENUMERATE_SETS)
    def test_enumerated_types(self, ends, bounds):
        types = enumerate_curve_types(ends, SearchBounds(*bounds))
        assert types
        for t in types:
            _assert_spans_deformation_space(t)

    def test_gamma_mu_replacement_candidates(self, monkeypatch):
        # every candidate the resolution sweeps glue, read in _glue
        # straight from its forest coordinates
        candidates = set()
        real = weights.enumerate_curve_types

        def recording(*args):
            found = real(*args)
            candidates.update(found)
            return found

        monkeypatch.setattr(weights, "enumerate_curve_types", recording)
        for n in range(1, 5):
            for mu in enumeration._partitions(n):
                weights.clear_caches()
                weights.curve_weight(gamma_mu(n, mu), 4, "lambda")
        weights.clear_caches()
        assert candidates
        for t in candidates:
            assert t.is_connected() and t.n_internal == t.n_vertices - 1
            _assert_spans_deformation_space(t)


def _sympy_placements(t, cycle):
    """Per stratum: sympy's unique solution of the full system through the
    stratum as (positions, lengths), or None when there is none."""
    ncols, edges, ev = _full_system(t, quotient_projection)
    out = []
    for stratum in cycle.strata:
        k = len(stratum.span)
        rows = [r + [0] * k + [0] for r in edges]
        rows += [r + [-v[i] for v in stratum.span] + [b]
                 for i, (r, b) in enumerate(zip(ev, stratum.base))]
        n = ncols + k
        aug = DomainMatrix([[QQ.convert(x) for x in r] for r in rows],
                           (len(rows), n + 1), QQ)
        red, pivots = aug.rref()
        if pivots != tuple(range(n)):
            out.append(None)    # inconsistent, or a null space
            continue
        x = [Fraction(int(r[n].numerator), int(r[n].denominator))
             for r in red.to_list()[:n]]
        positions = {v: tuple(x[3 * i:3 * i + 3])
                     for i, v in enumerate(t.vertices)}
        lengths = {i: x[3 * t.n_vertices + i] for i in range(t.n_internal)}
        out.append((positions, lengths))
    return out


def _sympy_index(t, stratum):
    """sympy's |det| of the evaluation image of deformation_space(t), the
    full edge system's lattice, joined with the stratum's spanning vectors as
    columns."""
    _, _, ev = _full_system(t, quotient_projection)
    image = sympy.Matrix(ev) * sympy.Matrix(deformation_space(t)).T
    span = sympy.Matrix(len(ev), len(stratum.span),
                        lambda i, j: stratum.span[j][i])
    return abs(image.row_join(span).det())


def _requests():
    for name in ("s3_family1_configA.json", "s3_family1_configB.json",
                 "s3_family3_n3_configA.json", "s3_family3_n3_configB.json"):
        req = CountRequest.from_json(json.loads((DATA / name).read_text()))
        yield name, req.ends, req.cycle, req.bounds, req.connected
    for fan, degrees, points in ((cp3_fan(), [1] * 4, 2),
                                 (p1_cubed_fan(), [1, 1, 0, 0, 0, 0], 1)):
        for seed in (0, 1):
            ends, constraints = _class_ends(fan, degrees, (), points, seed)
            yield (f"absolute {degrees} seed {seed}", ends,
                   cycle_from_constraints(ends, constraints), SearchBounds(),
                   True)


REQUESTS = list(_requests())


class TestPlacementOracle:
    @pytest.mark.parametrize("name, ends, cycle, bounds, connected", REQUESTS,
                             ids=[r[0] for r in REQUESTS])
    def test_positions_and_lengths(self, name, ends, cycle, bounds, connected):
        placed = 0
        for t in enumerate_curve_types(list(ends), bounds, connected):
            got = {p.stratum_index: p for p in place_curves(t, cycle)}
            for si, want in enumerate(_sympy_placements(t, cycle)):
                if want is not None and 0 in want[1].values():
                    continue    # a tie, decided by the perturbation
                if want is None or any(l < 0 for l in want[1].values()):
                    assert si not in got, t
                    continue
                assert (got[si].positions, got[si].lengths) == want, t
                placed += 1
        assert placed > 0

    def test_index_is_the_determinant(self):
        indices = []
        for _, ends, cycle, bounds, connected in REQUESTS:
            for t in enumerate_curve_types(list(ends), bounds, connected):
                for p in place_curves(t, cycle):
                    want = _sympy_index(t, cycle.strata[p.stratum_index])
                    assert p.index == want, t
                    indices.append(p.index)
        assert indices and any(i != 1 for i in indices)


class TestGluedIndexOracle:
    def test_cached_index_is_the_invariant_factor_product(self, monkeypatch):
        # every contributing wiring of Gamma_mu, |mu| <= 4, keeps its full
        # glued rows; sympy's invariant factors of them multiply to the
        # index, which is 2 for mu = (2, 2)
        solvers = []

        class Recording(weights._ResolutionSolver):
            def __init__(self, *args):
                super().__init__(*args)
                solvers.append(self)

        monkeypatch.setattr(weights, "_ResolutionSolver", Recording)
        for n in range(1, 5):
            for mu in enumeration._partitions(n):
                weights.clear_caches()
                weights.curve_weight(gamma_mu(n, mu), 4, "q")
        weights.clear_caches()
        indices = []
        for solver in solvers:
            for index, _, rows in solver.cache.values():
                if index is None:
                    continue
                factors = invariant_factors(sympy.Matrix(rows), domain=sympy.ZZ)
                assert len(factors) == len(rows), rows
                want = 1
                for f in factors:
                    want *= abs(int(f))
                assert index == want, rows
                indices.append(index)
        assert indices and any(i != 1 for i in indices)
