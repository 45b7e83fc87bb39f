"""Curve weights: the generating-function value attached to a general type.

A transverse type factors as its multiplicity times one closed-form weight
per trivalent vertex.  A non-transverse type is resolved at the zero shift
of each internal edge's matching equation, summing over the combinatorial
types of resolutions: per vertex a general replacement curve with matching
outgoing derivatives, glued by signed connector lengths.  Every sign test
ties there and is decided at eps e_1 + eps^2 e_2 + ... over the shift
coordinates in base-edge order, the one genericity rule the placements use
too, so the zero shift acts as a generic one.  Each solvable resolution
contributes the lattice index of its glued rows, built once per wiring,
times the product of its vertex-curve weights; the test suite checks the
total against resolutions at arbitrary shifts.

Each type has one memoized derivation record holding that data, which
weight_trace prints, and the exact q weight, evaluated as the record is
built.  The series weight is that q weight at q^(1/2) = i e^(i x/2), times
x per zero-derivative end.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import product
from operator import mul

from .exactnum import (
    LaurentSeries,
    QHalfLaurent,
    q_to_lambda,
    quantum_integer_q,
)
from .feasibility import positive_combinations
from .lattice import (
    INFINITE,
    InvariantError,
    lattice_index,
    quotient_projection,
    solve_integral,
    wedge_index,
)
from .enumeration import SearchBounds, enumerate_curve_types
from .tropcurve import (
    CurveType,
    _canonical_form,
    _tree_system,
    is_general,
    is_transverse,
    loop_multiplicity,
    vertex_star,
)


class UnsupportedVertex(ValueError):
    """A vertex weight the source material does not define (refused, not guessed)."""


# -- vertex closed forms -------------------------------------------------------


def _wedge(star: CurveType):
    """The wedge index n of a trivalent star, or "marker" for a trivalent
    star with one zero-derivative end; any other star is refused."""
    ends = [d for _, d, _ in star.external_edges]
    if len(ends) != 3:
        raise UnsupportedVertex(f"no closed form for a {len(ends)}-valent vertex")
    nonzero = [d for d in ends if d != (0, 0, 0)]
    if len(nonzero) == 3:
        n = wedge_index(nonzero[0], nonzero[1])
        if n == 0:
            raise UnsupportedVertex("colinear trivalent vertex is not general")
        return n
    if len(nonzero) == 2:
        return "marker"
    raise UnsupportedVertex("vertex with several zero-derivative ends")


def _vertex_weight(n) -> QHalfLaurent:
    """(i^-(1+n) q^(n/2) + i^(1+n) q^(-n/2))/n, or 1 at a marker vertex
    (n is the wedge or "marker")."""
    return (QHalfLaurent.one() if n == "marker"
            else quantum_integer_q(n).scale(Fraction(1, n)))


def vertex_series(star: CurveType, order: int) -> LaurentSeries:
    """Series weight of a single-vertex type (trivalent closed forms)."""
    return _substitute(vertex_qpoly(star), order, star.zero_end_count())


def vertex_qpoly(star: CurveType) -> QHalfLaurent:
    """q-polynomial weight of a single-vertex type."""
    return _vertex_weight(_wedge(star))


def _substitute(w: QHalfLaurent, top: int, k: int) -> LaurentSeries:
    """x^k times w at q^(1/2) = i e^(i x/2), known through x^top.  An
    imaginary residue means the q weight is wrong, never a valid series."""
    if top < k:
        return LaurentSeries.zero(top)
    sub, real = q_to_lambda(w, top - k)
    if not real:
        raise InvariantError("q weight substitutes to a non-real series")
    return sub.shift(k)


# -- resolutions ---------------------------------------------------------------


@dataclass(frozen=True)
class Resolution:
    """One solvable combinatorial resolution of a non-transverse curve."""

    vertex_types: tuple[CurveType, ...]   # replacement per vertex, t.vertices order
    index: int                            # lattice index of the glued system


def resolve_with_shifts(t: CurveType) -> list[Resolution]:
    """All solvable resolutions of t at the zero shift moved by the
    infinitesimal tie-break of the module docstring, so the result is that
    of a generic shift arbitrarily close to zero.

    Candidates per vertex are general types on the vertex's outgoing
    derivatives; the glued linear system for a candidate tuple asks, per
    internal edge e of t with derivative d, that the replacement attachment
    points differ by shift_e + (signed length) * d.  A candidate tuple counts
    when the system is surjective and admits a solution with every
    replacement length strictly positive.
    """
    stars = {v: vertex_star(t, v) for v in t.vertices}
    # genus-zero replacements per vertex, grouped modulo relabeling
    groups = [_group_by_relabeling(enumerate_curve_types(
        [d for _, d, _ in stars[v].star.external_edges],
        SearchBounds(max(len(stars[v].edge_refs) - 3, 0), max_genus=0)))
        for v in t.vertices]

    solver = _ResolutionSolver(t, stars)
    out = []
    for assign in product(*groups):
        reps, cands, invs = zip(*assign)
        index = solver.classify(reps, invs)
        if index is not None:
            out.append(Resolution(cands, index))
    return out


def _group_by_relabeling(cands: list[CurveType]):
    """Return [(rep, candidate, inv)] where inv[cand_label - 1] is the rep
    label of the same end (relabeling is the identity on derivatives); reps
    are shared across the group.

    Candidates are grouped by their label-free canonical key.  Each lists
    its end labels by (position of the end's vertex in its canonical vertex
    order, derivative, label); the ends at one position of the candidate's
    list and of its rep's are the same end.
    """
    out = []
    reps: dict = {}
    for c in cands:
        key, order, _ = _canonical_form(c, labeled=False)
        pos = {v: i for i, v in enumerate(order)}
        labels = [l for _, _, l in sorted(
            c.external_edges, key=lambda e: (pos[e[0]], e[1], e[2]))]
        r, rlabels = reps.setdefault(key, (c, labels))
        inv = [0] * c.n_ends
        for l, rl in zip(labels, rlabels):
            inv[l - 1] = rl
        out.append((r, c, tuple(inv)))
    return out


class _ResolutionSolver:
    """Solves glued systems once per wiring class; replays per assignment.

    The matrix of a candidate tuple depends only on the replacement shapes
    and on which slot of each replacement every internal edge attaches to.
    Assignments sharing that data up to a renaming of the base edges share
    rank, index and feasibility conditions; only the base order of the
    edges, which decides every sign test at the eps-moved zero shift,
    permutes.

    The glued rows of a wiring are built once and kept with its entry.  The
    connector length of an edge with derivative d is eliminated by the
    integral projection killing d, shrinking each edge's block from 3 rows
    to 2; existence with positive replacement lengths and its sign tests
    live in the reduced system.  The lattice index of the kept rows is only
    computed for wirings that actually contribute.
    """

    def __init__(self, t: CurveType, stars):
        self.cache: dict = {}
        self.forms: dict = {}   # id(rep) -> _lattice_forms(rep)
        self.proj = {d: quotient_projection(d) for _, _, d in t.internal_edges}
        # star label of each edge end; an edge-end reference names its vertex
        slot = {ref: s + 1 for v in t.vertices
                for s, ref in enumerate(stars[v].edge_refs)}
        vidx = {v: i for i, v in enumerate(t.vertices)}
        # static per-edge data: (tail idx, head idx, tail slot, head slot, d)
        self.edge_info = [(vidx[a], vidx[b], slot[("tail", ei)],
                           slot[("head", ei)], d)
                          for ei, (a, b, d) in enumerate(t.internal_edges)]

    def _wiring(self, invs):
        """Per edge: (tail vertex, head vertex, tail slot, head slot, d) with
        slots in rep coordinates (candidate slot pulled back through inv)."""
        return [(ai, bi, invs[ai][sa - 1], invs[bi][sb - 1], d)
                for ai, bi, sa, sb, d in self.edge_info]

    def classify(self, reps, invs) -> int | None:
        """The lattice index of a solvable assignment, None for a discard.
        A certificate row takes its sign at the eps-moved zero shift: that
        of its nonzero block on the lowest base edge; a row with no nonzero
        block has none and discards."""
        wires = self._wiring(invs)
        order = sorted(range(len(wires)), key=lambda i: wires[i])
        key = (tuple(id(r) for r in reps), tuple(wires[i] for i in order))
        entry = self.cache.get(key)
        if entry is None:
            entry = self.cache[key] = self._solve(
                reps, [wires[i] for i in order])
        if entry[1] is None:
            return None
        # order[e] is the base index of the solved system's edge e
        for pairs in entry[1]:
            if not pairs or min(pairs, key=lambda p: order[p[0]])[1] < 0:
                return None
        if entry[0] is None:
            entry[0] = lattice_index(entry[2])
            if entry[0] is INFINITE:
                raise InvariantError("solvable wiring must have finite index")
        return entry[0]

    def _glue(self, reps, wires):
        """The glued rows over the k connector lengths, then the product of
        the replacement deformation lattices: per wire the 3 rows "head
        attachment point minus tail attachment point minus d times the
        connector length", and the columns of the replacement lengths,
        counted after the connector columns."""
        k = len(wires)
        forms, offs, ncols = [], [], 0
        for r in reps:
            f = self.forms.get(id(r))
            if f is None:
                f = self.forms[id(r)] = _lattice_forms(r)
            forms.append(f)
            offs.append(ncols)
            ncols += f[0]

        def point(vi, slot):
            # position forms of the vertex carrying external label `slot`
            n, at, _ = forms[vi]
            pad = [0] * (ncols - offs[vi] - n)
            return [[0] * offs[vi] + row + pad for row in at[slot]]

        rows = [[-x if e == ei else 0 for e in range(k)]
                + [h - t for h, t in zip(hr, tr)]
                for ei, (ai, bi, sa, sb, d) in enumerate(wires)
                for x, hr, tr in zip(d, point(bi, sb), point(ai, sa))]
        length_cols = [off + c for off, (_, _, cols) in zip(offs, forms)
                       for c in cols]
        return rows, length_cols

    def _solve(self, reps, wires):
        """[index or None, per certificate row its (edge, sign) pairs or
        None if rank-deficient, glued rows].  The pairs name the solved
        edges whose block of the row, pulled back through the edge's
        projection to the 3 shift coordinates, is nonzero, each with the
        sign of the block's first nonzero entry.  A left null vector w != 0
        pulls back to a nonzero row in the same way, so w never vanishes on
        the eps-moved shift and the system is never solvable there."""
        k = len(wires)   # >= 1: only a type with a loop edge is resolved
        glued, length_cols = self._glue(reps, wires)
        projs = [self.proj[d] for *_, d in wires]
        # P_e d = 0, so the connector columns drop out of the projection
        rows = [[sum(p * x for p, x in zip(prow, col))
                 for col in zip(*(r[k:] for r in glued[3 * e:3 * e + 3]))]
                for e, proj in enumerate(projs) for prow in proj]
        # every solution and null vector below is scaled by the same den > 0,
        # which the sign tests do not see
        rhs_cols = [[1 if i == j else 0 for i in range(2 * k)]
                    for j in range(2 * k)]
        sol = solve_integral(rows, rhs_cols)
        if sol is None:
            return [None, None, glued]
        _, s_cols, null = sol
        # B = L N and L S, where L reads off the replacement lengths
        ln = [[nc[i] for nc in null] for i in length_cols]
        conds = positive_combinations(ln)
        ls = [[sc[i] for sc in s_cols] for i in length_cols]
        certs = {}
        for c in conds:
            row = [sum(ci * ls[i][j] for i, ci in enumerate(c))
                   for j in range(2 * k)]
            pairs = []
            for e, (pr0, pr1) in enumerate(projs):
                # row . (P_e x) = (row_e P_e) . x per edge block
                block = [row[2 * e] * p0 + row[2 * e + 1] * p1
                         for p0, p1 in zip(pr0, pr1)]
                x = next((x for x in block if x), 0)
                if x:
                    pairs.append((e, 1 if x > 0 else -1))
            certs[tuple(pairs)] = None
        return [None, list(certs), glued]


def _lattice_forms(r: CurveType):
    """(ncols, position forms of the vertex of each end label, length
    columns) of a replacement curve.  It has genus 0, so its spanning-tree
    coordinates (root position, then the edge lengths) are a basis of its
    deformation lattice with no loop rows to cut it down."""
    n_roots, ncols, positions, loops = _tree_system(r)
    if loops:
        raise InvariantError("replacement curves have genus 0")
    at = {l: positions[v] for v, _, l in r.external_edges}
    return ncols, at, range(n_roots, ncols)


# -- the gluing recursion ------------------------------------------------------


@dataclass
class _Derivation:
    """What the weight of a type is made of, found once for every query.

    kind "disconnected": parts are the component types.  "transverse": the
    multiplicity and, as parts, the vertex wedges (_wedge) in vertex order.
    "resolved": parts are (index, vertex curves) per resolution; the vertex
    curves are genus-0 labeled trees, so none has a nontrivial automorphism.
    weight is the q weight evaluated from them.
    """

    kind: str
    parts: tuple
    weight: QHalfLaurent
    multiplicity: int = 1


_DERIVATIONS: dict = {}


def clear_caches():
    _DERIVATIONS.clear()


def _derivation(t: CurveType) -> _Derivation:
    """The memoized derivation of t.  The replacement curves of a resolution
    have genus 0, so they are transverse and the recursion stops one level
    down."""
    key = t.canonical_key()
    rec = _DERIVATIONS.get(key)
    if rec is not None:
        return rec
    comps = t.component_types()
    if len(comps) > 1:
        rec = _Derivation("disconnected", tuple(comps), reduce(
            mul, (_derivation(c).weight for c in comps)))
    elif not is_general(t):
        raise ValueError("curve weights are defined for general curves only")
    elif is_transverse(t):
        wedges = tuple(_wedge(vertex_star(t, v).star) for v in t.vertices)
        m = loop_multiplicity(t)
        rec = _Derivation("transverse", wedges, reduce(
            mul, map(_vertex_weight, wedges), QHalfLaurent.one().scale(m)), m)
    else:
        parts = tuple((r.index, r.vertex_types)
                      for r in resolve_with_shifts(t))
        w = QHalfLaurent.zero()
        for index, curves in parts:
            w = w + reduce(mul, (_derivation(c).weight for c in curves),
                           QHalfLaurent.one().scale(index))
        rec = _Derivation("resolved", parts, w)
    _DERIVATIONS[key] = rec
    return rec


def curve_weight(t: CurveType, order: int, mode: str, seed: int = 0):
    """Weight of a general curve type: multiplicity times the vertex weights
    if transverse, else the sum over its resolutions of index times the
    replacement weights, evaluated recursively on the q side.  The series
    weight is known through x^order, or through x^(order + vertices - 1) if
    transverse.

    seed is unused: no weight depends on one.  It is kept only because the
    loop_family workload of perfbench/workloads.py passes it positionally."""
    if mode not in ("lambda", "q"):
        raise ValueError(f"unknown mode {mode!r}")
    rec = _derivation(t)
    if mode == "q":
        return rec.weight
    if rec.kind == "disconnected":
        return reduce(mul, (curve_weight(c, order, mode) for c in rec.parts))
    top = order + t.n_vertices - 1 if rec.kind == "transverse" else order
    return _substitute(rec.weight, top, t.zero_end_count())


def weight_trace(t: CurveType) -> dict:
    """The derivation of curve_weight as a tree: components, or multiplicity
    and vertex wedges, or the resolutions with their indices.

    It reads the record the weight was evaluated from, so it is cheap to
    emit after a weight query.
    """
    rec = _derivation(t)
    node: dict = {"ends": [list(d) for _, d, _ in
                           sorted(t.external_edges, key=lambda e: e[2])],
                  "internal_edges": t.n_internal, "kind": rec.kind}
    if rec.kind == "disconnected":
        node["components"] = [weight_trace(c) for c in rec.parts]
    elif rec.kind == "transverse":
        node.update(multiplicity=rec.multiplicity, vertex_wedges=list(rec.parts))
    else:
        node["resolutions"] = [{
            "index": index,
            "vertex_curves": [weight_trace(p) for p in parts],
        } for index, parts in rec.parts]
    return node


def substitution_consistent(t: CurveType, order: int, seed: int = 0) -> bool:
    """Whether the q weight substituted at q^(1/2) = i e^(i x/2) is a real
    series through x^order, as the series weight derived from it must be.

    seed is unused, and kept only for the same caller as curve_weight's."""
    return q_to_lambda(curve_weight(t, order, "q"), order)[1]
