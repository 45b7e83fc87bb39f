"""Curve weights: the generating-function value attached to a general type.

A transverse type factors as its multiplicity times one closed-form weight
per trivalent vertex.  A non-transverse type is resolved by shifting each
internal edge's matching equation by a generic vector and summing over the
combinatorial types of resolutions: per vertex a general replacement curve
with matching outgoing derivatives, glued by signed connector lengths.  Each
solvable resolution contributes its own lattice index times the product of
its vertex-curve weights over their automorphisms; the total is independent
of the shift, which the test suite checks across seeds.

Both the Laurent-series weight and its q-polynomial counterpart run through
the same resolution machinery; only the closed forms at trivalent vertices
differ.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd
from typing import Sequence

from .exactnum import (
    LaurentSeries,
    QHalfLaurent,
    normalized_sin_half,
    q_to_lambda,
    quantum_integer_q,
)
from .feasibility import positive_combinations
from .lattice import (
    INFINITE,
    IntMatrix,
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
    automorphism_count,
    deformation_space,
    is_general,
    is_transverse,
    multiplicity,
    vertex_star,
)


class UnsupportedVertex(ValueError):
    """A vertex weight the source material does not define (refused, not guessed)."""


class DepthExceeded(Exception):
    """A resolution failed to reduce the internal edge count."""


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


# -- vertex closed forms -------------------------------------------------------


def _classify_star(ends: Sequence[tuple[int, int, int]]):
    if len(ends) != 3:
        raise UnsupportedVertex(f"no closed form for a {len(ends)}-valent vertex")
    zeros = [d for d in ends if d == (0, 0, 0)]
    nonzero = [d for d in ends if d != (0, 0, 0)]
    if len(zeros) == 0:
        n = wedge_index(nonzero[0], nonzero[1])
        if n == 0:
            raise UnsupportedVertex("colinear trivalent vertex is not general")
        return ("wedge", n)
    if len(zeros) == 1:
        return ("marker", None)
    raise UnsupportedVertex("vertex with several zero-derivative ends")


def vertex_series(star: CurveType, order: int) -> LaurentSeries:
    """Series weight of a single-vertex type (trivalent closed forms)."""
    kind, n = _classify_star([d for _, d, _ in star.external_edges])
    if kind == "wedge":
        return normalized_sin_half(n, order)
    return LaurentSeries.monomial(1, 1, order)


def vertex_qpoly(star: CurveType) -> QHalfLaurent:
    """q-polynomial weight of a single-vertex type."""
    kind, n = _classify_star([d for _, d, _ in star.external_edges])
    if kind == "wedge":
        return quantum_integer_q(n).scale(Fraction(1, n))
    return QHalfLaurent.one()


def transverse_weight(t: CurveType, order: int, mode: str):
    """Multiplicity times the product of vertex weights (transverse case)."""
    if not is_transverse(t):
        raise ValueError("transverse weight on a non-transverse curve")
    m = multiplicity(t)
    if mode == "lambda":
        acc = LaurentSeries.monomial(m, 0, order)
        for v in t.vertices:
            acc = acc * vertex_series(vertex_star(t, v).star, order)
        return acc
    elif mode == "q":
        acc = QHalfLaurent.monomial(m, 0)
        for v in t.vertices:
            acc = acc * vertex_qpoly(vertex_star(t, v).star)
        return acc
    raise ValueError(f"unknown mode {mode!r}")


# -- shift sampling ------------------------------------------------------------


def sample_shifts(t: CurveType, seed: int) -> tuple[tuple[int, int, int], ...]:
    """Deterministic integral shift per internal edge, scaled by distinct primes."""
    out = []
    for i in range(t.n_internal):
        # the fixed 0 field keeps the draw, and so the trace, of every seed
        rng = random.Random(f"shift:{seed}:0:{i}")
        p = _SMALL_PRIMES[i % len(_SMALL_PRIMES)]
        v = tuple(rng.randint(-3, 3) for _ in range(3))
        out.append(tuple(p * x for x in v))
    return tuple(out)


# -- resolutions ---------------------------------------------------------------


@dataclass(frozen=True)
class Resolution:
    """One solvable combinatorial resolution of a non-transverse curve."""

    vertex_types: tuple[CurveType, ...]   # replacement per vertex, t.vertices order
    index: int                            # lattice index of the glued system


def resolve_with_shifts(t: CurveType, shifts) -> list[Resolution]:
    """All solvable resolutions of t for the shift assignment moved by
    the infinitesimal tie-break of the module docstring.

    Any integral shift is accepted, the zero shift included: a tie at the
    given shift is decided by the perturbation, so the result is that of a
    generic shift arbitrarily close to it.

    Candidates per vertex are general types on the vertex's outgoing
    derivatives; the glued linear system for a candidate tuple asks, per
    internal edge e of t with derivative d, that the replacement attachment
    points differ by shift_e + (signed length) * d.  A candidate tuple counts
    when the system is surjective and admits a solution with every
    replacement length strictly positive.
    """
    stars = {v: vertex_star(t, v) for v in t.vertices}
    # candidate lists per vertex, grouped modulo derivative-preserving relabeling
    groups = []
    for v in t.vertices:
        star = stars[v]
        # genus-zero replacements of the vertex
        groups.append(_group_by_relabeling(enumerate_curve_types(
            [d for _, d, _ in star.star.external_edges],
            SearchBounds(max(len(star.edge_refs) - 3, 0), max_genus=0))))

    # star label of each edge end at its vertex
    label_at = {}
    for vi, v in enumerate(t.vertices):
        for slot, ref in enumerate(stars[v].edge_refs):
            label_at[(vi, ref)] = slot + 1
    vidx = {v: i for i, v in enumerate(t.vertices)}

    solver = _ResolutionSolver(t, vidx, label_at)
    pshifts = solver.projected_shifts(shifts)
    out = []
    for assign in product(*groups):
        reps, cands, invs = zip(*assign)
        index = solver.classify(reps, invs, pshifts)
        if index is not None:
            out.append(Resolution(cands, index))
    return out


def _group_by_relabeling(cands: list[CurveType]):
    """Return [(rep, candidate, inv)] where inv[cand_label - 1] is the rep
    label of the same end (relabeling is the identity on derivatives); reps
    are shared across the group.

    Candidates are grouped by their label-free canonical key.  Composing the
    two canonical vertex orders maps rep onto the candidate; the label
    permutation is read off per (vertex, derivative) group, in label order.
    """
    out = []
    reps: dict = {}
    for c in cands:
        key, order, _ = _canonical_form(c, labeled=False)
        if key not in reps:
            reps[key] = (c, order)
            out.append((c, c, tuple(range(1, c.n_ends + 1))))
            continue
        r, rorder = reps[key]
        sigma = dict(zip(rorder, order))
        labels: dict = {}
        for v, d, l in sorted(c.external_edges, key=lambda e: e[2]):
            labels.setdefault((v, d), []).append(l)
        inv = [0] * r.n_ends
        for v, d, l in sorted(r.external_edges, key=lambda e: e[2]):
            inv[labels[(sigma[v], d)].pop(0) - 1] = l
        out.append((r, c, tuple(inv)))
    return out


class _ResolutionSolver:
    """Solves glued systems once per wiring class; replays per assignment.

    The matrix of a candidate tuple depends only on the replacement shapes
    and on which slot of each replacement every internal edge attaches to.
    Assignments sharing that data up to a renaming of the base edges share
    rank, index and feasibility conditions; only the shift vector permutes.

    The connector length of an edge with derivative d is eliminated up front
    by the integral projection killing d, shrinking each edge's block from 3
    rows to 2; existence with positive replacement lengths, its sign tests,
    and the projected shift all live in the reduced system.  The full
    lattice index is only computed for wirings that actually contribute.
    """

    def __init__(self, t: CurveType, vidx, label_at):
        self.t = t
        self.vidx = vidx
        self.label_at = label_at
        self.cache: dict = {}
        self.kernels: dict = {}   # id(rep) -> integral kernel of its deformations
        self.proj = {}
        for _, _, d in t.internal_edges:
            if d not in self.proj:
                self.proj[d] = quotient_projection(d)
        # static per-edge data: (tail idx, head idx, tail slot, head slot, d)
        self.edge_info = []
        for ei, (a, b, d) in enumerate(t.internal_edges):
            ai, bi = vidx[a], vidx[b]
            self.edge_info.append((ai, bi, label_at[(ai, ("tail", ei))],
                                   label_at[(bi, ("head", ei))], d))

    def _wiring(self, invs):
        """Per edge: (tail vertex, head vertex, tail slot, head slot, d) with
        slots in rep coordinates (candidate slot pulled back through inv)."""
        return [(ai, bi, invs[ai][sa - 1], invs[bi][sb - 1], d)
                for ai, bi, sa, sb, d in self.edge_info]

    def projected_shifts(self, shifts):
        return [self.proj[d].mul_vec(shifts[ei])
                for ei, (_, _, d) in enumerate(self.t.internal_edges)]

    def classify(self, reps, invs, pshifts) -> int | None:
        """The lattice index of a solvable assignment, None for a discard.
        A certificate row vanishing at the shift takes its sign at the
        eps-moved shift (_tie_sign); a zero row has none and discards."""
        wires = self._wiring(invs)
        order = sorted(range(len(wires)), key=lambda i: wires[i])
        key = (tuple(id(r) for r in reps), tuple(wires[i] for i in order))
        entry = self.cache.get(key)
        if entry is None:
            entry = self.cache[key] = self._solve(
                reps, [wires[i] for i in order])
        if entry[1] is None:
            return None
        # projected shift vector in the solved system's edge order
        shift_vec = []
        for i in order:
            shift_vec.extend(pshifts[i])
        for row, pulled in entry[1]:
            v = 0
            for a, s in zip(row, shift_vec):
                if a:
                    v += a * s
            if v < 0 or v == 0 and _tie_sign(pulled, order) <= 0:
                return None
        if entry[0] is None:
            entry[0] = self._full_index(reps, [wires[i] for i in order])
        return entry[0]

    def _rep_data(self, reps):
        dims, kerns, length_rows = [], [], []
        for r in reps:
            kern = self.kernels.get(id(r))
            if kern is None:
                kern = self.kernels[id(r)] = deformation_space(r).lattice
            kerns.append(kern)
            dims.append(kern.cols)
            length_rows.append([3 * r.n_vertices + j for j in range(r.n_internal)])
        offs = []
        acc = 0
        for d in dims:
            offs.append(acc)
            acc += d
        return dims, kerns, length_rows, offs, acc

    @staticmethod
    def _attach_rows(reps, kerns, dims, vi, slot):
        # 3 x dims[vi]: position of the vertex carrying external label `slot`
        # in replacement vi, composed with its kernel basis
        r = reps[vi]
        w = next(v for v, _, l in r.external_edges if l == slot)
        wi = list(r.vertices).index(w)
        kern = kerns[vi]
        return [[kern.entries[3 * wi + c][j] for j in range(dims[vi])]
                for c in range(3)]

    def _solve(self, reps, wires):
        """[index or None, [(certificate row, pulled-back row)] or None if
        rank-deficient]: a left null vector w != 0 pulls back through the
        rank-2 projections to a nonzero row, so w never vanishes on the
        eps-moved shift and the system is never solvable there."""
        k = len(wires)
        dims, kerns, length_rows_per_rep, offs, ncols = self._rep_data(reps)
        rows = []
        for ai, bi, sa, sb, d in wires:
            ra = self._attach_rows(reps, kerns, dims, ai, sa)
            rb = self._attach_rows(reps, kerns, dims, bi, sb)
            p = self.proj[d]
            for prow in p.entries:
                row = [0] * ncols
                for j in range(dims[bi]):
                    row[offs[bi] + j] += sum(prow[c] * rb[c][j] for c in range(3))
                for j in range(dims[ai]):
                    row[offs[ai] + j] -= sum(prow[c] * ra[c][j] for c in range(3))
                rows.append(row)
        if not rows:
            return [1, []]
        # every solution and null vector below is scaled by the same den > 0,
        # which the sign tests and the primitive rows do not see
        rhs_cols = [[1 if i == j else 0 for i in range(2 * k)]
                    for j in range(2 * k)]
        sol = solve_integral(rows, rhs_cols)
        if sol is None:
            return [None, None]
        _, s_cols, null = sol
        # length extraction over the reduced coordinates
        l_rows = []
        for vi in range(len(reps)):
            for r_idx in length_rows_per_rep[vi]:
                row = [0] * ncols
                for j in range(dims[vi]):
                    row[offs[vi] + j] = kerns[vi].entries[r_idx][j]
                l_rows.append(row)
        if not l_rows:
            return [None, []]
        # B = L N and L S
        ln = [[sum(a * b for a, b in zip(lr, nc)) for nc in null] for lr in l_rows]
        conds = positive_combinations(ln)
        ls = [[sum(a * b for a, b in zip(lr, sc)) for sc in s_cols] for lr in l_rows]
        projs = [self.proj[d].entries for *_, d in wires]
        g_rows = []
        seen = set()
        for c in conds:
            row = _int_row([sum(ci * ls[i][j] for i, ci in enumerate(c))
                            for j in range(2 * k)])
            if row not in seen:
                seen.add(row)
                # row . (P_e x) = (row_e P_e) . x per edge block
                pulled = [row[2 * e] * p0 + row[2 * e + 1] * p1
                          for e, (pr0, pr1) in enumerate(projs)
                          for p0, p1 in zip(pr0, pr1)]
                g_rows.append((row, pulled))
        return [None, g_rows]

    def _full_index(self, reps, wires) -> int:
        """Index of the unprojected glued map on the product integral lattice."""
        k = len(wires)
        dims, kerns, _, offs, nred = self._rep_data(reps)
        ncols = k + nred
        rows = []
        for ei, (ai, bi, sa, sb, d) in enumerate(wires):
            ra = self._attach_rows(reps, kerns, dims, ai, sa)
            rb = self._attach_rows(reps, kerns, dims, bi, sb)
            for c in range(3):
                row = [0] * ncols
                row[ei] = -d[c]
                for j in range(dims[bi]):
                    row[k + offs[bi] + j] += rb[c][j]
                for j in range(dims[ai]):
                    row[k + offs[ai] + j] -= ra[c][j]
                rows.append(row)
        if not rows:
            return 1
        idx = lattice_index(IntMatrix.from_rows(rows, cols_hint=ncols))
        if idx is INFINITE:
            raise InvariantError("solvable wiring must have finite index")
        return idx


def _tie_sign(pulled: Sequence[int], order: Sequence[int]) -> int:
    """Sign of the first nonzero coefficient of a pulled-back row (3 entries
    per edge, edges in solved order) read in base-edge order; 0 if none."""
    for e in sorted(range(len(order)), key=order.__getitem__):
        for x in pulled[3 * e:3 * e + 3]:
            if x:
                return 1 if x > 0 else -1
    return 0


def _int_row(row: Sequence[int]) -> tuple[int, ...]:
    """Divide an integer row by the gcd of its entries."""
    g = gcd(*row)
    return tuple(x // g for x in row) if g > 1 else tuple(row)


# -- the gluing recursion ------------------------------------------------------


_WEIGHT_MEMO: dict = {}
_RESOLUTION_MEMO: dict = {}


def clear_caches():
    _WEIGHT_MEMO.clear()
    _RESOLUTION_MEMO.clear()


def _resolutions(t: CurveType, seed: int) -> list[Resolution]:
    """Resolutions for the seeded shift, shared between weight modes."""
    key = (t.canonical_key(), seed)
    hit = _RESOLUTION_MEMO.get(key)
    if hit is None:
        hit = _RESOLUTION_MEMO[key] = resolve_with_shifts(
            t, sample_shifts(t, seed))
    return hit


def curve_weight(t: CurveType, order: int, mode: str, seed: int = 0):
    """Weight of a general curve type: closed product if transverse, else the
    sum over shift resolutions, evaluated recursively.  Each resolution must
    have fewer internal edges per non-transverse replacement than t
    (DepthExceeded otherwise), which bounds the depth by t.n_internal."""
    if mode not in ("lambda", "q"):
        raise ValueError(f"unknown mode {mode!r}")
    key = (t.canonical_key(), order, mode, seed)
    hit = _WEIGHT_MEMO.get(key)
    if hit is not None:
        return hit
    comps = t.component_types()
    if len(comps) > 1:
        acc = None
        for c in comps:
            w = curve_weight(c, order, mode, seed)
            acc = w if acc is None else acc * w
        _WEIGHT_MEMO[key] = acc
        return acc
    if not is_general(t):
        raise ValueError("curve weights are defined for general curves only")
    if is_transverse(t):
        w = transverse_weight(t, order, mode)
        _WEIGHT_MEMO[key] = w
        return w
    resolutions = _resolutions(t, seed)
    for r in resolutions:
        for part in r.vertex_types:
            if not is_transverse(part) and part.n_internal >= t.n_internal:
                raise DepthExceeded(
                    "resolution did not reduce the internal edge count")
    total = (LaurentSeries.zero(order) if mode == "lambda"
             else QHalfLaurent.zero())
    for r in resolutions:
        prod = (LaurentSeries.monomial(r.index, 0, order) if mode == "lambda"
                else QHalfLaurent.monomial(r.index, 0))
        for part in r.vertex_types:
            w = curve_weight(part, order, mode, seed)
            aut = automorphism_count(part)
            prod = prod * w
            if aut != 1:
                prod = prod.scale(Fraction(1, aut))
        total = total + prod
    _WEIGHT_MEMO[key] = total
    return total


def weight_trace(t: CurveType, seed: int = 0) -> dict:
    """Derivation record of curve_weight: the resolution tree with indices.

    Mirrors the recursion without recomputing anything (values come from the
    same memoized calls), so it is cheap to emit after a weight query.
    """
    node: dict = {"ends": [list(d) for _, d, _ in
                           sorted(t.external_edges, key=lambda e: e[2])],
                  "internal_edges": t.n_internal}
    comps = t.component_types()
    if len(comps) > 1:
        node["kind"] = "disconnected"
        node["components"] = [weight_trace(c, seed) for c in comps]
        return node
    if is_transverse(t):
        node["kind"] = "transverse"
        node["multiplicity"] = multiplicity(t)
        node["vertex_wedges"] = []
        for v in t.vertices:
            star = vertex_star(t, v).star
            ends = [d for _, d, _ in star.external_edges]
            kind, n = _classify_star(ends)
            node["vertex_wedges"].append(n if kind == "wedge" else "marker")
        return node
    node["kind"] = "resolved"
    node["resolutions"] = []
    for r in _resolutions(t, seed):
        node["resolutions"].append({
            "index": r.index,
            "vertex_automorphisms": [automorphism_count(p) for p in r.vertex_types],
            "vertex_curves": [weight_trace(p, seed) for p in r.vertex_types],
        })
    return node


def substitution_consistent(t: CurveType, order: int, seed: int = 0) -> bool:
    """Check that the q-weight substituted at q^(1/2) = i e^(i x/2) matches the
    series weight divided by one power of x per zero-derivative end."""
    wq = curve_weight(t, order, "q", seed)
    wl = curve_weight(t, order, "lambda", seed)
    sub, real = q_to_lambda(wq, order)
    if not real:
        return False
    kzero = t.zero_end_count()
    return sub.agrees(wl.shift(-kzero))
