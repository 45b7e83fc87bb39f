"""Combinatorial types of tropical curves in R^3 and their linear algebra.

A type records vertices, internal edges with integral derivative vectors, and
labeled external rays.  The stored orientation of an internal edge is pure
bookkeeping: an edge (tail, head, d) contributes +d to the balance at its
tail and -d at its head, and a placement satisfies

    x_head - x_tail - d * length = 0        (one 3-row block per edge)

so flipping (tail, head, d) to (head, tail, -d) changes nothing.  All derived
invariants (transversality, multiplicities, generality) are exact.

Types are told apart through one canonical labeling (colour refinement plus
individualization, as in McKay and Piperno's nauty): isomorphism is equality
of canonical keys, the automorphism count is the number of search leaves
reaching the key times the orders of the parallel-edge permutations, and a
relabeling between two isomorphic types composes their canonical orders.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import factorial
from typing import Iterable, Sequence

from .lattice import (
    INFINITE,
    lattice_index,
    quotient_projection,
    rational_rank,
)

IntVec3 = tuple[int, int, int]


def _vec3(v: Sequence[int]) -> IntVec3:
    if len(v) != 3 or not all(type(x) is int for x in v):
        raise ValueError(f"derivatives live in Z^3, got {v!r}")
    return tuple(v)


def _ints(x, what: str, width: int | None = None, rows: bool = False) -> tuple:
    """x as a tuple if it is a JSON list of integers, of width entries when a
    width is given; with rows, a list of such lists as a tuple of tuples.
    A bool, float or string is refused: int() would read 1.5, "1" or true as
    1 without notice."""
    items = x if rows and isinstance(x, list) else [x]
    if all(isinstance(v, list) and width in (None, len(v))
           and all(type(c) is int for c in v) for v in items):
        return tuple(map(tuple, items)) if rows else tuple(x)
    where = f" in Z^{width}" if width else ""
    raise ValueError(f"{what} must be {'lists' if rows else 'a list'} of "
                     f"integers{where}, got {x!r}")


class UnbalancedCurve(ValueError):
    pass


class DisconnectedCurve(ValueError):
    pass


@dataclass(frozen=True)
class CurveType:
    """Combinatorial type of a parametrized tropical curve in R^3."""

    vertices: tuple[int, ...]
    internal_edges: tuple[tuple[int, int, IntVec3], ...]
    external_edges: tuple[tuple[int, IntVec3, int], ...]  # (vertex, derivative, label)

    @staticmethod
    def make(vertices: Iterable[int],
             internal_edges: Iterable[tuple[int, int, Sequence[int]]],
             external_edges: Iterable[tuple[int, Sequence[int], int]]) -> "CurveType":
        vs = tuple(vertices)
        if len(set(vs)) != len(vs):
            raise ValueError("duplicate vertex ids")
        ies = tuple((t, h, _vec3(d)) for t, h, d in internal_edges)
        ees = tuple((v, _vec3(d), l) for v, d, l in external_edges)
        t = CurveType(vs, ies, ees)
        t._validate()
        return t

    def _validate(self):
        vset = set(self.vertices)
        for t, h, _ in self.internal_edges:
            if t not in vset or h not in vset:
                raise ValueError("internal edge attached to unknown vertex")
        for v, _, _ in self.external_edges:
            if v not in vset:
                raise ValueError("external edge attached to unknown vertex")
        labels = sorted(l for _, _, l in self.external_edges)
        if labels != list(range(1, len(labels) + 1)):
            raise ValueError("external labels must be a permutation of 1..n")
        bal = {v: [0, 0, 0] for v in self.vertices}
        for t, h, d in self.internal_edges:
            for i in range(3):
                bal[t][i] += d[i]
                bal[h][i] -= d[i]
        for v, d, _ in self.external_edges:
            for i in range(3):
                bal[v][i] += d[i]
        for v, s in bal.items():
            if s != [0, 0, 0]:
                raise UnbalancedCurve(f"vertex {v} unbalanced: residue {tuple(s)}")

    # -- basic structure ---------------------------------------------------

    @property
    def n_ends(self) -> int:
        return len(self.external_edges)

    @property
    def n_internal(self) -> int:
        return len(self.internal_edges)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    def zero_end_count(self) -> int:
        return sum(1 for _, d, _ in self.external_edges if d == (0, 0, 0))

    def incident(self, v: int) -> list[tuple[str, int, IntVec3]]:
        """Edges leaving v as (kind, index, outgoing derivative).

        kind is 'ext' (index = position in external_edges), 'tail' or 'head'
        (index = position in internal_edges).  A self-loop shows up twice.
        """
        out = []
        for i, (vv, d, _) in enumerate(self.external_edges):
            if vv == v:
                out.append(("ext", i, d))
        for i, (t, h, d) in enumerate(self.internal_edges):
            if t == v:
                out.append(("tail", i, d))
            if h == v:
                out.append(("head", i, tuple(-x for x in d)))
        return out

    def components(self) -> list[tuple[int, ...]]:
        adj = {v: set() for v in self.vertices}
        for t, h, _ in self.internal_edges:
            adj[t].add(h)
            adj[h].add(t)
        seen = set()
        comps = []
        for v in self.vertices:
            if v in seen:
                continue
            stack, comp = [v], []
            while stack:
                u = stack.pop()
                if u in seen:
                    continue
                seen.add(u)
                comp.append(u)
                stack.extend(adj[u] - seen)
            comps.append(tuple(sorted(comp)))
        return comps

    def is_connected(self) -> bool:
        return len(self.components()) <= 1

    def component_types(self) -> list["CurveType"]:
        """Split a disconnected type into its connected pieces.

        Each piece keeps its vertices and edges; its end labels are
        renumbered 1..m in the order of their labels in the whole curve.
        """
        comps = self.components()
        if len(comps) <= 1:
            return [self]
        out = []
        for comp in comps:
            cset = set(comp)
            ies = [(t, h, d) for t, h, d in self.internal_edges if t in cset]
            ees = [(v, d, l) for v, d, l in self.external_edges if v in cset]
            relabel = {l: i + 1 for i, (_, _, l) in enumerate(sorted(ees, key=lambda e: e[2]))}
            ees = [(v, d, relabel[l]) for v, d, l in ees]
            out.append(CurveType.make(comp, ies, ees))
        return out

    def flip_edge(self, i: int) -> "CurveType":
        """Reverse the stored orientation of internal edge i (a no-op semantically)."""
        t, h, d = self.internal_edges[i]
        ies = list(self.internal_edges)
        ies[i] = (h, t, tuple(-x for x in d))
        return CurveType(self.vertices, tuple(ies), self.external_edges)

    def map_derivatives(self, m: Sequence[Sequence[int]]) -> "CurveType":
        """Apply the integral-linear map with rows m to every derivative."""
        def image(d):
            return tuple(sum(a * x for a, x in zip(r, d)) for r in m)
        ies = tuple((t, h, image(d)) for t, h, d in self.internal_edges)
        ees = tuple((v, image(d), l) for v, d, l in self.external_edges)
        return CurveType.make(self.vertices, ies, ees)

    def canonical_key(self):
        """Hashable key identifying the type up to vertex relabeling
        and edge orientation/reordering; external labels are significant."""
        return _canonical_form(self)[0]

    def to_json(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "internal_edges": [
                {"tail": t, "head": h, "derivative": list(d)}
                for t, h, d in self.internal_edges],
            "external_edges": [
                {"vertex": v, "derivative": list(d), "label": l}
                for v, d, l in self.external_edges],
        }

    @staticmethod
    def from_json(d: dict) -> "CurveType":
        def edges(kind: str, ids: tuple[str, str]):
            es = d.get(kind)
            if not (isinstance(es, list) and all(isinstance(e, dict) for e in es)):
                raise ValueError(f"{kind} must be a list of objects, got {es!r}")
            for e in es:
                for k in ids:
                    if type(e.get(k)) is not int:
                        raise ValueError(f"{kind} {k} must be an integer, "
                                         f"got {e.get(k)!r}")
            return [(e[ids[0]], e[ids[1]],
                     _ints(e.get("derivative"), f"{kind} derivative", 3)) for e in es]
        return CurveType.make(
            _ints(d.get("vertices"), "vertices"),
            edges("internal_edges", ("tail", "head")),
            [(v, dv, l) for v, l, dv in edges("external_edges", ("vertex", "label"))])


# -- moduli ------------------------------------------------------------------


def genus(t: CurveType) -> int:
    if not t.is_connected():
        raise DisconnectedCurve("genus is defined for connected curves only")
    return t.n_internal - t.n_vertices + 1


def _evaluation_blocks(ends: Iterable[IntVec3]) -> dict[IntVec3, tuple]:
    """The rows of the evaluation block of each distinct end derivative: the
    identity on the attached vertex position for a zero derivative, else the
    projection killing the derivative (the position of the end's line, not
    the point)."""
    return {d: ((1, 0, 0), (0, 1, 0), (0, 0, 1)) if d == (0, 0, 0)
            else quotient_projection(d) for d in set(ends)}


_Positions = dict[int, tuple[list[int], ...]]   # vertex -> 3 coordinate rows


def _tree_system(t: CurveType) -> tuple[int, int, _Positions, list[list[int]]]:
    """The edge equations of t in spanning-forest coordinates, as (n_roots,
    ncols, positions, loops).

    Each component is walked breadth-first from its first vertex in
    t.vertices order.  The ncols unknowns are 3 root coordinates per
    component, then one length per internal edge: length j is column
    n_roots + j.  positions maps each vertex to its 3 coordinate rows, its
    root plus the sum of +-d_e * l_e along its tree path, so the tree edges
    hold identically; every other edge leaves the 3 loop rows
    x_head - x_tail - d * l = 0, which have no root column.  The change of
    unknowns is invertible over Z, so ranks, unique solutions and the
    integral kernel lattice are those of the full edge system.
    """
    adj: dict[int, list] = {v: [] for v in t.vertices}
    for e, (tail, head, _) in enumerate(t.internal_edges):
        adj[tail].append((head, e, 1))
        adj[head].append((tail, e, -1))
    # step[w] = (component, parent, edge, sign): x_w = x_parent + sign*d*l
    step: dict[int, tuple] = {}
    order: list[int] = []
    n_comp = 0
    for root in t.vertices:
        if root in step:
            continue
        step[root] = (n_comp, None, 0, 0)
        n_comp += 1
        i = len(order)
        order.append(root)
        while i < len(order):
            v = order[i]
            i += 1
            for w, e, s in adj[v]:
                if w not in step:
                    step[w] = (step[v][0], v, e, s)
                    order.append(w)
    n_roots = 3 * n_comp
    ncols = n_roots + t.n_internal
    positions: _Positions = {}
    tree = set()
    for v in order:
        comp, parent, e, s = step[v]
        if parent is None:
            rows = tuple([0] * ncols for _ in range(3))
            for c in range(3):
                rows[c][3 * comp + c] = 1
        else:
            tree.add(e)
            d = t.internal_edges[e][2]
            rows = tuple(list(r) for r in positions[parent])
            for c in range(3):
                rows[c][n_roots + e] += s * d[c]
        positions[v] = rows
    loops = []
    for e, (tail, head, d) in enumerate(t.internal_edges):
        if e in tree:
            continue
        for c in range(3):
            row = [a - b for a, b in zip(positions[head][c], positions[tail][c])]
            row[n_roots + e] -= d[c]
            loops.append(row)
    return n_roots, ncols, positions, loops


def _evaluation_rows(t: CurveType, positions: _Positions,
                     blocks: dict[IntVec3, tuple]) -> list[list[int]]:
    """The end blocks in label order, blocks[d] for an end of derivative d,
    applied to the tree position of the end's vertex."""
    rows = []
    for v, d, _ in sorted(t.external_edges, key=lambda end: end[2]):
        at = list(zip(*positions[v]))
        rows.extend([b0 * x + b1 * y + b2 * z for x, y, z in at]
                    for b0, b1, b2 in blocks[d])
    return rows


def is_transverse(t: CurveType) -> bool:
    """The edge equations have full row rank: so do the loop rows."""
    *_, loops = _tree_system(t)
    return rational_rank(loops) == len(loops)


def loop_multiplicity(t: CurveType) -> int:
    """Index of the image of the edge equations inside Z^(3k), computed
    from the independent loop relations.

    The spanning tree of _tree_system eliminates the vertex positions; each
    remaining edge closes a loop whose equation sum(+-d_e l_e) = 0 supplies
    one 3-row block, full rank exactly when the curve is transverse.
    """
    if not t.is_connected():
        raise DisconnectedCurve("loop relations need a connected curve")
    *_, loops = _tree_system(t)
    idx = lattice_index(loops)
    if idx is INFINITE:
        raise ValueError("loop multiplicity requires a transverse curve")
    return idx


# -- generality ---------------------------------------------------------------


def is_general(t: CurveType) -> bool:
    """Deformation dimension equals the number of ends and evaluation is injective.

    Both are ranks on the forest system: the kernel of the loop rows has
    dimension n_ends, and it meets the kernel of the evaluation map only in
    0, that is the loop rows stacked on the evaluation rows have full column
    rank.
    """
    return _is_general(
        t, _evaluation_blocks(d for _, d, _ in t.external_edges))


def _is_general(t: CurveType, blocks: dict[IntVec3, tuple]) -> bool:
    """is_general with the evaluation blocks of t's end derivatives given."""
    _, ncols, positions, loops = _tree_system(t)
    if rational_rank(loops) != ncols - t.n_ends:
        return False
    ev = _evaluation_rows(t, positions, blocks)
    return rational_rank(loops + ev) == ncols


# -- automorphisms ------------------------------------------------------------


def automorphism_count(t: CurveType) -> int:
    """Automorphisms fixing every labeled external edge.

    Vertex bijections must preserve the multiset of internal edges up to
    orientation flip and fix the attachment of every labeled end; parallel
    identical edges may be permuted freely, contributing factorials.
    """
    key, _, n_aut = _canonical_form(t)
    for c in Counter(key[0]).values():
        n_aut *= factorial(c)
    return n_aut


# -- local models -------------------------------------------------------------


@dataclass(frozen=True)
class VertexStar:
    """Single-vertex type collecting the outgoing derivatives at a vertex.

    edge_refs[i] says where external label i+1 of the star comes from:
    ('ext', j) for external edge j of the parent, ('tail', e) / ('head', e)
    for end of internal edge e.
    """

    star: CurveType
    edge_refs: tuple[tuple[str, int], ...]


def vertex_star(t: CurveType, v: int) -> VertexStar:
    if v not in t.vertices:
        raise ValueError(f"unknown vertex {v}")
    ends = []
    refs = []
    for kind, i, d in t.incident(v):
        refs.append((kind, i))
        ends.append(d)
    star = CurveType.make(
        (0,), (), [(0, d, i + 1) for i, d in enumerate(ends)])
    return VertexStar(star, tuple(refs))


# -- isomorphism --------------------------------------------------------------


def _canonical_form(t: CurveType, labeled: bool = True):
    """Canonical labeling by colour refinement and individualization.

    Returns (key, order, n_aut).  Vertices start coloured by their ends, as
    (derivative, label) or, with labeled=False, (derivative,); refinement
    splits each colour by the multiset of (neighbour colour, outgoing
    derivative) until the number of cells is stable.  The search then
    individualizes each vertex of the first non-singleton cell in turn and
    recurses.  Each leaf (a discrete colouring) encodes t as its sorted edges,
    each as the smaller of its two orientations on vertex positions, and its
    sorted ends.  key is the least encoding followed by the vertex count,
    order the vertex order of a leaf reaching it, and n_aut the number of
    leaves reaching it.  The search is not pruned, so the vertex
    automorphisms act freely and transitively on those leaves and n_aut is
    their number.
    """
    n = t.n_vertices
    at = {v: i for i, v in enumerate(t.vertices)}
    ends = [[] for _ in range(n)]
    for v, d, l in t.external_edges:
        ends[at[v]].append((d, l) if labeled else (d,))
    nbrs = [[] for _ in range(n)]
    edges = []
    for a, b, d in t.internal_edges:
        i, j, nd = at[a], at[b], tuple(-x for x in d)
        nbrs[i].append((j, d))
        nbrs[j].append((i, nd))
        edges.append((i, j, d, nd))

    def ranked(sigs):
        rank = {s: r for r, s in enumerate(sorted(set(sigs)))}
        return [rank[s] for s in sigs], len(rank)

    best = order = None
    n_aut = 0
    # depth-first over an explicit stack; children are pushed in reverse
    # vertex order so they are visited in vertex order
    stack = [ranked([tuple(sorted(e)) for e in ends])]
    while stack:
        colour, cells = stack.pop()
        while True:
            refined, k = ranked([
                (colour[i], tuple(sorted((colour[j], d) for j, d in nbrs[i])))
                for i in range(n)])
            if k == cells:
                break
            colour, cells = refined, k
        if cells < n:
            target = min(c for c in colour if colour.count(c) > 1)
            for i in reversed(range(n)):
                if colour[i] == target:
                    stack.append(ranked([(c, j != i) for j, c in enumerate(colour)]))
            continue
        enc = (tuple(sorted(min((colour[i], colour[j], d), (colour[j], colour[i], nd))
                            for i, j, d, nd in edges)),
               tuple(sorted((colour[i],) + e for i in range(n) for e in ends[i])))
        if best is None or enc < best:
            best, n_aut = enc, 0
            order = tuple(t.vertices[i] for i in sorted(range(n), key=colour.__getitem__))
        if enc == best:
            n_aut += 1

    return best + (n,), order, n_aut


def are_isomorphic(t1: CurveType, t2: CurveType) -> bool:
    """Isomorphism fixing external labels (orientation flips allowed)."""
    return t1.canonical_key() == t2.canonical_key()
