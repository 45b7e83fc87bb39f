"""Bounded enumeration of general curve types and exact placement solving.

Genus zero is a complete search over leaf-labeled trivalent trees, grown
depth first by leaf insertion; the internal derivatives are forced by
balancing in one pass over the tree rooted at leaf 1.  Positive genus
augments the trees two ways: splitting a non-primitive internal edge into
parallel multiples of its primitive direction, and adding extra edges between
existing vertices with a bounded free derivative, rebalancing along the path
between them, which is found once per vertex pair.  Only candidates that can
repeat or fail are filtered: the surviving trees and their splits are general
and distinct as they are, and so are the unions of connected types over the
balanced blocks of a disconnected enumeration, so only the loop-edge types
and their splits pass the genus bound, the duplicate check and is_general.
Completeness holds only within the stated bounds and every caller surfaces
them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Sequence

from .lattice import (
    INFINITE,
    InvariantError,
    integral_kernel,
    lattice_index,
    primitive_part,
    rational_rank,
    saturation,
    solve_integral,
    wedge_index,
)
from .tropcurve import (
    CurveType,
    IntVec3,
    _evaluation_blocks,
    _evaluation_rows,
    _is_general,
    _ints,
    _tree_system,
    _vec3,
)


@dataclass(frozen=True)
class SearchBounds:
    """Finite search window; completeness is only guaranteed inside it.

    max_derivative_norm bounds the free derivative parameters of loop edges
    added between existing vertices; 0 disables that (expensive) mechanism.
    Balancing-forced derivatives and parallel splittings are never bounded.
    """

    max_internal_edges: int = 8
    max_genus: int = 5
    max_derivative_norm: int = 0

    def __post_init__(self):
        if min(self.max_internal_edges, self.max_genus, self.max_derivative_norm) < 0:
            raise ValueError("bounds must be non-negative")

    def to_json(self) -> dict:
        return {"max_internal_edges": self.max_internal_edges,
                "max_genus": self.max_genus,
                "max_derivative_norm": self.max_derivative_norm}

    @staticmethod
    def from_json(d: dict) -> "SearchBounds":
        fields = SearchBounds.__dataclass_fields__
        if not isinstance(d, dict) or not all(
                k in fields and type(v) is int for k, v in d.items()):
            raise ValueError(f"bounds must map some of {', '.join(fields)} "
                             f"to integers")
        return SearchBounds(**d)


# -- constraint cycles ---------------------------------------------------------


@dataclass(frozen=True)
class Stratum:
    base: tuple[Fraction, ...]
    span: tuple[tuple[int, ...], ...]   # basis of the integral tangent lattice
    multiplicity: Fraction


@dataclass(frozen=True)
class ConstraintCycle:
    """Weighted affine strata inside the evaluation space."""

    ambient_dim: int
    strata: tuple[Stratum, ...]

    def __post_init__(self):
        for s in self.strata:
            if len(s.base) != self.ambient_dim:
                raise ValueError("stratum does not match the ambient dimension")
            if any(len(v) != self.ambient_dim for v in s.span):
                raise ValueError("stratum spanning vectors do not match the "
                                 "ambient dimension")
            if rational_rank(s.span) != len(s.span):
                raise ValueError("stratum spanning vectors must be independent")

    def to_json(self) -> dict:
        return {
            "ambient_dim": self.ambient_dim,
            "strata": [{
                "base": [[b.numerator, b.denominator] for b in s.base],
                "spanning": [list(v) for v in s.span],
                "multiplicity": [s.multiplicity.numerator, s.multiplicity.denominator],
            } for s in self.strata],
        }

    @staticmethod
    def from_json(d: dict) -> "ConstraintCycle":
        if not isinstance(d, dict):
            raise ValueError(f"cycle must be an object, got {d!r}")
        dim, strata = d.get("ambient_dim"), d.get("strata")
        if type(dim) is not int or dim < 0:
            raise ValueError(f"ambient_dim must be a non-negative integer, "
                             f"got {dim!r}")
        if not (isinstance(strata, list) and all(isinstance(s, dict) for s in strata)):
            raise ValueError(f"strata must be a list of objects, got {strata!r}")
        return ConstraintCycle(dim, tuple(Stratum(
            _fractions(s.get("base"), "base entries"),
            _ints(s.get("spanning"), "spanning", dim, rows=True),
            _fractions([s.get("multiplicity")], "multiplicity entries")[0])
            for s in strata))


def _fractions(x, what: str) -> tuple[Fraction, ...]:
    """A JSON list of [numerator, denominator] pairs as Fractions."""
    pairs = _ints(x, what, rows=True)
    if not all(len(p) == 2 and p[1] for p in pairs):
        raise ValueError(f"{what} must be [integer, nonzero integer] pairs, "
                         f"got {x!r}")
    return tuple(Fraction(*p) for p in pairs)


# constraints on a single end, in R^3 terms
PointConstraint = tuple  # ("point", (x, y, z))
PlaneConstraint = tuple  # ("plane", coord, value)


def _check_constraint(con) -> None:
    """Refuse a constraint that is not ("point", three coordinates) or
    ("plane", coordinate 0-2, value) with int or Fraction entries: a float
    or bool would silently be read as an exact binary fraction."""
    def _exact(x) -> bool:
        return isinstance(x, (int, Fraction)) and not isinstance(x, bool)

    kind = con[0] if isinstance(con, (tuple, list)) and con else None
    if (kind == "point" and len(con) == 2 and isinstance(con[1], (tuple, list))
            and len(con[1]) == 3 and all(map(_exact, con[1]))):
        return
    if kind == "plane" and len(con) == 3 and type(con[1]) is int and _exact(con[2]):
        if con[1] in (0, 1, 2):
            return
        raise ValueError(f"plane coordinate must be 0, 1 or 2, got {con[1]!r}")
    raise ValueError(
        "a constraint is [\"point\", [x, y, z]] or [\"plane\", coordinate, value]"
        f" with integer or fraction entries, got {con!r}")


def _check_constraints(constraints: dict[int, tuple], n_ends: int) -> None:
    """Refuse a constraint on a label outside 1..n_ends or one that
    _check_constraint refuses."""
    for label, con in constraints.items():
        if type(label) is not int or not 1 <= label <= n_ends:
            raise ValueError(f"constraint on label {label!r}, but the ends are "
                             f"labeled 1..{n_ends}")
        _check_constraint(con)


def cycle_from_constraints(ends: Sequence[IntVec3],
                           constraints: dict[int, tuple]) -> ConstraintCycle:
    """Build the product cycle for per-end affine constraints.

    constraints maps an end label to ("point", (x,y,z)) or
    ("plane", coord_index, value); unconstrained ends contribute their whole
    evaluation block.  A plane constraint on a nonzero end must contain the
    end's direction, otherwise it cuts nothing out and is rejected, as is a
    constraint on a label with no end.
    """
    _check_constraints(constraints, len(ends))
    # one block per end in label order: 3 rows for a zero end, 2 otherwise
    blocks = _evaluation_blocks(tuple(e) for e in ends)
    total = sum(len(blocks[tuple(d)]) for d in ends)
    base: list[Fraction] = []
    span: list[tuple[int, ...]] = []

    def push(local_vectors, offset):
        for c in local_vectors:
            v = [0] * total
            v[offset:offset + len(c)] = c
            span.append(tuple(v))

    def image(block, v):
        return [sum(a * x for a, x in zip(r, v)) for r in block]

    for label, d in enumerate(ends, 1):
        d = tuple(d)
        block = blocks[d]
        off, size = len(base), len(block)
        con = constraints.get(label)
        if con is None:
            base.extend([Fraction(0)] * size)
            push([[int(i == j) for i in range(size)] for j in range(size)], off)
        elif con[0] == "point":
            base.extend(image(block, [Fraction(x) for x in con[1]]))
        else:
            _, coord, value = con
            if d[coord] != 0:
                raise ValueError(
                    f"plane x_{coord}={value} does not constrain an end of derivative {d}")
            base.extend(image(block, [Fraction(value if i == coord else 0)
                                      for i in range(3)]))
            dirs = [c for j, c in enumerate(zip(*block)) if j != coord]
            push(saturation([c for c in dirs if any(c)], size), off)
    return ConstraintCycle(
        total, (Stratum(tuple(base), tuple(span), Fraction(1)),))


# -- tree shapes ---------------------------------------------------------------


def _tree_shapes(n: int):
    """Edge lists of leaf-labeled trivalent trees; leaves 1..n, internal > n.

    Grown depth first: leaf j goes on each edge of the partial tree in turn,
    as the new internal node n + j - 2, so only the partial trees of the
    current branch are alive.
    """
    def grow(edges, j):
        if j > n:
            yield edges
            return
        nid = n + j - 2
        for i, (u, v) in enumerate(edges):
            yield from grow(edges[:i] + edges[i + 1:]
                            + [(u, nid), (nid, v), (j, nid)], j + 1)

    if n >= 3:
        yield from grow([(1, n + 1), (2, n + 1), (3, n + 1)], 4)


def _tree_to_type(edges, ends: Sequence[IntVec3]) -> CurveType | None:
    """Force internal derivatives by balancing; None if some become zero.

    The tree is rooted at leaf 1 and below[x] sums the ends under x.  An
    internal edge (u, v) leaves u with below[v] when v is u's child, and
    otherwise with -below[u], since all the ends balance.
    """
    n = len(ends)
    adj: dict[int, list[int]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    parent = {1: None}
    order = [1]
    for x in order:
        for y in adj[x]:
            if y not in parent:
                parent[y] = x
                order.append(y)
    below = {}
    for x in reversed(order):   # children before their parent
        if x <= n:
            below[x] = ends[x - 1]
        else:
            a, b = (below[y] for y in adj[x] if y != parent[x])
            below[x] = tuple(p + q for p, q in zip(a, b))
    ext = []
    internal_edges = []
    for u, v in edges:
        if u <= n:   # _tree_shapes puts the leaf of an end first
            ext.append((v, ends[u - 1], u))
        else:
            d = below[v] if parent[v] == u else tuple(-x for x in below[u])
            if d == (0, 0, 0):
                return None
            internal_edges.append((u, v, d))
    return CurveType.make(range(n + 1, 2 * n - 1), internal_edges, ext)


def _cheap_reject(t: CurveType) -> bool:
    """Fast necessary-condition filters ahead of the exact generality check.

    On a tree they are sufficient.  Take a cherry v with ends a and b, joined
    to the rest by the edge e.  A zero end pins v; else a and b are not
    parallel, as a colinear vertex is rejected, so their lines pin v.  Then
    e's line is fixed and d_e != 0, so recurse on the smaller tree: evaluation
    is injective.  With no loops the deformation space has dimension
    3 + (n - 3) = n, the number of ends.
    """
    for _, _, d in t.internal_edges:
        if d == (0, 0, 0):
            return True
    for v in t.vertices:
        inc = [d for _, _, d in t.incident(v)]
        nz = [d for d in inc if d != (0, 0, 0)]
        if len(nz) == len(inc) and len(nz) >= 2:
            if all(wedge_index(nz[0], d) == 0 for d in nz[1:]):
                # a colinear vertex is only acceptable when the whole curve is
                # a point; that case has no nonzero derivatives at all
                return True
    return False


def _partitions(n: int):
    """Partitions of n as descending tuples."""
    def rec(rest, maxpart):
        if rest == 0:
            yield ()
            return
        for p in range(min(rest, maxpart), 0, -1):
            for tail in rec(rest - p, p):
                yield (p,) + tail
    yield from rec(n, n)


def _parallel_splits(t: CurveType, bounds: SearchBounds):
    """All ways to split non-primitive internal edges into parallel parts."""
    primitive = [primitive_part(d) for _, _, d in t.internal_edges]
    if all(g == 1 for _, g in primitive):
        return
    options = [(p, list(_partitions(g))) for p, g in primitive]
    def rec(idx, acc_edges, extra_genus):
        if extra_genus > bounds.max_genus:
            return
        if idx == len(options):
            if len(acc_edges) <= bounds.max_internal_edges:
                yield acc_edges
            return
        u, w, _ = t.internal_edges[idx]
        p, opts = options[idx]
        for mu in opts:
            parts = [(u, w, tuple(m * x for x in p)) for m in mu]
            yield from rec(idx + 1, acc_edges + parts, extra_genus + len(mu) - 1)
    for edges in rec(0, [], 0):
        if len(edges) != t.n_internal:   # all singletons reproduce t
            yield CurveType.make(t.vertices, edges, t.external_edges)


def _tree_path(t: CurveType, u: int, w: int):
    """Path of (edge index, aligned) pairs from u to w through internal edges;
    u and w lie in one component."""
    adj = {v: [] for v in t.vertices}
    for i, (a, b, _) in enumerate(t.internal_edges):
        adj[a].append((b, i, True))
        adj[b].append((a, i, False))
    prev = {u: None}
    stack = [u]
    while stack:
        x = stack.pop()
        if x == w:
            break
        for y, i, aligned in adj[x]:
            if y not in prev:
                prev[y] = (x, i, aligned)
                stack.append(y)
    path = []
    x = w
    while prev[x] is not None:
        p, i, aligned = prev[x]
        path.append((i, aligned))
        x = p
    return list(reversed(path))


def _with_extra_edge(t: CurveType, path, u: int, w: int, d: IntVec3) -> CurveType:
    """t with an extra edge u -> w of derivative d, rebalanced along the path
    _tree_path(t, u, w)."""
    edges = list(t.internal_edges)
    for i, aligned in path:
        a, b, old = edges[i]
        s = -1 if aligned else 1
        edges[i] = (a, b, tuple(x + s * y for x, y in zip(old, d)))
    return CurveType.make(t.vertices, edges + [(u, w, d)], t.external_edges)


def _box_vectors(b: int):
    for x in range(-b, b + 1):
        for y in range(-b, b + 1):
            for z in range(-b, b + 1):
                if (x, y, z) != (0, 0, 0):
                    yield (x, y, z)


def enumerate_curve_types(ends: Sequence[IntVec3], bounds: SearchBounds,
                          connected: bool = True) -> list[CurveType]:
    """All general types with the given labeled ends, one per isomorphism class.

    The list is complete within the bounds and deterministically ordered.
    """
    ends = [_vec3(e) for e in ends]
    total = tuple(sum(e[c] for e in ends) for c in range(3))
    if total != (0, 0, 0):
        raise ValueError(f"ends do not balance: total {total}")
    if not connected:
        return _enumerate_disconnected(ends, bounds)
    n = len(ends)
    # a vertex needs 3 ends; a connected type with n ends has >= n - 3 edges
    if n < 3 or n - 3 > bounds.max_internal_edges:
        return []
    trees = [t for t in (_tree_to_type(edges, ends) for edges in _tree_shapes(n))
             if t is not None and not _cheap_reject(t)]
    # each surviving tree is general (see _cheap_reject) and, being fixed by
    # its splits, a type of its own: the key only sorts
    kept = {t.canonical_key(): t for t in trees}
    # extra edges with free bounded derivatives, iterated
    box = list(_box_vectors(bounds.max_derivative_norm))
    loops = []
    layer = trees
    for _ in range(bounds.max_genus):
        if not (layer and box):
            break
        nxt = []
        for t in layer:
            if t.n_internal + 1 > bounds.max_internal_edges:
                continue
            for u, w in combinations(t.vertices, 2):
                path = _tree_path(t, u, w)
                for d in box:
                    t2 = _with_extra_edge(t, path, u, w, d)
                    if not _cheap_reject(t2):
                        nxt.append(t2)
        loops.extend(nxt)
        layer = nxt
    blocks = _evaluation_blocks(ends)
    seen = set(kept)

    def admit(candidates):
        # a split keeps within max_internal_edges but can exceed max_genus;
        # keys of rejects are seen too, to skip isomorphic copies
        for t in candidates:
            if t.n_internal - t.n_vertices + 1 > bounds.max_genus:
                continue
            key = t.canonical_key()
            if key not in seen:
                seen.add(key)
                if _is_general(t, blocks):
                    kept[key] = t

    admit(loops)
    # a split of a surviving tree is general as well, its lengths forced by
    # the tree's, and a type of its own; only a loop edge parallel to a tree
    # edge can reproduce one, and that loop-edge type keeps its place
    for t in trees:
        for s in _parallel_splits(t, bounds):
            kept.setdefault(s.canonical_key(), s)
    seen.update(kept)
    admit(s for t in loops for s in _parallel_splits(t, bounds)
          if not _cheap_reject(s))
    return [kept[key] for key in sorted(kept)]


def _enumerate_disconnected(ends, bounds) -> list[CurveType]:
    """Unions of connected general types over the set partitions of the
    labeled ends into balanced blocks.

    Every component carries at least one end, which is exactly the "no
    trivial components" requirement of the disconnected count.  An
    isomorphism fixes the labels, so it cannot move a component to another
    block: the unions are distinct as they are.
    """
    connected: dict[tuple[int, ...], list[CurveType]] = {}

    def unions(rest):
        """Lists of (block, type) pairs covering the labels rest, the block
        holding rest[0] first; each block's types are enumerated once."""
        if not rest:
            yield []
            return
        for k in range(len(rest)):
            for extra in combinations(rest[1:], k):
                block = (rest[0],) + extra
                if block not in connected:
                    sub = [ends[l - 1] for l in block]
                    connected[block] = ([] if any(map(sum, zip(*sub)))
                                        else enumerate_curve_types(sub, bounds))
                if connected[block]:
                    tails = list(unions([l for l in rest if l not in block]))
                    yield from ([(block, t)] + tail
                                for t in connected[block] for tail in tails)

    # a union numbers its vertices block by block, by ascending highest label
    return sorted((_merge_components(sorted(parts, key=lambda p: p[0][-1]))
                   for parts in unions(list(range(1, len(ends) + 1)))),
                  key=CurveType.canonical_key)


def _merge_components(combo) -> CurveType:
    vertices = []
    internal = []
    external = []
    offset = 0
    for labels, t in combo:
        vmap = {v: offset + i for i, v in enumerate(t.vertices)}
        offset += len(t.vertices)
        vertices.extend(vmap[v] for v in t.vertices)
        internal.extend((vmap[a], vmap[b], d) for a, b, d in t.internal_edges)
        for v, d, l in t.external_edges:
            external.append((vmap[v], d, labels[l - 1]))
    return CurveType.make(vertices, internal, external)


# -- placement ----------------------------------------------------------------


@dataclass(frozen=True)
class Placement:
    """An exact rational solution of the edge equations through one stratum,
    with positive lengths; a length may be 0 only on the tied edges, which
    placement found positive under the infinitesimal perturbation of the
    constraints.  index is |Z^N / (evaluation image + stratum span)|, the
    lattice factor the placement contributes to a count."""

    ctype: CurveType
    stratum_index: int
    positions: dict[int, tuple[Fraction, Fraction, Fraction]]
    lengths: dict[int, Fraction]
    tied: frozenset[int]
    index: int

    def check(self) -> bool:
        for i, (tail, head, d) in enumerate(self.ctype.internal_edges):
            l = self.lengths[i]
            if l < 0 or l == 0 and i not in self.tied:
                return False
            for c in range(3):
                if self.positions[head][c] - self.positions[tail][c] - d[c] * l != 0:
                    return False
        return True


def place_curves(t: CurveType, cycle: ConstraintCycle) -> list[Placement]:
    """Solve the edge equations jointly with each stratum's constraint.

    Every stratum base b is read as b + eps*e_1 + eps^2*e_2 + ... over the
    evaluation coordinates, the tie-break the resolution shifts use
    (simulation of simplicity).  A nonempty null space gives no placement:
    the evaluation image and the stratum are then not complementary, and no
    eps-moved base meets them.  A negative length drops the placement.  Only
    when some length is exactly 0 is the system solved again, with one unit
    right-hand side per evaluation row: a tied length takes the sign of its
    first nonzero eps-coefficient, and one with none is zero on the whole
    family, so the placement is discarded.  A kept placement records the
    tied edges, which its check() then accepts at length 0.

    The index of a placement is the lattice index of the evaluation image of
    the deformation lattice (the integral kernel of the loop rows) together
    with the stratum's spanning vectors.  For a general t and a stratum of
    codimension t.n_ends, the pairs weighted_count makes, these are square
    and, the solution being unique, independent, so the index is finite; an
    infinite one raises InvariantError.
    """
    n_roots, ncols, forms, loops = _tree_system(t)
    ev = _evaluation_rows(
        t, forms, _evaluation_blocks(d for _, d, _ in t.external_edges))
    if len(ev) != cycle.ambient_dim:
        raise ValueError("cycle ambient dimension does not match the ends")
    image = None
    out = []
    for si, stratum in enumerate(cycle.strata):
        # the spanning vectors are the columns of the stratum's block
        span_rows = [[v[i] for v in stratum.span] for i in range(len(ev))]
        rows = [r + [0] * len(stratum.span) for r in loops]
        rows += [r + [-x for x in sr] for r, sr in zip(ev, span_rows)]
        # the base times the lcm of its denominators is an integer column
        scale = lcm(*(b.denominator for b in stratum.base))
        rhs = [b.numerator * (scale // b.denominator) for b in stratum.base]
        sol = solve_integral(rows, [[0] * len(loops) + rhs])
        if sol is None or sol[2]:
            continue
        den, (x,), _ = sol
        part = [Fraction(v, den * scale) for v in x[:ncols]]
        lengths = {i: part[n_roots + i] for i in range(t.n_internal)}
        if any(l < 0 for l in lengths.values()):
            continue
        tied = frozenset(i for i, l in lengths.items() if l == 0)
        if tied and not _ties_positive(rows, len(loops), n_roots, tied):
            continue
        positions = {v: tuple(sum(a * x for a, x in zip(r, part)) for r in forms[v])
                     for v in t.vertices}
        if image is None:
            kernel = integral_kernel(loops, ncols)
            image = [[sum(a * x for a, x in zip(r, k)) for k in kernel]
                     for r in ev]
        index = lattice_index([a + b for a, b in zip(image, span_rows)])
        if index is INFINITE:
            raise InvariantError(
                "a unique placement needs a direct sum of the evaluation "
                "image and the stratum")
        placed = Placement(t, si, positions, lengths, tied, index)
        if not placed.check():
            raise InvariantError("solved placement violates its edge equations")
        out.append(placed)
    return out


def _ties_positive(rows, n_loop_rows: int, first_length: int, tied) -> bool:
    """Whether every tied length is positive at the eps-moved base; the
    solve's column j is the eps^(j+1)-coefficient times its den > 0."""
    n_ev = len(rows) - n_loop_rows
    eps_cols = [[0] * n_loop_rows + [int(i == j) for i in range(n_ev)]
                for j in range(n_ev)]
    sol = solve_integral(rows, eps_cols)
    if sol is None:
        return False
    _, coeffs, _ = sol
    for i in tied:
        col = first_length + i
        if next((x[col] for x in coeffs if x[col]), 0) <= 0:
            return False
    return True
