"""Breadth-first tree shapes, per-edge derivative sums and the filter every
enumeration candidate once passed, kept as test oracles.

The library grows its trees depth first and forces every internal derivative
in one pass over the tree rooted at leaf 1.  tree_shapes and tree_to_type
build each level of shapes in full and cut each internal edge by a walk of
its own, as the enumeration once did, and use nothing from
tropgw.enumeration, so the tests can compare the two paths.

The library also takes the genus-0 trees without a rank test or a duplicate
check, and splits only types with a non-primitive internal edge.
enumerate_curve_types takes the library's trees and loop-edge types, splits
every one of them, and passes every candidate, trees included, through the
bounds, the duplicate check and is_general, as the enumeration once did.
enumerate_disconnected walks every set partition of the labels on top of it
and deduplicates the merged unions, which the library takes as they are.
"""

from itertools import combinations, product

from tropgw import enumeration
from tropgw.lattice import primitive_part
from tropgw.tropcurve import CurveType, is_general


def tree_shapes(n: int):
    """Edge lists of leaf-labeled trivalent trees; leaves 1..n, internal > n.
    Every shape of a level is kept until the next level is built."""
    if n < 3:
        return
    shapes = [([(1, n + 1), (2, n + 1), (3, n + 1)], n + 1)]
    for j in range(4, n + 1):
        nxt = []
        for edges, last in shapes:
            for i, (u, v) in enumerate(edges):
                nid = last + 1
                ne = edges[:i] + edges[i + 1:] + [(u, nid), (nid, v), (j, nid)]
                nxt.append((ne, nid))
        shapes = nxt
    for edges, _ in shapes:
        yield edges


def tree_to_type(edges, ends):
    """The type with internal derivatives forced by balancing, None if one is
    zero.  Cutting the internal edge (u, v) and summing the balance over the
    v side leaves -d plus the ends on that side, so d is their sum."""
    n = len(ends)
    nodes = sorted({u for e in edges for u in e})
    internal = [u for u in nodes if u > n]
    adj = {u: [] for u in nodes}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    ext = []
    internal_edges = []
    for u, v in edges:
        if u <= n:
            ext.append((v, tuple(ends[u - 1]), u))
        elif v <= n:
            ext.append((u, tuple(ends[v - 1]), v))
        else:
            stack = [v]
            seen = {u, v}
            leaf_sum = [0, 0, 0]
            while stack:
                w = stack.pop()
                if w <= n:
                    for c in range(3):
                        leaf_sum[c] += ends[w - 1][c]
                    continue
                for x in adj[w]:
                    if x not in seen:
                        seen.add(x)
                        stack.append(x)
            d = tuple(leaf_sum)
            if d == (0, 0, 0):
                return None
            internal_edges.append((u, v, d))
    return CurveType.make(internal, internal_edges, ext)


def enumerate_curve_types(ends, bounds):
    """The connected general types of the ends, every candidate filtered."""
    ends = [tuple(e) for e in ends]
    n = len(ends)
    if n == 0:
        return []
    if n <= 2:
        trees = [CurveType.make([0], (), [(0, e, i + 1)
                                          for i, e in enumerate(ends)])]
    else:
        trees = (enumeration._tree_to_type(edges, ends)
                 for edges in enumeration._tree_shapes(n))
    expanded = [t for t in trees
                if t is not None and not enumeration._cheap_reject(t)]
    if bounds.max_genus > 0:
        box = list(enumeration._box_vectors(bounds.max_derivative_norm))
        layer = list(expanded)
        for _ in range(bounds.max_genus):
            if not (layer and box):
                break
            nxt = []
            for t in layer:
                if t.n_internal + 1 > bounds.max_internal_edges:
                    continue
                for u, w in combinations(t.vertices, 2):
                    path = enumeration._tree_path(t, u, w)
                    for d in box:
                        t2 = enumeration._with_extra_edge(t, path, u, w, d)
                        if not enumeration._cheap_reject(t2):
                            nxt.append(t2)
            expanded.extend(nxt)
            layer = nxt
        for t in list(expanded):
            for s in parallel_splits(t, bounds):
                if not enumeration._cheap_reject(s):
                    expanded.append(s)
    kept = []
    seen = set()
    for t in expanded:
        if t.n_internal > bounds.max_internal_edges:
            continue
        if t.n_internal - t.n_vertices + 1 > bounds.max_genus:
            continue
        key = t.canonical_key()
        if key in seen:
            continue
        seen.add(key)
        if is_general(t):
            kept.append((key, t))
    kept.sort(key=lambda kt: kt[0])
    return [t for _, t in kept]


def parallel_splits(t, bounds):
    """All ways to split internal edges of t into parallel parts, in edge
    order, but the one that splits none; primitive edges included."""
    options = []
    for u, w, d in t.internal_edges:
        p, g = primitive_part(d)
        options.append((u, w, p, list(enumeration._partitions(g))))

    def rec(idx, acc_edges, extra_genus):
        if extra_genus > bounds.max_genus:
            return
        if idx == len(options):
            if len(acc_edges) <= bounds.max_internal_edges:
                yield acc_edges
            return
        u, w, p, opts = options[idx]
        for mu in opts:
            parts = [(u, w, tuple(m * x for x in p)) for m in mu]
            yield from rec(idx + 1, acc_edges + parts, extra_genus + len(mu) - 1)

    for edges in rec(0, [], 0):
        if len(edges) != t.n_internal:
            yield CurveType.make(t.vertices, edges, t.external_edges)


def set_partitions(items):
    """The set partitions of items as lists of blocks, each block in the
    order of items and the blocks by ascending last item."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def enumerate_disconnected(ends, bounds):
    """The unions of this module's connected types over every set partition
    of the labels into balanced blocks, each block enumerated again for every
    partition holding it, and deduplicated by canonical key, as the
    enumeration once did."""
    ends = [tuple(e) for e in ends]
    out = {}
    for part in set_partitions(list(range(1, len(ends) + 1))):
        if any(any(map(sum, zip(*(ends[l - 1] for l in b)))) for b in part):
            continue
        per_block = [[(b, t) for t in enumerate_curve_types(
            [ends[l - 1] for l in b], bounds)] for b in part]
        for combo in product(*per_block):
            merged = enumeration._merge_components(combo)
            out.setdefault(merged.canonical_key(), merged)
    return [out[key] for key in sorted(out)]
