"""Breadth-first tree shapes and per-edge derivative sums, kept as a test
oracle.

The library grows its trees depth first and forces every internal derivative
in one pass over the tree rooted at leaf 1.  The functions here build each
level of shapes in full and cut each internal edge by a walk of its own, as
the enumeration once did, and use nothing from tropgw.enumeration, so the
tests can compare the two paths.
"""

from tropgw.tropcurve import CurveType


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
