"""The full edge system of a curve type, kept as a test oracle.

The library decides every lattice question in spanning-forest coordinates
(tropcurve._tree_system).  The functions here build the 3k x (3n + k) system
x_head - x_tail - d * length = 0 directly on vertex positions and lengths,
sharing no code with the forest system, so the tests can compare the two.
"""

from tropgw.lattice import INFINITE, integral_kernel, lattice_index
from tropgw.tropcurve import CurveType


def edge_equation_matrix(t: CurveType) -> list[list[int]]:
    """The 3k x (3n + k) system: x_head - x_tail - d*l = 0 per internal edge,
    columns 3 per vertex in t.vertices order, then one length per edge."""
    vindex = {v: i for i, v in enumerate(t.vertices)}
    nv, k = t.n_vertices, t.n_internal
    rows = []
    for e, (tail, head, d) in enumerate(t.internal_edges):
        for c in range(3):
            row = [0] * (3 * nv + k)
            row[3 * vindex[head] + c] += 1
            row[3 * vindex[tail] + c] -= 1
            row[3 * nv + e] -= d[c]
            rows.append(row)
    return rows


def deformation_space(t: CurveType) -> list[tuple[int, ...]]:
    """The integral tangent lattice of the type: a basis of the saturated
    integral kernel of the edge equations."""
    return integral_kernel(edge_equation_matrix(t),
                           3 * t.n_vertices + t.n_internal)


def multiplicity(t: CurveType) -> int:
    """Index of the image of the edge equations inside Z^(3k); finite
    exactly when the type is transverse (ValueError otherwise)."""
    idx = lattice_index(edge_equation_matrix(t))
    if idx is INFINITE:
        raise ValueError("multiplicity requires a transverse curve")
    return idx
