"""Exact integer and rational linear algebra.

Two kernels, one per kind of question.  One fraction-free elimination
(Bareiss's integer-preserving Gauss-Jordan step) serves every rational
question: solves, ranks and null bases, in integers over one common
denominator.  One unimodular column reduction serves every lattice
question: lattice indices, saturated integral kernels and the canonical
rank-2 quotient projections.  Besides these: primitive vectors and wedge
indices.  Matrices are tiny (tens of rows at most), so everything is plain
arbitrary-precision arithmetic with no sparsity tricks.

A matrix is the sequence of its integer rows; the elimination refuses any
other entry with TypeError, so a caller with rational data clears its
denominators first.  A column count is passed only where a matrix may have
no rows (integral_kernel, saturation); everywhere else it is the length of
the first row.
"""

from __future__ import annotations

from math import gcd, prod
from typing import Sequence


class InvariantError(RuntimeError):
    """An internal invariant of an exact computation failed: a bug, not bad
    input.  Raised explicitly so the check survives ``python -O``."""


class _Infinite:
    """Distinguished non-error return for indices of non-finite quotients."""

    _inst = None

    def __new__(cls):
        if cls._inst is None:
            cls._inst = super().__new__(cls)
        return cls._inst

    def __repr__(self):
        return "INFINITE"


INFINITE = _Infinite()

IntVec = tuple[int, ...]


def _column_reduce(rows: Sequence[Sequence[int]],
                   ncols: int) -> tuple[list[tuple[int, int]], list[list[int]]]:
    """Unimodular column reduction of an integer matrix, one row at a time.

    In each row, the free (not yet pivot) columns with a nonzero entry are
    reduced against the one of least absolute value, lowest index on ties,
    by floor quotients, until one is left: that column becomes the row's
    pivot.  A row whose free entries are all zero has no pivot.  The same
    column operations build a unimodular v with m*v in column echelon form
    (H. Cohen, A Course in Computational Algebraic Number Theory, 2.4).

    Returns (pivots, v): the (column, entry) pivot of each row that has one,
    in row order, and the columns of v.  The columns of v never used as a
    pivot are a basis of the integral kernel of m.
    """
    nrows = len(rows)
    # column j of m with column j of v below it, so one update moves both
    cols = [[r[j] for r in rows] + [0] * ncols for j in range(ncols)]
    for j in range(ncols):
        cols[j][nrows + j] = 1
    free = list(range(ncols))
    pivots: list[tuple[int, int]] = []
    for i in range(nrows):
        live = [j for j in free if cols[j][i]]
        while len(live) > 1:
            p = min(live, key=lambda j: (abs(cols[j][i]), j))
            pcol = cols[p]
            for j in live:
                q = cols[j][i] // pcol[i]
                if j != p and q:
                    cols[j] = [x - q * y for x, y in zip(cols[j], pcol)]
            live = [j for j in live if cols[j][i]]
        if live:
            free.remove(live[0])
            pivots.append((live[0], cols[live[0]][i]))
    return pivots, [c[nrows:] for c in cols]


def lattice_index(rows: Sequence[Sequence[int]]) -> int | _Infinite:
    """Index of the column span of the matrix inside the full integer
    lattice of its rows.

    Finite exactly when the matrix has full row rank; then it is the product
    of the absolute pivot entries of the column echelon form.
    """
    pivots, _ = _column_reduce(rows, len(rows[0]) if rows else 0)
    if len(pivots) < len(rows):
        return INFINITE
    return prod(abs(x) for _, x in pivots)


def primitive_part(v: Sequence[int]) -> tuple[IntVec, int]:
    """Write v = g*p with p primitive pointing the same way; g > 0."""
    if all(x == 0 for x in v):
        raise ValueError("zero vector has no primitive part")
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    return tuple(x // g for x in v), g


def wedge_index(a: Sequence[int], b: Sequence[int]) -> int:
    """gcd of the cross product entries; 0 iff a, b are parallel or zero."""
    cx = (a[1] * b[2] - a[2] * b[1],
          a[2] * b[0] - a[0] * b[2],
          a[0] * b[1] - a[1] * b[0])
    g = 0
    for x in cx:
        g = gcd(g, abs(x))
    return g


def quotient_projection(alpha: Sequence[int]) -> tuple[IntVec, IntVec]:
    """The two rows of the canonical 2x3 projection killing alpha and mapping
    Z^3 onto Z^2.

    Deterministic in primitive_part(alpha): the column reduction of the one
    row primitive_part(alpha) leaves two non-pivot columns of its unimodular
    transform, and these, in cyclic order after the pivot, are the rows.
    """
    p, _ = primitive_part(alpha)
    ((piv, _),), v = _column_reduce([p], 3)
    return tuple(v[(piv + 1) % 3]), tuple(v[(piv + 2) % 3])


def integral_kernel(rows: Sequence[Sequence[int]], ncols: int) -> list[IntVec]:
    """A basis of the saturated integral kernel of the matrix with ncols
    columns."""
    pivots, v = _column_reduce(rows, ncols)
    used = {j for j, _ in pivots}
    return [tuple(c) for j, c in enumerate(v) if j not in used]


def saturation(vectors: Sequence[IntVec], dim: int) -> list[IntVec]:
    """Basis of the saturation of the span of the given vectors in Z^dim."""
    # orthogonal complement of the span, then its orthogonal complement
    return integral_kernel(integral_kernel(vectors, dim), dim)


# -- fraction-free elimination -----------------------------------------------


def _eliminate(a: list[list[int]], n: int) -> tuple[int, list[int]]:
    """Fraction-free Gauss-Jordan elimination on the first n columns, in place.

    Bareiss's step: each update divides exactly by the previous pivot, and
    the rows above the pivot are reduced as well.  Returns (den, pivots)
    with den > 0: pivot row i holds den in column pivots[i], a / den is the
    reduced row echelon form of the input, and the rows past the pivots
    vanish on the first n columns (the remaining columns are carried along).
    """
    m = len(a)
    pivots: list[int] = []
    prev = 1
    for c in range(n):
        r = len(pivots)
        if r == m:
            break
        piv = next((i for i in range(r, m) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        prow = a[r]
        p = prow[c]
        for i in range(m):
            if i == r:
                continue
            f = a[i][c]
            if f:
                a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], prow)]
            elif p != prev:
                a[i] = [p * x // prev for x in a[i]]
        pivots.append(c)
        prev = p
    if prev < 0:
        for i in range(len(pivots)):
            a[i] = [-x for x in a[i]]
    return abs(prev), pivots


def _augmented(rows: Sequence[Sequence[int]],
               rhs_cols: Sequence[Sequence[int]]) -> list[list[int]]:
    """The rows extended by the right-hand side columns, as fresh lists.  An
    entry that is not an integer raises TypeError: the exact divisions of
    the elimination would floor a Fraction without notice."""
    a = [[*r, *(b[i] for b in rhs_cols)] for i, r in enumerate(rows)]
    if not all(isinstance(x, int) for r in a for x in r):
        raise TypeError("the elimination needs integer entries")
    return a


def solve_integral(rows: Sequence[Sequence[int]],
                   rhs_cols: Sequence[Sequence[int]]):
    """Solve rows * x = b for every column b of rhs_cols, in integers.

    Returns (den, sols, null) with den > 0, or None when some system is
    inconsistent.  den * x, one tuple per right-hand side, is the solution of
    the reduced row echelon form with every free variable 0; each null vector
    is den times the reduced null vector that is 1 at its free column.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    a = _augmented(rows, rhs_cols)
    den, pivots = _eliminate(a, n)
    if any(any(row[n:]) for row in a[len(pivots):]):
        return None
    sols = []
    for j in range(n, n + len(rhs_cols)):
        x = [0] * n
        for i, c in enumerate(pivots):
            x[c] = a[i][j]
        sols.append(tuple(x))
    null = []
    for f in sorted(set(range(n)) - set(pivots)):
        v = [0] * n
        v[f] = den
        for i, c in enumerate(pivots):
            v[c] = -a[i][f]
        null.append(tuple(v))
    return den, sols, null


def rational_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals of the integer matrix with these rows."""
    a = _augmented(rows, ())
    return len(_eliminate(a, len(a[0]) if a else 0)[1])
