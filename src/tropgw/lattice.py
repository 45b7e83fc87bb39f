"""Exact integer and rational linear algebra.

One fraction-free elimination kernel (Bareiss's integer-preserving
Gauss-Jordan step) serves every solve, rank, null basis and determinant, in
integers over one common denominator.  Smith normal form is kept only where
its transforms or an index are needed: lattice indices and saturated
integral kernels.  Besides these: primitive vectors, wedge indices and the
canonical rank-2 quotient projections.  Matrices are tiny (tens of rows at
most), so everything is plain arbitrary-precision arithmetic with no
sparsity tricks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence


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


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix, row-major; shape is explicit so zero-row and
    zero-column matrices keep their dimensions."""

    entries: tuple[tuple[int, ...], ...]
    rows: int
    cols: int

    @staticmethod
    def from_rows(rows: Iterable[Sequence[int]], cols_hint: int = 0) -> "IntMatrix":
        rs = tuple(tuple(int(x) for x in r) for r in rows)
        if rs and any(len(r) != len(rs[0]) for r in rs):
            raise ValueError("ragged rows")
        c = len(rs[0]) if rs else cols_hint
        return IntMatrix(rs, len(rs), c)

    @staticmethod
    def from_cols(cols: Iterable[Sequence[int]], rows_hint: int = 0) -> "IntMatrix":
        cs = [tuple(int(x) for x in c) for c in cols]
        if not cs:
            return IntMatrix(tuple(() for _ in range(rows_hint)), rows_hint, 0)
        m = len(cs[0])
        if any(len(c) != m for c in cs):
            raise ValueError("ragged columns")
        return IntMatrix(tuple(tuple(c[i] for c in cs) for i in range(m)), m, len(cs))

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(tuple(tuple(1 if i == j else 0 for j in range(n))
                               for i in range(n)), n, n)

    @staticmethod
    def zero(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix(tuple(tuple(0 for _ in range(cols)) for _ in range(rows)),
                         rows, cols)

    def col(self, j: int) -> IntVec:
        return tuple(r[j] for r in self.entries)

    def columns(self) -> list[IntVec]:
        return [self.col(j) for j in range(self.cols)]

    def transpose(self) -> "IntMatrix":
        if self.rows == 0 or self.cols == 0:
            return IntMatrix.zero(self.cols, self.rows)
        return IntMatrix(tuple(zip(*self.entries)), self.cols, self.rows)

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        ot = other.transpose()
        return IntMatrix(tuple(
            tuple(sum(a * b for a, b in zip(row, col)) for col in ot.entries)
            for row in self.entries), self.rows, other.cols)

    def mul_vec(self, v: Sequence) -> tuple:
        if self.cols != len(v):
            raise ValueError("dimension mismatch")
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self.entries)


def smith_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return (D, U, V) with U*m*V = D, D diagonal with d1 | d2 | ..., U, V unimodular."""
    a = [list(r) for r in m.entries]
    R, C = m.rows, m.cols
    u = [[1 if i == j else 0 for j in range(R)] for i in range(R)]
    v = [[1 if i == j else 0 for j in range(C)] for i in range(C)]

    def row_op(i, j, q):  # row_i -= q * row_j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for r in a:
            r[i] -= q * r[j]
        for r in v:
            r[i] -= q * r[j]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    t = 0
    while True:
        # locate the smallest nonzero entry in the trailing block
        pivot = None
        for i in range(t, R):
            for j in range(t, C):
                if a[i][j] != 0 and (pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        # clear row and column t; pivot may move as remainders shrink
        while True:
            moved = False
            for i in range(t + 1, R):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    row_op(i, t, q)
                    if a[i][t] != 0:
                        swap_rows(t, i)
                        moved = True
            for j in range(t + 1, C):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    col_op(j, t, q)
                    if a[t][j] != 0:
                        swap_cols(t, j)
                        moved = True
            if not moved and all(a[i][t] == 0 for i in range(t + 1, R)) \
                    and all(a[t][j] == 0 for j in range(t + 1, C)):
                break
        # divisibility: pivot must divide the rest of the block
        fixed = False
        for i in range(t + 1, R):
            for j in range(t + 1, C):
                if a[i][j] % a[t][t] != 0:
                    # fold row i into row t and redo this pivot
                    a[t] = [x + y for x, y in zip(a[t], a[i])]
                    u[t] = [x + y for x, y in zip(u[t], u[i])]
                    fixed = True
                    break
            if fixed:
                break
        if fixed:
            continue
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1
        if t >= min(R, C):
            break
    return (IntMatrix.from_rows(a, cols_hint=C),
            IntMatrix.from_rows(u, cols_hint=R),
            IntMatrix.from_rows(v, cols_hint=C))


def invariant_factors(m: IntMatrix) -> tuple[int, ...]:
    d, _, _ = smith_normal_form(m)
    out = []
    for i in range(min(m.rows, m.cols)):
        if d.entries[i][i] != 0:
            out.append(d.entries[i][i])
    return tuple(out)


def lattice_index(m: IntMatrix) -> int | _Infinite:
    """Index of the column span of m inside the full integer lattice of its rows.

    Finite exactly when m has full row rank; then it is the product of the
    invariant factors.
    """
    facs = invariant_factors(m)
    if len(facs) < m.rows:
        return INFINITE
    out = 1
    for f in facs:
        out *= f
    return out


def determinant(m: IntMatrix) -> int:
    """Determinant from the fraction-free elimination: sign * den, or 0."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    den, pivots, sign = _eliminate([list(r) for r in m.entries], m.cols)
    return sign * den if len(pivots) == m.rows else 0


def direct_sum_index(cols_a: Sequence[IntVec], cols_b: Sequence[IntVec],
                     ambient_dim: int) -> int | _Infinite:
    """|Z^ambient / (span(cols_a) + span(cols_b))| for a complementary pair.

    The two column families must jointly have exactly ambient_dim columns
    (that is a caller error, reported as such); a singular square matrix is
    the expected non-complementary case and yields INFINITE.
    """
    cols = list(cols_a) + list(cols_b)
    if len(cols) != ambient_dim:
        raise ValueError(
            f"column counts {len(cols_a)}+{len(cols_b)} do not match ambient dimension {ambient_dim}")
    for c in cols:
        if len(c) != ambient_dim:
            raise ValueError("column lives in the wrong ambient space")
    det = determinant(IntMatrix.from_cols(cols, rows_hint=ambient_dim))
    return abs(det) if det != 0 else INFINITE


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


def quotient_projection(alpha: Sequence[int]) -> IntMatrix:
    """The canonical 2x3 projection killing alpha and mapping Z^3 onto Z^2.

    Deterministic in primitive_part(alpha): the primitive vector is reduced to
    a coordinate vector by tracked integer row operations with a fixed pivot
    rule, and the two untouched basis rows become the projection.
    """
    p, _ = primitive_part(alpha)
    vec = list(p)
    rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    while sum(1 for x in vec if x != 0) > 1:
        piv = min((i for i in range(3) if vec[i] != 0), key=lambda i: (abs(vec[i]), i))
        for j in range(3):
            if j != piv and vec[j] != 0:
                q = vec[j] // vec[piv]
                if q != 0:
                    vec[j] -= q * vec[piv]
                    rows[j] = [x - q * y for x, y in zip(rows[j], rows[piv])]
    piv = next(i for i in range(3) if vec[i] != 0)
    if vec[piv] < 0:
        rows[piv] = [-x for x in rows[piv]]
    # rotate the pivot row to the front, keeping the cyclic order of the rest
    order = [(piv + i) % 3 for i in range(3)]
    return IntMatrix.from_rows([rows[order[1]], rows[order[2]]])


def integral_kernel(m: IntMatrix) -> IntMatrix:
    """Columns form a basis of the saturated integral kernel of m."""
    if m.cols == 0:
        return IntMatrix.zero(0, 0)
    d, _, v = smith_normal_form(m)
    r = sum(1 for i in range(min(m.rows, m.cols)) if d.entries[i][i] != 0)
    cols = [v.col(j) for j in range(r, m.cols)]
    return IntMatrix.from_cols(cols, rows_hint=m.cols)


def saturation(cols: Sequence[IntVec], ambient_dim: int) -> IntMatrix:
    """Basis of the saturation of the span of the given integral columns."""
    if not cols:
        return IntMatrix.zero(ambient_dim, 0)
    m = IntMatrix.from_cols(cols, rows_hint=ambient_dim)
    # orthogonal complement of the span, then its orthogonal complement
    perp = integral_kernel(m.transpose())
    return integral_kernel(perp.transpose())


# -- fraction-free elimination -----------------------------------------------


def _integer_row(row: Sequence[Fraction | int]) -> list[int]:
    """The row times the least common multiple of its denominators; scaling an
    equation leaves its solution set unchanged."""
    den = 1
    for x in row:
        den = lcm(den, x.denominator)
    return [x.numerator * (den // x.denominator) for x in row]


def _eliminate(a: list[list[int]], n: int) -> tuple[int, list[int], int]:
    """Fraction-free Gauss-Jordan elimination on the first n columns, in place.

    Bareiss's step: each update divides exactly by the previous pivot, and
    the rows above the pivot are reduced as well.  Returns (den, pivots,
    sign) with den > 0: pivot row i holds den in column pivots[i], a / den is
    the reduced row echelon form of the input, and the rows past the pivots
    vanish on the first n columns (the remaining columns are carried along).
    sign is (-1)^(row swaps) times the sign of the last pivot, so a
    nonsingular square matrix has determinant sign * den.
    """
    m = len(a)
    pivots: list[int] = []
    prev = 1
    swaps = 0
    for c in range(n):
        r = len(pivots)
        if r == m:
            break
        piv = next((i for i in range(r, m) if a[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            swaps += 1
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
    sign = -1 if swaps % 2 else 1
    if prev < 0:
        sign = -sign
        for i in range(len(pivots)):
            a[i] = [-x for x in a[i]]
    return abs(prev), pivots, sign


def solve_integral(rows: Sequence[Sequence[Fraction | int]],
                   rhs_cols: Sequence[Sequence[Fraction | int]]):
    """Solve rows * x = b for every column b of rhs_cols, in integers.

    Returns (den, sols, null) with den > 0, or None when some system is
    inconsistent.  den * x, one tuple per right-hand side, is the solution of
    the reduced row echelon form with every free variable 0; each null vector
    is den times the reduced null vector that is 1 at its free column.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    a = [_integer_row(list(r) + [b[i] for b in rhs_cols])
         for i, r in enumerate(rows)]
    den, pivots, _ = _eliminate(a, n)
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


def solve_rational(rows: Sequence[Sequence[Fraction | int]],
                   rhs: Sequence[Fraction | int]):
    """Solve rows * x = rhs over the rationals.

    Returns (particular, basis) where basis spans the solution space of the
    homogeneous system, or None when inconsistent.
    """
    sol = solve_integral(rows, [rhs])
    if sol is None:
        return None
    den, (part,), null = sol
    return (tuple(Fraction(x, den) for x in part),
            [tuple(Fraction(x, den) for x in v) for v in null])


def rational_rank(rows: Sequence[Sequence[Fraction | int]]) -> int:
    a = [_integer_row(r) for r in rows]
    return len(_eliminate(a, len(a[0]) if a else 0)[1])
