"""Resolutions at an arbitrary integral shift, kept as a test oracle.

The library resolves every non-transverse type at the zero shift moved by
eps e_1 + eps^2 e_2 + ..., where every certificate row ties and its sign is
that of its pulled-back block on the lowest base edge.  The sweep here takes
any shift vector per internal edge instead: it projects the shift, takes the
dot product of each certificate row with it, and only a row that vanishes
there is decided by the same lexicographic tie-break.  sample_shifts draws
seeded integral shifts, scaled by distinct primes, and epsilon_shifts gives
the numeric stand-in for the eps-moved zero shift, so the tests can check
the library's resolutions exactly and its weight at arbitrary shifts.

The replacement candidates, their grouping, the wirings and the glued rows
are the library's; the certificate rows, the projected shift and the sign
test are this module's own.
"""

import random
from functools import reduce
from itertools import product
from math import gcd
from operator import mul

from tropgw import weights
from tropgw.enumeration import SearchBounds, enumerate_curve_types
from tropgw.exactnum import QHalfLaurent
from tropgw.feasibility import positive_combinations
from tropgw.lattice import INFINITE, InvariantError, lattice_index, solve_integral
from tropgw.tropcurve import CurveType, vertex_star

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


def sample_shifts(t: CurveType, seed: int) -> tuple[tuple[int, int, int], ...]:
    """Deterministic integral shift per internal edge, scaled by distinct primes."""
    out = []
    for i in range(t.n_internal):
        # the fixed 0 field keeps the draw of every seed
        rng = random.Random(f"shift:{seed}:0:{i}")
        p = _SMALL_PRIMES[i % len(_SMALL_PRIMES)]
        v = tuple(rng.randint(-3, 3) for _ in range(3))
        out.append(tuple(p * x for x in v))
    return tuple(out)


def epsilon_shifts(k: int, n: int = 2 ** 32) -> tuple[tuple[int, int, int], ...]:
    """The numeric stand-in for the eps-moved zero shift of k edges: the
    coordinates n^(3k-1), ..., n, 1 in base-edge order."""
    flat = [n ** (3 * k - 1 - j) for j in range(3 * k)]
    return tuple(tuple(flat[3 * e:3 * e + 3]) for e in range(k))


def resolve_with_shifts(t: CurveType, shifts) -> list[weights.Resolution]:
    """All solvable resolutions of t at the given shift per internal edge,
    a tie decided by the eps-perturbation of that shift."""
    stars = {v: vertex_star(t, v) for v in t.vertices}
    groups = [weights._group_by_relabeling(enumerate_curve_types(
        [d for _, d, _ in stars[v].star.external_edges],
        SearchBounds(max(len(stars[v].edge_refs) - 3, 0), max_genus=0)))
        for v in t.vertices]
    solver = _ShiftedSolver(t, stars)
    pshifts = solver.projected_shifts(shifts)
    out = []
    for assign in product(*groups):
        reps, cands, invs = zip(*assign)
        index = solver.classify(reps, invs, pshifts)
        if index is not None:
            out.append(weights.Resolution(cands, index))
    return out


def weight(t: CurveType, shifts) -> QHalfLaurent:
    """The q weight of t summed over its resolutions at the given shift:
    index times the library's q weights of the replacement curves."""
    total = QHalfLaurent.zero()
    for r in resolve_with_shifts(t, shifts):
        total = total + reduce(
            mul, (weights.curve_weight(p, 0, "q") for p in r.vertex_types),
            QHalfLaurent.one().scale(r.index))
    return total


class _ShiftedSolver(weights._ResolutionSolver):
    """The library's wiring cache, with the certificate rows kept whole and
    tested against a projected shift."""

    def projected_shifts(self, shifts):
        return [[sum(p * x for p, x in zip(row, s)) for row in self.proj[d]]
                for s, (*_, d) in zip(shifts, self.edge_info)]

    def classify(self, reps, invs, pshifts):
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
        shift_vec = [x for i in order for x in pshifts[i]]
        for row, pulled in entry[1]:
            v = 0
            for a, s in zip(row, shift_vec):
                if a:
                    v += a * s
            if v < 0 or v == 0 and _tie_sign(pulled, order) <= 0:
                return None
        if entry[0] is None:
            entry[0] = lattice_index(entry[2])
            if entry[0] is INFINITE:
                raise InvariantError("solvable wiring must have finite index")
        return entry[0]

    def _solve(self, reps, wires):
        """[index or None, [(certificate row, pulled-back row)] or None if
        rank-deficient, glued rows]."""
        k = len(wires)
        glued, length_cols = self._glue(reps, wires)
        if not k:
            return [None, [], glued]
        projs = [self.proj[d] for *_, d in wires]
        rows = [[sum(p * x for p, x in zip(prow, col))
                 for col in zip(*(r[k:] for r in glued[3 * e:3 * e + 3]))]
                for e, proj in enumerate(projs) for prow in proj]
        rhs_cols = [[1 if i == j else 0 for i in range(2 * k)]
                    for j in range(2 * k)]
        sol = solve_integral(rows, rhs_cols)
        if sol is None:
            return [None, None, glued]
        _, s_cols, null = sol
        if not length_cols:
            return [None, [], glued]
        ln = [[nc[i] for nc in null] for i in length_cols]
        ls = [[sc[i] for sc in s_cols] for i in length_cols]
        g_rows = {}
        for c in positive_combinations(ln):
            row = _int_row([sum(ci * ls[i][j] for i, ci in enumerate(c))
                            for j in range(2 * k)])
            # row . (P_e x) = (row_e P_e) . x per edge block
            g_rows.setdefault(row, [row[2 * e] * p0 + row[2 * e + 1] * p1
                                    for e, (pr0, pr1) in enumerate(projs)
                                    for p0, p1 in zip(pr0, pr1)])
        return [None, list(g_rows.items()), glued]


def _tie_sign(pulled, order) -> int:
    """Sign of the first nonzero coefficient of a pulled-back row (3 entries
    per edge, edges in solved order) read in base-edge order; 0 if none."""
    for e in sorted(range(len(order)), key=order.__getitem__):
        for x in pulled[3 * e:3 * e + 3]:
            if x:
                return 1 if x > 0 else -1
    return 0


def _int_row(row) -> tuple[int, ...]:
    """Divide an integer row by the gcd of its entries."""
    g = gcd(*row)
    return tuple(x // g for x in row) if g > 1 else tuple(row)
