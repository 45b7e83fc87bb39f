"""Weighted counts of constrained curves and the toric correspondence formulas.

A weighted count pairs every enumerated general type with every stratum of a
constraint cycle, keeps the exact rational placements with positive lengths,
and adds stratum multiplicity times lattice index times exact q weight over
automorphisms; a series count substitutes that q sum once (a ring map, so the
same as adding substituted weights).  On top of that sit the absolute
invariants of convex toric 3-folds, their relative variant for a marked subset
of rays, and the reduced DT polynomial of possibly disconnected curves.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import accumulate
from math import factorial, prod
from typing import Sequence

from .exactnum import LaurentSeries, QHalfLaurent
from .feasibility import cone_meets_cone
from .lattice import lattice_index, primitive_part
from .enumeration import (
    ConstraintCycle,
    SearchBounds,
    _check_constraints,
    cycle_from_constraints,
    enumerate_curve_types,
    place_curves,
)
from .tropcurve import CurveType, _ints, automorphism_count
from .weights import _substitute, curve_weight


# -- toric fans ----------------------------------------------------------------


@dataclass(frozen=True)
class ToricFan:
    """Rays and cones (closed under faces) of a 3-dimensional toric fan."""

    rays: tuple[tuple[int, int, int], ...]
    cones: tuple[tuple[int, ...], ...]
    special: frozenset[int]

    def __post_init__(self):
        seen = set()
        for r in self.rays:
            if len(r) != 3:
                raise ValueError(f"ray {r} does not lie in Z^3")
            p, g = primitive_part(r)
            if g != 1:
                raise ValueError(f"ray {r} is not primitive")
            if r in seen:
                raise ValueError(f"duplicate ray {r}")
            seen.add(r)
        cone_set = {tuple(sorted(c)) for c in self.cones}
        for c in self.cones:
            if len(c) < 1 or len(c) > 3:
                raise ValueError("cones must have 1 to 3 rays")
            if any(i < 0 or i >= len(self.rays) for i in c):
                raise ValueError("cone refers to a missing ray")
            for sub in _faces(tuple(sorted(c))):
                if sub not in cone_set:
                    raise ValueError(f"cones not closed under faces: missing {sub}")
        if any(i < 0 or i >= len(self.rays) for i in self.special):
            raise ValueError("special ray index out of range")

    @staticmethod
    def from_max_cones(rays, max_cones, special=()) -> "ToricFan":
        cones = set()
        for c in max_cones:
            for f in _faces(tuple(sorted(c))):
                if f:
                    cones.add(f)
        return ToricFan(tuple(tuple(r) for r in rays),
                        tuple(sorted(cones)), frozenset(special))

    def is_smooth(self) -> bool:
        # a cone is smooth when its rays extend to a basis of Z^3, that is
        # when its ray rows map Z^3 onto Z^(rays)
        return all(
            lattice_index([self.rays[i] for i in c]) == 1
            for c in self.cones)

    def to_json(self) -> dict:
        return {"rays": [list(r) for r in self.rays],
                "cones": [list(c) for c in self.cones],
                "special_rays": sorted(self.special)}

    @staticmethod
    def from_json(d: dict) -> "ToricFan":
        if not isinstance(d, dict):
            raise ValueError(f"fan must be an object, got {d!r}")
        return ToricFan(_ints(d.get("rays"), "rays", 3, rows=True),
                        _ints(d.get("cones"), "cones", rows=True),
                        frozenset(_ints(d.get("special_rays", []), "special_rays")))


def _faces(c: tuple[int, ...]):
    n = len(c)
    for mask in range(1, 1 << n):
        yield tuple(c[i] for i in range(n) if mask >> i & 1)


def _no_cone_meets_the_rest(fan: ToricFan, cones) -> bool:
    """No listed cone meets the non-negative span of the rays outside it."""
    for c in cones:
        others = [fan.rays[i] for i in range(len(fan.rays)) if i not in c]
        if others and cone_meets_cone([fan.rays[i] for i in c], others):
            return False
    return True


def is_convex(fan: ToricFan) -> bool:
    """No fan stratum meets the non-negative span of the remaining rays."""
    return _no_cone_meets_the_rest(fan, fan.cones)


def is_convex_relative(fan: ToricFan) -> bool:
    """The convexity test restricted to strata containing a special ray."""
    return _no_cone_meets_the_rest(
        fan, [c for c in fan.cones if fan.special.intersection(c)])


# -- weighted counts ------------------------------------------------------------


@dataclass(frozen=True)
class CountRequest:
    ends: tuple[tuple[int, int, int], ...]
    cycle: ConstraintCycle
    connected: bool = True
    mode: str = "lambda"
    bounds: SearchBounds = SearchBounds()

    def __post_init__(self):
        if self.mode not in ("lambda", "q"):
            raise ValueError(f"unknown mode {self.mode!r}")

    def to_json(self) -> dict:
        return {"schema": 1,
                "ends": [list(e) for e in self.ends],
                "cycle": self.cycle.to_json(),
                "connectedness": "connected" if self.connected
                                 else "disconnected-no-trivial",
                "mode": self.mode,
                "bounds": self.bounds.to_json()}

    @staticmethod
    def from_json(d: dict) -> "CountRequest":
        connectedness = d.get("connectedness", "connected")
        if connectedness not in ("connected", "disconnected-no-trivial"):
            raise ValueError(f"unknown connectedness {connectedness!r}")
        return CountRequest(
            _ints(d.get("ends"), "ends", 3, rows=True),
            ConstraintCycle.from_json(d.get("cycle")),
            connectedness == "connected",
            d.get("mode", "lambda"),
            SearchBounds.from_json(d["bounds"]) if "bounds" in d else SearchBounds())


@dataclass
class Contribution:
    ctype: CurveType
    stratum_index: int
    lattice_factor: int
    automorphisms: int
    weight: QHalfLaurent    # the type's q weight, whatever the count's mode

    def to_json(self) -> dict:
        return {"type": self.ctype.to_json(), "stratum": self.stratum_index,
                "index": self.lattice_factor, "aut": self.automorphisms,
                "weight": self.weight.to_json()}


@dataclass
class CountResult:
    value: object
    contributions: list
    bounds: SearchBounds
    attempt: int        # always 0: nothing is resampled
    certified: bool | None = None


def _check_codimension(what: str, codim: int, n_ends: int) -> None:
    """Refuse constraints that do not cut the types of n_ends ends down to
    finitely many curves."""
    if codim != n_ends:
        raise ValueError(f"{what} has codimension {codim}, expected {n_ends} "
                         f"(the count would not be zero-dimensional)")


def weighted_count(req: CountRequest, order: int = 20) -> CountResult:
    """Evaluate the weighted count of constrained general tropical curves.

    The q weights add up exactly, and a lambda count substitutes the total
    once; each contribution carries its type's q weight.  place_curves
    decides a placement that ties at a stratum base by the infinitesimal
    perturbation of that base, so the count is the one at generic positions
    arbitrarily close to the given ones.
    """
    for i, s in enumerate(req.cycle.strata):
        _check_codimension(f"stratum {i}", req.cycle.ambient_dim - len(s.span),
                           len(req.ends))
    types = enumerate_curve_types(list(req.ends), req.bounds,
                                  connected=req.connected)
    total = QHalfLaurent.zero()
    contributions = []
    for t in types:
        placements = place_curves(t, req.cycle)
        if not placements:
            continue
        aut = automorphism_count(t)
        w = curve_weight(t, order, "q")
        for p in placements:
            stratum = req.cycle.strata[p.stratum_index]
            total = total + w.scale(
                Fraction(stratum.multiplicity * p.index, aut))
            contributions.append(Contribution(t, p.stratum_index, p.index, aut, w))
    if req.mode == "lambda":   # every type has the zero ends as its markers
        total = _substitute(total, order, sum(not any(e) for e in req.ends))
    return CountResult(total, contributions, req.bounds, 0)


def certified_count(req: CountRequest, order: int = 20) -> CountResult:
    """Run the count at the stated bounds and again with every bound one
    notch wider; the result is certified when both agree."""
    res = weighted_count(req, order)
    wider = SearchBounds(req.bounds.max_internal_edges + 1,
                         req.bounds.max_genus + 1,
                         req.bounds.max_derivative_norm + 1)
    res2 = weighted_count(replace(req, bounds=wider), order)
    # both series are known through x^order exactly, so == is agreement
    res.certified = res.value == res2.value
    return res


# -- toric invariants ------------------------------------------------------------


def _seeded_point(seed: int, which: int) -> tuple[Fraction, Fraction, Fraction]:
    rng = random.Random(f"point:{seed}:{which}")
    primes = (101, 103, 107)
    return tuple(Fraction(rng.randint(-500, 500), primes[c]) for c in range(3))


def _check_degrees(fan: ToricFan, degrees: Sequence[int]):
    """One non-negative integer degree per ray of the fan."""
    if not isinstance(degrees, (list, tuple)) or len(degrees) != len(fan.rays):
        raise ValueError(f"degrees: one degree per ray required, got {degrees!r}")
    if not all(type(d) is int for d in degrees):
        raise ValueError(f"degrees must be integers, got {list(degrees)!r}")
    if any(d < 0 for d in degrees):
        raise ValueError("degrees must be non-negative")


def _class_ends(fan: ToricFan, degrees: Sequence[int], alpha_ends,
                points: int, seed: int):
    """The ends of a toric class, the alpha ends, then d_i copies of ray i,
    then one marker end per point, and a seeded point constraint on each
    marker."""
    ends = [*alpha_ends, *(r for r, d in zip(fan.rays, degrees)
                          for _ in range(d))]
    markers = {len(ends) + j + 1: ("point", _seeded_point(seed, j))
               for j in range(points)}
    return ends + [(0, 0, 0)] * points, markers


def _toric_count(fan: ToricFan, degrees: Sequence[int], alpha_ends,
                 constraints: dict[int, tuple], points: int, seed: int,
                 connected: bool, bounds: SearchBounds) -> QHalfLaurent:
    """The q count of the class of _class_ends over the d! of each ray; each
    caller takes one power of its variable per boundary intersection.

    Degrees (a class with no ends but markers is refused), balance, labels
    and codimension are checked, and a connected class past the edge bound
    counts zero, before any end is listed.
    """
    _check_degrees(fan, degrees)
    if type(points) is not int or points < 0:
        raise ValueError(f"points must be a non-negative integer, got {points!r}")
    if not (alpha_ends or any(degrees)):
        raise ValueError("the zero class is excluded")
    total = tuple(sum(e[c] for e in alpha_ends)
                  + sum(d * r[c] for r, d in zip(fan.rays, degrees))
                  for c in range(3))
    if total != (0, 0, 0):
        raise ValueError(f"the ends do not balance: {total}")
    _check_constraints(constraints, len(alpha_ends) + sum(degrees))
    # the cycle of the constrained ends alone: label l lies in the first run
    # (one per alpha end, then d_i copies of ray i) whose last label is >= l
    runs = [*alpha_ends, *fan.rays]
    last = list(accumulate([1] * len(alpha_ends) + list(degrees)))
    labels = sorted(constraints)
    cut = cycle_from_constraints(
        [runs[bisect_left(last, l)] for l in labels],
        {i: constraints[l] for i, l in enumerate(labels, 1)})
    n_ends = len(alpha_ends) + sum(degrees) + points
    # each marker costs 3 on its zero end
    _check_codimension("the constraint cycle", cut.ambient_dim
                       - len(cut.strata[0].span) + 3 * points, n_ends)
    # a connected type has at least n_ends - 3 internal edges
    if connected and n_ends - 3 > bounds.max_internal_edges:
        return QHalfLaurent.zero()
    ends, markers = _class_ends(fan, degrees, alpha_ends, points, seed)
    req = CountRequest(tuple(ends), cycle_from_constraints(
        ends, {**constraints, **markers}), connected, "q", bounds)
    return weighted_count(req).value.scale(
        Fraction(1, prod(factorial(d) for d in degrees)))


def absolute_invariant(fan: ToricFan, degrees: Sequence[int], points: int,
                       order: int = 20, seed: int = 0,
                       bounds: SearchBounds = SearchBounds()) -> LaurentSeries:
    """Point-constrained absolute invariants of a convex toric 3-fold.

    Counts curves with one end per boundary intersection plus one marker end
    per point, then divides by d! and one power of the series variable per
    intersection point with the boundary.
    """
    if not is_convex(fan):
        raise ValueError("fan fails the convexity requirement")
    raw = _toric_count(fan, degrees, (), {}, points, seed, True, bounds)
    return _substitute(raw, order, points).shift(-sum(degrees))


def relative_invariant(fan: ToricFan, degrees: Sequence[int],
                       alpha_ends: Sequence[tuple[int, int, int]],
                       constraints: dict[int, tuple],
                       order: int = 20,
                       bounds: SearchBounds = SearchBounds()) -> LaurentSeries:
    """Invariants relative to the non-special boundary: extra labeled ends are
    kept, while special boundary intersections are summed out with the same
    per-ray normalization as the absolute case.

    degrees apply to special rays only (zero for the rest); alpha_ends are the
    retained labeled ends, constrained via `constraints` (label-keyed, in the
    combined list where alpha ends come first).
    """
    if not is_convex_relative(fan):
        raise ValueError("fan fails the relative convexity requirement")
    if any(d != 0 and i not in fan.special for i, d in enumerate(degrees)):
        raise ValueError("nonzero degree on a non-special ray")
    raw = _toric_count(fan, degrees, alpha_ends, constraints, 0, 0, True,
                       bounds)
    markers = sum(not any(e) for e in alpha_ends)
    return _substitute(raw, order, markers).shift(-sum(degrees))


def reduced_dt(fan: ToricFan, degrees: Sequence[int], points: int,
               seed: int = 0,
               bounds: SearchBounds = SearchBounds()) -> QHalfLaurent:
    """Reduced DT generating polynomial: the q-weighted count of possibly
    disconnected curves with no end-free components, times q^(d/2)/d! per ray."""
    if not is_convex(fan):
        raise ValueError("fan fails the convexity requirement")
    # no early zero: the components of a disconnected type can each fit the
    # edge bound that the whole class exceeds
    raw = _toric_count(fan, degrees, (), {}, points, seed, False, bounds)
    return raw * QHalfLaurent.monomial(1, sum(degrees))


def derive_line_factor(order: int = 20, seed: int = 0) -> LaurentSeries:
    """Re-derive the boundary normalization from the one-line-through-a-point
    count on the product of three projective lines: with the known invariant
    equal to 1/x, the squared factor is (1/x)/W, and W is computed here."""
    fan = p1_cubed_fan()
    degrees = [0] * 6
    degrees[_ray_index(fan, (1, 0, 0))] = 1
    degrees[_ray_index(fan, (-1, 0, 0))] = 1
    # W is the bare count: undo the normalization by x^2 (1/1!^2 is 1)
    w = absolute_invariant(fan, degrees, 1, order, seed).shift(2)
    known = LaurentSeries.monomial(1, -1, order)
    ratio = known * w.inverse()
    # the ratio must be an even monomial; its square root is the factor
    if ratio.coeffs != (1,) or ratio.low % 2 != 0:
        raise ValueError(f"unexpected derivation ratio {ratio}")
    return LaurentSeries.monomial(1, ratio.low // 2, order)


# -- bundled fans ----------------------------------------------------------------


def cp3_fan(special: Sequence[int] = ()) -> ToricFan:
    rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]
    max_cones = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    return ToricFan.from_max_cones(rays, max_cones, special)


def p1_cubed_fan(special: Sequence[int] = ()) -> ToricFan:
    rays = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    max_cones = []
    for x in (0, 1):
        for y in (2, 3):
            for z in (4, 5):
                max_cones.append((x, y, z))
    return ToricFan.from_max_cones(rays, max_cones, special)


def _ray_index(fan: ToricFan, ray) -> int:
    return fan.rays.index(tuple(ray))
