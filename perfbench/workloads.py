"""The four benchmark workloads.

Each workload function takes the imported ``tropgw`` package and the
benchmark seed and returns a ``Workload``: a list of items, each one exact
computation, and a check that compares every item's value with an oracle.
Items look their functions up through the package at call time, so a traced
run sees the wrapped functions; closures over function objects would bypass
the tracer.

Why each workload was chosen, and which layer metric should move its
``wall_s``, is set out in README.md next to this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from perfbench import oracles


@dataclass
class Workload:
    items: list[tuple[str, Callable[[], object]]]
    # values (None where the item raised) -> one (ok, canonical text) per item
    check: Callable[[list], list[tuple[bool, str]]]


def _canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _partitions(n: int, largest: int | None = None):
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for p in range(min(n, largest), 0, -1):
        for tail in _partitions(n - p, p):
            yield (p,) + tail


def _matches(got: dict, oracle, min_order: int) -> bool:
    """A series value equals its oracle through the value's own truncation
    order, which must reach ``min_order``.  Products of series with positive
    valuation are known past the requested order, so the value may carry
    more exact terms than were asked for."""
    order = got["truncation_order"]
    return order >= min_order and got == oracles.series_json(oracle(order),
                                                             order)


def _gamma_mu_doc(mu) -> dict:
    """Two vertices joined by one internal edge (0, 0, m) per part m."""
    n = sum(mu)
    ends = [(1, (1, 0, 0), 1), (0, (0, 1, 0), 2),
            (1, (-1, 0, n), 3), (0, (0, -1, -n), 4)]
    return {"vertices": [0, 1],
            "internal_edges": [{"tail": 0, "head": 1, "derivative": [0, 0, m]}
                               for m in mu],
            "external_edges": [{"vertex": v, "derivative": list(d), "label": l}
                               for v, d, l in ends]}


# -- loop_family ---------------------------------------------------------------

LOOP_ORDER = 20
LOOP_MAX_TOTAL = 4   # 11 partitions, about 1 s cold; see README.md
# The shift seed is fixed rather than taken from the benchmark seed.  Its
# cost is bimodal: for some seeds a shift drawn for one of the families is
# non-generic and the retry redoes that family's sweep, so one repetition
# costs 1x or up to 1.6x depending on the seed and no bound could hold
# across seeds.  Shift seed 15 is the first seed (of 0-15) at which exactly
# one shift is rejected: every repetition pays exactly one resample, so a
# change to the retry path shows, at a fixed share.
LOOP_SHIFT_SEED = 15


def loop_family(tg, seed: int) -> Workload:
    """The benchmark seed orders the items within each pass; the total work
    does not depend on the order, which memo reuse must not change."""
    rng = random.Random(f"loop_family:{seed}")
    mus = [mu for total in range(1, LOOP_MAX_TOTAL + 1)
           for mu in _partitions(total)]
    types = {mu: tg.CurveType.from_json(_gamma_mu_doc(mu)) for mu in mus}
    lam_order = rng.sample(mus, len(mus))
    q_order = rng.sample(mus, len(mus))
    items = []
    for mu in lam_order:
        items.append((f"lambda weight mu={mu}",
                      lambda t=types[mu]: tg.weights.curve_weight(
                          t, LOOP_ORDER, "lambda", LOOP_SHIFT_SEED)))
    for mu in q_order:
        # the q pass reuses the resolutions memoized by the lambda pass
        items.append((f"q weight mu={mu}",
                      lambda t=types[mu]: (
                          tg.weights.substitution_consistent(
                              t, LOOP_ORDER, LOOP_SHIFT_SEED),
                          tg.weights.curve_weight(
                              t, LOOP_ORDER, "q", LOOP_SHIFT_SEED))))

    def check(values):
        out = []
        for mu, v in zip(lam_order, values[:len(mus)]):
            if v is None:
                out.append((False, "raised"))
                continue
            got = v.to_json()
            ok = _matches(got, lambda k, mu=mu: oracles.gamma_mu(mu, k),
                          LOOP_ORDER)
            out.append((ok, _canonical(got)))
        for v in values[len(mus):]:
            if v is None:
                out.append((False, "raised"))
                continue
            consistent, wq = v
            out.append((consistent is True,
                        _canonical([consistent, wq.to_json()])))
        return out

    return Workload(items, check)


# -- enumerate -----------------------------------------------------------------

_CP3 = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]
_P1CUBED = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
_MARK = (0, 0, 0)

# (label, ends, (max_internal_edges, max_genus, max_derivative_norm), count)
ENUMERATE_SETS = [
    ("cp3 rays + 2 markers", _CP3 + [_MARK] * 2, (8, 5, 0), 90),
    ("p1cubed rays", _P1CUBED, (8, 5, 0), 68),
    ("doubled cp3 rays + 1 marker",
     [(2, 0, 0), (0, 2, 0), (0, 0, 2), (-2, -2, -2), _MARK], (8, 5, 0), 60),
    ("cp3 rays + 1 marker, loop-edge search", _CP3 + [_MARK], (5, 1, 1), 48),
]


def enumerate_types(tg, seed: int) -> Workload:
    # A signed coordinate permutation (it keeps the derivative box) and an
    # end relabeling: both preserve the number of general types.
    rng = random.Random(f"enumerate:{seed}")
    perm = rng.sample(range(3), 3)
    signs = [rng.choice((1, -1)) for _ in range(3)]
    items = []
    for label, ends, bounds, _ in ENUMERATE_SETS:
        moved = [tuple(signs[c] * e[perm[c]] for c in range(3)) for e in ends]
        rng.shuffle(moved)
        sb = tg.SearchBounds(*bounds)
        items.append((label, lambda moved=moved, sb=sb:
                      tg.enumeration.enumerate_curve_types(moved, sb)))

    def check(values):
        out = []
        for (_, _, _, count), v in zip(ENUMERATE_SETS, values):
            if v is None:
                out.append((False, "raised"))
                continue
            digest = hashlib.sha256(
                _canonical([t.to_json() for t in v]).encode()).hexdigest()
            out.append((len(v) == count, f"{len(v)}:{digest}"))
        return out

    return Workload(items, check)


# -- toric ---------------------------------------------------------------------

TORIC_ORDER = 20   # the command line default


def toric(tg, seed: int) -> Workload:
    data = Path(tg.__file__).parent / "data"

    def path(name):
        p = data / name
        if not p.is_file():
            raise FileNotFoundError(p)
        return str(p)

    cp3, p13 = path("cp3.json"), path("p1cubed.json")
    requests = [
        ("absolute cp3", ["absolute", cp3, "--degrees", "1", "--points", "2"]),
        ("absolute p1cubed",
         ["absolute", p13, "--degrees", "1,1,0,0,0,0", "--points", "1"]),
        ("dt p1cubed", ["dt", p13, "--degrees", "1,1,0,0,0,0", "--points", "1"]),
        ("count family1 A", ["count", path("s3_family1_configA.json")]),
        ("count family1 B", ["count", path("s3_family1_configB.json")]),
        ("count family3 A", ["count", path("s3_family3_n3_configA.json")]),
        ("count family3 B", ["count", path("s3_family3_n3_configB.json")]),
        ("fgamma mu=(2,1) q",
         ["fgamma", path("gamma_mu_21.json"), "--mode", "q"]),
    ]
    common = ["--format", "json", "--seed", str(seed)]

    def call(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = tg.cli.main(argv)
        return code, buf.getvalue()

    items = [(label, lambda argv=argv + common: call(argv))
             for label, argv in requests]

    # Series oracles as (function of the truncation order, least order);
    # a degree-d class is shifted by -sum(d), so the P^3 results are asked
    # through order 16 and the P^1 x P^1 x P^1 ones through 18.
    series_oracles = {
        "absolute cp3": (oracles.sinc_squared, 16),
        "absolute p1cubed": (lambda k: {-1: 1}, 18),
    }
    # the reduced DT polynomial q, in half-exponent units
    q_oracles = {
        "dt p1cubed": [[2, [1, 1]]],
    }

    def check(values):
        docs = {}
        out = []
        for (label, _), v in zip(requests, values):
            if v is None or v[0] != 0:
                docs[label] = None
                continue
            docs[label] = json.loads(v[1])["value"]
        for label, _ in requests:
            got = docs[label]
            if got is None:
                out.append((False, "failed"))
                continue
            if label in series_oracles:
                ok = _matches(got, *series_oracles[label])
            elif label in q_oracles:
                ok = got == q_oracles[label]
            elif label.startswith("count"):
                pair = label[:-1] + ("B" if label.endswith("A") else "A")
                ok = docs[pair] is not None and got == docs[pair]
            else:   # fgamma in q mode: substitute and compare with lambda
                sub, real = oracles.substitute_q(got, TORIC_ORDER)
                ok = real and (oracles.series_json(sub, TORIC_ORDER)
                               == oracles.series_json(
                                   oracles.gamma_mu((2, 1), TORIC_ORDER),
                                   TORIC_ORDER))
            out.append((ok, _canonical(got)))
        return out

    return Workload(items, check)


# -- series --------------------------------------------------------------------

SERIES_ORDER = 20   # the command line default
SERIES_PARTITION_MAX = 7
SERIES_TRIPLES = 12
SERIES_WEDGE_PAIRS = 24


def _planar_triples(rng: random.Random, count: int):
    """Coplanar triples whose brackets are all positively oriented, as the
    planar bracket relation needs: det(a,b), det(b,c), det(a,c) > 0 and
    det(a,b) > det(b,c)."""
    out = []
    while len(out) < count:
        a1, a2, b1, b2, c1, c2 = (rng.randint(-3, 3) for _ in range(6))
        d_ab, d_bc, d_ac = a1 * b2 - a2 * b1, b1 * c2 - b2 * c1, a1 * c2 - a2 * c1
        if d_ab > 0 and d_bc > 0 and d_ac > 0 and d_ab > d_bc:
            out.append(((a1, a2, 0), (b1, b2, 0), (c1, c2, 0)))
    return out


def _wedge_pairs(rng: random.Random, count: int):
    """End pairs a in z = 0, b in z = 1 with wedge index 1..6."""
    out = []
    while len(out) < count:
        a = (rng.randint(-3, 3), rng.randint(-3, 3), 0)
        b = (rng.randint(-3, 3), rng.randint(-3, 3), 1)
        n = oracles.wedge_index(a, b)
        if 1 <= n <= 6:
            out.append((a, b, n))
    return out


def series(tg, seed: int) -> Workload:
    rng = random.Random(f"series:{seed}")
    ids = tg.identities
    items = [("recursions through 16",
              lambda: ids.recursion_matches_closed_form(16, SERIES_ORDER))]
    for n in range(1, SERIES_PARTITION_MAX + 1):
        items.append((f"partition identity n={n}",
                      lambda n=n: ids.partition_identity_holds(n, SERIES_ORDER)))
    for a, b, c in _planar_triples(rng, SERIES_TRIPLES):
        items.append((f"planar bracket {a} {b} {c}",
                      lambda a=a, b=b, c=c: ids.pluecker_identity_holds(
                          a, b, c, SERIES_ORDER)))
    wedges = _wedge_pairs(rng, SERIES_WEDGE_PAIRS)
    for a, b, n in wedges:
        third = tuple(-(x + y) for x, y in zip(a, b))
        star = tg.CurveType.make([0], (), [(0, a, 1), (0, b, 2), (0, third, 3)])
        items.append((f"vertex weight {a} {b}",
                      lambda star=star: tg.weights.vertex_series(
                          star, SERIES_ORDER)))
    items.append(("substitution bridge through 12",
                  lambda: ids.substitution_bridge_holds(12, SERIES_ORDER)))
    first_wedge = len(items) - 1 - len(wedges)

    def check(values):
        out = []
        for i, v in enumerate(values):
            if first_wedge <= i < first_wedge + len(wedges):
                if v is None:
                    out.append((False, "raised"))
                    continue
                n = wedges[i - first_wedge][2]
                got = v.to_json()
                ok = _matches(got, lambda k, n=n: oracles.vertex_weight(n, k),
                              SERIES_ORDER)
                out.append((ok, _canonical(got)))
            else:
                out.append((v is True, _canonical(v)))
        return out

    return Workload(items, check)


WORKLOADS = {
    "loop_family": loop_family,
    "enumerate": enumerate_types,
    "toric": toric,
    "series": series,
}
