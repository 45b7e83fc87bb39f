"""Command line front end: JSON in, JSON or tables out.

Exit codes: 0 success, 1 identity-suite failure, 2 malformed input (every
file goes through _read, which reports "path: field ..."), 4 unsupported
vertex weight.  Code 3 is retired: nothing is resampled, and the "attempt"
key of a count is always 0.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import replace

from .enumeration import SearchBounds, _check_constraint, enumerate_curve_types
from .exactnum import QHalfLaurent
from .identities import SUITES
from .invariants import (CountRequest, ToricFan, _check_degrees,
                         absolute_invariant, certified_count, reduced_dt,
                         relative_invariant, weighted_count)
from .tropcurve import CurveType, _ints
from .weights import UnsupportedVertex, curve_weight, weight_trace

EXIT_IDENTITY = 1
EXIT_PARSE = 2
EXIT_VERTEX = 4


class ParseFailure(Exception):
    pass


def _read(path: str, parse):
    """parse applied to the JSON object in path.  Each way the file can be
    malformed, a ValueError from parse naming the field among them, is a
    ParseFailure that starts with the path."""
    try:
        with open(path) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("expected a JSON object at the top level")
        schema = data.get("schema", 1)
        if type(schema) is not int or schema != 1:
            raise ValueError(f"unsupported schema {schema!r}")
        return parse(data)
    except OSError as exc:
        raise ParseFailure(f"{path}: {exc.strerror}")
    except json.JSONDecodeError as exc:
        raise ParseFailure(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}")
    except ValueError as exc:
        raise ParseFailure(f"{path}: {exc}")


def _relative(d: dict):
    """(fan, degrees, alpha_ends, constraints) of a relative request."""
    fan, degrees = ToricFan.from_json(d.get("fan")), d.get("degrees")
    _check_degrees(fan, degrees)
    alpha_ends = _ints(d.get("alpha_ends", []), "alpha_ends", 3, rows=True)
    constraints = d.get("constraints", {})
    # "01" or "١" would name end 1 too, and the last of them would win
    if not (isinstance(constraints, dict)
            and all(k.isdecimal() and k == str(int(k)) for k in constraints)):
        raise ValueError(f"constraints must map end labels, written as plain "
                         f"decimals, to constraints, got {constraints!r}")
    for c in constraints.values():
        _check_constraint(c)
    return fan, degrees, alpha_ends, {int(k): c for k, c in constraints.items()}


def _ends(d: dict):
    return _ints(d.get("ends"), "ends", 3, rows=True)


def _bounds_from_args(args, base: SearchBounds = SearchBounds()) -> SearchBounds:
    """base with every bound given on the command line replacing its own."""
    given = (args.max_internal_edges, args.max_genus, args.max_deriv)
    kept = (base.max_internal_edges, base.max_genus, base.max_derivative_norm)
    return SearchBounds(*(k if g is None else g for g, k in zip(given, kept)))


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--order", type=int, default=20, metavar="K")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-internal-edges", type=int)
    p.add_argument("--max-genus", type=int)
    p.add_argument("--max-deriv", type=int)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--format", choices=("json", "pretty"), default="pretty")


def _emit_value(value, args, extra=None, contributions=None, bounds=None):
    doc = {"schema": 1, "value": value.to_json(),
           "mode": "q" if isinstance(value, QHalfLaurent) else "lambda",
           "order": getattr(args, "order", None),
           "seed": args.seed,
           "bounds": (bounds or _bounds_from_args(args)).to_json()}
    if extra:
        doc.update(extra)
    if args.trace and contributions is not None:
        doc["trace"] = [c.to_json() for c in contributions]
    if args.format == "json":
        print(json.dumps(doc, sort_keys=True))
    else:
        print(repr(value))
        if extra:
            for k, v in extra.items():
                if isinstance(v, dict):
                    print(f"{k}:")
                    print(json.dumps(v, indent=1, sort_keys=True))
                else:
                    print(f"{k}: {v}")
        if args.trace and contributions is not None:
            print(f"{len(contributions)} contributions:")
            for c in contributions:
                print(f"  stratum {c.stratum_index}: index {c.lattice_factor}, "
                      f"1/|Aut| = 1/{c.automorphisms}, weight {c.weight!r}")
    return 0


def cmd_fgamma(args) -> int:
    t = _read(args.type, CurveType.from_json)
    w = curve_weight(t, args.order, args.mode)
    extra = None
    if args.trace:
        extra = {"derivation": weight_trace(t)}
    return _emit_value(w, args, extra=extra)


def cmd_count(args) -> int:
    req = _read(args.request, CountRequest.from_json)
    req = replace(req, bounds=_bounds_from_args(args, req.bounds))
    if args.certify:
        res = certified_count(req, args.order)
    else:
        res = weighted_count(req, args.order)
    contributions = res.contributions
    if args.trace and req.mode == "lambda":   # the trace shows series weights
        contributions = [replace(c, weight=curve_weight(
            c.ctype, args.order, "lambda")) for c in contributions]
    return _emit_value(res.value, args,
                       extra={"certified": res.certified,
                              "attempt": res.attempt},
                       contributions=contributions, bounds=req.bounds)


def _parse_degrees(s: str, n: int) -> list[int]:
    try:
        out = [int(p) for p in s.split(",")]
    except ValueError:
        raise ParseFailure(f"bad degree list {s!r}")
    if len(out) == 1 and n > 1:
        return out * n   # a single number means that degree on every ray
    if len(out) != n:
        raise ParseFailure(f"expected {n} degrees, got {len(out)}")
    return out


def cmd_absolute(args) -> int:
    fan = _read(args.fan, ToricFan.from_json)
    degrees = _parse_degrees(args.degrees, len(fan.rays))
    value = absolute_invariant(fan, degrees, args.points, args.order,
                               args.seed, _bounds_from_args(args))
    return _emit_value(value, args)


def cmd_relative(args) -> int:
    fan, degrees, alpha_ends, constraints = _read(args.request, _relative)
    value = relative_invariant(fan, degrees, alpha_ends, constraints,
                               args.order, _bounds_from_args(args))
    return _emit_value(value, args)


def cmd_dt(args) -> int:
    fan = _read(args.fan, ToricFan.from_json)
    degrees = _parse_degrees(args.degrees, len(fan.rays))
    value = reduced_dt(fan, degrees, args.points, args.seed,
                       _bounds_from_args(args))
    return _emit_value(value, args)


def cmd_enumerate(args) -> int:
    ends = _read(args.ends, _ends)
    types = enumerate_curve_types(ends, _bounds_from_args(args),
                                  connected=not args.disconnected)
    if args.format == "json":
        print(json.dumps({"schema": 1, "count": len(types),
                          "bounds": _bounds_from_args(args).to_json(),
                          "types": [t.to_json() for t in types]},
                         sort_keys=True))
    else:
        print(f"{len(types)} general types within bounds")
        for t in types:
            print(f"  vertices={t.n_vertices} internal={list(t.internal_edges)}")
    return 0


def cmd_verify_identities(args) -> int:
    checks = SUITES[args.suite](args.order, args.seed)
    failures = [name for name, ok in checks if not ok]
    if args.format == "json":
        print(json.dumps({"schema": 1, "suite": args.suite,
                          "checks": [{"name": n, "pass": ok} for n, ok in checks],
                          "failures": len(failures)}, sort_keys=True))
    else:
        for name, ok in checks:
            print(f"[{'PASS' if ok else 'FAIL'}] {name}")
        print(f"{len(checks) - len(failures)}/{len(checks)} checks passed")
    return EXIT_IDENTITY if failures else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    ap = argparse.ArgumentParser(
        prog="tropgw",
        description="Exact tropical curve counts and their generating functions")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fgamma", help="weight of a single curve type")
    p.add_argument("type", help="curve type JSON file")
    p.add_argument("--mode", choices=("lambda", "q"), default="lambda")
    _add_common(p)
    p.set_defaults(fn=cmd_fgamma)

    p = sub.add_parser("count", help="weighted count for a request file")
    p.add_argument("request")
    p.add_argument("--certify", action="store_true",
                   help="re-run at widened bounds and compare")
    _add_common(p)
    p.set_defaults(fn=cmd_count)

    p = sub.add_parser("absolute", help="absolute invariant of a convex fan")
    p.add_argument("fan")
    p.add_argument("--degrees", required=True,
                   help="comma separated, one per ray (or one for all)")
    p.add_argument("--points", type=int, default=0)
    _add_common(p)
    p.set_defaults(fn=cmd_absolute)

    p = sub.add_parser("relative", help="invariant relative to marked rays")
    p.add_argument("request", help="JSON with fan, degrees, alpha_ends, constraints")
    _add_common(p)
    p.set_defaults(fn=cmd_relative)

    p = sub.add_parser("dt", help="reduced DT polynomial of a convex fan")
    p.add_argument("fan")
    p.add_argument("--degrees", required=True)
    p.add_argument("--points", type=int, default=0)
    _add_common(p)
    p.set_defaults(fn=cmd_dt)

    p = sub.add_parser("enumerate", help="list general types for given ends")
    p.add_argument("ends", help="JSON file with an 'ends' list")
    p.add_argument("--disconnected", action="store_true")
    _add_common(p)
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("verify-identities", help="run a machine-checked suite")
    p.add_argument("--suite", choices=sorted(SUITES), required=True)
    _add_common(p)
    p.set_defaults(fn=cmd_verify_identities)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "order", 1) < 1:
            raise ParseFailure("--order must be at least 1")
        return args.fn(args)
    except ParseFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except UnsupportedVertex as exc:
        print(f"error: unsupported vertex weight: {exc}", file=sys.stderr)
        return EXIT_VERTEX
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
