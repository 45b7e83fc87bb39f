"""Command line front end: JSON in, JSON or tables out.

Exit codes: 0 success, 1 identity-suite failure, 2 parse error or
malformed request, 4 unsupported vertex weight.  Code 3 (genericity
exhaustion) is retired: constraint positions and resolution shifts are made
generic by an infinitesimal tie-break, never resampled, and the "attempt" key
of a count is always 0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .enumeration import SearchBounds, enumerate_curve_types
from .exactnum import QHalfLaurent
from .identities import SUITES
from .invariants import (CountRequest, ToricFan, absolute_invariant,
                         certified_count, reduced_dt, relative_invariant,
                         weighted_count)
from .tropcurve import CurveType
from .weights import UnsupportedVertex, curve_weight, weight_trace

EXIT_IDENTITY = 1
EXIT_PARSE = 2
EXIT_VERTEX = 4


class ParseFailure(Exception):
    pass


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ParseFailure(f"{path}: no such file")
    except json.JSONDecodeError as exc:
        raise ParseFailure(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}")
    if not isinstance(data, dict):
        raise ParseFailure(f"{path}: expected a JSON object at the top level")
    if data.get("schema", 1) != 1:
        raise ParseFailure(f"{path}: unsupported schema {data.get('schema')}")
    return data


def _bounds_from_args(args, base: SearchBounds = SearchBounds()) -> SearchBounds:
    """base with every bound given on the command line replacing its own;
    the seed always follows --seed."""
    given = (args.max_internal_edges, args.max_genus, args.max_deriv)
    kept = (base.max_internal_edges, base.max_genus, base.max_derivative_norm)
    return SearchBounds(*(k if g is None else g for g, k in zip(given, kept)),
                        args.seed)


def _default_seed() -> int:
    env = os.environ.get("TROPGW_SEED")
    try:
        return int(env) if env else 0
    except ValueError:
        raise ParseFailure(f"TROPGW_SEED must be an integer, got {env!r}")


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--order", type=int, default=20, metavar="K")
    p.add_argument("--seed", type=int, default=_default_seed())
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
    data = _load_json(args.type)
    try:
        t = CurveType.from_json(data)
    except (KeyError, ValueError, TypeError) as exc:
        raise ParseFailure(f"{args.type}: {exc}")
    w = curve_weight(t, args.order, args.mode, args.seed)
    extra = None
    if args.trace:
        extra = {"derivation": weight_trace(t, args.seed)}
    return _emit_value(w, args, extra=extra)


def cmd_count(args) -> int:
    data = _load_json(args.request)
    try:
        req = CountRequest.from_json(data)
    except (KeyError, ValueError, TypeError) as exc:
        raise ParseFailure(f"{args.request}: {exc}")
    req = CountRequest(req.ends, req.cycle, req.connected, req.mode,
                       _bounds_from_args(args, req.bounds))
    if args.certify:
        res = certified_count(req, args.order, args.seed)
    else:
        res = weighted_count(req, args.order, args.seed)
    return _emit_value(res.value, args,
                       extra={"certified": res.certified,
                              "attempt": res.attempt},
                       contributions=res.contributions, bounds=req.bounds)


def _parse_degrees(s: str, n: int) -> list[int]:
    parts = [p for p in s.split(",") if p != ""]
    if len(parts) == 1 and n > 1:
        # a single number means that degree on every ray
        try:
            d = int(parts[0])
        except ValueError:
            raise ParseFailure(f"bad degree list {s!r}")
        return [d] * n
    try:
        out = [int(p) for p in parts]
    except ValueError:
        raise ParseFailure(f"bad degree list {s!r}")
    if len(out) != n:
        raise ParseFailure(f"expected {n} degrees, got {len(out)}")
    return out


def cmd_absolute(args) -> int:
    fan = _fan_from(args.fan)
    degrees = _parse_degrees(args.degrees, len(fan.rays))
    value = absolute_invariant(fan, degrees, args.points, args.order,
                               args.seed, _bounds_from_args(args))
    return _emit_value(value, args)


def cmd_relative(args) -> int:
    data = _load_json(args.request)
    try:
        fan = ToricFan.from_json(data["fan"])
        degrees = list(data["degrees"])
        alpha_ends = [tuple(e) for e in data.get("alpha_ends", [])]
        constraints = {int(k): tuple(v) for k, v in
                       data.get("constraints", {}).items()}
    except (KeyError, ValueError, TypeError) as exc:
        raise ParseFailure(f"{args.request}: {exc}")
    value = relative_invariant(fan, degrees, alpha_ends, constraints,
                               args.order, args.seed, _bounds_from_args(args))
    return _emit_value(value, args)


def cmd_dt(args) -> int:
    fan = _fan_from(args.fan)
    degrees = _parse_degrees(args.degrees, len(fan.rays))
    value = reduced_dt(fan, degrees, args.points, args.order, args.seed,
                       _bounds_from_args(args))
    return _emit_value(value, args)


def _fan_from(path: str) -> ToricFan:
    data = _load_json(path)
    try:
        return ToricFan.from_json(data)
    except (KeyError, ValueError) as exc:
        raise ParseFailure(f"{path}: {exc}")


def cmd_enumerate(args) -> int:
    data = _load_json(args.ends)
    try:
        ends = [tuple(e) for e in data["ends"]]
    except (KeyError, TypeError) as exc:
        raise ParseFailure(f"{args.ends}: {exc}")
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
    try:
        suite = SUITES[args.suite]
    except KeyError:
        raise ParseFailure(f"unknown suite {args.suite!r}")
    checks = suite(args.order, args.seed)
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


def build_parser() -> argparse.ArgumentParser:
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
