"""Benchmark harness for tropgw.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process runs one workload as a closed loop with one caller.  Set-up
(importing tropgw and building the workload's inputs) is timed several times
and its median reported.  Each timed repetition starts from cold caches
(``tropgw.weights.clear_caches()``), since a command-line user pays for them
on every call.  Repetitions continue while the next one still fits in
``--seconds``; at least one always runs.

``--trace 0`` reports the end-to-end metrics with tracing off.  ``--trace 1``
alternates untraced and traced repetitions, reports the per-layer metrics of
the traced ones and the tracing overhead, and checks that both give
identical exact values.  Every value is checked against its workload's
oracle; a wrong or raising item counts as failed, never crashes the run.

The last line of standard output is the JSON result.  The line before it is
the run record (Python version, core count, seed, commit); the record and
the raw spans of a traced run are also written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

SETUP_REPS = 21

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
]

_LATTICE_FUNCS = ("smith_normal_form", "rational_rank", "integral_kernel",
                  "solve_rational", "solve_rational_multi", "lattice_index")
_SERIES_FUNCS = ("LaurentSeries.__mul__", "LaurentSeries.inverse",
                 "QHalfLaurent.__mul__", "q_to_lambda")

# (metric name, unit); derived from the traced repetitions.
PER_LAYER = (
    [("weights.self_s", "s"),
     ("weights.resolve_with_shifts.calls", "count"),
     ("weights.resolve_with_shifts.self_s", "s"),
     ("weights.resolutions_returned", "count"),
     ("weights.shift_rejects", "count"),
     ("weights.shift_accept_ratio", "ratio"),
     ("weights.curve_weight.calls", "count"),
     ("weights.transverse_weight.calls", "count"),
     ("lattice.self_s", "s")]
    + [(f"lattice.{f}.{k}", u) for f in _LATTICE_FUNCS
       for k, u in (("calls", "count"), ("self_s", "s"))]
    + [("lattice.smith_normal_form.entries", "count"),
       ("feasibility.self_s", "s")]
    + [(f"feasibility.{f}.{k}", u)
       for f in ("positive_combinations", "cone_meets_cone")
       for k, u in (("calls", "count"), ("self_s", "s"))]
    + [("feasibility.certificates_returned", "count"),
       ("tropcurve.self_s", "s")]
    + [(f"tropcurve.{f}.calls", "count")
       for f in ("is_general", "deformation_space", "are_isomorphic",
                 "automorphism_count", "CurveType.canonical_key")]
    + [("tropcurve.is_general.true_ratio", "ratio"),
       ("tropcurve.are_isomorphic.true_ratio", "ratio"),
       ("enumeration.self_s", "s"),
       ("enumeration.enumerate_curve_types.calls", "count"),
       ("enumeration.enumerate_curve_types.self_s", "s"),
       ("enumeration.types_returned", "count"),
       ("enumeration.place_curves.calls", "count"),
       ("enumeration.place_curves.self_s", "s"),
       ("enumeration.placements_returned", "count"),
       ("enumeration.placement_useful_ratio", "ratio"),
       ("enumeration.genericity_failures", "count"),
       ("exactnum.self_s", "s")]
    + [(f"exactnum.{f}.{k}", u) for f in _SERIES_FUNCS
       for k, u in (("calls", "count"), ("self_s", "s"))]
    + [("invariants.self_s", "s"),
       ("invariants.weighted_count.calls", "count"),
       ("invariants.constraint_resamples", "count"),
       ("invariants.contributions", "count"),
       ("identities.self_s", "s"),
       ("identities.checks", "count"),
       ("cli.self_s", "s"),
       ("trace.overhead_frac", "ratio")]
)


def _import_tropgw():
    """A fresh import of the whole package, command line included."""
    for name in [n for n in sys.modules
                 if n == "tropgw" or n.startswith("tropgw.")]:
        del sys.modules[name]
    importlib.import_module("tropgw.cli")
    return importlib.import_module("tropgw")


def _commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    pkg = SRC / "tropgw"
    for p in sorted(pkg.rglob("*")):
        if p.is_file() and p.suffix in (".py", ".json"):
            h.update(str(p.relative_to(pkg)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def _run_once(tg, wl, recorder=None):
    """One cold repetition: returns (seconds, values, errors)."""
    tg.weights.clear_caches()
    gc.collect()
    n = len(wl.items)
    values, errors = [None] * n, [None] * n
    start = perf_counter()
    for i, (_, fn) in enumerate(wl.items):
        if recorder is not None:
            recorder.request = i
        try:
            values[i] = fn()
        except Exception as exc:   # an item that raises counts as failed
            errors[i] = "".join(
                traceback.format_exception_only(type(exc), exc)).strip()
    return perf_counter() - start, values, errors


def _checked(wl, values, errors):
    """(ok, canonical) per item; an item that raised is not ok."""
    try:
        results = wl.check(values)
    except Exception as exc:   # a malformed value fails the whole repetition
        msg = "".join(traceback.format_exception_only(type(exc), exc)).strip()
        results = [(False, "check raised: " + msg)] * len(values)
    out = []
    for (ok, text), err in zip(results, errors):
        out.append((False, "raised: " + err) if err else (ok, text))
    return out


def layer_metrics(spans) -> dict:
    """The per-layer metrics of one traced repetition, but the overhead."""
    from perfbench.spans import MODULES, aggregate
    agg = aggregate(spans)

    def get(name, key="calls"):
        a = agg.get(name)
        return a[key] if a else 0

    def ratio(num, den):
        return num / den if den else 0.0

    m: dict[str, float] = {}
    for mod in MODULES:
        m[f"{mod}.self_s"] = sum(a["self_s"] for n, a in agg.items()
                                 if n.startswith(mod + "."))
    rws = agg.get("weights.resolve_with_shifts")
    rejects = rws["errors"].get("NonGenericShift", 0) if rws else 0
    m["weights.resolve_with_shifts.calls"] = get("weights.resolve_with_shifts")
    m["weights.resolve_with_shifts.self_s"] = get(
        "weights.resolve_with_shifts", "self_s")
    m["weights.resolutions_returned"] = get("weights.resolve_with_shifts",
                                            "outcome")
    m["weights.shift_rejects"] = rejects
    calls = get("weights.resolve_with_shifts")
    m["weights.shift_accept_ratio"] = ratio(calls - rejects, calls)
    m["weights.curve_weight.calls"] = get("weights.curve_weight")
    m["weights.transverse_weight.calls"] = get("weights.transverse_weight")
    for f in _LATTICE_FUNCS:
        m[f"lattice.{f}.calls"] = get(f"lattice.{f}")
        m[f"lattice.{f}.self_s"] = get(f"lattice.{f}", "self_s")
    m["lattice.smith_normal_form.entries"] = get("lattice.smith_normal_form",
                                                 "outcome")
    for f in ("positive_combinations", "cone_meets_cone"):
        m[f"feasibility.{f}.calls"] = get(f"feasibility.{f}")
        m[f"feasibility.{f}.self_s"] = get(f"feasibility.{f}", "self_s")
    m["feasibility.certificates_returned"] = get(
        "feasibility.positive_combinations", "outcome")
    for f in ("is_general", "deformation_space", "are_isomorphic",
              "automorphism_count", "CurveType.canonical_key"):
        m[f"tropcurve.{f}.calls"] = get(f"tropcurve.{f}")
    for f in ("is_general", "are_isomorphic"):
        m[f"tropcurve.{f}.true_ratio"] = ratio(
            get(f"tropcurve.{f}", "outcome"), get(f"tropcurve.{f}"))
    ect, pc = "enumeration.enumerate_curve_types", "enumeration.place_curves"
    m[f"{ect}.calls"] = get(ect)
    m[f"{ect}.self_s"] = get(ect, "self_s")
    m["enumeration.types_returned"] = get(ect, "outcome")
    m[f"{pc}.calls"] = get(pc)
    m[f"{pc}.self_s"] = get(pc, "self_s")
    m["enumeration.placements_returned"] = get(pc, "outcome")
    m["enumeration.placement_useful_ratio"] = ratio(
        get(pc, "outcome_nonzero"), get(pc))
    m["enumeration.genericity_failures"] = (
        agg[pc]["errors"].get("GenericityFailure", 0) if pc in agg else 0)
    for f in _SERIES_FUNCS:
        m[f"exactnum.{f}.calls"] = get(f"exactnum.{f}")
        m[f"exactnum.{f}.self_s"] = get(f"exactnum.{f}", "self_s")
    m["invariants.weighted_count.calls"] = get("invariants.weighted_count")
    m["invariants.constraint_resamples"] = get("invariants.weighted_count",
                                               "outcome")
    m["invariants.contributions"] = get("invariants.weighted_count", "extra")
    m["identities.checks"] = sum(a["outcome"] for n, a in agg.items()
                                 if n.startswith("identities."))
    return m


def _write_out(workload: str, seed: int, trace: int, record: dict,
               spans) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    doc = dict(record)
    if spans is not None:
        names = sorted({s[2] for s in spans})
        index = {n: i for i, n in enumerate(names)}
        doc["span_names"] = names
        doc["span_fields"] = ["id", "parent", "name", "request", "start_s",
                              "end_s", "self_s", "error", "outcome", "extra"]
        doc["spans"] = [[s[0], s[1], index[s[2]], s[3], round(s[4], 7),
                         round(s[5], 7), round(s[6], 7), s[7], s[8], s[9]]
                        for s in spans]
    path = OUT_DIR / f"{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "tropgw" / "__init__.py").is_file():
        print(f"error: no tropgw sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    from perfbench.workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    build = WORKLOADS[args.workload]

    setup_times = []
    for _ in range(SETUP_REPS):
        start = perf_counter()
        tg = _import_tropgw()
        wl = build(tg, args.seed)
        setup_times.append(perf_counter() - start)

    if args.trace:
        from perfbench.spans import Recorder

    plain_times, traced_times = [], []
    plain_checked, traced_checked = [], []
    traced_layers, all_spans = [], None
    begin = perf_counter()
    longest = 0.0
    while True:
        rep_start = perf_counter()
        secs, values, errors = _run_once(tg, wl)
        plain_times.append(secs)
        plain_checked.append(_checked(wl, values, errors))
        if args.trace:
            rec = Recorder()
            rec.install()
            try:
                secs, values, errors = _run_once(tg, wl, rec)
            finally:
                rec.uninstall()
            traced_times.append(secs)
            traced_checked.append(_checked(wl, values, errors))
            traced_layers.append(layer_metrics(rec.spans))
            if all_spans is None:
                all_spans = rec.spans
        now = perf_counter()
        longest = max(longest, now - rep_start)
        if now - begin + longest > args.seconds:
            break

    # Correctness: every repetition against the oracle, and every repetition
    # (traced ones included) identical to the first untraced one.
    reference = plain_checked[0]
    attempted = failed = 0
    failures = []
    for rep in plain_checked + traced_checked:
        for (label, _), (ok, text), (_, ref_text) in zip(wl.items, rep,
                                                         reference):
            attempted += 1
            if not ok or text != ref_text:
                failed += 1
                failures.append(label if ok else f"{label}: {text[:200]}")

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "python": platform.python_version(),
        "cores": os.cpu_count(), "commit": _commit(),
        "source_sha256": _source_digest(),
        "items": len(wl.items),
        "samples": len(plain_times),
        "wall_s": plain_times, "setup_s": setup_times,
        "failed_frac": failed / attempted,
        "failures": sorted(set(failures)),
    }
    if args.trace:
        record["traced_wall_s"] = traced_times
        metrics = {}
        for name, unit in PER_LAYER:
            if name == "trace.overhead_frac":
                value = (statistics.median(traced_times)
                         / statistics.median(plain_times) - 1)
            else:
                value = statistics.median(m[name] for m in traced_layers)
            metrics[name] = {"value": value, "unit": unit}
    else:
        rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values = {"wall_s": statistics.median(plain_times),
                  "setup_s": statistics.median(setup_times),
                  "peak_rss_mib": rss_mib}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    record["metrics"] = {k: v["value"] for k, v in metrics.items()}
    _write_out(args.workload, args.seed, args.trace, record, all_spans)
    for label in record["failures"]:
        print(f"FAILED: {label}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
