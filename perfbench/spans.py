"""Outside-in span recorder for the tropgw modules.

The recorder wraps each public function of the nine tropgw modules from the
outside: the program itself is not edited.  The modules import one another's
functions by name (``from .lattice import rational_rank``), so a wrapper is
bound to every attribute of every loaded tropgw module that refers to the
same function object; function-local imports then pick the wrapper up too.
``LaurentSeries``, ``QHalfLaurent`` and ``CurveType.canonical_key`` are
patched on their classes.  ``GaussRational`` is left alone on purpose: its
operators run hundreds of thousands of times per run and a span around each
would swamp what is being measured.

Spans are kept in memory and written out by the caller when the benchmark
ends.  A span's self time is its duration minus the time covered by its
direct children, which on one thread is the sum of their durations.
Exceptions pass through unchanged; the span is closed and the exception's
class name is recorded on it.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

MODULES = ("exactnum", "lattice", "feasibility", "tropcurve", "enumeration",
           "weights", "invariants", "identities", "cli")

# Arithmetic dunders wrapped on the series classes besides their public names.
_SERIES_DUNDERS = ("__add__", "__sub__", "__neg__", "__mul__", "__truediv__",
                   "__eq__")


# Work counts taken from a wrapped call's arguments or result.  Each maps a
# span name to a function of (args, result) returning a number.
def _result_len(args, result):
    return len(result)


def _result_true(args, result):
    return 1 if result else 0


def _snf_entries(args, result):
    m = args[0]
    return m.rows * m.cols


def _count_attempt(args, result):
    return result.attempt


def _count_contributions(args, result):
    return len(result.contributions)


def _is_check(args, result):
    return 1 if isinstance(result, bool) else 0


OUTCOMES = {
    "weights.resolve_with_shifts": _result_len,
    "feasibility.positive_combinations": _result_len,
    "tropcurve.is_general": _result_true,
    "tropcurve.are_isomorphic": _result_true,
    "enumeration.enumerate_curve_types": _result_len,
    "enumeration.place_curves": _result_len,
    "invariants.weighted_count": _count_attempt,
    "lattice.smith_normal_form": _snf_entries,
}
# weighted_count carries two counts; the second one lives under its own key.
EXTRA_OUTCOMES = {"invariants.weighted_count": _count_contributions}


class Recorder:
    """Collects one span per wrapped call.

    A span is the tuple (span_id, parent_id, name, request, start, end,
    self_s, error, outcome, extra); parent_id is -1 at the top level and
    ``request`` is the item the harness was running when the span opened.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.request = -1
        # open spans: [span_id, child_time]
        self._stack: list[list] = []
        self._next_id = 0
        self._undo: list[tuple] = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        outcome = OUTCOMES.get(name)
        if outcome is None and name.startswith("identities."):
            outcome = _is_check   # identity checks are the calls returning a bool
        extra = EXTRA_OUTCOMES.get(name)
        stack = self._stack
        spans = self.spans
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = rec._next_id
            rec._next_id = span_id + 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            error = None
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                value = extra_value = None
                if error is None:
                    if outcome is not None:
                        value = outcome(args, result)
                    if extra is not None:
                        extra_value = extra(args, result)
                spans.append((span_id, parent, name, rec.request, start, end,
                              dur - frame[1], error, value, extra_value))

        return wrapper

    def install(self):
        """Wrap every public function of the loaded tropgw modules, the
        series classes and ``CurveType.canonical_key``."""
        loaded = [m for n, m in sorted(sys.modules.items())
                  if n == "tropgw" or n.startswith("tropgw.")]
        for short in MODULES:
            mod = sys.modules[f"tropgw.{short}"]
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                wrapper = self._wrap(f"{short}.{attr}", obj)
                for holder in loaded:
                    for a, v in list(vars(holder).items()):
                        if v is obj:
                            self._undo.append((holder, a, obj))
                            setattr(holder, a, wrapper)
        exactnum = sys.modules["tropgw.exactnum"]
        for cls in (exactnum.LaurentSeries, exactnum.QHalfLaurent):
            for attr, obj in list(vars(cls).items()):
                if attr.startswith("_") and attr not in _SERIES_DUNDERS:
                    continue
                name = f"exactnum.{cls.__name__}.{attr}"
                if isinstance(obj, staticmethod):
                    new = staticmethod(self._wrap(name, obj.__func__))
                elif inspect.isfunction(obj):
                    new = self._wrap(name, obj)
                else:
                    continue
                self._undo.append((cls, attr, obj))
                setattr(cls, attr, new)
        curve_type = sys.modules["tropgw.tropcurve"].CurveType
        orig = vars(curve_type)["canonical_key"]
        self._undo.append((curve_type, "canonical_key", orig))
        curve_type.canonical_key = self._wrap(
            "tropcurve.CurveType.canonical_key", orig)

    def uninstall(self):
        """Put every original function back, newest binding first."""
        while self._undo:
            holder, attr, obj = self._undo.pop()
            setattr(holder, attr, obj)


# -- aggregation ------------------------------------------------------------


def aggregate(spans) -> dict:
    """Per span name: calls, self time, errors by class, outcome sums."""
    out: dict[str, dict] = {}
    for (_sid, _parent, name, _req, _start, _end, self_s, error, value,
         extra_value) in spans:
        agg = out.get(name)
        if agg is None:
            agg = out[name] = {"calls": 0, "self_s": 0.0, "errors": {},
                               "outcome": 0, "outcome_nonzero": 0, "extra": 0}
        agg["calls"] += 1
        agg["self_s"] += self_s
        if error is not None:
            agg["errors"][error] = agg["errors"].get(error, 0) + 1
        if value is not None:
            agg["outcome"] += value
            agg["outcome_nonzero"] += 1 if value else 0
        if extra_value is not None:
            agg["extra"] += extra_value
    return out

