"""Spans around the calls into each hilbstab module, recorded from outside.

The tracer replaces public functions where their caller looks them up
(for example ``hilbstab.cli.zeta_series`` or
``hilbstab.equivalence.partition``) with wrappers that record a span:
(name, start, end, parent span, operation id). Spans stay in memory and
are written as JSON when the run ends. Exact counts (union calls,
relations, series terms, ...) are computed from call arguments and
results, never from timers; the time spent computing them is recorded
as a ``trace.count`` span so it is not charged to any layer.

Patches are installed only around traced operations, so untraced
operations run the unmodified code. The targets are looked up anew for
each operation, since the benchmark imports hilbstab afresh before each.
"""

from __future__ import annotations

import importlib
import json
from time import perf_counter


def _partition_counts(args, kwargs, result) -> dict:
    relations = args[0] if args else kwargs["relations"]
    horizon = args[1] if len(args) > 1 else kwargs["horizon"]
    unions = 0
    for rel in relations:
        lo = max(rel.domain.lo, 0)
        hi = min(rel.domain.hi, horizon - rel.step)
        if lo <= hi:
            unions += hi - lo + 1
    return {"union_calls": unions, "points": horizon + 1}


def _len_counts(key: str):
    return lambda args, kwargs, result: {key: len(result)}


def _series_counts(args, kwargs, result) -> dict:
    return {"series_terms": len(result.coefficients)}


def _goettsche_counts(args, kwargs, result) -> dict:
    return {"goettsche_terms": sum(1 for _ in result.items())}


# (module, attribute path, span name, counter); every call site the CLI
# reaches goes through one of these lookups.
PATCHES = [
    ("hilbstab.cli", "load_spec", "cli.load_spec", None),
    ("hilbstab.cli", "interval_class_partition", "equivalence.pipeline", None),
    ("hilbstab.cli", "conic_pipeline", "equivalence.pipeline", None),
    ("hilbstab.cli", "brauer_severi_classes", "equivalence.pipeline", None),
    ("hilbstab.cli", "index", "equivalence.index", None),
    ("hilbstab.equivalence", "index", "equivalence.index", None),
    ("hilbstab.equivalence", "relations_from_intervals",
     "equivalence.relations_from_intervals", _len_counts("relations")),
    ("hilbstab.equivalence", "partition", "equivalence.partition", _partition_counts),
    ("hilbstab.equivalence", "ClassPartition.label_runs", "equivalence.label_runs",
     _len_counts("runs")),
    ("hilbstab.equivalence", "equivalence_interval", "intervals.equivalence_interval", None),
    ("hilbstab.equivalence", "blowup_interval", "intervals.blowup_interval", None),
    ("hilbstab.equivalence", "conic_interval", "intervals.conic_interval", None),
    ("hilbstab.equivalence", "conic_twist_bound", "intervals.conic_twist_bound", None),
    ("hilbstab.cli", "zeta_series", "motivic.zeta_series", _series_counts),
    ("hilbstab.cli", "rationalize", "motivic.rationalize", None),
    ("hilbstab.cli", "verify_rational", "motivic.verify_rational", None),
    ("hilbstab.cli", "goettsche_class", "motivic.goettsche_class", _goettsche_counts),
    ("hilbstab.cli", "reduce_mod_L", "motivic.reduce_mod_L", None),
    ("hilbstab.motivic", "partitions", "motivic.partitions", None),
]


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    # read through __dict__ so a method stays a plain function
    return owner, attr, vars(owner)[attr]


class Tracer:
    """Span recorder for one benchmark run."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: dict[int, dict] = {}
        self._stack = [-1]
        self._op = -1

    def _wrap(self, fn, name: str, counter):
        spans, counts, stack = self.spans, self.counts, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1]
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self._op)
            if counter is not None:
                counts[index] = counter(args, kwargs, result)
                spans.append(("trace.count", end, perf_counter(), parent, self._op))
            return result

        return traced

    def call(self, op_id: int, fn, *args):
        """Run fn(*args) as operation op_id under a root ``cli.main`` span."""
        targets = [(*_resolve(mod, path), name, counter) for mod, path, name, counter in PATCHES]
        for owner, attr, original, name, counter in targets:
            setattr(owner, attr, self._wrap(original, name, counter))
        self._op = op_id
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = ("cli.main", start, end, -1, op_id)
            for owner, attr, original, _, _ in targets:
                setattr(owner, attr, original)

    def dump(self, path: str, meta: dict) -> None:
        doc = {**meta, "fields": ["name", "start", "end", "parent", "op"],
               "spans": self.spans,
               "counts": {str(k): v for k, v in self.counts.items()}}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, separators=(",", ":"))


def layer_totals(doc: dict, factors: list[float]) -> dict[str, dict[str, float]]:
    """Per span name: calls, self seconds and summed counts over all spans.

    Self time is a span's duration minus the durations of its direct
    children (the code is single-threaded, so children never overlap),
    times factors[op], the operation's conversion from wall to reference
    seconds.
    """
    spans = doc["spans"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, dict[str, float]] = {}
    for i, (name, start, end, _, op) in enumerate(spans):
        row = totals.setdefault(name, {"calls": 0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += (end - start - child_time[i]) * factors[op]
    for index, counts in doc["counts"].items():
        row = totals[spans[int(index)][0]]
        for key, value in counts.items():
            row[key] = row.get(key, 0) + value
    return totals
