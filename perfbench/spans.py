"""Callers through which every benchmark job reaches the package.

A job never calls a ``clonelab`` function directly: it goes through
``T.call(fn, *args)``, which names the span ``"<layer>.<function>"``
after the package module that defines ``fn``, or ``T.query(fn, x)`` for
one forward or inverse query on a lazy map (span ``backforth.query``).  With
tracing off the caller is :class:`Direct`, which only forwards the call.
With tracing on it is :class:`Tracer`, which keeps one span per call in
memory (name, start, end, parent span, job id) and writes them out when
the run ends.  Layer totals are derived from the spans afterwards, so
the untraced run pays nothing for them.
"""

from __future__ import annotations

import json
import time
from contextlib import nullcontext

LAYERS = ("fnspace", "monoid", "clone", "structures", "topology",
          "backforth", "extend", "cli")

# hot functions named by the roadmap; a group sums the spans of its members
HOT = {
    "clone.close_fragment": ("clone.close_fragment",),
    "clone.verify_conjugation_lifting": ("clone.verify_conjugation_lifting",),
    "clone.enumerate_clone_homs": ("clone.enumerate_clone_homs",),
    "monoid.close_under_composition": ("monoid.close_under_composition",),
    "monoid.injective_endos_fixing": ("monoid.injective_endos_fixing",),
    "structures.is_homogeneous": ("structures.is_homogeneous",),
    "structures.map_sets": ("structures.hom_set", "structures.emb_set",
                            "structures.end_monoid", "structures.emb_monoid"),
    "backforth.query": ("backforth.query",),
    "extend.audit": ("extend.check_well_defined", "extend.check_hom_law",
                     "extend.check_conjugation_transfer", "extend.extend_at"),
}


class Direct:
    """Tracing off: forward every call unchanged."""

    def call(self, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def query(self, fn, x):
        return fn(x)

    def job(self, job_id, kind):
        return _NO_SPAN


_NO_SPAN = nullcontext()


class Tracer:
    """Tracing on: one span per call, kept in memory until the run ends.

    A span is the tuple ``(id, name, start, end, parent, job, raised)``;
    times come from ``time.perf_counter``.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self._job = None

    def call(self, fn, *args, **kwargs):
        label = getattr(fn, "__name__", None) or type(fn).__name__
        name = f"{fn.__module__.rpartition('.')[2]}.{label}"
        return self._span(name, fn, args, kwargs)

    def query(self, fn, x):
        return self._span("backforth.query", fn, (x,), {})

    def _span(self, name, fn, args, kwargs):
        span_id = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        raised = True
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            raised = False
            return result
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[span_id] = (span_id, name, start, end, parent,
                                   self._job, raised)

    def job(self, job_id, kind):
        return _JobSpan(self, job_id, kind)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, job, raised in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "job": job, "raised": raised}) + "\n")


class _JobSpan:
    """The root span of one job; layer calls made inside it are its
    children and carry its job id."""

    def __init__(self, tracer, job_id, kind):
        self.tracer = tracer
        self.job_id = job_id
        self.kind = kind

    def __enter__(self):
        tr = self.tracer
        tr._job = self.job_id
        self.span_id = len(tr.spans)
        tr.spans.append(None)
        tr._stack.append(self.span_id)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        tr = self.tracer
        end = time.perf_counter()
        tr._stack.pop()
        tr.spans[self.span_id] = (self.span_id, "job." + self.kind,
                                  self.start, end, None, self.job_id,
                                  exc_type is not None)
        tr._job = None
        return False


def layer_metrics(spans, passes):
    """Per-layer totals from the spans, averaged per pass of the job list:
    ``L.calls``, ``L.busy_s`` and ``L.failed`` for every layer, plus
    ``<hot>.busy_s`` for every hot function group."""
    calls = dict.fromkeys(LAYERS, 0)
    busy = dict.fromkeys(LAYERS, 0.0)
    failed = dict.fromkeys(LAYERS, 0)
    by_name = {}
    for _, name, start, end, _, _, raised in spans:
        layer = name.split(".", 1)[0]
        if layer not in calls:
            continue
        calls[layer] += 1
        busy[layer] += end - start
        failed[layer] += raised
        by_name[name] = by_name.get(name, 0.0) + (end - start)
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = (calls[layer] / passes, "count")
        out[f"{layer}.busy_s"] = (busy[layer] / passes, "s")
        out[f"{layer}.failed"] = (failed[layer] / passes, "count")
    for group, members in HOT.items():
        total = sum(by_name.get(m, 0.0) for m in members)
        out[f"{group}.busy_s"] = (total / passes, "s")
    return out
