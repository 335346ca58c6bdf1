"""Closed-loop job runner: one process, one thread, jobs one after another.

A workload is a list of :class:`Job`.  One pass runs every job once, in
order.  Only ``job.run`` is timed and traced; ``job.check`` runs right
after it, outside the timed window, and turns the output into a JSON
summary, adds to the work counters, or raises ``WrongAnswer``.  Each job
gets a fresh context dict in which ``run`` can leave state for ``check``
that must survive an exception.  After the check, one reference slice is
timed, also outside the timed window; the job timings are scaled by the
median slice (see :func:`job_stats`).

A job fails when ``run`` raises, when a command exits non-zero, or when
its check rejects the output.  Only a job marked with the failure it is
known to end in today (``may_fail``, the exception's type name) may fail
that way; any other failure is also reported as a wrong result, so it
makes the run incorrect instead of only lowering the ok share.
"""

from __future__ import annotations

import gc
import hashlib
import json
import statistics
import time
from collections import Counter

from oracles import WrongAnswer

OK, RAISED, EXIT, WRONG = "ok", "raised", "exit", "wrong"

# median time of one reference slice on the machine the benchmark was
# written on (2-core VM, Python 3.11.7); the timing metrics are scaled to
# a machine on which the slice takes exactly this long
REFERENCE_SLICE_S = 0.0009


def reference_slice():
    """Time one fixed slice of pure-Python work: integer, big-integer and
    dict operations like the package's own, with the collector paused so
    that the program's heap cannot slow it.  Its speed tracks the speed
    the machine gives the process at that moment, which on a shared VM
    swings by 25% within minutes."""
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    table, acc = {}, 0
    for i in range(2000):
        k = (i * 7919) % 1009
        table[k] = table.get(k, 0) + i
        acc += (i << 40) // (k + 1)
    elapsed = time.perf_counter() - start
    if enabled:
        gc.enable()
    return elapsed


class Job:
    """``run(T, ctx)`` does the work through the caller ``T``.
    ``check(out, ctx, counters)`` returns the summary; ``out`` is the
    exception when ``run`` raised and ``sees_raised`` is set, otherwise a
    raising job is summarised by its exception type without a check.
    ``may_fail`` names the one failure the job is known to end in today,
    or is None."""

    __slots__ = ("kind", "run", "check", "sees_raised", "may_fail")

    def __init__(self, kind, run, check, sees_raised=False, may_fail=None):
        self.kind = kind
        self.run = run
        self.check = check
        self.sees_raised = sees_raised
        self.may_fail = may_fail


class ExitStatus(Exception):
    """Raised by a check when a command exited non-zero; ``failure``
    names the error the command reported."""

    def __init__(self, message, failure):
        super().__init__(message)
        self.failure = failure


class Counters(Counter):
    def peak(self, name, value):
        if value > self.get(name, 0):
            self[name] = value


class PassResult:
    def __init__(self):
        self.durations = []      # (seconds, status) per job
        self.summaries = []      # (kind, status, summary) per job
        self.counters = Counters()
        self.wrong = []          # messages of rejected outputs
        self.reference = []      # reference slice seconds, one per job

    def digest(self):
        blob = json.dumps([self.summaries, sorted(self.counters.items())],
                          sort_keys=True, default=str)
        return hashlib.sha256(blob.encode()).hexdigest()


def run_pass(jobs, T, job_offset=0):
    """Run every job once; returns a :class:`PassResult`."""
    result = PassResult()
    clock = time.perf_counter
    for i, job in enumerate(jobs):
        ctx = {}
        # every job starts from an empty young heap, so that it pays for
        # collecting what it allocates itself and not for a collection
        # the jobs before it made due (see run.run_loop)
        gc.collect()
        with T.job(job_offset + i, job.kind):
            start = clock()
            try:
                out = job.run(T, ctx)
                raised = False
            except Exception as exc:  # a job that raises is a failed job
                out = exc
                raised = True
            elapsed = clock() - start
        status = RAISED if raised else OK
        failure = type(out).__name__ if raised else None
        try:
            if raised and not job.sees_raised:
                summary = {"raised": failure}
            else:
                summary = job.check(out, ctx, result.counters)
        except ExitStatus as exc:
            status, summary, failure = EXIT, {"exit": str(exc)}, exc.failure
        except WrongAnswer as exc:
            status, summary = WRONG, {"wrong": str(exc)}
            result.wrong.append(f"{job.kind}: {exc}")
        if status in (RAISED, EXIT) and failure != job.may_fail:
            result.wrong.append(f"{job.kind}: unexpected failure "
                                f"({status}: {failure})")
        result.durations.append((elapsed, status))
        result.summaries.append((job.kind, status, summary))
        result.reference.append(reference_slice())
        out = ctx = None
    return result


def percentile(sorted_values, q):
    """Linear interpolation between closest ranks (``q`` in [0, 1])."""
    if not sorted_values:
        return float("nan")
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def job_stats(passes):
    """End-to-end job metrics over all passes: completed jobs per second
    of job time, latency median and p90 of completed jobs, fail share.
    The timings are scaled by ``REFERENCE_SLICE_S`` over the median
    reference slice of the passes; ``raw`` holds them as timed."""
    done = sorted(d for p in passes for d, s in p.durations if s == OK)
    busy = sum(d for p in passes for d, _ in p.durations)
    attempted = sum(len(p.durations) for p in passes)
    slice_s = statistics.median(r for p in passes for r in p.reference)
    scale = REFERENCE_SLICE_S / slice_s
    raw = {
        "jobs_per_s": len(done) / busy if busy else 0.0,
        "job_p50_ms": percentile(done, 0.5) * 1e3,
        "job_p90_ms": percentile(done, 0.9) * 1e3,
    }
    return {
        "attempted": attempted,
        "failed": attempted - len(done),
        "completed": len(done),
        "jobs_per_s": raw["jobs_per_s"] / scale,
        "job_p50_ms": raw["job_p50_ms"] * scale,
        "job_p90_ms": raw["job_p90_ms"] * scale,
        "raw": raw,
        "slice_ms": slice_s * 1e3,
    }
