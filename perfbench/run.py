"""clonelab benchmark: four job-mix workloads, end-to-end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload finite-algebra --seed 1 \
        --seconds 25 --trace 0

One invocation is one fresh process running one workload.  The job list
is made from the seed; it runs in a closed loop (one thread, each job
after the previous one ends).  On the workloads whose first pass runs
slower than later ones, a first, unmeasured pass warms the interpreter
and the allocator.  Measured passes follow while another whole pass
still fits in ``--seconds``, counted from the start of the run's first
pass, and at least one is made.  Every job's output is checked outside
its timed window, and every pass must repeat the first one's outputs.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` alternates an untraced and a traced pass, derives the
per-layer metrics from the spans of the traced passes, reports the
trace overhead, and writes the spans to ``.perfbench-out/``.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Without the package source under ``src/clonelab`` the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")

# workload name -> (module, builder, warm-up); a builder maps (seed,
# workdir) to jobs.  A warm-up pass is made where the first pass ran
# slower than later ones: by up to 28% on lazy-maps and 20% on
# cli-reports.  On the two finite workloads the first pass was as fast,
# and their 10-12 s passes leave room for one measured pass after a
# warm-up; without one, a run times their heaviest jobs (the 7-s lattice
# closure, the 4-s homogeneity checks) twice.
WORKLOADS = {
    "finite-algebra": ("finite", "finite_algebra", False),
    "finite-search": ("finite", "finite_search", False),
    "lazy-maps": ("lazy", "lazy_maps", True),
    "cli-reports": ("reports", "cli_reports", True),
}

# fresh processes that repeat the set-up, besides this one
SETUP_PROBES = 8

HASH_SEED = "0"

COUNTERS = (
    "clone.ops_closed", "clone.homs_enumerated", "clone.ops_lifted",
    "monoid.members_closed", "monoid.endos_found",
    "structures.maps_enumerated", "structures.witnesses",
    "backforth.queries", "backforth.fresh_pairs", "backforth.fallback_pairs",
    "backforth.max_witness_bits", "backforth.budget_exceeded",
    "extend.points_checked", "extend.paths", "extend.consistent_paths",
    "topology.matched", "topology.density_total",
    "cli.bytes_out", "cli.exit_nonzero",
)

# ratio name -> (numerator counter, base counter)
RATIOS = {
    "backforth.fallback_share": ("backforth.fallback_pairs",
                                 "backforth.fresh_pairs"),
    "extend.consistent_share": ("extend.consistent_paths", "extend.paths"),
    "topology.matched_share": ("topology.matched", "topology.density_total"),
}


def build(workload, seed, workdir):
    """Import the package and make the workload's jobs: the set-up whose
    time ``setup_s`` reports.  Returns (jobs, seconds)."""
    start = time.perf_counter()
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    module, builder, _ = WORKLOADS[workload]
    jobs = getattr(__import__(module), builder)(seed, workdir)
    return jobs, time.perf_counter() - start


def probe_setup(workload, seed, workdir):
    """Set-up time of one fresh process (interpreter start excluded)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), workload,
         str(seed), workdir],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_loop(jobs, seconds, trace, warm_up):
    """A warm-up pass if ``warm_up``, then measured rounds (one untraced
    pass, plus one traced pass when tracing) while another round fits in
    ``seconds``.  Returns the warm-up pass (or None), the untraced passes,
    the traced passes and the tracer (or None)."""
    from harness import run_pass
    from spans import Direct, Tracer

    direct = Direct()
    tracer = Tracer() if trace else None
    untraced, traced = [], []
    start = time.perf_counter()
    # What the set-up and the warm-up pass leave lives to the end of the
    # run.  Frozen, it is not walked by the collection before each job,
    # which then costs little and takes the same time in every run.
    gc.collect()
    gc.freeze()
    warm = None
    if warm_up:
        warm = run_pass(jobs, direct)
        gc.collect()
        gc.freeze()
    while True:
        t = time.perf_counter()
        untraced.append(run_pass(jobs, direct))
        if tracer is not None:
            traced.append(run_pass(jobs, tracer, job_offset=len(jobs) *
                                   len(traced)))
        last = time.perf_counter() - t
        if time.perf_counter() - start + last > seconds:
            return warm, untraced, traced, tracer


def check_passes(passes):
    """Every pass must repeat the first one's outputs and counters."""
    problems = []
    first = passes[0]
    for k, p in enumerate(passes[1:], start=2):
        if p.digest() != first.digest():
            problems.append(f"pass {k} digest differs from pass 1")
    for p in passes:
        problems.extend(p.wrong)
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "clonelab", "__init__.py")):
        print("perfbench: the package source src/clonelab is missing",
              file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Set and dict layouts follow the string hash seed, and the
        # fragment closures run up to 25% slower or faster from one seed
        # to the next; a fixed seed makes the timings repeat.
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable,
                  [sys.executable, os.path.abspath(__file__)] + sys.argv[1:],
                  env)
    sys.path.insert(0, HERE)
    workdir = os.path.join(OUT_DIR, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return measure(args, workdir)
    finally:
        for name in sorted(os.listdir(workdir)):
            os.remove(os.path.join(workdir, name))
        os.rmdir(workdir)


def measure(args, workdir):
    from harness import job_stats

    jobs, own_setup = build(args.workload, args.seed, workdir)
    probes = [probe_setup(args.workload, args.seed, workdir)
              for _ in range(SETUP_PROBES)]
    problems = [f"set-up probe made {p['jobs']} jobs, expected {len(jobs)}"
                for p in probes if p["jobs"] != len(jobs)]
    setups = [own_setup] + [p["setup_s"] for p in probes]

    warm, untraced, traced, tracer = run_loop(
        jobs, args.seconds, args.trace, WORKLOADS[args.workload][2])
    passes = untraced + traced
    every = [warm] + passes if warm else passes
    problems += check_passes(every)
    stats = job_stats(passes)
    first = every[0]
    counters = {name: first.counters.get(name, 0) for name in COUNTERS}

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(jobs)} jobs per pass, {1 if warm else 0} warm-up, "
          f"{len(untraced)} untraced and {len(traced)} traced passes")
    print(f"digest {first.digest()}")
    print("counters " + json.dumps(counters, sort_keys=True))
    for msg in problems:
        print(f"CHECK FAILED: {msg}")

    if args.trace:
        metrics = per_layer(tracer, untraced, traced, counters, stats)
        tracer.write(os.path.join(
            OUT_DIR, f"spans-{args.workload}-{args.seed}.jsonl"))
    else:
        metrics = end_to_end(stats, setups)
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": stats["attempted"],
        "failed": stats["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def end_to_end(stats, setups):
    from harness import REFERENCE_SLICE_S

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    completed = stats["completed"]
    raw = stats["raw"]
    print(f"  (latencies over {completed} completed jobs; fail_share "
          f"{stats['failed'] / stats['attempted']:.4f} = {stats['failed']} "
          f"of {stats['attempted']} attempted; setup_s is the median of "
          f"{len(setups)} fresh-process set-ups)")
    print(f"  (timings scaled to a {REFERENCE_SLICE_S * 1e3:g} ms reference "
          f"slice; the median slice took {stats['slice_ms']:.4f} ms; as "
          f"timed: jobs_per_s {raw['jobs_per_s']:.6g}, job_p50_ms "
          f"{raw['job_p50_ms']:.6g}, job_p90_ms {raw['job_p90_ms']:.6g})")
    return {
        "setup_s": (statistics.median(setups), "s"),
        "jobs_per_s": (stats["jobs_per_s"], "1/s"),
        "job_p50_ms": (stats["job_p50_ms"], "ms"),
        "job_p90_ms": (stats["job_p90_ms"], "ms"),
        "ok_share": (completed / stats["attempted"], "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(tracer, untraced, traced, counters, stats):
    from harness import job_stats
    from spans import layer_metrics

    metrics = layer_metrics(tracer.spans, len(traced))
    for name, value in counters.items():
        metrics[name] = (value, "count")
    for name, (num, base) in RATIOS.items():
        metrics[name] = (counters[num] / counters[base] if counters[base]
                         else 0.0, "ratio")
    plain = job_stats(untraced)["jobs_per_s"]
    with_spans = job_stats(traced)["jobs_per_s"]
    metrics["trace.untraced_jobs_per_s"] = (plain, "1/s")
    metrics["trace.traced_jobs_per_s"] = (with_spans, "1/s")
    metrics["trace.overhead_share"] = (1 - with_spans / plain if plain
                                       else 0.0, "ratio")
    metrics["jobs.fail_share"] = (stats["failed"] / stats["attempted"],
                                  "ratio")
    metrics["machine.reference_slice_ms"] = (stats["slice_ms"], "ms")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
