"""Tests of the benchmark itself, at a small size.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import pytest  # noqa: E402

import run  # noqa: E402
from clonelab.errors import BudgetExceeded  # noqa: E402
from harness import EXIT, RAISED, ExitStatus, Job, run_pass  # noqa: E402
from spans import LAYERS, Direct, Tracer, layer_metrics  # noqa: E402

# cheap job kinds of each workload; none reads what a skipped job stored
SMALL = {
    "finite-algebra": {"close-monoid", "two-path"},
    "finite-search": {"census", "map-monoids", "centre"},
    "lazy-maps": {"rational-extension", "density", "rado-transfer",
                  "rado-interpolation", "witnesses", "mixed-20", "mixed-40"},
    "cli-reports": {"check-extension", "density", "homogeneity",
                    "complement-end-emb", "injective-endos", "centre-witness",
                    "transitivity"},
}


def small_jobs(workload, seed, workdir):
    os.makedirs(workdir, exist_ok=True)
    jobs, _ = run.build(workload, seed, str(workdir))
    return [job for job in jobs if job.kind in SMALL[workload]]


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_same_seed_same_digest_and_counters(workload, tmp_path):
    a = run_pass(small_jobs(workload, 7, tmp_path / "a"), Direct())
    b = run_pass(small_jobs(workload, 7, tmp_path / "b"), Tracer())
    assert not a.wrong and not b.wrong
    assert a.digest() == b.digest()
    assert a.counters == b.counters
    assert a.summaries == b.summaries


def test_other_seed_other_inputs(tmp_path):
    a = run_pass(small_jobs("lazy-maps", 1, tmp_path / "a"), Direct())
    b = run_pass(small_jobs("lazy-maps", 2, tmp_path / "b"), Direct())
    assert a.digest() != b.digest()


def test_failures_are_counted_consistently(tmp_path):
    # holds whether or not the known defects are still there
    lazy = run_pass(small_jobs("lazy-maps", 1, tmp_path / "a"), Direct())
    assert not lazy.wrong
    assert lazy.counters["backforth.budget_exceeded"] == sum(
        s == RAISED for _, s in lazy.durations)
    cli = run_pass(small_jobs("cli-reports", 1, tmp_path / "b"), Direct())
    assert not cli.wrong
    assert cli.counters["cli.exit_nonzero"] == sum(
        s == EXIT for _, s in cli.durations)


def test_only_known_defects_may_fail():
    def boom(T, ctx):
        raise BudgetExceeded("scan budget spent")

    def summary(out, ctx, counters):
        return {"raised": type(out).__name__}

    for may_fail, wrong in ((None, 1), ("BudgetExceeded", 0), ("KeyError", 1)):
        job = Job("boom", boom, summary, sees_raised=True, may_fail=may_fail)
        result = run_pass([job], Direct())
        assert [s for _, s in result.durations] == [RAISED]
        assert len(result.wrong) == wrong

    def exits(T, ctx):
        return 1

    def exit_check(out, ctx, counters):
        raise ExitStatus("exit 1", "exit 1")

    job = Job("exits", exits, exit_check, may_fail="BudgetExceeded")
    result = run_pass([job], Direct())
    assert [s for _, s in result.durations] == [EXIT]
    assert len(result.wrong) == 1


def test_spans_nest_under_their_job(tmp_path):
    tracer = Tracer()
    jobs = small_jobs("finite-search", 3, tmp_path)[:5]
    run_pass(jobs, tracer)
    roots = [s for s in tracer.spans if s[1].startswith("job.")]
    assert len(roots) == len(jobs)
    root_ids = {s[0] for s in roots}
    for span_id, name, start, end, parent, job, raised in tracer.spans:
        assert start <= end
        if not name.startswith("job."):
            assert parent in root_ids
            assert tracer.spans[parent][5] == job
    metrics = layer_metrics(tracer.spans, 1)
    assert set(f"{layer}.calls" for layer in LAYERS) <= set(metrics)
    assert metrics["structures.calls"][0] > 0


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lazy-maps",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
