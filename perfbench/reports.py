"""The ``cli-reports`` workload: one in-process ``clonelab.cli.main(argv)``
call per job, across all nine subcommands, on input files written at
set-up.  It is the only workload that measures the ``cli`` layer:
argument parsing, JSON in and out, and the report envelope.

Expected values are worked out at a job's first check, outside set-up
and outside the timed window.  The heavier inputs (fragment verification
and enumeration) are fixed so
that the upper latency percentiles do not depend on the seed; the seed
picks the lighter inputs and the conjugators.  One input is well formed
but exits 2 with ``BudgetExceeded`` today: the bit-adjacency
``check-extension`` with theta swapping 0 and 1, the target fixing 0,
points 3 and 5, at the default ``--trials``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from fractions import Fraction
from functools import cache
from itertools import combinations

from clonelab import cli

import oracles as O
from finite import SWEEP_BINARY, SWEEP_UNARY
from harness import ExitStatus, Job
from lazy import random_anchors, random_fraction

FINITE2 = {"kind": "finite", "size": 2}


def _finite(size):
    return {"kind": "finite", "size": size}


def _graph_json(n, pairs):
    edges = sorted(O.graph_edges(n, pairs))
    return {"carrier": _finite(n), "signature": [{"name": "E", "arity": 2}],
            "relations": {"E": [list(e) for e in edges]}}


def _cli_job(workdir, name, command, payload, flags, verify, may_fail=None):
    """Write the input file now; the job runs the subcommand on it and
    should exit 0.  ``may_fail`` names the error a known-defect input may
    exit 2 with today."""
    path = os.path.join(workdir, f"{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    argv = [command, "--input", path] + list(flags)

    def run(T, ctx):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = T.call(cli.main, argv)
        return code, buf.getvalue()

    def check(out, ctx, counters):
        code, text = out
        counters["cli.bytes_out"] += len(text.encode())
        counters["cli.exit_nonzero"] += code != 0
        report = json.loads(text)
        O.require(report["command"] == command and report["schema"] == 1,
                  "malformed envelope")
        if code != 0:
            failures = report["failures"]
            failure = f"exit {code}"
            if code == 2 and failures:
                failure = failures[0].split(":", 1)[0]
            if failure == "BudgetExceeded":
                counters["backforth.budget_exceeded"] += 1
            raise ExitStatus(f"exit {code}: {failures[:1]}", failure)
        verify(report)
        del report["generated_at"]
        return {"report": O.fingerprint(report)}

    return Job(command, run, check, may_fail=may_fail)


# ---------------------------------------------------------------------------
# expected results
# ---------------------------------------------------------------------------

def _lifting_verdict(gens, theta):
    def verify(report):
        unary = sorted(O.term_ops(2, gens, 1))
        total = sum(len(O.term_ops(2, gens, m)) for m in (1, 2))
        inner = report["results"]["report"]
        O.require(report["parameters"]["source_ops"] == total,
                  "source fragment has the wrong size")
        if O.weakly_directed(2, unary):
            O.require(inner["conclusion"] == "conjugation-at-every-arity"
                      and inner["checked"] == total
                      and not inner["counterexamples"],
                      "lifting not confirmed")
        else:
            O.require(inner["conclusion"] == "hypotheses-not-met",
                      "unexpected lifting conclusion")
    return verify


def _homs_verdict(gens):
    def verify(report):
        ops_by_arity = {m: sorted(O.term_ops(2, gens, m)) for m in (1, 2)}
        homs = report["results"]["homs"]
        O.require(report["results"]["count"] == len(homs) >= 1,
                  "no homomorphisms listed")
        identity_seen = False
        for hom in homs:
            image = {(e["arity"], tuple(e["from"])): tuple(e["to"])
                     for e in hom["mappings"]}
            O.check_clone_hom(2, gens, ops_by_arity, image)
            identity_seen |= all(k[1] == v for k, v in image.items())
        O.require(identity_seen, "the identity hom is missing")
    return verify


def _extension_verdict(expected):
    """``expected`` maps a point's JSON to the conjugated value's JSON,
    or is None when only the audit flags are checked."""
    def verify(report):
        results = report["results"]
        O.require(results["hom_law"]["agree"]
                  and all(w["consistent"] for w in results["well_defined"])
                  and (results["transfer"] is None
                       or results["transfer"]["agree"]),
                  "an extension audit failed")
        if expected is not None:
            for entry in results["values"]:
                O.require(entry["value"] == expected(entry["point"]),
                          f"value at {entry['point']} differs from "
                          f"conjugation")
    return verify


def _density_verdict(source, targets, size, k):
    def verify(report):
        for entry in report["results"]["profile"]:
            points = range(min(entry["radius"] + 1, size))
            expected = sum(any(all(s[p] == t[p] for p in points)
                               for s in source) for t in targets)
            O.require(entry["matched"] == expected
                      and entry["total"] == len(targets),
                      f"radius {entry['radius']}: {entry['matched']} "
                      f"matched, expected {expected}")
        O.require(len(report["results"]["profile"]) == k + 1,
                  "wrong number of windows")
    return verify


def _all_dense(report):
    O.require(all(e["verdict"] == "dense-at-window"
                  for e in report["results"]["profile"]),
              "automorphisms are dense at every window")


def _homogeneity_verdict(n, pairs):
    def verify(report):
        edges = O.graph_edges(n, pairs)
        results = report["results"]
        verdict = results["homogeneous"]
        O.require(verdict == O.homogeneous_graph(n, edges),
                  "verdict contradicts the classification")
        if not verdict:
            witness = [tuple(p) for p in results["witness"]["pairs"]]
            O.require(O.is_partial_iso(edges, dict(witness))
                      and not O.extendable(O.automorphisms(n, edges), witness),
                      "witness does not re-verify")
    return verify


def _complement_verdict(n, rel):
    @cache
    def expected():
        return [list(p) for p in O.automorphisms(n, set(rel))]

    def verify(report):
        results = report["results"]
        O.require(results["equal"] and results["maps"] == expected(),
                  "complement census equality fails")
    return verify


def _endos_verdict(tables, fixed_index):
    @cache
    def expected():
        return O.injective_endos(tables, [tables[fixed_index]])

    def verify(report):
        O.require(report["results"]["report"]["maps"] == expected(),
                  "injective endomorphisms differ from brute force")
    return verify


def _centre_verdict(tables):
    @cache
    def expected():
        return [list(t) for t in O.centre(tables)]

    def verify(report):
        O.require(report["results"]["centre"] == expected(),
                  "centre differs from the commuting members")
    return verify


def _partner_verdict(rational, x, y):
    def verify(report):
        inner = report["results"]["report"]
        O.require(inner["outcome"] == "witness-found"
                  and inner["left"] != inner["right"],
                  "no noncommuting witness")
        if rational:
            # f shifts by y - x; the partner fixes p and sends f(p) to the
            # midpoint, so f(g(p)) = f(p) and g(f(p)) is the midpoint
            p = Fraction(inner["point"])
            fp = p + (y - x)
            O.require(inner["left"] == str(fp)
                      and inner["right"] == str((p + fp) / 2),
                      "composites differ from the shift and the midpoint")
    return verify


def _monoid_transitivity_verdict(tables, pairs):
    size = len(tables[0])

    def verify(report):
        results = report["results"]
        transitive = all(len({f[a] for f in tables}) == size
                         for a in range(size))
        O.require(results["transitive"] == transitive
                  and results["weakly_directed"] == O.weakly_directed(
                      size, tables), "transitivity flags differ")
        for w, (a, b) in zip(results["witnesses"], pairs):
            O.require(w["f"][w["c"]] == a and w["g"][w["c"]] == b
                      and w["f"] in [list(t) for t in tables]
                      and w["g"] in [list(t) for t in tables],
                      "weak directedness witness is wrong")
    return verify


def _structure_transitivity_verdict(a, b):
    def verify(report):
        results = report["results"]
        O.require(results["f_at_base"] == a and results["g_at_base"] == b,
                  "transitivity witness misses its targets")
    return verify


# ---------------------------------------------------------------------------
# the job list
# ---------------------------------------------------------------------------

def _random_closure(rng, size, max_members):
    while True:
        gens = [tuple(rng.randrange(size) for _ in range(size))
                for _ in range(rng.randint(1, 2))]
        closure = sorted(O.monoid_closure(size, gens))
        if len(closure) <= max_members:
            return closure


def _common_ancestor_pairs(rng, tables, size, count):
    pairs = []
    while len(pairs) < count:
        a, b = rng.randrange(size), rng.randrange(size)
        if O.common_ancestor(size, tables, a, b):
            pairs.append([a, b])
    return pairs


def cli_reports(seed, workdir):
    rng = random.Random(f"cli-reports:{seed}")
    jobs = []

    def add(command, payload, flags, verify, may_fail=None):
        name = f"{len(jobs):03d}-{command}"
        jobs.append(_cli_job(workdir, name, command, payload, flags, verify,
                             may_fail))

    # verify-lifting: {not, and} and one generator set per distinct
    # two-element fragment of the ACCEPTANCE-01 sweep; seeded conjugators
    sets = [[(1, [1, 0]), (2, [0, 0, 0, 1])]]
    seen = set()
    for r in range(3):
        for combo in combinations(SWEEP_UNARY, r):
            for b in SWEEP_BINARY:
                gens = [(1, list(u)) for u in combo] + [(2, list(b))]
                sig = tuple(frozenset(O.term_ops(2, gens, m)) for m in (1, 2))
                if sig not in seen:
                    seen.add(sig)
                    sets.append(gens)
    for gens in sets[:12]:
        theta = rng.choice([[0, 1], [1, 0]])
        payload = {"source": {"carrier": FINITE2, "generators": [
            {"arity": n, "table": t} for n, t in gens]}, "theta": theta}
        add("verify-lifting", payload, ["--max-arity", "2"],
            _lifting_verdict(gens, theta))
    for gens in sets[1:9]:
        payload = {"source": {"carrier": FINITE2, "generators": [
            {"arity": n, "table": t} for n, t in gens]}}
        add("enumerate-homs", payload, ["--max-arity", "2"],
            _homs_verdict(gens))

    # check-extension: rationals, finite conjugation, the bit-adjacency
    # graph with and without sampled points
    for _ in range(8):
        theta = random_anchors(rng, rng.randint(1, 4))
        target = random_anchors(rng, rng.randint(1, 4))
        points = sorted({random_fraction(rng) for _ in range(3)})

        def expected(p, theta=theta, target=target):
            x = O.pl_inverse(theta, Fraction(p))
            return str(O.pl_eval(theta, O.pl_eval(target, x)))

        payload = {"structure": "rationals-order",
                   "theta_seed": [[str(a), str(b)] for a, b in theta],
                   "target_seed": [[str(a), str(b)] for a, b in target],
                   "points": [str(p) for p in points]}
        add("check-extension", payload, ["--seed", str(rng.randrange(100))],
            _extension_verdict(expected))
    rotations = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    for _ in range(4):
        theta = rng.sample(range(3), 3)
        target = rng.choice(rotations)
        payload = {"carrier": _finite(3), "source": rotations,
                   "theta": theta, "target": target, "points": [0, 1, 2]}
        add("check-extension", payload, [],
            _extension_verdict(lambda p, theta=theta, target=target:
                               O.conjugate_table(theta, target, 3, 1)[p]))
    for theta_seed, target_seed, points in (
            ([[0, 1]], [[0, 0]], [1, 2]), ([[1, 2]], [[0, 3]], [4])):
        payload = {"structure": "rado", "theta_seed": theta_seed,
                   "target_seed": target_seed, "points": points}
        add("check-extension", payload, ["--trials", "0"],
            _extension_verdict(None))
    # the known defect of this workload: well formed, but exits 2 with
    # BudgetExceeded today
    add("check-extension", {"structure": "rado",
                            "theta_seed": [[0, 1], [1, 0]],
                            "target_seed": [[0, 0]], "points": [3, 5]},
        [], _extension_verdict(None), may_fail="BudgetExceeded")

    # density: finite monoids against random targets, and rational
    # automorphisms
    for _ in range(5):
        source = _random_closure(rng, 3, 27)
        targets = [[rng.randrange(3) for _ in range(3)] for _ in range(4)]
        payload = {"carrier": _finite(3), "source": [list(t) for t in source],
                   "targets": targets}
        add("density", payload, ["--window-k", "2"],
            _density_verdict(source, targets, 3, 2))
    for _ in range(5):
        seeds = [[[str(a), str(b)]
                  for a, b in random_anchors(rng, rng.randint(1, 4))]
                 for _ in range(3)]
        add("density", {"structure": "rationals-order",
                        "target_seeds": seeds}, ["--window-k", "2"],
            _all_dense)

    # homogeneity and the complement census
    fixed_graphs = [(5, [(i, (i + 1) % 5) for i in range(5)]),
                    (4, [(0, 1), (1, 2), (2, 3)])]
    for _ in range(14):
        n = rng.randint(4, 6)
        fixed_graphs.append((n, [e for e in combinations(range(n), 2)
                                 if rng.random() < 0.5]))
    for n, pairs in fixed_graphs:
        add("homogeneity", {"structure": _graph_json(n, pairs)}, [],
            _homogeneity_verdict(n, pairs))
    for _ in range(10):
        n = rng.randint(3, 4)
        rel = [(a, b) for a in range(n) for b in range(n)
               if rng.random() < 0.4]
        structure = {"carrier": _finite(n),
                     "signature": [{"name": "R", "arity": 2}],
                     "relations": {"R": [list(t) for t in rel]}}
        add("complement-end-emb", {"structure": structure}, [],
            _complement_verdict(n, rel))

    # monoid-level commands
    for _ in range(10):
        tables = _random_closure(rng, 3, 6)
        fixed = rng.randrange(len(tables))
        add("injective-endos", {"monoid": {
            "carrier": _finite(3), "ops": [list(t) for t in tables]},
            "fixed": [fixed]}, [], _endos_verdict(tables, fixed))
    for _ in range(5):
        size = rng.choice((3, 4))
        tables = _random_closure(rng, size, 40)
        add("centre-witness", {"monoid": {
            "carrier": _finite(size), "ops": [list(t) for t in tables]}},
            [], _centre_verdict(tables))
    for k in range(5):
        rational = k % 2 == 0
        x = random_fraction(rng) if rational else rng.randrange(48)
        y = x
        while y == x:
            y = random_fraction(rng) if rational else rng.randrange(48)
        enc = str if rational else int
        add("centre-witness", {
            "structure": "rationals-order" if rational else "rado",
            "seed": [[enc(x), enc(y)]]}, [], _partner_verdict(rational, x, y))
    for _ in range(5):
        tables = _random_closure(rng, 3, 27)
        pairs = _common_ancestor_pairs(rng, tables, 3, 2)
        add("transitivity", {"monoid": {
            "carrier": _finite(3), "ops": [list(t) for t in tables]},
            "pairs": pairs}, [], _monoid_transitivity_verdict(tables, pairs))
    for k in range(5):
        rational = k % 2 == 0
        if rational:
            a = str(random_fraction(rng, 99, 9))
            b = str(random_fraction(rng, 99, 9))
        else:
            a, b = rng.randrange(200), rng.randrange(200)
        add("transitivity", {
            "structure": "rationals-order" if rational else "rado",
            "a": a, "b": b}, [], _structure_transitivity_verdict(a, b))
    rng.shuffle(jobs)
    return jobs
