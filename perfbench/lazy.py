"""The ``lazy-maps`` workload: back-and-forth and extension on the two
catalog structures.

Exact ``Fraction`` and big-integer work with no finite tables.  A
stateless rational map sits beside a stateful bit-adjacency memo, and
one-sided growth (400 forward queries) beside two-sided growth (mixed
forward and inverse sequences).  The mixed sequences include lengths at
which many seeds end in ``BudgetExceeded`` today; they stay in the mix
so that a fix shows as a lower fail share.
"""

from __future__ import annotations

import random
from fractions import Fraction

from clonelab import backforth, extend, fnspace, structures, topology
from clonelab.errors import BudgetExceeded

import oracles as O
from harness import Job

MIXED_LENGTHS = (20, 40, 100)
MIXED_PER_LENGTH = 15


def random_fraction(rng, span=24, den=6):
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def random_anchors(rng, count):
    """At most ``count`` seed pairs of an order automorphism: increasing
    on both sides."""
    xs = sorted({random_fraction(rng) for _ in range(count)})
    y = random_fraction(rng)
    pairs = []
    for x in xs:
        pairs.append((x, y))
        y += Fraction(rng.randint(1, 12), rng.randint(1, 6))
    return pairs


def _embedding_rule(rng, piecewise):
    a = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    if not piecewise:
        b = random_fraction(rng)
        return lambda x: a * x + b
    cut = random_fraction(rng)
    gap = Fraction(rng.randint(1, 9), rng.randint(1, 4))
    return lambda x: a * x if x < cut else a * x + gap


def _rado_partial_iso(rng, max_points, universe):
    """A partial isomorphism built left to right from small vertices,
    with a constructed witness when none below 512 fits.  A witness is
    built only over small images (a witness over a witness would need a
    bit at a huge position); a draw that would need one is redrawn."""
    while True:
        pairs = _draw_rado_partial_iso(rng, max_points, universe)
        if pairs is not None:
            return pairs


def _draw_rado_partial_iso(rng, max_points, universe):
    dom = sorted(rng.sample(range(universe), rng.randint(1, max_points)))
    pairs, used = [], set()
    for x in dom:
        skips = rng.randint(0, 2)
        choice = None
        for y in range(512):
            if y in used or not all(O.rado_adjacent(y, img) ==
                                    O.rado_adjacent(x, src)
                                    for src, img in pairs):
                continue
            if skips == 0:
                choice = y
                break
            skips -= 1
        if choice is None:
            if max(used) >= 512:
                return None
            like = [img for src, img in pairs if O.rado_adjacent(x, src)]
            top = max([img for _, img in pairs] + list(used)) + 1
            choice = sum(1 << v for v in like) + (1 << top)
        pairs.append((x, choice))
        used.add(choice)
    return pairs


def _count_queries(seed, log, snapshot, counters):
    """Fresh answers among the benchmark's own queries on one map: a
    query is fresh when its point was not yet matched, and its answer is
    a fallback when it lies at or above the scan cap.  The snapshot must
    have grown by exactly the fresh answers."""
    dom = {a for a, _ in seed}
    img = {b for _, b in seed}
    fresh = fallback = 0
    for inverse, x, y in log:
        known, other = (img, dom) if inverse else (dom, img)
        if x not in known:
            fresh += 1
            fallback += y >= backforth.DEFAULT_SCAN_CAP
            known.add(x)
            other.add(y)
    O.require(len(snapshot) - len(seed) == fresh,
              f"snapshot grew by {len(snapshot) - len(seed)}, "
              f"{fresh} fresh answers")
    counters["backforth.queries"] += len(log)
    counters["backforth.fresh_pairs"] += fresh
    counters["backforth.fallback_pairs"] += fallback
    return fresh


def _check_rado_map(snapshot, counters):
    O.check_rado_partial_iso(snapshot)
    bits = max((max(a.bit_length(), b.bit_length()) for a, b in snapshot),
               default=0)
    counters.peak("backforth.max_witness_bits", bits)


def _enc(v):
    return format(v, "x") if isinstance(v, int) else str(v)


def _ask(T, f, log, inverse, x):
    y = T.query(f.inverse if inverse else f, x)
    log.append((inverse, x, y))
    return y


# ---------------------------------------------------------------------------
# jobs
# ---------------------------------------------------------------------------

def _rational_extension_job(anchors, rule, rule2, b):
    """ACCEPTANCE-03: the three audits and one extended value on the
    rationals, all against direct conjugation through the anchors."""
    def run(T, ctx):
        q = T.call(structures.rationals_order)
        interp = T.call(backforth.BackAndForthInterpolator, q)
        theta = T.call(backforth.automorphism_from, q, anchors)
        hom = T.call(extend.HomMap, fnspace.RATIONALS, interp, theta=theta)
        f = T.call(fnspace.make_op, fnspace.RATIONALS, 1, rule=rule)
        f2 = T.call(fnspace.make_op, fnspace.RATIONALS, 1, rule=rule2)
        return (T.call(extend.check_well_defined, hom, f, (b,),
                       extra_paths=4),
                T.call(extend.check_hom_law, hom, f, f2, [b]),
                T.call(extend.check_conjugation_transfer, hom, f, [b]),
                T.call(hom.extend_at, f, (b,)))

    def check(out, ctx, counters):
        well, law, transfer, value = out
        x = O.pl_inverse(anchors, b)
        expected = O.pl_eval(anchors, rule(x))
        expected_law = O.pl_eval(anchors, rule(rule2(x)))
        O.require(well["consistent"] and well["paths"] == 5,
                  "extension is not well defined over five paths")
        O.require(value == well["value"] == expected,
                  f"extended value {value}, conjugation gives {expected}")
        O.require(law["agree"] and law["checks"][0]["left"] == expected_law,
                  "composition law fails")
        O.require(transfer["agree"]
                  and transfer["checks"][0]["left"] == expected,
                  "conjugation transfer fails")
        counters["extend.points_checked"] += 4
        counters["extend.paths"] += well["paths"]
        counters["extend.consistent_paths"] += sum(
            w["value"] == well["value"] for w in well["witnesses"])
        return {"value": str(value), "law": str(expected_law)}

    return Job("rational-extension", run, check)


def _density_job(seeds, rules, k):
    """density_profile of the automorphism interpolator on the rationals:
    a target is matched at a window exactly when it is strictly
    increasing there."""
    def run(T, ctx):
        q = T.call(structures.rationals_order)
        interp = T.call(backforth.BackAndForthInterpolator, q)
        targets = [T.call(T.call(backforth.automorphism_from, q, s).as_op)
                   for s in seeds]
        targets += [T.call(fnspace.make_op, fnspace.RATIONALS, 1, rule=r)
                    for r in rules]
        windows = T.call(topology.window_chain, fnspace.RATIONALS, k)
        return T.call(topology.density_profile, interp, targets, windows)

    fns = [lambda x, s=s: O.pl_eval(sorted(s), x) for s in seeds] + rules

    def check(reports, ctx, counters):
        matched = []
        for r, rep in enumerate(reports):
            points = [Fraction(i) for i in range(-r, r + 1)]
            expected = sum(all(f(a) < f(b) for a, b in zip(points, points[1:]))
                           for f in fns)
            O.require(rep.total == len(fns) and rep.matched == expected,
                      f"radius {r}: {rep.matched} matched, expected "
                      f"{expected}")
            matched.append(rep.matched)
            counters["topology.matched"] += rep.matched
            counters["topology.density_total"] += rep.total
        return {"matched": matched}

    return Job("density", run, check)


def _rado_transfer_job(pairs, avoid, b):
    """ACCEPTANCE-04: extension against direct conjugation on the
    bit-adjacency graph, re-derived from the maps' snapshots."""
    def run(T, ctx):
        g = T.call(structures.rado_graph)
        interp = T.call(backforth.BackAndForthInterpolator, g)
        theta = T.call(backforth.automorphism_from, g, pairs)
        hom = T.call(extend.HomMap, fnspace.RADO, interp, theta=theta)
        emb = T.call(backforth.embedding_from, g, avoid=avoid)
        f = T.call(emb.as_op)
        return theta, emb, T.call(extend.check_conjugation_transfer, hom, f,
                                  [b])

    def check(out, ctx, counters):
        theta, emb, transfer = out
        forward = dict(theta.snapshot())
        inverse = {y: x for x, y in forward.items()}
        expected = forward[dict(emb.snapshot())[inverse[b]]]
        O.require(transfer["agree"]
                  and transfer["checks"][0]["left"] == expected,
                  "transfer disagrees with the snapshots")
        _check_rado_map(theta.snapshot(), counters)
        _check_rado_map(emb.snapshot(), counters)
        O.require(not set(avoid) & {y for _, y in emb.snapshot()},
                  "embedding hits an avoided vertex")
        counters["extend.points_checked"] += 1
        return {"value": format(expected, "x")}

    return Job("rado-transfer", run, check)


def _interpolation_job(pairs, extra):
    """ACCEPTANCE-06: interpolate a partial isomorphism on its window,
    then query the window and a few fresh points."""
    mapping = dict(pairs)
    dom = sorted(mapping)

    def run(T, ctx):
        g = T.call(structures.rado_graph)
        strategy = T.call(backforth.BackAndForthInterpolator, g)
        target = T.call(fnspace.make_op, fnspace.RADO, 1,
                        rule=mapping.__getitem__)
        win = T.call(fnspace.window, fnspace.RADO, dom)
        op = T.call(topology.interpolant, target, strategy, win)
        aut = op.rule.__self__
        log = []
        for x in dom + extra:
            _ask(T, aut, log, False, x)
        return aut, log

    def check(out, ctx, counters):
        aut, log = out
        O.require(all(y == mapping[x] for _, x, y in log if x in mapping),
                  "interpolant disagrees with the target on the window")
        snapshot = aut.snapshot()
        _check_rado_map(snapshot, counters)
        _count_queries(pairs, log, snapshot, counters)
        return {"answers": O.hex_vertices(y for _, _, y in log)}

    return Job("rado-interpolation", run, check)


def _witness_job(rational, transitive, noncommuting):
    """ACCEPTANCE-07: transitivity witnesses (two maps sending a base
    point to the given points) and noncommuting partners for maps
    seeded by x -> y, every composite recomputed by queries."""
    def run(T, ctx):
        s = T.call(structures.rationals_order if rational
                   else structures.rado_graph)
        found = []
        for a, b in transitive:
            f, g, c = T.call(backforth.transitivity_witness, s, a, b)
            found.append((f, g, c, T.query(f, c), T.query(g, c)))
        partners = []
        for x, y in noncommuting:
            f = T.call(backforth.automorphism_from, s, [(x, y)])
            report = T.call(backforth.noncommuting_witness, s, f)
            p, g = report.point, report.partner
            left = T.query(f, T.query(g, p))
            right = T.query(g, T.query(f, p))
            partners.append((f, report, left, right))
        return found, partners

    def check(out, ctx, counters):
        found, partners = out
        summary = []
        for (a, b), (f, g, c, fc, gc) in zip(transitive, found):
            O.require(fc == a and gc == b, "witness maps miss their targets")
            if not rational:
                _check_rado_map(f.snapshot(), counters)
                _check_rado_map(g.snapshot(), counters)
            summary.append(_enc(c))
        for (x, y), (f, report, left, right) in zip(noncommuting, partners):
            O.require(report.found and left == report.left
                      and right == report.right and left != right,
                      "noncommuting witness does not re-verify")
            p, g = report.point, report.partner
            if rational:
                anchors = sorted(g.snapshot())
                O.require(
                    left == O.pl_eval([(x, y)], O.pl_eval(anchors, p))
                    and right == O.pl_eval(anchors, O.pl_eval([(x, y)], p)),
                    "composites differ from the anchors")
            else:
                _check_rado_map(f.snapshot(), counters)
                _check_rado_map(g.snapshot(), counters)
            summary.append([_enc(p), _enc(left), _enc(right)])
        counters["backforth.queries"] += 2 * len(found) + 4 * len(partners)
        return {"witnesses": summary}

    return Job("witnesses", run, check)


def _sequence_job(kind, queries, may_fail=None):
    """Queries on one automorphism of the bit-adjacency graph seeded with
    0 -> 1.  A ``BudgetExceeded`` fails the job; the answers given before
    it must still form a partial isomorphism.  Only a job given
    ``may_fail="BudgetExceeded"`` may end that way without making the run
    incorrect."""
    seed = [(0, 1)]

    def run(T, ctx):
        g = T.call(structures.rado_graph)
        f = ctx["map"] = T.call(backforth.automorphism_from, g, seed)
        log = ctx["log"] = []
        for inverse, x in queries:
            _ask(T, f, log, inverse, x)
        return f

    def check(out, ctx, counters):
        f, log = ctx.pop("map"), ctx.pop("log")
        snapshot = f.snapshot()
        _check_rado_map(snapshot, counters)
        _count_queries(seed, log, snapshot, counters)
        summary = {"answered": len(log),
                   "answers": O.fingerprint(O.hex_vertices(y for _, _, y in log))}
        if isinstance(out, Exception):
            if isinstance(out, BudgetExceeded):
                counters["backforth.budget_exceeded"] += 1
            summary["raised"] = type(out).__name__
        return summary

    return Job(kind, run, check, sees_raised=True, may_fail=may_fail)


def lazy_maps(seed, workdir=None):
    rng = random.Random(f"lazy-maps:{seed}")
    jobs = []
    # The seed draws the anchors, rules and points, but the anchor counts,
    # the rule shapes and which anchors and rules a job uses follow a
    # fixed pattern: the latency percentiles fall among these jobs, and
    # their cost follows the anchor counts and the rule shapes.
    anchors = [random_anchors(rng, 1 + i % 4) for i in range(10)]
    rules = [_embedding_rule(rng, i % 2 == 1) for i in range(10)]
    for i in range(200):
        jobs.append(_rational_extension_job(
            anchors[i % 10], rules[i % 10], rules[(i // 10 + i) % 10],
            random_fraction(rng, span=40, den=12)))
    for i in range(40):
        c = random_fraction(rng)
        bent = [lambda x, c=c: -x + c, lambda x, c=c: (x - c) * (x - c)]
        jobs.append(_density_job([anchors[(i + 3 * k) % 10]
                                  for k in range(3)], bent, 3))
    for _ in range(15):
        jobs.append(_rado_transfer_job(
            _rado_partial_iso(rng, 3, 16), rng.sample(range(8),
                                                      rng.randint(0, 3)),
            rng.randrange(24)))
    for _ in range(15):
        pairs = _rado_partial_iso(rng, 6, 40)
        top = max(x for x, _ in pairs)
        jobs.append(_interpolation_job(pairs, [top + 1, top + 2, top + 3]))
    for rational in (True, False):
        def point():
            return (random_fraction(rng, span=999, den=50) if rational
                    else rng.randrange(200))

        def small():
            return random_fraction(rng) if rational else rng.randrange(48)

        def distinct_pair():
            x = small()
            y = small()
            while y == x:
                y = small()
            return x, y

        for _ in range(4):
            jobs.append(_witness_job(
                rational, [(point(), point()) for _ in range(5)],
                [distinct_pair() for _ in range(5)]))
    jobs.append(_sequence_job("forward-400",
                              [(False, x) for x in range(400)]))
    # The mixed sequences are the same for every --seed: they carry most
    # of the pass time and all of its failures, so drawing them from the
    # run's seed would make throughput and fail share vary by seed.  They
    # are the known defect of this workload: 30 of the 45 end in
    # BudgetExceeded today, and only they may.
    for n in MIXED_LENGTHS:
        for k in range(MIXED_PER_LENGTH):
            fixed = random.Random(f"mixed:{n}:{k}")
            queries = [(fixed.random() < 0.5, fixed.randrange(3 * n))
                       for _ in range(n)]
            jobs.append(_sequence_job(f"mixed-{n}", queries,
                                      may_fail="BudgetExceeded"))
    rng.shuffle(jobs)
    return jobs
