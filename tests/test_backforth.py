"""Tests for lazily presented automorphisms and embeddings.

Fixed oracle values for the bit-adjacency graph were computed by hand
from the minimal-scan rule (checking candidates 0, 1, 2, ... against the
required adjacencies), and the piecewise linear values by direct
fraction arithmetic.
"""

import json
from bisect import bisect_left
from fractions import Fraction
from itertools import product

import pytest

from clonelab.errors import (
    BudgetExceeded,
    InterpolationFailure,
    InvalidSeed,
    UnsupportedLazyCarrier,
)
from clonelab.fnspace import (
    RADO,
    RATIONALS,
    default_window,
    equal_on_window,
    make_op,
    window,
)
from clonelab.backforth import (
    BackAndForthInterpolator,
    LazyAutomorphism,
    LazyEmbedding,
    NoncommutingReport,
    automorphism_from,
    base_point,
    embedding_from,
    noncommuting_witness,
    probe_stream,
    transitivity_witness,
    _bit_positions,
    _PiecewiseLinear,
)
from clonelab.structures import (
    RelStructure,
    catalog_name,
    complement_expansion,
    path_graph,
    rado_adjacency,
    rado_graph,
    rationals_order,
)
from clonelab.topology import interpolant

try:
    from hypothesis import example, given, settings
    from hypothesis import strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:
    HAVE_HYPOTHESIS = False

Q = rationals_order()
R = rado_graph()


# ---------------------------------------------------------------------------
# the rational order: piecewise linear maps
# ---------------------------------------------------------------------------

def test_pl_values_through_two_anchors():
    f = automorphism_from(Q, [(0, 0), (1, 2)])
    assert f(Fraction(1, 2)) == 1
    assert f(Fraction(1, 3)) == Fraction(2, 3)
    assert f(2) == 3
    assert f(-1) == -1
    assert f(0) == 0 and f(1) == 2


def test_pl_inverse_is_exact():
    f = automorphism_from(Q, [(0, 0), (1, 2)])
    assert f.inverse(1) == Fraction(1, 2)
    assert f.inverse(3) == 2
    assert f.inverse(f(Fraction(7, 5))) == Fraction(7, 5)


def test_pl_empty_seed_is_identity():
    f = automorphism_from(Q)
    for x in [Fraction(-3, 2), 0, 7]:
        assert f(x) == x
        assert f.inverse(x) == x


def test_pl_is_order_insensitive():
    seed = [(0, 1), (2, 2)]
    first = automorphism_from(Q, seed)
    second = automorphism_from(Q, seed)
    points = [Fraction(5, 3), Fraction(-1), Fraction(1, 7), Fraction(9)]
    a = [first(p) for p in points]
    b = [second(p) for p in reversed(points)]
    assert a == list(reversed(b))
    assert not first.order_sensitive


def test_pl_snapshot_is_the_seed():
    f = automorphism_from(Q, [(1, 3), (0, 0)])
    f(Fraction(1, 2))
    assert f.snapshot() == [(0, 0), (1, 3)]


def test_pl_inverted_shares_values():
    f = automorphism_from(Q, [(0, 5)])
    g = f.inverted()
    assert g(5) == 0
    assert g.inverse(0) == 5
    assert g.inverted()(0) == 5


def test_rationals_seed_validation():
    with pytest.raises(InvalidSeed):
        automorphism_from(Q, [(0, 0), (1, -1)])
    with pytest.raises(InvalidSeed):
        automorphism_from(Q, [(0, 0), (0, 1)])
    with pytest.raises(InvalidSeed):
        automorphism_from(Q, [(0, 2), (1, 2)])
    # a repeated consistent pair is not a conflict
    f = automorphism_from(Q, [(0, 1), (0, 1)])
    assert f(0) == 1
    # a one-shot iterator is read once, by whichever check runs
    with pytest.raises(InvalidSeed, match="1 is sent to both"):
        automorphism_from(Q, iter([(0, 1), (1, 0), (1, 2)]))
    with pytest.raises(InvalidSeed, match="disagree on relation"):
        automorphism_from(Q, iter([(0, 1), (1, 0)]))
    f = automorphism_from(Q, iter([(0, 1), (0, 1)]))
    assert (f(0), f(5)) == (1, 6)
    # the first fault in seed order is reported, a conflict before a
    # foreign value as well
    with pytest.raises(InvalidSeed, match="0 is sent to both 0 and 1"):
        automorphism_from(Q, [(0, 0), (0, 1), (0.5, 1)])
    with pytest.raises(TypeError, match="floats are not rational codes"):
        automorphism_from(Q, [(0.5, 1), (0, 0), (0, 1)])


def pl_formula(xs, ys, x):
    """The piecewise linear map through the sorted anchors (xs, ys) at x,
    by Fraction arithmetic: the reference for the integer-pair kernel."""
    if not xs:
        return x
    i = bisect_left(xs, x)
    if i < len(xs) and xs[i] == x:
        return ys[i]
    if i == 0:
        return ys[0] + (x - xs[0])
    if i == len(xs):
        return ys[-1] + (x - xs[-1])
    x0, x1 = xs[i - 1], xs[i]
    y0, y1 = ys[i - 1], ys[i]
    return y0 + (x - x0) * (y1 - y0) / (x1 - x0)


def test_pl_kernel_values_by_hand():
    pl = _PiecewiseLinear([Fraction(-1, 2), Fraction(3)],
                          [Fraction(-7, 3), Fraction(5, 4)])
    # left of, at, between and right of the anchors
    assert pl.forward(Fraction(-2)) == Fraction(-23, 6)
    assert pl.forward(Fraction(3)) == Fraction(5, 4)
    assert pl.forward(Fraction(1)) == Fraction(-67, 84)
    assert pl.forward(Fraction(9, 2)) == Fraction(11, 4)
    assert pl.swapped().forward(Fraction(-67, 84)) == 1
    assert _PiecewiseLinear([], []).forward(Fraction(2, 3)) == Fraction(2, 3)


def scan_seed(structure, pairs):
    """The seed check by the definition: every two pairs agree on every
    relation, both ways round, scanned in seed order; the reference the
    sort on the rational order and the one-way scan of the catalog's one
    relation are compared against.  Returns the distinct pairs sorted by
    source."""
    carrier = structure.carrier
    seed, images = {}, {}
    for a, b in pairs:
        a, b = carrier.canonical(a), carrier.canonical(b)
        if seed.get(a, b) != b:
            raise InvalidSeed(f"{a} is sent to both {seed[a]} and {b}")
        if images.get(b, a) != a:
            raise InvalidSeed(f"{b} is hit by both {images[b]} and {a}")
        seed[a] = b
        images[b] = a
    items = list(seed.items())
    for i, (a, b) in enumerate(items):
        for c, d in items[i + 1:]:
            for name, _ in structure.signature:
                if (structure.related(name, a, c) != structure.related(name, b, d)
                        or structure.related(name, c, a)
                        != structure.related(name, d, b)):
                    raise InvalidSeed(
                        f"pairs ({a}, {b}) and ({c}, {d}) disagree on "
                        f"relation {name}")
    return sorted(items)


def seed_anchors(structure, pairs):
    """The validated seed an automorphism keeps: its pairs sorted by
    source, on both catalog structures."""
    return automorphism_from(structure, pairs).snapshot()


def seed_verdict(check, structure, pairs):
    try:
        return check(structure, pairs)
    except (InvalidSeed, TypeError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


if HAVE_HYPOTHESIS:
    # a small pool makes repeated sources and images, and non-monotone
    # seeds, common; ints and equal fractions meet as one element, and a
    # float or a string is a foreign value the checks must meet in order
    seed_points = st.sampled_from([-2, Fraction(-1, 2), 0, Fraction(1, 3),
                                   Fraction(1, 2), 1, Fraction(2, 2), 2,
                                   0.5, "1"])

    @given(st.lists(st.tuples(seed_points, seed_points), min_size=1,
                    max_size=6))
    @settings(max_examples=400, deadline=None)
    @example([(1, 2), (0, 0)])
    @example([(0, 0), (1, -1)])
    @example([(0, 2), (1, 2)])
    @example([(0, 0), (1, 5), (2, 1), (3, 6)])
    @example([(0, 0), (0, 1), (0.5, 1)])
    @example([(2, 0), (0, 1), (1, 2)])
    def test_rational_seed_check_matches_pairwise_scan(pairs):
        expected = seed_verdict(scan_seed, Q, pairs)
        assert seed_verdict(seed_anchors, Q, pairs) == expected
        assert seed_verdict(seed_anchors, Q, iter(pairs)) == expected

    # naturals, with repeats of one vertex under another code and values
    # that are no vertex: a negative, a boolean, a float and a string
    vertex_points = st.sampled_from([0, 1, 2, 3, 4, 5, 6, 9, -1, True, 2.0,
                                     "3"])

    @given(st.lists(st.tuples(vertex_points, vertex_points), min_size=1,
                    max_size=6))
    @settings(max_examples=400, deadline=None)
    @example([(0, 1), (1, 0)])
    @example([(0, 0), (1, 2)])
    @example([(2, 0), (0, 1), (1, 2)])
    @example([(0, 3), (0, 3), (1, 2)])
    @example([(0, 1), (2, 1), (-1, 4)])
    def test_rado_seed_check_matches_pairwise_scan(pairs):
        expected = seed_verdict(scan_seed, R, pairs)
        assert seed_verdict(seed_anchors, R, pairs) == expected
        assert seed_verdict(seed_anchors, R, iter(pairs)) == expected

    anchor_lists = st.lists(
        st.fractions(min_value=-30, max_value=30, max_denominator=12),
        min_size=1, max_size=5, unique=True)

    @given(anchor_lists, anchor_lists,
           st.fractions(min_value=-40, max_value=40, max_denominator=16),
           st.fractions(min_value=-40, max_value=40, max_denominator=16))
    @settings(max_examples=150, deadline=None)
    def test_pl_preserves_order_and_round_trips(xs, ys, p, q):
        size = min(len(xs), len(ys))
        seed = list(zip(sorted(xs)[:size], sorted(ys)[:size]))
        f = automorphism_from(Q, seed)
        if p < q:
            assert f(p) < f(q)
        assert f.inverse(f(p)) == p
        assert f(f.inverse(q)) == q

    rational_anchors = st.lists(
        st.fractions(min_value=-60, max_value=60, max_denominator=50),
        min_size=1, max_size=6, unique=True).map(sorted)

    @given(rational_anchors, rational_anchors, st.data())
    @settings(max_examples=200, deadline=None)
    def test_pl_kernel_matches_the_fraction_formula(xs, ys, data):
        size = min(len(xs), len(ys))
        xs, ys = xs[:size], ys[:size]
        pl = _PiecewiseLinear(xs, ys)
        inverse = pl.swapped()
        # at an anchor, between it and the next, and outside on each side
        i = data.draw(st.integers(0, size - 1))
        t = data.draw(st.fractions(min_value=0, max_value=1,
                                   max_denominator=50))
        step = data.draw(st.fractions(min_value=0, max_value=80,
                                      max_denominator=50))
        points = [xs[i], xs[0] - step, xs[-1] + step]
        if i + 1 < size:
            points.append(xs[i] + t * (xs[i + 1] - xs[i]))
        for x in points:
            y = pl.forward(x)
            assert type(y) is Fraction and y == pl_formula(xs, ys, x)
            assert inverse.forward(y) == x
            assert inverse.forward(x) == pl_formula(ys, xs, x)

    window_values = st.fractions(min_value=-20, max_value=20,
                                 max_denominator=12)

    @given(st.lists(window_values, max_size=6, unique=True), st.data())
    @settings(max_examples=200, deadline=None)
    def test_rational_interpolant_matches_the_seed_path(points, data):
        images = data.draw(st.lists(window_values, min_size=len(points),
                                    max_size=len(points)))
        if data.draw(st.booleans()):
            images.sort()
        fresh = data.draw(st.lists(window_values, max_size=4))
        mapping = dict(zip(map(Fraction, points), images))
        target = make_op(RATIONALS, 1, rule=mapping.__getitem__)
        win = window(RATIONALS, points)
        pairs = [(p, mapping[p]) for p in win.sorted_points()]
        increasing = all(a < b for (_, a), (_, b) in zip(pairs, pairs[1:]))
        strategy = BackAndForthInterpolator(Q)
        try:
            expected = automorphism_from(Q, pairs).as_op()
        except InvalidSeed as exc:
            assert not increasing
            with pytest.raises(InterpolationFailure) as info:
                strategy.interpolant(target, win)
            assert str(info.value) == (
                f"the target is not a partial isomorphism on the window: "
                f"{exc}")
            assert repr(info.value.__cause__) == repr(exc)
            return
        assert increasing
        got = strategy.interpolant(target, win)
        for x in win.sorted_points() + fresh:
            assert got(x) == expected(x)


# ---------------------------------------------------------------------------
# the bit-adjacency graph: online back-and-forth
# ---------------------------------------------------------------------------

def test_rado_minimal_scan_values():
    f = automorphism_from(R, [(0, 1)])
    assert f(1) == 0
    assert f(2) == 5
    assert f.order_sensitive


def test_rado_backward_query():
    f = automorphism_from(R, [(0, 1)])
    f(1), f(2)
    assert f.inverse(2) == 5
    assert f(5) == 2
    assert f.snapshot() == [(0, 1), (1, 0), (2, 5), (5, 2)]


def test_rado_snapshot_is_partial_iso():
    f = automorphism_from(R, [(0, 1)])
    for x in [1, 2, 7, 13]:
        f(x)
    for y in [3, 4]:
        f.inverse(y)
    snap = f.snapshot()
    values = [b for _, b in snap]
    assert len(set(values)) == len(values)
    for (a, b), (c, d) in product(snap, repeat=2):
        if a != c:
            assert rado_adjacency(a, c) == rado_adjacency(b, d)


def test_rado_inverted_shares_state():
    f = automorphism_from(R, [(0, 1)])
    g = f.inverted()
    y = f(9)
    assert g(y) == 9
    assert g.inverse(9) == y
    assert sorted((b, a) for a, b in f.snapshot()) == g.snapshot()


def test_rado_scan_cap_fallback_is_constructive():
    f = automorphism_from(R, [(0, 1)], scan_cap=0)
    w = f(5)
    assert w == 6
    assert rado_adjacency(w, 1) == rado_adjacency(5, 0)


def test_rado_fallback_respects_all_constraints():
    f = automorphism_from(R, scan_cap=0)
    for x in [0, 1, 2, 3]:
        f(x)
    snap = f.snapshot()
    for (a, b), (c, d) in product(snap, repeat=2):
        if a != c:
            assert rado_adjacency(a, c) == rado_adjacency(b, d)


def test_rado_fallback_growth_is_tame():
    # constructed witnesses put their top bit just above the bit length
    # of earlier witnesses, so sizes grow by bits, not by doublings
    f = automorphism_from(R, scan_cap=0)
    for x in range(12):
        f(x)
    snap = f.snapshot()
    assert max(b.bit_length() for _, b in snap) < 1024
    for (a, b), (c, d) in product(snap, repeat=2):
        if a != c:
            assert rado_adjacency(a, c) == rado_adjacency(b, d)
    # the default scan cap answers the same queries with small vertices
    g = automorphism_from(R)
    assert all(g(x) < 4096 for x in range(12))


def test_rado_witness_budget_is_honest():
    huge = 1 << 70000
    # the only vertex below the size budget adjacent to `huge` sits at
    # its single set bit, and the fallback finds it
    f = automorphism_from(R, [(0, huge)])
    assert f(1) == 70000
    # with that vertex already taken nothing affordable remains, and the
    # failure is reported instead of building a 2**70000-bit integer
    g = automorphism_from(R, [(0, huge), (1, 70000)])
    with pytest.raises(BudgetExceeded):
        g(3)


def shifted_bit_positions(n):
    """The set-bit positions found by shifting the value once per bit;
    the reference for the one-pass scan."""
    found, pos = [], 0
    while n:
        if n & 1:
            found.append(pos)
        n >>= 1
        pos += 1
    return found


@pytest.mark.parametrize("n", [0, 1, 2, 5, 6, 255, 256, 2**64 - 1,
                               (1 << 4000) | (1 << 17) | 1,
                               int("10" * 1500, 2)],
                         ids=lambda n: hex(n)[:12])
def test_bit_positions_match_shifting(n):
    assert list(_bit_positions(n)) == shifted_bit_positions(n)


def test_rado_regression_mixed_query_sequence():
    # a forward/backward mix that once drove witness sizes over the
    # budget; values are fixed by the scan and fallback rules
    f = automorphism_from(R)
    assert f.inverse(3) == 0
    assert [f(x) for x in (22, 17, 28, 15, 32)] == [2, 0, 16, 8, 18]
    assert f.inverse(12) == 1 + 2**22 + 2**23
    assert f.inverse(17) == 2**17 + 2**24
    assert f.inverse(28) == 1 + 2**22 + 2**25
    snap = f.snapshot()
    assert max(b.bit_length() for _, b in snap) < 64
    for (a, b), (c, d) in product(snap, repeat=2):
        if a != c:
            assert rado_adjacency(a, c) == rado_adjacency(b, d)


def test_rado_seed_validation():
    automorphism_from(R, [(0, 1), (1, 0)])
    with pytest.raises(InvalidSeed):
        automorphism_from(R, [(0, 1), (2, 3)])
    with pytest.raises(InvalidSeed):
        automorphism_from(R, [(0, 5), (1, 5)])


def test_forcing_a_point_records_the_pair():
    # with no seed constraints the smallest fresh vertex answers first
    f = automorphism_from(R)
    assert f(4) == 0
    assert f.snapshot() == [(4, 0)]


if HAVE_HYPOTHESIS:
    @given(st.lists(st.tuples(st.sampled_from(["f", "f.inverse", "g",
                                               "g.inverse"]),
                              st.integers(min_value=0, max_value=40)),
                    max_size=12))
    @settings(max_examples=80, deadline=None)
    def test_rado_mixed_queries_stay_partial_iso(queries):
        f = automorphism_from(R)
        # a view taken before the first query must see every later answer
        g = f.inverted()
        # a fresh map asked the same questions through f alone
        h = automorphism_from(R)
        routes = {"f": (f, h), "f.inverse": (f.inverse, h.inverse),
                  "g": (g, h.inverse), "g.inverse": (g.inverse, h)}

        def answer(query, x):
            try:
                return query(x)
            except BudgetExceeded:
                return BudgetExceeded

        for route, x in queries:
            query, same_on_h = routes[route]
            got = answer(query, x)
            assert got == answer(same_on_h, x)
            if got is BudgetExceeded:
                # an honest refusal; whatever was answered must still agree
                break
        assert f.snapshot() == h.snapshot()
        snap = f.snapshot()
        values = [b for _, b in snap]
        assert len(set(values)) == len(values)
        for (a, b), (c, d) in product(snap, repeat=2):
            if a != c:
                assert rado_adjacency(a, c) == rado_adjacency(b, d)


# ---------------------------------------------------------------------------
# forward-only embeddings with avoidance
# ---------------------------------------------------------------------------

def test_embedding_avoiding_a_vertex():
    e = embedding_from(R, avoid=[0])
    assert [e(x) for x in (0, 1, 2)] == [1, 2, 4]
    assert 0 not in [b for _, b in e.snapshot()]
    assert e.avoided == frozenset([0])


def test_embedding_is_adjacency_faithful():
    e = embedding_from(R, avoid=[0, 3])
    for x in range(8):
        e(x)
    snap = e.snapshot()
    for (a, b), (c, d) in product(snap, repeat=2):
        if a != c:
            assert rado_adjacency(a, c) == rado_adjacency(b, d)
    assert {0, 3}.isdisjoint(b for _, b in snap)


def test_embedding_partial_inverse():
    e = embedding_from(R, avoid=[0])
    y = e(6)
    assert e.inverse(y) == 6
    with pytest.raises(ValueError):
        e.inverse(0)


def test_embedding_seed_and_avoid_interactions():
    with pytest.raises(InvalidSeed):
        embedding_from(R, [(2, 5)], avoid=[5])
    with pytest.raises(UnsupportedLazyCarrier):
        embedding_from(Q, avoid=[0])


def test_embedding_json_shape():
    e = embedding_from(R, avoid=[0])
    e(0)
    data = e.to_json()
    assert data["structure"] == "rado"
    assert data["avoid"] == [0]
    assert data["pairs"] == [[0, 1]]
    json.dumps(data)


# ---------------------------------------------------------------------------
# carrier guards, witnesses, probe streams
# ---------------------------------------------------------------------------

def test_automorphism_needs_catalog_carrier():
    with pytest.raises(UnsupportedLazyCarrier):
        automorphism_from(path_graph(3), [(0, 0)])
    # the carrier is refused before the seed is read
    with pytest.raises(UnsupportedLazyCarrier):
        automorphism_from(path_graph(3), [(0, 0), (1, 0)])
    with pytest.raises(UnsupportedLazyCarrier):
        base_point(path_graph(3).carrier)


def test_lazy_structures_outside_the_catalog_are_refused():
    # (N, <) on the graph's carrier once got a "LazyAutomorphism" that sent
    # 0 -> 1 -> 0, and a ternary relation crashed the seed scan with a
    # TypeError; every back-and-forth entry point now refuses both
    naturals = RelStructure(RADO, [("lt", 2)], {"lt": lambda x, y: x < y})
    between = RelStructure(RATIONALS, [("B", 3)],
                           {"B": lambda x, y, z: x < y < z})
    # a catalog name on another carrier or with another signature
    misnamed = RelStructure(RADO, [("lt", 2)], {"lt": lambda x, y: x < y},
                            name="rationals-order")
    widened = RelStructure(RATIONALS, [("lt", 2), ("B", 3)],
                           {"lt": lambda x, y: x < y,
                            "B": lambda x, y, z: x < y < z},
                           name="rationals-order")
    bare = RelStructure(RATIONALS, [], {})
    message = ("back-and-forth strategies are available for the catalog "
               "structures only")
    for s in (naturals, between, misnamed, widened, bare,
              complement_expansion(Q), complement_expansion(R)):
        with pytest.raises(UnsupportedLazyCarrier) as info:
            automorphism_from(s, [(0, 1), (1, 2)])
        assert str(info.value) == message
        with pytest.raises(UnsupportedLazyCarrier) as info:
            embedding_from(s, [(0, 1), (1, 2)])
        assert str(info.value) == message
        with pytest.raises(UnsupportedLazyCarrier) as info:
            BackAndForthInterpolator(s)
        assert str(info.value) == message
        with pytest.raises(UnsupportedLazyCarrier) as info:
            noncommuting_witness(s, lambda x: x + 1)
        assert str(info.value) == message
        with pytest.raises(UnsupportedLazyCarrier):
            catalog_name(s)
    assert catalog_name(Q) == "rationals-order"
    assert catalog_name(R) == "rado"


def test_transitivity_witness_rationals():
    f, g, c = transitivity_witness(Q, Fraction(5), Fraction(-7, 2))
    assert c == 0
    assert f(c) == 5
    assert g(c) == Fraction(-7, 2)


def test_transitivity_witness_rado():
    f, g, c = transitivity_witness(R, 6, 6)
    assert c == 0
    assert f(c) == 6 and g(c) == 6


def test_probe_stream_rationals_prefix():
    stream = probe_stream(RATIONALS)
    got = [next(stream) for _ in range(11)]
    assert got == [0, 1, -1, Fraction(1, 2), Fraction(-1, 2), 2, -2,
                   Fraction(1, 3), Fraction(-1, 3),
                   Fraction(3, 2), Fraction(-3, 2)]


def test_probe_stream_rado_prefix():
    stream = probe_stream(RADO)
    assert [next(stream) for _ in range(3)] == [0, 1, 2]


def test_noncommuting_witness_on_rationals_shift():
    f = automorphism_from(Q, [(0, 1)])
    report = noncommuting_witness(Q, f)
    assert report.found
    assert report.point == 0
    assert report.left == 1
    assert report.right == Fraction(1, 2)
    assert report.left != report.right
    g = report.partner
    assert f(g(0)) != g(f(0))


def test_noncommuting_witness_on_rado():
    f = automorphism_from(R, [(0, 1)])
    report = noncommuting_witness(R, f)
    assert report.found
    assert report.point == 0
    assert report.left == 1
    assert report.right == 3
    g = report.partner
    assert f(g(0)) != g(f(0))


def test_noncommuting_witness_identity_outcome():
    identity = automorphism_from(Q)
    report = noncommuting_witness(Q, identity, probe_budget=10)
    assert not report.found
    assert report.outcome == "identity-on-probed-points"
    assert report.probes_checked == 10
    data = report.to_json()
    assert data == {"outcome": "identity-on-probed-points",
                    "probes_checked": 10}


def test_the_noncommuting_outcome_is_read_off_the_partner():
    reports = [noncommuting_witness(Q, automorphism_from(Q), probe_budget=10),
               noncommuting_witness(Q, automorphism_from(Q, [(0, 1)])),
               noncommuting_witness(R, automorphism_from(R, [(0, 1)]))]
    for report in reports:
        assert report.found == (report.partner is not None)
        assert report.outcome == report.to_json()["outcome"] == (
            "witness-found" if report.partner is not None
            else "identity-on-probed-points")
    assert [r.found for r in reports] == [False, True, True]


def test_a_negative_probe_budget_is_refused():
    f = automorphism_from(Q, [(0, 1)])
    with pytest.raises(ValueError,
                       match="^probe_budget must be non-negative, got -1$"):
        noncommuting_witness(Q, f, probe_budget=-1)
    assert noncommuting_witness(Q, f, probe_budget=0).probes_checked == 0


def test_noncommuting_report_json():
    f = automorphism_from(Q, [(0, 1)])
    report = noncommuting_witness(Q, f)
    data = report.to_json()
    assert data["outcome"] == "witness-found"
    assert data["point"] == "0"
    assert data["right"] == "1/2"
    json.dumps(data)


# ---------------------------------------------------------------------------
# interpolation by automorphisms
# ---------------------------------------------------------------------------

def test_interpolator_recovers_automorphism_on_window():
    target = automorphism_from(Q, [(0, 0), (1, 2)]).as_op()
    win = default_window(RATIONALS, 1)
    got = interpolant(target, BackAndForthInterpolator(Q), win)
    assert equal_on_window(target, got, win)
    assert got(Fraction(1, 2)) == 1


def test_interpolator_failure_cases():
    reverse = make_op(RATIONALS, 1, rule=lambda x: -x)
    win = default_window(RATIONALS, 1)
    with pytest.raises(InterpolationFailure):
        interpolant(reverse, BackAndForthInterpolator(Q), win)
    binary = make_op(RATIONALS, 2, rule=lambda x, y: x)
    with pytest.raises(InterpolationFailure):
        interpolant(binary, BackAndForthInterpolator(Q), win)


def test_interpolator_failure_names_the_first_seed_fault():
    square = make_op(RATIONALS, 1, rule=lambda x: x * x)
    win = default_window(RATIONALS, 1)
    with pytest.raises(InterpolationFailure) as info:
        BackAndForthInterpolator(Q).interpolant(square, win)
    assert str(info.value) == ("the target is not a partial isomorphism on "
                               "the window: 1 is hit by both -1 and 1")
    assert isinstance(info.value.__cause__, InvalidSeed)


def test_interpolator_on_rado_window():
    target = automorphism_from(R, [(0, 1), (1, 0)]).as_op()
    win = window(RADO, [0, 1])
    got = interpolant(target, BackAndForthInterpolator(R), win)
    assert got(0) == 1 and got(1) == 0


def test_lazy_automorphism_repr_and_json():
    f = automorphism_from(Q, [(0, 1)])
    assert "rationals-order" in repr(f)
    data = f.to_json()
    assert data["structure"] == "rationals-order"
    assert data["order_sensitive"] is False
    assert data["pairs"] == [["0", "1"]]
    json.dumps(data)
