"""Tests for window density, interpolation, and entourage transport."""

import json
from fractions import Fraction
from itertools import product

import pytest

from clonelab.errors import InterpolationFailure
from clonelab.fnspace import (
    RADO,
    RATIONALS,
    Bijection,
    conjugate_op,
    default_window,
    finite_carrier,
    make_op,
    window,
)
from clonelab.clone import close_fragment
from clonelab.monoid import monoid_set
from clonelab.topology import (
    DensityReport,
    Entourage,
    closure_at_window,
    density_profile,
    interpolant,
    is_dense_at_window,
    restriction_signature,
    window_chain,
)

B = finite_carrier(2)
ID = make_op(B, 1, table=(0, 1))
NOT = make_op(B, 1, table=(1, 0))
C0 = make_op(B, 1, table=(0, 0))
AND = make_op(B, 2, table=(0, 0, 0, 1))
OR = make_op(B, 2, table=(0, 1, 1, 1))


def all_unary():
    return [make_op(B, 1, table=t) for t in product(range(2), repeat=2)]


def all_binary():
    return [make_op(B, 2, table=t) for t in product(range(2), repeat=4)]


# ---------------------------------------------------------------------------
# canonical windows
# ---------------------------------------------------------------------------

def test_default_window_rationals():
    win = default_window(RATIONALS, 2)
    assert win.sorted_points() == [Fraction(k) for k in (-2, -1, 0, 1, 2)]
    assert Fraction(-2) in win
    assert Fraction(1, 2) not in win


def test_default_window_finite_truncates():
    assert default_window(B, 8).sorted_points() == [0, 1]


def test_default_window_probe_sets():
    assert default_window(RATIONALS, 2).sorted_points() == \
        [Fraction(-2), Fraction(-1), Fraction(0), Fraction(1), Fraction(2)]
    assert default_window(RADO, 3).sorted_points() == [0, 1, 2, 3]
    assert default_window(finite_carrier(3), 8).sorted_points() == [0, 1, 2]


@pytest.mark.parametrize("carrier, points", [
    (RATIONALS, lambda k: range(-k, k + 1)),
    (RADO, lambda k: range(k + 1)),
    (finite_carrier(3), lambda k: range(min(k + 1, 3))),
])
def test_default_window_equals_a_fresh_window(carrier, points):
    for k in range(6):
        fresh = window(carrier, points(k))
        for _ in range(2):
            win = default_window(carrier, k)
            assert win == fresh
            assert win.sorted_points() == fresh.sorted_points()


def test_sorted_points_leave_a_cached_window_unchanged():
    win = default_window(RATIONALS, 2)
    expected = [Fraction(k) for k in (-2, -1, 0, 1, 2)]
    points = win.sorted_points()
    points.reverse()
    points.append(Fraction(9))
    assert win.sorted_points() == expected
    assert Fraction(9) not in win and len(win) == 5
    assert default_window(RATIONALS, 2).sorted_points() == expected
    assert list(win.sorted_tuples(1)) == [(p,) for p in expected]


def test_default_window_cache_is_bounded():
    bound = default_window.cache_info().maxsize
    assert bound == 32
    for k in range(3 * bound):
        default_window(RADO, k)
    assert default_window.cache_info().currsize == bound


def test_window_chain_is_increasing():
    chain = window_chain(RATIONALS, 3)
    assert len(chain) == 4
    for small, big in zip(chain, chain[1:]):
        assert set(small.points) <= set(big.points)
    with pytest.raises(ValueError):
        window_chain(RATIONALS, 1, k_min=2)


def test_sorted_tuples_order():
    win = window(B, [1, 0])
    assert list(win.sorted_tuples(2)) == [(0, 0), (0, 1), (1, 0), (1, 1)]


# ---------------------------------------------------------------------------
# restriction signatures and window closure
# ---------------------------------------------------------------------------

def test_restriction_signature_values():
    win = window(B, [0, 1])
    assert restriction_signature(AND, win) == (0, 0, 0, 1)
    assert restriction_signature(AND, window(B, [0])) == (0,)
    assert restriction_signature(OR, window(B, [0])) == (0,)


def test_restriction_signature_carrier_mismatch():
    with pytest.raises(ValueError):
        restriction_signature(AND, window(finite_carrier(3), [0, 1]))


def test_closure_at_window_collapses_small_windows():
    groups = closure_at_window([AND, OR], window(B, [0]))
    assert len(groups) == 1
    assert groups[(0,)] is AND
    groups_full = closure_at_window([AND, OR], window(B, [0, 1]))
    assert len(groups_full) == 2


def test_closure_at_window_keeps_first_representative():
    groups = closure_at_window([OR, AND, OR], window(B, [0]))
    assert groups[(0,)] is OR


# ---------------------------------------------------------------------------
# interpolation
# ---------------------------------------------------------------------------

def test_interpolant_from_plain_iterable():
    win = window(B, [0, 1])
    assert interpolant(NOT, [ID, NOT, C0], win) is NOT


def test_interpolant_ignores_other_arities():
    win = window(B, [0, 1])
    assert interpolant(AND, [ID, NOT, AND, OR], win) is AND


def test_interpolant_failure_reports_window():
    with pytest.raises(InterpolationFailure) as exc:
        interpolant(C0, [ID], window(B, [0, 1]))
    assert "2-point window" in str(exc.value)


def test_interpolation_is_window_sensitive():
    # the identity mimics the constant at 0 but is exposed at {0, 1}
    assert interpolant(C0, [ID], window(B, [0])) is ID
    with pytest.raises(InterpolationFailure):
        interpolant(C0, [ID], window(B, [0, 1]))


def test_interpolant_from_monoid_set():
    m = monoid_set(B, [ID, NOT])
    assert interpolant(NOT, m, window(B, [0, 1])) is m.ops[1]


def test_interpolant_from_fragment():
    frag = close_fragment([AND])
    got = interpolant(AND, frag, window(B, [0, 1]))
    assert got.table == AND.table


def test_interpolant_with_strategy_object():
    class Always:
        def __init__(self, op):
            self.op = op

        def interpolant(self, f, win):
            return self.op

    assert interpolant(NOT, Always(ID), window(B, [0, 1])) is ID


def test_interpolant_on_lazy_carrier():
    succ = make_op(RATIONALS, 1, rule=lambda x: x + 1)
    double = make_op(RATIONALS, 1, rule=lambda x: 2 * x)
    win = default_window(RATIONALS, 2)
    assert interpolant(succ, [double, succ], win) is succ
    with pytest.raises(InterpolationFailure):
        interpolant(succ, [double], win)
    # at the window {1} the two rules coincide
    assert interpolant(succ, [double], window(RATIONALS, [1])) is double


# ---------------------------------------------------------------------------
# density reports
# ---------------------------------------------------------------------------

def test_density_of_set_in_itself():
    report = is_dense_at_window([ID, NOT], [ID, NOT], window(B, [0, 1]))
    assert report.dense
    assert report.matched == report.total == 2
    assert report.gaps() == []


def test_density_gap_found():
    report = is_dense_at_window([ID], [ID, C0], window(B, [0, 1]))
    assert not report.dense
    assert report.matched == 1
    assert report.gaps() == [C0]


def test_density_report_json_shape():
    report = is_dense_at_window([ID], [C0], window(B, [0, 1]))
    data = report.to_json()
    assert data["verdict"] == "gap-found"
    assert data["matched"] == 0
    assert data["total"] == 1
    assert data["witnesses"][0]["interpolant"] is None
    assert data["witnesses"][0]["target"]["table"] == [0, 0]
    json.dumps(data)


def test_density_report_json_lazy_ops():
    succ = make_op(RATIONALS, 1, rule=lambda x: x + 1)
    report = is_dense_at_window([succ], [succ], default_window(RATIONALS, 1))
    data = report.to_json()
    assert data["verdict"] == "dense-at-window"
    assert data["witnesses"][0]["target"]["arity"] == 1
    json.dumps(data)


def test_density_profile_monotone():
    # density can be lost as the window grows, never gained
    source = [ID]
    targets = [ID, C0]
    chain = window_chain(B, 1)
    reports = density_profile(source, targets, chain)
    assert [r.dense for r in reports] == [True, False]
    assert isinstance(reports[0], DensityReport)


def test_density_counts_and_verdict_are_read_off_the_witnesses():
    succ = make_op(RATIONALS, 1, rule=lambda x: x + 1)
    full = window(B, [0, 1])
    reports = [
        is_dense_at_window([ID, NOT], [ID, NOT], full),
        is_dense_at_window([ID], [ID, C0], full),
        is_dense_at_window([ID], [C0], full),
        is_dense_at_window([succ], [succ], default_window(RATIONALS, 1)),
        is_dense_at_window([ID], [], full),
        *density_profile([ID], [ID, C0], window_chain(B, 1)),
    ]
    for report in reports:
        found = [g for _, g in report.witnesses if g is not None]
        assert report.matched == len(found)
        assert report.total == len(report.witnesses)
        assert report.dense == (len(found) == len(report.witnesses))
        data = report.to_json()
        assert (data["matched"], data["total"]) == (len(found),
                                                    len(report.witnesses))
    assert [r.verdict for r in reports] == [
        "dense-at-window", "gap-found", "gap-found", "dense-at-window",
        "dense-at-window", "dense-at-window", "gap-found"]


def test_unary_fragment_dense_in_larger_fragment_at_point():
    # at the single-point window {0} the AND fragment covers the OR
    # fragment, since AND and OR agree on (0, 0); the full window
    # separates them
    and_frag = close_fragment([AND])
    or_frag = close_fragment([OR])
    small = window(B, [0])
    full = window(B, [0, 1])
    small_report = is_dense_at_window(and_frag, or_frag.ops(2), small)
    assert small_report.dense
    full_report = is_dense_at_window(and_frag, or_frag.ops(2), full)
    assert not full_report.dense
    assert [f.table for f in full_report.gaps()] == [OR.table]


# ---------------------------------------------------------------------------
# entourages and conjugation transport
# ---------------------------------------------------------------------------

def test_entourage_membership():
    ent = Entourage(window(B, [0]))
    assert ent.contains(AND, OR)
    assert (AND, OR) in ent
    full = Entourage(window(B, [0, 1]))
    assert (AND, OR) not in full


def test_entourage_transport_exhaustive():
    # conjugation by a bijection carries the entourage at J to the
    # entourage at theta[J], for every unary and binary pair over every
    # window of the two-element carrier
    theta = Bijection.from_table(B, (1, 0))
    for pts in ([0], [1], [0, 1]):
        ent = Entourage(window(B, pts))
        moved = ent.transported(theta)
        assert moved.window.points == frozenset(theta(p) for p in pts)
        for pool in (all_unary(), all_binary()):
            for f in pool:
                for g in pool:
                    assert ent.contains(f, g) == moved.contains(
                        conjugate_op(theta, f), conjugate_op(theta, g))
