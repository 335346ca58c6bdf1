"""Tests for pointwise extension of operation-set homomorphisms.

The finite reference setting is the full transformation monoid on three
points with a cyclic conjugator, where every value can be checked
against the direct conjugation formula.  The countable setting uses
piecewise linear order automorphisms, with values computed by hand from
the anchor arithmetic.
"""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clonelab import backforth
from clonelab.backforth import BackAndForthInterpolator, automorphism_from
from clonelab.clone import close_fragment
from clonelab.errors import ModulusNotFound
from clonelab.extend import (
    ContinuityModulus,
    HomMap,
    check_conjugation_transfer,
    check_hom_law,
    check_well_defined,
    conjugation_modulus,
    derive_modulus,
)
from clonelab.fnspace import (
    RATIONALS,
    Bijection,
    Window,
    all_tuples,
    conjugate_op,
    default_window,
    finite_carrier,
    make_op,
    window,
)
from clonelab.monoid import monoid_set
from clonelab.structures import rationals_order

C3 = finite_carrier(3)
THETA = Bijection.from_table(C3, (1, 2, 0))
T3 = [make_op(C3, 1, table=t) for t in product(range(3), repeat=3)]
S3 = [op for op in T3 if len(set(op.table)) == 3]

Q = rationals_order()
PL = automorphism_from(Q, [(0, 0), (1, 2)])


def t3_hom():
    return HomMap(C3, T3, theta=THETA)


def pl_hom():
    return HomMap(RATIONALS, BackAndForthInterpolator(Q), theta=PL)


# ---------------------------------------------------------------------------
# moduli
# ---------------------------------------------------------------------------

def test_conjugation_modulus_is_the_preimage():
    mod = conjugation_modulus(THETA, C3)
    assert mod((0,)).sorted_points() == [2]
    assert mod((1,)).sorted_points() == [0]
    assert mod((2, 0)).sorted_points() == [1, 2]


def test_hom_map_validation():
    with pytest.raises(ValueError):
        HomMap(C3, T3)
    with pytest.raises(ValueError):
        HomMap(C3, T3, theta=THETA, oracle=lambda g: g)
    bad_oracle = HomMap(C3, T3, oracle=lambda g: 42,
                        modulus=ContinuityModulus(
                            lambda args: window(C3, [0, 1, 2])))
    with pytest.raises(TypeError):
        bad_oracle.apply(T3[0])


def test_oracle_mode_requires_modulus_to_extend():
    hom = HomMap(C3, T3, oracle=lambda g: g)
    assert hom.mode == "oracle"
    assert hom.modulus is None
    with pytest.raises(ValueError):
        hom.extend_at(T3[5], (0,))


def test_extend_at_checks_arity():
    hom = t3_hom()
    with pytest.raises(ValueError):
        hom.extend_at(T3[5], (0, 1))


# ---------------------------------------------------------------------------
# finite conjugation: exhaustive agreement with the direct formula
# ---------------------------------------------------------------------------

def test_extension_matches_conjugation_on_all_of_t3():
    hom = t3_hom()
    for f in T3:
        assert hom.extended_op(f).table == conjugate_op(THETA, f).table


def test_extend_at_single_values():
    hom = t3_hom()
    f = make_op(C3, 1, table=(0, 0, 1))
    # value at b is theta(f(theta^-1(b)))
    assert hom.extend_at(f, (0,)) == THETA(f(2))
    assert hom.extend_at(f, (1,)) == THETA(f(0))
    assert hom.extend_at(f, 2) == THETA(f(1))


def test_extension_from_group_source_covers_t3_pointwise():
    # the six permutations interpolate any map at a single point, so the
    # one-point conjugation modulus extends the homomorphism to all of
    # T3 even though most of T3 is far from the group
    hom = HomMap(C3, S3, theta=THETA)
    for f in T3:
        for b in range(3):
            assert hom.extend_at(f, (b,)) == THETA(f(THETA.inverse(b)))


def test_hom_law_on_finite_samples():
    hom = t3_hom()
    sample = [T3[k] for k in (0, 5, 11, 14, 21, 26)]
    for f1 in sample:
        for f2 in sample:
            report = check_hom_law(hom, f1, f2, points=[0, 1, 2])
            assert report["agree"], (f1.table, f2.table)


def test_well_defined_report_shape():
    hom = t3_hom()
    f = make_op(C3, 1, table=(0, 0, 0))
    report = check_well_defined(hom, f, (2,))
    assert report["consistent"]
    assert report["value"] == THETA(0)
    assert report["paths"] == 4
    assert report["witnesses"][0]["window"] == [1]


def test_binary_extension_on_fragment_source():
    b2 = finite_carrier(2)
    swap = Bijection.from_table(b2, (1, 0))
    and_op = make_op(b2, 2, table=(0, 0, 0, 1))
    hom = HomMap(b2, close_fragment([and_op]), theta=swap)
    ext = hom.extended_op(and_op)
    assert ext.table == conjugate_op(swap, and_op).table == (0, 1, 1, 1)
    # at (0, 0) the modulus window is the single point 1, and any
    # interpolant g agreeing with the target at (1, 1) gives the value
    assert hom.extend_at(and_op, (0, 0)) == 0


# ---------------------------------------------------------------------------
# the image of a conjugation read at one point, against the whole conjugate
# ---------------------------------------------------------------------------

def outcome(fn, *args):
    """The value of a call, or the type and message of what it raised."""
    try:
        value = fn(*args)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)
    return value, type(value)


def test_image_read_matches_the_conjugate_for_every_bijection_of_t3():
    for theta in S3:
        hom = HomMap(C3, T3, theta=theta)
        for g in T3:
            conjugate = hom.apply(g)
            for b in (0, 1, 2, -1, 3, 1.5, True, "x"):
                assert (outcome(hom.image_at, g, (b,))
                        == outcome(conjugate, b)), (theta, g, b)
            assert (outcome(hom.image_at, g, (0, 1))
                    == outcome(conjugate, 0, 1))


def test_image_read_matches_the_conjugate_on_a_binary_fragment():
    low = make_op(C3, 2, table=[min(x, y) for x, y in product(range(3),
                                                             repeat=2)])
    frag = close_fragment([low], max_arity=2)
    hom = HomMap(C3, frag, theta=THETA)
    for arity, g in frag.all_ops():
        conjugate = hom.apply(g)
        for args in all_tuples(range(3), arity):
            assert hom.image_at(g, args) == conjugate(*args)
        assert (outcome(hom.image_at, g, (3,) * arity)
                == outcome(conjugate, *(3,) * arity))


anchor_lists = st.lists(
    st.fractions(min_value=-20, max_value=20, max_denominator=8),
    max_size=4, unique=True)
rational_points = st.one_of(
    st.fractions(min_value=-30, max_value=30, max_denominator=10),
    st.integers(min_value=-30, max_value=30))


@given(anchor_lists, anchor_lists, anchor_lists, anchor_lists,
       rational_points)
@settings(max_examples=200, deadline=None)
def test_image_read_matches_the_conjugate_on_the_rationals(xs, ys, us, vs, b):
    theta = automorphism_from(Q, zip(sorted(xs), sorted(ys)))
    g = automorphism_from(Q, zip(sorted(us), sorted(vs))).as_op()
    hom = HomMap(RATIONALS, BackAndForthInterpolator(Q), theta=theta)
    conjugate = hom.apply(g)
    # the conjugate's lazy rule reads through the same function, so the
    # value is also checked against the definition
    value = hom.image_at(g, (b,))
    assert type(value) is Fraction
    assert value == theta(g(theta.inverse(Fraction(b))))
    assert outcome(hom.image_at, g, (b,)) == outcome(conjugate, b)
    for bad in (0.5, "x", True):
        assert outcome(hom.image_at, g, (bad,)) == outcome(conjugate, bad)


# ---------------------------------------------------------------------------
# deriving moduli
# ---------------------------------------------------------------------------

def test_derived_modulus_is_the_preimage_point_for_t3():
    hom = t3_hom()
    win = derive_modulus(hom, (0,))
    assert win.sorted_points() == [2]
    assert derive_modulus(hom, (1,)).sorted_points() == [0]


def test_derived_modulus_on_permutations_hides_the_dependence():
    # permutations agreeing on two points agree everywhere, so the
    # search cannot see past the injectivity and keeps two points
    hom = HomMap(C3, monoid_set(C3, S3), theta=THETA)
    win = derive_modulus(hom, (0,))
    assert win.sorted_points() == [0, 1]


def test_derive_modulus_with_explicit_start():
    hom = t3_hom()
    win = derive_modulus(hom, (0,), start=window(C3, [0, 1, 2]))
    assert win.sorted_points() == [2]


def test_derive_modulus_not_found_for_hidden_dependence():
    # two automorphisms equal on every window of radius 8 but different
    # at the hidden point defeat the search honestly
    hidden = Fraction(100)
    identity = automorphism_from(Q).as_op()
    bent = automorphism_from(Q, [(-8, -8), (8, 8), (9, 10)]).as_op()
    assert identity(hidden) != bent(hidden)
    oracle = lambda g: make_op(RATIONALS, 1, rule=lambda x, g=g: g(hidden))
    hom = HomMap(RATIONALS, [identity, bent], oracle=oracle)
    with pytest.raises(ModulusNotFound):
        derive_modulus(hom, (Fraction(0),), ops=[identity, bent], max_k=8)


def test_derive_modulus_needs_ops():
    hom = pl_hom()
    with pytest.raises(ModulusNotFound):
        derive_modulus(hom, (Fraction(0),))
    with pytest.raises(ModulusNotFound):
        derive_modulus(t3_hom(), (0,), ops=[])


# ---------------------------------------------------------------------------
# the countable setting
# ---------------------------------------------------------------------------

def test_pl_extension_values_by_hand():
    hom = pl_hom()
    succ = make_op(RATIONALS, 1, rule=lambda x: x + 1)
    assert hom.extend_at(succ, Fraction(0)) == 2
    assert hom.extend_at(succ, Fraction(2)) == 3
    assert hom.extend_at(succ, Fraction(1, 2)) == Fraction(9, 4)


def test_pl_extended_op_is_lazy_and_memoised():
    hom = pl_hom()
    succ = make_op(RATIONALS, 1, rule=lambda x: x + 1)
    ext = hom.extended_op(succ)
    assert not ext.carrier.is_finite
    assert ext(0) == 2
    assert ext(0) == 2
    assert ext(Fraction(1, 2)) == Fraction(9, 4)


def test_pl_conjugation_transfer():
    hom = pl_hom()
    succ = make_op(RATIONALS, 1, rule=lambda x: x + 1)
    report = check_conjugation_transfer(
        hom, succ, points=[Fraction(0), Fraction(2), Fraction(1, 2), -3])
    assert report["agree"]
    assert report["checks"][0] == {
        "point": Fraction(0), "left": 2, "right": 2, "agree": True}


def test_pl_well_defined_across_interpolation_paths():
    hom = pl_hom()
    double = make_op(RATIONALS, 1, rule=lambda x: 2 * x)
    report = check_well_defined(hom, double, (Fraction(2),))
    assert report["consistent"]
    # theta^-1(2) = 1, double gives 2, theta(2) = 3
    assert report["value"] == 3
    windows = [w["window"] for w in report["witnesses"]]
    assert all(Fraction(1) in w for w in windows)
    assert len(windows[-1]) > len(windows[0])


def test_well_defined_rejects_negative_extra_paths():
    with pytest.raises(ValueError, match="extra_paths must be non-negative"):
        check_well_defined(pl_hom(), pl_hom().theta.as_op(), (Fraction(0),),
                           extra_paths=-1)


def test_well_defined_builds_each_window_and_sorts_each_seed_once(
        monkeypatch):
    # the counts, not the clock: the modulus window, the probe window on
    # a cold cache and one window per extra path; an interpolant on a
    # window, whose points are sorted already, sorts nothing
    hom = pl_hom()
    double = make_op(RATIONALS, 1, rule=lambda x: 2 * x)
    built, sorts = [], []
    post_init = Window.__post_init__

    def counted_post_init(win):
        built.append(win)
        post_init(win)

    def counted_sorted(*args, **kwargs):
        sorts.append(args)
        return sorted(*args, **kwargs)

    monkeypatch.setattr(Window, "__post_init__", counted_post_init)
    monkeypatch.setattr(backforth, "sorted", counted_sorted, raising=False)
    default_window.cache_clear()
    report = check_well_defined(hom, double, (Fraction(2),), extra_paths=3)
    assert report["consistent"] and report["paths"] == 4
    assert (len(built), len(sorts)) == (5, 0)
    built.clear()
    sorts.clear()
    check_well_defined(hom, double, (Fraction(2),), extra_paths=3)
    assert (len(built), len(sorts)) == (4, 0)


def test_pl_hom_law_values_by_hand():
    hom = pl_hom()
    succ = make_op(RATIONALS, 1, rule=lambda x: x + 1)
    double = make_op(RATIONALS, 1, rule=lambda x: 2 * x)
    report = check_hom_law(hom, succ, double, points=[Fraction(2), Fraction(0)])
    assert report["agree"]
    assert report["checks"][0]["left"] == 4
    assert report["checks"][0]["right"] == 4
    assert report["checks"][1]["left"] == 2


def test_transfer_check_requires_conjugation():
    hom = HomMap(C3, T3, oracle=lambda g: g,
                 modulus=ContinuityModulus(lambda a: window(C3, [0, 1, 2])))
    with pytest.raises(ValueError):
        check_conjugation_transfer(hom, T3[3], points=[0])


# ---------------------------------------------------------------------------
# oracle homomorphisms that break, and the checks that catch them
# ---------------------------------------------------------------------------

def test_ill_defined_oracle_is_caught():
    # the oracle reads the interpolant at 2, but the claimed modulus
    # only pins point 0, so different paths disagree
    oracle = lambda g: make_op(C3, 1, table=(g(2),) * 3)
    wrong = ContinuityModulus(lambda args: window(C3, [0]), "too small")
    hom = HomMap(C3, T3, oracle=oracle, modulus=wrong)
    f = make_op(C3, 1, table=(0, 0, 1))
    report = check_well_defined(hom, f, (0,))
    assert not report["consistent"]
    values = {w["value"] for w in report["witnesses"]}
    assert len(values) > 1


def test_non_homomorphic_oracle_breaks_the_law():
    # g -> g o g is not a homomorphism, and sampling the law exposes it
    full = ContinuityModulus(lambda args: window(C3, [0, 1, 2]), "everything")
    oracle = lambda g: make_op(C3, 1, table=tuple(g(g(x)) for x in range(3)))
    hom = HomMap(C3, T3, oracle=oracle, modulus=full)
    f1 = make_op(C3, 1, table=(1, 2, 0))
    f2 = make_op(C3, 1, table=(0, 0, 1))
    report = check_hom_law(hom, f1, f2, points=[0, 1, 2])
    assert not report["agree"]
    first = report["checks"][0]
    assert first["point"] == 0
    assert first["left"] != first["right"]
