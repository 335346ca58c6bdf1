"""Transformation monoid layer.

Expected sets below are hand-derived.  Closure of the successor map mod 3
is {successor, successor^2, identity}.  The units of the full unary monoid
on {0,1} are the identity and the swap.  The monoid {identity, c0, c1} of
constants has exactly two injective endomorphisms fixing the identity
(composition there is "left map wins", so swapping the constants is
compatible), and the two-element monoid {identity, swap} is rigid.
"""

from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from clonelab import monoid as monoid_module
from clonelab.errors import BudgetExceeded, UnsupportedLazyCarrier
from clonelab.fnspace import (
    RATIONALS,
    Bijection,
    finite_carrier,
    identity_op,
    make_op,
    window,
)
from clonelab.monoid import (
    MonoidSet,
    centre,
    close_under_composition,
    endo_report,
    group_set,
    injective_endos_fixing,
    invertibles,
    is_action_isomorphism,
    is_transitive,
    is_weakly_directed,
    monoid_from_json,
    monoid_set,
    monoid_to_json,
    weakly_directed_witnesses,
)

B2 = finite_carrier(2)
B3 = finite_carrier(3)

ID2 = make_op(B2, 1, table=[0, 1])
NOT = make_op(B2, 1, table=[1, 0])
C0 = make_op(B2, 1, table=[0, 0])
C1 = make_op(B2, 1, table=[1, 1])


def tables(m):
    return [list(op.table) for op in m.ops]


# ---------------------------------------------------------------------------
# building and closure
# ---------------------------------------------------------------------------

def test_monoid_set_sorts_and_dedupes():
    m = monoid_set(B2, [C1, ID2, C1, C0])
    assert tables(m) == [[0, 0], [0, 1], [1, 1]]
    assert m.contains_identity is True


def test_monoid_set_rejects_binary_members():
    with pytest.raises(ValueError):
        monoid_set(B2, [make_op(B2, 2, table=[0, 0, 0, 1])])


def test_closure_of_successor_mod_three():
    succ = make_op(B3, 1, table=[1, 2, 0])
    m = close_under_composition([succ])
    assert tables(m) == [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    assert m.closed_under_composition is True
    assert m.contains_identity is True


def test_closure_of_one_constant():
    m = close_under_composition([C0])
    assert tables(m) == [[0, 0], [0, 1]]


def test_closure_never_exceeds_size_to_the_size():
    m = close_under_composition([NOT, C0, C1])
    assert len(m) == 4  # size**size on two elements


def test_closure_cap_raises():
    swap01 = make_op(B3, 1, table=[1, 0, 2])
    cycle = make_op(B3, 1, table=[1, 2, 0])
    with pytest.raises(BudgetExceeded):
        close_under_composition([swap01, cycle], cap=3)


def test_closure_cap_boundary():
    swap01 = make_op(B3, 1, table=[1, 0, 2])
    cycle = make_op(B3, 1, table=[1, 2, 0])
    assert len(close_under_composition([swap01, cycle], cap=6)) == 6
    with pytest.raises(BudgetExceeded, match="exceeded cap 5"):
        close_under_composition([swap01, cycle], cap=5)


def test_closure_flag_claim_is_verified():
    with pytest.raises(ValueError):
        monoid_set(B2, [NOT], closed=True)  # NOT o NOT = identity is missing
    with pytest.raises(ValueError):
        monoid_set(B2, [ID2, NOT], closed=False)  # it is closed
    assert monoid_set(B2, [ID2, NOT], closed=True).closed_under_composition
    assert monoid_set(B2, [NOT], closed=False).closed_under_composition is False


def test_invertibles_of_full_unary_monoid():
    m = close_under_composition([NOT, C0])
    units = invertibles(m)
    assert tables(units) == [[0, 1], [1, 0]]


def test_invertibles_computes_both_flags():
    # {id, (01), (12)} is not closed: (01)(12) is a 3-cycle outside it
    s01 = make_op(B3, 1, table=[1, 0, 2])
    s12 = make_op(B3, 1, table=[0, 2, 1])
    units = invertibles(monoid_set(B3, [identity_op(B3), s01, s12]))
    assert len(units) == 3
    assert units.contains_identity is True
    assert units.closed_under_composition is False
    # a missing identity is reported as False, not as unknown
    assert invertibles(monoid_set(B3, [s01])).contains_identity is False


def closed_by_all_pairs(tables):
    """The all-pairs oracle for closure: every composite of two members
    is a member."""
    known = set(tables)
    return all(tuple(f[x] for x in g) in known for f in known for g in known)


def flags_by_all_pairs(tables, size):
    """The exhaustive oracle for both flags: whether the identity is a
    member, and whether every composite of two members is one."""
    return tuple(range(size)) in tables, closed_by_all_pairs(tables)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_every_builder_gets_both_flags_of_the_all_pairs_oracle(data):
    size = data.draw(st.integers(min_value=1, max_value=3))
    carrier = finite_carrier(size)
    table = st.lists(st.integers(0, size - 1), min_size=size, max_size=size)
    ops = [make_op(carrier, 1, table=t)
           for t in data.draw(st.lists(table, max_size=5))]

    def agrees(m):
        assert (m.contains_identity, m.closed_under_composition) \
            == flags_by_all_pairs(m.tables(), size)

    m = monoid_set(carrier, ops)
    for built in (m, invertibles(m), centre(m)):
        agrees(built)
    if ops:
        agrees(close_under_composition(
            ops, include_identity=data.draw(st.booleans())))
    tables = {op.table for op in ops}
    if all(sorted(t) == list(range(size))
           and tuple(t.index(y) for y in range(size)) in tables
           for t in tables):
        agrees(group_set(carrier, ops))


@st.composite
def map_sets(draw):
    """(size, tables): 0-6 random maps on 1-4 points, taken as they are,
    as their closure (when it stays small), or as that closure less one
    member, and then with the identity added or removed."""
    size = draw(st.integers(min_value=1, max_value=4))
    table = st.tuples(*[st.integers(0, size - 1)] * size)
    tables = set(draw(st.lists(table, max_size=6)))
    shape = draw(st.sampled_from(["as drawn", "closure", "closure less one"]))
    if shape != "as drawn" and tables:
        carrier = finite_carrier(size)
        try:
            tables = set(close_under_composition(
                [make_op(carrier, 1, table=t) for t in tables],
                include_identity=draw(st.booleans()), cap=64).tables())
        except BudgetExceeded:
            pass
        if shape == "closure less one":
            tables.discard(draw(st.sampled_from(sorted(tables))))
    identity = tuple(range(size))
    if draw(st.booleans()):
        tables.symmetric_difference_update({identity})
    return size, sorted(tables)


@given(case=map_sets())
@example(case=(2, []))
# the constants: closed without the identity
@example(case=(2, [(0, 0), (1, 1)]))
# the only product that leaves the set, (1 0 2) o c0 = c1, is an edge of
# the walk's last generator c0
@example(case=(3, [(0, 0, 0), (0, 1, 2), (1, 0, 2)]))
@settings(max_examples=300, deadline=None)
def test_the_walk_decides_closure_as_all_pairs_do(case):
    size, tables = case
    carrier = finite_carrier(size)
    m = MonoidSet(carrier, tuple(make_op(carrier, 1, table=t)
                                 for t in tables))
    assert m.closed_under_composition is closed_by_all_pairs(tables)


def full_transformation_monoid(size):
    carrier = finite_carrier(size)
    return MonoidSet(carrier, tuple(make_op(carrier, 1, table=t) for t in
                                    product(range(size), repeat=size)))


@pytest.mark.parametrize("size, generators, composed", [
    (4, 4, 1020), (5, 5, 15620)])
def test_the_closure_walk_composes_each_generator_with_each_member(
        monkeypatch, size, generators, composed):
    # all pairs composed 65,536 products on T4 and 9,765,625 on T5; the
    # walk takes the permutations first, so it needs the generators of
    # the symmetric group and one map of rank size - 1, and composes
    # each with every member but the identity
    calls = []

    def counted(*args):
        calls.append(args)
        return compose_tables(*args)

    compose_tables = monoid_module.compose_tables
    monkeypatch.setattr(monoid_module, "compose_tables", counted)
    m = full_transformation_monoid(size)
    assert m.closed_under_composition is True
    n = size ** size
    assert len(calls) == composed == generators * (n - 1)
    assert len(set(calls)) == len(calls)
    assert composed <= (size + 1) * n


def test_flags_are_computed_once_and_stay_out_of_equality(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return compose_tables(*args)

    compose_tables = monoid_module.compose_tables
    monkeypatch.setattr(monoid_module, "compose_tables", counted)
    m = monoid_set(B2, [NOT])
    assert calls == []
    assert m.closed_under_composition is False
    assert m.closed_under_composition is False
    assert len(calls) == 1
    bare = MonoidSet(B2, m.ops)
    assert m == bare and hash(m) == hash(bare)


def test_group_set_rejects_non_invertible_member():
    with pytest.raises(ValueError):
        group_set(B2, [ID2, C0])


# ---------------------------------------------------------------------------
# transitivity and weak directedness
# ---------------------------------------------------------------------------

def test_swap_monoid_is_transitive():
    assert is_transitive(monoid_set(B2, [ID2, NOT]))


def test_identity_plus_constant_not_transitive():
    assert not is_transitive(monoid_set(B2, [ID2, C0]))


def test_constants_monoid_is_transitive_hence_weakly_directed():
    m = monoid_set(B2, [ID2, C0, C1])
    assert is_transitive(m)
    assert is_weakly_directed(m)


def test_identity_alone_not_weakly_directed():
    assert not is_weakly_directed(monoid_set(B2, [ID2]))


def test_identity_plus_one_constant_weakly_directed_not_transitive():
    # targets (0,1) have ancestor c=1 via (c0, identity), yet nothing
    # maps 0 to 1
    m = monoid_set(B2, [ID2, C0])
    assert is_weakly_directed(m)
    assert not is_transitive(m)


def test_witnesses_pick_smallest_ancestor_and_first_ops():
    m = monoid_set(B2, [ID2, C0, C1])
    c, ops = weakly_directed_witnesses(m, (1, 0, 1))
    assert c == 0
    assert [list(op.table) for op in ops] == [[1, 1], [0, 0], [1, 1]]


def test_witnesses_on_swap_monoid():
    m = monoid_set(B2, [ID2, NOT])
    c, ops = weakly_directed_witnesses(m, (0, 1))
    assert c == 0
    assert [list(op.table) for op in ops] == [[0, 1], [1, 0]]


def test_witnesses_failure_is_a_value_error():
    with pytest.raises(ValueError):
        weakly_directed_witnesses(monoid_set(B2, [ID2]), (0, 1))


def test_witnesses_validate_targets():
    with pytest.raises(ValueError):
        weakly_directed_witnesses(monoid_set(B2, [ID2, NOT]), (0, 5))
    with pytest.raises(ValueError):
        weakly_directed_witnesses(monoid_set(B2, [ID2, NOT]), ())


@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_transitive_implies_weakly_directed(data):
    size = data.draw(st.integers(min_value=2, max_value=4))
    carrier = finite_carrier(size)
    k = data.draw(st.integers(min_value=1, max_value=3))
    gens = [
        make_op(carrier, 1, table=data.draw(
            st.lists(st.integers(0, size - 1), min_size=size, max_size=size)))
        for _ in range(k)
    ]
    m = close_under_composition(gens)
    if is_transitive(m):
        assert is_weakly_directed(m)


def all_pairs_closure(tables, include_identity):
    """Slow oracle: compose every member with every member until no new
    map appears."""
    size = len(tables[0])
    known = set(tables)
    if include_identity:
        known.add(tuple(range(size)))
    while True:
        new = {tuple(f[g[x]] for x in range(size))
               for f in known for g in known} - known
        if not new:
            return sorted(known)
        known |= new


@given(data=st.data(), include_identity=st.booleans())
@settings(max_examples=40, deadline=None)
def test_closure_matches_all_pairs_fixpoint(data, include_identity):
    size = data.draw(st.integers(min_value=2, max_value=4))
    carrier = finite_carrier(size)
    k = data.draw(st.integers(min_value=1, max_value=3))
    gens = [
        make_op(carrier, 1, table=data.draw(
            st.lists(st.integers(0, size - 1), min_size=size, max_size=size)))
        for _ in range(k)
    ]
    expected = all_pairs_closure([g.table for g in gens], include_identity)
    m = close_under_composition(gens, include_identity=include_identity)
    assert m.tables() == expected
    assert m.contains_identity == (tuple(range(size)) in expected)
    assert m.closed_under_composition is True


# ---------------------------------------------------------------------------
# centre
# ---------------------------------------------------------------------------

def test_centre_of_symmetric_group_is_trivial():
    swap01 = make_op(B3, 1, table=[1, 0, 2])
    cycle = make_op(B3, 1, table=[1, 2, 0])
    sym3 = close_under_composition([swap01, cycle])
    assert len(sym3) == 6
    assert tables(centre(sym3)) == [[0, 1, 2]]


def test_centre_brute_force_cross_check():
    # independent oracle: commuting elements computed directly from maps
    swap01 = make_op(B3, 1, table=[1, 0, 2])
    cycle = make_op(B3, 1, table=[1, 2, 0])
    sym3 = close_under_composition([swap01, cycle])
    expected = []
    for f in sym3.ops:
        commutes = all(
            tuple(f.table[g.table[x]] for x in range(3))
            == tuple(g.table[f.table[x]] for x in range(3))
            for g in sym3.ops
        )
        if commutes:
            expected.append(f.table)
    assert [list(op.table) for op in centre(sym3).ops] == [list(t) for t in expected]


def test_centre_of_constants_monoid():
    m = monoid_set(B2, [ID2, C0, C1])
    assert tables(centre(m)) == [[0, 1]]


# ---------------------------------------------------------------------------
# injective endomorphisms fixing a subset
# ---------------------------------------------------------------------------

def test_constants_monoid_has_swap_endomorphism():
    m = monoid_set(B2, [ID2, C0, C1])
    maps = injective_endos_fixing(m, [ID2])
    # canonical order is c0, identity, c1; the swap exchanges slots 0 and 2
    assert maps == [(0, 1, 2), (2, 1, 0)]


def test_swap_monoid_is_rigid():
    m = close_under_composition([NOT])
    maps = injective_endos_fixing(m, list(m.ops))
    assert maps == [(0, 1)]
    assert injective_endos_fixing(m, [ID2]) == [(0, 1)]


def test_fixing_everything_leaves_only_identity_map():
    m = monoid_set(B2, [ID2, C0, C1])
    assert injective_endos_fixing(m, list(m.ops)) == [(0, 1, 2)]


def test_symmetric_group_has_six_automorphisms():
    swap01 = make_op(B3, 1, table=[1, 0, 2])
    cycle = make_op(B3, 1, table=[1, 2, 0])
    sym3 = close_under_composition([swap01, cycle])
    maps = injective_endos_fixing(sym3, [identity_op(B3)])
    assert len(maps) == 6


def test_endos_preserve_invertibles():
    m = close_under_composition([NOT, C0])
    unit_tables = {op.table for op in invertibles(m).ops}
    unit_slots = {i for i, op in enumerate(m.ops) if op.table in unit_tables}
    for psi in injective_endos_fixing(m, [ID2]):
        assert {psi[i] for i in unit_slots} == unit_slots


def test_endos_require_closed_monoid_with_identity():
    with pytest.raises(ValueError):
        injective_endos_fixing(monoid_set(B2, [ID2, NOT], closed=None), [C0])
    not_closed = MonoidLike = monoid_set(B2, [NOT])
    with pytest.raises(ValueError):
        injective_endos_fixing(not_closed, [])


def test_the_closure_precondition_is_reported_before_the_identity():
    # s(x) = min(x + 1, 2) is neither closed (s o s is the constant 2) nor
    # the identity; the constant c0 alone is closed without the identity
    m = monoid_set(B3, [make_op(B3, 1, table=[1, 2, 2])])
    assert (m.closed_under_composition, m.contains_identity) == (False, False)
    with pytest.raises(ValueError,
                       match="^monoid must be closed under composition$"):
        injective_endos_fixing(m, [])
    with pytest.raises(ValueError, match="^monoid must contain the identity$"):
        injective_endos_fixing(monoid_set(B2, [C0]), [])


def endos_by_permutations(m, fixed):
    """The exhaustive oracle: every permutation of the members that fixes
    the identity and ``fixed`` and respects the composition table, after
    the preconditions are checked on all pairs."""
    tables = m.tables()
    size = m.carrier.size
    if not closed_by_all_pairs(tables):
        raise ValueError("monoid must be closed under composition")
    if tuple(range(size)) not in tables:
        raise ValueError("monoid must contain the identity")
    index = {t: i for i, t in enumerate(tables)}
    comp = [[index[tuple(f[g[x]] for x in range(size))] for g in tables]
            for f in tables]
    keep = {index[tuple(range(size))]} | {index[op.table] for op in fixed}
    movable = [i for i in range(len(tables)) if i not in keep]
    found = []
    for images in permutations(movable):
        psi = list(range(len(tables)))
        for slot, image in zip(movable, images):
            psi[slot] = image
        if all(psi[comp[i][j]] == comp[psi[i]][psi[j]]
               for i in range(len(tables)) for j in range(len(tables))):
            found.append(tuple(psi))
    return found


def outcome(search, m, fixed):
    """The maps a search returns, or the message of its ValueError."""
    try:
        return search(m, fixed)
    except ValueError as exc:
        return str(exc)


@given(data=st.data())
@settings(max_examples=120, deadline=None)
def test_endos_agree_with_the_permutation_search(data):
    size = data.draw(st.integers(min_value=2, max_value=4))
    carrier = finite_carrier(size)
    gens = [make_op(carrier, 1, table=data.draw(
        st.lists(st.integers(0, size - 1), min_size=size, max_size=size)))
        for _ in range(data.draw(st.integers(min_value=1, max_value=3)))]
    try:
        m = close_under_composition(
            gens, include_identity=data.draw(st.booleans()), cap=7)
    except BudgetExceeded:
        reject()
    ops = list(m.ops)
    change = data.draw(st.sampled_from(["none", "less one", "one more"]))
    others = [op for op in ops if op.table != tuple(range(size))]
    if change == "less one" and others:
        # a member less, which is often a product of those left
        ops.remove(data.draw(st.sampled_from(others)))
    elif change == "one more":
        ops.append(make_op(carrier, 1, table=data.draw(st.lists(
            st.integers(0, size - 1), min_size=size, max_size=size))))
    m = monoid_set(carrier, ops)
    fixed = data.draw(st.lists(st.sampled_from(ops), max_size=1)) if ops else []
    assert outcome(injective_endos_fixing, m, fixed) \
        == outcome(endos_by_permutations, m, fixed)


def test_endos_of_s4_are_its_inner_automorphisms():
    swap = make_op(finite_carrier(4), 1, table=[1, 0, 2, 3])
    cycle = make_op(finite_carrier(4), 1, table=[1, 2, 3, 0])
    s4 = close_under_composition([swap, cycle])
    maps = injective_endos_fixing(s4, [identity_op(s4.carrier)])
    assert (len(s4), len(maps)) == (24, 24)


def test_endo_report_shape():
    m = monoid_set(B2, [ID2, C0, C1])
    report = endo_report(m, [ID2])
    assert report["count"] == 2
    assert report["fixed"] == [1]
    assert report["maps"] == [[0, 1, 2], [2, 1, 0]]
    assert report["only_identity"] is False


def test_endo_report_only_identity_flag():
    m = close_under_composition([NOT])
    report = endo_report(m, list(m.ops))
    assert report["count"] == 1
    assert report["only_identity"] is True


# ---------------------------------------------------------------------------
# conjugation form of an action isomorphism
# ---------------------------------------------------------------------------

def test_conjugation_by_swap_exchanges_constants():
    swap = Bijection.from_table(B2, [1, 0])
    pairs = [(ID2, ID2), (C0, C1), (C1, C0), (NOT, NOT)]
    assert is_action_isomorphism(pairs, swap)


def test_identity_conjugation_does_not_exchange_constants():
    ident = Bijection.identity(B2)
    assert not is_action_isomorphism([(C0, C1)], ident)


def test_action_isomorphism_on_rationals_needs_window():
    shift = Bijection(RATIONALS, lambda x: x + 1, lambda y: y - 1)
    f = make_op(RATIONALS, 1, rule=lambda x: x + 2)
    with pytest.raises(ValueError):
        is_action_isomorphism([(f, f)], shift)
    # shifting commutes with shifting, so conjugation fixes f
    w = window(RATIONALS, [Fraction(-1), 0, Fraction(5, 2)])
    assert is_action_isomorphism([(f, f)], shift, window=w)


# ---------------------------------------------------------------------------
# lazy presentations and JSON
# ---------------------------------------------------------------------------

def test_extensional_questions_reject_lazy_monoids():
    gen = make_op(RATIONALS, 1, rule=lambda x: x + 1)
    m = monoid_set(RATIONALS, [gen])
    assert m.contains_identity is None
    with pytest.raises(UnsupportedLazyCarrier):
        is_transitive(m)
    with pytest.raises(UnsupportedLazyCarrier):
        is_weakly_directed(m)
    with pytest.raises(UnsupportedLazyCarrier):
        centre(m)


def test_monoid_json_round_trip():
    m = monoid_set(B2, [ID2, C0, C1])
    data = monoid_to_json(m)
    assert data["ops"] == [[0, 0], [0, 1], [1, 1]]
    assert data["flags"]["contains_identity"] is True
    again = monoid_from_json(data)
    assert again == m
