"""Operation-space basics: tables, composition, windows, JSON forms.

Expected tables below are frozen from hand-computed truth tables in
row-major order (leftmost argument most significant).  For example AND
lists its values at (0,0), (0,1), (1,0), (1,1).
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clonelab.errors import NotBijective, UnsupportedLazyCarrier
from clonelab.fnspace import (
    RADO,
    RATIONALS,
    Bijection,
    Window,
    all_tuples,
    carrier_from_json,
    carrier_to_json,
    compose,
    compose_tables,
    constant_op,
    element_from_json,
    element_to_json,
    equal_on_window,
    finite_carrier,
    identity_op,
    index_to_tuple,
    make_op,
    op_from_json,
    op_to_json,
    projection,
    tuple_to_index,
    window,
    window_from_json,
    window_to_json,
)

from malformed_values import Point, element_values

B2 = finite_carrier(2)

# hand-computed truth tables on {0,1}
ID_TABLE = (0, 1)
NOT_TABLE = (1, 0)
C0_TABLE = (0, 0)
C1_TABLE = (1, 1)
AND_TABLE = (0, 0, 0, 1)
OR_TABLE = (0, 1, 1, 1)
XOR_TABLE = (0, 1, 1, 0)
NAND_TABLE = (1, 1, 1, 0)


def op2(table, arity=None):
    if arity is None:
        arity = 1 if len(table) == 2 else 2
    return make_op(B2, arity, table=table)


# ---------------------------------------------------------------------------
# construction and evaluation
# ---------------------------------------------------------------------------

def test_table_length_must_match_arity():
    with pytest.raises(ValueError):
        make_op(B2, 2, table=[0, 1])


def test_table_values_must_be_in_carrier():
    with pytest.raises(ValueError):
        make_op(B2, 1, table=[0, 2])


def checked_table(carrier, arity, table):
    """The table check by :meth:`Carrier.contains` alone; the reference
    the inline int check is compared against."""
    table = tuple(table)
    expected = carrier.size ** arity
    if len(table) != expected:
        raise ValueError(
            f"table has {len(table)} entries, expected {expected} "
            f"(size {carrier.size}, arity {arity})")
    for v in table:
        if not carrier.contains(v):
            raise ValueError(f"table value {v!r} outside carrier")
    return table


def assert_table_checked_as_before(size, arity, make):
    """``make()`` gives a fresh copy of the table each call."""
    carrier = finite_carrier(size)

    def outcome(build):
        try:
            return repr(build())
        except Exception as exc:
            return type(exc).__name__, str(exc)

    assert outcome(lambda: make_op(carrier, arity, table=make()).table) == \
        outcome(lambda: checked_table(carrier, arity, make()))


@pytest.mark.parametrize("table", [
    [1, True], [0, 2], [0, -1], [Point.ONE, 0], [0, 1.0], [Fraction(1), 0],
    [None, 5], [0, "1"], [0, 1, 2], 7,
], ids=repr)
def test_table_check_matches_the_value_loop(table):
    assert_table_checked_as_before(2, 1, lambda: table)


@given(st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=2), st.data())
@settings(max_examples=300, deadline=None)
def test_table_check_matches_the_value_loop_on_random_input(size, arity,
                                                             data):
    # mostly tables of the right length, drawn from mostly valid values
    length = data.draw(st.sampled_from([size ** arity] * 3 + [0, 2]))
    table = data.draw(st.lists(
        st.integers(min_value=0, max_value=size - 1) | element_values(),
        min_size=length, max_size=length))
    one_shot = data.draw(st.booleans())
    assert_table_checked_as_before(
        size, arity, lambda: iter(table) if one_shot else list(table))


def test_arity_must_be_non_negative():
    with pytest.raises(ValueError):
        make_op(B2, -1, table=[0])


def test_row_major_evaluation():
    f = op2(AND_TABLE)
    assert f(0, 0) == 0
    assert f(0, 1) == 0
    assert f(1, 0) == 0
    assert f(1, 1) == 1


def test_argument_arity_checked():
    f = op2(AND_TABLE)
    with pytest.raises(ValueError):
        f(0)


def test_argument_range_checked():
    f = op2(NOT_TABLE)
    with pytest.raises(ValueError):
        f(2)


def test_nullary_op_is_a_single_entry_table():
    c = constant_op(B2, 1)
    assert c.arity == 0
    assert c.table == (1,)
    assert c() == 1


def test_projection_tables():
    assert projection(B2, 1, 1).table == ID_TABLE
    assert projection(B2, 2, 1).table == (0, 0, 1, 1)
    assert projection(B2, 2, 2).table == (0, 1, 0, 1)


def test_projection_index_bounds():
    with pytest.raises(ValueError):
        projection(B2, 2, 3)
    with pytest.raises(ValueError):
        projection(B2, 0, 1)


def test_finite_ops_compare_by_table():
    assert op2(AND_TABLE) == op2(AND_TABLE)
    assert op2(AND_TABLE) != op2(OR_TABLE)
    assert len({op2(AND_TABLE), op2(AND_TABLE), op2(OR_TABLE)}) == 2


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_finite_op_hash_agrees_with_equality(data):
    size = data.draw(st.integers(min_value=1, max_value=3))
    arity = data.draw(st.integers(min_value=0, max_value=2))
    entries = size ** arity
    table = data.draw(st.lists(st.integers(0, size - 1),
                               min_size=entries, max_size=entries))
    f = make_op(finite_carrier(size), arity, table=table)
    twin = make_op(finite_carrier(size), arity, table=table, label="twin")
    assert f == twin and hash(f) == hash(twin)
    # the same table read on other carriers or at other arities is a
    # different operation, and each keeps its own dict entry
    others = [make_op(finite_carrier(k), n, table=table)
              for k in range(1, 5) for n in range(3)
              if (k, n) != (size, arity) and k ** n == entries
              and max(table) < k]
    keys = dict.fromkeys([f, twin] + others)
    assert list(keys) == [f] + others


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------

def test_compose_unary_chain():
    nand = compose(op2(NOT_TABLE), [op2(AND_TABLE)])
    assert nand.table == NAND_TABLE


def test_compose_diagonal_collapses_to_identity():
    # AND(x, x) = x
    diag = compose(op2(AND_TABLE), [identity_op(B2), identity_op(B2)])
    assert diag.table == ID_TABLE


def test_compose_argument_flip():
    # h(x, y) = x AND (NOT y); flipping arguments gives (NOT x) AND y
    h = op2((0, 0, 1, 0))
    flipped = compose(h, [projection(B2, 2, 2), projection(B2, 2, 1)])
    assert flipped.table == (0, 1, 0, 0)


def test_compose_rejects_mixed_inner_arity():
    with pytest.raises(ValueError):
        compose(op2(AND_TABLE), [identity_op(B2), op2(AND_TABLE)])


def test_compose_rejects_wrong_inner_count():
    with pytest.raises(ValueError):
        compose(op2(AND_TABLE), [identity_op(B2)])


def test_compose_rejects_mixed_carriers():
    b3 = finite_carrier(3)
    with pytest.raises(ValueError):
        compose(op2(NOT_TABLE), [identity_op(b3)])


def test_compose_nullary_into_higher_arity():
    c1 = constant_op(B2, 1)
    lifted = compose(c1, [], target_arity=2)
    assert lifted.arity == 2
    assert lifted.table == C1_TABLE + C1_TABLE


ALL_UNARY = [op2(t) for t in [C0_TABLE, ID_TABLE, NOT_TABLE, C1_TABLE]]
ALL_BINARY = [op2(tuple((i >> k) & 1 for k in (3, 2, 1, 0)), arity=2)
              for i in range(16)]


def test_projection_law_exhaustive_on_two_elements():
    # e_i^n composed with any inner tuple returns the i-th inner op
    for n in (1, 2):
        inners = ALL_UNARY if n == 1 else ALL_BINARY
        import itertools
        for gs in itertools.product(inners, repeat=n):
            for i in range(1, n + 1):
                assert compose(projection(B2, n, i), gs) == gs[i - 1]


def test_interchange_law_unary_inners_exhaustive():
    # (f o gs) o hs = f o (g1 o hs, ..., gn o hs), all unary inners
    import itertools
    fs = ALL_UNARY + ALL_BINARY
    for f in fs:
        for gs in itertools.product(ALL_UNARY, repeat=f.arity):
            for h in ALL_UNARY:
                left = compose(compose(f, gs), [h])
                right = compose(f, [compose(g, [h]) for g in gs])
                assert left == right


def test_interchange_law_binary_inners_sampled():
    import random

    rng = random.Random(77)
    for _ in range(400):
        f = rng.choice(ALL_BINARY)
        gs = [rng.choice(ALL_BINARY) for _ in range(f.arity)]
        hs = [rng.choice(ALL_BINARY) for _ in range(2)]
        left = compose(compose(f, gs), hs)
        right = compose(f, [compose(g, hs) for g in gs])
        assert left == right


@given(
    size=st.integers(min_value=1, max_value=3),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_compose_with_all_projections_is_identity(size, data):
    carrier = finite_carrier(size)
    arity = data.draw(st.integers(min_value=1, max_value=2))
    table = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=size - 1),
            min_size=size ** arity, max_size=size ** arity,
        )
    )
    f = make_op(carrier, arity, table=table)
    projections = [projection(carrier, arity, i) for i in range(1, arity + 1)]
    assert compose(f, projections) == f


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_compose_tables_matches_pointwise_evaluation(data):
    # the raw-table kernel against evaluating f(g1(xs), ..., gn(xs))
    # argument tuple by argument tuple through FinOp.__call__
    size = data.draw(st.integers(min_value=2, max_value=3))
    n = data.draw(st.integers(min_value=0, max_value=3))
    m = data.draw(st.integers(min_value=0, max_value=3))
    carrier = finite_carrier(size)

    def random_op(arity):
        entries = size ** arity
        return make_op(carrier, arity, table=data.draw(st.lists(
            st.integers(0, size - 1), min_size=entries, max_size=entries)))

    f = random_op(n)
    gs = [random_op(m) for _ in range(n)]
    expected = tuple(f(*(g(*args) for g in gs))
                     for args in all_tuples(range(size), m))
    assert compose_tables(f.table, [g.table for g in gs], size, m) == expected


# ---------------------------------------------------------------------------
# lazy carriers
# ---------------------------------------------------------------------------

def test_lazy_rule_on_rationals():
    double = make_op(RATIONALS, 1, rule=lambda x: 2 * x)
    assert double(Fraction(3, 2)) == Fraction(3)
    assert double(5) == Fraction(10)


def test_lazy_rule_is_memoised():
    calls = []

    def rule(x):
        calls.append(x)
        return x + 1

    f = make_op(RATIONALS, 1, rule=rule)
    assert f(3) == 4
    assert f(3) == 4
    assert len(calls) == 1


def test_floats_rejected_on_rationals():
    f = make_op(RATIONALS, 1, rule=lambda x: x)
    with pytest.raises(TypeError):
        f(0.5)


def test_rado_carrier_is_naturals():
    assert RADO.contains(0)
    assert RADO.contains(2 ** 40)
    assert not RADO.contains(-1)
    assert not RADO.contains(Fraction(1, 2))


def test_lazy_ops_compare_by_identity():
    f = make_op(RATIONALS, 1, rule=lambda x: x)
    g = make_op(RATIONALS, 1, rule=lambda x: x)
    assert f == f
    assert f != g


# ---------------------------------------------------------------------------
# windows and agreement
# ---------------------------------------------------------------------------

def test_window_canonicalises_rational_points():
    w = window(RATIONALS, [0, 1, Fraction(1, 2)])
    assert Fraction(0) in w
    assert Fraction(1, 2) in w
    assert len(w) == 3


def test_equal_on_window_finite():
    assert equal_on_window(op2(NOT_TABLE), op2(NOT_TABLE), window(B2, [0, 1]))
    assert not equal_on_window(op2(NOT_TABLE), identity_op(B2), window(B2, [0]))


def test_equal_on_window_checks_tuples_not_points():
    # AND and OR agree at both diagonal points but differ on mixed pairs
    w = window(B2, [0, 1])
    assert not equal_on_window(op2(AND_TABLE), op2(OR_TABLE), w)


def test_equal_on_empty_window_is_trivially_true():
    assert equal_on_window(op2(AND_TABLE), op2(OR_TABLE), window(B2, []))


def test_equal_on_window_rationals():
    double = make_op(RATIONALS, 1, rule=lambda x: 2 * x)
    shift = make_op(RATIONALS, 1, rule=lambda x: x + 1)
    assert equal_on_window(double, shift, window(RATIONALS, [1]))
    assert not equal_on_window(double, shift, window(RATIONALS, [0, 1]))


def test_equal_on_window_arity_mismatch():
    with pytest.raises(ValueError):
        equal_on_window(op2(AND_TABLE), op2(NOT_TABLE), window(B2, [0]))


def test_window_monotonicity_intervals_refine():
    # agreement on a larger window implies agreement on any smaller one
    import itertools

    small = window(B2, [0])
    large = window(B2, [0, 1])
    for f, g in itertools.product(ALL_UNARY, repeat=2):
        if equal_on_window(f, g, large):
            assert equal_on_window(f, g, small)


# ---------------------------------------------------------------------------
# row-major index coding
# ---------------------------------------------------------------------------

def test_tuple_index_round_trip():
    for size in (1, 2, 3):
        for arity in (0, 1, 2, 3):
            for idx in range(size ** arity):
                t = index_to_tuple(idx, size, arity)
                assert tuple_to_index(t, size) == idx


def test_leftmost_coordinate_most_significant():
    assert tuple_to_index((1, 0), 2) == 2
    assert tuple_to_index((0, 1), 2) == 1
    assert index_to_tuple(5, 2, 3) == (1, 0, 1)


# ---------------------------------------------------------------------------
# bijections
# ---------------------------------------------------------------------------

def test_bijection_from_table_and_inverse():
    swap = Bijection.from_table(B2, [1, 0])
    assert swap(0) == 1
    assert swap.inverse(1) == 0
    assert swap.inverted()(1) == 0


def test_bijection_rejects_non_permutation():
    with pytest.raises(NotBijective):
        Bijection.from_table(B2, [0, 0])


def test_bijection_from_op_requires_unary():
    with pytest.raises(NotBijective):
        Bijection.from_op(op2(AND_TABLE))


def test_lazy_bijection_round_trip():
    shift = Bijection(RATIONALS, lambda x: x + 1, lambda y: y - 1, label="x+1")
    assert shift(Fraction(1, 2)) == Fraction(3, 2)
    assert shift.inverse(shift(7)) == 7


def test_bijection_as_op():
    swap = Bijection.from_table(B2, [1, 0])
    assert swap.as_op().table == NOT_TABLE


# ---------------------------------------------------------------------------
# JSON forms
# ---------------------------------------------------------------------------

def test_carrier_json_round_trip():
    for c in (B2, finite_carrier(5), RATIONALS, RADO):
        assert carrier_from_json(carrier_to_json(c)) == c


def test_op_json_round_trip():
    f = op2(XOR_TABLE)
    data = op_to_json(f)
    assert data == {"arity": 2, "carrier": {"kind": "finite", "size": 2},
                    "table": [0, 1, 1, 0]}
    assert op_from_json(data) == f


def test_lazy_op_has_no_json_form():
    f = make_op(RATIONALS, 1, rule=lambda x: x)
    with pytest.raises(UnsupportedLazyCarrier):
        op_to_json(f)


def test_element_json_uses_exact_fraction_strings():
    assert element_to_json(RATIONALS, Fraction(3, 4)) == "3/4"
    assert element_from_json(RATIONALS, "3/4") == Fraction(3, 4)
    assert element_from_json(RATIONALS, 2) == Fraction(2)
    assert element_to_json(B2, 1) == 1


@pytest.mark.parametrize("bad", ["1/0", "-3/0", True, False, 0.5, None])
def test_rational_element_json_rejects_malformed_values(bad):
    with pytest.raises(ValueError, match="bad rational element JSON"):
        element_from_json(RATIONALS, bad)
    with pytest.raises(ValueError, match="bad rational element JSON"):
        window_from_json({"carrier": {"kind": "rationals"},
                          "points": ["1/2", bad]})


def test_window_json_round_trip():
    w = window(RATIONALS, [Fraction(-1), Fraction(1, 3)])
    again = window_from_json(window_to_json(w))
    assert again == w
