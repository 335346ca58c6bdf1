"""Tests for relational structures, map monoids, and the two built-in
countable structures.

The backtracking enumerator is cross-checked against a brute-force filter
over all image vectors, which is slower but follows the definitions
directly.  Automorphism counts for the named graph families are standard
and asserted as fixed numbers.
"""

import json
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest

from clonelab import structures
from clonelab.clone import close_fragment
from clonelab.errors import UnsupportedLazyCarrier
from clonelab.fnspace import (
    RADO,
    RATIONALS,
    Carrier,
    finite_carrier,
    identity_op,
    make_op,
)
from clonelab.monoid import GroupSet, MonoidSet, group_set, invertibles, monoid_set
from clonelab.structures import (
    PartialIso,
    RelStructure,
    aut_group,
    catalog,
    complement_expansion,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    edgeless_graph,
    emb_monoid,
    emb_set,
    end_monoid,
    graph_structure,
    hom_set,
    is_homogeneous,
    is_loopless,
    path_graph,
    rado_adjacency,
    rado_extension_witness,
    rado_graph,
    rationals_order,
    structure_from_json,
    structure_to_json,
)

from malformed_values import Point, element_values

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:
    HAVE_HYPOTHESIS = False


def brute_maps(a, b=None, injective=False, reflect=False):
    """Filter all image vectors by the definitions; the slow reference
    implementation the backtracker is compared against."""
    b = b if b is not None else a
    n = a.carrier.size
    m = b.carrier.size
    found = []
    for vec in product(range(m), repeat=n):
        if injective and len(set(vec)) != n:
            continue
        ok = True
        for name, arity in a.signature:
            for t in product(range(n), repeat=arity):
                src = t in a.relations[name]
                dst = tuple(vec[i] for i in t) in b.relations[name]
                if src and not dst:
                    ok = False
                    break
                if reflect and dst and not src:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            found.append(vec)
    return found


if HAVE_HYPOTHESIS:
    def draw_subset(data, pool):
        keep = data.draw(st.lists(st.booleans(), min_size=len(pool),
                                  max_size=len(pool)))
        return [x for x, k in zip(pool, keep) if k]

    def draw_signature(data, arities):
        picked = data.draw(st.lists(st.sampled_from(arities), min_size=1,
                                    max_size=3))
        return [(f"R{i}", arity) for i, arity in enumerate(picked)]

    def draw_structure(data, n, signature):
        return RelStructure(finite_carrier(n), signature, {
            name: draw_subset(data, list(product(range(n), repeat=arity)))
            for name, arity in signature})


# ---------------------------------------------------------------------------
# construction and basic queries
# ---------------------------------------------------------------------------

def test_structure_validates_tuple_arity():
    with pytest.raises(ValueError):
        RelStructure(finite_carrier(2), [("R", 2)], {"R": [(0, 1, 0)]})


def test_structure_validates_elements():
    with pytest.raises(ValueError):
        RelStructure(finite_carrier(2), [("R", 1)], {"R": [(5,)]})


def checked_relation(carrier, arity, rel):
    """The relation check by :meth:`Carrier.contains` alone; the
    reference the inline int check is compared against."""
    tuples = set()
    for t in rel:
        t = tuple(t)
        if len(t) != arity:
            raise ValueError(f"tuple {t} has wrong arity for R")
        for x in t:
            if not carrier.contains(x):
                raise ValueError(f"element {x!r} outside carrier")
        tuples.add(t)
    return frozenset(tuples)


def outcome(build):
    """What a build returns, shown with its element types, or the type
    and message of what it raises."""
    try:
        return sorted(map(repr, build()))
    except Exception as exc:
        return type(exc).__name__, str(exc)


def assert_relation_checked_as_before(size, arity, make):
    """``make()`` gives a fresh copy of the relation each call, so that
    one-shot iterators are read once by each side."""
    carrier = finite_carrier(size)
    built = outcome(lambda: RelStructure(carrier, [("R", arity)],
                                         {"R": make()}).relations["R"])
    assert built == outcome(lambda: checked_relation(carrier, arity, make()))


@pytest.mark.parametrize("rel", [
    [(1, 0), (True, 0)],          # a bool equal to a member still raises
    [(True, 0)],
    [(0, 2)],                     # the carrier's size is outside it
    [(0, -1)],
    [(Point.ONE, 0), (1, 0)],     # int subclasses are elements
    [(0, 1), (0, 1.0)],
    [(0, 1), (Fraction(1), 0)],
    [(0, 1), (0, 1, 0), (0, 5)],
    [(0, 5), (0, 1, 0)],
    [(0, 1), 7, (0, 5)],
    [(0, 5), 7],
    [(0, None), "ab"],
    7,
], ids=repr)
def test_relation_check_matches_the_element_loop(rel):
    assert_relation_checked_as_before(2, 2, lambda: rel)


def test_relation_check_reads_one_shot_iterators_once():
    assert_relation_checked_as_before(
        3, 2, lambda: iter([iter([0, 1]), iter([2, 2]), iter([1, 3])]))
    assert_relation_checked_as_before(
        3, 2, lambda: (t for t in [(0, 1), (2, 1)]))


if HAVE_HYPOTHESIS:
    # an item is a tuple, a list or a one-shot iterator of values, or a
    # value that is not iterable at all
    relation_items = st.one_of(
        st.tuples(st.sampled_from([tuple, list, iter]),
                  st.lists(element_values(), max_size=4)),
        st.tuples(st.just(None), st.integers() | st.none()))

    def build_items(items):
        return [form(values) if form else values for form, values in items]

    @given(st.integers(min_value=1, max_value=4),
           st.integers(min_value=0, max_value=3),
           st.lists(relation_items, max_size=8), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_relation_check_matches_the_element_loop_on_random_input(
            size, arity, items, one_shot):
        assert_relation_checked_as_before(
            size, arity, lambda: (iter if one_shot else list)(
                build_items(items)))


def test_valid_input_makes_no_contains_calls(monkeypatch):
    # an exact int in range is accepted without Carrier.contains
    calls = []
    contains = Carrier.contains

    def counting(self, x):
        calls.append(x)
        return contains(self, x)

    monkeypatch.setattr(Carrier, "contains", counting)
    complement_expansion(complete_graph(7))
    b2 = finite_carrier(2)
    close_fragment([make_op(b2, 1, table=[1, 0]),
                    make_op(b2, 2, table=[0, 0, 0, 1])], max_arity=2)
    assert len(calls) == 0


def test_structure_rejects_missing_relation():
    with pytest.raises(ValueError):
        RelStructure(finite_carrier(2), [("R", 1)], {})


def test_structure_rejects_duplicate_names():
    with pytest.raises(ValueError):
        RelStructure(finite_carrier(2), [("R", 1), ("R", 2)],
                     {"R": [(0,)]})


def test_related_and_arity():
    p3 = path_graph(3)
    assert p3.related("E", 0, 1)
    assert p3.related("E", 1, 0)
    assert not p3.related("E", 0, 2)
    assert p3.arity_of("E") == 2
    with pytest.raises(KeyError):
        p3.arity_of("F")


def test_graph_builder_rejects_loops():
    with pytest.raises(ValueError):
        graph_structure(2, [(0, 0)])


def test_structure_equality_and_hash():
    assert path_graph(3) == path_graph(3)
    assert path_graph(3) != cycle_graph(3)
    assert hash(path_graph(4)) == hash(path_graph(4))


def test_lazy_structure_rejects_finite_only_operations():
    q = rationals_order()
    assert not q.is_finite
    with pytest.raises(UnsupportedLazyCarrier):
        hom_set(q, q)
    with pytest.raises(UnsupportedLazyCarrier):
        is_homogeneous(q)
    with pytest.raises(UnsupportedLazyCarrier):
        structure_to_json(q)


# ---------------------------------------------------------------------------
# map enumeration against the brute-force reference
# ---------------------------------------------------------------------------

FAMILIES = [
    path_graph(3),
    path_graph(4),
    cycle_graph(5),
    complete_graph(3),
    complete_multipartite([2, 2]),
    edgeless_graph(3),
]


@pytest.mark.parametrize("g", FAMILIES, ids=lambda g: g.name)
def test_end_matches_brute_force(g):
    got = sorted(op.table for op in end_monoid(g).ops)
    assert got == sorted(brute_maps(g))


@pytest.mark.parametrize("g", FAMILIES, ids=lambda g: g.name)
def test_emb_matches_brute_force(g):
    got = sorted(op.table for op in emb_monoid(g).ops)
    assert got == sorted(brute_maps(g, injective=True, reflect=True))


def test_ternary_relation_maps_match_brute_force():
    between = RelStructure(
        finite_carrier(4), [("B", 3)],
        {"B": [(i, j, k) for i in range(4) for j in range(4) for k in range(4)
               if i < j < k or k < j < i]})
    assert sorted(op.table for op in end_monoid(between).ops) == \
        sorted(brute_maps(between))
    assert sorted(op.table for op in emb_monoid(between).ops) == \
        sorted(brute_maps(between, injective=True, reflect=True))


def test_automorphism_counts_of_named_graphs():
    assert len(aut_group(complete_graph(3)).ops) == 6
    assert len(aut_group(cycle_graph(5)).ops) == 10
    assert len(aut_group(cycle_graph(6)).ops) == 12
    assert len(aut_group(path_graph(4)).ops) == 2
    assert len(aut_group(complete_multipartite([2, 2])).ops) == 8
    assert len(aut_group(edgeless_graph(4)).ops) == 24


def test_cycle5_is_a_core():
    # every endomorphism of the 5-cycle is an automorphism
    c5 = cycle_graph(5)
    end = {op.table for op in end_monoid(c5).ops}
    auts = {op.table for op in aut_group(c5).ops}
    assert end == auts
    assert len(end) == 10


def test_hom_set_counts_between_graphs():
    k2, k3 = complete_graph(2), complete_graph(3)
    assert len(hom_set(k2, k3)) == 6
    assert len(emb_set(k2, k3)) == 6
    assert hom_set(k3, k2) == []
    assert len(hom_set(path_graph(3), k2)) == 2


def test_emb_set_reflects_non_edges():
    # both injections of two isolated vertices hit an edge of K2
    assert emb_set(edgeless_graph(2), complete_graph(2)) == []
    assert len(hom_set(edgeless_graph(2), complete_graph(2))) == 4


def test_hom_set_requires_matching_signature():
    other = RelStructure(finite_carrier(2), [("R", 1)], {"R": [(0,)]})
    with pytest.raises(ValueError):
        hom_set(path_graph(2), other)


def test_nullary_relations_are_checked():
    signature = [("P", 0), ("E", 2)]
    a = RelStructure(finite_carrier(2), signature, {"P": [()], "E": []})
    b = RelStructure(finite_carrier(2), signature, {"P": [], "E": []})
    assert hom_set(a, b) == []
    assert emb_set(a, b) == []
    # without P in the source there is nothing to preserve, but an
    # embedding must also reflect it
    assert hom_set(b, a) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert emb_set(b, a) == []


if HAVE_HYPOTHESIS:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_map_sets_match_brute_force_between_two_structures(data):
        signature = draw_signature(data, [0, 1, 2, 3])
        a = draw_structure(data, data.draw(st.integers(1, 3)), signature)
        b = draw_structure(data, data.draw(st.integers(1, 3)), signature)
        # same maps in the same order: candidates are tried ascending
        assert hom_set(a, b) == brute_maps(a, b)
        assert emb_set(a, b) == brute_maps(a, b, injective=True, reflect=True)


def test_size_limit_guard():
    k8 = complete_graph(8)
    with pytest.raises(ValueError):
        aut_group(k8)
    assert len(aut_group(k8, size_limit=8).ops) == 40320


def test_map_searches_check_their_preconditions_in_one_order():
    # A finite, A within the size limit, B finite, one signature; the
    # first that fails is the one raised
    q = rationals_order()
    lazy_relation = RelStructure(finite_carrier(2), [("E", 2)],
                                 {"E": lambda x, y: x != y})
    k8, k2 = complete_graph(8), complete_graph(2)
    ternary = RelStructure(finite_carrier(2), [("B", 3)], {"B": []})
    limit = "structure size 8 exceeds the search limit 7"
    for search in (hom_set, emb_set):
        for a, b, error, text in (
                (q, k2, UnsupportedLazyCarrier, "finite extensional"),
                (lazy_relation, q, UnsupportedLazyCarrier,
                 "finite extensional"),
                (k8, q, ValueError, limit),
                (k8, ternary, ValueError, limit),
                (k2, lazy_relation, UnsupportedLazyCarrier,
                 "finite extensional"),
                (k2, ternary, ValueError, "share a signature")):
            with pytest.raises(error, match=text):
                search(a, b)
    for search in (end_monoid, emb_monoid, aut_group, is_homogeneous):
        with pytest.raises(UnsupportedLazyCarrier):
            search(lazy_relation)
        with pytest.raises(ValueError, match=limit):
            search(k8)


def walked_is_finite(a):
    """``is_finite`` by its definition: a finite carrier and no relation
    given as a predicate, read off the relations."""
    return a.carrier.is_finite and all(not callable(r)
                                       for r in a.relations.values())


@pytest.mark.parametrize("a", [
    path_graph(3),
    rationals_order(),
    rado_graph(),
    complement_expansion(rationals_order()),
    complement_expansion(cycle_graph(4)),
    RelStructure(finite_carrier(3), [("R", 2)], {"R": lambda x, y: x < y}),
    RelStructure(finite_carrier(3), [("E", 2), ("R", 1)],
                 {"E": [(0, 1)], "R": lambda x: x == 2}),
    RelStructure(finite_carrier(2), [], {}),
    RelStructure(RATIONALS, [], {}),
    RelStructure(RADO, [], {}),
], ids=["path", "rationals", "rado", "rationals+co", "cycle+co",
        "finite-callable", "finite-mixed", "finite-empty", "rationals-empty",
        "rado-empty"])
def test_is_finite_is_set_once_as_defined(a):
    assert a.is_finite == walked_is_finite(a)
    assert "is_finite" in RelStructure.__slots__


def test_end_monoid_flags_are_accurate():
    m = end_monoid(path_graph(3))
    assert isinstance(m, MonoidSet)
    assert m.contains_identity
    assert m.closed_under_composition
    tables = {op.table for op in m.ops}
    for f in m.ops:
        for g in m.ops:
            composed = tuple(f(g(x)) for x in range(3))
            assert composed in tables


def test_asserted_monoid_flags_are_the_computed_ones():
    # the map monoids and the sets rebuilt from their members by
    # monoid_set and group_set read both flags off the same members
    for n in range(1, 5):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            g = graph_structure(n, [p for i, p in enumerate(pairs)
                                    if mask >> i & 1])
            for m, rebuild in ((end_monoid(g), monoid_set),
                               (emb_monoid(g), monoid_set),
                               (aut_group(g), group_set)):
                computed = rebuild(g.carrier, m.ops)
                assert type(computed) is type(m)
                assert m.ops == computed.ops
                assert (m.contains_identity, m.closed_under_composition) \
                    == (computed.contains_identity,
                        computed.closed_under_composition) == (True, True)


def test_invertible_endos_are_the_automorphisms():
    c6 = cycle_graph(6)
    group = invertibles(end_monoid(c6))
    assert isinstance(group, GroupSet)
    assert {op.table for op in group.ops} == \
        {op.table for op in aut_group(c6).ops}


# ---------------------------------------------------------------------------
# complement expansion
# ---------------------------------------------------------------------------

def test_complement_expansion_finite_shape():
    p3 = path_graph(3)
    bar = complement_expansion(p3)
    assert bar.signature == (("E", 2), ("co_E", 2), ("neq", 2))
    assert bar.related("co_E", 0, 2)
    assert not bar.related("co_E", 0, 1)
    assert bar.related("co_E", 0, 0)
    assert bar.related("neq", 0, 1)
    assert not bar.related("neq", 2, 2)
    assert bar.name == "path-3+complements"


@pytest.mark.parametrize("g", FAMILIES, ids=lambda g: g.name)
def test_expansion_endos_are_the_embeddings(g):
    got = {op.table for op in end_monoid(complement_expansion(g)).ops}
    want = {op.table for op in emb_monoid(g).ops}
    assert got == want


def test_complement_expansion_name_clash():
    clash = RelStructure(finite_carrier(2), [("E", 2), ("co_E", 2)],
                         {"E": [(0, 1)], "co_E": [(1, 0)]})
    with pytest.raises(ValueError):
        complement_expansion(clash)


def test_complement_expansion_lazy():
    qbar = complement_expansion(rationals_order())
    assert qbar.related("lt", Fraction(1, 3), Fraction(1, 2))
    assert qbar.related("co_lt", Fraction(1, 2), Fraction(1, 3))
    assert qbar.related("co_lt", Fraction(1, 2), Fraction(1, 2))
    assert qbar.related("neq", 0, 1)
    assert not qbar.related("neq", 1, 1)


# ---------------------------------------------------------------------------
# homogeneity
# ---------------------------------------------------------------------------

def test_homogeneous_graphs():
    for g in [complete_graph(3), edgeless_graph(3), cycle_graph(5),
              complete_multipartite([2, 2]), complete_multipartite([3, 3])]:
        ok, witness = is_homogeneous(g)
        assert ok, g.name
        assert witness is None


def test_path4_inhomogeneity_witness():
    ok, witness = is_homogeneous(path_graph(4))
    assert not ok
    assert witness.pairs == ((0, 1),)
    assert witness.is_valid()


def test_cycle6_inhomogeneity_witness():
    # vertices at distance two and three are both non-adjacent, but no
    # automorphism exchanges the two kinds of pair
    ok, witness = is_homogeneous(cycle_graph(6))
    assert not ok
    assert witness.pairs == ((0, 0), (2, 3))
    assert witness.is_valid()


def test_unequal_parts_break_homogeneity():
    ok, witness = is_homogeneous(complete_multipartite([2, 3]))
    assert not ok
    assert witness.pairs == ((0, 2),)


def test_default_bound_extremes_are_homogeneous():
    # seven vertices is the default size limit; both graphs have 5040
    # automorphisms and every partial isomorphism extends
    assert is_homogeneous(complete_graph(7)) == (True, None)
    assert is_homogeneous(edgeless_graph(7)) == (True, None)


def partial_iso_ok(a, mapping):
    return all((t in a.relations[name])
               == (tuple(mapping[x] for x in t) in a.relations[name])
               for name, arity in a.signature
               for t in product(mapping, repeat=arity))


def scan_homogeneity(a):
    """Test every partial isomorphism against every automorphism, in the
    order the decision procedure promises (domain size, domain, image);
    the slow reference the orbit and type levels are compared against."""
    n = a.carrier.size
    autos = brute_maps(a, injective=True, reflect=True)
    for k in range(1, n):
        for dom in combinations(range(n), k):
            for img in permutations(range(n), k):
                mapping = dict(zip(dom, img))
                if not partial_iso_ok(a, mapping):
                    continue
                if not any(all(auto[d] == mapping[d] for d in dom)
                           for auto in autos):
                    return False, tuple(sorted(mapping.items()))
    return True, None


def lookup_homogeneity(a):
    """The restriction lookup the orbit and type levels replaced: the
    restrictions of all automorphisms to a domain form one set, and the
    first image outside it that is a partial isomorphism is the witness.
    Fast enough at 6 vertices, where the scan is not."""
    n = a.carrier.size
    autos = brute_maps(a, injective=True, reflect=True)
    for k in range(1, n):
        for dom in combinations(range(n), k):
            restrictions = {tuple(auto[d] for d in dom) for auto in autos}
            for img in permutations(range(n), k):
                mapping = dict(zip(dom, img))
                if img not in restrictions and partial_iso_ok(a, mapping):
                    return False, tuple(sorted(mapping.items()))
    return True, None


def label_homogeneity(a):
    """The level labelling the stabiliser search replaced: at each level
    every tuple of distinct elements gets its isomorphism type (its
    prefix's type plus the instances that mention its last position) and
    its orbit under the listed automorphism group, and a level passes when
    it has as many orbits as types.  Fast at 7 vertices, and on mixed
    signatures."""
    n = a.carrier.size
    columns = list(zip(*emb_set(a, a)))
    type_of = {(): 0}
    for k in range(1, n):
        instances = [(name, t) for name, arity in a.signature
                     for t in product(range(k), repeat=arity) if k - 1 in t]
        codes = {}
        level = {}
        for prefix, code in type_of.items():
            for x in range(n):
                if x not in prefix:
                    u = prefix + (x,)
                    key = (code, tuple(tuple(u[i] for i in t) in a.relations[name]
                                       for name, t in instances))
                    level[u] = codes.setdefault(key, len(codes))
        type_of = level
        orbit_of = {}
        for t in type_of:
            if t not in orbit_of:
                orbit_of.update(dict.fromkeys(zip(*[columns[x] for x in t]), t))
        if len(set(orbit_of.values())) == len(codes):
            continue
        for dom in combinations(range(n), k):
            for img, code in type_of.items():
                if code == type_of[dom] and orbit_of[img] != orbit_of[dom]:
                    return False, tuple(zip(dom, img))
    return True, None


def assert_matches(a, *oracles):
    ok, witness = is_homogeneous(a)
    for oracle in oracles:
        assert (ok, witness.pairs if witness else None) == oracle(a)


# a 6-cycle with two opposite vertices marked and a nullary flag: the
# marked pair is fixed setwise, so only the identity fixes vertex 1, and
# the unmarked vertices 4 and 5, both not adjacent to it, have one type
# over it but lie in two orbits.  Before that witness comes the image
# (1, 2) of the domain (0, 1), which differs from it only in P at the
# first position: a type that leaves out the instances over earlier
# positions would give that image as the witness.
MARKED_HEXAGON = RelStructure(
    finite_carrier(6), [("P", 1), ("E", 2), ("F", 0)],
    {"P": [(0,), (3,)], "F": [()],
     "E": [(i, (i + d) % 6) for i in range(6) for d in (1, 5)]},
    name="marked-hexagon")


@pytest.mark.parametrize("g", [
    complete_graph(6), edgeless_graph(6), cycle_graph(6),
    complete_multipartite([2, 2, 2]), complete_multipartite([3, 3]),
    complete_multipartite([2, 3]), MARKED_HEXAGON,
], ids=lambda g: g.name)
def test_homogeneity_matches_lookup_on_named_graphs(g):
    assert_matches(g, lookup_homogeneity, label_homogeneity)


@pytest.mark.parametrize("g", [
    path_graph(7), complete_multipartite([3, 4]),
    complete_multipartite([2, 2, 3]), complete_multipartite([1, 2, 2, 2]),
], ids=lambda g: g.name)
def test_homogeneity_matches_labelling_on_seven_vertex_graphs(g):
    assert_matches(g, label_homogeneity)


@pytest.mark.parametrize("n, distances", [
    pytest.param(n, ds, id=f"{n}-{ds}") for n in range(3, 8)
    for r in range(n // 2 + 1) for ds in combinations(range(1, n // 2 + 1), r)
])
def test_homogeneity_matches_labelling_on_circulant_graphs(n, distances):
    # a graph on at most 7 vertices that is not vertex-transitive fails at
    # level one; these are the vertex-transitive ones, including all on 6
    # and 7 vertices, where the searches reach past level one
    g = graph_structure(n, [(i, (i + d) % n) for i in range(n)
                            for d in distances])
    assert_matches(g, label_homogeneity)


@pytest.fixture
def search_calls(monkeypatch):
    """The ``pinned`` argument of every map search ``is_homogeneous``
    makes; listing Aut(A) through ``_enumerate_maps`` raises."""
    calls = []
    search = structures._search_maps

    def counting(rows, m, injective, pinned=None):
        calls.append(pinned)
        return search(rows, m, injective, pinned)

    def listing(*args):
        raise AssertionError("the automorphism group was listed")

    monkeypatch.setattr(structures, "_search_maps", counting)
    monkeypatch.setattr(structures, "_enumerate_maps", listing)
    return calls


@pytest.mark.parametrize("g, searches", [
    (complete_graph(7), 21),
    (complete_multipartite([2, 2, 2]), 14),
    (complete_multipartite([3, 3]), 19),
], ids=lambda x: getattr(x, "name", None))
def test_homogeneous_structures_never_list_automorphisms(g, searches,
                                                         search_calls):
    # each search is pinned (it fixes a representative and sends a class's
    # first element to one member); an unpinned call would list Aut(A)
    assert is_homogeneous(g) == (True, None)
    assert len(search_calls) == searches
    assert all(search_calls)


@pytest.mark.parametrize("g, searches, pairs", [
    (cycle_graph(6), 18, ((0, 0), (2, 3))),
    (cycle_graph(7), 20, ((0, 0), (2, 3))),
    (path_graph(7), 3, ((0, 1),)),
    (complete_multipartite([2, 3]), 5, ((0, 2),)),
    (MARKED_HEXAGON, 32, ((1, 1), (4, 5))),
], ids=lambda x: getattr(x, "name", None))
def test_witnesses_come_from_pinned_searches(g, searches, pairs,
                                             search_calls):
    ok, witness = is_homogeneous(g)
    assert (ok, witness.pairs) == (False, pairs)
    assert witness.is_valid()
    assert len(search_calls) == searches
    assert all(search_calls)


def test_stabiliser_search_reaches_past_the_default_bound():
    assert is_homogeneous(complete_graph(10), size_limit=10) == (True, None)


if HAVE_HYPOTHESIS:
    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_homogeneity_matches_scan_on_graphs(data):
        n = data.draw(st.integers(min_value=1, max_value=5))
        edges = draw_subset(data, list(combinations(range(n), 2)))
        assert_matches(graph_structure(n, edges), scan_homogeneity,
                       label_homogeneity)

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_homogeneity_matches_scan_on_digraphs_with_loops(data):
        n = data.draw(st.integers(min_value=1, max_value=4))
        pairs = draw_subset(data, list(product(range(n), repeat=2)))
        assert_matches(
            RelStructure(finite_carrier(n), [("R", 2)], {"R": pairs}),
            scan_homogeneity, label_homogeneity)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_homogeneity_matches_scan_on_mixed_signatures(data):
        # every relation is closed under a drawn permutation, which is then
        # an automorphism: random structures are mostly rigid, and their
        # witnesses all have one-point domains
        n = data.draw(st.integers(min_value=1, max_value=4))
        perm = data.draw(st.permutations(range(n)))
        a = draw_structure(data, n, draw_signature(data, [1, 2, 3]))
        closed = {}
        for name, _ in a.signature:
            closed[name] = set()
            for t in a.relations[name]:
                while t not in closed[name]:
                    closed[name].add(t)
                    t = tuple(perm[x] for x in t)
        assert_matches(RelStructure(a.carrier, a.signature, closed),
                       scan_homogeneity, label_homogeneity)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_homogeneity_matches_lookup_on_six_vertex_graphs(data):
        edges = draw_subset(data, list(combinations(range(6), 2)))
        assert_matches(graph_structure(6, edges), lookup_homogeneity,
                       label_homogeneity)


def test_partial_iso_validity():
    c6 = cycle_graph(6)
    assert PartialIso(c6, [(0, 0), (2, 3)]).is_valid()
    assert not PartialIso(c6, [(0, 0), (1, 3)]).is_valid()
    assert not PartialIso(c6, [(0, 0), (1, 0)]).is_valid()


def test_partial_iso_accessors():
    pi = PartialIso(path_graph(3), [(2, 0), (0, 2)])
    assert pi.domain() == [0, 2]
    assert pi.image() == [2, 0]
    assert pi.as_dict() == {0: 2, 2: 0}
    assert pi.to_json() == {"pairs": [[0, 2], [2, 0]]}


# ---------------------------------------------------------------------------
# diagonal uniformity
# ---------------------------------------------------------------------------

def test_is_loopless_finite():
    assert is_loopless(path_graph(3))
    looped = RelStructure(finite_carrier(2), [("R", 2)],
                          {"R": [(0, 0), (0, 1)]})
    assert not is_loopless(looped)
    all_diag = RelStructure(finite_carrier(2), [("R", 2)],
                            {"R": [(0, 0), (1, 1)]})
    assert is_loopless(all_diag)


def test_is_loopless_lazy():
    assert is_loopless(rationals_order())
    assert is_loopless(rado_graph())


# ---------------------------------------------------------------------------
# the bit-adjacency graph
# ---------------------------------------------------------------------------

def test_rado_adjacency_small_values():
    assert rado_adjacency(0, 1)
    assert not rado_adjacency(0, 2)
    assert rado_adjacency(1, 2)
    assert rado_adjacency(1, 3)
    assert not rado_adjacency(0, 4)
    assert rado_adjacency(2, 4)


def test_rado_adjacency_is_symmetric():
    for i in range(8):
        for j in range(8):
            if i != j:
                assert rado_adjacency(i, j) == rado_adjacency(j, i)


def test_rado_adjacency_rejects_bad_input():
    with pytest.raises(ValueError):
        rado_adjacency(3, 3)
    with pytest.raises(ValueError):
        rado_adjacency(-1, 2)
    with pytest.raises(ValueError):
        rado_adjacency(True, 2)


def test_rado_extension_witness_small_case():
    w = rado_extension_witness({0, 2}, {1})
    assert w == 13
    assert rado_adjacency(w, 0)
    assert rado_adjacency(w, 2)
    assert not rado_adjacency(w, 1)


def test_rado_extension_witness_edge_cases():
    assert rado_extension_witness(set(), set()) == 1
    w = rado_extension_witness(set(), {0, 1})
    assert not rado_adjacency(w, 0)
    assert not rado_adjacency(w, 1)
    with pytest.raises(ValueError):
        rado_extension_witness({1}, {1})
    with pytest.raises(ValueError):
        rado_extension_witness({-2}, set())


if HAVE_HYPOTHESIS:
    @given(st.sets(st.integers(min_value=0, max_value=24), max_size=6),
           st.sets(st.integers(min_value=0, max_value=24), max_size=6))
    @settings(max_examples=120, deadline=None)
    def test_rado_extension_witness_property(u, v):
        v = v - u
        w = rado_extension_witness(u, v)
        assert w not in u | v
        for x in u:
            assert rado_adjacency(w, x)
        for x in v:
            assert not rado_adjacency(w, x)


# ---------------------------------------------------------------------------
# catalog and JSON
# ---------------------------------------------------------------------------

def test_catalog_members():
    q = catalog("rationals-order")
    assert q.carrier == RATIONALS
    assert q.related("lt", Fraction(-1, 2), Fraction(1, 3))
    r = catalog("rado")
    assert r.carrier == RADO
    assert r.related("E", 0, 1)
    assert not r.related("E", 5, 5)
    with pytest.raises(ValueError):
        catalog("pentagon")


def test_structure_json_round_trip():
    p4 = path_graph(4)
    data = structure_to_json(p4)
    assert data["signature"] == [{"name": "E", "arity": 2}]
    assert json.loads(json.dumps(data)) == data
    assert structure_from_json(data) == p4
    assert structure_from_json(data).name == "path-4"


@pytest.mark.parametrize("name", [[1, 2], 7, True, {"a": 1}])
def test_a_json_structure_name_must_be_a_string(name):
    data = dict(structure_to_json(path_graph(2)), name=name)
    with pytest.raises(ValueError,
                       match="^structure name must be a string, got "):
        structure_from_json(data)
    data["name"] = None
    assert structure_from_json(data).name is None


def test_identity_is_always_an_endomorphism():
    for g in FAMILIES:
        assert identity_op(g.carrier).table in \
            {op.table for op in end_monoid(g).ops}
