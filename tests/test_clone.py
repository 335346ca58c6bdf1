"""Clone fragment layer.

Hand-derived expectations used below:

* the fragment generated by AND at arity bound 2 is {identity} at arity 1
  and {AND, first projection, second projection} at arity 2, since
  AND(x, x) = x collapses every other composition;
* the fragment generated by XOR adds the constant-0 map at both arities
  because XOR(x, x) = 0;
* AND and NOT generate all 4 unary and all 16 binary operations;
* conjugating AND by the swap of {0,1} gives OR (de Morgan, checked by
  truth table);
* the two-element fragment {identity, NOT} admits exactly two
  endomorphisms (NOT can go to NOT or collapse to the identity), and
  {identity, c0} maps to {identity, c1} in exactly two ways.
"""

import itertools
import random
from typing import Dict, List, Optional

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from clonelab import clone as clone_module
from clonelab import fnspace as fnspace_module
from clonelab.errors import BudgetExceeded, NotBijective
from clonelab.clone import (
    CloneFragment,
    CloneHom,
    LiftingReport,
    _generators,
    close_fragment,
    composition_identities,
    conjugate_fragment,
    enumerate_clone_homs,
    fragment_from_json,
    fragment_to_json,
    is_closed_within_bound,
    predict_from_unary_part,
    verify_conjugation_lifting,
)
from clonelab.fnspace import (
    Bijection,
    FinOp,
    compose_tables,
    conjugate_op,
    constant_op,
    equal_on_window,
    finite_carrier,
    make_op,
    projection,
    window,
)
from clonelab.monoid import monoid_set
from clonelab.structures import complete_graph, cycle_graph, end_monoid

B2 = finite_carrier(2)

ID2 = make_op(B2, 1, table=[0, 1])
NOT = make_op(B2, 1, table=[1, 0])
C0 = make_op(B2, 1, table=[0, 0])
C1 = make_op(B2, 1, table=[1, 1])
AND = make_op(B2, 2, table=[0, 0, 0, 1])
OR = make_op(B2, 2, table=[0, 1, 1, 1])
XOR = make_op(B2, 2, table=[0, 1, 1, 0])
NAND = make_op(B2, 2, table=[1, 1, 1, 0])
SWAP = Bijection.from_table(B2, [1, 0])
IDENT = Bijection.identity(B2)


def binary_tables(frag):
    return [list(op.table) for op in frag.ops(2)]


def unary_tables(frag):
    return [list(op.table) for op in frag.ops(1)]


# ---------------------------------------------------------------------------
# closure
# ---------------------------------------------------------------------------

def test_and_fragment_contents():
    frag = close_fragment([AND], max_arity=2)
    assert unary_tables(frag) == [[0, 1]]
    assert binary_tables(frag) == [[0, 0, 0, 1], [0, 0, 1, 1], [0, 1, 0, 1]]
    assert frag.contains_projections
    assert frag.closed_within_bound


def test_xor_fragment_contents():
    frag = close_fragment([XOR], max_arity=2)
    assert unary_tables(frag) == [[0, 0], [0, 1]]
    assert binary_tables(frag) == [
        [0, 0, 0, 0], [0, 0, 1, 1], [0, 1, 0, 1], [0, 1, 1, 0]]


def test_not_and_generate_everything_within_bound_two():
    frag = close_fragment([NOT, AND], max_arity=2)
    assert len(frag.ops(1)) == 4
    assert len(frag.ops(2)) == 16


def test_closure_flag_cross_checked():
    frag = close_fragment([XOR], max_arity=2)
    assert is_closed_within_bound(frag)


def test_unary_only_bound():
    frag = close_fragment([NOT], max_arity=1)
    assert unary_tables(frag) == [[0, 1], [1, 0]]
    assert frag.arities() == [1]


def test_nullary_generator_spawns_constants():
    one = constant_op(B2, 1)
    frag = close_fragment([one], max_arity=2)
    assert [list(op.table) for op in frag.ops(0)] == [[1]]
    assert [1, 1] in unary_tables(frag)
    assert [1, 1, 1, 1] in binary_tables(frag)


def test_generator_arity_above_bound_rejected():
    with pytest.raises(ValueError):
        close_fragment([AND], max_arity=1)


def test_op_cap_enforced():
    with pytest.raises(BudgetExceeded):
        close_fragment([NOT, AND], max_arity=2, op_cap=10)


def test_op_cap_boundary():
    # NOT and AND give 4 unary and 16 binary operations
    assert close_fragment([NOT, AND], max_arity=2, op_cap=16).op_count() == 20
    with pytest.raises(BudgetExceeded, match="exceeded 15 operations at arity 2"):
        close_fragment([NOT, AND], max_arity=2, op_cap=15)


def test_op_cap_names_the_lowest_overflowing_arity():
    # both levels pass the cap; the arities are closed in increasing order
    with pytest.raises(BudgetExceeded, match="exceeded 3 operations at arity 1$"):
        close_fragment([NOT, AND], max_arity=2, op_cap=3)


def test_ternary_lattice_closure():
    """{min, max} on the 3-chain: the lattice terms in x, y are x, y,
    min and max, and in three variables the 18 elements of the free
    distributive lattice on three generators, all distinct on the
    3-chain."""
    c3 = finite_carrier(3)
    lo = make_op(c3, 2, table=[min(a, b) for a, b in itertools.product(
        range(3), repeat=2)], label="min")
    hi = make_op(c3, 2, table=[max(a, b) for a, b in itertools.product(
        range(3), repeat=2)], label="max")
    frag = close_fragment([lo, hi], max_arity=3)
    assert {n: len(frag.ops(n)) for n in frag.arities()} == {1: 1, 2: 4, 3: 18}
    assert frag.member(2, lo.table).label == "min"
    assert frag.member(2, hi.table).label == "max"
    for n in (1, 2, 3):
        for i in range(1, n + 1):
            e = projection(c3, n, i)
            assert frag.member(n, e.table).label == e.label
    assert is_closed_within_bound(frag)


def everything_with_everything(gens, max_arity):
    """Slow oracle for the closure: per arity, the tables reached by
    composing every member with every member, evaluated pointwise,
    until nothing new appears."""
    levels = {n: set() for n in range(max_arity + 1)}
    for n in range(1, max_arity + 1):
        levels[n].update(projection(B2, n, i).table for i in range(1, n + 1))
    for g in gens:
        levels[g.arity].add(g.table)
    while True:
        found = False
        ops = {n: [make_op(B2, n, table=t) for t in level]
               for n, level in levels.items()}
        for n, outers in ops.items():
            for f in outers:
                for m in levels:
                    for gs in itertools.product(ops[m], repeat=n):
                        table = tuple(
                            f(*(g(*args) for g in gs))
                            for args in itertools.product(range(2), repeat=m))
                        if table not in levels[m]:
                            levels[m].add(table)
                            found = True
        if not found:
            return {n: sorted(level) for n, level in levels.items() if level}


@given(st.lists(st.integers(min_value=0, max_value=2).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(
        st.integers(0, 1), min_size=2 ** n, max_size=2 ** n))),
    min_size=1, max_size=2))
@example(raw=[(2, [0, 0, 1, 0])])  # x and not y: order of arguments matters
@settings(max_examples=30, deadline=None)
def test_closure_matches_composing_everything_with_everything(raw):
    gens = [make_op(B2, n, table=t) for n, t in raw]
    frag = close_fragment(gens, max_arity=2)
    got = {n: sorted(op.table for op in frag.ops(n)) for n in frag.arities()}
    assert got == everything_with_everything(gens, 2)
    assert is_closed_within_bound(frag)


# ---------------------------------------------------------------------------
# conjugation of single operations and whole fragments
# ---------------------------------------------------------------------------

def test_conjugating_and_by_swap_gives_or():
    assert conjugate_op(SWAP, AND) == OR
    assert conjugate_op(SWAP, OR) == AND


def test_conjugation_by_identity_is_identity():
    for op in (AND, OR, XOR, NOT, C0):
        assert conjugate_op(IDENT, op) == op


def test_double_conjugation_returns_the_original():
    for i in range(16):
        table = [(i >> k) & 1 for k in (3, 2, 1, 0)]
        op = make_op(B2, 2, table=table)
        assert conjugate_op(SWAP, conjugate_op(SWAP, op)) == op


def test_conjugation_fixes_projections():
    for n in (1, 2, 3):
        for i in range(1, n + 1):
            e = projection(B2, n, i)
            assert conjugate_op(SWAP, e) == e


def test_conjugation_needs_a_bijection():
    with pytest.raises(NotBijective):
        conjugate_op(C0, AND)


def test_conjugation_carries_windows_to_image_windows():
    # agreement on J maps exactly to agreement on theta[J]
    ops = [make_op(B2, 2, table=[(i >> k) & 1 for k in (3, 2, 1, 0)])
           for i in range(16)]
    for pts in ([0], [1], [0, 1]):
        j = window(B2, pts)
        j_img = window(B2, [SWAP(p) for p in pts])
        for f1, f2 in itertools.combinations(ops, 2):
            lhs = equal_on_window(f1, f2, j)
            rhs = equal_on_window(conjugate_op(SWAP, f1),
                                  conjugate_op(SWAP, f2), j_img)
            assert lhs == rhs


def test_conjugate_fragment_of_and_is_or_fragment():
    frag = close_fragment([AND], max_arity=2)
    assert conjugate_fragment(frag, SWAP) == close_fragment([OR], max_arity=2)


def test_conjugate_fragment_is_involutive_under_swap():
    frag = close_fragment([XOR, C1], max_arity=2)
    assert conjugate_fragment(conjugate_fragment(frag, SWAP), SWAP) == frag


# ---------------------------------------------------------------------------
# the two computation routes to a lifted value
# ---------------------------------------------------------------------------

def test_predicted_value_matches_conjugation_on_swap_monoid():
    unary = monoid_set(B2, [ID2, NOT])
    lifted = conjugate_op(SWAP, AND)  # = OR
    for targets in itertools.product((0, 1), repeat=2):
        predicted = predict_from_unary_part(SWAP, unary, AND, targets)
        assert predicted == lifted(*targets)


def test_predicted_value_on_constants_monoid():
    unary = monoid_set(B2, [ID2, C0, C1])
    assert predict_from_unary_part(IDENT, unary, AND, (1, 1)) == 1
    assert predict_from_unary_part(IDENT, unary, AND, (1, 0)) == 0


def test_predicted_value_for_nullary_ops():
    one = constant_op(B2, 1)
    assert predict_from_unary_part(SWAP, monoid_set(B2, [ID2]), one, ()) == 0


def test_prediction_needs_directedness_for_the_pulled_back_targets():
    with pytest.raises(ValueError):
        predict_from_unary_part(IDENT, monoid_set(B2, [ID2]), AND, (0, 1))


def test_two_routes_agree_on_random_instances():
    rng = random.Random(2024)
    for _ in range(120):
        size = rng.choice((2, 3))
        carrier = finite_carrier(size)
        perm = list(range(size))
        rng.shuffle(perm)
        theta = Bijection.from_table(carrier, perm)
        # build a weakly directed unary part: identity plus constants
        # reaches every target from any ancestor
        unary_ops = [make_op(carrier, 1, table=list(range(size)))]
        unary_ops += [make_op(carrier, 1, table=[v] * size) for v in range(size)]
        for _ in range(rng.randrange(3)):
            unary_ops.append(make_op(
                carrier, 1, table=[rng.randrange(size) for _ in range(size)]))
        unary = monoid_set(carrier, unary_ops)
        arity = rng.choice((1, 2, 3))
        h = make_op(carrier, arity,
                    table=[rng.randrange(size) for _ in range(size ** arity)])
        targets = tuple(rng.randrange(size) for _ in range(arity))
        predicted = predict_from_unary_part(theta, unary, h, targets)
        assert predicted == conjugate_op(theta, h)(*targets)


# ---------------------------------------------------------------------------
# fragment homomorphisms
# ---------------------------------------------------------------------------

def test_conjugation_hom_is_a_surjective_homomorphism():
    frag = close_fragment([NOT, AND], max_arity=2)
    xi = CloneHom.conjugation(frag, SWAP)
    assert xi.is_homomorphism()
    assert xi.is_surjective()
    assert xi.is_injective()
    assert xi.is_conjugation_by(SWAP)
    assert not xi.is_conjugation_by(IDENT)


def test_hom_mapping_must_cover_the_source():
    frag = close_fragment([NOT], max_arity=1)
    with pytest.raises(ValueError):
        CloneHom(frag, frag, {ID2: ID2})


def test_enumerate_homs_of_swap_fragment():
    frag = close_fragment([NOT], max_arity=1)
    homs = enumerate_clone_homs(frag, frag)
    assert len(homs) == 2
    images = sorted(h.image(NOT).table for h in homs)
    assert images == [(0, 1), (1, 0)]
    assert [h.is_surjective() for h in homs].count(True) == 1


def test_enumerate_homs_between_constant_fragments():
    src = close_fragment([C0], max_arity=1)
    dst = close_fragment([C1], max_arity=1)
    homs = enumerate_clone_homs(src, dst)
    assert len(homs) == 2
    images = sorted(h.image(C0).table for h in homs)
    assert images == [(0, 1), (1, 1)]


def test_enumerate_homs_from_and_fragment_to_itself():
    frag = close_fragment([AND], max_arity=2)
    homs = enumerate_clone_homs(frag, frag)
    assert len(homs) == 1
    assert homs[0].image(AND) == AND


def test_enumerate_homs_from_and_to_or_fragment():
    src = close_fragment([AND], max_arity=2)
    dst = close_fragment([OR], max_arity=2)
    homs = enumerate_clone_homs(src, dst)
    assert len(homs) == 1
    xi = homs[0]
    assert xi.image(AND) == OR
    assert xi.is_surjective()
    assert xi.is_conjugation_by(SWAP)


def test_enumerated_homs_all_pass_the_homomorphism_check():
    frag = close_fragment([XOR], max_arity=2)
    homs = enumerate_clone_homs(frag, frag)
    assert homs
    for xi in homs:
        assert xi.is_homomorphism()


def test_missing_target_projection_means_no_homs():
    src = close_fragment([NOT], max_arity=1)
    bare = CloneFragment(B2, 1, {1: [C0]})
    assert enumerate_clone_homs(src, bare) == []


# ---------------------------------------------------------------------------
# lifting verification
# ---------------------------------------------------------------------------

def test_verify_lifting_happy_path():
    frag = close_fragment([NOT, AND], max_arity=2)
    xi = CloneHom.conjugation(frag, SWAP)
    report = verify_conjugation_lifting(xi, SWAP)
    assert report.hypotheses == {
        "homomorphism": True,
        "surjective_within_bound": True,
        "unary_part_weakly_directed": True,
        "unary_restriction_is_conjugation": True,
    }
    assert report.conclusion == "conjugation-at-every-arity"
    assert report.checked == 20
    assert report.counterexamples == []


def test_verify_lifting_rejects_undirected_unary_part():
    frag = close_fragment([AND], max_arity=2)
    xi = CloneHom.conjugation(frag, IDENT)
    report = verify_conjugation_lifting(xi, IDENT)
    assert report.hypotheses["unary_part_weakly_directed"] is False
    assert report.conclusion == "hypotheses-not-met"
    assert report.checked == 0


def test_verify_lifting_flags_wrong_theta():
    frag = close_fragment([NOT, AND], max_arity=2)
    xi = CloneHom.conjugation(frag, SWAP)
    report = verify_conjugation_lifting(xi, IDENT)
    assert report.hypotheses["unary_restriction_is_conjugation"] is False
    assert report.conclusion == "hypotheses-not-met"


def test_the_lifting_conclusion_is_read_off_hypotheses_and_counterexamples():
    frag = close_fragment([NOT, AND], max_arity=2)
    unmet = close_fragment([AND], max_arity=2)
    reports = [
        verify_conjugation_lifting(CloneHom.conjugation(frag, SWAP), SWAP),
        verify_conjugation_lifting(CloneHom.conjugation(unmet, IDENT), IDENT),
        verify_conjugation_lifting(CloneHom.conjugation(frag, SWAP), IDENT),
        LiftingReport(dict.fromkeys(("homomorphism", "surjective"), True),
                      1, [{"arity": 2}]),
    ]
    for report in reports:
        if not all(report.hypotheses.values()):
            expected = "hypotheses-not-met"
        elif report.counterexamples:
            expected = "counterexamples-found"
        else:
            expected = "conjugation-at-every-arity"
        assert report.conclusion == report.to_json()["conclusion"] == expected
    assert [r.conclusion for r in reports] == [
        "conjugation-at-every-arity", "hypotheses-not-met",
        "hypotheses-not-met", "counterexamples-found"]


def test_report_json_shape():
    frag = close_fragment([NOT, AND], max_arity=2)
    xi = CloneHom.conjugation(frag, SWAP)
    data = verify_conjugation_lifting(xi, SWAP).to_json()
    assert data["conclusion"] == "conjugation-at-every-arity"
    assert data["checked"] == 20
    assert data["counterexamples"] == []
    assert set(data["hypotheses"]) == {
        "homomorphism", "surjective_within_bound",
        "unary_part_weakly_directed", "unary_restriction_is_conjugation"}


# ---------------------------------------------------------------------------
# JSON forms
# ---------------------------------------------------------------------------

def test_fragment_json_round_trip():
    frag = close_fragment([XOR, C1], max_arity=2)
    data = fragment_to_json(frag)
    again = fragment_from_json(data)
    assert again == frag
    assert again.contains_projections


# ---------------------------------------------------------------------------
# homomorphisms on generator identities, against the check and the search
# through every in-bound composition (the exhaustive oracles)
# ---------------------------------------------------------------------------

def respects_every_composition(hom) -> bool:
    """Whether ``hom`` fixes the projections and respects every in-bound
    composition of its source: the exhaustive homomorphism check."""
    src, tgt = hom.source, hom.target
    for n in range(1, src.max_arity + 1):
        for i in range(1, n + 1):
            e = projection(src.carrier, n, i)
            if src.contains(e) and hom.mapping[e] != projection(tgt.carrier, n, i):
                return False
    image = {op: img.table for op, img in hom.mapping.items()}
    members = [op for _, op in src.all_ops()]
    for f, gs, m, table in composition_identities(src, members):
        h = src.member(m, table)
        if h is not None:
            expected = compose_tables(image[f], [image[g] for g in gs],
                                      tgt.carrier.size, m)
            if image[h] != expected:
                return False
    return True


def homs_by_compositions(source, target) -> List[CloneHom]:
    """Every fragment homomorphism, by backtracking over the source
    members in canonical order: the exhaustive search.

    Projections are pinned to projections up front.  All in-bound
    composition identities of the source are precomputed as triples
    (outer, inners, result) and each is checked as soon as the last of its
    participants receives an image, so contradictions prune the search
    immediately.  Images are tried in canonical table order.
    """
    ordered = [op for _, op in source.all_ops()]
    rank = {op: r for r, op in enumerate(ordered)}
    count = len(ordered)

    # pinned projection images; bail out early if the target lacks one
    pinned: Dict[int, FinOp] = {}
    for n in range(1, source.max_arity + 1):
        for i in range(1, n + 1):
            e = projection(source.carrier, n, i)
            if source.contains(e):
                e_t = projection(target.carrier, n, i)
                if not target.contains(e_t):
                    return []
                pinned[rank[e]] = e_t

    # composition triples, indexed by the latest participant rank
    fire_at: List[List[tuple]] = [[] for _ in range(count)]
    for f, gs, m, table in composition_identities(source, ordered):
        h = source.member(m, table)
        if h is not None:
            g_rs = tuple(rank[g] for g in gs)
            fire_at[max(rank[f], rank[h], *g_rs)].append((rank[f], g_rs, rank[h], m))

    size = target.carrier.size
    comp_cache: Dict[tuple, tuple] = {}

    def target_compose(f_img: FinOp, g_imgs, m: int):
        key = (f_img.table, tuple(g.table for g in g_imgs), m)
        if key not in comp_cache:
            comp_cache[key] = compose_tables(key[0], key[1], size, m)
        return comp_cache[key]

    assignment: List[Optional[FinOp]] = [None] * count
    results: List[CloneHom] = []

    def consistent_at(r: int) -> bool:
        for f_r, g_rs, h_r, m in fire_at[r]:
            composed = target_compose(assignment[f_r],
                                      [assignment[g] for g in g_rs], m)
            if composed != assignment[h_r].table:
                return False
        return True

    def extend(r: int):
        if r == count:
            mapping = {op: assignment[rank[op]] for op in ordered}
            results.append(CloneHom(source, target, mapping))
            return
        op = ordered[r]
        if r in pinned:
            candidates = (pinned[r],)
        else:
            candidates = target.ops(op.arity)
        for cand in candidates:
            assignment[r] = cand
            if consistent_at(r):
                extend(r + 1)
        assignment[r] = None

    extend(0)
    return results


MIN3 = tuple(min(a, b) for a in range(3) for b in range(3))
MAX3 = tuple(max(a, b) for a in range(3) for b in range(3))
B3 = finite_carrier(3)
KLEENE_GENS = [make_op(B3, 2, table=MIN3), make_op(B3, 1, table=[2, 1, 0])]


def as_tables(frag):
    """The same fragment given by its tables alone (the CLI ``ops``
    form), so its generators are found by the greedy search."""
    return fragment_from_json(fragment_to_json(frag))


def index_maps(homs):
    return [h.as_index_map() for h in homs]


def agrees_with_exhaustive_search(source, target):
    homs = enumerate_clone_homs(source, target)
    assert index_maps(homs) == index_maps(homs_by_compositions(source, target))
    for hom in homs:
        assert hom.is_homomorphism()
        assert respects_every_composition(hom)
    return homs


@st.composite
def fragment_specs(draw, size):
    """(size, max_arity, generators, form) of a small fragment: given by
    its generators, by its tables, or by its tables less the last one
    (most often not closed).  Binary generators on three points come
    from a few semilattice tables, since random ones generate thousands
    of operations."""
    max_arity = draw(st.sampled_from((1, 2)))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(0, max_arity))
        if size == 3 and n == 2:
            table = draw(st.sampled_from((MIN3, MAX3)))
        else:
            table = tuple(draw(st.lists(st.integers(0, size - 1),
                                        min_size=size ** n,
                                        max_size=size ** n)))
        gens.append((n, table))
    form = draw(st.sampled_from(("generators", "tables", "open")))
    return size, max_arity, tuple(gens), form


def fragment_of(spec):
    size, max_arity, gens, form = spec
    carrier = finite_carrier(size)
    try:
        frag = close_fragment([make_op(carrier, n, table=t) for n, t in gens],
                              max_arity=max_arity, op_cap=48)
    except BudgetExceeded:
        reject()
    if form == "open":
        if frag.op_count() < 2:
            reject()
        last = list(frag.all_ops())[-1]
        return CloneFragment(carrier, max_arity, {
            n: [op for op in frag.ops(n) if (n, op) != last]
            for n in frag.arities()})
    return as_tables(frag) if form == "tables" else frag


NOT_AND = (2, 2, ((1, (1, 0)), (2, (0, 0, 0, 1))), "generators")
# the constant 1 and negation: the constant liftings of the nullary
# generator are forced by the identities whose outer operation it is
ONE_NOT = (2, 1, ((0, (1,)), (1, (1, 0))), "generators")


@given(spec=st.sampled_from((2, 3)).flatmap(fragment_specs),
       wrong=st.none() | st.tuples(st.integers(0, 999), st.integers(0, 999)))
# the identity of {not, and} except that OR (canonical position 4 + 7, not
# a generator) goes to AND (position 1 of the binary level)
@example(spec=NOT_AND, wrong=(11, 1))
# the identity of the fragment of the constant 1 except that its unary
# lifting (position 2) goes to the identity: only the identity whose
# outer operation is the nullary generator tells
@example(spec=(2, 1, ((0, (1,)),), "generators"), wrong=(2, 0))
@settings(max_examples=90, deadline=None)
def test_is_homomorphism_agrees_with_the_exhaustive_check(spec, wrong):
    frag = fragment_of(spec)
    mapping = {op: op for _, op in frag.all_ops()}
    if wrong is not None:
        ordered = list(frag.all_ops())
        n, op = ordered[wrong[0] % len(ordered)]
        mapping[op] = frag.ops(n)[wrong[1] % len(frag.ops(n))]
    xi = CloneHom(frag, frag, mapping)
    assert xi.is_homomorphism() == respects_every_composition(xi)
    if spec == NOT_AND and wrong == (11, 1):
        assert not xi.is_homomorphism()


@given(specs=st.sampled_from((2, 3)).flatmap(
    lambda size: st.tuples(fragment_specs(size), fragment_specs(size))))
@example(specs=(ONE_NOT, ONE_NOT))
# the target lacks the binary constant 1, the image forced on it once not
# and and go to themselves
@example(specs=(NOT_AND, NOT_AND[:3] + ("open",)))
@settings(max_examples=90, deadline=None)
def test_enumeration_agrees_with_the_exhaustive_search(specs):
    agrees_with_exhaustive_search(*map(fragment_of, specs))


def test_enumeration_on_the_acceptance_sweep_given_as_tables():
    unary = ([0, 1], [1, 0], [0, 0], [1, 1])
    binary = ([0, 0, 0, 1], [0, 1, 1, 1], [0, 1, 1, 0], [1, 1, 1, 0])
    frags = {}
    for r in range(len(unary) + 1):
        for combo in itertools.combinations(unary, r):
            for b in binary:
                gens = [make_op(B2, 1, table=u) for u in combo]
                frag = close_fragment(gens + [make_op(B2, 2, table=b)],
                                      max_arity=2)
                frags.setdefault(frag.signature(), as_tables(frag))
    count = 0
    for source in frags.values():
        for target in frags.values():
            count += len(agrees_with_exhaustive_search(source, target))
    assert (len(frags), count) == (11, 68)


def test_close_fragment_records_its_generators_outside_equality():
    frag = close_fragment([NOT, AND, NOT], max_arity=2)
    assert frag.generators == (NOT, AND)
    again = as_tables(frag)
    assert again.generators is None and again == frag


def test_greedy_generators_of_fragments_given_as_tables():
    frag = as_tables(close_fragment([NOT, AND], max_arity=2))
    assert frag.closed_within_bound is None
    # the greedy pass picks the constant 0 first, then not and and,
    # which generate it as and(x, not x)
    assert [op.table for op in _generators(frag)] == [(1, 0), (0, 0, 0, 1)]
    assert frag.closed_within_bound is True
    kleene = as_tables(close_fragment(KLEENE_GENS, max_arity=2))
    assert (kleene.op_count(), len(_generators(kleene))) == (86, 2)


def test_the_homomorphism_check_walks_only_generator_identities(monkeypatch):
    """{not, and} at arity bound 3 has 4 + 16 + 256 members of arity 1 to
    3: 276 identities with not outer and 16 + 256 + 256 ** 2 = 65,808
    with and outer, where every in-bound identity would be about
    4.3 * 10 ** 9.  The count stops a regression before it hangs."""
    frag = close_fragment([NOT, AND], max_arity=3)
    counts = {NOT.table: 0, AND.table: 0}

    def counted(frag, outer):
        for identity in composition_identities(frag, outer):
            counts[identity[0].table] += 1
            assert sum(counts.values()) <= 66084
            yield identity

    monkeypatch.setattr(clone_module, "composition_identities", counted)
    assert CloneHom.conjugation(frag, SWAP).is_homomorphism()
    assert counts == {NOT.table: 276, AND.table: 65808}


def test_sources_that_are_not_closed_or_lack_projections_fall_back():
    closed = close_fragment([NOT, AND], max_arity=2)
    target = as_tables(closed)
    open_ = CloneFragment(B2, 2, {1: [ID2, NOT], 2: closed.ops(2)})
    bare = CloneFragment(B2, 2, {1: [NOT, C0], 2: [AND, OR]})
    assert _generators(open_) is None and open_.closed_within_bound is False
    assert _generators(bare) is None and not bare.contains_projections
    for source in (open_, bare):
        assert agrees_with_exhaustive_search(source, target)


def test_kleene_homs_from_recorded_and_found_generators():
    frag = close_fragment(KLEENE_GENS, max_arity=2)
    for source in (frag, as_tables(frag)):
        assert len(enumerate_clone_homs(source, source)) == 2


def test_the_search_places_each_member_when_it_is_chosen_or_forced(monkeypatch):
    """Table compositions per enumeration, the closures of the kernel
    included, with the generators settled first.  Each member is placed
    right after the free member whose placement forces it, and the search
    closes a level again: 58,350, 28,908, 28,500 and 264,572
    compositions when every generator was placed before any member they
    force, each level closed once more to find that order."""
    def listing(graph):
        return as_tables(close_fragment(end_monoid(graph).ops, max_arity=1))

    sources = {
        "End(K4)": listing(complete_graph(4)),
        "End(C4)": listing(cycle_graph(4)),
        "Kleene": close_fragment(KLEENE_GENS, max_arity=2),
        "not-and": close_fragment([NOT, AND], max_arity=3),
    }
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return compose_tables(*args)

    monkeypatch.setattr(clone_module, "compose_tables", counted)
    monkeypatch.setattr(fnspace_module, "compose_tables", counted)
    found = {}
    for name, source in sources.items():
        _generators(source)
        calls[0] = 0
        homs = enumerate_clone_homs(source, source)
        found[name] = (len(homs), calls[0])
    assert found == {"End(K4)": (58, 9000), "End(C4)": (38, 7444),
                     "Kleene": (2, 21430), "not-and": (2, 198350)}


def test_a_search_deeper_than_the_recursion_limit():
    """The full transformation monoid on 5 points has 3,125 members,
    more than Python's default recursion limit, and its one hom onto the
    identity alone places them all along one path of the search."""
    c5 = finite_carrier(5)
    t5 = close_fragment([make_op(c5, 1, table=t) for t in (
        [1, 2, 3, 4, 0], [1, 0, 2, 3, 4], [0, 0, 2, 3, 4])],
        max_arity=1, op_cap=3125)
    identity = close_fragment([projection(c5, 1, 1)], max_arity=1)
    homs = enumerate_clone_homs(t5, identity)
    assert t5.op_count() == 3125
    assert [set(hom.mapping.values()) for hom in homs] == [set(identity.ops(1))]
