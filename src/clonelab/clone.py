"""Clone fragments and conjugation lifting.

A clone fragment is the arity-bounded part of a clone: for each arity up
to a bound, a set of operations containing the projections and closed
under every composition whose result stays within the bound.  Fragments
here live on finite carriers and are fully extensional, which keeps every
question below decidable by finite search.

The central fact the module verifies computationally: a surjective
fragment homomorphism whose unary part acts on a weakly directed set and
restricts to conjugation by a bijection theta is conjugation by theta at
every arity.  The proof is constructive and short, and
:func:`predict_from_unary_part` walks it: to find the image of h at a
target tuple y, pull y back through theta, pick a common ancestor c with
unary witnesses g_i, form the unary map f = h(g_1, ..., g_n), and read off
theta(f(c)).  Comparing that prediction with direct conjugation by theta
(:func:`~clonelab.fnspace.conjugate_op`) gives a two-path consistency
check with no shared code between the paths.

Fragment homomorphisms are decided and enumerated from generators: a
homomorphism out of a closed fragment that contains the projections is
fixed by where it sends a generating set, and its graph at arity m is
the set of pairs generated from the projection pairs by the generators
applied on both sides at once (a map on generators extends iff it
respects the generated structure; Bergman, *Universal Algebra*, 2012).
:meth:`CloneHom.is_homomorphism` compares that graph with the mapping,
and :func:`enumerate_clone_homs` searches over generator images, which is
how it confirms that no homomorphism escapes the conjugation
description.  Other sources are searched through every in-bound
composition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import product
from typing import Dict, Iterable, List, Optional, Tuple

from .errors import BudgetExceeded
from .fnspace import (
    Carrier,
    FinOp,
    as_bijection,
    carrier_from_json,
    carrier_to_json,
    close_tables,
    compose,
    compose_tables,
    conjugate_op,
    finite_carrier,
    make_op,
    projection,
    tuple_to_index,
)
from .monoid import MonoidSet, is_weakly_directed, monoid_set, weakly_directed_witnesses


class CloneFragment:
    """Operations of arity <= max_arity on a finite carrier, grouped and
    canonically sorted by arity.

    ``contains_projections`` says whether every projection of every arity
    1..max_arity is present; ``closed_within_bound`` whether every
    composition staying inside the bound lands in the fragment, None
    while unknown.  ``generators``, when known, generate the fragment.
    The projection flag is computed from scratch, and the others are
    None, unless supplied by a builder that guarantees them; the
    homomorphism checks fill in the closure flag and the generators of a
    fragment that contains the projections.  None of them takes part in
    equality.
    """

    __slots__ = ("carrier", "max_arity", "ops_by_arity", "_members",
                 "contains_projections", "closed_within_bound", "generators")

    def __init__(self, carrier: Carrier, max_arity: int,
                 ops_by_arity: Dict[int, Iterable[FinOp]],
                 contains_projections: Optional[bool] = None,
                 closed_within_bound: Optional[bool] = None,
                 generators: Optional[Tuple[FinOp, ...]] = None):
        carrier.require_finite()
        if max_arity < 1:
            raise ValueError("max_arity must be at least 1")
        self.carrier = carrier
        self.max_arity = max_arity
        grouped: Dict[int, Tuple[FinOp, ...]] = {}
        for arity, ops in ops_by_arity.items():
            if arity > max_arity:
                raise ValueError(f"arity {arity} exceeds the bound {max_arity}")
            unique = {}
            for op in ops:
                if op.arity != arity:
                    raise ValueError("operation filed under the wrong arity")
                if op.carrier != carrier:
                    raise ValueError("operations must share the carrier")
                unique[op.table] = op
            if unique:
                grouped[arity] = tuple(sorted(unique.values(), key=lambda o: o.table))
        self.ops_by_arity = grouped
        self._members = {(n, op.table): op
                         for n, level in grouped.items() for op in level}
        if contains_projections is None:
            contains_projections = all(
                projection(carrier, n, i) in self.ops(n)
                for n in range(1, max_arity + 1)
                for i in range(1, n + 1)
            )
        self.contains_projections = contains_projections
        self.closed_within_bound = closed_within_bound
        self.generators = generators

    def arities(self) -> List[int]:
        return sorted(self.ops_by_arity)

    def ops(self, arity: int) -> Tuple[FinOp, ...]:
        return self.ops_by_arity.get(arity, ())

    def all_ops(self):
        """(arity, op) pairs in canonical order."""
        for arity in self.arities():
            for op in self.ops_by_arity[arity]:
                yield arity, op

    def op_count(self) -> int:
        return sum(len(v) for v in self.ops_by_arity.values())

    def contains(self, op: FinOp) -> bool:
        return (op.carrier == self.carrier
                and self.member(op.arity, op.table) is not None)

    def member(self, arity: int, table) -> Optional[FinOp]:
        """The member with this value table, or None."""
        return self._members.get((arity, table))

    def unary_monoid(self) -> MonoidSet:
        return monoid_set(self.carrier, self.ops(1))

    def signature(self):
        return (self.carrier, self.max_arity,
                tuple((n, tuple(op.table for op in self.ops_by_arity[n]))
                      for n in self.arities()))

    def __eq__(self, other):
        if not isinstance(other, CloneFragment):
            return NotImplemented
        return self.signature() == other.signature()

    def __hash__(self):
        return hash(self.signature())

    def __repr__(self):
        counts = {n: len(v) for n, v in sorted(self.ops_by_arity.items())}
        return f"CloneFragment(size={self.carrier.size}, ops={counts})"


# ---------------------------------------------------------------------------
# closure
# ---------------------------------------------------------------------------

def close_fragment(gens: Iterable[FinOp], max_arity: int = 3,
                   op_cap: int = 512) -> CloneFragment:
    """The smallest fragment containing the generators.

    Its m-ary part is the closure of the m projections under the
    generators alone (the subpower closure of Freese, Kiss and Valeriote,
    as in UACalc): an m-ary term is a projection or a generator applied
    to m-ary terms, so no other member is needed as an outer function.
    Each arity in 0..max_arity is closed in turn by
    :func:`~clonelab.fnspace.close_tables`, seeded with the m
    projections, the generators of arity m and the constant liftings of
    the nullary generators; projections and generators keep their
    labels.  Each arity level is capped at ``op_cap`` operations;
    crossing the cap raises :class:`BudgetExceeded` naming the lowest
    arity that overflows.
    """
    gens = list(gens)
    if not gens:
        raise ValueError("need at least one generator")
    carrier = gens[0].carrier
    carrier.require_finite()
    for g in gens:
        if g.carrier != carrier:
            raise ValueError("generators must share one carrier")
        if g.arity > max_arity:
            raise ValueError(
                f"generator arity {g.arity} exceeds the bound {max_arity}"
            )
    size = carrier.size
    gen_tables = [(g.arity, g.table) for g in gens]
    grouped = {}
    for m in range(0, max_arity + 1):
        # the seeds, table -> label; the first label of a table wins
        labels: Dict[tuple, Optional[str]] = {}
        for e in (projection(carrier, m, i) for i in range(1, m + 1)):
            labels[e.table] = e.label
        for g in gens:
            if g.arity == m:
                labels.setdefault(g.table, g.label)
        for g in gens:
            if g.arity == 0:
                labels.setdefault(g.table * size ** m, None)
        try:
            tables = close_tables(labels, gen_tables, size, m, op_cap)
        except BudgetExceeded:
            raise BudgetExceeded(
                f"fragment closure exceeded {op_cap} operations at arity {m}"
            ) from None
        if tables:
            grouped[m] = tuple(FinOp(carrier, m, table=t, label=labels.get(t))
                               for t in tables)
    return CloneFragment(carrier, max_arity, grouped,
                         contains_projections=True, closed_within_bound=True,
                         generators=tuple(dict.fromkeys(gens)))


def composition_identities(frag: CloneFragment):
    """Every composition of fragment members that stays within the bound.

    Yields ``(f, gs, m, table)``: an n-ary member f, n members gs of
    arity m, and the value table of f(g_1, ..., g_n).  A nullary f
    yields its constant lifting at every arity m in 0..max_arity.  The
    table need not belong to the fragment; look it up with
    :meth:`CloneFragment.member`.
    """
    size = frag.carrier.size
    for n in frag.arities():
        for f in frag.ops(n):
            for m in range(0, frag.max_arity + 1):
                for gs in product(frag.ops(m), repeat=n):
                    yield f, gs, m, compose_tables(
                        f.table, [g.table for g in gs], size, m)


def is_closed_within_bound(frag: CloneFragment) -> bool:
    """Exhaustively confirm the closure flag of a fragment."""
    return all(frag.member(m, table) is not None
               for _, _, m, table in composition_identities(frag))


# ---------------------------------------------------------------------------
# generators and the graphs they generate
# ---------------------------------------------------------------------------

@cache
def _projection_tables(size: int, m: int) -> tuple:
    carrier = finite_carrier(size)
    return tuple(projection(carrier, m, i).table for i in range(1, m + 1))


def _level_seeds(gens, size: int, m: int) -> list:
    """The m-ary seeds of a closure under ``(arity, table)`` generators
    over ``size`` points: the projections, the generators of arity m and
    the constant liftings of the nullary generators."""
    return (list(_projection_tables(size, m))
            + [t for n, t in gens if n == m]
            + [t * size ** m for n, t in gens if n == 0])


def _generating_set(frag: CloneFragment) -> Optional[Tuple[FinOp, ...]]:
    """Generators of a fragment that contains the projections, chosen
    greedily: arity by arity from the lowest, the first member in
    canonical order that the generators so far do not generate is added
    until they generate the level.  None as soon as a closure leaves the
    fragment, which proves it not closed within its bound."""
    size = frag.carrier.size
    gens: List[FinOp] = []

    def close(m: int):
        tables = [(g.arity, g.table) for g in gens]
        return close_tables(_level_seeds(tables, size, m), tables, size, m,
                            len(frag.ops(m)),
                            admit=lambda t: frag.member(m, t) is not None)

    for m in range(frag.max_arity + 1):
        while (found := close(m)) is not None and len(found) < len(frag.ops(m)):
            known = set(found)
            gens.append(next(op for op in frag.ops(m) if op.table not in known))
        if found is None:
            return None
    # a generator added later acts on the lower levels as well
    if any(close(m) is None for m in range(frag.max_arity)):
        return None
    return tuple(gens)


def _generators(frag: CloneFragment) -> Optional[Tuple[FinOp, ...]]:
    """The generators of a closed fragment that contains the projections,
    found by :func:`_generating_set` unless recorded; None for any other
    fragment.  The search settles the closure flag."""
    if not frag.contains_projections or frag.closed_within_bound is False:
        return None
    if frag.generators is None:
        frag.generators = _generating_set(frag)
        frag.closed_within_bound = frag.generators is not None
    return frag.generators


@cache
def _pair_codes(sa: int, sb: int, m: int):
    """Index maps between pairs (f, g) of m-ary tables over sa and sb
    points and m-ary tables over the sa * sb points (a, b) of the
    product, coded a * sb + b.

    Returns ``(both, from_a, from_b)``: product index k reads f at
    ``both[k][0]`` and g at ``both[k][1]``, and ``from_a[i]``
    (``from_b[j]``) is a product index that reads f at i (g at j).
    """
    both = []
    for points in product(range(sa * sb), repeat=m):
        i = j = 0
        for p in points:
            a, b = divmod(p, sb)
            i, j = i * sa + a, j * sb + b
        both.append((i, j))
    from_a = [tuple_to_index([a * sb for a in args], sa * sb)
              for args in product(range(sa), repeat=m)]
    from_b = [tuple_to_index(args, sa * sb)
              for args in product(range(sb), repeat=m)]
    return tuple(both), tuple(from_a), tuple(from_b)


def _pack(n: int, f, g, sa: int, sb: int) -> tuple:
    """The n-ary table of f x g on the product of the two carriers."""
    return tuple(f[i] * sb + g[j] for i, j in _pair_codes(sa, sb, n)[0])


def _graph(packed, sa: int, sb: int, m: int, cap: int, admit):
    """The m-ary pairs (f, g) generated from the projection pairs by the
    ``(arity, table)`` product operations ``packed``, closed as tables
    on the product carrier by :func:`close_tables`, as a dict f -> g.
    None as soon as a pair gives some f a second image or fails
    ``admit(f, g)``.  ``cap`` is the size of the source level, which a
    map cannot exceed."""
    s2 = sa * sb
    _, from_a, from_b = _pair_codes(sa, sb, m)
    graph: Dict[tuple, tuple] = {}

    def add(table) -> bool:
        f = tuple(table[k] // sb for k in from_a)
        g = tuple(table[k] % sb for k in from_b)
        if f in graph or not admit(f, g):
            return False
        graph[f] = g
        return True

    if close_tables(_level_seeds(packed, s2, m), packed, s2, m, cap,
                    admit=add) is None:
        return None
    return graph


# ---------------------------------------------------------------------------
# conjugation
# ---------------------------------------------------------------------------

def conjugate_fragment(frag: CloneFragment, theta) -> CloneFragment:
    """Apply :func:`~clonelab.fnspace.conjugate_op` to every member.
    Projections are fixed by conjugation and compositions are preserved,
    so the flags carry over."""
    theta = as_bijection(theta, frag.carrier)
    grouped = {
        n: tuple(conjugate_op(theta, op) for op in frag.ops(n))
        for n in frag.arities()
    }
    return CloneFragment(frag.carrier, frag.max_arity, grouped,
                         contains_projections=frag.contains_projections,
                         closed_within_bound=frag.closed_within_bound)


def predict_from_unary_part(theta, unary_part, h: FinOp, targets) -> object:
    """Value at ``targets`` of the only possible lift of a unary
    conjugation to h, computed through directedness witnesses.

    Given that some homomorphism sends each unary f to theta f theta^-1,
    its image of h evaluated at y_1, ..., y_n is forced: with
    a_i = theta^-1(y_i), a common ancestor c and witnesses g_i(c) = a_i,
    the unary map f = h(g_1, ..., g_n) must go to its conjugate, and
    evaluating at theta(c) yields theta(f(c)).  This function returns
    theta(f(c)) without ever conjugating h itself, so it is an
    independent second route to the lifted value.

    ``unary_part`` is a MonoidSet (or iterable of unary maps); it must be
    weakly directed enough to supply witnesses for the pulled-back
    targets.
    """
    theta = as_bijection(theta, h.carrier)
    targets = tuple(targets)
    if len(targets) != h.arity:
        raise ValueError(f"expected {h.arity} targets, got {len(targets)}")
    if h.arity == 0:
        return theta(h())
    if not isinstance(unary_part, MonoidSet):
        unary_part = monoid_set(h.carrier, unary_part)
    pulled = tuple(theta.inverse(y) for y in targets)
    c, gs = weakly_directed_witnesses(unary_part, pulled)
    f = compose(h, gs)
    return theta(f(c))


# ---------------------------------------------------------------------------
# fragment homomorphisms
# ---------------------------------------------------------------------------

class CloneHom:
    """An arity-preserving map between two fragments.

    The mapping is stored op-by-op.  ``is_homomorphism`` decides the
    projection and composition conditions within the arity bound;
    ``is_conjugation_by`` compares against direct conjugation.
    """

    __slots__ = ("source", "target", "mapping", "mode", "theta")

    def __init__(self, source: CloneFragment, target: CloneFragment,
                 mapping: Dict[FinOp, FinOp], mode: str = "explicit",
                 theta=None):
        self.source = source
        self.target = target
        self.mapping = dict(mapping)
        self.mode = mode
        self.theta = theta
        for _, op in source.all_ops():
            image = self.mapping.get(op)
            if image is None:
                raise ValueError(f"mapping misses {op!r}")
            if image.arity != op.arity:
                raise ValueError("mapping must preserve arity")
            if not target.contains(image):
                raise ValueError(f"image {image!r} is outside the target fragment")

    @classmethod
    def conjugation(cls, source: CloneFragment, theta,
                    target: Optional[CloneFragment] = None) -> "CloneHom":
        theta = as_bijection(theta, source.carrier)
        mapping = {op: conjugate_op(theta, op) for _, op in source.all_ops()}
        if target is None:
            target = conjugate_fragment(source, theta)
        return cls(source, target, mapping, mode="conjugation", theta=theta)

    def image(self, op: FinOp) -> FinOp:
        return self.mapping[op]

    def is_homomorphism(self) -> bool:
        """Whether the mapping sends projections to projections and
        respects every composition that stays within the bound.

        For a closed source that contains the projections, this compares
        the mapping at every arity m with the graph generated by the
        images of the source generators (:func:`_graph`), stopping at the
        first generated pair the mapping disagrees with.  Any other
        source is checked on every in-bound composition.
        """
        src = self.source
        gens = _generators(src)
        if gens is None:
            return self._respects_every_composition()
        sa, sb = src.carrier.size, self.target.carrier.size
        packed = [(g.arity, _pack(g.arity, g.table, self.mapping[g].table,
                                  sa, sb)) for g in gens]
        for m in range(src.max_arity + 1):
            image = {op.table: self.mapping[op].table for op in src.ops(m)}
            if _graph(packed, sa, sb, m, len(image),
                      lambda f, g: image[f] == g) is None:
                return False
        return True

    def _respects_every_composition(self) -> bool:
        src, tgt = self.source, self.target
        for n in range(1, src.max_arity + 1):
            for i in range(1, n + 1):
                e = projection(src.carrier, n, i)
                if src.contains(e) and self.mapping[e] != projection(tgt.carrier, n, i):
                    return False
        image = {op: img.table for op, img in self.mapping.items()}
        for f, gs, m, table in composition_identities(src):
            h = src.member(m, table)
            if h is not None:
                expected = compose_tables(image[f], [image[g] for g in gs],
                                          tgt.carrier.size, m)
                if image[h] != expected:
                    return False
        return True

    def is_surjective(self) -> bool:
        for n in self.target.arities():
            images = {self.mapping[op] for op in self.source.ops(n)}
            if images != set(self.target.ops(n)):
                return False
        return True

    def is_injective(self) -> bool:
        for n in self.source.arities():
            images = {self.mapping[op] for op in self.source.ops(n)}
            if len(images) != len(self.source.ops(n)):
                return False
        return True

    def is_conjugation_by(self, theta, unary_only: bool = False) -> bool:
        theta = as_bijection(theta, self.source.carrier)
        for n, op in self.source.all_ops():
            if unary_only and n != 1:
                continue
            if self.mapping[op] != conjugate_op(theta, op):
                return False
        return True

    def as_index_map(self) -> Dict[int, List[int]]:
        """Per arity, the image position of each source op, both sides in
        canonical table order."""
        out: Dict[int, List[int]] = {}
        for n in self.source.arities():
            tgt_index = {op.table: i for i, op in enumerate(self.target.ops(n))}
            out[n] = [tgt_index[self.mapping[op].table] for op in self.source.ops(n)]
        return out

    def __repr__(self):
        return f"CloneHom(mode={self.mode}, indices={self.as_index_map()})"


def enumerate_clone_homs(source: CloneFragment,
                         target: CloneFragment) -> List[CloneHom]:
    """Every fragment homomorphism from source to target.

    For a closed source that contains the projections the search runs
    over generator images: each generator in turn receives each
    operation of its arity in the target, in canonical table order, and
    the graph the images assigned so far generate (:func:`_graph`) is
    closed at every arity.  A branch is cut as soon as that graph gives
    a source operation two images or an image outside the target; once
    every generator has an image, the graph is the homomorphism.  Any
    other source is searched member by member through every in-bound
    composition.  Either way the homomorphisms come sorted by the tuple
    of target positions of their images, source members in canonical
    order.
    """
    if source.carrier != target.carrier and source.carrier.size != target.carrier.size:
        raise ValueError("fragments must live on carriers of one size")
    gens = _generators(source)
    if gens is None:
        return _homs_by_compositions(source, target)
    gens = sorted(gens, key=lambda g: g.arity)
    size = source.carrier.size
    levels = range(source.max_arity + 1)
    packed: List[tuple] = []
    results = []

    def graph_or_none():
        """The graph of the images assigned so far, arity by arity, or
        None when it is not a map into the target."""
        graph = {}
        for m in levels:
            graph[m] = _graph(packed, size, size, m, len(source.ops(m)),
                              lambda f, g: target.member(m, g) is not None)
            if graph[m] is None:
                return None
        return graph

    def extend(j: int, graph):
        if j == len(gens):
            results.append(graph)
            return
        g = gens[j]
        for image in target.ops(g.arity):
            packed.append((g.arity, _pack(g.arity, g.table, image.table,
                                          size, size)))
            deeper = graph_or_none()
            if deeper is not None:
                extend(j + 1, deeper)
            packed.pop()

    root = graph_or_none()
    if root is not None:
        extend(0, root)
    ordered = list(source.all_ops())
    position = {(n, op.table): i for n in target.arities()
                for i, op in enumerate(target.ops(n))}
    results.sort(key=lambda graph: [position[n, graph[n][op.table]]
                                    for n, op in ordered])
    return [CloneHom(source, target,
                     {op: target.member(n, graph[n][op.table])
                      for n, op in ordered})
            for graph in results]


def _homs_by_compositions(source: CloneFragment,
                          target: CloneFragment) -> List[CloneHom]:
    """Every fragment homomorphism, by backtracking over the source
    members in canonical order.

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
    for f, gs, m, table in composition_identities(source):
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


# ---------------------------------------------------------------------------
# lifting verification
# ---------------------------------------------------------------------------

@dataclass
class LiftingReport:
    """Outcome of :func:`verify_conjugation_lifting`.

    The hypothesis checklist always comes first; when any hypothesis
    fails the conclusion is "hypotheses-not-met" and no operation checks
    are run.
    """

    hypotheses: Dict[str, bool]
    conclusion: str
    checked: int = 0
    counterexamples: List[dict] = field(default_factory=list)

    @property
    def hypotheses_met(self) -> bool:
        return all(self.hypotheses.values())

    def to_json(self) -> dict:
        return {
            "hypotheses": dict(self.hypotheses),
            "conclusion": self.conclusion,
            "checked": self.checked,
            "counterexamples": list(self.counterexamples),
        }


def verify_conjugation_lifting(xi: CloneHom, theta) -> LiftingReport:
    """Check the conjugation-lifting statement on one fragment hom.

    Hypotheses, in order: xi is a homomorphism; xi is surjective within
    the bound; the unary part of the source is weakly directed; xi
    restricted to unary operations is conjugation by theta.  When all
    hold, every operation of every arity is compared against direct
    conjugation and any disagreement is reported as a counterexample
    (the expected outcome is none).
    """
    theta = as_bijection(theta, xi.source.carrier)
    hypotheses = {
        "homomorphism": xi.is_homomorphism(),
        "surjective_within_bound": xi.is_surjective(),
        "unary_part_weakly_directed": is_weakly_directed(xi.source.unary_monoid()),
        "unary_restriction_is_conjugation": xi.is_conjugation_by(theta,
                                                                 unary_only=True),
    }
    if not all(hypotheses.values()):
        return LiftingReport(hypotheses, "hypotheses-not-met")
    checked = 0
    counterexamples = []
    for n, h in xi.source.all_ops():
        expected = conjugate_op(theta, h)
        actual = xi.image(h)
        checked += 1
        if actual != expected:
            counterexamples.append({
                "arity": n,
                "op": list(h.table),
                "expected": list(expected.table),
                "actual": list(actual.table),
            })
    conclusion = ("conjugation-at-every-arity" if not counterexamples
                  else "counterexamples-found")
    return LiftingReport(hypotheses, conclusion, checked, counterexamples)


# ---------------------------------------------------------------------------
# JSON forms
# ---------------------------------------------------------------------------

def fragment_to_json(frag: CloneFragment) -> dict:
    return {
        "carrier": carrier_to_json(frag.carrier),
        "max_arity": frag.max_arity,
        "ops": {
            str(n): [list(op.table) for op in frag.ops(n)]
            for n in frag.arities()
        },
    }


def fragment_from_json(data: dict) -> CloneFragment:
    carrier = carrier_from_json(data["carrier"])
    grouped: Dict[int, List[FinOp]] = {}
    for key, entries in data["ops"].items():
        arity = int(key)
        level = []
        for entry in entries:
            if isinstance(entry, dict):
                level.append(make_op(carrier, arity, table=entry["table"]))
            else:
                level.append(make_op(carrier, arity, table=entry))
        grouped[arity] = level
    return CloneFragment(carrier, int(data["max_arity"]), grouped)
