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

Fragment homomorphisms are decided and enumerated on composition
identities f(g_1, ..., g_n) = h.  Out of a closed fragment that contains
the projections, a map that fixes the projections and respects the
identities whose outer operation is a generator respects them all, since
every member is a term in the generators and induction on terms does the
rest (a map on generators extends iff it respects the generated
structure; Bergman, *Universal Algebra*, 2012).  So for such a fragment
the identities whose outer operation is a generator suffice; any other
fragment is checked on every in-bound composition.  One helper,
:func:`_identities`, makes that choice for both the check and the
search, and refuses up front a source with more identities than
:data:`MAX_IDENTITIES`.  :meth:`CloneHom.is_homomorphism` checks the
identities one at a time.  :func:`enumerate_clone_homs` backtracks over
member images: each member is placed when it is chosen or forced by an
identity over the members placed before it, and every other identity is
checked as soon as its last participant has an image, which is how it
confirms that no homomorphism escapes the conjugation description.
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
    exact_int,
    finite_carrier,
    json_object,
    make_op,
    projection,
)
from .monoid import MonoidSet, is_weakly_directed, monoid_set, weakly_directed_witnesses


@cache
def _projection_tables(size: int, m: int) -> tuple:
    """The tables of the m projections of arity m on ``size`` points."""
    carrier = finite_carrier(size)
    return tuple(projection(carrier, m, i).table for i in range(1, m + 1))


class CloneFragment:
    """Operations of arity <= max_arity on a finite carrier, grouped and
    canonically sorted by arity.

    ``contains_projections`` says whether every projection of every arity
    1..max_arity is present, and is computed from the members.
    ``closed_within_bound`` says whether every composition staying inside
    the bound lands in the fragment, and ``generators`` generate the
    fragment; both are None until known.  :func:`close_fragment` records
    the generators it closed under, and :func:`_generators` records the
    ones its search finds, or that the search proved the fragment not
    closed.  None of the three takes part in equality.
    """

    __slots__ = ("carrier", "max_arity", "ops_by_arity", "_members",
                 "contains_projections", "closed_within_bound", "generators")

    def __init__(self, carrier: Carrier, max_arity: int,
                 ops_by_arity: Dict[int, Iterable[FinOp]]):
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
        self.contains_projections = all(
            self.member(n, table) is not None
            for n in range(1, max_arity + 1)
            for table in _projection_tables(carrier.size, n)
        )
        self.closed_within_bound = None
        self.generators = None

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

def _close_level(carrier: Carrier, gens, m: int, cap: int) -> list:
    """The m-ary tables that ``gens`` generate, closed by
    :func:`~clonelab.fnspace.close_tables` from the m projections, the
    generators of arity m and the constant liftings of the nullary
    generators, in the order found.  Raises :class:`BudgetExceeded` as
    soon as more than ``cap`` tables are found."""
    size = carrier.size
    tables = [(g.arity, g.table) for g in gens]
    seeds = (list(_projection_tables(size, m))
             + [t for n, t in tables if n == m]
             + [t * size ** m for n, t in tables if n == 0])
    return close_tables(seeds, tables, size, m, cap)


def close_fragment(gens: Iterable[FinOp], max_arity: int = 3,
                   op_cap: int = 512) -> CloneFragment:
    """The smallest fragment containing the generators.

    Its m-ary part is the closure of the m projections under the
    generators alone (the subpower closure of Freese, Kiss and Valeriote,
    as in UACalc): an m-ary term is a projection or a generator applied
    to m-ary terms, so no other member is needed as an outer function.
    Each arity in 0..max_arity is closed in turn by :func:`_close_level`,
    from the m projections, the generators of arity m and the constant
    liftings of the nullary generators; projections and generators keep
    their labels.  Each arity level is capped at ``op_cap`` operations;
    crossing the cap raises :class:`BudgetExceeded` naming the lowest
    arity that overflows.  The result records the generators.
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
    grouped = {}
    for m in range(0, max_arity + 1):
        try:
            tables = _close_level(carrier, gens, m, op_cap)
        except BudgetExceeded:
            raise BudgetExceeded(
                f"fragment closure exceeded {op_cap} operations at arity {m}"
            ) from None
        # the first label of a table wins
        labels: Dict[tuple, Optional[str]] = {}
        for op in [projection(carrier, m, i) for i in range(1, m + 1)] + gens:
            if op.arity == m:
                labels.setdefault(op.table, op.label)
        if tables:
            grouped[m] = tuple(FinOp(carrier, m, table=t, label=labels.get(t))
                               for t in tables)
    frag = CloneFragment(carrier, max_arity, grouped)
    frag.generators = tuple(dict.fromkeys(gens))
    frag.closed_within_bound = True
    return frag


def composition_identities(frag: CloneFragment, outer: Iterable[FinOp]):
    """Every composition with an outer operation from ``outer`` and inner
    fragment members that stays within the bound.

    Yields ``(f, gs, m, table)``: an n-ary f from ``outer``, n members gs
    of arity m, and the value table of f(g_1, ..., g_n).  A nullary f
    yields its constant lifting at every arity m in 0..max_arity.  The
    table need not belong to the fragment; look it up with
    :meth:`CloneFragment.member`.  With every member as ``outer`` these
    are all in-bound compositions; a homomorphism out of a closed
    fragment that contains the projections need only respect those whose
    outer operation is one of its generators.
    """
    size = frag.carrier.size
    for f in outer:
        for m in range(0, frag.max_arity + 1):
            for gs in product(frag.ops(m), repeat=f.arity):
                yield f, gs, m, compose_tables(
                    f.table, [g.table for g in gs], size, m)


def is_closed_within_bound(frag: CloneFragment) -> bool:
    """Exhaustively confirm the closure flag of a fragment."""
    members = [op for _, op in frag.all_ops()]
    return all(frag.member(m, table) is not None
               for _, _, m, table in composition_identities(frag, members))


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def _generating_set(frag: CloneFragment) -> Optional[Tuple[FinOp, ...]]:
    """Generators of a fragment that contains the projections, or None
    when it is not closed within its bound.

    Chosen greedily: arity by arity from the lowest, the first member in
    canonical order that the generators so far do not generate is added
    until they generate the level.  A closure that outgrows the level or
    finds a table that is not a member proves the fragment not closed.
    Then each generator that the others generate at its own arity is
    dropped: it is a term in them, so it adds nothing at any level.
    """
    gens: List[FinOp] = []

    def close(m: int, using) -> Optional[list]:
        try:
            found = _close_level(frag.carrier, using, m, len(frag.ops(m)))
        except BudgetExceeded:
            return None
        return found if all(frag.member(m, t) is not None
                            for t in found) else None

    for m in range(frag.max_arity + 1):
        while (found := close(m, gens)) is not None and len(found) < len(frag.ops(m)):
            known = set(found)
            gens.append(next(op for op in frag.ops(m) if op.table not in known))
        if found is None:
            return None
    # a generator added later acts on the lower levels as well
    if any(close(m, gens) is None for m in range(frag.max_arity)):
        return None
    for g in list(gens):
        others = [h for h in gens if h is not g]
        if g.table in close(g.arity, others):
            gens = others
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


# ---------------------------------------------------------------------------
# conjugation
# ---------------------------------------------------------------------------

def conjugate_fragment(frag: CloneFragment, theta) -> CloneFragment:
    """Apply :func:`~clonelab.fnspace.conjugate_op` to every member.
    Like any fragment given by its members, the result computes its
    projection flag, and its closure is unknown until searched."""
    theta = as_bijection(theta, frag.carrier)
    return _conjugate_of(frag, {op: conjugate_op(theta, op)
                                for _, op in frag.all_ops()})


def _conjugate_of(frag: CloneFragment, conjugates) -> CloneFragment:
    """The fragment of the already computed conjugates of the members."""
    grouped = {n: tuple(conjugates[op] for op in frag.ops(n))
               for n in frag.arities()}
    return CloneFragment(frag.carrier, frag.max_arity, grouped)


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

# most composition identities one homomorphism check or search walks: a
# check costs 4-6.5 us per identity on a 2-core Xeon (Python 3.11), so a
# refused source would take about 10 s to check and longer to search
MAX_IDENTITIES = 2_000_000


def _identities(source: CloneFragment):
    """The composition identities that bind a homomorphism out of
    ``source``: those whose outer operation is a generator for a closed
    source that contains the projections, those of every member for any
    other, and of these only the ones whose result is a member.

    Yields ``(f, gs, h, m)``, the positions in canonical order of the
    outer operation, of the m-ary inner members and of the result.  A
    source with more than :data:`MAX_IDENTITIES`, counted from the level
    sizes, raises :class:`BudgetExceeded` before any is composed.
    """
    members = [op for _, op in source.all_ops()]
    outer = _generators(source) or members
    count = sum(len(source.ops(m)) ** f.arity
                for f in outer for m in range(source.max_arity + 1))
    if count > MAX_IDENTITIES:
        raise BudgetExceeded(
            f"the homomorphism condition has {count} composition "
            f"identities, more than the cap of {MAX_IDENTITIES}")
    index = {(op.arity, op.table): p for p, op in enumerate(members)}
    for f in outer:
        at = index[f.arity, f.table]
        for _, gs, m, table in composition_identities(source, (f,)):
            h = index.get((m, table))
            if h is not None:
                yield at, [index[m, g.table] for g in gs], h, m


class CloneHom:
    """An arity-preserving map between two fragments.

    The mapping is stored op-by-op.  ``is_homomorphism`` decides the
    projection and composition conditions within the arity bound;
    ``is_conjugation_by`` compares against direct conjugation.
    """

    __slots__ = ("source", "target", "mapping")

    def __init__(self, source: CloneFragment, target: CloneFragment,
                 mapping: Dict[FinOp, FinOp]):
        self.source = source
        self.target = target
        self.mapping = dict(mapping)
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
            target = _conjugate_of(source, mapping)
        return cls(source, target, mapping)

    def image(self, op: FinOp) -> FinOp:
        return self.mapping[op]

    def is_homomorphism(self) -> bool:
        """Whether the mapping sends projections to projections and
        respects every composition that stays within the bound.

        The compositions checked are those of :func:`_identities`, one at
        a time as they are composed.
        """
        src, tgt = self.source, self.target
        size = tgt.carrier.size
        for n in range(1, src.max_arity + 1):
            for e, e_t in zip(_projection_tables(src.carrier.size, n),
                              _projection_tables(size, n)):
                op = src.member(n, e)
                if op is not None and self.mapping[op].table != e_t:
                    return False
        images = [self.mapping[op].table for _, op in src.all_ops()]
        return all(images[h] == compose_tables(images[f],
                                               [images[g] for g in gs], size, m)
                   for f, gs, h, m in _identities(src))

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
        return f"CloneHom(indices={self.as_index_map()})"


def enumerate_clone_homs(source: CloneFragment,
                         target: CloneFragment) -> List[CloneHom]:
    """Every fragment homomorphism from source to target, sorted by the
    tuple of target positions of the images of the source members in
    canonical order.

    Backtracking over the source members on the identities of
    :func:`_identities`, placed in this order: first the projections,
    each pinned to the target's projection (no homomorphism when the
    target lacks one); then each free member in turn, the generators by
    arity or, for a source that is not generated, every member in
    canonical order; and right after each, every member that an identity
    over the members placed so far now forces.  The identity that first
    leaves a result as its only unplaced participant forces it: the
    result's one candidate is the image that identity composes, and none
    when the target lacks it.  A free member tries every target operation
    of its arity.  Every other identity is checked as soon as its last
    participant has an image, so contradictions prune the search at once.
    """
    if source.carrier != target.carrier and source.carrier.size != target.carrier.size:
        raise ValueError("fragments must live on carriers of one size")
    size = target.carrier.size
    members = [op for _, op in source.all_ops()]
    pinned: Dict[int, FinOp] = {}
    for p, op in enumerate(members):
        if op.table in _projection_tables(size, op.arity):
            pinned[p] = target.member(op.arity, op.table)
            if pinned[p] is None:
                return []
    identities = list(_identities(source))

    # the placement plan, from the participants each identity has left
    # unplaced; no projection is forced, as an identity over projections
    # alone has its result among its inner members
    left = []
    uses: List[List[int]] = [[] for _ in members]
    for i, (f, gs, h, _) in enumerate(identities):
        participants = {f, h, *gs}
        left.append(len(participants))
        for p in participants:
            uses[p].append(i)
    index = {(op.arity, op.table): p for p, op in enumerate(members)}
    free = sorted(_generators(source) or members, key=lambda op: op.arity)
    order: List[int] = []
    queued = [False] * len(members)
    forcing: Dict[int, int] = {}
    due: List[list] = []
    for p in list(pinned) + [index[op.arity, op.table] for op in free]:
        if queued[p]:
            continue
        queued[p] = True
        order.append(p)
        while len(due) < len(order):
            q = order[len(due)]
            checks = []
            for i in uses[q]:
                left[i] -= 1
                f, gs, h, _ = identities[i]
                if left[i] == 0:
                    if forcing.get(q) != i:
                        checks.append(identities[i])
                elif left[i] == 1 and not queued[h] and h != f and h not in gs:
                    forcing[h] = i
                    queued[h] = True
                    order.append(h)
            due.append(checks)

    assignment: List[Optional[FinOp]] = [None] * len(members)
    results: List[CloneHom] = []

    def composed(f: int, gs, m: int):
        """The table of the images composed as in an identity."""
        return compose_tables(assignment[f].table,
                              [assignment[g].table for g in gs], size, m)

    def candidates(k: int):
        p = order[k]
        if p in pinned:
            return (pinned[p],)
        if p in forcing:
            f, gs, _, m = identities[forcing[p]]
            image = target.member(members[p].arity, composed(f, gs, m))
            return () if image is None else (image,)
        return target.ops(members[p].arity)

    if not order:
        return [CloneHom(source, target, {})]
    # one candidate iterator per placed member, on a stack rather than
    # the call stack: a source may have more members than Python's
    # recursion limit
    stack = [iter(candidates(0))]
    while stack:
        k = len(stack) - 1
        p = order[k]
        for cand in stack[k]:
            assignment[p] = cand
            if all(composed(f, gs, m) == assignment[h].table
                   for f, gs, h, m in due[k]):
                break
        else:
            stack.pop()
            continue
        if k + 1 < len(order):
            stack.append(iter(candidates(k + 1)))
        else:
            results.append(CloneHom(source, target, dict(zip(members, assignment))))
    position = {(n, op.table): i for n in target.arities()
                for i, op in enumerate(target.ops(n))}
    results.sort(key=lambda hom: [position[n, hom.mapping[op].table]
                                  for n, op in source.all_ops()])
    return results


# ---------------------------------------------------------------------------
# lifting verification
# ---------------------------------------------------------------------------

@dataclass
class LiftingReport:
    """Outcome of :func:`verify_conjugation_lifting`.

    The hypothesis checklist always comes first; when any hypothesis
    fails no operation checks are run.  The conclusion is read off the
    hypotheses and the counterexamples.
    """

    hypotheses: Dict[str, bool]
    checked: int = 0
    counterexamples: List[dict] = field(default_factory=list)

    @property
    def conclusion(self) -> str:
        if not all(self.hypotheses.values()):
            return "hypotheses-not-met"
        if self.counterexamples:
            return "counterexamples-found"
        return "conjugation-at-every-arity"

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
    # each member is conjugated once, the unary ones for the hypothesis
    unary = {op: conjugate_op(theta, op) for op in xi.source.ops(1)}
    hypotheses = {
        "homomorphism": xi.is_homomorphism(),
        "surjective_within_bound": xi.is_surjective(),
        "unary_part_weakly_directed": is_weakly_directed(xi.source.unary_monoid()),
        "unary_restriction_is_conjugation": all(
            xi.image(op) == conjugate for op, conjugate in unary.items()),
    }
    if not all(hypotheses.values()):
        return LiftingReport(hypotheses)
    counterexamples = []
    for n, h in xi.source.all_ops():
        expected = unary[h] if n == 1 else conjugate_op(theta, h)
        actual = xi.image(h)
        if actual != expected:
            counterexamples.append({
                "arity": n,
                "op": list(h.table),
                "expected": list(expected.table),
                "actual": list(actual.table),
            })
    return LiftingReport(hypotheses, xi.source.op_count(), counterexamples)


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
    for key, entries in json_object(data["ops"], "ops").items():
        # "01" or "1_0" would read as another arity's key
        if not (key.isdecimal() and str(int(key)) == key):
            raise ValueError(f"arity key must be a decimal integer, "
                             f"got {key!r}")
        arity = int(key)
        grouped[arity] = [make_op(carrier, arity, table=entry["table"]
                                  if isinstance(entry, dict) else entry)
                          for entry in entries]
    return CloneFragment(carrier, exact_int(data["max_arity"], "max_arity"),
                         grouped)
