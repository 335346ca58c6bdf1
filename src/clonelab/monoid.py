"""Transformation monoids and permutation groups on a carrier.

A :class:`MonoidSet` is a set of unary operations.  On a finite carrier it
is extensional: the operations are stored as sorted value tables and the
closure, invertibility, transitivity and directedness questions below are
all decided by finite search, and so are its identity and closure flags,
read off the members; one Cayley-graph walk decides closure and carries
the endomorphism search.  On a lazy carrier a MonoidSet is only a
generator presentation; operations that need to enumerate the whole set
raise :class:`~clonelab.errors.UnsupportedLazyCarrier`, and the lazy
structures are served instead by the back-and-forth machinery.

Weak directedness is the key hypothesis used by the conjugation-lifting
check in the clone layer: a set S of unary maps is weakly directed when
any two elements a, b have a common ancestor, meaning some c and f, g in S
with f(c) = a and g(c) = b.  Every transitive action is weakly directed
(take c = a, f the identity, and g moving a to b).  The same search
extends to any finite list of targets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .errors import BudgetExceeded, NoCommonAncestor, UnsupportedLazyCarrier
from .fnspace import (
    Carrier,
    FinOp,
    as_bijection,
    carrier_from_json,
    carrier_to_json,
    close_tables,
    compose_tables,
    conjugate_op,
    equal_on_window,
    identity_op,
    inverse_table,
    json_object,
    make_op,
    op_from_json,
)


@dataclass(frozen=True)
class MonoidSet:
    """A set of unary operations.

    ``contains_identity`` and ``closed_under_composition`` are read off
    the members on first use and cached; both are None on a lazy carrier.
    Neither takes part in equality.  Use :func:`monoid_set` to build one.
    """

    carrier: Carrier
    ops: tuple

    @cached_property
    def contains_identity(self) -> Optional[bool]:
        if not self.carrier.is_finite:
            return None
        return identity_op(self.carrier) in self.ops

    @cached_property
    def closed_under_composition(self) -> Optional[bool]:
        if not self.carrier.is_finite:
            return None
        return _cayley_walk(self.tables())[3]

    def __iter__(self):
        return iter(self.ops)

    def __len__(self):
        return len(self.ops)

    def __contains__(self, op):
        return op in self.ops

    def require_extensional(self):
        if not self.carrier.is_finite:
            raise UnsupportedLazyCarrier(
                "this operation needs an extensional monoid on a finite carrier"
            )

    def tables(self):
        self.require_extensional()
        return [op.table for op in self.ops]


class GroupSet(MonoidSet):
    """A MonoidSet whose members are all invertible within the set."""


def _normalise_ops(carrier: Carrier, ops: Iterable[FinOp]):
    ops = list(ops)
    for op in ops:
        if op.arity != 1:
            raise ValueError(f"monoid members must be unary, got arity {op.arity}")
        if op.carrier != carrier:
            raise ValueError("monoid members must share the carrier")
    seen = list(dict.fromkeys(ops))
    if carrier.is_finite:
        seen.sort(key=lambda op: op.table)
    return tuple(seen)


def monoid_set(carrier: Carrier, ops: Iterable[FinOp],
               closed: Optional[bool] = None) -> MonoidSet:
    """Build a MonoidSet, verifying the closure flag when one is claimed
    on a finite carrier."""
    m = MonoidSet(carrier, _normalise_ops(carrier, ops))
    if (closed is not None and carrier.is_finite
            and closed != m.closed_under_composition):
        raise ValueError(f"claimed closed_under_composition={closed} "
                         f"but it is {m.closed_under_composition}")
    return m


def group_set(carrier: Carrier, ops: Iterable[FinOp]) -> GroupSet:
    """Like :func:`monoid_set` but validates that every member is a
    bijection whose inverse is also a member (finite carriers)."""
    members = _normalise_ops(carrier, ops)
    if carrier.is_finite:
        tables = {op.table for op in members}
        for op in members:
            inv = inverse_table(op.table)
            if inv is None or inv not in tables:
                raise ValueError(f"{op!r} is not invertible within the set")
    return GroupSet(carrier, members)


# ---------------------------------------------------------------------------
# closure and units
# ---------------------------------------------------------------------------

def close_under_composition(gens: Iterable[FinOp], include_identity: bool = True,
                            cap: Optional[int] = None) -> MonoidSet:
    """The transformation monoid generated by unary maps on a finite
    carrier.

    The closure kernel :func:`~clonelab.fnspace.close_tables` at arity 1,
    seeded with the identity (when ``include_identity``) and the
    generators: every map found is followed by each generator, on raw
    value tables, until no new map appears (a Cayley-graph search in the
    manner of Froidure and Pin, 1997).  The result can never
    exceed size**size maps.  An optional cap raises
    :class:`BudgetExceeded` once crossed, for callers that want to bound
    exploratory runs.
    """
    gens = list(gens)
    if not gens:
        raise ValueError("need at least one generator")
    carrier = gens[0].carrier
    carrier.require_finite()
    for g in gens:
        if g.arity != 1 or g.carrier != carrier:
            raise ValueError("generators must be unary maps on one carrier")
    size = carrier.size
    identity = identity_op(carrier)
    # table -> labelled operation for the seeds
    seeds = {identity.table: identity} if include_identity else {}
    for g in gens:
        seeds.setdefault(g.table, g)
    try:
        tables = close_tables(seeds, [(1, g.table) for g in gens], size, 1,
                              size ** size if cap is None else cap)
    except BudgetExceeded:
        raise BudgetExceeded(
            f"monoid closure exceeded cap {cap} (size bound is "
            f"{size ** size})"
        ) from None
    ops = tuple(seeds.get(table) or FinOp(carrier, 1, table=table)
                for table in sorted(tables))
    return MonoidSet(carrier, ops)


def invertibles(m: MonoidSet) -> GroupSet:
    """The units of a finite monoid: members with a two-sided inverse
    inside the set.  Its flags are read off the units, so the units of a
    set that is not closed are reported as not closed."""
    m.require_extensional()
    tables = {op.table for op in m.ops}
    return group_set(m.carrier, (op for op in m.ops
                                 if inverse_table(op.table) in tables))


# ---------------------------------------------------------------------------
# action properties
# ---------------------------------------------------------------------------

def is_transitive(m: MonoidSet) -> bool:
    """Every element reaches every other under some member."""
    m.require_extensional()
    size = m.carrier.size
    for a in range(size):
        images = {op.table[a] for op in m.ops}
        if len(images) != size:
            return False
    return True


def _witnesses_or_none(ops: Sequence[FinOp], carrier: Carrier, targets):
    for c in carrier.elements():
        picked = []
        for a in targets:
            found = None
            for op in ops:
                if op.table[c] == a:
                    found = op
                    break
            if found is None:
                picked = None
                break
            picked.append(found)
        if picked is not None:
            return c, tuple(picked)
    return None


def is_weakly_directed(m: MonoidSet) -> bool:
    """Any two targets have a common ancestor under members of the set."""
    m.require_extensional()
    for a in m.carrier.elements():
        for b in m.carrier.elements():
            if _witnesses_or_none(m.ops, m.carrier, (a, b)) is None:
                return False
    return True


def weakly_directed_witnesses(m: MonoidSet, targets):
    """A common ancestor for a tuple of targets.

    Returns (c, (f_1, ..., f_n)) with f_i(c) = targets[i], choosing the
    smallest element code for c and the first operation in canonical table
    order for each f_i, so the answer is deterministic.  Raises
    NoCommonAncestor (a ValueError) when no ancestor exists (the set is
    not weakly directed enough for these targets), and ValueError for
    malformed targets.
    """
    m.require_extensional()
    targets = tuple(targets)
    if not targets:
        raise ValueError("need at least one target")
    for a in targets:
        if not m.carrier.contains(a):
            raise ValueError(f"target {a!r} outside carrier")
    hit = _witnesses_or_none(m.ops, m.carrier, targets)
    if hit is None:
        raise NoCommonAncestor(f"no common ancestor for targets {targets}")
    return hit


def centre(m: MonoidSet) -> MonoidSet:
    """Members commuting with every member."""
    m.require_extensional()
    size = m.carrier.size
    central = [f for f in m.ops
               if all(compose_tables(f.table, (g.table,), size, 1)
                      == compose_tables(g.table, (f.table,), size, 1)
                      for g in m.ops)]
    return MonoidSet(m.carrier, tuple(central))


# ---------------------------------------------------------------------------
# injective endomorphisms fixing a subset
# ---------------------------------------------------------------------------

def injective_endos_fixing(m: MonoidSet, fixed: Iterable[FinOp]):
    """All injective monoid endomorphisms of a finite monoid that fix the
    given members pointwise.

    The monoid must be composition closed and contain the identity,
    which the Cayley-graph walk (:func:`_cayley_walk`) the search is
    built on decides.  On a finite monoid injectivity forces
    bijectivity.  An endomorphism psi is fixed by the images of the
    walk's generators, the fixed members first, so that their images are
    pinned.  The search gives each generator in turn every image not yet
    used, extends psi along the walk by psi(g t) = psi(g) psi(t), reading
    each product from the walk's and composing it only if missing, and
    drops the branch as soon as an edge of the graph contradicts that
    rule, psi hits a member twice, or it moves a fixed member.  A psi
    that respects every edge respects every composition (induction on
    the length of a word in the generators).

    Returns a sorted list of index permutations: entry k of a result is
    the index of the image of member k in canonical table order.  The
    uniqueness question "is the identity the only such map" is the
    rigidity hypothesis used by the extension checks.
    """
    tables = m.tables()
    index = {t: i for i, t in enumerate(tables)}
    n = len(tables)
    size = m.carrier.size
    fixed = list(fixed)
    fixed_idx = {index.get(op.table) for op in fixed}
    gens, steps, products, closed = _cayley_walk(
        tables, sorted(fixed_idx - {None}))
    if not closed:
        raise ValueError("monoid must be closed under composition")
    id_idx = index.get(identity_op(m.carrier).table)
    if id_idx is None:
        raise ValueError("monoid must contain the identity")
    for op in fixed:
        if op.table not in index:
            raise ValueError(f"fixed member {op!r} is not in the monoid")
    fixed_idx.add(id_idx)
    movable = [i for i in range(n) if i not in fixed_idx]

    results = []
    psi = [id_idx] * n
    used = [False] * n
    used[id_idx] = True

    def extend(j: int):
        if j == len(gens):
            results.append(tuple(psi))
            return
        x = gens[j]
        for image in ((x,) if x in fixed_idx else movable):
            if used[image]:
                continue
            psi[x] = image
            added = [image]
            used[image] = True
            for w, g, t, new in steps[j]:
                a, b = psi[g], psi[t]
                v = products[a].get(b)
                if v is None:
                    v = products[a][b] = index[compose_tables(
                        tables[a], (tables[b],), size, 1)]
                if not new:
                    if psi[w] != v:
                        break
                elif used[v] or (w in fixed_idx and v != w):
                    break
                else:
                    psi[w] = v
                    added.append(v)
                    used[v] = True
            else:
                extend(j + 1)
            for u in added:
                used[u] = False

    extend(0)
    results.sort()
    return results


def _cayley_walk(tables, first=()):
    """Generators of a finite set of unary maps, the Cayley-graph edges
    each adds, the products composed, and whether the set is closed.

    The root is the identity when it is a member.  Walking ``first``,
    then the members by image size (largest first) and table order, each
    member not yet reached from the root by left multiplication with the
    generators so far becomes the next generator.  Its step lists the
    edges (w, g, t), w = g o t, for every reached t but the root with the
    new generator and for every newly reached t with every generator, in
    search order; ``new`` marks the edge that first reaches w.  Each edge
    is composed once and recorded as ``products[g][t] = w``.

    The walk stops at the first edge that leaves the set.  Otherwise g o s
    is in the set for every generator g and member s, and so is x o y, by
    folding x, a word in the generators, from the right (Froidure and Pin,
    1997).  Returns (gens, steps, products, closed).
    """
    index = {t: i for i, t in enumerate(tables)}
    size = len(tables[0]) if tables else 0
    root = index.get(tuple(range(size)))
    seen = {root}
    reached, gens, steps = [], [], []
    products = [{} for _ in tables]
    ranked = sorted(range(len(tables)), key=lambda i: -len(set(tables[i])))
    for x in [*first, *ranked]:
        if x in seen:
            continue
        gens.append(x)
        queue = [(t, x) for t in reached] + [(x, g) for g in gens]
        seen.add(x)
        reached.append(x)
        step = []
        for t, g in queue:
            w = index.get(compose_tables(tables[g], (tables[t],), size, 1))
            if w is None:
                return gens, steps, products, False
            products[g][t] = w
            new = w not in seen
            if new:
                seen.add(w)
                reached.append(w)
                queue.extend((w, h) for h in gens)
            step.append((w, g, t, new))
        steps.append(step)
    return gens, steps, products, True


def endo_report(m: MonoidSet, fixed: Iterable[FinOp]) -> dict:
    """JSON-ready report for :func:`injective_endos_fixing`."""
    fixed = list(fixed)
    maps = injective_endos_fixing(m, fixed)
    index = {op.table: i for i, op in enumerate(m.ops)}
    return {
        "monoid": [list(op.table) for op in m.ops],
        "fixed": sorted(index[op.table] for op in fixed),
        "count": len(maps),
        "maps": [list(psi) for psi in maps],
        "only_identity": maps == [tuple(range(len(m.ops)))],
    }


# ---------------------------------------------------------------------------
# action isomorphism by conjugation
# ---------------------------------------------------------------------------

def is_action_isomorphism(pairs, theta, window=None) -> bool:
    """Check that a map of unary operations is conjugation by theta.

    ``pairs`` is an iterable of (f, image) operation pairs.  On finite
    carriers the comparison is exact; on lazy carriers a window must be
    supplied and agreement is verified on it (window-verified, not
    proved).
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("need at least one operation pair")
    carrier = pairs[0][0].carrier
    theta = as_bijection(theta, carrier)
    for f, image in pairs:
        expected = conjugate_op(theta, f)
        if carrier.is_finite:
            if image.table != expected.table:
                return False
        else:
            if window is None:
                raise ValueError("lazy carriers need a comparison window")
            if not equal_on_window(image, expected, window):
                return False
    return True


# ---------------------------------------------------------------------------
# JSON forms
# ---------------------------------------------------------------------------

def monoid_to_json(m: MonoidSet) -> dict:
    m.require_extensional()
    return {
        "carrier": carrier_to_json(m.carrier),
        "ops": [list(op.table) for op in m.ops],
        "flags": {
            "contains_identity": m.contains_identity,
            "closed_under_composition": m.closed_under_composition,
        },
    }


def monoid_from_json(data: dict) -> MonoidSet:
    carrier = carrier_from_json(data["carrier"])
    ops = [op_from_json(entry, carrier) if isinstance(entry, dict)
           else make_op(carrier, 1, table=entry) for entry in data["ops"]]
    flags = json_object(data.get("flags", {}), "flags")
    return monoid_set(carrier, ops, closed=flags.get("closed_under_composition"))
