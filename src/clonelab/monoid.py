"""Transformation monoids and permutation groups on a carrier.

A :class:`MonoidSet` is a set of unary operations.  On a finite carrier it
is extensional: the operations are stored as sorted value tables and the
closure, invertibility, transitivity and directedness questions below are
all decided by finite search.  On a lazy carrier a MonoidSet is only a
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
from itertools import permutations
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
    make_op,
    op_from_json,
)


@dataclass(frozen=True)
class MonoidSet:
    """A set of unary operations with bookkeeping flags.

    ``contains_identity`` and ``closed_under_composition`` are None when
    unknown (lazy presentations).  Use :func:`monoid_set` to build one
    with the flags computed.
    """

    carrier: Carrier
    ops: tuple
    contains_identity: Optional[bool] = None
    closed_under_composition: Optional[bool] = None

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
    seen = []
    for op in ops:
        if op.arity != 1:
            raise ValueError(f"monoid members must be unary, got arity {op.arity}")
        if op.carrier != carrier:
            raise ValueError("monoid members must share the carrier")
        if op not in seen:
            seen.append(op)
    if carrier.is_finite:
        seen.sort(key=lambda op: op.table)
    return tuple(seen)


def monoid_set(carrier: Carrier, ops: Iterable[FinOp],
               closed: Optional[bool] = None) -> MonoidSet:
    """Build a MonoidSet, computing the identity flag on finite carriers
    and verifying the closure flag when one is claimed."""
    members = _normalise_ops(carrier, ops)
    has_id: Optional[bool] = None
    if carrier.is_finite:
        has_id = identity_op(carrier) in members
        if closed is None:
            closed = _is_closed(carrier, members)
        elif closed and not _is_closed(carrier, members):
            raise ValueError("claimed closed_under_composition but it is not")
    return MonoidSet(carrier, members, has_id, closed)


def group_set(carrier: Carrier, ops: Iterable[FinOp]) -> GroupSet:
    """Like :func:`monoid_set` but validates that every member is a
    bijection whose inverse is also a member (finite carriers)."""
    members = _normalise_ops(carrier, ops)
    has_id = closed = None
    if carrier.is_finite:
        tables = {op.table for op in members}
        for op in members:
            inv = _inverse_table(op.table)
            if inv is None or inv not in tables:
                raise ValueError(f"{op!r} is not invertible within the set")
        has_id = identity_op(carrier) in members
        closed = _is_closed(carrier, members)
    return GroupSet(carrier, members, has_id, closed)


def _is_closed(carrier: Carrier, members) -> bool:
    tables = {op.table for op in members}
    return all(compose_tables(f, (g,), carrier.size, 1) in tables
               for f in tables for g in tables)


def _inverse_table(table):
    size = len(table)
    if sorted(table) != list(range(size)):
        return None
    inv = [0] * size
    for x, y in enumerate(table):
        inv[y] = x
    return tuple(inv)


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
    return MonoidSet(carrier, ops, identity.table in tables, True)


def invertibles(m: MonoidSet) -> GroupSet:
    """The units of a finite monoid: members with a two-sided inverse
    inside the set.  Both flags of the result are computed, so the units
    of a set that is not closed are reported as not closed."""
    m.require_extensional()
    tables = {op.table for op in m.ops}
    return group_set(m.carrier, (op for op in m.ops
                                 if _inverse_table(op.table) in tables))


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
    return MonoidSet(m.carrier, tuple(central),
                     identity_op(m.carrier) in central, None)


# ---------------------------------------------------------------------------
# injective endomorphisms fixing a subset
# ---------------------------------------------------------------------------

def injective_endos_fixing(m: MonoidSet, fixed: Iterable[FinOp]):
    """All injective monoid endomorphisms of a finite monoid that fix the
    given members pointwise.

    The monoid must be composition closed and contain the identity.  On a
    finite monoid injectivity forces bijectivity, so the search runs over
    permutations of the non-fixed members and keeps those compatible with
    the composition table (and sending the identity to itself).

    Returns a sorted list of index permutations: entry k of a result is
    the index of the image of member k in canonical table order.  The
    uniqueness question "is the identity the only such map" is the
    rigidity hypothesis used by the extension checks.
    """
    m.require_extensional()
    if not m.closed_under_composition:
        raise ValueError("monoid must be closed under composition")
    if not m.contains_identity:
        raise ValueError("monoid must contain the identity")
    tables = m.tables()
    index = {t: i for i, t in enumerate(tables)}
    n = len(tables)
    size = m.carrier.size
    comp = [[index[compose_tables(f, (g,), size, 1)] for g in tables]
            for f in tables]
    id_idx = index[identity_op(m.carrier).table]

    fixed_idx = {id_idx}
    for op in fixed:
        if op.table not in index:
            raise ValueError(f"fixed member {op!r} is not in the monoid")
        fixed_idx.add(index[op.table])
    movable = [i for i in range(n) if i not in fixed_idx]

    results = []
    for images in permutations(movable):
        psi = list(range(n))
        for slot, img in zip(movable, images):
            psi[slot] = img
        ok = True
        for i in range(n):
            for j in range(n):
                if psi[comp[i][j]] != comp[psi[i]][psi[j]]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            results.append(tuple(psi))
    results.sort()
    return results


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
    ops = []
    for entry in data["ops"]:
        if isinstance(entry, dict):
            ops.append(op_from_json(entry, carrier))
        else:
            ops.append(make_op(carrier, 1, table=entry))
    flags = data.get("flags", {})
    return monoid_set(carrier, ops, closed=flags.get("closed_under_composition"))
