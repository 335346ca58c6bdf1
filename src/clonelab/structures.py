"""Relational structures, their map monoids, and two canonical countable
structures.

Finite structures are extensional (relation tuple sets over a finite
carrier) and all map sets below are found by one backtracking loop with
incremental relation checks from cached getter tables.  Two lazily
presented structures are built in and addressed by catalog name:

* ``rationals-order``: the rationals with their strict order, elements
  coded as exact fractions;
* ``rado``: the countable random graph on the naturals with the bit
  adjacency rule, i ~ j (for i < j) exactly when bit i of j is set.
  Every finite adjacency pattern is realised, which is what the witness
  constructions rely on.

A homomorphism preserves every relation; an embedding is injective and
also reflects them; automorphisms are the invertible embeddings.  The
complement expansion of a structure adds the complement of every relation
plus the inequality relation; its endomorphisms are forced to reflect the
original relations and be injective, so they are exactly the embeddings
of the original structure.  That equality is checked computationally, not
assumed, by comparing the two independently computed map sets.
"""

from __future__ import annotations

from functools import cache, lru_cache
from itertools import combinations, permutations, product
from operator import itemgetter
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .errors import UnsupportedLazyCarrier
from .fnspace import (
    RADO,
    RATIONALS,
    Carrier,
    carrier_from_json,
    carrier_to_json,
    default_window,
    element_to_json,
    exact_int,
    finite_carrier,
    make_op,
)
from .monoid import GroupSet, MonoidSet

DEFAULT_SIZE_LIMIT = 7


class RelStructure:
    """A relational structure: carrier, signature, and relations.

    Finite relations are frozensets of element tuples; lazy relations are
    decidable predicates.  ``name`` identifies catalog members.

    Every given tuple of a finite relation is checked; an exact int in
    range passes without a call to :meth:`Carrier.contains`.
    """

    __slots__ = ("carrier", "signature", "relations", "name", "is_finite")

    def __init__(self, carrier: Carrier, signature, relations, name=None):
        self.carrier = carrier
        self.signature = tuple((str(n), exact_int(a, "relation arity"))
                               for n, a in signature)
        if len({n for n, _ in self.signature}) != len(self.signature):
            raise ValueError("duplicate relation names")
        self.name = name
        normalised: Dict[str, object] = {}
        for rel_name, arity in self.signature:
            if rel_name not in relations:
                raise ValueError(f"missing relation {rel_name!r}")
            rel = relations[rel_name]
            if callable(rel):
                normalised[rel_name] = rel
                continue
            carrier.require_finite()
            size = carrier.size
            tuples = set()
            for t in rel:
                t = tuple(t)
                if len(t) != arity:
                    raise ValueError(f"tuple {t} has wrong arity for {rel_name}")
                for x in t:
                    if ((type(x) is not int or not 0 <= x < size)
                            and not carrier.contains(x)):
                        raise ValueError(f"element {x!r} outside carrier")
                tuples.add(t)
            normalised[rel_name] = frozenset(tuples)
        self.relations = normalised
        self.is_finite = carrier.is_finite and not any(
            map(callable, normalised.values()))

    def related(self, rel_name: str, *args) -> bool:
        rel = self.relations[rel_name]
        args = tuple(self.carrier.canonical(a) for a in args)
        if callable(rel):
            return bool(rel(*args))
        return args in rel

    def require_finite(self):
        if not self.is_finite:
            raise UnsupportedLazyCarrier(
                "this operation needs a finite extensional structure")

    def arity_of(self, rel_name: str) -> int:
        for n, a in self.signature:
            if n == rel_name:
                return a
        raise KeyError(rel_name)

    def __eq__(self, other):
        if not isinstance(other, RelStructure):
            return NotImplemented
        if not (self.is_finite and other.is_finite):
            return self is other
        return (self.carrier == other.carrier
                and self.signature == other.signature
                and self.relations == other.relations)

    def __hash__(self):
        if not self.is_finite:
            return object.__hash__(self)
        return hash((self.carrier, self.signature,
                     tuple(frozenset(self.relations[n]) for n, _ in self.signature)))

    def __repr__(self):
        label = self.name or f"size={getattr(self.carrier, 'size', '?')}"
        rels = ",".join(f"{n}/{a}" for n, a in self.signature)
        return f"RelStructure({label}, {rels})"


class PartialIso:
    """A finite partial isomorphism of a structure: an injective map that
    preserves and reflects every relation among its domain."""

    __slots__ = ("structure", "pairs")

    def __init__(self, structure: RelStructure, pairs):
        carrier = structure.carrier
        cleaned = sorted(
            ((carrier.canonical(a), carrier.canonical(b)) for a, b in pairs),
        )
        self.structure = structure
        self.pairs = tuple(cleaned)

    def domain(self):
        return [a for a, _ in self.pairs]

    def image(self):
        return [b for _, b in self.pairs]

    def as_dict(self):
        return dict(self.pairs)

    def is_valid(self) -> bool:
        mapping = self.as_dict()
        if len(mapping) != len(self.pairs):
            return False
        if len(set(mapping.values())) != len(mapping):
            return False
        dom = list(mapping)
        for rel_name, arity in self.structure.signature:
            for t in product(dom, repeat=arity):
                src = self.structure.related(rel_name, *t)
                dst = self.structure.related(rel_name, *(mapping[x] for x in t))
                if src != dst:
                    return False
        return True

    def to_json(self) -> dict:
        carrier = self.structure.carrier
        return {
            "pairs": [[element_to_json(carrier, a), element_to_json(carrier, b)]
                      for a, b in self.pairs]
        }

    def __repr__(self):
        return f"PartialIso({dict(self.pairs)!r})"


# ---------------------------------------------------------------------------
# map enumeration on finite structures
# ---------------------------------------------------------------------------

@cache
def _getters(d: int, arity: int) -> Tuple[tuple, ...]:
    """(instance, get) for each tuple over {0..d} that mentions d: the
    relation instances to check after assigning element d.  ``get``
    reads the instance through an image vector."""
    return tuple((t, itemgetter(*t))
                 for t in product(range(d + 1), repeat=arity) if d in t)


def _map_rows(a: RelStructure, b: RelStructure, reflect: bool):
    """Row d holds the checks to make after assigning element d of A:
    one ``(get, members, want)`` per relation instance of A that mentions
    d and no later element, read from the cached :func:`_getters` table,
    with B's members of the relation and whether the mapped instance must
    be among them.  Without ``reflect`` only the instances in the source
    relation are checked.  A one-index itemgetter returns the element
    itself, so a unary relation is looked up as its set of elements."""
    checked = [(a.relations[name], {x for (x,) in b.relations[name]}
                if arity == 1 else b.relations[name], arity)
               for name, arity in a.signature]
    return [[(get, members, want)
             for src, members, arity in checked
             for t, get in _getters(d, arity)
             if (want := t in src) or reflect]
            for d in range(a.carrier.size)]


def _search_maps(rows, m: int, injective: bool, pinned=None):
    """Backtracking generator of the image vectors into range(m) that pass
    ``rows`` (see :func:`_map_rows`), assigning elements in their natural
    order.  ``pinned`` maps some elements to the one image each may take;
    when injective, the other elements avoid those images.

    One loop over a stack holding, per element assigned or being
    assigned, an iterator over its remaining candidates; the vectors come
    in lexicographic order."""
    n = len(rows)
    choices = [range(m)] * n
    if pinned:
        free = [c for c in range(m)
                if not (injective and c in pinned.values())]
        choices = [(pinned[d],) if d in pinned else free for d in range(n)]
    images: List[int] = []
    stack = [iter(choices[0])]
    while stack:
        d = len(images)
        row = rows[d]
        for candidate in stack[-1]:
            if injective and candidate in images:
                continue
            images.append(candidate)
            for get, members, want in row:
                if (get(images) in members) != want:
                    break
            else:
                if d + 1 < n:
                    stack.append(iter(choices[d + 1]))
                    break
                yield tuple(images)
            images.pop()
        else:
            stack.pop()
            if images:
                images.pop()


def _enumerate_maps(a: RelStructure, b: RelStructure, injective: bool,
                    reflect: bool):
    """Generator of image vectors of all structure maps A -> B.  Nullary
    relations are checked once, before the search."""
    for name, arity in a.signature:
        if arity == 0:
            src, dst = () in a.relations[name], () in b.relations[name]
            if (src != dst) if reflect else (src and not dst):
                return
    yield from _search_maps(_map_rows(a, b, reflect), b.carrier.size,
                            injective)


def _require_searchable(a: RelStructure, b: RelStructure, size_limit: int):
    """A finite and within the size limit, B finite, one signature."""
    a.require_finite()
    if a.carrier.size > size_limit:
        raise ValueError(
            f"structure size {a.carrier.size} exceeds the search limit "
            f"{size_limit}; raise size_limit explicitly to override")
    b.require_finite()
    if a.signature != b.signature:
        raise ValueError("structures must share a signature")


def hom_set(a: RelStructure, b: RelStructure,
            size_limit: int = DEFAULT_SIZE_LIMIT) -> List[tuple]:
    """All homomorphisms A -> B as image vectors (entry i is the image of
    element i).  Both structures must be finite and share a signature."""
    _require_searchable(a, b, size_limit)
    return list(_enumerate_maps(a, b, injective=False, reflect=False))


def emb_set(a: RelStructure, b: RelStructure,
            size_limit: int = DEFAULT_SIZE_LIMIT) -> List[tuple]:
    """All embeddings A -> B: injective, preserving and reflecting."""
    _require_searchable(a, b, size_limit)
    return list(_enumerate_maps(a, b, injective=True, reflect=True))


def _as_monoid(a: RelStructure, vectors, group: bool = False):
    cls = GroupSet if group else MonoidSet
    return cls(a.carrier, tuple(make_op(a.carrier, 1, table=v)
                                for v in sorted(vectors)))


def end_monoid(a: RelStructure, size_limit: int = DEFAULT_SIZE_LIMIT) -> MonoidSet:
    """The endomorphism monoid of a finite structure."""
    _require_searchable(a, a, size_limit)
    return _as_monoid(a, _enumerate_maps(a, a, injective=False, reflect=False))


def emb_monoid(a: RelStructure, size_limit: int = DEFAULT_SIZE_LIMIT) -> MonoidSet:
    """The self-embedding monoid of a finite structure."""
    _require_searchable(a, a, size_limit)
    return _as_monoid(a, _enumerate_maps(a, a, injective=True, reflect=True))


def aut_group(a: RelStructure, size_limit: int = DEFAULT_SIZE_LIMIT) -> GroupSet:
    """The automorphism group (self-embeddings are bijective on a finite
    carrier, so this coincides with emb_monoid there)."""
    _require_searchable(a, a, size_limit)
    return _as_monoid(a, _enumerate_maps(a, a, injective=True, reflect=True),
                      group=True)


# ---------------------------------------------------------------------------
# complement expansion
# ---------------------------------------------------------------------------

def complement_expansion(a: RelStructure) -> RelStructure:
    """Add the complement of every relation and the inequality relation.

    Endomorphisms of the expansion preserve each relation and its
    complement (hence reflect the original) and preserve inequality
    (hence are injective), so they coincide with the embeddings of the
    original structure.  On a finite carrier each complement is a set
    difference from the full product, and ``neq`` the pairs of distinct
    elements (see :func:`_all_tuples`).
    """
    signature = list(a.signature)
    relations: Dict[str, object] = dict(a.relations)
    for rel_name, arity in a.signature:
        co_name = f"co_{rel_name}"
        if any(n == co_name for n, _ in signature):
            raise ValueError(f"name {co_name!r} already taken")
        signature.append((co_name, arity))
        rel = a.relations[rel_name]
        if callable(rel):
            relations[co_name] = _negate(rel)
        else:
            relations[co_name] = _all_tuples(a.carrier.size, arity) - rel
    if any(n == "neq" for n, _ in signature):
        raise ValueError("name 'neq' already taken")
    signature.append(("neq", 2))
    if a.carrier.is_finite:
        relations["neq"] = _all_tuples(a.carrier.size, 2, distinct=True)
    else:
        relations["neq"] = lambda x, y: x != y
    new_name = f"{a.name}+complements" if a.name else None
    return RelStructure(a.carrier, signature, relations, name=new_name)


def _all_tuples(size: int, arity: int, distinct: bool = False) -> frozenset:
    """All ``arity``-tuples over range(size), or those with distinct
    entries; sets of at most 4,096 tuples come from a small cache."""
    if size ** arity > 4096:
        return _cached_tuples.__wrapped__(size, arity, distinct)
    return _cached_tuples(size, arity, distinct)


@lru_cache(maxsize=8)
def _cached_tuples(size: int, arity: int, distinct: bool) -> frozenset:
    return frozenset(permutations(range(size), arity) if distinct
                     else product(range(size), repeat=arity))


def _negate(pred: Callable) -> Callable:
    return lambda *args: not pred(*args)


# ---------------------------------------------------------------------------
# homogeneity and diagonal uniformity
# ---------------------------------------------------------------------------

def is_homogeneous(a: RelStructure, size_limit: int = DEFAULT_SIZE_LIMIT):
    """Decide homogeneity of a finite structure by stabiliser search.

    A is homogeneous when, at each level k = 1..n-1, any two k-tuples of
    distinct elements with one isomorphism type lie in one automorphism
    orbit.  If that holds at level k-1, it holds at level k exactly when,
    for one representative t of each type of (k-1)-tuple, the
    automorphisms fixing t pointwise are transitive on every class of
    elements x whose extensions t + (x,) share a type.  So the levels are
    walked breadth first from the empty tuple.  At each representative t,
    for each class, an automorphism fixing t and sending the class's first
    element to a member is searched for, for each member not yet reached
    from the first through the automorphisms found at t (the coset search
    with orbit pruning of Sims and of McKay); t extended by each class's
    first element represents the types of the next level.

    When a search fails, its level is the first failing one, and the
    witness is the smallest partial isomorphism at that level that no
    automorphism extends, found with the same pinned search
    (:func:`_smallest_witness`).  So the automorphism group is never
    listed.  Returns (True, None) or (False, witness).
    """
    _require_searchable(a, a, size_limit)
    n = a.carrier.size
    rows = _map_rows(a, a, reflect=True)
    reps = [()]
    for k in range(1, n):
        checks = rows[k - 1]
        next_reps = []
        for t in reps:
            classes: Dict[tuple, List[int]] = {}
            for x in range(n):
                if x not in t:
                    u = t + (x,)
                    classes.setdefault(tuple([get(u) in members
                                              for get, members, _ in checks]),
                                       []).append(x)
            fixed = dict(zip(t, t))
            autos: List[tuple] = []
            for first, *rest in classes.values():
                reached = _orbit({first}, autos)
                for x in rest:
                    if x in reached:
                        continue
                    auto = next(_search_maps(rows, n, True,
                                             {**fixed, first: x}), None)
                    if auto is None:
                        return False, _smallest_witness(a, k, rows)
                    autos.append(auto)
                    reached = _orbit(reached, autos)
                next_reps.append(t + (first,))
        reps = next_reps
    return True, None


def _orbit(points, autos) -> set:
    """The closure of a set of elements under the image vectors
    ``autos``."""
    orbit = set(points)
    frontier = list(orbit)
    while frontier:
        x = frontier.pop()
        for auto in autos:
            if auto[x] not in orbit:
                orbit.add(auto[x])
                frontier.append(auto[x])
    return orbit


def _smallest_witness(a: RelStructure, k: int, rows) -> PartialIso:
    """The first domain in increasing order, with the first image in
    lexicographic order, of one isomorphism type and another automorphism
    orbit, among the k-tuples of distinct elements; there must be one.

    Two such tuples have one type exactly when domain -> image is a
    partial isomorphism, and one orbit exactly when some automorphism
    extends it: when the pinned search over ``rows`` finds one.
    """
    n = a.carrier.size
    checks = [check for row in rows[:k] for check in row]
    for dom in combinations(range(n), k):
        kind = [get(dom) in members for get, members, _ in checks]
        for img in permutations(range(n), k):
            if ([get(img) in members for get, members, _ in checks] == kind
                    and next(_search_maps(rows, n, True, dict(zip(dom, img))),
                             None) is None):
                return PartialIso(a, zip(dom, img))


def is_loopless(a: RelStructure) -> bool:
    """Each relation holds on no diagonal tuple or on all of them.

    Finite structures are checked exhaustively.  Lazy structures are
    probed on the diagonal over the radius-8 window, so the answer is
    window-verified only.
    """
    if a.is_finite:
        points = list(a.carrier.elements())
    else:
        points = default_window(a.carrier, 8).sorted_points()
    for rel_name, arity in a.signature:
        hits = [a.related(rel_name, *([x] * arity)) for x in points]
        if any(hits) and not all(hits):
            return False
    return True


# ---------------------------------------------------------------------------
# the bit-adjacency graph on the naturals
# ---------------------------------------------------------------------------

def rado_adjacency(i: int, j: int) -> bool:
    """Adjacency of distinct naturals: order them and test whether the
    smaller indexes a set bit of the larger."""
    for v in (i, j):
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise ValueError(f"vertices are naturals, got {v!r}")
    if i == j:
        raise ValueError("adjacency is defined for distinct vertices only")
    if i > j:
        i, j = j, i
    return (j >> i) & 1 == 1


def rado_extension_witness(adjacent_to, not_adjacent_to) -> int:
    """A vertex adjacent to everything in the first set and nothing in
    the second: set exactly the bits named by the first set, then add one
    bit high enough to clear both sets.

    The construction is deterministic; validity can be re-checked with
    :func:`rado_adjacency`.
    """
    u = {int(x) for x in adjacent_to}
    v = {int(x) for x in not_adjacent_to}
    if u & v:
        raise ValueError(f"sets overlap: {sorted(u & v)}")
    for x in u | v:
        if x < 0:
            raise ValueError("vertices are naturals")
    offset = max(u | v) + 1 if u | v else 0
    return sum(1 << x for x in u) + (1 << offset)


# ---------------------------------------------------------------------------
# catalog structures and finite graph builders
# ---------------------------------------------------------------------------

# name -> (carrier, relation name, predicate) of each binary structure
_CATALOG = {
    "rationals-order": (RATIONALS, "lt", lambda x, y: x < y),
    "rado": (RADO, "E", lambda i, j: i != j and rado_adjacency(i, j)),
}


def catalog(name: str) -> RelStructure:
    if name not in _CATALOG:
        raise ValueError(f"unknown structure {name!r}; catalog has "
                         f"{sorted(_CATALOG)}")
    carrier, rel, pred = _CATALOG[name]
    return RelStructure(carrier, [(rel, 2)], {rel: pred}, name=name)


def catalog_name(structure: RelStructure) -> str:
    """The name of the catalog structure a structure is, by its name,
    carrier and signature; UnsupportedLazyCarrier for any other."""
    for name, (carrier, rel, _) in _CATALOG.items():
        if ((structure.name, structure.carrier, structure.signature)
                == (name, carrier, ((rel, 2),))):
            return name
    raise UnsupportedLazyCarrier(
        "back-and-forth strategies are available for the catalog "
        "structures only")


def rationals_order() -> RelStructure:
    """The dense linear order without endpoints, on exact fractions."""
    return catalog("rationals-order")


def rado_graph() -> RelStructure:
    """The countable random graph in its bit-adjacency presentation."""
    return catalog("rado")


def graph_structure(size: int, edges: Iterable[tuple],
                    name: Optional[str] = None) -> RelStructure:
    """A finite simple graph as a structure with one symmetric binary
    relation E."""
    sym = set()
    for x, y in edges:
        if x == y:
            raise ValueError("simple graphs have no loops")
        sym.add((x, y))
        sym.add((y, x))
    return RelStructure(finite_carrier(size), [("E", 2)], {"E": sym}, name=name)


def path_graph(n: int) -> RelStructure:
    return graph_structure(n, [(i, i + 1) for i in range(n - 1)],
                           name=f"path-{n}")


def cycle_graph(n: int) -> RelStructure:
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    edges = [(i, (i + 1) % n) for i in range(n)]
    return graph_structure(n, edges, name=f"cycle-{n}")


def complete_graph(n: int) -> RelStructure:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return graph_structure(n, edges, name=f"complete-{n}")


def edgeless_graph(n: int) -> RelStructure:
    return graph_structure(n, [], name=f"edgeless-{n}")


def complete_multipartite(part_sizes) -> RelStructure:
    """Complete multipartite graph; vertices are numbered part by part."""
    part_sizes = list(part_sizes)
    part_of = []
    for p, s in enumerate(part_sizes):
        part_of.extend([p] * s)
    n = len(part_of)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if part_of[i] != part_of[j]]
    label = "x".join(str(s) for s in part_sizes)
    return graph_structure(n, edges, name=f"multipartite-{label}")


# ---------------------------------------------------------------------------
# JSON forms
# ---------------------------------------------------------------------------

def structure_to_json(a: RelStructure) -> dict:
    a.require_finite()
    data = {
        "carrier": carrier_to_json(a.carrier),
        "signature": [{"name": n, "arity": arity} for n, arity in a.signature],
        "relations": {
            n: sorted([list(t) for t in a.relations[n]])
            for n, _ in a.signature
        },
    }
    if a.name:
        data["name"] = a.name
    return data


def structure_from_json(data: dict) -> RelStructure:
    carrier = carrier_from_json(data["carrier"])
    signature = [(entry["name"], entry["arity"]) for entry in data["signature"]]
    relations = {name: data["relations"][name] for name, _ in signature}
    name = data.get("name")
    if name is not None and not isinstance(name, str):
        raise ValueError(f"structure name must be a string, got {name!r}")
    return RelStructure(carrier, signature, relations, name=name)
