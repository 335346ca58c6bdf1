"""Independent reference computations used to check job outputs.

Everything here works on raw value tables, edge sets and integers and
never calls the package, so a wrong answer from the package cannot be
confirmed by the same wrong code.  These run between jobs, outside the
timed windows, and are not traced.
"""

from __future__ import annotations

import hashlib
import json
from functools import lru_cache
from itertools import permutations, product


class WrongAnswer(Exception):
    """A job returned an output that its check rejects."""


def require(condition, message):
    if not condition:
        raise WrongAnswer(message)


def fingerprint(obj):
    """A short stable hash of a JSON-able output, for the digest."""
    blob = json.dumps(obj, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# value tables: row-major, leftmost argument most significant
# ---------------------------------------------------------------------------

def index_of(args, size):
    index = 0
    for a in args:
        index = index * size + a
    return index


def projections(size, arity):
    return [tuple(args[i] for args in product(range(size), repeat=arity))
            for i in range(arity)]


def apply_coordinatewise(table, inner, size):
    """The table of table(inner_1, ..., inner_n), all inners one arity."""
    return tuple(table[index_of(col, size)] for col in zip(*inner))


def term_ops(size, generators, arity):
    """The arity-``arity`` term operations of the generators: the subpower
    generated by the projections under the generators acting
    coordinatewise.  ``generators`` is a list of (arity, table)."""
    return _term_ops(size, tuple((n, tuple(t)) for n, t in generators), arity)


@lru_cache(maxsize=None)
def _term_ops(size, generators, arity):
    found = set(projections(size, arity))
    frontier = list(found)
    while frontier:
        current = list(found)
        fresh = set()
        for n, table in generators:
            for inner in product(current, repeat=n):
                t = apply_coordinatewise(table, inner, size)
                if t not in found:
                    fresh.add(t)
        found |= fresh
        frontier = list(fresh)
    return frozenset(found)


def monoid_closure(size, generators):
    """Identity plus every composite of the unary generator tables."""
    identity = tuple(range(size))
    found = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for f in frontier:
            for g in generators:
                h = tuple(g[f[x]] for x in range(size))
                if h not in found:
                    found.add(h)
                    nxt.append(h)
        frontier = nxt
    return found


def common_ancestor(size, tables, a, b):
    """Is there a point c with f(c) = a and g(c) = b for some f, g in
    the set?"""
    return any(any(f[c] == a for f in tables) and
               any(g[c] == b for g in tables) for c in range(size))


def weakly_directed(size, tables):
    """Any two targets a, b have a common ancestor."""
    return all(common_ancestor(size, tables, a, b)
               for a in range(size) for b in range(size))


def conjugate_table(theta, table, size, arity):
    """theta(op(theta^-1(y1), ..., theta^-1(yn))) as a table."""
    inverse = [0] * size
    for x, y in enumerate(theta):
        inverse[y] = x
    return tuple(theta[table[index_of([inverse[y] for y in ys], size)]]
                 for ys in product(range(size), repeat=arity))


def check_clone_hom(size, generators, ops_by_arity, image):
    """``image`` maps (arity, table) of every source op to a target table.
    A map that fixes projections and commutes with every generator applied
    to every tuple of same-arity ops is a clone homomorphism, by induction
    on terms."""
    for m, tables in ops_by_arity.items():
        if m == 0:
            continue
        for p in projections(size, m):
            require(image[(m, p)] == p, "a projection is not fixed")
        for n, g in generators:
            g_img = image[(n, tuple(g))]
            for inner in product(tables, repeat=n):
                composite = apply_coordinatewise(g, inner, size)
                mapped = apply_coordinatewise(
                    g_img, [image[(m, t)] for t in inner], size)
                require(image[(m, composite)] == mapped,
                        "a composition identity is not preserved")


def centre(tables):
    """Members commuting with every member."""
    size = len(tables[0])
    return sorted(tuple(f) for f in tables
                  if all(tuple(f[g[x]] for x in range(size)) ==
                         tuple(g[f[x]] for x in range(size)) for g in tables))


def endo_test(tables, fixed):
    """A test for index maps of the members, in the given order: does the
    map fix the identity and the ``fixed`` tables and respect
    composition?  Returns the test and the indices it keeps fixed."""
    n, size = len(tables), len(tables[0])
    index = {tuple(t): i for i, t in enumerate(tables)}
    comp = [[index[tuple(f[g[x]] for x in range(size))] for g in tables]
            for f in tables]
    keep = {index[tuple(range(size))]} | {index[tuple(t)] for t in fixed}

    def endo(psi):
        return all(psi[k] == k for k in keep) and all(
            psi[comp[i][j]] == comp[psi[i]][psi[j]]
            for i in range(n) for j in range(n))

    return endo, keep


def injective_endos(tables, fixed):
    """Every bijective endomorphism fixing ``fixed``, by trying all
    permutations of the other members."""
    endo, keep = endo_test(tables, fixed)
    movable = [i for i in range(len(tables)) if i not in keep]
    found = []
    for images in permutations(movable):
        psi = list(range(len(tables)))
        for slot, img in zip(movable, images):
            psi[slot] = img
        if endo(psi):
            found.append(psi)
    return found


# ---------------------------------------------------------------------------
# finite graphs and one-relation structures (edge sets of ordered pairs)
# ---------------------------------------------------------------------------

def automorphisms(n, edges):
    """Permutations that preserve and reflect the relation, sorted: the
    self-embeddings of a finite structure."""
    return [p for p in permutations(range(n))
            if all(((p[a], p[b]) in edges) == ((a, b) in edges)
                   for a in range(n) for b in range(n))]


def is_partial_iso(edges, mapping):
    items = list(mapping.items())
    if len({b for _, b in items}) != len(items):
        return False
    return all(((a, c) in edges) == ((b, d) in edges)
               for a, b in items for c, d in items)


def extendable(autos, pairs):
    return any(all(p[a] == b for a, b in pairs) for p in autos)


def endomorphisms(n, edges):
    return sorted(f for f in product(range(n), repeat=n)
                  if all((f[a], f[b]) in edges for a, b in edges))


def homogeneous_graph(n, edges):
    """Gardiner's classification: a finite simple graph is homogeneous
    exactly when it or its complement is a disjoint union of cliques of
    one size, or it is the 5-cycle, or the 3x3 rook's graph."""
    complement = {(a, b) for a in range(n) for b in range(n)
                  if a != b and (a, b) not in edges}
    if _equal_cliques(n, edges) or _equal_cliques(n, complement):
        return True
    degree = [sum((a, b) in edges for b in range(n)) for a in range(n)]
    if n == 5 and set(degree) == {2}:
        return _connected(n, edges)
    if n == 9 and set(degree) == {4}:
        # srg(9, 4, 1, 2) is unique: the rook's graph
        for a in range(n):
            for b in range(a + 1, n):
                common = sum((a, c) in edges and (b, c) in edges
                             for c in range(n))
                if common != (1 if (a, b) in edges else 2):
                    return False
        return True
    return False


def _components(n, edges):
    seen, comps = set(), []
    for s in range(n):
        if s in seen:
            continue
        comp, stack = {s}, [s]
        while stack:
            a = stack.pop()
            for b in range(n):
                if (a, b) in edges and b not in comp:
                    comp.add(b)
                    stack.append(b)
        seen |= comp
        comps.append(comp)
    return comps


def _connected(n, edges):
    return len(_components(n, edges)) == 1


def _equal_cliques(n, edges):
    comps = _components(n, edges)
    if len({len(c) for c in comps}) != 1:
        return False
    return all((a, b) in edges for c in comps for a in c for b in c if a != b)


def graph_edges(n, pairs):
    return {(a, b) for a, b in pairs} | {(b, a) for a, b in pairs}


# ---------------------------------------------------------------------------
# the two lazily presented structures
# ---------------------------------------------------------------------------

def rado_adjacent(u, v):
    if u > v:
        u, v = v, u
    return (v >> u) & 1 == 1


def check_rado_partial_iso(pairs):
    """Every matched pair copies every adjacency: the answers of a lazy
    map on the bit-adjacency graph form a partial isomorphism."""
    pairs = list(pairs)
    require(len({a for a, _ in pairs}) == len(pairs), "domain repeats")
    require(len({b for _, b in pairs}) == len(pairs), "image repeats")
    for i, (a, b) in enumerate(pairs):
        for c, d in pairs[i + 1:]:
            require(rado_adjacent(a, c) == rado_adjacent(b, d),
                    f"pairs ({_short(a)}, {_short(b)}) and ({_short(c)}, "
                    f"{_short(d)}) disagree on adjacency")


def hex_vertices(values):
    """Vertices as hex strings: decimal conversion of the huge fallback
    witnesses is refused by the interpreter."""
    return [format(v, "x") for v in values]


def _short(v):
    return str(v) if v.bit_length() < 64 else f"<{v.bit_length()}-bit vertex>"


def pl_eval(anchors, x):
    """The piecewise linear map through sorted anchors, slope one outside."""
    if not anchors:
        return x
    if x <= anchors[0][0]:
        return anchors[0][1] + (x - anchors[0][0])
    if x >= anchors[-1][0]:
        return anchors[-1][1] + (x - anchors[-1][0])
    for (x0, y0), (x1, y1) in zip(anchors, anchors[1:]):
        if x0 <= x <= x1:
            return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    raise AssertionError("anchors are not sorted")


def pl_inverse(anchors, y):
    return pl_eval(sorted((b, a) for a, b in anchors), y)

