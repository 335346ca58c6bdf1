"""Lazily presented automorphisms and embeddings of the two catalog
structures, built by back-and-forth extension from a finite seed.

On the rational order the map is the piecewise linear automorphism
through the seed anchors: exact linear interpolation between consecutive
anchors and slope one outside them.  It is a pure function of the seed,
so query order never changes any value.  The map is evaluated on integer
(numerator, denominator) pairs: a point is placed among the anchors by
cross-multiplication and each value off the anchors is one Fraction.

On the bit-adjacency graph the map is built online.  Each new query is
answered by the smallest fresh vertex whose adjacencies to the already
matched vertices mirror those of the query point; if no vertex below the
scan cap fits, a witness is constructed directly from the required bit
pattern.  Answers are memoised, so a single map object is consistent
across queries, but the values depend on the order in which fresh
queries arrive.  Two map objects built from the same seed agree only if
queried in the same order; snapshots record exactly what has been
determined.  One state class holds every such map: the inverse view of
an automorphism shares its two memo dicts with swapped roles, and an
embedding is the same state with its avoided vertices reserved as
images of nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from operator import itemgetter
from typing import Callable, Iterator, List, Optional

from .errors import (
    BudgetExceeded,
    InterpolationFailure,
    InvalidSeed,
    UnsupportedLazyCarrier,
)
from .fnspace import RADO, RATIONALS, Carrier, FinOp, make_op, element_to_json
from .structures import RelStructure, catalog_name, rado_adjacency

DEFAULT_SCAN_CAP = 4096

# widest integer the constructive fallback may build; repeated fallbacks
# against their own huge witnesses would otherwise tower without bound
MAX_WITNESS_BITS = 1 << 16


# ---------------------------------------------------------------------------
# piecewise linear maps on the rationals
# ---------------------------------------------------------------------------

def _strictly_increasing(values) -> bool:
    """Whether canonical rational codes strictly increase, compared by
    integer cross-multiplication (denominators are positive)."""
    a = b = None
    for v in values:
        c, d = v.numerator, v.denominator
        if b is not None and a * d >= c * b:
            return False
        a, b = c, d
    return True


class _PiecewiseLinear:
    """Order automorphism of the rationals through fixed anchors,
    evaluated on integer pairs.

    Each anchor is stored once as a numerator and a denominator.  A point
    is placed among the anchors by cross-multiplication; at an anchor the
    stored image is returned, and anywhere else y0 + (x - x0)(y1 - y0) /
    (x1 - x0), or slope one outside the anchors, is worked out in
    integers and exactly one Fraction is built."""

    __slots__ = ("xs", "ys", "_xn", "_xd", "_yn", "_yd")
    order_sensitive = False

    def __init__(self, xs, ys):
        self.xs = tuple(xs)
        self.ys = tuple(ys)
        self._xn = [x.numerator for x in self.xs]
        self._xd = [x.denominator for x in self.xs]
        self._yn = [y.numerator for y in self.ys]
        self._yd = [y.denominator for y in self.ys]

    def forward(self, x):
        xn, xd = self._xn, self._xd
        n = len(xn)
        if not n:
            return x
        p, q = x.numerator, x.denominator
        lo, hi = 0, n
        while lo < hi:
            mid = (lo + hi) // 2
            if xn[mid] * q < p * xd[mid]:
                lo = mid + 1
            else:
                hi = mid
        if lo < n and xn[lo] == p and xd[lo] == q:
            return self.ys[lo]
        yn, yd = self._yn, self._yd
        if lo == 0 or lo == n:
            i = 0 if lo == 0 else n - 1
            a, b, c, d = xn[i], xd[i], yn[i], yd[i]
            return Fraction(c * q * b + d * (p * b - a * q), d * q * b)
        a0, b0, c0, d0 = xn[lo - 1], xd[lo - 1], yn[lo - 1], yd[lo - 1]
        a1, b1, c1, d1 = xn[lo], xd[lo], yn[lo], yd[lo]
        dx = q * (a1 * b0 - a0 * b1)
        return Fraction(c0 * d1 * dx
                        + (p * b0 - a0 * q) * (c1 * d0 - c0 * d1) * b1,
                        d0 * d1 * dx)

    def swapped(self) -> "_PiecewiseLinear":
        """The inverse map, over the same integer lists."""
        inv = _PiecewiseLinear.__new__(_PiecewiseLinear)
        inv.xs, inv.ys = self.ys, self.xs
        inv._xn, inv._xd = self._yn, self._yd
        inv._yn, inv._yd = self._xn, self._xd
        return inv

    def known_pairs(self):
        return list(zip(self.xs, self.ys))


# ---------------------------------------------------------------------------
# online back-and-forth on the bit-adjacency graph
# ---------------------------------------------------------------------------

def _fresh_partner(x: int, matched: dict, taken: dict, scan_cap: int) -> int:
    """The smallest vertex not in ``taken`` whose adjacencies to the
    values of ``matched`` copy those of x to its keys, falling back to a
    direct bit construction past the scan cap.

    The constructed witness sets a bit at each vertex it must touch and
    its top bit just above the bit length of the vertices it must miss,
    so witness sizes grow by one bit per fallback rather than doubling
    in length.
    """
    pattern = [(a, b, rado_adjacency(x, a)) for a, b in matched.items()]
    for w in range(scan_cap):
        if w in taken:
            continue
        if all(rado_adjacency(w, b) == adj for _, b, adj in pattern):
            return w
    like = {b for _, b, adj in pattern if adj}
    unlike = {b for _, b, adj in pattern if not adj}
    if like and max(like) + 1 > MAX_WITNESS_BITS:
        # adjacency to so large a vertex cannot be arranged by setting a
        # bit at its position; the only remaining witnesses sit at the
        # set-bit positions of that vertex, so try those directly
        huge = max(like)
        for z in _bit_positions(huge):
            if z in taken:
                continue
            if all(rado_adjacency(z, b) == adj for _, b, adj in pattern):
                return z
        raise BudgetExceeded(
            f"a fresh witness adjacent to a vertex above 2**"
            f"{MAX_WITNESS_BITS} could not be found; raise the scan cap "
            f"so small witnesses are found earlier")
    t = max(like, default=-1) + 1
    for u in unlike:
        t = max(t, u.bit_length())
    base = sum(1 << e for e in like)
    while True:
        if t > MAX_WITNESS_BITS:
            raise BudgetExceeded(
                f"a fresh witness here needs more than {MAX_WITNESS_BITS} "
                f"bits; raise the scan cap so small witnesses are found "
                f"before the constructive fallback")
        if t not in unlike:
            w = base + (1 << t)
            if w not in taken:
                return w
        t += 1


def _bit_positions(n: int):
    """The set-bit positions of a natural in increasing order, found in
    one pass over its binary digits, least significant first."""
    digits = bin(n)[:1:-1]
    pos = digits.find("1")
    while pos >= 0:
        yield pos
        pos = digits.find("1", pos + 1)


class _RadoBackForth:
    """Memoised online extension on the bit-adjacency graph.

    ``fwd`` holds the pairs matched so far and ``bwd`` the same pairs
    reversed; a key of ``bwd`` mapped to None is an image no fresh query
    may take.  The swapped state shares both dicts, so a map and its
    inverse can never drift apart.
    """

    __slots__ = ("fwd", "bwd", "scan_cap")
    order_sensitive = True

    def __init__(self, fwd: dict, bwd: dict, scan_cap: int):
        self.fwd = fwd
        self.bwd = bwd
        self.scan_cap = scan_cap

    def forward(self, x: int) -> int:
        if x in self.fwd:
            return self.fwd[x]
        w = _fresh_partner(x, self.fwd, self.bwd, self.scan_cap)
        self.fwd[x] = w
        self.bwd[w] = x
        return w

    def swapped(self) -> "_RadoBackForth":
        return _RadoBackForth(self.bwd, self.fwd, self.scan_cap)

    def known_pairs(self):
        return sorted(self.fwd.items())


# ---------------------------------------------------------------------------
# seed validation
# ---------------------------------------------------------------------------

def _seeded(structure: RelStructure, rational: bool, pairs, scan_cap: int):
    """The state of the automorphism extending a seed of the rational
    order (``rational``) or of the graph; InvalidSeed if the pairs are
    not a partial isomorphism.

    On the rational order a seed whose canonical pairs, sorted once,
    strictly increase in sources and in images is one.  Any other seed
    goes through the dict loop and the pairwise scan, which raise at the
    first conflict or foreign value in seed order.  Sources and images
    are then distinct, so for the order and the symmetric edge relation
    one test per two pairs decides both ways round."""
    canonical = structure.carrier.canonical
    pairs = list(pairs)
    if rational:
        try:
            ordered = sorted([(canonical(a), canonical(b)) for a, b in pairs],
                             key=itemgetter(0))
        except (TypeError, ValueError):
            ordered = ()
        if (ordered and _strictly_increasing(map(itemgetter(0), ordered))
                and _strictly_increasing(map(itemgetter(1), ordered))):
            return _PiecewiseLinear([a for a, _ in ordered],
                                    [b for _, b in ordered])
    seed = {}
    images = {}
    for a, b in pairs:
        a, b = canonical(a), canonical(b)
        if seed.get(a, b) != b:
            raise InvalidSeed(f"{a} is sent to both {seed[a]} and {b}")
        if images.get(b, a) != a:
            raise InvalidSeed(f"{b} is hit by both {images[b]} and {a}")
        seed[a] = b
        images[b] = a
    (name, _), = structure.signature
    items = list(seed.items())
    for i, (a, b) in enumerate(items):
        for c, d in items[i + 1:]:
            if structure.related(name, a, c) != structure.related(name, b, d):
                raise InvalidSeed(
                    f"pairs ({a}, {b}) and ({c}, {d}) disagree on "
                    f"relation {name}")
    if rational:
        xs = sorted(seed)
        return _PiecewiseLinear(xs, [seed[x] for x in xs])
    return _RadoBackForth(seed, images, scan_cap)


# ---------------------------------------------------------------------------
# the public map classes
# ---------------------------------------------------------------------------

class LazyAutomorphism:
    """An automorphism of a catalog structure, defined lazily and
    extending a finite seed of matched pairs."""

    __slots__ = ("structure", "_impl", "_inv")

    def __init__(self, structure: RelStructure, impl):
        self.structure = structure
        self._impl = impl
        self._inv = impl.swapped()

    def __call__(self, x):
        return self._impl.forward(self.structure.carrier.canonical(x))

    def inverse(self, y):
        return self._inv.forward(self.structure.carrier.canonical(y))

    def inverted(self) -> "LazyAutomorphism":
        return LazyAutomorphism(self.structure, self._inv)

    def as_op(self) -> FinOp:
        return make_op(self.structure.carrier, 1, rule=self.__call__)

    def snapshot(self) -> List[tuple]:
        """The pairs determined so far (for the rational order, the seed
        anchors; everything else is implied by them)."""
        return self._impl.known_pairs()

    @property
    def order_sensitive(self) -> bool:
        """Whether values at fresh points depend on query order."""
        return self._impl.order_sensitive

    def to_json(self) -> dict:
        carrier = self.structure.carrier
        return {
            "structure": self.structure.name,
            "order_sensitive": self.order_sensitive,
            "pairs": [[element_to_json(carrier, a), element_to_json(carrier, b)]
                      for a, b in self.snapshot()],
        }

    def __repr__(self):
        pairs = self.snapshot()
        shown = ", ".join(f"{a}->{b}" for a, b in pairs[:4])
        more = "..." if len(pairs) > 4 else ""
        return f"LazyAutomorphism({self.structure.name}: {shown}{more})"


class LazyEmbedding:
    """An injective endomorphism of the bit-adjacency graph built
    forward only; its image can be made to avoid a finite vertex set,
    which yields self-embeddings that are not automorphisms."""

    __slots__ = ("structure", "_impl", "_avoid")

    def __init__(self, structure: RelStructure, impl: _RadoBackForth, avoid):
        self.structure = structure
        self._avoid = frozenset(avoid)
        impl.bwd.update(dict.fromkeys(self._avoid))
        self._impl = impl

    def __call__(self, x):
        return self._impl.forward(self.structure.carrier.canonical(x))

    def inverse(self, y):
        y = self.structure.carrier.canonical(y)
        x = self._impl.bwd.get(y)
        if x is None:
            raise ValueError(f"{y} is not in the computed image")
        return x

    def as_op(self) -> FinOp:
        return make_op(self.structure.carrier, 1, rule=self.__call__)

    def snapshot(self) -> List[tuple]:
        return self._impl.known_pairs()

    @property
    def avoided(self) -> frozenset:
        return self._avoid

    def to_json(self) -> dict:
        carrier = self.structure.carrier
        return {
            "structure": self.structure.name,
            "avoid": sorted(self._avoid),
            "pairs": [[element_to_json(carrier, a), element_to_json(carrier, b)]
                      for a, b in self.snapshot()],
        }


# ---------------------------------------------------------------------------
# constructors and stepping
# ---------------------------------------------------------------------------

def automorphism_from(structure: RelStructure, pairs=(),
                      scan_cap: int = DEFAULT_SCAN_CAP) -> LazyAutomorphism:
    """The canonical automorphism extending a finite partial isomorphism
    of a catalog structure; InvalidSeed if the pairs are not one."""
    rational = catalog_name(structure) == "rationals-order"
    return LazyAutomorphism(structure,
                            _seeded(structure, rational, pairs, scan_cap))


def embedding_from(structure: RelStructure, pairs=(), avoid=(),
                   scan_cap: int = DEFAULT_SCAN_CAP) -> LazyEmbedding:
    """A self-embedding of the bit-adjacency graph extending the seed,
    with image disjoint from ``avoid``."""
    if catalog_name(structure) != "rado":
        raise UnsupportedLazyCarrier(
            "forward-only embeddings with avoidance are built on the "
            "bit-adjacency graph; on the rational order use "
            "automorphism_from, whose maps are embeddings already")
    seeded = _seeded(structure, False, pairs, scan_cap)
    avoid = {structure.carrier.canonical(v) for v in avoid}
    clash = avoid & seeded.bwd.keys()
    if clash:
        raise InvalidSeed(f"seed images {sorted(clash)} lie in the avoid set")
    return LazyEmbedding(structure, seeded, avoid)


# ---------------------------------------------------------------------------
# witnesses for transitivity and trivial centre
# ---------------------------------------------------------------------------

def base_point(carrier: Carrier):
    if carrier == RATIONALS:
        return Fraction(0)
    if carrier == RADO:
        return 0
    raise UnsupportedLazyCarrier("no canonical base point for this carrier")


def transitivity_witness(structure: RelStructure, a, b):
    """Automorphisms f, g and a point c with f(c) = a and g(c) = b; the
    automorphism group acts transitively, so singleton seeds always
    extend."""
    c = base_point(structure.carrier)
    f = automorphism_from(structure, [(c, a)])
    g = automorphism_from(structure, [(c, b)])
    return f, g, c


def probe_stream(carrier: Carrier) -> Iterator:
    """A deterministic stream of probe points that visits every element
    of the carrier: zero and signed Calkin-Wilf rationals, or the
    naturals in order."""
    if carrier == RATIONALS:
        def gen():
            yield Fraction(0)
            x = Fraction(1)
            while True:
                yield x
                yield -x
                x = 1 / (2 * math.floor(x) + 1 - x)
        return gen()
    if carrier == RADO:
        return count(0)
    raise UnsupportedLazyCarrier("no canonical probe stream for this carrier")


@dataclass(frozen=True)
class NoncommutingReport:
    """Outcome of a search for an automorphism that fails to commute
    with a given map; success exhibits the probe point and both
    composite values; the outcome is whether a partner was found."""

    probes_checked: int
    point: object = None
    partner: Optional[LazyAutomorphism] = None
    left: object = None
    right: object = None

    @property
    def found(self) -> bool:
        return self.partner is not None

    @property
    def outcome(self) -> str:
        return "witness-found" if self.found else "identity-on-probed-points"

    def to_json(self) -> dict:
        data = {"outcome": self.outcome, "probes_checked": self.probes_checked}
        if self.found:
            carrier = self.partner.structure.carrier
            data["point"] = element_to_json(carrier, self.point)
            data["left"] = element_to_json(carrier, self.left)
            data["right"] = element_to_json(carrier, self.right)
            data["partner"] = self.partner.to_json()
        return data


def noncommuting_witness(structure: RelStructure, f: Callable,
                         probe_budget: int = 64) -> NoncommutingReport:
    """Search for g in Aut with f(g(x)) != g(f(x)) at a probe point.

    The first probe x moved by f yields g directly: g fixes x and sends
    f(x) to a point z != f(x) chosen compatibly with the structure, so
    the composites differ at x.  A map fixing every probe gets the
    outcome "identity-on-probed-points", which on a lazy carrier is all
    a finite search can certify.
    """
    if probe_budget < 0:
        raise ValueError(
            f"probe_budget must be non-negative, got {probe_budget}")
    stream = probe_stream(structure.carrier)
    rational = catalog_name(structure) == "rationals-order"
    checked = 0
    for x in stream:  # endless, so left only by the return or the break
        if checked >= probe_budget:
            return NoncommutingReport(probes_checked=checked)
        checked += 1
        if f(x) != x:
            break
    fx = f(x)
    if rational:
        z = (x + fx) / 2
    else:
        want = rado_adjacency(x, fx)
        z = next(w for w in count(0)
                 if w not in (x, fx) and rado_adjacency(w, x) == want)
    g = automorphism_from(structure, [(x, x), (fx, z)])
    left = f(g(x))
    right = g(fx)
    return NoncommutingReport(probes_checked=checked, point=x, partner=g,
                              left=left, right=right)


# ---------------------------------------------------------------------------
# interpolation strategy for the pointwise machinery
# ---------------------------------------------------------------------------

class BackAndForthInterpolator:
    """Interpolates unary targets by automorphisms: the target restricted
    to the window becomes a seed, and the seed's canonical extension is
    the interpolant.  Fails exactly when the restriction is not a
    partial isomorphism.  The structure must be a catalog structure."""

    def __init__(self, structure: RelStructure,
                 scan_cap: int = DEFAULT_SCAN_CAP):
        self._rational = catalog_name(structure) == "rationals-order"
        self.structure = structure
        self.scan_cap = scan_cap

    def interpolant(self, f: FinOp, win) -> FinOp:
        if f.arity != 1:
            raise InterpolationFailure(
                "automorphism interpolation handles unary targets only")
        points = win.sorted_points()
        images = [f(p) for p in points]
        # a window's points are canonical, distinct and sorted, so on the
        # rational order increasing images are a seed as they stand
        if (self._rational
                and f.carrier == win.carrier == RATIONALS
                and _strictly_increasing(images)):
            return make_op(RATIONALS, 1,
                           rule=_PiecewiseLinear(points, images).forward)
        try:
            seeded = _seeded(self.structure, self._rational,
                             zip(points, images), self.scan_cap)
        except InvalidSeed as exc:
            raise InterpolationFailure(
                f"the target is not a partial isomorphism on the window: "
                f"{exc}") from exc
        return LazyAutomorphism(self.structure, seeded).as_op()
