"""Carriers, finitary operations, and windows of pointwise agreement.

The basic objects of the workbench live here.  A :class:`Carrier` is the
underlying set an operation acts on.  Finite carriers are ``{0, ..., n-1}``;
the two lazily presented countable carriers are the rationals as exact
`fractions.Fraction` values and the natural numbers viewed as vertices of
the bit-adjacency random graph.

A :class:`FinOp` is an operation of fixed finite arity on a carrier.  On a
finite carrier it is stored extensionally as a value table in row-major
order (leftmost argument most significant).  :func:`compose_tables`
composes such tables directly, and :func:`close_tables`, the one closure
loop of the package, closes a set of tables under a list of generators:
it builds both the arity levels of a clone fragment and transformation
monoids.  On a lazy carrier an operation is given by a deterministic rule
and memoised, so evaluation is observationally pure.

A :class:`Window` is a finite subset of a carrier.  Two operations of the
same arity are "close at window J" when they agree on every argument tuple
drawn from J.  All topological statements made elsewhere in the package
reduce to such finite window checks.

No floating point is used anywhere: rational elements are exact fractions
and every equality test is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Any, Callable, Iterator, Optional

from .errors import BudgetExceeded, NotBijective, UnsupportedLazyCarrier

# ---------------------------------------------------------------------------
# carriers
# ---------------------------------------------------------------------------

FINITE = "finite"
RATIONALS_KIND = "rationals"
RADO_KIND = "rado"


@dataclass(frozen=True)
class Carrier:
    """The set an operation acts on.

    ``kind`` is one of ``finite``, ``rationals`` or ``rado``.  Finite
    carriers have elements 0..size-1.  The rationals carrier uses
    Fraction codes (ints are accepted and canonicalised).  The rado
    carrier uses the natural numbers.
    """

    kind: str
    size: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in (FINITE, RATIONALS_KIND, RADO_KIND):
            raise ValueError(f"unknown carrier kind {self.kind!r}")
        if self.kind == FINITE:
            if not isinstance(self.size, int) or self.size < 1:
                raise ValueError("finite carrier needs a positive size")

    @property
    def is_finite(self) -> bool:
        return self.kind == FINITE

    def elements(self) -> range:
        """All elements, finite carriers only."""
        self.require_finite()
        return range(self.size)  # type: ignore[arg-type]

    def require_finite(self) -> None:
        if not self.is_finite:
            raise UnsupportedLazyCarrier(
                f"operation needs a finite carrier, got {self.kind!r}"
            )

    def contains(self, x: Any) -> bool:
        if self.kind == FINITE:
            return isinstance(x, int) and not isinstance(x, bool) and 0 <= x < self.size
        if self.kind == RATIONALS_KIND:
            return isinstance(x, (int, Fraction)) and not isinstance(x, bool)
        return isinstance(x, int) and not isinstance(x, bool) and x >= 0

    def canonical(self, x: Any) -> Any:
        """Canonical code of an element (Fraction in lowest terms on the
        rationals, the int itself elsewhere).  Raises on foreign values."""
        if self.kind == RATIONALS_KIND:
            if type(x) is Fraction:
                return x
            if isinstance(x, float):
                raise TypeError("floats are not rational codes, use Fraction")
            if isinstance(x, int) and not isinstance(x, bool):
                return Fraction(x)
            if isinstance(x, Fraction):
                return x
            raise ValueError(f"{x!r} is not an element of the rationals carrier")
        if not self.contains(x):
            raise ValueError(f"{x!r} is not an element of carrier {self}")
        return x


def finite_carrier(size: int) -> Carrier:
    return Carrier(FINITE, size=size)


RATIONALS = Carrier(RATIONALS_KIND)
RADO = Carrier(RADO_KIND)


# ---------------------------------------------------------------------------
# row-major tuple coding for finite value tables
# ---------------------------------------------------------------------------

def tuple_to_index(args: tuple, size: int) -> int:
    """Row-major code of an argument tuple, leftmost argument most
    significant."""
    index = 0
    for a in args:
        index = index * size + a
    return index


def index_to_tuple(index: int, size: int, arity: int) -> tuple:
    """Inverse of :func:`tuple_to_index`."""
    if not 0 <= index < size ** arity:
        raise ValueError(f"index {index} out of range for size {size} arity {arity}")
    out = []
    for _ in range(arity):
        index, digit = divmod(index, size)
        out.append(digit)
    out.reverse()
    return tuple(out)


def all_tuples(elements, arity: int) -> Iterator[tuple]:
    """Argument tuples over a finite element list, row-major order."""
    return product(elements, repeat=arity)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

class FinOp:
    """A finitary operation on a carrier.

    Finite carrier: extensional, ``table[tuple_to_index(args, size)]`` is
    the value.  Lazy carrier: a deterministic rule, memoised per argument
    tuple.  Nullary operations are allowed; their table has one entry and
    they are called with no arguments.

    Finite operations compare by (carrier, arity, table) and hash by
    their table alone, which equal operations share; lazy operations
    compare by identity since extensional equality is not decidable.
    """

    __slots__ = ("carrier", "arity", "table", "rule", "label", "_memo")

    def __init__(self, carrier: Carrier, arity: int, table=None, rule=None,
                 label: Optional[str] = None):
        if not isinstance(arity, int) or arity < 0:
            raise ValueError(f"arity must be a non-negative int, got {arity!r}")
        if (table is None) == (rule is None):
            raise ValueError("give exactly one of table, rule")
        self.carrier = carrier
        self.arity = arity
        self.label = label
        self.rule = rule
        self._memo = {} if rule is not None else None
        if table is not None:
            carrier.require_finite()
            table = tuple(table)
            expected = carrier.size ** arity
            if len(table) != expected:
                raise ValueError(
                    f"table has {len(table)} entries, expected {expected} "
                    f"(size {carrier.size}, arity {arity})"
                )
            size = carrier.size
            for v in table:
                if ((type(v) is not int or not 0 <= v < size)
                        and not carrier.contains(v)):
                    raise ValueError(f"table value {v!r} outside carrier")
            self.table = table
        else:
            self.table = None

    def __call__(self, *args):
        if len(args) != self.arity:
            raise ValueError(f"expected {self.arity} arguments, got {len(args)}")
        if self.table is not None:
            for a in args:
                if not self.carrier.contains(a):
                    raise ValueError(f"argument {a!r} outside carrier")
            return self.table[tuple_to_index(args, self.carrier.size)]
        key = tuple(map(self.carrier.canonical, args))
        # a canonical code is never None: one probe tells a hit from a miss
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = self.carrier.canonical(self.rule(*key))
        return value

    def __eq__(self, other):
        if not isinstance(other, FinOp):
            return NotImplemented
        if self.table is None or other.table is None:
            return self is other
        return (self.carrier == other.carrier and self.arity == other.arity
                and self.table == other.table)

    def __hash__(self):
        if self.table is None:
            return object.__hash__(self)
        return hash(self.table)

    def __repr__(self):
        if self.label:
            return f"FinOp({self.label}, arity={self.arity})"
        if self.table is not None:
            return f"FinOp(arity={self.arity}, table={list(self.table)})"
        return f"FinOp(arity={self.arity}, rule={self.rule!r})"


def make_op(carrier: Carrier, arity: int, table=None, rule=None,
            label: Optional[str] = None) -> FinOp:
    """Build an operation from a value table (finite carriers) or from a
    deterministic rule (any carrier)."""
    return FinOp(carrier, arity, table=table, rule=rule, label=label)


def projection(carrier: Carrier, n: int, i: int) -> FinOp:
    """The i-th of n argument projections (1-based, so i ranges 1..n)."""
    if n < 1 or not 1 <= i <= n:
        raise ValueError(f"projection indices out of range: n={n}, i={i}")
    if carrier.is_finite:
        size = carrier.size
        table = [args[i - 1] for args in all_tuples(range(size), n)]
        return FinOp(carrier, n, table=table, label=f"e_{i}^{n}")
    return FinOp(carrier, n, rule=lambda *args: args[i - 1], label=f"e_{i}^{n}")


def identity_op(carrier: Carrier) -> FinOp:
    return projection(carrier, 1, 1)


def constant_op(carrier: Carrier, value, arity: int = 0) -> FinOp:
    """The constant operation with the given value and arity."""
    if carrier.is_finite:
        return FinOp(carrier, arity, table=[value] * (carrier.size ** arity))
    fixed = carrier.canonical(value)
    return FinOp(carrier, arity, rule=lambda *args: fixed)


def compose_tables(f_table, g_tables, size: int, m: int) -> tuple:
    """The value table of f(g1(xs), ..., gn(xs)) from raw row-major tables.

    ``f_table`` is n-ary and each of the n ``g_tables`` is m-ary over
    ``size`` points; nothing is validated.  For nullary f the result is
    the constant m-ary table.  Every finite composition in the package
    goes through here.
    """
    if not g_tables:
        return (f_table[0],) * size ** m
    index = g_tables[0]
    for g in g_tables[1:]:
        index = [i * size + v for i, v in zip(index, g)]
    return tuple(map(f_table.__getitem__, index))


def inverse_table(table):
    """The inverse of a unary permutation table, or None if the table is
    not a permutation of its own index range."""
    size = len(table)
    if sorted(table) != list(range(size)):
        return None
    inv = [0] * size
    for x, y in enumerate(table):
        inv[y] = x
    return tuple(inv)


def close_tables(seeds, gens, size: int, m: int, cap: int) -> list:
    """The m-ary tables generated from ``seeds`` by applying ``gens``.

    ``seeds`` are m-ary value tables and ``gens`` are ``(arity, table)``
    pairs over ``size`` points; nullary generators apply to nothing.  One
    worklist of the tables found, in discovery order, seeds first: the
    table taken from it is put in every argument position of every
    generator, the earlier positions filled from the tables taken
    before it and the later ones from those taken up to it.  So each
    tuple of found tables is composed exactly once, when its last-found
    member leaves the worklist, and the result is closed under every
    generator.  Raises :class:`BudgetExceeded` as soon as more than
    ``cap`` tables are found.
    """
    found = list(dict.fromkeys(seeds))
    known = set(found)
    gens = list(dict.fromkeys(gens))
    overflow = f"closure exceeded {cap} tables at arity {m}"
    if len(found) > cap:
        raise BudgetExceeded(overflow)
    wide = any(n > 1 for n, _ in gens)
    for k, table in enumerate(found):
        # only generators of arity 2 or more read the other positions
        before, upto = (found[:k], found[:k + 1]) if wide else ((), ())
        for n, g in gens:
            for i in range(n):
                pools = [before] * i + [(table,)] + [upto] * (n - i - 1)
                for gs in product(*pools):
                    h = compose_tables(g, gs, size, m)
                    if h not in known:
                        known.add(h)
                        found.append(h)
                        if len(found) > cap:
                            raise BudgetExceeded(overflow)
    return found


def compose(f: FinOp, gs, target_arity: Optional[int] = None) -> FinOp:
    """Composition f(g1(xs), ..., gn(xs)) where f is n-ary and every g is
    m-ary on the same carrier; the result is m-ary.

    For nullary f the inner list is empty, so the target arity cannot be
    inferred and must be passed explicitly (default 0).
    """
    gs = tuple(gs)
    if len(gs) != f.arity:
        raise ValueError(f"need {f.arity} inner operations, got {len(gs)}")
    for g in gs:
        if g.carrier != f.carrier:
            raise ValueError("composition across different carriers")
    if gs:
        m = gs[0].arity
        if any(g.arity != m for g in gs):
            raise ValueError("inner operations must share one arity")
        if target_arity is not None and target_arity != m:
            raise ValueError("target_arity disagrees with inner arities")
    else:
        m = 0 if target_arity is None else target_arity
    carrier = f.carrier
    if carrier.is_finite and f.table is not None and all(g.table is not None for g in gs):
        table = compose_tables(f.table, [g.table for g in gs], carrier.size, m)
        return FinOp(carrier, m, table=table)

    def composed(*args):
        return f(*(g(*args) for g in gs))

    return FinOp(carrier, m, rule=composed)


# ---------------------------------------------------------------------------
# windows
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Window:
    """A finite subset J of a carrier.  Agreement on J^arity is the basic
    entourage of the pointwise-convergence uniformity.

    Windows are immutable, so the points are canonicalised and sorted
    once, when the window is made."""

    carrier: Carrier
    points: frozenset

    def __post_init__(self) -> None:
        # a frozenset of canonical codes is kept as it is, so its points
        # are not hashed a second time
        points = self.points
        canonical = self.carrier.canonical
        if (type(points) is not frozenset
                or any(canonical(p) is not p for p in points)):
            points = frozenset(map(canonical, points))
            object.__setattr__(self, "points", points)
        object.__setattr__(self, "_sorted", tuple(sorted(points)))

    def sorted_points(self) -> list:
        return list(self._sorted)

    def sorted_tuples(self, arity: int) -> Iterator[tuple]:
        """All argument tuples over the window, in sorted row-major order."""
        return product(self._sorted, repeat=arity)

    def union(self, extra) -> "Window":
        pts = set(self.points)
        for p in extra:
            pts.add(self.carrier.canonical(p))
        return Window(self.carrier, frozenset(pts))

    def __contains__(self, x) -> bool:
        return self.carrier.canonical(x) in self.points

    def __len__(self) -> int:
        return len(self.points)


def window(carrier: Carrier, points) -> Window:
    return Window(carrier, frozenset(points))


@lru_cache(maxsize=32)
def default_window(carrier: Carrier, k: int) -> Window:
    """The canonical radius-k window: integers -k..k on the rationals,
    0..k on the naturals, 0..min(k, size-1) on finite carriers.  Windows
    are immutable, so the 32 most recently used are kept and shared."""
    if carrier.is_finite:
        points = range(min(k + 1, carrier.size))
    elif carrier == RATIONALS:
        points = range(-k, k + 1)
    else:
        points = range(k + 1)
    return window(carrier, points)


def equal_on_window(f1: FinOp, f2: FinOp, win: Window) -> bool:
    """True when f1 and f2 agree on every argument tuple from the window.

    Both operations must have the same arity and live on the window's
    carrier.  An empty window makes any two same-arity operations equal.
    """
    if f1.arity != f2.arity:
        raise ValueError("cannot compare operations of different arity")
    if f1.carrier != win.carrier or f2.carrier != win.carrier:
        raise ValueError("operations and window live on different carriers")
    for args in win.sorted_tuples(f1.arity):
        if f1(*args) != f2(*args):
            return False
    return True


# ---------------------------------------------------------------------------
# invertible unary maps
# ---------------------------------------------------------------------------

class Bijection:
    """A bijection of a carrier with an explicit inverse.

    Used wherever a conjugator is needed.  ``b(x)`` evaluates forward,
    ``b.inverse(y)`` evaluates backward, and ``b.inverted()`` swaps the
    two.  Finite bijections are built from permutation tables; lazy ones
    from a pair of mutually inverse callables.  Lazy automorphism objects
    from the back-and-forth module satisfy the same calling convention and
    can be used interchangeably.
    """

    __slots__ = ("carrier", "_fwd", "_bwd", "table", "label")

    def __init__(self, carrier: Carrier, fwd: Callable, bwd: Callable,
                 table=None, label: Optional[str] = None):
        self.carrier = carrier
        self._fwd = fwd
        self._bwd = bwd
        self.table = table
        self.label = label

    @classmethod
    def from_table(cls, carrier: Carrier, table) -> "Bijection":
        carrier.require_finite()
        table = tuple(table)
        inv = inverse_table(table)
        if inv is None or len(inv) != carrier.size:
            raise NotBijective(f"table {list(table)} is not a permutation")
        return cls(carrier, lambda x: table[x], lambda y: inv[y], table=table)

    @classmethod
    def from_op(cls, op: FinOp) -> "Bijection":
        if op.arity != 1:
            raise NotBijective("only unary operations can be bijections")
        if op.table is None:
            raise NotBijective("lazy operation has no table to invert")
        return cls.from_table(op.carrier, op.table)

    @classmethod
    def identity(cls, carrier: Carrier) -> "Bijection":
        if carrier.is_finite:
            return cls.from_table(carrier, range(carrier.size))
        return cls(carrier, lambda x: x, lambda y: y, label="identity")

    def __call__(self, x):
        return self._fwd(x)

    def inverse(self, y):
        return self._bwd(y)

    def inverted(self) -> "Bijection":
        inv_table = None if self.table is None else inverse_table(self.table)
        return Bijection(self.carrier, self._bwd, self._fwd, table=inv_table)

    def as_op(self) -> FinOp:
        if self.table is not None:
            return FinOp(self.carrier, 1, table=self.table, label=self.label)
        return FinOp(self.carrier, 1, rule=self._fwd, label=self.label)

    def __repr__(self):
        if self.table is not None:
            return f"Bijection(table={list(self.table)})"
        return f"Bijection({self.label or self._fwd!r})"


def as_bijection(theta, carrier: Carrier) -> Any:
    """Normalise a conjugator argument.

    Accepts a Bijection, a unary FinOp with a permutation table, or any
    object with ``__call__`` and ``inverse`` (lazy automorphisms).
    """
    if isinstance(theta, FinOp):
        return Bijection.from_op(theta)
    if callable(theta) and hasattr(theta, "inverse"):
        return theta
    raise NotBijective(f"{theta!r} cannot act as a bijection")


def conjugate_op(theta, op: FinOp) -> FinOp:
    """The operation theta(op(theta^-1(y1), ..., theta^-1(yn))).

    Finite carriers get an extensional table; lazy carriers a lazy rule.
    Conjugating every operation of a set by the same bijection preserves
    all compositional structure, which is what the clone layer builds on.
    """
    theta = as_bijection(theta, op.carrier)
    carrier = op.carrier
    if carrier.is_finite:
        size = carrier.size
        table = []
        for ys in all_tuples(range(size), op.arity):
            xs = tuple(theta.inverse(y) for y in ys)
            table.append(theta(op(*xs)))
        return FinOp(carrier, op.arity, table=table)

    def conjugated(*ys):
        return conjugate_at(theta, op, ys)

    return FinOp(carrier, op.arity, rule=conjugated)


def conjugate_at(theta: Bijection, op: FinOp, args: tuple):
    """The value of conjugate_op(theta, op) at one argument tuple, read
    without building the conjugate, with the checks and errors the whole
    conjugate gives there."""
    if len(args) != op.arity:
        raise ValueError(f"expected {op.arity} arguments, got {len(args)}")
    carrier = op.carrier
    if carrier.is_finite:
        for a in args:
            if not carrier.contains(a):
                raise ValueError(f"argument {a!r} outside carrier")
        return theta(op(*[theta.inverse(a) for a in args]))
    canonical = carrier.canonical
    return canonical(theta(op(*[theta.inverse(canonical(b)) for b in args])))


# ---------------------------------------------------------------------------
# JSON forms
# ---------------------------------------------------------------------------

def exact_int(value, what: str) -> int:
    """An exact int as it is; a float, a bool or anything else raises."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def carrier_to_json(carrier: Carrier) -> dict:
    if carrier.kind == FINITE:
        return {"kind": "finite", "size": carrier.size}
    if carrier.kind == RATIONALS_KIND:
        return {"kind": "rationals"}
    return {"kind": "rado"}


def carrier_from_json(data: dict) -> Carrier:
    kind = data.get("kind")
    if kind == "finite":
        return finite_carrier(exact_int(data["size"], "carrier size"))
    if kind == "rationals":
        return RATIONALS
    if kind == "rado":
        return RADO
    raise ValueError(f"unknown carrier kind in JSON: {kind!r}")


def element_to_json(carrier: Carrier, x):
    x = carrier.canonical(x)
    if isinstance(x, Fraction):
        return str(x)
    return x


def element_from_json(carrier: Carrier, data):
    if carrier.kind == RATIONALS_KIND:
        # JSON true and false are not 1 and 0 here, as on every carrier,
        # and a zero denominator is malformed input like any other
        if isinstance(data, int) and not isinstance(data, bool):
            return Fraction(data)
        if isinstance(data, str):
            try:
                return Fraction(data)
            except ZeroDivisionError:
                pass
        raise ValueError(f"bad rational element JSON: {data!r}")
    if not isinstance(data, int):
        raise ValueError(f"bad element JSON: {data!r}")
    return carrier.canonical(data)


def op_to_json(op: FinOp) -> dict:
    if op.table is None:
        raise UnsupportedLazyCarrier("lazy operations have no table JSON form")
    return {
        "arity": op.arity,
        "carrier": carrier_to_json(op.carrier),
        "table": list(op.table),
    }


def op_from_json(data: dict, carrier: Optional[Carrier] = None) -> FinOp:
    if carrier is None:
        carrier = carrier_from_json(data["carrier"])
    return FinOp(carrier, exact_int(data["arity"], "arity"),
                 table=data["table"])


def window_to_json(win: Window) -> dict:
    return {
        "carrier": carrier_to_json(win.carrier),
        "points": [element_to_json(win.carrier, p) for p in win.sorted_points()],
    }


def window_from_json(data: dict) -> Window:
    carrier = carrier_from_json(data["carrier"])
    pts = [element_from_json(carrier, p) for p in data["points"]]
    return Window(carrier, frozenset(pts))
