"""Pointwise extension of operation-set homomorphisms.

A homomorphism defined on a set of operations (typically an automorphism
group sitting densely inside an endomorphism monoid) extends to further
operations one value at a time: to evaluate the image of f at a point,
take any operation g from the domain that agrees with f on a small
window, and read the image of g at that point instead.  The window that
suffices is recorded by a continuity modulus, one per :class:`HomMap`,
which every extension and audit below reads; for conjugation by theta
the modulus at a point b is the single preimage theta^-1(b), since the
conjugate's value at b depends on nothing else.

Nothing here assumes the interpolant is unique.  Well-definedness, the
homomorphism law, and agreement with direct conjugation are checked by
explicit sampling, and every verdict names the windows and points it
actually examined.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Callable, Optional, Sequence

from .errors import InterpolationFailure, ModulusNotFound
from .fnspace import (
    Carrier,
    FinOp,
    Window,
    all_tuples,
    as_bijection,
    compose,
    conjugate_at,
    conjugate_op,
    default_window,
    make_op,
    window,
)
from .topology import interpolant, restriction_signature, source_ops


@dataclass(frozen=True)
class ContinuityModulus:
    """Assigns to each target argument tuple the window of source points
    whose values determine the extended operation there."""

    fn: Callable[[tuple], Window]
    description: str = ""

    def __call__(self, args: tuple) -> Window:
        return self.fn(tuple(args))

    def __repr__(self):
        return f"ContinuityModulus({self.description or 'custom'})"


def conjugation_modulus(theta, carrier: Carrier) -> ContinuityModulus:
    """The modulus of conjugation by theta: the value of the conjugate at
    (b1, ..., bn) is determined by the original on the preimages
    theta^-1(bi)."""
    theta = as_bijection(theta, carrier)
    return ContinuityModulus(
        fn=lambda args: window(carrier, [theta.inverse(b) for b in args]),
        description="preimages of the target points under the conjugator")


class HomMap:
    """A homomorphism of operation sets, given either as conjugation by a
    bijection or by an explicit oracle, together with the interpolation
    source used to extend it beyond its domain.

    ``source`` is anything the interpolation machinery accepts: a monoid
    set, a clone fragment, a plain iterable of operations, or a strategy
    object such as a back-and-forth interpolator.
    """

    __slots__ = ("carrier", "source", "theta", "oracle", "modulus")

    def __init__(self, carrier: Carrier, source, theta=None,
                 oracle: Optional[Callable[[FinOp], FinOp]] = None,
                 modulus: Optional[ContinuityModulus] = None):
        if (theta is None) == (oracle is None):
            raise ValueError("give exactly one of theta and oracle")
        self.carrier = carrier
        self.source = source
        self.theta = as_bijection(theta, carrier) if theta is not None else None
        self.oracle = oracle
        if modulus is None and self.theta is not None:
            modulus = conjugation_modulus(self.theta, carrier)
        self.modulus = modulus

    @property
    def mode(self) -> str:
        return "conjugation" if self.theta is not None else "oracle"

    def apply(self, g: FinOp) -> FinOp:
        """The image of a domain operation."""
        if self.theta is not None:
            return conjugate_op(self.theta, g)
        image = self.oracle(g)
        if not isinstance(image, FinOp):
            raise TypeError("the oracle must return an operation")
        return image

    def image_at(self, g: FinOp, args: tuple):
        """The image of a domain operation evaluated at one argument tuple:
        for conjugation read there alone (:func:`conjugate_at`), for an
        oracle built and called."""
        if self.theta is None:
            return self.apply(g)(*args)
        return conjugate_at(self.theta, g, args)

    def _window_at(self, args: tuple) -> Window:
        if self.modulus is None:
            raise ValueError(
                "an oracle homomorphism needs a continuity modulus to "
                "be extended; derive one or pass it explicitly")
        return self.modulus(args)

    def extend_at(self, f: FinOp, args):
        """The extended image of f evaluated at one argument tuple.

        An interpolant g for f on the modulus window is drawn from the
        source, and the image of g supplies the value.
        """
        if not isinstance(args, tuple):
            args = (args,)
        if len(args) != f.arity:
            raise ValueError(f"expected {f.arity} arguments, got {len(args)}")
        g = interpolant(f, self.source, self._window_at(args))
        return self.image_at(g, args)

    def extended_op(self, f: FinOp) -> FinOp:
        """The extended image of f as an operation, evaluated pointwise
        through the modulus; eager on finite carriers, lazy otherwise."""
        if self.carrier.is_finite:
            table = [self.extend_at(f, args)
                     for args in all_tuples(self.carrier.elements(), f.arity)]
            return make_op(self.carrier, f.arity, table=table)
        return make_op(self.carrier, f.arity,
                       rule=lambda *args: self.extend_at(f, args))


# ---------------------------------------------------------------------------
# deriving a modulus by search
# ---------------------------------------------------------------------------

def derive_modulus(hom: HomMap, args, ops: Optional[Sequence[FinOp]] = None,
                   start: Optional[Window] = None,
                   max_k: int = 8) -> Window:
    """Search for a small window whose agreement forces agreement of
    images at the given argument tuple.

    Candidate windows come from the canonical chain; the first one on
    which equality of restrictions implies equality of image values is
    then shrunk greedily, dropping points in ascending order while the
    property survives.  The check runs over ``ops`` (the enumerated
    source by default), so on lazy carriers it certifies the sample
    only.  ModulusNotFound is raised when no window up to radius
    ``max_k`` works.
    """
    if not isinstance(args, tuple):
        args = (args,)
    if ops is None:
        try:
            ops = source_ops(hom.source)
        except TypeError:
            raise ModulusNotFound(
                "the source cannot be enumerated; pass a sample of "
                "operations explicitly") from None
    ops = list(ops)
    if not ops:
        raise ModulusNotFound("no operations to test the window against")
    images = [hom.image_at(g, args) for g in ops]

    def works(win: Window) -> bool:
        classes = {}
        for g, value in zip(ops, images):
            sig = restriction_signature(g, win)
            if classes.setdefault(sig, value) != value:
                return False
        return True

    candidate = None
    if start is not None and works(start):
        candidate = start
    else:
        for k in range(max_k + 1):
            win = default_window(hom.carrier, k)
            if works(win):
                candidate = win
                break
    if candidate is None:
        raise ModulusNotFound(
            f"no window of radius up to {max_k} determines the image "
            f"value at {args}")
    points = candidate.sorted_points()
    for p in list(points):
        rest = [q for q in points if q != p]
        win = window(hom.carrier, rest)
        if works(win):
            points = rest
    return window(hom.carrier, points)


# ---------------------------------------------------------------------------
# verification by sampling
# ---------------------------------------------------------------------------

def check_well_defined(hom: HomMap, f: FinOp, args,
                       extra_paths: int = 3) -> dict:
    """Evaluate the extension at one tuple along several interpolation
    windows and report whether every successful path agrees.

    Paths enlarge the modulus window by fresh canonical probe points, so
    different interpolants may be chosen; failed interpolations are
    reported with a null value and do not count against consistency.
    """
    if extra_paths < 0:
        raise ValueError(f"extra_paths must be non-negative, got {extra_paths}")
    if not isinstance(args, tuple):
        args = (args,)
    base = win = hom._window_at(args)
    points = default_window(hom.carrier, 2 * extra_paths + 2).sorted_points()
    probes = list(islice((p for p in points if p not in base), extra_paths))
    witnesses = []
    values = []
    for path in range(extra_paths + 1):
        if 0 < path <= len(probes):
            win = win.union([probes[path - 1]])
        try:
            g = interpolant(f, hom.source, win)
            value = hom.image_at(g, args)
            values.append(value)
        except InterpolationFailure:
            value = None
        witnesses.append({"window": win.sorted_points(), "value": value})
    return {
        "value": values[0] if values else None,
        "paths": len(witnesses),
        "consistent": bool(values) and all(v == values[0] for v in values),
        "witnesses": witnesses,
    }


def check_hom_law(hom: HomMap, f1: FinOp, f2: FinOp, points) -> dict:
    """Compare the extension of a composite with the composite of
    extensions at sample points: both unary operations are extended and
    the two evaluation orders must give the same value."""
    composite = compose(f1, [f2])
    checks = []
    for b in points:
        left = hom.extend_at(composite, (b,))
        inner = hom.extend_at(f2, (b,))
        right = hom.extend_at(f1, (inner,))
        checks.append({"point": b, "left": left, "right": right,
                       "agree": left == right})
    return {"agree": all(c["agree"] for c in checks), "checks": checks}


def check_conjugation_transfer(hom: HomMap, f: FinOp, points) -> dict:
    """Compare the extension against direct conjugation at sample
    points; for a conjugation homomorphism the two must coincide
    exactly."""
    if hom.theta is None:
        raise ValueError("transfer comparison needs a conjugation "
                         "homomorphism")
    checks = []
    for args in points:
        if not isinstance(args, tuple):
            args = (args,)
        via_extension = hom.extend_at(f, args)
        direct = hom.theta(f(*(hom.theta.inverse(b) for b in args)))
        checks.append({"point": args if len(args) > 1 else args[0],
                       "left": via_extension, "right": direct,
                       "agree": via_extension == direct})
    return {"agree": all(c["agree"] for c in checks), "checks": checks}
