"""Pointwise convergence machinery for operation sets.

Operations on a countable carrier carry the uniformity of pointwise
convergence: two n-ary operations are close when they agree on every
argument tuple drawn from a finite window.  Everything here is phrased
in terms of such windows, so on lazy carriers every verdict is
window-verified: it certifies agreement on the named finite set and
nothing beyond it.  On finite carriers a window containing the whole
carrier makes the verdicts exact.

The central operation is interpolation: given a target operation and a
set of candidates, find a candidate that agrees with the target on the
window.  Density of one set in another at a window is interpolation of
every member of the second set from the first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .errors import InterpolationFailure
from .fnspace import (
    Bijection,
    Carrier,
    FinOp,
    Window,
    default_window,
    equal_on_window,
    op_to_json,
    window,
    window_to_json,
)


def window_chain(carrier: Carrier, k_max: int, k_min: int = 0) -> List[Window]:
    """Increasing canonical windows from radius k_min to k_max."""
    if k_min > k_max:
        raise ValueError("empty chain")
    return [default_window(carrier, k) for k in range(k_min, k_max + 1)]


@dataclass(frozen=True)
class Entourage:
    """A basic entourage of the pointwise uniformity: the pairs of
    same-arity operations that agree on every tuple over the window."""

    window: Window

    def contains(self, f: FinOp, g: FinOp) -> bool:
        return equal_on_window(f, g, self.window)

    def transported(self, theta: Bijection) -> "Entourage":
        """The image entourage under conjugation by theta: agreement on J
        becomes agreement on theta[J]."""
        moved = window(self.window.carrier,
                       [theta(p) for p in self.window.sorted_points()])
        return Entourage(moved)

    def __contains__(self, pair) -> bool:
        f, g = pair
        return self.contains(f, g)


def restriction_signature(f: FinOp, win: Window) -> tuple:
    """The tuple of values of f on the sorted argument tuples over the
    window; equal signatures mean agreement on the window."""
    if f.carrier != win.carrier:
        raise ValueError("window and operation live on different carriers")
    return tuple(f(*t) for t in win.sorted_tuples(f.arity))


def closure_at_window(ops, win: Window) -> Dict[tuple, FinOp]:
    """Group operations by their restriction to the window.

    Returns a mapping from restriction signature to the first operation
    exhibiting it; the key set is the trace of the given set on the
    window, which is all that pointwise closure at this window can see.
    """
    out: Dict[tuple, FinOp] = {}
    for op in ops:
        sig = restriction_signature(op, win)
        if sig not in out:
            out[sig] = op
    return out


def source_ops(source, arity: Optional[int] = None) -> List[FinOp]:
    """The operations of an interpolation source in its canonical order,
    only those of one arity when ``arity`` is given.

    A clone fragment is read arity by arity, a monoid set through its
    ``ops`` tuple, and anything else by iteration, so a source that
    cannot be iterated raises TypeError.
    """
    ops = getattr(source, "ops", None)
    if callable(ops):
        arities = source.arities() if arity is None else (arity,)
        return [op for n in arities for op in ops(n)]
    if ops is None:
        ops = source
    return [op for op in ops if arity is None or op.arity == arity]


def interpolant(f: FinOp, source, win: Window) -> FinOp:
    """An operation from ``source`` that agrees with f on the window.

    ``source`` may be a monoid set, a clone fragment, a plain iterable
    of operations, or any object with an ``interpolant(f, window)``
    method (lazily presented automorphism families provide one).  The
    first agreeing candidate in the source's canonical order is
    returned; if none agrees, InterpolationFailure is raised.
    """
    custom = getattr(source, "interpolant", None)
    if custom is not None:
        return custom(f, win)
    for g in source_ops(source, f.arity):
        if equal_on_window(f, g, win):
            return g
    raise InterpolationFailure(
        f"no candidate agrees with the {f.arity}-ary target on the "
        f"{len(win)}-point window")


@dataclass(frozen=True)
class DensityReport:
    """Outcome of a window density check of one operation set inside
    another, with one witness (or gap) per target operation."""

    window: Window
    witnesses: Tuple[Tuple[FinOp, Optional[FinOp]], ...] = field(repr=False)

    @property
    def matched(self) -> int:
        return sum(g is not None for _, g in self.witnesses)

    @property
    def total(self) -> int:
        return len(self.witnesses)

    @property
    def dense(self) -> bool:
        return self.matched == self.total

    @property
    def verdict(self) -> str:
        return "dense-at-window" if self.dense else "gap-found"

    def gaps(self) -> List[FinOp]:
        return [f for f, g in self.witnesses if g is None]

    def to_json(self) -> dict:
        def op_json(op):
            if op is None:
                return None
            if op.carrier.is_finite:
                return op_to_json(op)
            return {"arity": op.arity, "name": repr(op)}

        return {
            "window": window_to_json(self.window),
            "verdict": self.verdict,
            "matched": self.matched,
            "total": self.total,
            "witnesses": [
                {"target": op_json(f), "interpolant": op_json(g)}
                for f, g in self.witnesses
            ],
        }


def is_dense_at_window(source, targets, win: Window) -> DensityReport:
    """Check that every target operation is interpolated by the source
    at the window.  The verdict is exact on a finite carrier whose
    window is the whole carrier, and window-verified otherwise."""
    witnesses = []
    for f in targets:
        try:
            g = interpolant(f, source, win)
        except InterpolationFailure:
            g = None
        witnesses.append((f, g))
    return DensityReport(window=win, witnesses=tuple(witnesses))


def density_profile(source, targets, windows) -> List[DensityReport]:
    """Density reports along a chain of windows; density can only be
    lost, never gained, as the window grows."""
    targets = list(targets)
    return [is_dense_at_window(source, targets, win) for win in windows]
