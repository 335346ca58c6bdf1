"""Exception types shared across the workbench.

Plain ValueError/TypeError are used for ordinary construction mistakes
(bad table sizes, out-of-range elements, arity mismatches).  The types
below mark failures that callers are expected to catch and react to:
a lazy carrier fed to an enumeration-only operation, a search budget
running out, an interpolant that does not exist, and so on.
"""


class WorkbenchError(Exception):
    """Base class for the typed failures raised by this package."""


class UnsupportedLazyCarrier(WorkbenchError):
    """An operation that needs an extensional enumeration was handed a
    lazily presented carrier."""


class BudgetExceeded(WorkbenchError):
    """A bounded search (closure cap, probe budget, window chain) ran
    out before reaching a conclusion."""


class ModulusNotFound(BudgetExceeded):
    """No continuity window could be confirmed for the requested point
    within the window-chain budget."""


class InterpolationFailure(WorkbenchError):
    """No member of the given set agrees with the target map on the
    requested window.  Counts as evidence against density."""


class NoCommonAncestor(WorkbenchError, ValueError):
    """No single element is sent onto every target by members of a
    monoid: a negative answer about the monoid, not malformed input."""


class InvalidSeed(WorkbenchError):
    """A seed mapping is not a partial isomorphism of the structure it
    was offered to."""


class NotBijective(WorkbenchError):
    """A map that must be invertible (a conjugator, for instance) is
    not a bijection."""
