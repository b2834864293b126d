"""Exception hierarchy shared by all isocut modules."""


class IsocutError(Exception):
    """Base class for every error raised by this package."""


class DomainError(IsocutError, ValueError):
    """A parameter is outside the range an operation is defined for."""


class UnsupportedError(IsocutError):
    """The request is well-formed but deliberately out of scope.

    Examples: super/average connectivity for a degree threshold that is not a
    whole number of sub-layer dimensions, or the embedded predicate on a graph
    without Hamming coordinates.
    """


class InfeasibleError(IsocutError):
    """No vertex set or partition satisfies the requested condition."""


class BudgetError(IsocutError):
    """A configured resource cap would be exceeded."""


class CapError(BudgetError, OverflowError):
    """Materializing the graph would exceed the vertex cap."""


class SubsetBudgetError(BudgetError):
    """Exhaustive enumeration would visit more subsets than allowed."""


class VerificationError(IsocutError):
    """A verification suite found a mismatch."""
