"""Exception hierarchy for knotsig.

Every error raised on a bad input or violated precondition derives from
KnotsigError, so callers (and the CLI) can distinguish computation errors
from genuine bugs, which surface as plain AssertionError/ArithmeticError.
"""


class KnotsigError(Exception):
    """Base class for all errors raised by knotsig on invalid input."""


class DivisibilityError(KnotsigError):
    """Exact polynomial division was requested but the remainder is nonzero."""


class SymmetryError(KnotsigError):
    """A self-reciprocal (palindromic) polynomial was required."""


class ParityError(KnotsigError):
    """An evenness condition failed (polynomial span, doubled signature value...)."""


class SquarefreeError(KnotsigError):
    """A squarefree polynomial was required."""


class SingularSampleError(KnotsigError):
    """A sample point hit a root of the Alexander polynomial."""


class SeifertInvariantError(KnotsigError):
    """A matrix is not a valid Seifert matrix (odd size or det(V - V^T) != 1)."""


class ExpressionError(KnotsigError):
    """A knot expression failed to parse or to resolve."""


class BraidError(KnotsigError):
    """A braid word is malformed or its closure is not a knot."""


class SearchBoundError(KnotsigError):
    """The move-lattice search exhausted its bounding box without reaching the target."""


class TableError(KnotsigError):
    """A built-in or user-supplied knot table entry failed validation."""
