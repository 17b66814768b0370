"""Exception types shared across the package."""


class PivotforgeError(Exception):
    """Base class for all package-specific errors."""


class InfeasiblePointError(PivotforgeError):
    """Raised when a point violates a bound of its box program."""


class NotAVertexError(PivotforgeError):
    """Raised when an operation defined only on vertices receives an interior point."""


class DimensionMismatchError(PivotforgeError):
    """Raised when vector lengths or variable counts disagree."""


class NotRepresentableError(PivotforgeError):
    """Raised when a line-search stopping point exists but is irrational.

    ``lower`` and ``upper`` are rationals such that ``(lower, upper]``
    contains exactly one root of the restriction, its first one, and is
    narrower than ``1 / (2 lead^2)`` for the leading coefficient ``lead``
    of its primitive square-free part.  The only rational that could be
    that root was tested and is not, so the stopping point cannot be
    stored exactly.
    """

    def __init__(self, message, lower=None, upper=None):
        super().__init__(message)
        self.lower = lower
        self.upper = upper


class AmbiguousImprovementError(PivotforgeError):
    """Raised when the improving-dimension conditions disagree or select
    more than one coordinate.  This would falsify the uniqueness property
    the construction is built on; it must never fire on valid inputs."""

    def __init__(self, message, vertex=None, gradient_side=None, predicate_side=None):
        super().__init__(message)
        self.vertex = vertex
        self.gradient_side = gradient_side
        self.predicate_side = predicate_side


class TieError(PivotforgeError):
    """Raised when two adjacent vertices share an objective value, so the
    edge between them cannot be oriented."""

    def __init__(self, message, edge=None):
        super().__init__(message)
        self.edge = edge


class DegenerateVertexError(PivotforgeError):
    """Raised when the simplex method meets a vertex at which the box's
    non-degeneracy fails: an improving edge not orthogonal to n - 1 basis
    rows, a blocking row outside the basis, a step that ends off a
    vertex, or other than one entering row.  ``vertex`` is the vertex the
    pass started from.  A box is non-degenerate, so it must never fire."""

    def __init__(self, message, vertex=None):
        super().__init__(message)
        self.vertex = vertex


class TooLargeError(PivotforgeError):
    """Raised when a brute-force enumeration would exceed its guard."""


class DimacsParseError(PivotforgeError):
    """Raised on malformed DIMACS CNF input; carries the offending position."""

    def __init__(self, message, line, column):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
