"""Exception types shared across the package."""


class CBPError(Exception):
    """Base class for every error raised by this package."""


class ParseError(CBPError):
    """Malformed edge-list input."""

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class InvalidGraph(CBPError):
    """Input violates the graph invariants (self-loop, duplicate edge, bad id)."""


class NotConnected(CBPError):
    """The operation requires a connected graph."""


class EmptyGraph(CBPError):
    """The operation requires at least one edge."""


class CountOverflow(CBPError):
    """An enumeration exceeded its configured cap."""


class BudgetExceeded(CBPError):
    """A computation exceeded its configured work budget."""


class DimensionMismatch(CBPError):
    """Vectors of different lengths were mixed."""


class NotFullDimensional(CBPError):
    """The point set does not affinely span the ambient space."""


class DimensionCap(CBPError):
    """The ambient dimension exceeds the supported cap."""


class RowInvalid(CBPError):
    """The inequality is violated by some polytope vertex."""


class NotAVertex(CBPError):
    """The given point or index is not a vertex of the polytope."""


class LeadingTermMismatch(CBPError):
    """A generator's leading term is not the expected incomparable product."""


class ReductionDiverges(CBPError):
    """Polynomial division failed to terminate; signals an order bug."""


class NonUnimodalSimplex(CBPError):
    """A maximal simplex of the triangulation has lattice determinant != +-1."""


class NotEulerianCactus(CBPError):
    """The adapter requires a cactus whose blocks are all cycles."""


class NotTree(CBPError):
    """The adapter requires a tree."""


class AssertionFailure(CBPError):
    """A verified mathematical property failed on a concrete input.

    The payload carries enough data to reproduce the failure (typically the
    offending graph in JSON form plus the violating object).
    """

    def __init__(self, message: str, payload: dict | None = None):
        super().__init__(message)
        self.payload = dict(payload or {})
