"""Exception hierarchy shared across the package."""


class QuiverHHError(Exception):
    """Base class for all errors raised by this package."""


class CompositionError(QuiverHHError):
    """Arrows or paths whose endpoints do not match were composed, or a path got no arrow."""


class AdmissibilityError(QuiverHHError):
    """A relation shorter than length two was supplied."""


class MinimalityError(QuiverHHError):
    """A relation set contains a path together with one of its proper subpaths."""

    def __init__(self, message, contained=None, container=None):
        super().__init__(message)
        self.contained = contained
        self.container = container


class DimensionalityError(QuiverHHError):
    """The relation-free paths of a quiver do not form a finite set."""

    def __init__(self, message, cycle=None):
        super().__init__(message)
        self.cycle = cycle


class GluingError(QuiverHHError):
    """The chosen arrow pair violates a precondition of the gluing construction."""


class ShapeError(QuiverHHError):
    """Linear-algebra objects over incompatible bases were combined."""


class ContainmentError(QuiverHHError):
    """A quotient was requested for a subspace that is not contained in the total space."""


class BridgeError(QuiverHHError):
    """A spanning structure was asked to avoid an arrow whose removal disconnects the quiver."""


class ParseError(QuiverHHError):
    """Algebra file could not be parsed; carries a 1-based position."""

    def __init__(self, message, line, column=1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
