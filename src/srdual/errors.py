"""Exception types shared across the package."""


class SrdualError(Exception):
    """Base class for all srdual errors."""


class EmptyInput(SrdualError):
    pass


class VertexOutOfRange(SrdualError):
    pass


class IsolatedVertex(SrdualError):
    pass


class NotAFacet(SrdualError):
    pass


class NotPure(SrdualError):
    pass


class DimensionTooSmall(SrdualError):
    pass


class EmptyGraph(SrdualError):
    pass


class UnknownNode(SrdualError):
    pass


class NotEquigenerated(SrdualError):
    pass


class UnsupportedLevel(SrdualError):
    pass


class OverlapNotPure(SrdualError):
    pass


class OverlapTooSmall(SrdualError):
    pass


class OverlapSerreFailure(SrdualError):
    pass


class DimensionMismatch(SrdualError):
    pass


class UnknownFamily(SrdualError):
    pass


class BadParams(SrdualError):
    pass


class ParseError(SrdualError):
    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


class ContractViolation(SrdualError):
    """A result broke a postcondition the library promises."""


class BoundViolation(SrdualError):
    """A complex exceeded a proved upper bound: reproducer attached."""

    def __init__(self, message, complex_=None):
        super().__init__(message)
        self.complex_ = complex_
