"""Exception types shared across the package.

Every error raised on bad user input derives from ``InputError`` so the CLI
can map them to exit code 2; verification failures are reported through
result objects, not exceptions.
"""


class CWKMSError(Exception):
    """Base class for all package errors."""


class InputError(CWKMSError):
    """Malformed or inconsistent input data."""


class DuplicateId(InputError):
    pass


class DanglingEndpoint(InputError):
    pass


class UnknownEdge(InputError):
    pass


class MissingValue(InputError):
    """A weight function is not total on its graph or complex."""


class BrokenBoundaryWord(InputError):
    """Consecutive edges of a face boundary word do not chain."""


class NonTriangularFace(InputError):
    pass


class GraphMismatch(InputError):
    """Operands live over different graphs."""


class NonpositiveWeight(InputError):
    """An operation requiring strictly positive weight values got a zero or
    negative one."""


class NotFaithful(InputError):
    """A construction requires faithful (nowhere zero) weights."""


class BadEmbedding(InputError):
    pass


class IncompatibleAttachment(InputError):
    pass


class ModeError(InputError):
    """Weight mode not supported by the requested operation."""


class InvalidTriple(InputError):
    pass


class AmbiguousSector(CWKMSError):
    """The sector incidence rule failed to determine a unique target pair;
    ``vertex`` is the incident pair at which the cardinality contract broke."""

    def __init__(self, message: str, vertex=None):
        super().__init__(message)
        self.vertex = vertex


class NonpositiveBase(InputError):
    pass


class ZeroPolynomial(InputError):
    pass


class ZeroDivisor(CWKMSError):
    """Inversion failed in a quotient ring (non-invertible element)."""
