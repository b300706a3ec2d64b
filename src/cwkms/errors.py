"""Exception types shared across the package.

Each class is one a caller tells apart: ``InputError`` is every kind of
malformed or inconsistent input (the CLI exits 2, and the message names
what is wrong), ``AmbiguousSector`` is a failed search (the CLI exits 1
and reports the failing pair), and ``ZeroDivisor`` is a failed inversion
that the exact solvers catch.  Verification failures are reported through
result objects, not exceptions.
"""


class CWKMSError(Exception):
    """Base class for all package errors."""


class InputError(CWKMSError):
    """Malformed or inconsistent input data."""


class AmbiguousSector(CWKMSError):
    """The sector incidence rule failed to determine a unique target pair;
    ``vertex`` is the incident pair at which the cardinality contract broke."""

    def __init__(self, message: str, vertex=None):
        super().__init__(message)
        self.vertex = vertex


class ZeroDivisor(CWKMSError):
    """Inversion failed in a quotient ring (non-invertible element)."""
