"""Exception hierarchy shared across the package.

Every error raised by the library derives from :class:`WprocError` so callers
(and the CLI) can map failures to exit codes without matching on strings.
"""

__all__ = [
    "WprocError", "InvalidInputError", "InvalidArgumentError",
    "DegenerateProjectionError", "DegenerateFitError", "ParseError",
    "IntegrityError", "EmptyResultError",
]


class WprocError(Exception):
    """Base class for all library errors."""


class InvalidInputError(WprocError):
    """Input data violates a precondition (non-finite, zero norm, bad shape)."""


class InvalidArgumentError(WprocError):
    """A parameter value is out of its allowed range or contradicts another
    parameter or the data."""


class DegenerateProjectionError(WprocError):
    """Nearest orthogonal matrix is ambiguous (rank-deficient input)."""


class DegenerateFitError(WprocError):
    """Procrustes fit is ambiguous (rank-deficient cross-covariance)."""


class ParseError(WprocError):
    """A file does not conform to its documented grammar.

    Carries the offending 1-based line number when known.
    """

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class IntegrityError(WprocError):
    """A stored artifact failed its on-load invariant check."""


class EmptyResultError(WprocError):
    """An operation produced no usable result (empty dictionary, no queries)."""
