"""Exception types shared across the engine."""


class KdeformError(Exception):
    """Base class for all engine errors."""


class TruncationMismatch(KdeformError):
    """Raised when combining scalars carrying different finite truncations."""


class ScalarDomainError(KdeformError, ValueError):
    """Raised for a scalar outside its domain: a degree that is not an int,
    a negative xi-degree, a truncation that is not None or a pair of
    non-negative ints, a negative h-degree under a finite truncation or in
    an exact factor of a truncated product, a shift by h^-k past the h-order
    of a truncation, the constant value of a non-constant scalar, or a float
    or unknown coefficient."""


class PresentationError(KdeformError):
    """Raised for malformed generator/relation data."""


class RewriteError(KdeformError):
    """Raised when normal ordering cannot complete: a rewriting cycle, or a
    word longer than the presentation's length cap."""


class ClassicalLimitError(KdeformError):
    """Raised when the h -> 0 limit does not exist for an element."""


class ClassificationError(KdeformError):
    """Raised when a commutator table cannot be processed by the classifier."""
