"""Exception types shared across the package."""


class KoopeqError(Exception):
    """Base class for all package errors."""


class InvalidInputError(KoopeqError):
    """An argument violates a precondition (non-finite, wrong domain, ...)."""


class ConfigurationError(KoopeqError):
    """Inconsistent configuration: bad oracle/algorithm pairing, dimension
    mismatch, unknown option."""


class UnsupportedPairError(KoopeqError):
    """No conjugacy map is known for the requested algorithm pair."""


class InsufficientDataError(KoopeqError):
    """Too few states or snapshots for the requested operation."""


class DegenerateDataError(KoopeqError):
    """Data carries no usable dynamics (all-zero snapshots, constant
    observables, every singular value below threshold)."""


class InvalidObservableError(KoopeqError):
    """A dictionary function could not be evaluated on the data."""


class CardinalityMismatchError(KoopeqError):
    """Wasserstein distance requested for eigenvalue sets of unequal size."""


class NumericFailureError(KoopeqError):
    """NaN appeared mid-run. Carries the partial trajectory, if any."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class ParseError(KoopeqError):
    """A file does not follow its documented schema. `line` is the first
    offending line number when the format is line-oriented."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line


def result_or_raise(result):
    """`result` of one item of a batch, or the KoopeqError it holds raised."""
    if isinstance(result, KoopeqError):
        raise result
    return result
