"""Exception types shared across the package, and the one rule for a count
or a tolerance argument."""
import math
import numbers


class KoopeqError(Exception):
    """Base class for all package errors. A class states the `kind` and
    `exit_code` the command line reports it by, or takes its base's."""

    kind, exit_code = "configuration", 101


class InvalidInputError(KoopeqError):
    """An argument violates a precondition (non-finite, wrong domain, ...)."""


class NonFiniteInputError(InvalidInputError):
    """An argument holds a NaN or an infinity. An oracle that raises it
    inside a step from a finite state was handed a value the step made."""


class ConfigurationError(KoopeqError):
    """Inconsistent configuration: bad oracle/algorithm pairing, dimension
    mismatch, unknown option."""


class UnsupportedPairError(KoopeqError):
    """No conjugacy map is known for the requested algorithm pair."""


class InsufficientDataError(KoopeqError):
    """Too few states or snapshots for the requested operation."""

    kind, exit_code = "numeric", 103


class DegenerateDataError(KoopeqError):
    """Data carries no usable dynamics (all-zero snapshots, constant
    observables, every singular value below threshold)."""

    kind, exit_code = "numeric", 103


class InvalidObservableError(KoopeqError):
    """A dictionary function could not be evaluated on the data."""

    kind, exit_code = "numeric", 103


class CardinalityMismatchError(KoopeqError):
    """Wasserstein distance requested for eigenvalue sets of unequal size."""

    kind, exit_code = "numeric", 103


class NumericFailureError(KoopeqError):
    """NaN appeared mid-run. Carries the partial trajectory, if any."""

    kind, exit_code = "numeric", 103

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class ParseError(KoopeqError):
    """A file does not follow its documented schema. `line` is the first
    offending line number when the format is line-oriented."""

    kind, exit_code = "parse", 102

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line


def result_or_raise(result):
    """`result` of one item of a batch, or the KoopeqError it holds raised."""
    if isinstance(result, KoopeqError):
        raise result
    return result


def _shown(value) -> str:
    """repr(value), or a stand-in for an integer too long for Python to print."""
    try:
        return repr(value)
    except ValueError:  # past sys.get_int_max_str_digits()
        return f"<{type(value).__name__} too long to print>"


def count(name, value, least, error):
    """`value` as a Python int; raises `error` unless it is a Python or NumPy
    integer, not a bool, of at least `least`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        rule = {0: "a non-negative integer", 1: "a positive integer"}.get(
            least, f"an integer of at least {least}")
        raise error(f"{name} must be {rule}, got {_shown(value)}")
    return int(value)


def tolerance(name, value, error, positive=False):
    """Raise `error` unless `value` is a real number, not a bool, that is
    finite as a float and is > 0 when `positive` and >= 0 otherwise."""
    try:
        ok = (not isinstance(value, bool) and isinstance(value, numbers.Real)
              and math.isfinite(value) and (value > 0 if positive else value >= 0))
    except OverflowError:  # an integer past float range
        ok = False
    if not ok:
        rule = "positive" if positive else "non-negative"
        raise error(f"{name} must be finite and {rule}, got {_shown(value)}")
