"""Exception types shared across the package, the input rule they enforce, and
the package's one summation rule (:func:`_left_sum`)."""

import sys
from functools import reduce
from operator import add

_FLOAT_MAX = sys.float_info.max
# The exact types of a real number: a float, or an int, which each holder's finiteness
# test keeps within the float range.  A bool, complex, str or None is neither.
_REAL_TYPES = frozenset((float, int))


def _unreal(values) -> str | None:
    """The type name of the first of ``values`` that is not a real number, else None."""
    return next((type(v).__name__ for v in values if type(v) not in _REAL_TYPES), None)


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """A number a float can hold: a float (a subclass too), or a count within the float range."""
    return isinstance(value, float) or (_is_count(value) and abs(value) <= _FLOAT_MAX)


def _left_sum(values) -> float:
    """The float sum of ``values``, added left to right from 0.0.  Built-in
    ``sum()`` compensates float sums from Python 3.12 on, which would change
    output bits between the Pythons the package supports."""
    return reduce(add, values, 0.0)


def _shown(value) -> str:
    """``repr(value)`` for an error message, or a short stand-in where ``repr``
    refuses an int past its digit limit (alone or inside the value): a range
    check then raises its own error, not ``ValueError`` from formatting."""
    try:
        return repr(value)
    except ValueError:
        if _is_count(value):
            return f"{'-' if value < 0 else ''}<int of {value.bit_length()} bits>"
        return f"<{type(value).__name__} too long to show>"


class EcpError(Exception):
    """Base class for all package-specific errors."""


class ZeroStateError(EcpError):
    """An operation needed a nonzero state (e.g. normalizing the zero vector)."""


class ShapeMismatchError(EcpError):
    """Two states, or a state and an operation, disagree on basis shape."""


class LinearBasisPhotonError(EcpError):
    """An operation requires a circular-basis photon but got H/V."""


class CircularBasisPhotonError(EcpError):
    """An operation requires a linear-basis photon but got R/L."""


class InvalidCoefficientsError(EcpError):
    """A coefficient triple violates the protocol preconditions."""


class DegenerateCoefficientsError(EcpError):
    """An ancilla photon cannot be prepared from the given coefficients."""


class DomainError(EcpError):
    """An argument lies outside a formula's domain."""


class ConfigError(EcpError):
    """A run configuration file or flag combination is invalid."""
