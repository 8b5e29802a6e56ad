"""Exception types shared across the package, with the exit code of
each, and the one check of outside integers, exact rationals and
encoder indices that raises one."""

import numbers
import operator
from fractions import Fraction


class SmdcError(Exception):
    """Base class for all errors raised by this package.

    ``exit_code`` is the status the `smdc` command exits with on this
    error: 2, a usage error, unless a subclass names another.
    """

    exit_code = 2


class ParameterError(SmdcError, ValueError):
    """A call was made with parameters outside the documented domain."""


class RegionViolationError(SmdcError):
    """A rate tuple falls outside the admissible region.

    ``subset`` names one offending encoder subset whose summed rate is
    below the required entropy.
    """

    exit_code = 3

    def __init__(self, message: str, subset: tuple[int, ...], rates=None):
        super().__init__(message)
        self.subset = subset
        self.rates = rates


class InsufficientSharesError(SmdcError):
    """Not enough encoder outputs were supplied to reconstruct.

    ``needed`` / ``have`` give the access-structure accounting for the
    part of the bundle that could not be decoded.
    """

    exit_code = 3

    def __init__(self, message: str, needed: int, have: int):
        super().__init__(message)
        self.needed = needed
        self.have = have

    @property
    def shortfall(self) -> int:
        return self.needed - self.have


class DecodeFailureError(SmdcError):
    """Observed shares are mutually inconsistent (not a codeword)."""

    exit_code = 4


class BudgetExceededError(SmdcError):
    """An exhaustive enumeration would exceed the configured budget."""


class ShareFormatError(SmdcError):
    """A share file is malformed or inconsistent with its peers."""

    exit_code = 5


def as_int(value, what: str) -> int:
    """`value` as an int: a Python or numpy integer passes, anything
    else (a float, say) raises ParameterError naming `what`."""
    try:
        return operator.index(value)
    except TypeError:
        raise ParameterError(
            f"{what} must be an integer, got {value!r}") from None


def as_fraction(value, what: str) -> Fraction:
    """`value` as a Fraction: an int, numpy integer or Fraction (any
    numbers.Rational) passes; anything else raises ParameterError."""
    if type(value) is Fraction:  # the common cases first, fast
        return value
    if type(value) is int:
        return Fraction(value)
    if isinstance(value, numbers.Rational):
        return Fraction(int(value.numerator), int(value.denominator))
    raise ParameterError(
        f"{what} must be exact (int/Fraction), got {value!r}")


def as_encoders(ids, length: int) -> tuple[int, ...]:
    """Encoder indices as ints, in the order given, each in 1..length."""
    ids = tuple(as_int(l, "encoder index") for l in ids)
    for l in ids:
        if not 1 <= l <= length:
            raise ParameterError(f"encoder {l} out of range 1..{length}")
    return ids
