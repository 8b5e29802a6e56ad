"""Exception types shared across the package, with the exit code of
each, and the integer check that raises one."""

import operator


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
