"""Exception types shared across the package."""


class SmdcError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(SmdcError, ValueError):
    """A call was made with parameters outside the documented domain."""


class RegionViolationError(SmdcError):
    """A rate tuple falls outside the admissible region.

    ``subset`` names one offending encoder subset whose summed rate is
    below the required entropy.
    """

    def __init__(self, message: str, subset: tuple[int, ...], rates=None):
        super().__init__(message)
        self.subset = subset
        self.rates = rates


class InsufficientSharesError(SmdcError):
    """Not enough encoder outputs were supplied to reconstruct.

    ``needed`` / ``have`` give the access-structure accounting for the
    part of the bundle that could not be decoded.
    """

    def __init__(self, message: str, needed: int, have: int):
        super().__init__(message)
        self.needed = needed
        self.have = have

    @property
    def shortfall(self) -> int:
        return self.needed - self.have


class DecodeFailureError(SmdcError):
    """Observed shares are mutually inconsistent (not a codeword)."""


class BudgetExceededError(SmdcError):
    """An exhaustive enumeration would exceed the configured budget."""


class ShareFormatError(SmdcError):
    """A share file is malformed or inconsistent with its peers."""
