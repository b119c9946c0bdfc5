"""Exception types shared across the package."""


class SignedSpreadError(Exception):
    """Base class for all domain errors raised by this package."""


class InputError(SignedSpreadError):
    """Malformed or out-of-contract input (bad graph, bad strategy shape)."""


class CapacityError(SignedSpreadError):
    """Instance exceeds the size cap of an exhaustive routine."""


class StrategyError(SignedSpreadError):
    """A placement violates the process rules at some step."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


class BudgetExceeded(SignedSpreadError):
    """Internal signal: node or time budget ran out mid-search."""
