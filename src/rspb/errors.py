"""Exception hierarchy shared by the whole package.

Two families matter to callers: PreconditionError for inputs that violate a
documented precondition (CLI exit code 2) and ComputationError for runs that
started from valid inputs but could not be certified (CLI exit code 3).
"""


class SpbError(Exception):
    """Base class for all package errors."""


class PreconditionError(SpbError):
    """An input violates a documented precondition."""


class AlphabetMismatchError(PreconditionError):
    pass


class InvalidOrderError(PreconditionError):
    pass


class InvalidProbabilityError(PreconditionError, ValueError):
    """A probability or a mass vector lies outside the simplex."""


class InfiniteDivergenceError(PreconditionError):
    pass


class DegeneratePairError(PreconditionError):
    """All components have an almost-surely constant log-likelihood ratio."""


class DegenerateChannelError(PreconditionError):
    """The rate profile is flat in the order, so no interior order exists."""


class RateOutOfRangeError(PreconditionError):
    """Requested rate falls outside the open achievable interval."""

    def __init__(self, rate: float, low: float, high: float):
        self.rate = rate
        self.low = low
        self.high = high
        super().__init__(
            f"rate {rate!r} outside the open interval ({low!r}, {high!r})"
        )


class CompositionError(PreconditionError):
    """n times the composition is not integral."""


class FeasibilityError(PreconditionError):
    """The constraint set is empty."""


class SymmetryError(PreconditionError):
    """A channel failed the Renyi-symmetry certification."""


class BudgetExceededError(PreconditionError):
    """Exact enumeration would exceed the configured state budget."""


class ComputationError(SpbError):
    """A computation finished without meeting its certification target."""


class NonConvergenceError(ComputationError):
    def __init__(self, message: str, residual: float):
        self.residual = residual
        super().__init__(f"{message} (residual {residual:.3e})")
