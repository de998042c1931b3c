"""Exception types shared across the package."""


class InvalidParameterError(ValueError):
    """A physical or system parameter is outside its admissible range."""


class InvalidSteepnessError(InvalidParameterError):
    """A popularity steepness resolved to a value <= 1."""


class EmptyTierError(RuntimeError):
    """A required tier has no point inside the simulation window."""


class InvalidConfigError(ValueError):
    """A cache or experiment configuration violates its invariants.

    Carries the structured violation list when raised by the validators.
    """

    def __init__(self, message, violations=()):
        super().__init__(message)
        self.violations = tuple(violations)


class NumericalError(ArithmeticError):
    """A numerical routine failed to converge to the requested tolerance."""
