"""Exception types shared across the package."""


class InvalidParameterError(ValueError):
    """A physical or system parameter is outside its admissible range."""


class InvalidSteepnessError(InvalidParameterError):
    """A popularity steepness resolved to a value <= 1."""


class EmptyTierError(RuntimeError):
    """A required tier has no point inside the simulation window."""


class InvalidConfigError(ValueError):
    """A cache or experiment configuration violates its invariants."""


class NumericalError(ArithmeticError):
    """A numerical routine returned a non-finite result for admissible input."""
