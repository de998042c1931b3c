"""Exception types, and the deduplicated warning, shared across the package."""

import logging

_WARNED: set[tuple] = set()


def warn_once(log: logging.Logger, message: str, *args, key: tuple = ()) -> None:
    """Log ``message % args`` as a warning the first time ``(message, key)``
    occurs in the process: a sweep re-evaluates the same cell per row, and a
    per-user estimate the same clamp per replication."""
    if (message, key) not in _WARNED:
        _WARNED.add((message, key))
        log.warning(message, *args)


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
