"""Exception taxonomy shared by all modules.

The CLI maps these onto exit codes: usage/config -> 1, data -> 2,
numeric/training -> 3.
"""


class VwpError(Exception):
    """Base class for all errors raised by this package."""


class UsageError(VwpError):
    """Bad command line or inconsistent configuration."""


class ConfigError(UsageError):
    """A config object violates its own invariants."""


class DataError(VwpError):
    """Input data violates a documented precondition (ids, shapes, ranges)."""


class CapacityError(DataError):
    """More distinct entities than placeholder slots."""


class ResourceError(DataError):
    """A required resource (e.g. a name list) is empty."""


class NumericError(VwpError):
    """Non-finite values or invalid numeric inputs inside a kernel."""


class StateError(NumericError):
    """A forward pass refuses its KV cache: a dropout generator passed with
    a cache, or positions that do not continue the cached ones."""


class TrainingError(NumericError):
    """Training diverged; carries epoch/batch context in the message."""
