"""Exception taxonomy shared by all modules: one kind per exit code.

The CLI maps each kind onto its exit code: usage -> 1, data -> 2,
numeric -> 3.
"""


class VwpError(Exception):
    """Base class for all errors raised by this package."""


class UsageError(VwpError):
    """Bad command line, or a config object that violates its invariants."""


class DataError(VwpError):
    """Input data violates a documented precondition (ids, shapes, ranges,
    placeholder slots, name pools)."""


class NumericError(VwpError):
    """Non-finite values, a diverged training step, or a forward pass that
    refuses its KV cache."""
