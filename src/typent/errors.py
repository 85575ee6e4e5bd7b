"""Exception types shared across modules.

Plain ValueError is used for domain and usage errors (bad dimensions,
out-of-range arguments, unknown functional names).  The types below mark
conditions a caller may want to branch on; the command line maps them to
distinct exit codes.
"""


class FeasibilityError(RuntimeError):
    """Requested constrained problem has no physical (nonnegative) solution."""


class ConvergenceError(RuntimeError):
    """Iterative solver exhausted its iteration budget before reaching tolerance."""


class AccuracyError(RuntimeError):
    """A result cannot be had, or certified, to the accuracy it promises."""

    def __init__(self, message, value=None):
        super().__init__(message)
        self.value = value
