"""Exception types shared across the package.

The CLI maps these onto exit codes: precondition violations (including
dimension, PSD-ness and resource limits) exit 2, numeric breakdowns exit 3.
"""


class PsdfactError(Exception):
    """Base class for all package errors."""


class PreconditionError(PsdfactError):
    """An operation was called on inputs violating its contract.

    ``arg`` names the one argument at fault, when one is, so that a caller
    can say where its value came from.
    """

    def __init__(self, message="", arg=None):
        super().__init__(message)
        self.arg = arg


class DimensionError(PreconditionError):
    """Mismatched matrix shapes or index sets."""


class NotPsdError(PreconditionError):
    """A matrix required to be positive semidefinite is not."""


class ResourceError(PreconditionError):
    """Input size exceeds what brute-force enumeration supports."""


class NumericError(PsdfactError):
    """Floating-point breakdown: NaN/Inf iterates, overflow, blow-up."""


class ConvergenceError(NumericError):
    """An iteration exceeded its cap; carries diagnostics for debugging."""

    def __init__(self, message, **diagnostics):
        super().__init__(message)
        self.diagnostics = diagnostics
