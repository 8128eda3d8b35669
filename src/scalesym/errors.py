"""Exception types shared across the package.

The CLI maps these onto its exit-code contract, so library code should
raise the most specific type that applies.
"""


class ScaleSymError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(ScaleSymError, ValueError):
    """Vector dimensions of two objects do not agree."""


class NonFiniteValue(ScaleSymError, ValueError):
    """A value, gradient, or state contains NaN or infinity."""


class SchemaError(ScaleSymError, ValueError):
    """A system/action specification violates the JSON schema, or a run
    setting (window, step, sample count) is out of range."""


class CollisionDetected(ScaleSymError, RuntimeError):
    """Minimum pairwise separation fell below the collision threshold."""


class BlowupWindow(ScaleSymError, ValueError):
    """Requested time window extends past the homothetic blow-up time."""


class SolverDidNotConverge(ScaleSymError, RuntimeError):
    """The equilibrium solver hit its iteration budget before the tolerance."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class UncertifiedInput(ScaleSymError, ValueError):
    """An operation requiring a certified relative equilibrium got an uncertified one."""
