"""Exception hierarchy shared by all modules.

ConfigError maps to CLI exit code 2, NumericError (and subclasses) to
exit code 3.  Everything else is a bug.
"""


class SemispecError(Exception):
    """Base class for all package errors."""


class ConfigError(SemispecError):
    """Invalid configuration, symbol text, or parameter combination."""


class NumericError(SemispecError):
    """A numerical procedure failed or was handed invalid data."""


class DomainError(NumericError):
    """Non-finite input reached a public operation."""


class BranchCutError(NumericError):
    """Action variable on the branch cut of the principal square root."""


class NumericRangeError(NumericError):
    """Overflow in matrix assembly (entries left the float range)."""


class SolverError(NumericError):
    """Eigensolver failed to converge.

    Carries the partially deflated Hessenberg form in ``partial`` for
    post-mortem inspection.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class LevelSetError(NumericError):
    """Newton continuation on a level set diverged or did not close up."""


class CriticalLevelError(LevelSetError):
    """|dp/dI| too small along the level set (near-critical energy)."""


class InversionError(NumericError):
    """Newton inversion of the action integral failed."""


class DegeneracyError(InversionError):
    """|d(action)/dE| too small: action map not locally invertible."""


class PipelineError(NumericError):
    """Failure of a named pipeline stage; wraps the causing error."""

    def __init__(self, stage, cause):
        super().__init__(f"stage={stage}: {cause}")
        self.stage = stage
        self.cause = cause
