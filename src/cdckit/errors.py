"""Exception types shared across the package."""


class CdcError(Exception):
    """Base class for all package errors."""


class UnsupportedOrder(CdcError):
    """Field order outside the supported set of small prime powers."""


class DegreeTooLarge(CdcError):
    """Extension degree beyond the supported range."""


class BadArguments(CdcError):
    """Arguments violate a documented precondition."""


class BadShape(BadArguments):
    """Matrix or code shape parameters are inconsistent."""


class AmbientMismatch(BadArguments):
    """Subspaces live in different ambient spaces."""


class LengthMismatch(BadArguments):
    """Vectors of different lengths."""


class DimensionMismatch(BadArguments):
    """Code dimensions that were required to agree do not."""


class ParameterMismatch(BadArguments):
    """Construction inputs whose parameters do not fit together."""


class DiagramMismatch(BadArguments):
    """A code's diagram does not match the expected one."""


class NotRref(BadArguments):
    """Matrix is not in (reduced) row echelon form."""


class NotACwc(BadArguments):
    """Vector set fails the constant-weight-code requirements."""


class ConditionNotMet(CdcError):
    """No implemented construction route applies to these inputs."""


class TooLarge(CdcError):
    """Instance exceeds the enumeration/verification caps."""


class TooLargeToEnumerate(TooLarge):
    """Code too large for full enumeration."""


class GuardFailed(CdcError):
    """A distance guard on identifying vectors failed."""


class RankRestrictionViolated(CdcError):
    """A member of a rank-restricted list exceeds the declared rank."""


class NotInRegistry(CdcError):
    """Requested parameters are absent from the bound registry."""


class DuplicateCodeword(CdcError):
    """Two construction branches produced the same subspace."""


class VerificationFailed(CdcError):
    """A construction-time self-check did not hold."""


class UsageError(CdcError):
    """Input that names no valid request: a bad command-line argument, or a
    malformed file (``ParseError``).  The command line exits 2 on it."""

    kind = "usage"


class ParseError(UsageError):
    """Malformed input file."""

    kind = "parse"

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
