"""Exception types shared across the library.

Every failure mode that callers are expected to branch on gets one
class under one name, with no aliases.  Bad input that a command-line
call can supply (a negative budget, an unknown order, an invalid
variable name, a variable that is no slice) raises UsageError, which is
also a ValueError for callers that catch that; plain ValueError is
reserved for programming errors (bad arguments that no well-formed
caller produces).
"""


class GaquotError(Exception):
    """Base class for all library errors."""


class UsageError(GaquotError, ValueError):
    """An argument or input value outside what the operation accepts."""


class ParseError(GaquotError):
    """Malformed polynomial text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownVariableError(GaquotError):
    """An identifier does not belong to the variable set in play."""


class RingMismatchError(GaquotError):
    """Operands live over different variable sets."""


class MissingAssignmentError(GaquotError):
    """A substitution left an occurring variable unassigned."""


class NotUnivariateError(GaquotError):
    """Operation requires polynomials in (at most) one common variable."""


class ZeroPolynomialError(GaquotError):
    """Operation undefined for the zero polynomial."""


class ResourceCapError(GaquotError):
    """A configured pair/degree/dimension cap was exceeded.

    Signals that the instance is too large for the configured budget, not
    that the input is mathematically wrong.
    """


class UnitIdealError(GaquotError):
    """A proper ideal was required but the unit ideal was supplied."""


class NotLocallyNilpotentError(GaquotError):
    """The derivation failed to annihilate an element within the budget."""


class RoundCapError(GaquotError):
    """Kernel saturation did not stabilize within the allowed rounds."""


class NotHypersurfaceError(GaquotError):
    """Smoothness check got an ideal that is not a single hypersurface."""


class RepeatedRootsError(GaquotError):
    """The univariate shape polynomial (plus one) has a repeated root."""


class NonzeroConstantError(GaquotError):
    """The shape polynomial does not vanish at the origin."""
