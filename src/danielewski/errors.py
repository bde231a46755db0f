"""Exception hierarchy.

Every error carries a stable machine-readable ``code`` used by the CLI's
structured output, and the ``exit_code`` the CLI returns for it: 1 for a
rejection, 2 for a usage or input error, 3 for an internal defect.
"""


class DanielewskiError(Exception):
    code = "error"
    exit_code = 1

    # ``position``, when given, is where in an input argument the error lies;
    # the message then ends with it, and ``detail`` keeps the message without.
    def __init__(self, message: str = "", position: int = -1):
        self.detail, self.position = message, position
        if position >= 0:
            message = f"{message} (at position {position})"
        super().__init__(message or self.__doc__ or self.code)


class ZeroPolynomial(DanielewskiError):
    """The defining polynomial must be nonzero of degree >= 1."""

    code = "zero-polynomial"
    exit_code = 2


class RepeatedRoot(DanielewskiError):
    """The defining polynomial has a repeated root (gcd(p, p') non-constant)."""

    code = "repeated-root"
    exit_code = 2


class DivisionByZeroPolynomial(DanielewskiError):
    """Polynomial division by zero."""

    code = "division-by-zero-polynomial"
    exit_code = 2


class InternalInvariantViolation(DanielewskiError):
    """An internal invariant failed; this is a defect, not a user error."""

    code = "internal-invariant-violation"
    exit_code = 3


class TangencyViolation(DanielewskiError):
    """The images do not define a derivation of the coordinate ring."""

    code = "tangency-violation"
    exit_code = 2


class NotVolumePreserving(DanielewskiError):
    """The field's contraction with the volume form is not closed."""

    code = "not-volume-preserving"


class PointNotOnSurface(DanielewskiError):
    """The given point does not satisfy x*y = p(z)."""

    code = "point-not-on-surface"
    exit_code = 2


class DegreeGate(DanielewskiError):
    """Operation requires a higher degree of the defining polynomial or bound."""

    code = "degree-gate"
    exit_code = 2


class InvalidGenerator(DanielewskiError):
    """Automorphism generator parameters are invalid for this surface."""

    code = "invalid-generator"
    exit_code = 2


class MembershipRejected(DanielewskiError):
    """Certification refused: the potential fails the membership test."""

    code = "membership-rejected"


class SearchExhausted(DanielewskiError):
    """No certificate found within the degree bound; retry with a larger one."""

    code = "search-exhausted"


class MalformedNesting(DanielewskiError):
    """A bracket expression that is not one: a node other than a Leaf, Sum or
    Bracket, a leaf of unknown kind, a negative shear index, or an HF leaf
    without a polynomial."""

    code = "malformed-nesting"
    exit_code = 2


class WrongSurface(DanielewskiError):
    """This operation is only defined on the surface x*y = z^2 - 1."""

    code = "wrong-surface"
    exit_code = 2


class ParityViolation(DanielewskiError):
    """Target monomial must be anti-invariant (odd total parity)."""

    code = "parity-violation"
    exit_code = 2


class FileError(DanielewskiError):
    """A file named on the command line could not be read or written."""

    code = "file-error"
    exit_code = 2


class ParseError(DanielewskiError):
    """Syntax error in an input expression."""

    code = "syntax-error"
    exit_code = 2


class NegativeExponent(ParseError):
    """Exponents must be non-negative integers."""

    code = "negative-exponent"
