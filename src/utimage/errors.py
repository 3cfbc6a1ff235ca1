"""Exception types shared across the package."""


class Error(Exception):
    """Base class for every error this package raises on purpose."""


class MalformedSpec(Error):
    """Field description text is not "rational" or "gf:<p>" with p >= 2."""


class NotPrime(Error):
    """Requested prime-field modulus is composite."""


class DivisionByZero(Error, ZeroDivisionError):
    """Division or inversion of the zero scalar."""


class FieldMismatch(Error):
    """Operands carry different field descriptions."""


class ParseError(Error):
    """Input text does not match the expected grammar."""


class NotMultilinear(ParseError):
    """A monomial repeats a variable or skips one of x1..xm."""


class InconsistentDegree(ParseError):
    """Monomials of the same polynomial use different variable sets."""


class ZeroPolynomial(Error):
    """Operation requires a nonzero polynomial."""


class DimensionMismatch(Error):
    """Matrix dimensions disagree."""


class NotStrictlyUpper(Error):
    """Entry placed on or below the main diagonal."""


class OutOfRange(Error):
    """Matrix coordinate outside 1..n."""


class BadLength(Error):
    """Value sequence has the wrong length for its diagonal."""


class BadIndex(Error):
    """Diagonal index outside the valid range."""


class NotNormalized(Error):
    """Polynomial does not have coefficient one at the identity permutation."""


class InternalInvariantViolation(Error):
    """A self-check that must never fail on valid input failed: report as a bug."""


class CoefficientMismatch(InternalInvariantViolation):
    """Assembled system pivot disagrees with the independently chosen value."""


class PostconditionViolation(InternalInvariantViolation):
    """A computed witness failed its final re-evaluation check."""


class TargetNotInImage(Error):
    """Requested target matrix cannot be attained by the polynomial."""


class CapExceeded(Error):
    """Enumeration would exceed the configured work cap."""
