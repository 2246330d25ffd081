"""Exception hierarchy.

Every failure mode raised by this package derives from :class:`Error`, so
callers can catch one type.  The distinct subclasses exist because callers
(and the CLI exit-code mapping) dispatch on them.
"""


class Error(Exception):
    """Base class for all qtk errors."""


class InvalidArgument(Error, ValueError):
    """An argument is outside its documented range (for example n < 1)."""


# --- field construction and element arithmetic ---

class NotPrime(Error):
    """Field characteristic is not a prime number."""


class SizeBoundExceeded(Error):
    """Requested object is beyond the configured desk-scale size bound."""


class FieldMismatch(Error):
    """Operands belong to different fields."""


class DivisionByZero(Error, ZeroDivisionError):
    """Division or inversion of the zero element."""


class ZeroInput(Error):
    """Operation requires a nonzero element."""


class NoEmbedding(Error):
    """No field embedding exists (source degree does not divide target degree)."""


# --- polynomial ring ---

class BothZero(Error):
    """gcd of two zero polynomials is undefined."""


class ZeroModulus(Error):
    """Modular operation with a zero or constant modulus."""


class DegreeZero(Error):
    """Operation requires a polynomial of positive degree."""


class BoundTooSmall(Error):
    """Trial division exhausted the degree bound with a nontrivial cofactor left."""


class ZeroPolynomial(Error):
    """Operation requires a nonzero polynomial."""


# --- Moebius group / canonical reduction ---

class DegenerateResult(Error):
    """A quadratic rational expression lost coprimality or degree 2.

    Cannot happen under composition with invertible maps; raised only to
    signal an internal bug.
    """


# --- quadratic transformation ---

class OddDegree(Error):
    """Polynomial degree is odd where an even degree 2n is required."""


class SingularTriple(Error):
    """Involution triple (a, b, c) with b^2 - ac = 0 is not invertible."""


class Char2Degenerate(Error):
    """Degenerate characteristic-2 input (both defining coefficients vanish)."""


class NotCoprime(Error):
    """Polynomial shares a factor with the fixed-point quadratic."""


class NotInvariant(Error):
    """Input polynomial does not satisfy the required invariance identity."""


class RequiresNGreaterThan1(Error):
    """Count is only defined for source degree n > 1."""


# --- counting ---

class ZeroSigma(Error):
    """sigma must be a nonzero field element."""


# --- H-polynomial verification ---

class IdentityViolated(Error):
    """An algebraic identity that must hold failed; indicates a bug."""


def require(ok, message: str):
    """Raise IdentityViolated unless ok (an assert that ``python -O`` keeps)."""
    if not ok:
        raise IdentityViolated(message)


class MismatchFound(Error):
    """A theorem verification found a counterexample.

    This is the falsification channel: it must never fire.  The partial
    report is attached as ``.report`` for inspection.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


# --- higher-order kernels ---

class DegreeNotMultiple(Error):
    """Polynomial degree is not the required multiple of the kernel order."""


class Char2Unsupported(Error):
    """The order-4 kernel requires characteristic different from two."""


class NoSolution(Error):
    """Coefficient solve failed although the invariance predicate held."""
