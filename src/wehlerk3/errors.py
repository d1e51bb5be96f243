"""Exception types shared across the package."""


class WehlerError(Exception):
    """Base class for all library errors."""


# -- exact algebra --------------------------------------------------------

class BadModulus(WehlerError):
    """The requested modulus is not an odd prime of machine-word size."""


class ZeroInverse(WehlerError):
    """Multiplicative inverse of zero requested."""


class ArityMismatch(WehlerError):
    """Polynomial operation received operands over different variable sets."""


class ZeroPolynomial(WehlerError):
    """Operation undefined for the zero polynomial."""


class InexactDivision(WehlerError):
    """Polynomial division left a nonzero remainder."""


class ExponentOverflow(WehlerError):
    """A monomial exponent exceeded the supported bound (2**8)."""


# -- surfaces -------------------------------------------------------------

class ParseError(WehlerError):
    """Malformed surface file."""


class ZeroForm(WehlerError):
    """The (1,1) or (2,2) form of a surface is identically zero."""


class InexactQuotient(WehlerError):
    """A ramification quotient that must be exact was not."""


class ExhaustedAttempts(WehlerError):
    """Rejection sampling hit its draw cap without an acceptable surface."""


# -- involutions ----------------------------------------------------------

class DegenerateFiber(WehlerError):
    """The involution is undefined on this fiber; route through a blow-up chart."""


class NotOnSurface(WehlerError):
    """The given point does not satisfy L = Q = 0."""


# -- blow-up charts -------------------------------------------------------

class NotDegenerate(WehlerError):
    """Chart construction requested at a non-degenerate base point."""


class NoRationalS(WehlerError):
    """No rational line parameter matches the fiber point."""


class AmbiguousS(WehlerError):
    """More than one line parameter matches the fiber point."""


# -- dynamics -------------------------------------------------------------

class NonBijective(WehlerError):
    """Internal error: the assembled map is not a bijection of the phase space."""


class PairingFailure(WehlerError):
    """Internal error: asymmetric cycles could not be perfectly paired."""


# -- statistics -----------------------------------------------------------

class EmptyPhaseSpace(WehlerError):
    """Statistics requested for a surface with no phase points."""


class NoSymmetricCycles(WehlerError):
    """The symmetric-mean scaling is undefined without symmetric cycles."""


class ZeroFixedPoints(WehlerError):
    """The definition scaling is undefined when both involutions are fixed-point free."""


class BadDomain(WehlerError):
    """Curve data does not cover the expected grid."""


class NegativeX(WehlerError):
    """The limit law is only defined for x >= 0."""
