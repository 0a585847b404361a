"""Exception types shared across the package.

Every failure mode that callers are expected to catch gets its own class.
All of them derive from ElemcalcError so a bare `except ElemcalcError`
catches anything raised deliberately by this library.
"""


class ElemcalcError(Exception):
    """Base class for all library errors."""


# ring layer

class DescriptorMismatch(ElemcalcError):
    """Two elements from different rings were combined."""


class NotAUnit(ElemcalcError):
    """Inversion was requested for a non-invertible element."""


class TwoNotInvertible(ElemcalcError):
    """An operation needed 1/2 but 2 is not a unit in the ring."""


class LengthMismatch(ElemcalcError):
    """A coefficient vector does not match the generator list it certifies."""


class IdealMismatch(ElemcalcError):
    """Certified elements over different ideal presentations were combined."""


class UnknownVariable(ElemcalcError):
    """A substitution referenced a variable the ring does not have."""


# matrix layer

class OddDimension(ElemcalcError):
    """A symplectic or alternating-form operation got an odd matrix size."""


class NotAlternating(ElemcalcError):
    """A matrix expected to be alternating is not."""


class CertificateInvalid(ElemcalcError):
    """A membership certificate does not reproduce its claimed value."""


class NotInKernel(ElemcalcError):
    """A vector expected to pair to zero with a row does not."""


# word layer

class BadIndices(ElemcalcError):
    """Generator indices out of range or violating i != j constraints."""


class SideConditionViolated(ElemcalcError):
    """A commutator identity was invoked outside its index side conditions."""


# decomposition layer

class SupportOverlap(ElemcalcError):
    """A vector has support on coordinates required to be zero."""


class PairingNonzero(ElemcalcError):
    """Two vectors expected to be isotropic to each other are not."""


class PairNotZero(ElemcalcError):
    """A designated coordinate pair of a vector is not zero."""


class DimensionTooSmall(ElemcalcError):
    """The construction needs more coordinate pairs than the matrix has."""


class VerificationFailed(ElemcalcError):
    """A produced word does not multiply out to its target matrix."""


# bridge layer

class NonstandardForm(ElemcalcError):
    """An operation required the standard alternating form."""


class FormMismatch(ElemcalcError):
    """Two objects carry different alternating forms."""


class FormRelationFails(ElemcalcError):
    """A claimed base-change relation between two forms does not hold."""


class NotLocalRing(ElemcalcError):
    """The standardization algorithm only runs over a local ring."""


class PfaffianNotOne(ElemcalcError):
    """Standardization requires the form to have Pfaffian one."""


class NotCongruentToStandard(ElemcalcError):
    """The form is not congruent to the standard one modulo the ideal."""


class NotCertified(ElemcalcError):
    """A letter that must carry a membership certificate has none."""


# cli layer

class UnknownSuite(ElemcalcError):
    """The requested verification suite name does not exist."""


class BadTrialCount(ElemcalcError):
    """A suite run was asked for a negative number of trials."""
