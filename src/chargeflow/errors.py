"""Exception types shared across the package."""


class ChargeflowError(Exception):
    """Base class for all package-specific errors."""


class NonConvergence(ChargeflowError):
    """An iteration (root finder, ODE stepper) failed to converge."""


class DegreeViolation(ChargeflowError):
    """Polynomial degree exceeds what the operator's domain admits."""


class ArityMismatch(ChargeflowError):
    """Number of polynomial arguments does not match the species count."""


class CoincidentPositions(ChargeflowError):
    """Two charge positions coincide (or are closer than the threshold)."""


class PZero(ChargeflowError):
    """The field polynomial P vanishes at a charge position."""


class Collision(ChargeflowError):
    """Charges collided during integration; carries the localized time."""

    def __init__(self, message, time=None):
        super().__init__(message)
        self.time = time


class SymmetryViolation(ChargeflowError):
    """Configuration does not have the required pairing symmetry."""


class BadK(ChargeflowError):
    """Index-set length violates the construction's admissibility condition."""


class DegenerateWronskian(ChargeflowError):
    """A Wronskian that must be nonzero came out identically zero."""


class CertificationFailure(ChargeflowError):
    """An equilibrium certificate failed re-verification."""

    def __init__(self, message, coefficient_index=None):
        super().__init__(message)
        self.coefficient_index = coefficient_index


class NoReturnFound(ChargeflowError):
    """No multiset return detected within the trajectory span."""


class ValidationError(ChargeflowError):
    """A configuration document failed schema validation."""
