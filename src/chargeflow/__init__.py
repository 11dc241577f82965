"""Integrable root dynamics of point charges.

Polynomial root flows driven by linear, bilinear and polylinear
second-order operators, with exact Wronskian equilibrium certificates,
adaptive integration, and conserved-quantity verification.
"""

from . import conserved, dynamics, equilibria, operators, polynomials
from .errors import (
    ArityMismatch,
    BadK,
    CertificationFailure,
    ChargeflowError,
    ClusterAmbiguity,
    CoincidentPositions,
    Collision,
    DegenerateWronskian,
    DegreeViolation,
    NoReturnFound,
    NonConvergence,
    NonIntegerPower,
    PZero,
    SymmetryViolation,
    ValidationError,
)
from .polynomials import Polynomial

__version__ = "0.1.0"
