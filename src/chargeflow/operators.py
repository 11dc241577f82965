"""Second-order operators driving the root flows.

Covers the single-polynomial linear operator (quartic P), the
two-polynomial bilinear operator with charge ratio Lambda, the general
multi-species polylinear operator, the eigenconstant formulas tied to
polynomial degrees, and the equilibrium gradient / energy diagnostics
for multiplicity-weighted charge configurations.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import (
    ArityMismatch,
    CoincidentPositions,
    DegreeViolation,
    PZero,
    ValidationError,
)
from .polynomials import Polynomial, _distance, pair_matrix
from .scalars import GaussianRational, exactify

__all__ = [
    "SystemCoefficients",
    "Species",
    "ChargeConfiguration",
    "linear_L",
    "hypergeometric_L",
    "bilinear_H",
    "lambda_nm",
    "lambda_poly",
    "polylinear_H",
    "eigenpoly",
    "equilibrium_gradient",
    "energy",
]


def _as_poly(value, exact):
    if isinstance(value, Polynomial):
        return value
    return Polynomial(value, exact=exact)


@dataclass(frozen=True)
class SystemCoefficients:
    """P, U, the charge structure, and the eigenconstant of one system.

    Modes:
      * linear     -- single species; P up to quartic, U up to cubic with
                      the forced cubic coefficient -2(n-1)*E
      * bilinear   -- charges exactly {+1, -Lambda}; P quadratic, U linear
      * polylinear -- arbitrary distinct charges Q; P quadratic, U linear
    """

    P: Polynomial
    U: Polynomial
    charges: Optional[Tuple] = None  # None => linear mode
    lam: Optional[object] = None  # explicit eigenconstant, else derived
    omega: Optional[float] = None  # set for the harmonic-trap rational case

    def __post_init__(self):
        if self.P.exact != self.U.exact:
            raise ValidationError("P and U must share exactness")
        if self.charges is None:
            if self.P.degree > 4:
                raise ValidationError("linear mode allows deg(P) <= 4")
            if self.U.degree > 3:
                raise ValidationError("linear mode allows deg(U) <= 3")
        else:
            if len(self.charges) < 1:
                raise ValidationError("need at least one species charge")
            if len(set(map(self._charge_key, self.charges))) != len(self.charges):
                raise ValidationError("species charges must be pairwise distinct")
            if self.P.degree > 2:
                raise ValidationError("bilinear/polylinear mode allows deg(P) <= 2")
            if self.U.degree > 1:
                raise ValidationError("bilinear/polylinear mode allows deg(U) <= 1")

    @staticmethod
    def _charge_key(c):
        if isinstance(c, GaussianRational):
            return ("g", c.re, c.im)
        if isinstance(c, Fraction):
            return ("f", c)
        return ("x", complex(c))

    # -- constructors -------------------------------------------------

    @staticmethod
    def linear(P, U, exact=True):
        return SystemCoefficients(_as_poly(P, exact), _as_poly(U, exact))

    @staticmethod
    def bilinear(P, U, Lambda=1, lam=None, exact=True):
        P, U = _as_poly(P, exact), _as_poly(U, exact)
        one = exactify(1) if exact else 1.0
        lam_charge = exactify(Lambda) if exact else complex(Lambda).real
        return SystemCoefficients(P, U, charges=(one, -lam_charge), lam=lam)

    @staticmethod
    def polylinear(P, U, charges, lam=None, exact=True):
        P, U = _as_poly(P, exact), _as_poly(U, exact)
        if exact:
            charges = tuple(exactify(c) for c in charges)
        else:
            charges = tuple(complex(c).real for c in charges)
        return SystemCoefficients(P, U, charges=charges, lam=lam)

    @staticmethod
    def rational_omega(omega, Lambda=1.0):
        """Constant imaginary P and linear imaginary drift U = i*omega*z."""
        P = Polynomial([1j], exact=False)
        U = Polynomial([0.0, 1j * float(omega)], exact=False)
        return SystemCoefficients(
            P, U, charges=(1.0, -float(Lambda)), omega=float(omega)
        )

    # -- accessors -------------------------------------------------

    @property
    def exact(self):
        return self.P.exact

    @property
    def mode(self):
        if self.charges is None:
            return "linear"
        return "bilinear" if len(self.charges) == 2 else "polylinear"

    @property
    def Lambda(self):
        """Charge ratio for the two-species case (charges {+1, -Lambda})."""
        if self.charges is None or len(self.charges) != 2:
            raise ValidationError("Lambda is defined for two species only")
        return -self.charges[1]


@dataclass(frozen=True)
class Species:
    charge: object  # real number (or exact scalar)
    positions: Tuple[complex, ...]
    multiplicities: Optional[Tuple[int, ...]] = None

    def __post_init__(self):
        object.__setattr__(self, "positions", tuple(complex(z) for z in self.positions))
        if self.multiplicities is not None:
            if len(self.multiplicities) != len(self.positions):
                raise ValidationError("multiplicities must match positions")
            object.__setattr__(
                self, "multiplicities", tuple(int(m) for m in self.multiplicities)
            )

    @property
    def mults(self):
        return self.multiplicities or (1,) * len(self.positions)


@dataclass(frozen=True)
class ChargeConfiguration:
    """Labeled complex positions grouped by species."""

    species: Tuple[Species, ...]
    time: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "species", tuple(self.species))

    @property
    def sizes(self):
        return tuple(len(s.positions) for s in self.species)

    def all_positions(self):
        return [z for s in self.species for z in s.positions]

    def flat(self):
        """(position, species charge, multiplicity) triples."""
        out = []
        for s in self.species:
            for z, m in zip(s.positions, s.mults):
                out.append((z, complex(s.charge) if not isinstance(s.charge, GaussianRational) else s.charge.to_complex(), m))
        return out

    def scale(self):
        pts = self.all_positions()
        return max((abs(z) for z in pts), default=0.0) or 1.0


# -- linear operator ---------------------------------------------------------


def _forced_cubic(sys: SystemCoefficients, n: int):
    """Cubic coefficient of U required by the quartic-P evolution: -2(n-1)E."""
    E = sys.P.coeff(4)
    if sys.exact:
        return exactify(-2 * (n - 1)) * E
    return -2.0 * (n - 1) * E


def linear_L(sys: SystemCoefficients, n: int, p: Polynomial) -> Polynomial:
    """P p'' + U p' - (n/2) U' p - (n(n-1)/6) P'' p on polynomials of
    degree <= n; the quartic/cubic coefficient coupling is validated."""
    if sys.mode != "linear":
        raise ValidationError("linear_L needs a linear-mode system")
    if p.degree > n:
        raise DegreeViolation(f"deg(p)={p.degree} exceeds n={n}")
    if p.exact != sys.exact:
        raise TypeError("polynomial/system exactness mismatch")
    forced = _forced_cubic(sys, n)
    u3 = sys.U.coeff(3)
    if sys.exact:
        if not (u3 - forced).is_zero:
            raise ValidationError("U cubic coefficient must equal -2(n-1)E")
    elif abs(u3 - forced) > 1e-12 * (1 + abs(forced)):
        raise ValidationError("U cubic coefficient must equal -2(n-1)E")
    Pp = sys.P * p.derivative().derivative()
    Up = sys.U * p.derivative()
    half = Fraction(1, 2) if sys.exact else 0.5
    sixth = Fraction(n * (n - 1), 6) if sys.exact else n * (n - 1) / 6.0
    shift = sys.U.derivative().scale(n).scale(half) + sys.P.derivative().derivative().scale(sixth)
    return Pp + Up - shift * p


def hypergeometric_L(sys: SystemCoefficients, p: Polynomial) -> Polynomial:
    """Bare second-order action P p'' + U p' (no constant-term shifts)."""
    if p.exact != sys.exact:
        raise TypeError("polynomial/system exactness mismatch")
    return sys.P * p.derivative().derivative() + sys.U * p.derivative()


# -- eigenconstants -----------------------------------------------------------


def lambda_nm(n: int, m: int, sys: SystemCoefficients):
    """(Lambda*m - n) * (U' + (n - Lambda*m) * P''/2) for the two-species case."""
    lam_charge = sys.Lambda
    uprime = sys.U.coeff(1)
    pdd = sys.P.coeff(2)
    if sys.exact:
        lm = exactify(m) * lam_charge
        nn = exactify(n)
        return (lm - nn) * (uprime + (nn - lm) * pdd)
    lm = complex(m) * complex(lam_charge)
    return (lm - n) * (uprime + (n - lm) * pdd)


def lambda_poly(sizes: Sequence[int], sys: SystemCoefficients):
    """-(U' + P''/2 * sum(Q_i n_i)) * sum(Q_i n_i) for l species."""
    if sys.charges is None:
        raise ValidationError("lambda_poly needs species charges")
    if len(sizes) != len(sys.charges):
        raise ArityMismatch("sizes and charges length differ")
    uprime = sys.U.coeff(1)
    pdd = sys.P.coeff(2)
    if sys.exact:
        total = GaussianRational(0)
        for q, nn in zip(sys.charges, sizes):
            total = total + exactify(nn) * q
        return -(uprime + pdd * total) * total
    total = sum(complex(q) * nn for q, nn in zip(sys.charges, sizes))
    return -(uprime + pdd * total) * total


# -- bilinear / polylinear actions -------------------------------------------


def bilinear_H(sys: SystemCoefficients, f: Polynomial, g: Polynomial, lam=None) -> Polynomial:
    """(f''g - 2L f'g' + L^2 g''f) P + (f'g + L^2 g'f) P'/2
    + (f'g - L g'f) U + lam f g, with L the charge ratio."""
    if sys.mode == "linear":
        raise ValidationError("bilinear_H needs a two-species system")
    if f.exact != sys.exact or g.exact != sys.exact:
        raise TypeError("polynomial/system exactness mismatch")
    L = sys.Lambda
    if lam is None:
        lam = sys.lam
    if lam is None:
        lam = lambda_nm(f.degree, g.degree, sys)
    fp, gp = f.derivative(), g.derivative()
    fpp, gpp = fp.derivative(), gp.derivative()
    L2 = L * L
    half = Fraction(1, 2) if sys.exact else 0.5
    second = fpp * g - (fp * gp).scale(2 * L if not sys.exact else exactify(2) * L) + (gpp * f).scale(L2)
    first_sym = (fp * g + (gp * f).scale(L2)).scale(half)
    first_anti = fp * g - (gp * f).scale(L)
    return second * sys.P + first_sym * sys.P.derivative() + first_anti * sys.U + (f * g).scale(lam)


def polylinear_H(sys: SystemCoefficients, qs: Sequence[Polynomial], lam=None) -> Polynomial:
    """Multi-species operator: P (sum Q_i^2 q_i'' prod + 2 sum_{i<j} Q_iQ_j q_i'q_j' prod)
    + P'/2 sum Q_i^2 q_i' prod + U sum Q_i q_i' prod + lam prod."""
    if sys.charges is None:
        raise ValidationError("polylinear_H needs species charges")
    qs = list(qs)
    if len(qs) != len(sys.charges):
        raise ArityMismatch(
            f"got {len(qs)} polynomials for {len(sys.charges)} species"
        )
    for q in qs:
        if q.exact != sys.exact:
            raise TypeError("polynomial/system exactness mismatch")
    if lam is None:
        lam = sys.lam
    if lam is None:
        lam = lambda_poly([q.degree for q in qs], sys)
    l = len(qs)
    Q = sys.charges
    half = Fraction(1, 2) if sys.exact else 0.5

    def prod_except(skip):
        out = Polynomial.one(sys.exact)
        for idx, q in enumerate(qs):
            if idx not in skip:
                out = out * q
        return out

    dqs = [q.derivative() for q in qs]
    ddqs = [d.derivative() for d in dqs]

    second = Polynomial.zero(sys.exact)
    for i in range(l):
        second = second + (ddqs[i] * prod_except({i})).scale(Q[i] * Q[i])
    for i in range(l):
        for j in range(i + 1, l):
            term = dqs[i] * dqs[j] * prod_except({i, j})
            second = second + term.scale(Q[i] * Q[j]).scale(2)

    sym = Polynomial.zero(sys.exact)
    anti = Polynomial.zero(sys.exact)
    for i in range(l):
        rest = prod_except({i})
        sym = sym + (dqs[i] * rest).scale(Q[i] * Q[i])
        anti = anti + (dqs[i] * rest).scale(Q[i])

    full = prod_except(set())
    return (
        second * sys.P
        + sym.scale(half) * sys.P.derivative()
        + anti * sys.U
        + full.scale(lam)
    )


# -- eigenpolynomials of P d^2 + U d ------------------------------------------


def eigenpoly(sys: SystemCoefficients, n: int, leading=1) -> Polynomial:
    """Degree-n polynomial eigenfunction of L = P d^2 + U d, built by the
    downward coefficient recurrence; eigenvalue -n((n-1)C + b) is derived
    from the leading power.  Exact systems give exact coefficients."""
    if not sys.exact:
        raise ValidationError("eigenpoly requires an exact system")
    A, B, C = sys.P.coeff(0), sys.P.coeff(1), sys.P.coeff(2)
    a, b = sys.U.coeff(0), sys.U.coeff(1)
    lam = -(exactify(n * (n - 1)) * C + exactify(n) * b)
    coeffs = [GaussianRational(0)] * (n + 1)
    coeffs[n] = exactify(leading)
    for j in range(n - 1, -1, -1):
        upper2 = coeffs[j + 2] if j + 2 <= n else GaussianRational(0)
        upper1 = coeffs[j + 1]
        rhs = (
            A * exactify((j + 2) * (j + 1)) * upper2
            + (B * exactify(j * (j + 1)) + a * exactify(j + 1)) * upper1
        )
        denom = C * exactify(j * (j - 1)) + b * exactify(j) + lam
        if denom.is_zero:
            raise ValidationError(
                f"eigenvalue resonance at power {j}; eigenpolynomial not unique"
            )
        coeffs[j] = -(rhs / denom)
    return Polynomial(coeffs)


def eigenvalue_of(sys: SystemCoefficients, n: int):
    """Eigenconstant of P d^2 + U d on a degree-n polynomial."""
    C = sys.P.coeff(2)
    b = sys.U.coeff(1)
    if sys.exact:
        return -(exactify(n * (n - 1)) * C + exactify(n) * b)
    return -(n * (n - 1) * C + n * b)


# -- equilibrium gradient and energy ------------------------------------------


def _weighted_sites(cfg: ChargeConfiguration):
    """Positions, species charges and multiplicity-weighted charges, one
    entry per site."""
    sites = cfg.flat()
    z = np.array([site[0] for site in sites], dtype=complex)
    q = np.array([site[1] for site in sites], dtype=complex)
    c = q * np.array([site[2] for site in sites], dtype=int)
    return z, q, c


def equilibrium_gradient(cfg: ChargeConfiguration, sys: SystemCoefficients):
    """Velocity-style stationarity test for a multiplicity-weighted
    configuration:

        g_r = -2 P(z_r) sum_{s != r} c_s / (z_r - z_s)
              - U(z_r) - (c_r - Q_r/2) P'(z_r)

    with c_r the multiplicity-weighted charge and Q_r the species charge.
    All-zero output is equivalent to the configuration being a fixed point
    (residue criterion of the governing bilinear identity).
    """
    z, q, c = _weighted_sites(cfg)
    P, U = sys.P.to_float(), sys.U.to_float()
    close = pair_matrix(z, _distance, diagonal=np.inf) < 1e-14 * cfg.scale()
    if close.any():
        r, s = np.argwhere(close)[0]
        raise CoincidentPositions(f"positions {r} and {s} coincide")
    # a row sum rather than ``@``: BLAS starts threads for n >= 64 or so
    pairs = (pair_matrix(z) * c).sum(axis=1)
    g = -2.0 * P(z) * pairs - U(z) - (c - q / 2.0) * P.derivative()(z)
    return g.tolist()


def _external_term(P: Polynomial, U: Polynomial, kappa: complex, z: complex):
    """Antiderivative of (U + kappa P') / P at z, principal branches.

    Handled per degree of P: constant, linear, or quadratic (with distinct
    or repeated roots); this covers every field shape the flows admit.
    """
    num = U + P.derivative().scale(kappa)
    d = P.degree
    if d <= 0:
        c0 = P.coeff(0)
        # polynomial / constant: integrate the linear numerator directly
        a, b = num.coeff(0), num.coeff(1)
        return (a * z + b * z * z / 2.0) / c0
    if d == 1:
        p1, p0 = P.coeff(1), P.coeff(0)
        root = -p0 / p1
        # num = alpha + beta z = beta (z - root) + num(root)
        beta = num.coeff(1)
        return (beta * z + num(root) * cmath.log(z - root)) / p1
    p2 = P.coeff(2)
    disc = P.coeff(1) ** 2 - 4.0 * p2 * P.coeff(0)
    sq = cmath.sqrt(disc)
    r1 = (-P.coeff(1) + sq) / (2.0 * p2)
    r2 = (-P.coeff(1) - sq) / (2.0 * p2)
    if abs(r1 - r2) < 1e-12 * (1 + abs(r1)):
        # repeated root: (alpha + beta z)/(z-r)^2
        beta = num.coeff(1)
        alpha = num.coeff(0)
        return (beta * cmath.log(z - r1) - (alpha + beta * r1) / (z - r1)) / p2
    A1 = num(r1) / (p2 * (r1 - r2))
    A2 = num(r2) / (p2 * (r2 - r1))
    return A1 * cmath.log(z - r1) + A2 * cmath.log(z - r2)


def energy(cfg: ChargeConfiguration, sys: SystemCoefficients) -> complex:
    """Log-interaction energy with species-dependent external terms.

    H = sum_{r<s} c_r c_s ln((z_r - z_s)^2 / (P(z_r) P(z_s)))
        + sum_r c_r u_{species(r)}(z_r)

    where u_s' = (U + (C_tot - Q_s/2) P') / P and C_tot is the total
    weighted charge.  Diagnostic only (principal-branch logarithms); the
    gradient relation d H / d z_r = -c_r g_r / P(z_r) ties it to
    ``equilibrium_gradient``.
    """
    z, q, c = _weighted_sites(cfg)
    P, U = sys.P.to_float(), sys.U.to_float()
    pz = P(z)
    zero = np.abs(pz) < 1e-14
    if zero.any():
        raise PZero(f"P vanishes at position {z[np.argmax(zero)]}")
    if np.any(pair_matrix(z, _distance, diagonal=np.inf) < 1e-14 * cfg.scale()):
        raise CoincidentPositions("coincident positions in energy")
    # the diagonal (1 / P_r^2) is finite and dropped by triu
    ratio = pair_matrix(z, np.square, diagonal=1.0) / np.outer(pz, pz)
    total = np.sum(np.triu(np.outer(c, c) * np.log(ratio), 1))
    ctot = np.sum(c)
    for zr, qr, cr in zip(z, q, c):
        total += cr * _external_term(P, U, ctot - qr / 2.0, zr)
    return complex(total)
