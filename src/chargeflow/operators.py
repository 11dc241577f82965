"""Second-order operators driving the root flows.

Covers the single-polynomial linear operator (quartic P), the
multi-species polylinear operator and its eigenconstant (the paper's
bilinear operator with charge ratio Lambda is its two-species case,
charges (+1, -Lambda)), and the equilibrium gradient / energy
diagnostics for multiplicity-weighted charge configurations.  Each
formula is written once over ``Polynomial`` arithmetic, so the
coefficients decide the ring: an exact system gives exact results, a
float one complex results, and float polynomials with numpy (S,) array
coefficients a batch of S results from one call.  Mixing the exact and
float rings raises ``TypeError`` from the arithmetic itself.
"""

from __future__ import annotations

import cmath
import math
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
from .polynomials import Polynomial, _canonical, _distance, is_exact, pair_matrix
from .scalars import exactify

__all__ = [
    "SystemCoefficients",
    "Species",
    "ChargeConfiguration",
    "linear_L",
    "hypergeometric_L",
    "lambda_poly",
    "polylinear_H",
    "eigenpoly",
    "equilibrium_gradient",
    "gradient_with_scale",
    "energy",
]


def _as_poly(value):
    return value if isinstance(value, Polynomial) else Polynomial(value)


@dataclass(frozen=True)
class SystemCoefficients:
    """P, U, the charge structure, and the eigenconstant of one system.

    Modes:
      * linear     -- single species; P up to quartic, U up to cubic with
                      the forced cubic coefficient -2(n-1)*E
      * bilinear   -- charges exactly {+1, -Lambda}; P quadratic, U linear
      * polylinear -- arbitrary distinct charges Q; P quadratic, U linear

    P, U and the charges share one ring: the system is exact unless any
    of them is float, and then all of them are converted to float.
    """

    P: Polynomial
    U: Polynomial
    charges: Optional[Tuple] = None  # None => linear mode
    lam: Optional[object] = None  # explicit eigenconstant, else derived
    omega: Optional[float] = None  # set for the harmonic-trap rational case

    def __post_init__(self):
        charges = self.charges or ()
        exact = self.P.exact and self.U.exact and is_exact(charges)
        if not exact:
            object.__setattr__(self, "P", self.P.to_float())
            object.__setattr__(self, "U", self.U.to_float())
        if self.charges is None:
            if self.P.degree > 4:
                raise ValidationError("linear mode allows deg(P) <= 4")
            if self.U.degree > 3:
                raise ValidationError("linear mode allows deg(U) <= 3")
        else:
            to_ring = exactify if exact else (lambda c: complex(c).real)
            object.__setattr__(self, "charges", tuple(to_ring(c) for c in charges))
            if len(self.charges) < 1:
                raise ValidationError("need at least one species charge")
            if len(set(self.charges)) != len(self.charges):
                raise ValidationError("species charges must be pairwise distinct")
            if self.P.degree > 2:
                raise ValidationError("bilinear/polylinear mode allows deg(P) <= 2")
            if self.U.degree > 1:
                raise ValidationError("bilinear/polylinear mode allows deg(U) <= 1")

    # -- constructors -------------------------------------------------

    @staticmethod
    def linear(P, U):
        return SystemCoefficients(_as_poly(P), _as_poly(U))

    @staticmethod
    def bilinear(P, U, Lambda=1, lam=None):
        return SystemCoefficients.polylinear(P, U, (1, -Lambda), lam)

    @staticmethod
    def polylinear(P, U, charges, lam=None):
        return SystemCoefficients(_as_poly(P), _as_poly(U), tuple(charges), lam)

    @staticmethod
    def rational_omega(omega, Lambda=1.0):
        """Constant imaginary P and linear imaginary drift U = i*omega*z."""
        P = Polynomial([1j])
        U = Polynomial([0.0, 1j * float(omega)])
        return SystemCoefficients(
            P, U, charges=(1.0, -float(Lambda)), omega=float(omega)
        )

    # -- accessors -------------------------------------------------

    @property
    def exact(self):
        return self.P.exact and self.U.exact and is_exact(self.charges or ())

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

    def __post_init__(self):
        object.__setattr__(self, "species", tuple(self.species))

    def all_positions(self):
        return [z for s in self.species for z in s.positions]

    def sites(self):
        """Complex arrays (z, q, c), one entry per site: the positions, the
        species charges and the multiplicity-weighted charges."""
        z = np.array(self.all_positions(), dtype=complex)
        q = np.array([complex(s.charge) for s in self.species for _ in s.positions], dtype=complex)
        c = q * np.array([m for s in self.species for m in s.mults], dtype=int)
        return z, q, c

    def scale(self):
        return float(_scale(np.array(self.all_positions(), dtype=complex)))


def _scale(z: np.ndarray):
    """Largest |z_i| of each state in ``z`` (..., N), rounded as abs()
    rounds (``_distance``), or 1 where all positions vanish."""
    top = np.max(_distance(z), axis=-1, initial=0.0)
    return np.where(top > 0, top, 1.0)


def _check_sites(z: np.ndarray, rel: float, pz: Optional[np.ndarray] = None):
    """Raise CoincidentPositions when two positions of a state in ``z``
    (..., N) are closer than ``rel`` times its ``_scale``, and PZero where
    |P| at a position, ``pz`` shaped as ``z``, is below 1e-14."""
    close = pair_matrix(z, _distance, diagonal=np.inf) < rel * _scale(z)[..., None, None]
    if close.any():
        *_, r, s = np.argwhere(close)[0]
        raise CoincidentPositions(f"positions {r} and {s} coincide")
    if pz is not None:
        zero = np.abs(pz) < 1e-14
        if zero.any():
            raise PZero(f"P vanishes at position {z[np.argmax(zero)]}")


# -- linear operator ---------------------------------------------------------


def _forced_cubic(sys: SystemCoefficients, n: int):
    """Cubic coefficient of U required by the quartic-P evolution: -2(n-1)E."""
    return -2 * (n - 1) * sys.P.coeff(4)


def linear_L(sys: SystemCoefficients, n: int, p: Polynomial) -> Polynomial:
    """P p'' + U p' - (n/2) U' p - (n(n-1)/6) P'' p on polynomials of
    degree <= n; the quartic/cubic coefficient coupling is validated."""
    if sys.charges is not None:
        raise ValidationError("linear_L needs a linear-mode system")
    if p.degree > n:
        raise DegreeViolation(f"deg(p)={p.degree} exceeds n={n}")
    forced = _forced_cubic(sys, n)
    u3 = sys.U.coeff(3)
    if sys.exact:
        broken = u3 != forced
    else:
        broken = abs(u3 - forced) > 1e-12 * (1 + abs(forced))
    if broken:
        raise ValidationError("U cubic coefficient must equal -2(n-1)E")
    Pp = sys.P * p.derivative().derivative()
    Up = sys.U * p.derivative()
    half_nU = sys.U.derivative().scale(n).scale(Fraction(1, 2))
    sixth_P = sys.P.derivative().derivative().scale(Fraction(n * (n - 1), 6))
    return Pp + Up - (half_nU + sixth_P) * p


def hypergeometric_L(sys: SystemCoefficients, p: Polynomial) -> Polynomial:
    """Bare second-order action P p'' + U p' (no constant-term shifts)."""
    return sys.P * p.derivative().derivative() + sys.U * p.derivative()


# -- multi-species operator ---------------------------------------------------


def lambda_poly(sizes: Sequence[int], sys: SystemCoefficients):
    """-(U' + P''/2 * sum(Q_i n_i)) * sum(Q_i n_i) for l species; with
    charges (+1, -Lambda) this is (Lambda m - n)(U' + (n - Lambda m) P''/2)."""
    if sys.charges is None:
        raise ValidationError("lambda_poly needs species charges")
    if len(sizes) != len(sys.charges):
        raise ArityMismatch("sizes and charges length differ")
    total = sum(q * nn for q, nn in zip(sys.charges, sizes))
    return -(sys.U.coeff(1) + sys.P.coeff(2) * total) * total


def _product(polys: Sequence[Polynomial]):
    """prod(polys) from the first factor on; the empty product is the
    scalar 1, which scales either ring."""
    if not polys:
        return 1
    out = polys[0]
    for q in polys[1:]:
        out = out * q
    return out


def polylinear_H(sys: SystemCoefficients, qs: Sequence[Polynomial], lam=None) -> Polynomial:
    """Multi-species operator: P (sum Q_i^2 q_i'' prod + 2 sum_{i<j} Q_iQ_j q_i'q_j' prod)
    + P'/2 sum Q_i^2 q_i' prod + U sum Q_i q_i' prod + lam prod, each prod
    over the q_n not differentiated.  With two species and charges
    (+1, -Lambda) it is the bilinear operator
    (f''g - 2L f'g' + L^2 g''f) P + (f'g + L^2 g'f) P'/2 + (f'g - L g'f) U + lam f g.
    Evaluated by the product rule, with no q'': (sum Q_i^2 q_i' prod)' holds
    each Q_i^2 q_i'' prod and (Q_i^2 + Q_j^2) q_i'q_j' prod per pair i < j, so
    the P factor is that derivative minus sum_{i<j} (Q_i - Q_j)^2 q_i'q_j' prod."""
    if sys.charges is None:
        raise ValidationError("polylinear_H needs species charges")
    qs = list(qs)
    if len(qs) != len(sys.charges):
        raise ArityMismatch(
            f"got {len(qs)} polynomials for {len(sys.charges)} species"
        )
    if lam is None:
        lam = sys.lam
    if lam is None:
        lam = lambda_poly([q.degree for q in qs], sys)
    l = len(qs)
    Q = sys.charges
    dqs = [q.derivative() for q in qs]

    sym = anti = Polynomial.zero()
    for i in range(l):
        slope = _product([dqs[i]] + qs[:i] + qs[i + 1 :])  # q_i' prod_{n != i} q_n
        sym = sym + slope.scale(Q[i] * Q[i])
        anti = anti + slope.scale(Q[i])

    second = sym.derivative()
    for i in range(l):
        for j in range(i + 1, l):
            others = [q for k, q in enumerate(qs) if k not in (i, j)]
            gap = Q[i] - Q[j]
            second = second - _product([dqs[i], dqs[j]] + others).scale(gap * gap)

    H = second * sys.P + sym.scale(Fraction(1, 2)) * sys.P.derivative() + anti * sys.U
    return H + _product(qs).scale(lam) if lam else H  # lam = 0 for cylinder and Adler-Moser pairs


# -- eigenpolynomials of P d^2 + U d ------------------------------------------


def eigenvalue_of(sys: SystemCoefficients, n: int):
    """Eigenconstant -n((n-1)C + b) of P d^2 + U d on a degree-n
    polynomial, with C the z^2 coefficient of P and b the z coefficient of U."""
    return -(n * (n - 1) * sys.P.coeff(2) + n * sys.U.coeff(1))


def _gaussian_numerators(p: Polynomial, count: int, g: int):
    """(re, im) integer pairs of g times p's coefficients c_0 .. c_{count-1},
    for a multiple g of p.den."""
    f = g // p.den
    im = p.im or (0,) * len(p.re)
    out = [(r * f, i * f) for r, i in zip(p.re[:count], im)]
    return out + [(0, 0)] * (count - len(out))


def _gmul(x, y):
    """Product of two Gaussian integers given as (re, im) pairs."""
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def eigenpoly(sys: SystemCoefficients, n: int, leading=1) -> Polynomial:
    """Degree-n polynomial eigenfunction of L = P d^2 + U d, built by the
    downward coefficient recurrence for the eigenvalue ``eigenvalue_of``
    derived from the leading power.  Exact systems give exact coefficients.

    The recurrence c_j = -(A (j+2)(j+1) c_{j+2} + (B j(j+1) + a (j+1)) c_{j+1}) / D_j,
    D_j = C j(j-1) + b j + lam (P = A + B z + C z^2, U = a + b z), runs
    fraction-free on Gaussian integers: s_j = c_j D_j D_{j+1} .. D_{n-1}
    obeys s_j = -(A (j+2)(j+1) D_{j+1} s_{j+2} + (B j(j+1) + a (j+1)) s_{j+1}),
    and one division by T = D_0 .. D_{n-1} at the end gives every c_j."""
    if not sys.exact:
        raise ValidationError("eigenpoly requires an exact system")
    g = math.lcm(sys.P.den, sys.U.den)  # clears P and U to Gaussian integers
    (A, B, C), (a, b) = _gaussian_numerators(sys.P, 3, g), _gaussian_numerators(sys.U, 2, g)
    s = [(0, 0)] * (n + 2)  # s[n + 1] = 0 starts the recurrence
    s[n] = (1, 0)
    D = [(1, 0)] * (n + 1)  # D[n] = 1 stands for the empty product
    for j in range(n - 1, -1, -1):
        # D_j = C (j(j-1) - n(n-1)) + b (j - n), as lam = -(n(n-1) C + n b) (eigenvalue_of)
        x, y = j * (j - 1) - n * (n - 1), j - n
        D[j] = (C[0] * x + b[0] * y, C[1] * x + b[1] * y)
        if D[j] == (0, 0):
            raise ValidationError(
                f"eigenvalue resonance at power {j}; eigenpolynomial not unique"
            )
        u, v, w = (j + 2) * (j + 1), j * (j + 1), j + 1
        t2 = _gmul(_gmul((A[0] * u, A[1] * u), D[j + 1]), s[j + 2])
        t1 = _gmul((B[0] * v + a[0] * w, B[1] * v + a[1] * w), s[j + 1])
        s[j] = (-t1[0] - t2[0], -t1[1] - t2[1])
    # c_j = s_j (D_0 .. D_{j-1}) / T, and 1 / T = conj(T) / |T|^2
    heads, head = [], (1, 0)
    for j in range(n + 1):
        heads.append(_gmul(s[j], head))
        head = _gmul(head, D[j])
    num = [_gmul(h, (head[0], -head[1])) for h in heads]
    poly = _canonical(head[0] ** 2 + head[1] ** 2, [r for r, _ in num], [i for _, i in num])
    return poly.scale(exactify(leading))


# -- equilibrium gradient and energy ------------------------------------------


def gradient_with_scale(cfg: ChargeConfiguration, sys: SystemCoefficients):
    """``equilibrium_gradient`` as a complex array (n,), with the size its
    terms cancel from at each site as a float array (n,):

        2 |P(z_r)| sum_{s != r} |c_s / (z_r - z_s)|
              + |U(z_r)| + |(c_r - Q_r/2) P'(z_r)|

    A gradient at rounding level is a tiny multiple of this size, however
    the pair is scaled."""
    return _site_gradient(*cfg.sites(), sys)[:2]


def _site_gradient(z: np.ndarray, q: np.ndarray, c: np.ndarray, sys: SystemCoefficients):
    """``gradient_with_scale`` of the site arrays (z, q, c) that
    ``ChargeConfiguration.sites`` reads, with P at the sites as a third
    array."""
    _check_sites(z, 1e-14)
    P, U = sys.P.to_float(), sys.U.to_float()
    # row sums rather than ``@``: BLAS starts threads for n >= 64 or so
    pulls = pair_matrix(z) * c
    Pz, Uz, self_term = P(z), U(z), (c - q / 2.0) * P.derivative()(z)
    g = -2.0 * Pz * pulls.sum(axis=1) - Uz - self_term
    size = 2.0 * np.abs(Pz) * np.abs(pulls).sum(axis=1) + np.abs(Uz) + np.abs(self_term)
    return g, size, Pz


def equilibrium_gradient(cfg: ChargeConfiguration, sys: SystemCoefficients):
    """Velocity-style stationarity test for a multiplicity-weighted
    configuration:

        g_r = -2 P(z_r) sum_{s != r} c_s / (z_r - z_s)
              - U(z_r) - (c_r - Q_r/2) P'(z_r)

    with c_r the multiplicity-weighted charge and Q_r the species charge.
    All-zero output is equivalent to the configuration being a fixed point
    (residue criterion of the governing bilinear identity).
    """
    return gradient_with_scale(cfg, sys)[0].tolist()


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
    z, q, c = cfg.sites()
    P, U = sys.P.to_float(), sys.U.to_float()
    pz = P(z)
    _check_sites(z, 1e-14, pz)
    # the diagonal (1 / P_r^2) is finite and dropped by triu
    ratio = pair_matrix(z, np.square, diagonal=1.0) / np.outer(pz, pz)
    total = np.sum(np.triu(np.outer(c, c) * np.log(ratio), 1))
    ctot = np.sum(c)
    for zr, qr, cr in zip(z, q, c):
        total += cr * _external_term(P, U, ctot - qr / 2.0, zr)
    return complex(total)
