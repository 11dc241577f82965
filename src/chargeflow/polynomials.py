"""Univariate polynomial arithmetic over exact Gaussian rationals and
double-precision complex numbers.

Dense coefficient lists indexed by power.  The zero polynomial is the
empty list, so ``degree == len(coeffs) - 1`` holds for everything else.
Each operation is written once; the coefficients decide the ring:

* exact -- every input coefficient is an ``int``, ``Fraction`` or
  ``GaussianRational``; they are stored as ``GaussianRational``s;
* float -- any other input; each scalar is stored as a ``complex``;
* batched float -- a numpy (S,) array coefficient is stored unchanged,
  making the polynomial a batch of S float polynomials.

The zero polynomial belongs to every ring.  Exact and float
coefficients never mix: ``GaussianRational`` arithmetic rejects complex
operands with ``TypeError``, and conversion goes through
``Polynomial.to_float`` explicitly.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

from .errors import ClusterAmbiguity, NonConvergence
from .scalars import EXACT, GaussianRational, exactify, to_complex

__all__ = [
    "Polynomial",
    "from_roots",
    "find_roots",
    "wronskian",
    "classical",
    "hermite",
    "laguerre",
    "jacobi",
    "monomial",
    "reduce_pair",
    "cluster_points",
    "pair_matrix",
]


def is_exact(values) -> bool:
    """The ring rule: exact when every value is in ``scalars.EXACT``."""
    return all(isinstance(v, EXACT) for v in values)


def _coerce(values):
    """Coefficients in their ring."""
    if is_exact(values):
        return tuple(exactify(v) for v in values)
    return tuple(v if isinstance(v, np.ndarray) else complex(v) for v in values)


def _ratio_json(f: Fraction):
    return [str(f.numerator), str(f.denominator)]


def _ratio(num: str, den: str) -> Fraction:
    return Fraction(int(num), int(den))


def _is_zero(c):
    return not (c.any() if isinstance(c, np.ndarray) else c)


class Polynomial:
    """Dense univariate polynomial; coefficients c0..cd by ascending power."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = _coerce(tuple(coeffs))
        while coeffs and _is_zero(coeffs[-1]):
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero():
        return Polynomial(())

    @staticmethod
    def one():
        return Polynomial((1,))

    # -- basic queries ---------------------------------------------------

    @property
    def exact(self):
        """True for exact coefficients; the zero polynomial counts as exact."""
        return is_exact(self.coeffs[:1])

    @property
    def degree(self):
        """len(coeffs) - 1; the zero polynomial reports -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self):
        return not self.coeffs

    def coeff(self, k):
        """Coefficient of z**k; past the degree it is the ring-neutral 0."""
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    def leading(self):
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)!r})"

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return Polynomial([x + y for x, y in zip(a, b)] + list(a[len(b) :]))

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + -other

    def __neg__(self):
        return Polynomial([-c for c in self.coeffs])

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        if self.is_zero or other.is_zero:
            return Polynomial.zero()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Polynomial(out)

    __rmul__ = __mul__

    def scale(self, scalar):
        """Multiply by a scalar, which first joins the coefficients' ring
        (a ``Fraction`` scales a float polynomial as a complex)."""
        if self.is_zero:
            return self
        scalar = _coerce((self.coeffs[-1], scalar))[1]
        return Polynomial([c * scalar for c in self.coeffs])

    def shift(self, k):
        """Multiply by z**k."""
        if self.is_zero:
            return self
        return Polynomial((0,) * k + self.coeffs)

    def monic(self):
        if self.is_zero:
            return self
        lead = self.leading()
        return Polynomial([c / lead for c in self.coeffs])

    def divmod(self, other):
        """Long division; exact polynomials only (field coefficients)."""
        if not self.exact or not other.exact:
            raise TypeError("polynomial division requires exact polynomials")
        if other.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Polynomial.zero(), self
        quot = [0] * (dq + 1)
        dlead = other.leading()
        for k in range(dq, -1, -1):
            c = rem[k + other.degree] / dlead
            quot[k] = c
            if not c.is_zero:
                for j, d in enumerate(other.coeffs):
                    rem[k + j] = rem[k + j] - c * d
        return Polynomial(quot), Polynomial(rem)

    def div_exact(self, other):
        quot, rem = self.divmod(other)
        if not rem.is_zero:
            raise ArithmeticError("inexact polynomial division")
        return quot

    # -- calculus ---------------------------------------------------

    def derivative(self):
        return Polynomial([k * self.coeffs[k] for k in range(1, len(self.coeffs))])

    def __call__(self, z):
        """Horner evaluation.

        An exact polynomial at an exact point stays exact; any float
        operand converts the whole evaluation to complex (an explicit
        branch, not silent coefficient mixing).  A numpy array is
        evaluated elementwise.
        """
        # arrays (the integrator's hot path) skip the slow ABC check of EXACT
        coeffs, exact, array = self.coeffs, self.exact, isinstance(z, np.ndarray)
        if exact and not array and isinstance(z, EXACT):
            acc, z = GaussianRational(0), exactify(z)
        else:
            acc = 0j
            if exact and coeffs:
                coeffs = [c.to_complex() for c in coeffs]
            if not array:
                z = to_complex(z)
        for c in reversed(coeffs):
            acc = acc * z + c
        return acc

    # -- conversions ---------------------------------------------------

    def to_float(self):
        if not self.exact:
            return self
        return Polynomial([c.to_complex() for c in self.coeffs])

    def to_json(self):
        if not self.exact:
            return {"exact": False, "coeffs": [[c.real, c.imag] for c in self.coeffs]}
        coeffs = [
            _ratio_json(c.re) if c.is_real else [_ratio_json(c.re), _ratio_json(c.im)]
            for c in self.coeffs
        ]
        return {"exact": True, "coeffs": coeffs}

    @staticmethod
    def from_json(doc):
        if not doc["exact"]:
            return Polynomial([complex(re, im) for re, im in doc["coeffs"]])
        pairs = (c if isinstance(c[0], list) else (c, ("0", "1")) for c in doc["coeffs"])
        return Polynomial([GaussianRational(_ratio(*re), _ratio(*im)) for re, im in pairs])

    def dumps(self):
        return json.dumps(self.to_json())

    @staticmethod
    def loads(text):
        return Polynomial.from_json(json.loads(text))


# -- pairwise kernels --------------------------------------------------------


def _inverse(d):
    return 1.0 / d  # np.reciprocal rounds complex quotients differently


def _distance(d):
    # |d|, rounded exactly as abs() rounds one complex scalar; np.abs on a
    # complex array can differ in the last bit, which would move threshold
    # decisions and the recorded min_sep monitor
    return np.hypot(d.real, d.imag)


def pair_matrix(z, kernel=_inverse, diagonal=0.0) -> np.ndarray:
    """(n, n) array of kernel(z_i - z_j) over the ordered pairs i != j.

    The kernel (default 1/d) acts elementwise on the complex differences.
    It never sees the zero differences on the diagonal: they read 1 while
    it runs, and the result's diagonal is set to ``diagonal`` afterwards.
    With the default 0 a row sum is a sum over j != i; with ``np.inf`` a
    minimum over the array is a minimum over distinct pairs.
    """
    z = np.asarray(z, dtype=complex)
    step = len(z) + 1  # flat stride of the diagonal
    diff = z[:, None] - z[None, :]
    diff.flat[::step] = 1.0
    out = kernel(diff)
    out.flat[::step] = diagonal
    return out


def from_roots(roots) -> Polynomial:
    """Monic float polynomial with the given complex roots; (S,) array
    roots give the batch of S polynomials."""
    p = Polynomial((1.0,))
    for r in roots:
        p = p * Polynomial((-r, 1.0))
    return p


def _aberth_once(coeffs, z):
    """One Aberth-Ehrlich sweep; returns updated roots and max correction."""
    d = len(coeffs) - 1
    p = np.polyval(coeffs[::-1], z)
    der = (np.arange(1, d + 1) * coeffs[1:])[::-1]
    dp = np.polyval(der, z)
    ratio = np.where(dp != 0, p / np.where(dp != 0, dp, 1), 0.0)
    s = pair_matrix(z).sum(axis=1)
    denom = 1.0 - ratio * s
    w = np.where(denom != 0, ratio / np.where(denom != 0, denom, 1), ratio)
    # stalled points with dp == 0 get a deterministic nudge off the saddle
    stalled = (dp == 0) & (p != 0)
    if stalled.any():
        w = w + stalled * (0.1 + 0.1j) * (1.0 + np.abs(z))
    # keep corrections bounded so one bad denominator cannot eject a root
    cap = 0.5 * (1.0 + np.abs(z))
    big = np.abs(w) > cap
    if big.any():
        w = np.where(big, w * cap / np.abs(np.where(big, w, 1.0)), w)
    return z - w, np.max(np.abs(w))


def _root_radius(c):
    """Fujiwara-style bound on the root modulus, robust to wide
    coefficient ranges."""
    d = len(c) - 1
    best = 0.0
    for k in range(1, d + 1):
        val = abs(c[d - k] / c[d])
        if k == 1:
            cand = 2.0 * val
        else:
            cand = 2.0 * val ** (1.0 / k)
        best = max(best, cand)
    return 1.0 + best


def _backward_error(coeffs, z):
    """|p(z)| relative to the coefficient-weighted evaluation magnitude."""
    p = np.polyval(coeffs[::-1], z)
    az = np.abs(z)
    bound = np.zeros_like(az)
    for k, c in enumerate(coeffs):
        bound += abs(c) * az**k
    bound = np.maximum(bound, 1e-300)
    return np.abs(p) / bound


_PHASE_SEED = 1735  # fixed: reproducible starting phases for Aberth iteration
CLUSTER_TOL = 1e-8  # relative root-cluster tolerance of reduce_pair


def find_roots(p: Polynomial, rtol: float = 1e-12, max_iter: int = 200) -> tuple:
    """All complex roots, sorted, by simultaneous Aberth-Ehrlich iteration.

    Exact zero roots (vanishing low-order coefficients) are deflated first.
    Raises NonConvergence after ``max_iter`` sweeps without meeting the
    correction threshold and the backward-error bound.
    """
    if p.is_zero or p.degree < 1:
        raise ValueError("find_roots needs a nonzero polynomial of degree >= 1")
    coeffs = list(p.to_float().coeffs)
    zero_mult = 0
    while coeffs and coeffs[0] == 0:
        coeffs.pop(0)
        zero_mult += 1
    d = len(coeffs) - 1
    roots = [0.0j] * zero_mult
    if d >= 1:
        c = np.array(coeffs, dtype=complex)
        c = c / c[-1]  # monic conditioning
        radius = min(_root_radius(c), 1.0 + max(abs(v) for v in c[:-1]))
        rng = np.random.default_rng(_PHASE_SEED)
        best_z, best_err = None, math.inf
        for restart in range(4):
            phases = 2 * np.pi * (np.arange(d) + 0.25) / d + 0.2 * rng.random(d)
            z = radius * np.exp(1j * phases)
            for _ in range(max_iter):
                z, corr = _aberth_once(c, z)
                scale = max(1.0, float(np.max(np.abs(z))))
                if corr < 1e-14 * scale:
                    break
            # Newton polish sharpens simple roots to full precision
            der = (np.arange(1, d + 1) * c[1:])[::-1]
            for _ in range(3):
                pv = np.polyval(c[::-1], z)
                dv = np.polyval(der, z)
                step = np.where(dv != 0, pv / np.where(dv != 0, dv, 1), 0.0)
                cap = 1e-2 * (1.0 + np.abs(z))
                step = np.where(np.abs(step) > cap, 0.0, step)
                z = z - step
            err = float(np.max(_backward_error(c, z)))
            if err < best_err:
                best_z, best_err = z, err
            if best_err <= rtol:
                break
        if best_err > max(rtol, 1e-7):
            raise NonConvergence(
                f"root residual {best_err:.3e} exceeds tolerance"
            )
        roots.extend(complex(v) for v in best_z)
    roots.sort(key=lambda r: (round(r.real, 12), round(r.imag, 12)))
    return tuple(roots)


# -- Wronskians ---------------------------------------------------------------


def _bareiss_det(matrix):
    """Fraction-free determinant over the exact polynomial ring."""
    n = len(matrix)
    m = [row[:] for row in matrix]
    sign = 1
    prev = Polynomial.one()
    for k in range(n - 1):
        if m[k][k].is_zero:
            for r in range(k + 1, n):
                if not m[r][k].is_zero:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return Polynomial.zero()
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                m[i][j] = num.div_exact(prev)
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return det if sign == 1 else -det


def wronskian(fs) -> Polynomial:
    """Determinant of the derivative matrix: row i holds the j-th
    derivatives (j = 0..k-1) of the i-th function."""
    fs = list(fs)
    if not all(f.exact for f in fs):
        raise TypeError("wronskian requires exact polynomials")
    if not fs:
        return Polynomial.one()
    k = len(fs)
    rows = []
    for f in fs:
        row = [f]
        for _ in range(k - 1):
            row.append(row[-1].derivative())
        rows.append(row)
    return _bareiss_det(rows)


# -- classical families ----------------------------------------------------


def _binomial_shifted(top, k):
    """C(top, k) for Fraction top, integer k >= 0."""
    out = Fraction(1)
    for j in range(1, k + 1):
        out *= Fraction(top - (j - 1), j)
    return out


def hermite(n: int) -> Polynomial:
    """Physicists' convention: leading coefficient 2**n."""
    if n < 0:
        raise ValueError("n must be >= 0")
    coeffs = [Fraction(0)] * (n + 1)
    fact_n = math.factorial(n)
    for m in range(n // 2 + 1):
        k = n - 2 * m
        coeffs[k] = Fraction(
            (-1) ** m * fact_n * 2**k, math.factorial(m) * math.factorial(k)
        )
    return Polynomial(coeffs)


def laguerre(n: int, alpha) -> Polynomial:
    """Generalized Laguerre L_n^(alpha), alpha rational."""
    if n < 0:
        raise ValueError("n must be >= 0")
    alpha = Fraction(alpha)
    coeffs = []
    for k in range(n + 1):
        c = (-1) ** k * _binomial_shifted(n + alpha, n - k) / math.factorial(k)
        coeffs.append(c)
    return Polynomial(coeffs)


def jacobi(n: int, alpha, beta) -> Polynomial:
    """Standard Jacobi P_n^(alpha, beta), rational parameters."""
    if n < 0:
        raise ValueError("n must be >= 0")
    alpha, beta = Fraction(alpha), Fraction(beta)
    half = Fraction(1, 2)
    zminus = Polynomial([-half, half])  # (z-1)/2
    zplus = Polynomial([half, half])  # (z+1)/2
    total = Polynomial.zero()
    for s in range(n + 1):
        c = _binomial_shifted(n + alpha, n - s) * _binomial_shifted(n + beta, s)
        if c == 0:
            continue
        term = Polynomial([c])
        for _ in range(s):
            term = term * zminus
        for _ in range(n - s):
            term = term * zplus
        total = total + term
    return total


def monomial(n: int) -> Polynomial:
    if n < 0:
        raise ValueError("n must be >= 0")
    return Polynomial([0] * n + [1])


_FAMILIES = {
    "hermite": lambda n, alpha, beta: hermite(n),
    "laguerre": lambda n, alpha, beta: laguerre(n, alpha),
    "jacobi": lambda n, alpha, beta: jacobi(n, alpha, beta),
    "monomial": lambda n, alpha, beta: monomial(n),
}


def classical(family: str, n: int, alpha=None, beta=None) -> Polynomial:
    """Dispatch to one of the classical families by name."""
    key = family.lower()
    if key not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    return _FAMILIES[key](n, alpha, beta)


# -- common-factor removal ---------------------------------------------------


def poly_gcd(p: Polynomial, q: Polynomial) -> Polynomial:
    """Monic Euclidean gcd over the exact coefficient field."""
    if not (p.exact and q.exact):
        raise TypeError("poly_gcd requires exact polynomials")
    a, b = p, q
    while not b.is_zero:
        _, r = a.divmod(b)
        a, b = b, r
    if a.is_zero:
        return a
    return a.monic()


def cluster_points(points, tol):
    """Single-linkage clustering of complex points at absolute threshold tol.

    Returns a list of lists of indices.
    """
    n = len(points)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    near = np.triu(pair_matrix(points, _distance, diagonal=np.inf) <= tol)
    for i, j in zip(*np.nonzero(near)):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def _partition_signature(groups):
    return sorted(tuple(sorted(g)) for g in groups)


def reduce_pair(p: Polynomial, q: Polynomial, ctol: float = CLUSTER_TOL):
    """Cancel common root clusters of p and q.

    Returns ``(pbar, qbar, inventory)`` with monic reduced polynomials and
    the inventory of distinct positions with net charge (multiplicity in p
    minus multiplicity in q).  Exact inputs are reduced by exact gcd; the
    inventory itself always comes from numeric roots.

    Raises ClusterAmbiguity when clustering at ctol and at ctol/10 disagree,
    i.e. some root gaps fall in the gray zone where the tolerance cannot
    tell clusters apart.
    """
    if p.is_zero or q.is_zero:
        raise ValueError("reduce_pair needs nonzero polynomials")
    if p.exact and q.exact:
        g = poly_gcd(p, q)
        pbar = p.div_exact(g).monic() if g.degree > 0 else p.monic()
        qbar = q.div_exact(g).monic() if g.degree > 0 else q.monic()
    else:
        pbar = qbar = None  # built from clusters below

    proots = list(find_roots(p)) if p.degree >= 1 else []
    qroots = list(find_roots(q)) if q.degree >= 1 else []
    pts = proots + qroots
    if not pts:
        inventory = []
        return (p.monic(), q.monic(), inventory)
    scale = max(max(abs(z) for z in pts), 1e-30)
    tol_hi = ctol * scale
    tol_lo = (ctol / 10.0) * scale
    groups_hi = cluster_points(pts, tol_hi)
    groups_lo = cluster_points(pts, tol_lo)
    if _partition_signature(groups_hi) != _partition_signature(groups_lo):
        raise ClusterAmbiguity(
            f"root clusters overlap between {ctol/10:g} and {ctol:g} relative"
        )

    np_roots = len(proots)
    inventory = []
    pbar_roots, qbar_roots = [], []
    for grp in groups_hi:
        mult_p = sum(1 for i in grp if i < np_roots)
        mult_q = len(grp) - mult_p
        center = sum(pts[i] for i in grp) / len(grp)
        net = mult_p - mult_q
        if net != 0:
            inventory.append((center, net))
        if net > 0:
            pbar_roots.extend([center] * net)
        elif net < 0:
            qbar_roots.extend([center] * (-net))
    inventory.sort(key=lambda t: (round(t[0].real, 10), round(t[0].imag, 10)))
    if pbar is None:
        pbar = from_roots(pbar_roots)
        qbar = from_roots(qbar_roots)
    return (pbar, qbar, inventory)
