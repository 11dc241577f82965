"""Univariate polynomial arithmetic over exact Gaussian rationals and
double-precision complex numbers, on dense coefficients by ascending
power with trailing zeros stripped.  The constructor's coefficients
decide the ring:

* exact -- every one is an ``int``, ``Fraction`` or ``GaussianRational``.
  Stored as c_k = (re[k] + i im[k]) / den: integer numerators in lowest
  terms (den > 0, gcd(den, all numerators) = 1), ``im`` None when every
  coefficient is real.  The form is canonical (equal polynomials have
  equal fields) and every exact operation runs on it; a
  ``GaussianRational`` is made only where a value leaves a polynomial
  (``coeff``, ``leading``, ``coeffs``, exact evaluation);
* float -- ``float``, ``complex`` and ``int`` scalars, at least one not an
  ``int``; each is stored as a ``complex``.  A ``Fraction`` or
  ``GaussianRational`` among them raises ``TypeError``;
* batched float -- a numpy (S,) array coefficient is stored unchanged,
  making the polynomial a batch of S float polynomials.

The zero polynomial is exact and belongs to every ring.  Exact and float
polynomials never mix: combining them raises ``TypeError``, and
conversion goes through ``Polynomial.to_float`` explicitly.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
from fractions import Fraction

import numpy as np

from .errors import NonConvergence, ValidationError
from .scalars import EXACT, GaussianRational

__all__ = [
    "Polynomial",
    "from_roots",
    "find_roots",
    "wronskian",
    "leading_wronskians",
    "hermite",
    "laguerre",
    "jacobi",
    "monomial",
    "reduce_pair",
    "pair_matrix",
]


def is_exact(values) -> bool:
    """The ring rule: exact when every value is in ``scalars.EXACT``."""
    return all(isinstance(v, EXACT) for v in values)


def _ratio_json(num: int, den: int):
    """[numerator, denominator] of num / den in lowest terms, as strings."""
    g = math.gcd(num, den)
    return [str(num // g), str(den // g)]


_ZERO_JSON = ["0", "1"]  # 0 as ``_ratio_json`` writes it


def _ratio_from_json(doc):
    """(numerator, denominator) of a rational as ``_ratio_json`` writes it,
    two decimal integer strings in lowest terms; anything else (a number,
    " 7", "1_0", "+7", ["2", "4"], a zero denominator) raises ValueError."""
    num_text, den_text = doc
    num, den = int(num_text), int(den_text)
    canonical = type(doc) is list and str(num) == num_text and str(den) == den_text
    if not canonical or den <= 0 or math.gcd(num, den) != 1:
        raise ValueError(f"{doc!r} is not a rational as _ratio_json writes it")
    return num, den


# the exact scalar types a float polynomial may not hold (an int may be
# either ring's)
_EXACT_ONLY = frozenset((Fraction, GaussianRational))


def _stored(*fields):
    """The Polynomial with these field values, in slot order."""
    p = object.__new__(Polynomial)
    for name, value in zip(Polynomial.__slots__, fields):
        object.__setattr__(p, name, value)
    return p


def _canonical(den, re, im=None):
    """The exact polynomial with coefficients (re[k] + i im[k]) / den, for
    integer sequences re and im of one length (None: all zero)."""
    if im is not None and not any(im):
        im = None
    n = len(re)
    while n and not (re[n - 1] or im is not None and im[n - 1]):
        n -= 1
    parts = [tuple(re[:n])] if im is None else [tuple(re[:n]), tuple(im[:n])]
    g = math.gcd(den, *itertools.chain(*parts))
    if den < 0:
        g = -g
    if g != 1:
        parts = [tuple(x // g for x in part) for part in parts]
    return _stored(den // g, parts[0], None if im is None else parts[1], None if n else ())


def _same_ring(a, b):
    """True when the nonzero polynomials a, b are both exact, False when
    both are float; an exact one and a float one raise TypeError."""
    if (a.den is None) != (b.den is None):
        raise TypeError("exact and float polynomials do not mix")
    return a.den is not None


def _convolve(a, b):
    """Coefficients of the product of integer polynomials a, b (nonempty);
    zero entries of a, and an all-zero b, cost no multiplication."""
    out = [0] * (len(a) + len(b) - 1)
    if any(b):
        for i, x in enumerate(a):
            if x:
                for k, y in enumerate(b, i):
                    out[k] += x * y
    return out


def _long_division(a, da, b, db):
    """Quotient and remainder of (a / da) by (b / db) for integer lists a,
    b with len(a) >= len(b) and b[-1] != 0.  The remainder's numerators
    stay integers over one denominator d: each step scales them by d'/d,
    where d' = lcm(d, the step's quotient denominator)."""
    a, m, lead, d = list(a), len(b) - 1, b[-1], da
    steps = []  # each quotient coefficient / db as (numerator, denominator), top first
    for k in range(len(a) - 1 - m, -1, -1):
        top = a.pop()  # the coefficient this step cancels
        if not top:
            steps.append((0, 1))
            continue
        g = math.gcd(top, d * lead)
        cn, cd = top // g, d * lead // g  # this step's quotient, over b's numerators
        steps.append((cn, cd))
        h = math.gcd(d, cd)
        t = cn * (d // h)
        if cd != h:
            s = cd // h
            a = [x * s for x in a]
            d *= s
        a[k:] = [x - t * y for x, y in zip(a[k:], b)]
    qd = math.lcm(*(cd for _, cd in steps))
    return _canonical(qd, [cn * db * (qd // cd) for cn, cd in reversed(steps)]), _canonical(d, a)


class Polynomial:
    """Dense univariate polynomial; coefficients c0..cd by ascending power.

    Exact: ``den``, ``re``, ``im`` as in the module docstring, ``floats``
    None.  Float: the coefficient tuple in ``floats``, the rest None.  The
    zero polynomial is exact with ``floats == ()``, so code that reads
    ``floats`` sees the float zero too.
    """

    __slots__ = ("den", "re", "im", "floats")

    def __new__(cls, coeffs):
        coeffs = tuple(coeffs)
        if is_exact(coeffs):
            parts = [(c.re, c.im) if isinstance(c, GaussianRational) else (c, 0) for c in coeffs]
            den = math.lcm(*(x.denominator for part in parts for x in part))
            re = [r.numerator * (den // r.denominator) for r, _ in parts]
            return _canonical(den, re, [i.numerator * (den // i.denominator) for _, i in parts])
        if not _EXACT_ONLY.isdisjoint(map(type, coeffs)):
            raise TypeError("exact and float coefficients do not mix")
        floats = tuple(v if isinstance(v, np.ndarray) else complex(v) for v in coeffs)
        while floats and not (floats[-1].any() if isinstance(floats[-1], np.ndarray) else floats[-1]):
            floats = floats[:-1]
        return _stored(None, None, None, floats) if floats else _canonical(1, ())

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
        return self.den is not None

    @property
    def degree(self):
        """The highest power present; the zero polynomial reports -1."""
        return len(self.floats if self.den is None else self.re) - 1

    @property
    def is_zero(self):
        return self.floats == ()

    @property
    def coeffs(self):
        """The coefficients c0..cd, as ``GaussianRational``s when exact
        (made on each read from the stored numerators)."""
        if self.den is None:
            return self.floats
        return tuple(self.coeff(k) for k in range(len(self.re)))

    def coeff(self, k):
        """Coefficient of z**k; past the degree it is the ring-neutral 0."""
        if not 0 <= k <= self.degree:
            return 0
        if self.den is None:
            return self.floats[k]
        im = 0 if self.im is None else self.im[k]
        return GaussianRational(Fraction(self.re[k], self.den), Fraction(im, self.den))

    def leading(self):
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeff(self.degree)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (self.den, self.re, self.im, self.floats) == (other.den, other.re, other.im, other.floats)

    def __hash__(self):
        return hash((self.den, self.re, self.im, self.floats))

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)!r})"

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return other if self.is_zero else self
        if not _same_ring(self, other):
            a, b = self.floats, other.floats
            if len(a) < len(b):
                a, b = b, a
            return Polynomial([x + y for x, y in zip(a, b)] + list(a[len(b) :]))
        den = math.lcm(self.den, other.den)
        sa, sb = den // self.den, den // other.den

        def combine(x, y):  # None stands for zeros
            x, y = x or [0] * len(self.re), y or [0] * len(other.re)
            return [u * sa + v * sb for u, v in itertools.zip_longest(x, y, fillvalue=0)]

        im = None if self.im is None and other.im is None else combine(self.im, other.im)
        return _canonical(den, combine(self.re, other.re), im)

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + -other

    def _linear(self, fn):
        """The polynomial whose coefficient list is fn of this one's, for
        fn linear over the integers (so it acts on numerators alike)."""
        if not self.exact:
            return Polynomial(fn(self.floats))
        return _canonical(self.den, fn(self.re), self.im and fn(self.im))

    def __neg__(self):
        return self._linear(lambda c: [-x for x in c])

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        if self.is_zero or other.is_zero:
            return Polynomial.zero()
        if not _same_ring(self, other):
            a, b = self.floats, other.floats
            out = [0] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    out[i + j] = out[i + j] + x * y
            return Polynomial(out)
        ar, br, den = self.re, other.re, self.den * other.den
        if self.im is None and other.im is None:
            return _canonical(den, _convolve(ar, br))
        ai, bi = self.im or [0] * len(ar), other.im or [0] * len(br)
        re = [x - y for x, y in zip(_convolve(ar, br), _convolve(ai, bi))]
        im = [x + y for x, y in zip(_convolve(ar, bi), _convolve(ai, br))]
        return _canonical(den, re, im)

    __rmul__ = __mul__

    def __pow__(self, n):
        """The n-th power, for an integer n >= 0."""
        return functools.reduce(operator.mul, [self] * n, Polynomial.one())

    def scale(self, scalar):
        """Multiply by a scalar, which first joins the coefficients' ring
        (a ``Fraction`` or ``GaussianRational`` scales a float polynomial
        as a complex; a float scales an exact one as the constant
        polynomial would)."""
        if not self.exact:
            if not isinstance(scalar, np.ndarray):
                scalar = complex(scalar)
            return Polynomial([c * scalar for c in self.floats])
        if not isinstance(scalar, EXACT):
            return self * Polynomial((scalar,))
        # the scalar (cr + i ci) / d multiplies the numerators and the denominator
        sr, si = (scalar.re, scalar.im) if isinstance(scalar, GaussianRational) else (scalar, 0)
        d = math.lcm(sr.denominator, si.denominator)
        cr, ci = sr.numerator * (d // sr.denominator), si.numerator * (d // si.denominator)
        if (cr, ci) == (d, 0):
            return self
        if self.im is None and not ci:
            return _canonical(self.den * d, [x * cr for x in self.re])
        pairs = list(zip(self.re, self.im or itertools.repeat(0)))
        re = [x * cr - y * ci for x, y in pairs]
        return _canonical(self.den * d, re, [x * ci + y * cr for x, y in pairs])

    def shift(self, k):
        """Multiply by z**k."""
        return self._linear(lambda c: (0,) * k + tuple(c))

    def monic(self):
        if self.is_zero:
            return self
        if not self.exact:
            return Polynomial([c / self.floats[-1] for c in self.floats])
        # c_k / c_d = (re_k + i im_k)(lr - i li) / (lr**2 + li**2): den cancels
        lr, li = self.re[-1], self.im[-1] if self.im else 0
        if not li:
            return _canonical(lr, self.re, self.im)
        pairs = list(zip(self.re, self.im))
        re, im = [x * lr + y * li for x, y in pairs], [y * lr - x * li for x, y in pairs]
        return _canonical(lr * lr + li * li, re, im)

    def divmod(self, other):
        """Long division; exact polynomials only (field coefficients)."""
        if not self.exact or not other.exact:
            raise TypeError("polynomial division requires exact polynomials")
        if other.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        if self.degree < other.degree:
            return Polynomial.zero(), self
        if other.im is not None:
            # B conj(B) has real coefficients, and A conj(B) = Q B conj(B) + R conj(B)
            # with deg R conj(B) < deg B conj(B): the same quotient Q, by real division
            conj = _canonical(other.den, other.re, [-i for i in other.im])
            quot = (self * conj).divmod(other * conj)[0]
            return quot, self - quot * other
        quot, rem = _long_division(self.re, self.den, other.re, other.den)
        if self.im is not None:
            i = GaussianRational(0, 1)
            quot_im, rem_im = _long_division(self.im, self.den, other.re, other.den)
            quot, rem = quot + quot_im.scale(i), rem + rem_im.scale(i)
        return quot, rem

    def div_exact(self, other):
        quot, rem = self.divmod(other)
        if not rem.is_zero:
            raise ArithmeticError("inexact polynomial division")
        return quot

    # -- calculus ---------------------------------------------------

    def derivative(self):
        return self._linear(lambda c: [k * x for k, x in enumerate(c) if k])

    def __call__(self, z):
        """Horner evaluation.

        An exact polynomial at an exact point stays exact; any float
        operand converts the whole evaluation to complex (an explicit
        branch, not silent coefficient mixing).  A numpy array is
        evaluated elementwise.
        """
        # arrays (the integrator's hot path) skip the slow ABC check of EXACT
        array = isinstance(z, np.ndarray)
        if self.exact and not array and isinstance(z, EXACT):
            acc, z, coeffs = GaussianRational(0), GaussianRational.coerce(z), self.coeffs
        else:
            acc, coeffs = 0j, self.to_float().floats
            if not array:
                z = complex(z)
        for c in reversed(coeffs):
            acc = acc * z + c
        return acc

    # -- conversions ---------------------------------------------------

    def to_float(self):
        """The float polynomial; r / den rounds as ``float(Fraction(r, den))``.
        A coefficient past the float range has no float shadow: that raises
        ValidationError, as the exact input it came from was too large."""
        if not self.exact:
            return self
        d, im = self.den, self.im or itertools.repeat(0)
        try:
            floats = [complex(r / d, i / d) for r, i in zip(self.re, im)]
        except OverflowError as exc:
            raise ValidationError("an exact coefficient is past the float range") from exc
        while floats and not floats[-1]:  # the top ones fell below the float range
            floats.pop()
        return _stored(None, None, None, tuple(floats)) if floats else Polynomial.zero()

    def to_json(self):
        if not self.exact:
            return {"exact": False, "coeffs": [[c.real, c.imag] for c in self.floats]}
        d, coeffs = self.den, zip(self.re, self.im or itertools.repeat(0))
        ratios = [[_ratio_json(r, d), _ratio_json(i, d)] if i else _ratio_json(r, d) for r, i in coeffs]
        return {"exact": True, "coeffs": ratios}

    @staticmethod
    def from_json(doc):
        """The polynomial of a ``to_json`` document; raises ValueError for
        an exact one that ``to_json`` could not have written."""
        coeffs = doc["coeffs"]
        if not doc["exact"]:
            return Polynomial([complex(re, im) for re, im in coeffs])
        if coeffs[-1:] == [_ZERO_JSON] or any(c[1] == _ZERO_JSON for c in coeffs):
            raise ValueError("a zero top coefficient or imaginary part is written")
        # re0, im0, re1, ... over their lcm; an unwritten imaginary part is 0
        pairs = [c if isinstance(c[0], list) else (c, _ZERO_JSON) for c in coeffs]
        ratios = [(0, 1) if x is _ZERO_JSON else _ratio_from_json(x) for re, im in pairs for x in (re, im)]
        den = math.lcm(*(d for _, d in ratios))
        nums = [n * (den // d) for n, d in ratios]
        return _canonical(den, nums[::2], nums[1::2])

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
    """(..., n, n) array of kernel(z_i - z_j) over the ordered pairs i != j
    of each state (n,) in ``z``, which may be a stack (..., n).

    The kernel (default 1/d) acts elementwise on the complex differences.
    It never sees the zero differences on the diagonal: they read 1 while
    it runs, and the result's diagonal is set to ``diagonal`` (a scalar or
    (..., n) array) afterwards.  With the default 0 a row sum is a sum
    over j != i; with ``np.inf`` a minimum is over distinct pairs.
    """
    z = np.asarray(z, dtype=complex)
    n = z.shape[-1]
    # each diagonal is every (n + 1)-th entry of its block's flat view
    flat = z.shape[:-1] + (n * n,)
    diff = z[..., :, None] - z[..., None, :]
    diff.reshape(flat)[..., :: n + 1] = 1.0
    out = kernel(diff)
    out.reshape(flat)[..., :: n + 1] = diagonal
    return out


def from_roots(roots) -> Polynomial:
    """Monic float polynomial with the given complex roots; (S,) array
    roots give the batch of S polynomials."""
    p = Polynomial((1.0,))
    for r in roots:
        p = p * Polynomial((-r, 1.0))
    return p


def _horner_rows(c):
    """The (3, d + 1) rows of ``_value_and_slope`` for the ascending
    coefficients c of p, by descending power: those of p, those of the
    derivative behind one leading zero, and the moduli |c_k|."""
    der = (np.arange(1, len(c)) * c[1:])[::-1]
    return np.array([c[::-1], np.concatenate(([0], der)), np.abs(c[::-1])])


def _value_and_slope(rows, z):
    """p(z), p'(z) and the rounding scale sum |c_k| |z|^k (as complex
    with zero imaginary part) from one Horner loop over the stacked
    ``rows``, the last one run at |z|.  The first two rows round as
    ``np.polyval`` of them does: both start from +0, and the leading zero
    keeps the derivative's row at +0 until its first coefficient."""
    at = np.array([z, z, np.abs(z)])
    acc = np.zeros(at.shape, complex)
    for col in rows.T[:, :, None]:
        acc *= at
        acc += col
    return acc


def find_roots(p: Polynomial) -> tuple:
    """All complex roots, sorted: the eigenvalues of the monic float
    polynomial's companion matrix, polished by three Newton steps (a step
    longer than 1e-2 of the root scale is skipped).

    Zero roots (vanishing low-order coefficients) are deflated first.
    Raises ValidationError when an exact coefficient past the float range
    would move a root: the float form of an exact p, past its zero roots,
    must keep its degree and a nonzero constant term.  Raises
    NonConvergence when the eigenvalue solve fails, or unless the largest
    backward error |p(z)| / sum |c_k| |z|^k is a finite number within 1e-7.
    """
    if p.is_zero or p.degree < 1:
        raise ValueError("find_roots needs a nonzero polynomial of degree >= 1")
    zero_mult, p = _low_power(p) if p.exact else (0, p)
    coeffs = list(p.to_float().coeffs)
    if p.exact and (len(coeffs) <= p.degree or not coeffs[0]):
        raise ValidationError("an exact coefficient is past the float range")
    while coeffs and coeffs[0] == 0:
        coeffs.pop(0)
        zero_mult += 1
    d = len(coeffs) - 1
    roots = [0.0j] * zero_mult
    if d >= 1:
        # a badly scaled polynomial may overflow anywhere below; the
        # backward-error test rejects any non-finite outcome
        with np.errstate(all="ignore"):
            c = np.array(coeffs, dtype=complex)
            c = c / c[-1]  # monic conditioning
            rows = _horner_rows(c)
            a = c if c.imag.any() else c.real  # real p: the cheaper real eigenproblem
            companion = np.eye(d, k=-1, dtype=a.dtype)
            companion[:, -1] = -a[:-1]
            try:
                z = np.linalg.eigvals(companion)
            except np.linalg.LinAlgError as exc:  # non-finite or unconverged
                raise NonConvergence(f"companion eigenvalues: {exc}") from exc
            for _ in range(3):
                pv, dv, _ = _value_and_slope(rows, z)
                step = np.where(dv != 0, pv / np.where(dv != 0, dv, 1), 0.0)
                cap = 1e-2 * (1.0 + np.abs(z))
                step = np.where(np.abs(step) > cap, 0.0, step)
                z = z - step
            pv, _, scale = _value_and_slope(rows, z)
            err = float(np.max(np.abs(pv) / np.maximum(scale.real, 1e-300)))
        if not err <= 1e-7:  # NaN fails too
            raise NonConvergence(f"root residual {err:.3e} exceeds tolerance")
        roots.extend(complex(v) for v in z)
    roots.sort(key=lambda r: (round(r.real, 12), round(r.imag, 12)))
    return tuple(roots)


# -- Wronskians ---------------------------------------------------------------


def leading_wronskians(fs) -> list:
    """The leading Wronskians W[], W[f_1], ..., W[f_1 .. f_k] of the exact
    polynomials fs (W[] = 1), by the identity W[F] W[F, g, h] = W(W[F, g],
    W[F, h]): row j holds A_j[m] = W[f_1 .. f_j, f_m] for m > j, and A_j[m]
    = W(A_{j-1}[j], A_{j-1}[m]) / W[f_1 .. f_{j-1}] exactly.  Each row's
    first entry is the next leading Wronskian; a zero one means f_1 .. f_j
    are linearly dependent, and then every later one is zero too."""
    row = list(fs)
    if not all(f.exact for f in row):
        raise TypeError("wronskian requires exact polynomials")
    chain = [Polynomial.one()]
    while row:
        w, *row = row
        if w.is_zero:
            return chain + [w] * (len(row) + 1)
        if row:
            dw = w.derivative()
            row = [w * a.derivative() - dw * a for a in row]
            if len(chain) > 1:  # W[] = 1 divides nothing
                row = [a.div_exact(chain[-1]) for a in row]
        chain.append(w)
    return chain


def wronskian(fs) -> Polynomial:
    """Determinant of the derivative matrix: row i holds the j-th
    derivatives (j = 0..k-1) of the i-th function."""
    return leading_wronskians(fs)[-1]


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


# -- common-factor removal ---------------------------------------------------


# 998244353 = 119 * 2**23 + 1 is prime and 1 mod 4; 3 generates its
# multiplicative group, so 3**((p - 1) / 4) is a square root of -1 mod p
_GCD_PRIME = 998244353
_GCD_I = pow(3, (_GCD_PRIME - 1) // 4, _GCD_PRIME)


def _residues(p: Polynomial):
    """p's numerators mod _GCD_PRIME, with i sent to _GCD_I."""
    if p.im is None:
        return [r % _GCD_PRIME for r in p.re]
    return [(r + _GCD_I * i) % _GCD_PRIME for r, i in zip(p.re, p.im)]


def _low_power(p: Polynomial):
    """(k, p / z**k) for the largest k with z**k dividing the nonzero exact p."""
    k = next(k for k, r in enumerate(p.re) if r or p.im and p.im[k])
    return k, _canonical(p.den, p.re[k:], p.im and p.im[k:]) if k else p


def _coprime_mod_prime(p: Polynomial, q: Polynomial) -> bool:
    """True when p and q are coprime modulo _GCD_PRIME with both leading
    numerators nonzero there; then they are coprime over Q(i), because a
    common factor would survive the reduction with its degree (Gauss's
    lemma).  False proves nothing."""
    a, b = _residues(p), _residues(q)
    if not (a[-1] and b[-1]):
        return False
    while b:
        inv = pow(b[-1], -1, _GCD_PRIME)
        while len(a) >= len(b):
            c = a.pop() * inv % _GCD_PRIME
            off = len(a) - len(b) + 1
            a[off:] = [(x - c * y) % _GCD_PRIME for x, y in zip(a[off:], b)]
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return len(a) == 1


def poly_gcd(p: Polynomial, q: Polynomial) -> Polynomial:
    """Monic gcd over the exact coefficient field.

    The common power of z splits off first; a modular coprimality test
    settles the usual case, and Euclid's algorithm runs otherwise."""
    if not (p.exact and q.exact):
        raise TypeError("poly_gcd requires exact polynomials")
    if p.is_zero or q.is_zero:
        return (p + q).monic()
    (vp, a), (vq, b) = _low_power(p), _low_power(q)
    if _coprime_mod_prime(a, b):
        return monomial(min(vp, vq))
    while not b.is_zero:
        a, b = b, a.divmod(b)[1]
    return a.monic().shift(min(vp, vq))


def _square_free(f: Polynomial):
    """[(a, i)] with f = c * prod a**i for a constant c, each a monic,
    square-free and of degree >= 1, and no two a sharing a root: z**v
    splits off first, then Yun's algorithm runs on the rest (D. Y. Y. Yun,
    SYMSAC '76, 26-35)."""
    v, f = _low_power(f)
    out = [(monomial(1), v)] if v else []
    if f.degree < 1:
        return out
    df = f.derivative()
    g = poly_gcd(f, df)
    if g.degree == 0:  # the usual case: no long divisions by 1
        return out + [(f.monic(), 1)]
    b, d = f.div_exact(g), df.div_exact(g)
    i = 1
    while b.degree > 0:
        d = d - b.derivative()
        a = poly_gcd(b, d)
        if a.degree > 0:
            out.append((a, i))
        b, d, i = b.div_exact(a), d.div_exact(a), i + 1
    return out


def reduce_pair(p: Polynomial, q: Polynomial):
    """Cancel the common factor of the exact polynomials p and q.

    Returns ``(pbar, qbar, inventory)``: the monic p and q over their exact
    gcd, and the inventory of distinct positions with net charge
    (multiplicity in p minus multiplicity in q).  pbar and qbar are
    coprime, so each root of a square-free factor a**i of pbar (of qbar)
    is one site of charge +i (-i); the multiplicities are exact, and only
    the positions are rounded, as ``find_roots`` of each factor.

    Raises TypeError for a float input (``poly_gcd``).
    """
    if p.is_zero or q.is_zero:
        raise ValueError("reduce_pair needs nonzero polynomials")
    g = poly_gcd(p, q)
    pbar = p.div_exact(g).monic() if g.degree > 0 else p.monic()
    qbar = q.div_exact(g).monic() if g.degree > 0 else q.monic()
    sites = [
        (z, sign * i)
        for f, sign in ((pbar, 1), (qbar, -1))
        for a, i in _square_free(f)
        for z in find_roots(a)
    ]
    inventory = sorted(sites, key=lambda t: (round(t[0].real, 10), round(t[0].imag, 10)))
    return (pbar, qbar, inventory)
