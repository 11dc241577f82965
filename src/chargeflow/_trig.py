"""Exact trigonometric-Wronskian machinery for the cylinder pairs.

Phases stay formal: coefficients live in the Laurent ring of monomials
eps_1**a1 * ... * eps_k**ak over Gaussian rationals, where eps_j stands
for exp(i t_j).  An identity that vanishes in this ring vanishes for
every choice of the phases, which is how cylinder certificates reach
bit-exact residuals without cyclotomic arithmetic.

The Laplace residual of a pair is computed on the Fourier amplitudes of
the two Wronskians wp, wq, as one weighted convolution; that is
equivalent to the residual of the homogeneous (X, Y) polynomials
r**n wp, r**m wq, whose coefficients are built only for the certificate
payload.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .scalars import GaussianRational, exactify


class PhaseCoeff:
    """Laurent polynomial in the formal phase units eps_j."""

    __slots__ = ("terms",)

    def __init__(self, terms: Dict[Tuple[int, ...], GaussianRational] | None = None):
        clean = {}
        if terms:
            for expo, val in terms.items():
                if not val.is_zero:
                    clean[tuple(expo)] = val
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("PhaseCoeff is immutable")

    @staticmethod
    def constant(value, nphases):
        value = exactify(value)
        if value.is_zero:
            return PhaseCoeff({})
        return PhaseCoeff({(0,) * nphases: value})

    @staticmethod
    def unit(j, power, value, nphases):
        expo = [0] * nphases
        expo[j] = power
        return PhaseCoeff({tuple(expo): exactify(value)})

    @property
    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        out = dict(self.terms)
        for expo, val in other.terms.items():
            cur = out.get(expo)
            out[expo] = val if cur is None else cur + val
        return PhaseCoeff(out)

    def __neg__(self):
        return PhaseCoeff({e: -v for e, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, GaussianRational):
            return PhaseCoeff({e: v * other for e, v in self.terms.items()})
        out = {}
        for e1, v1 in self.terms.items():
            for e2, v2 in other.terms.items():
                expo = tuple(a + b for a, b in zip(e1, e2))
                cur = out.get(expo)
                prod = v1 * v2
                out[expo] = prod if cur is None else cur + prod
        return PhaseCoeff(out)

    def scale(self, value):
        return self * exactify(value)

    def substitute(self, phases: Sequence[float]) -> complex:
        total = 0j
        for expo, val in self.terms.items():
            unit = 1.0 + 0j
            for power, t in zip(expo, phases):
                if power:
                    unit *= cmath.exp(1j * power * t)
            total += val.to_complex() * unit
        return total

    def __repr__(self):
        return f"PhaseCoeff({self.terms!r})"


class TrigPoly:
    """Finite Fourier sum: frequency -> PhaseCoeff amplitude."""

    __slots__ = ("freqs", "nphases")

    def __init__(self, freqs: Dict[int, PhaseCoeff], nphases: int):
        clean = {f: c for f, c in freqs.items() if not c.is_zero}
        object.__setattr__(self, "freqs", clean)
        object.__setattr__(self, "nphases", nphases)

    def __setattr__(self, name, value):
        raise AttributeError("TrigPoly is immutable")

    @staticmethod
    def sin_mode(freq: int, phase_index: int, nphases: int) -> "TrigPoly":
        """sin(freq*phi + t_j) as exponentials with the formal unit eps_j.

        Amplitude -i/2 on eps_j e^{i freq phi} and +i/2 on the conjugate.
        """
        minus_half_i = GaussianRational(0, Fraction(-1, 2))
        plus = PhaseCoeff.unit(phase_index, +1, minus_half_i, nphases)
        minus = PhaseCoeff.unit(phase_index, -1, -minus_half_i, nphases)
        out: Dict[int, PhaseCoeff] = {}
        for f, c in ((freq, plus), (-freq, minus)):
            cur = out.get(f)
            out[f] = c if cur is None else cur + c
        return TrigPoly(out, nphases)

    @staticmethod
    def zero(nphases):
        return TrigPoly({}, nphases)

    @staticmethod
    def one(nphases):
        return TrigPoly({0: PhaseCoeff.constant(1, nphases)}, nphases)

    @property
    def is_zero(self):
        return not self.freqs

    def __add__(self, other):
        out = dict(self.freqs)
        for f, c in other.freqs.items():
            cur = out.get(f)
            out[f] = c if cur is None else cur + c
        return TrigPoly(out, self.nphases)

    def __neg__(self):
        return TrigPoly({f: -c for f, c in self.freqs.items()}, self.nphases)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return self.convolve(other)

    def convolve(self, other, weight=None):
        """Product of the Fourier sums, with the (f, g) amplitude product
        scaled by the integer ``weight(f, g)`` when a weight is given."""
        out: Dict[int, PhaseCoeff] = {}
        for f1, c1 in self.freqs.items():
            for f2, c2 in other.freqs.items():
                w = 1 if weight is None else weight(f1, f2)
                if not w:
                    continue
                prod = c1 * c2 if w == 1 else (c1 * c2).scale(w)
                f = f1 + f2
                cur = out.get(f)
                out[f] = prod if cur is None else cur + prod
        return TrigPoly(out, self.nphases)

    def derivative(self):
        """d/dphi multiplies the frequency-f amplitude by i*f."""
        out = {}
        for f, c in self.freqs.items():
            if f:
                out[f] = c * GaussianRational(0, f)
        return TrigPoly(out, self.nphases)

    def substitute(self, phases: Sequence[float]) -> Dict[int, complex]:
        return {f: c.substitute(phases) for f, c in self.freqs.items()}


def trig_wronskian(fs: List[TrigPoly]) -> TrigPoly:
    """Division-free (memoized Laplace) determinant of the derivative matrix."""
    k = len(fs)
    if k == 0:
        return TrigPoly.one(0)
    rows = []
    for f in fs:
        row = [f]
        for _ in range(k - 1):
            row.append(row[-1].derivative())
        rows.append(row)
    cache = {}

    def minor(rset: Tuple[int, ...], cset: Tuple[int, ...]) -> TrigPoly:
        key = (rset, cset)
        if key in cache:
            return cache[key]
        if len(rset) == 1:
            out = rows[rset[0]][cset[0]]
        else:
            r = rset[0]
            rest = rset[1:]
            out = TrigPoly.zero(fs[0].nphases)
            for idx, c in enumerate(cset):
                sub = minor(rest, cset[:idx] + cset[idx + 1 :])
                term = rows[r][c] * sub
                out = out + term if idx % 2 == 0 else out - term
        cache[key] = out
        return out

    return minor(tuple(range(k)), tuple(range(k)))


def xy_coeffs(trig: TrigPoly, radial_degree: int) -> List[PhaseCoeff]:
    """Coefficients of X**(n-j) Y**j, j = 0..n, of r**n * (Fourier sum).

    With z = X + iY, r**n e^{i f phi} = z**a zbar**b for a = (n+f)/2,
    b = (n-f)/2, so its X**(n-j) Y**j coefficient is the Y**j coefficient
    of (1 + iY)**a (1 - iY)**b.  Needs n >= |f| and n - f even for every
    active frequency f, which the sine-Wronskian construction guarantees.
    """
    n = radial_degree
    out = [PhaseCoeff({}) for _ in range(n + 1)]
    for f, amp in trig.freqs.items():
        if abs(f) > n or (n - f) % 2:
            raise ValueError(f"frequency {f} incompatible with radial degree {n}")
        a, b = (n + f) // 2, (n - f) // 2
        for j in range(n + 1):
            s = sum(
                (-1) ** (j - k) * math.comb(a, k) * math.comb(b, j - k)
                for k in range(max(0, j - b), min(a, j) + 1)
            )
            if s:
                i_pow_s = ((s, 0), (0, s), (-s, 0), (0, -s))[j % 4]  # i**j * s
                out[j] = out[j] + amp * GaussianRational(*i_pow_s)
    return out


def laplace_residual(wp: TrigPoly, wq: TrigPoly, n: int, m: int) -> TrigPoly:
    """Fourier amplitudes of q Lap(p) - 2 (grad q, grad p) + p Lap(q) over
    r**(n+m-2), for p = r**n wp and q = r**m wq.

    Each term of p and q is a monomial z**a zbar**b; with Lap = 4 d dbar and
    (grad u, grad v) = 2 (du dbar v + dbar u dv) the pair of frequencies
    (f, g) contributes a_f b_g [(n-m)**2 - (f-g)**2] e^{i (f+g) phi}.  The
    r**d e^{i h phi} are a basis of the degree-d homogeneous polynomials,
    so this vanishes exactly when the (X, Y) residual does.
    """
    return wp.convolve(wq, lambda f, g: (n - m) ** 2 - (f - g) ** 2)
