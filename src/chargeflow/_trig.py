"""Closed-form sine-mode Wronskians for the cylinder pairs.

With eps_j a formal unit standing for exp(i t_j), each mode is
sin(i_j phi + t_j) = (-i/2) sum_{s=+-1} s eps_j**s e^{i s i_j phi}.  The
Wronskian is multilinear in its rows, and each s leaves a Vandermonde
determinant in the i s_j i_j, so

    W = (-i/2)**k i**(k(k-1)/2) sum_{s in {+-1}**k} (prod_j s_j)
          prod_{a<b} (s_b i_b - s_a i_a) eps**s e^{i (s.i) phi}.

A Fourier sum is a dict {s: exact amplitude} on eps**s e^{i (s.i) phi}.
With the phases formal, a residual that vanishes on it vanishes for every
phase choice, so cylinder certificates are bit-exact.
"""

import cmath
import itertools
import math
from fractions import Fraction
from typing import Dict, Sequence, Tuple

from .polynomials import Polynomial
from .scalars import GaussianRational

Terms = Dict[Tuple[int, ...], GaussianRational]


def _i_power(e: int, c) -> GaussianRational:
    """i**e * c for a rational c."""
    return GaussianRational(*((c, 0), (0, c), (-c, 0), (0, -c))[e % 4])


def _freq(s: Sequence[int], indices: Sequence[int]) -> int:
    return sum(a * b for a, b in zip(s, indices))


def trig_wronskian(indices: Sequence[int], nphases: int) -> Terms:
    """W[sin(i_j phi + t_j), j < k], each s padded with zeros to ``nphases``;
    all 2**k amplitudes are nonzero.  The terms are grouped by frequency in
    first-appearance order, which fixes the order of the float sums."""
    k = len(indices)
    unit = Fraction((-1) ** k, 2**k)  # (-i/2)**k i**(k(k-1)/2) = unit i**(k(k+1)/2)
    groups: Dict[int, Terms] = {}
    for s in itertools.product((1, -1), repeat=k):
        x = [a * b for a, b in zip(s, indices)]
        vandermonde = math.prod(x[b] - x[a] for a, b in itertools.combinations(range(k), 2))
        amp = _i_power(k * (k + 1) // 2, unit * math.prod(s) * vandermonde)
        groups.setdefault(sum(x), {})[s + (0,) * (nphases - k)] = amp
    return {s: amp for terms in groups.values() for s, amp in terms.items()}


def laplace_residual(wp: Terms, wq: Terms, indices: Sequence[int], n: int, m: int) -> Terms:
    """The nonzero amplitudes of q Lap(p) - 2 (grad q, grad p) + p Lap(q)
    over r**(n+m-2), for p = r**n wp and q = r**m wq.  Each term of p and q
    is a monomial z**a zbar**b; with Lap = 4 d dbar and (grad u, grad v) =
    2 (du dbar v + dbar u dv) the pair of frequencies (f, g) contributes
    a_f b_g [(n-m)**2 - (f-g)**2] e^{i (f+g) phi}.  The r**d e^{i h phi}
    are a basis of the degree-d homogeneous polynomials, so this vanishes
    exactly when the (X, Y) residual does."""
    out: Terms = {}
    q_terms = [(u, b, _freq(u, indices)) for u, b in wq.items()]
    for s, a in wp.items():
        f = _freq(s, indices)
        for u, b, g in q_terms:
            weight = (n - m) ** 2 - (f - g) ** 2
            if weight:
                e = tuple(x + y for x, y in zip(s, u))
                term = a * b * weight
                out[e] = out[e] + term if e in out else term
    return {e: c for e, c in out.items() if c}


def _phase(s: Sequence[int], ts: Sequence[float]) -> complex:
    """eps**s at eps_j = exp(i t_j)."""
    return math.prod((cmath.exp(1j * p * t) for p, t in zip(s, ts) if p), start=1.0 + 0j)


def xy_coeffs(terms: Terms, indices: Sequence[int], n: int, ts: Sequence[float]) -> list[complex]:
    """The X**(n-j) Y**j coefficients, j = 0..n, of r**n (Fourier sum) at the
    phases ts: in r**n e^{i f phi} = z**a zbar**b (z = X + iY, a, b = (n +- f)/2)
    it is i**j times the Y**j coefficient of (1 + Y)**a (1 - Y)**b."""
    out = [0j] * (n + 1)
    for s, amp in terms.items():
        f, unit = _freq(s, indices), _phase(s, ts)
        a, b = (n + f) // 2, (n - f) // 2
        for j in range(n + 1):
            c = sum((-1) ** (j - l) * math.comb(a, l) * math.comb(b, j - l) for l in range(j + 1))
            if c:
                out[j] += (amp * _i_power(j, c)).to_complex() * unit
    return out


def substitute(terms: Terms, indices: Sequence[int], total: int, ts: Sequence[float]) -> Polynomial:
    """The Fourier sum at the phases ts as a polynomial in w = exp(2 i phi):
    frequency f (f = total mod 2, |f| <= total) is its w**((f + total)/2) term."""
    coeffs = [0j] * (total + 1)
    for s, amp in terms.items():
        coeffs[(_freq(s, indices) + total) // 2] += amp.to_complex() * _phase(s, ts)
    return Polynomial(coeffs)
