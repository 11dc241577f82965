"""Closed-form sine-mode Wronskians for the cylinder pairs.

With eps_j a formal unit standing for exp(i t_j), each mode is
sin(i_j phi + t_j) = (-i/2) sum_{s=+-1} s eps_j**s e^{i s i_j phi}.  The
Wronskian is multilinear in its rows, and each s leaves a Vandermonde
determinant in the i s_j i_j, so

    W = (-i/2)**k i**(k(k-1)/2) sum_{s in {+-1}**k} (prod_j s_j)
          prod_{a<b} (s_b i_b - s_a i_a) eps**s e^{i (s.i) phi}.

A Fourier sum is one unit 2**-e i**r, shared by all its terms, times
integer amplitudes {s: a} on eps**s e^{i (s.i) phi}; the Wronskian's unit
is (-1)**k 2**-k i**(k(k+1)/2).  With the phases formal, a residual that
vanishes on it vanishes for every phase choice, so cylinder certificates
are bit-exact.
"""

import cmath
import functools
import itertools
import math
from typing import Dict, NamedTuple, Sequence, Tuple

from .polynomials import Polynomial, _convolve


class Fourier(NamedTuple):
    """sum_s amps[s] eps**s e^{i (s.i) phi}, times the unit 2**-e i**r."""

    e: int
    r: int
    amps: Dict[Tuple[int, ...], int]


def _freq(s: Sequence[int], indices: Sequence[int]) -> int:
    return sum(a * b for a, b in zip(s, indices))


def _rounded(a: int, e: int, r: int) -> complex:
    """a 2**-e i**r, rounded once (int / int rounds correctly), zero part +0.0."""
    x = a / (1 << e) if r % 4 < 2 else -a / (1 << e)
    return complex(0.0, x) if r % 2 else complex(x, 0.0)


@functools.lru_cache(maxsize=128)
def _binomials(a: int, b: int) -> tuple:
    """The Y**j coefficients, j = 0..a+b, of (1 + Y)**a (1 - Y)**b."""
    return tuple(_convolve([math.comb(a, j) for j in range(a + 1)],
                           [(-1) ** j * math.comb(b, j) for j in range(b + 1)]))


def trig_wronskian(indices: Sequence[int], nphases: int) -> Fourier:
    """W[sin(i_j phi + t_j), j < k], each s padded with zeros to ``nphases``;
    all 2**k amplitudes are nonzero.  The terms are grouped by frequency in
    first-appearance order, which fixes the order of the float sums."""
    k = len(indices)
    groups: Dict[int, dict] = {}
    for s in itertools.product((1, -1), repeat=k):
        x = [a * b for a, b in zip(s, indices)]
        vandermonde = math.prod(x[b] - x[a] for a, b in itertools.combinations(range(k), 2))
        groups.setdefault(sum(x), {})[s + (0,) * (nphases - k)] = math.prod(s) * vandermonde
    amps = {s: a for terms in groups.values() for s, a in terms.items()}
    return Fourier(k, k * (k + 1) // 2 + 2 * k, amps)  # (-1)**k = i**(2k)


def laplace_residual(wp: Fourier, wq: Fourier, indices: Sequence[int], n: int, m: int) -> Fourier:
    """The nonzero amplitudes of q Lap(p) - 2 (grad q, grad p) + p Lap(q)
    over r**(n+m-2), for p = r**n wp and q = r**m wq.  Each term of p and q
    is a monomial z**a zbar**b; with Lap = 4 d dbar and (grad u, grad v) =
    2 (du dbar v + dbar u dv) the pair of frequencies (f, g) contributes
    a_f b_g [(n-m)**2 - (f-g)**2] e^{i (f+g) phi}.  The r**d e^{i h phi}
    are a basis of the degree-d homogeneous polynomials, so this vanishes
    exactly when the (X, Y) residual does.  Its unit is the product of the
    two (nonzero) units, so the integer convolution decides the zero.
    In w = e^{2 i phi} (``substitute``) it is 4/w times ``polylinear_H``
    of the pair under the field P = -w**2, U = (n - m) w, lambda = 0, with
    the amplitudes and phases formal: there a term w**a of p and w**b of q
    contribute ((n - m)**2 - (f - g)**2) w**(a + b) / 4."""
    out: Dict[Tuple[int, ...], int] = {}
    q_terms = [(u, b, _freq(u, indices)) for u, b in wq.amps.items()]
    for s, a in wp.amps.items():
        f = _freq(s, indices)
        for u, b, g in q_terms:
            weight = (n - m) ** 2 - (f - g) ** 2
            if weight:
                e = tuple(x + y for x, y in zip(s, u))
                out[e] = out.get(e, 0) + a * b * weight
    return Fourier(wp.e + wq.e, (wp.r + wq.r) % 4, {e: c for e, c in out.items() if c})


def _phase(s: Sequence[int], ts: Sequence[float]) -> complex:
    """eps**s at eps_j = exp(i t_j)."""
    return math.prod((cmath.exp(1j * p * t) for p, t in zip(s, ts) if p), start=1.0 + 0j)


def xy_coeffs(terms: Fourier, indices: Sequence[int], n: int, ts: Sequence[float]) -> list[complex]:
    """The X**(n-j) Y**j coefficients, j = 0..n, of r**n (Fourier sum) at the
    phases ts: in r**n e^{i f phi} = z**a zbar**b (z = X + iY, a, b = (n +- f)/2)
    it is i**j times the Y**j coefficient of (1 + Y)**a (1 - Y)**b."""
    out = [0j] * (n + 1)
    for s, amp in terms.amps.items():
        f, unit = _freq(s, indices), _phase(s, ts)
        for j, c in enumerate(_binomials((n + f) // 2, (n - f) // 2)):
            if c:
                out[j] += _rounded(amp * c, terms.e, terms.r + j) * unit
    return out


def substitute(terms: Fourier, indices: Sequence[int], total: int, ts: Sequence[float]) -> Polynomial:
    """The Fourier sum at the phases ts as a polynomial in w = exp(2 i phi):
    frequency f (f = total mod 2, |f| <= total) is its w**((f + total)/2) term."""
    coeffs = [0j] * (total + 1)
    for s, amp in terms.amps.items():
        coeffs[(_freq(s, indices) + total) // 2] += _rounded(amp, terms.e, terms.r) * _phase(s, ts)
    return Polynomial(coeffs)
