"""Closed-form sine-mode Wronskians for the cylinder pairs.

With eps_j a formal unit standing for exp(i t_j), each mode is
sin(i_j phi + t_j) = (-i/2) sum_{s=+-1} s eps_j**s e^{i s i_j phi}.  The
Wronskian is multilinear in its rows, and each s leaves a Vandermonde
determinant in the i s_j i_j, so

    W = (-i/2)**k i**(k(k-1)/2) sum_{s in {+-1}**k} (prod_j s_j)
          prod_{a<b} (s_b i_b - s_a i_a) eps**s e^{i (s.i) phi}.

A Fourier sum is one unit 2**-e i**r, shared by all its terms, times
integer amplitudes {s: a} on eps**s e^{i (s.i) phi}; the Wronskian's unit
is (-1)**k 2**-k i**(k(k+1)/2).  ``substitute`` turns a sum into an exact
polynomial in w = exp(2 i phi) at the phases, reading eps_j and 1/eps_j
exactly from their doubles, so cylinder certificates are exact.
"""

import cmath
import functools
import itertools
import math
from typing import Dict, NamedTuple, Sequence, Tuple

from .polynomials import Polynomial, _canonical, _convolve


class Fourier(NamedTuple):
    """sum_s amps[s] eps**s e^{i (s.i) phi}, times the unit 2**-e i**r."""

    e: int
    r: int
    amps: Dict[Tuple[int, ...], int]


def _freq(s: Sequence[int], indices: Sequence[int]) -> int:
    return sum(a * b for a, b in zip(s, indices))


@functools.lru_cache(maxsize=128)
def _binomials(a: int, b: int) -> tuple:
    """The Y**j coefficients, j = 0..a+b, of (1 + Y)**a (1 - Y)**b."""
    return tuple(_convolve([math.comb(a, j) for j in range(a + 1)],
                           [(-1) ** j * math.comb(b, j) for j in range(b + 1)]))


def _i_power(r: int, x: int, y: int) -> Tuple[int, int]:
    """i**r (x + i y) as (real, imaginary) integers."""
    return ((x, y), (-y, x), (-x, -y), (y, -x))[r % 4]


def _times(x: float, big: int) -> int:
    """x big, for a power of two big that x's denominator divides."""
    num, den = x.as_integer_ratio()
    return num * (big // den)


def trig_wronskian(indices: Sequence[int], nphases: int) -> Fourier:
    """W[sin(i_j phi + t_j), j < k], each s padded with zeros to ``nphases``;
    all 2**k amplitudes are nonzero."""
    k = len(indices)
    amps = {}
    for s in itertools.product((1, -1), repeat=k):
        x = [a * b for a, b in zip(s, indices)]
        vandermonde = math.prod(x[b] - x[a] for a, b in itertools.combinations(range(k), 2))
        amps[s + (0,) * (nphases - k)] = math.prod(s) * vandermonde
    return Fourier(k, k * (k + 1) // 2 + 2 * k, amps)  # (-1)**k = i**(2k)


def substitute(terms: Fourier, indices: Sequence[int], total: int, ts: Sequence[float]) -> Polynomial:
    """The Fourier sum at the phases ts as an exact polynomial in
    w = exp(2 i phi): frequency f (f = total mod 2, |f| <= total) is its
    w**((f + total)/2) term.

    eps_j**+-1 are the doubles cmath.exp(+-i t_j), read exactly as Gaussian
    integers over one shared 2**E (their product need not be 1), and eps**s
    is the product of the |s_j|-th powers of the one of sign s_j."""
    units = [(cmath.exp(1j * t), cmath.exp(-1j * t)) for t in ts]
    big = max(x.as_integer_ratio()[1] for pair in units for c in pair for x in (c.real, c.imag))  # 2**E
    gauss = [[(_times(c.real, big), _times(c.imag, big)) for c in pair] for pair in units]
    degree = max((sum(map(abs, s)) for s in terms.amps), default=0)
    re, im = [0] * (total + 1), [0] * (total + 1)
    for s, amp in terms.amps.items():
        x, y = amp * big ** (degree - sum(map(abs, s))), 0  # over 2**(E degree)
        for (plus, minus), power in zip(gauss, s):
            u, v = plus if power > 0 else minus
            for _ in range(abs(power)):
                x, y = x * u - y * v, x * v + y * u
        x, y = _i_power(terms.r, x, y)
        slot = (_freq(s, indices) + total) // 2
        re[slot] += x
        im[slot] += y
    return _canonical((1 << terms.e) * big**degree, re, im)


def xy_coeffs(p_w: Polynomial, n: int) -> list:
    """The X**(n-j) Y**j coefficients, j = 0..n, of the degree-n homogeneous
    polynomial whose w-form is the exact p_w, each rounded once: w**a is
    r**n e^{i (2a - n) phi} = z**a zbar**(n-a) (z = X + iY), whose term is
    i**j times the Y**j coefficient of (1 + Y)**a (1 - Y)**(n-a)."""
    re, im = [0] * (n + 1), [0] * (n + 1)
    for a, (x, y) in enumerate(zip(p_w.re, p_w.im or itertools.repeat(0))):
        for j, c in enumerate(_binomials(a, n - a)):
            re[j] += c * x
            im[j] += c * y
    turned = (_i_power(j, u, v) for j, (u, v) in enumerate(zip(re, im)))
    return [complex(u / p_w.den, v / p_w.den) for u, v in turned]
