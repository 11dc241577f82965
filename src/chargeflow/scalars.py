"""Exact Gaussian-rational scalars.

Exact values are pairs of arbitrary-precision rationals (re, im); float
values are ordinary Python complex.  ``int`` and ``Fraction`` embed in
the exact ring (``EXACT``), but a float or complex operand never does:
``coerce`` rejects it, so arithmetic that mixes the two rings raises
``TypeError`` and conversion is always an explicit ``to_complex`` /
``exactify`` call.
"""

from __future__ import annotations

from fractions import Fraction


class GaussianRational:
    """Complex number with exact rational real and imaginary parts.

    ``Fraction`` already guarantees lowest terms and a positive
    denominator, so no extra normalization is needed here.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    # -- helpers ------------------------------------------------------

    @staticmethod
    def coerce(value) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            # zero is immutable, so every coerced 0 is the one shared instance
            return GaussianRational(value) if value else _ZERO
        raise TypeError(f"cannot coerce {type(value).__name__} to GaussianRational")

    @property
    def is_zero(self) -> bool:
        return not self.re and not self.im

    @property
    def is_real(self) -> bool:
        return not self.im

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        other = GaussianRational.coerce(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-GaussianRational.coerce(other))

    def __rsub__(self, other):
        return GaussianRational.coerce(other) + (-self)

    def __mul__(self, other):
        other = GaussianRational.coerce(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = GaussianRational.coerce(other)
        norm = other.re * other.re + other.im * other.im
        if not norm:
            raise ZeroDivisionError("division by zero GaussianRational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )

    def __rtruediv__(self, other):
        return GaussianRational.coerce(other) / self

    def __eq__(self, other):
        try:
            other = GaussianRational.coerce(other)
        except TypeError:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        if not self.im:
            return f"GaussianRational({self.re})"
        return f"GaussianRational({self.re}, {self.im})"

    def __bool__(self):
        return not self.is_zero


_ZERO = GaussianRational(0)

# the scalar types of the exact ring (Fraction last: its isinstance check
# goes through the numbers ABCs and is the slowest)
EXACT = (GaussianRational, int, Fraction)


def exactify(value) -> GaussianRational:
    """Explicit conversion of an int/Fraction/GaussianRational to exact form."""
    return GaussianRational.coerce(value)


def to_complex(value) -> complex:
    """Explicit conversion of any scalar (exact or float) to complex."""
    if isinstance(value, GaussianRational):
        return value.to_complex()
    return complex(value)
