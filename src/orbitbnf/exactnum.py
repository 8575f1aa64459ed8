"""Exact complex rationals and coefficient-type dispatch helpers.

The series algebra is written against an abstract "complex-like" coefficient:
anything supporting +, -, *, and the helpers below.  Two concrete choices are
used in practice: plain ``complex`` (fast path) and :class:`QComplex`
(exact path, for regression tests where float round-off would obscure an
algebraic identity).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class QComplex:
    """Complex number with exact rational real and imaginary parts."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    @staticmethod
    def of(re, im=0) -> "QComplex":
        return QComplex(Fraction(re), Fraction(im))

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return QComplex(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return QComplex(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return QComplex(other.re - self.re, other.im - self.im)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return QComplex(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d = other.re * other.re + other.im * other.im
        return QComplex(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def __neg__(self):
        return QComplex(-self.re, -self.im)

    def conjugate(self) -> "QComplex":
        return QComplex(self.re, -self.im)

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __abs__(self) -> float:
        return abs(complex(self))

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"QComplex({self.re!s}, {self.im!s})"


def _coerce(x):
    if isinstance(x, QComplex):
        return x
    if isinstance(x, (int, Fraction)):
        return QComplex(Fraction(x))
    return NotImplemented


def times_i(c):
    """Multiply a coefficient by the imaginary unit, preserving its type."""
    if isinstance(c, QComplex):
        return QComplex(-c.im, c.re)
    return 1j * c


def div_i(c):
    """Divide a coefficient by the imaginary unit (c/i = -i*c), type-preserving."""
    if isinstance(c, QComplex):
        return QComplex(c.im, -c.re)
    return -1j * c


def conj_c(c):
    """Complex conjugate, preserving coefficient type."""
    if isinstance(c, QComplex):
        return c.conjugate()
    return c.conjugate() if isinstance(c, complex) else complex(c).conjugate()
