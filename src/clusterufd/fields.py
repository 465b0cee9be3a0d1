"""Exact scalar arithmetic for the supported coefficient fields.

Two fields are available: the rationals and the Gaussian rationals a + b*i
with Fraction components.  A rational is stored in canonical form: an
``int`` when it is integral, else a ``Fraction``.  Exchange polynomials and
cluster variables have integer coefficients, so their arithmetic runs on
plain ints.  This module alone applies the rule: ``FieldTag.coerce``,
``zero`` and ``one`` give canonical values, ``nonzero_terms`` cleans a
product, and ``FieldTag.div`` is the one division of coefficients, since
``int / int`` would give a float.  A sum of two Fractions may still be an
integral Fraction, which equals and hashes like its int.  All arithmetic is
exact; nothing here ever touches a float.
"""
from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import Union


class GaussianRational:
    """A Gaussian rational ``re + im*i`` with exact components.

    Supports mixed arithmetic with ``int`` and ``Fraction`` operands, which
    are treated as purely real.  Division multiplies by the conjugate.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussianRational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = o.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / n,
            (self.im * o.re - self.re * o.im) / n,
        )

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return (GaussianRational(1) / self) ** (-k)
        out = GaussianRational(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- structure ----------------------------------------------------------

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def norm(self) -> Fraction:
        """The field norm re^2 + im^2 (a nonnegative rational)."""
        return self.re * self.re + self.im * self.im

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        # Must agree with Fraction when purely real, since __eq__ does.
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __str__(self):
        if not self.im:
            return str(self.re)
        im_mag = abs(self.im)
        im_txt = "i" if im_mag == 1 else f"{im_mag}*i"
        if not self.re:
            return im_txt if self.im > 0 else f"-{im_txt}"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{im_txt}"

    __repr__ = __str__


FieldElement = Union[int, Fraction, GaussianRational]


def conjugate(value: FieldElement) -> FieldElement:
    """Complex conjugation; the identity on rationals."""
    if isinstance(value, GaussianRational):
        return value.conjugate()
    return value


class FieldTag(Enum):
    """Which coefficient field a polynomial or seed lives over."""

    Q = "Q"
    QI = "Qi"

    @classmethod
    def from_name(cls, name: str) -> "FieldTag":
        for tag in cls:
            if tag.value == name:
                return tag
        raise ValueError(f"unknown field {name!r}; expected 'Q' or 'Qi'")

    def zero(self) -> FieldElement:
        return 0 if self is FieldTag.Q else GaussianRational(0)

    def one(self) -> FieldElement:
        return 1 if self is FieldTag.Q else GaussianRational(1)

    def imaginary_unit(self) -> GaussianRational:
        if self is not FieldTag.QI:
            raise ValueError("the imaginary unit requires the field Qi")
        return GaussianRational(0, 1)

    def coerce(self, value) -> FieldElement:
        """Coerce an int, Fraction or GaussianRational into this field, in
        canonical form."""
        if not isinstance(value, (int, Fraction, GaussianRational)) \
                or isinstance(value, bool):
            raise TypeError(f"cannot coerce {type(value).__name__} exactly")
        if self is FieldTag.Q:
            if isinstance(value, GaussianRational):
                if value.im:
                    raise ValueError(f"{value} has an imaginary part; not in Q")
                value = value.re
            return _canonical(value)
        if isinstance(value, GaussianRational):
            return value
        return GaussianRational(value)

    def div(self, a: FieldElement, b: FieldElement) -> FieldElement:
        """The quotient a / b of two elements of this field, canonical."""
        if type(a) is int and type(b) is int:
            q, r = divmod(a, b)
            return Fraction(a, b) if r else q
        quotient = a / b
        return _canonical(quotient) if self is FieldTag.Q else quotient

    def is_integer_scalar(self, value: FieldElement) -> bool:
        """True when the value is a plain rational integer."""
        if isinstance(value, GaussianRational):
            return not value.im and value.re.denominator == 1
        return value.denominator == 1


def _canonical(value: Union[int, Fraction]) -> Union[int, Fraction]:
    """A rational as an int when it is integral, else as a Fraction."""
    return value.numerator if value.denominator == 1 else value


def nonzero_terms(terms: dict) -> dict:
    """The nonzero entries of a term dict over either field, in canonical
    form: a sum of products of Fractions may be integral."""
    return {e: c.numerator if type(c) is Fraction and c.denominator == 1
            else c for e, c in terms.items() if c}
