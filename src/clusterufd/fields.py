"""Exact scalar arithmetic for the supported coefficient fields.

Two fields are available: the rationals and the Gaussian rationals a + b*i.
A rational is stored in canonical form: an ``int`` when it is integral,
else a ``Fraction``.  Over Q(i) a real value is stored exactly as over Q,
and only a value with a nonzero imaginary part is a ``GaussianRational``,
whose parts are canonical rationals.  Exchange polynomials and cluster
variables have integer coefficients, so their arithmetic runs on plain ints
over either field, and the constants 0 and 1 are the ints.  This module
alone applies the rule: ``FieldTag.coerce`` gives canonical values,
``GaussianRational`` arithmetic returns them, ``nonzero_terms`` cleans a
product, and ``FieldTag.div`` is the one division of coefficients, since
``int / int`` would give a float.
A sum of two Fractions may still be an integral Fraction, which equals and
hashes like its int.  All arithmetic is exact; nothing here ever touches a
float.
"""
from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import Union


class GaussianRational:
    """A Gaussian rational ``re + im*i`` with exact components.

    The parts are canonical rationals.  Supports mixed arithmetic with
    ``int`` and ``Fraction`` operands, which are treated as purely real.
    Every operation returns the canonical value, so a real result is an
    ``int`` or a ``Fraction``: ``i * i`` is ``-1``.  Division multiplies by
    the conjugate.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        for part in (re, im):
            if not isinstance(part, (int, Fraction)) or isinstance(part, bool):
                raise TypeError(
                    f"a Gaussian rational part must be an int or a Fraction, "
                    f"not {type(part).__name__}")
        object.__setattr__(self, "re", _canonical(re))
        object.__setattr__(self, "im", _canonical(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        return _gauss(self.re + o[0], self.im + o[1])

    __radd__ = __add__

    def __sub__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        return _gauss(self.re - o[0], self.im - o[1])

    def __rsub__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        return _gauss(o[0] - self.re, o[1] - self.im)

    def __mul__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        return _gauss(self.re * o[0] - self.im * o[1],
                      self.re * o[1] + self.im * o[0])

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        return _quotient(self.re, self.im, *o)

    def __rtruediv__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        return _quotient(*o, self.re, self.im)

    def __neg__(self):
        return _gauss(-self.re, -self.im)

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return _quotient(1, 0, self.re, self.im) ** (-k)
        return power(self, k) if k else 1

    # -- structure ----------------------------------------------------------

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        return self.re == o[0] and self.im == o[1]

    def __hash__(self):
        # Must agree with int and Fraction when purely real, since __eq__ does.
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


def _parts(value):
    """(re, im) of an int, Fraction or GaussianRational; None otherwise."""
    if isinstance(value, GaussianRational):
        return value.re, value.im
    if isinstance(value, (int, Fraction)):
        return value, 0
    return None


def _gauss(re, im) -> "FieldElement":
    """The canonical value re + im*i of two rationals: a canonical rational
    when im is zero, else a GaussianRational."""
    if im:
        return GaussianRational(re, im)
    return _canonical(re)


def power(base, k: int):
    """``base ** k`` for k >= 1 by repeated squaring: bit_length(k) - 1
    squarings and popcount(k) - 1 further products."""
    while not k & 1:
        base = base * base
        k >>= 1
    out = base
    k >>= 1
    while k:
        base = base * base
        if k & 1:
            out = out * base
        k >>= 1
    return out


def _quotient(a_re, a_im, b_re, b_im) -> "FieldElement":
    """(a_re + a_im*i) / (b_re + b_im*i), canonical, with no float."""
    n = b_re * b_re + b_im * b_im
    if not n:
        raise ZeroDivisionError("division by zero Gaussian rational")
    return _gauss(Fraction(a_re * b_re + a_im * b_im, n),
                  Fraction(a_im * b_re - a_re * b_im, n))


FieldElement = Union[int, Fraction, GaussianRational]


class FieldTag(Enum):
    """Which coefficient field a polynomial or seed lives over."""

    Q = "Q"
    QI = "Qi"

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
        if isinstance(value, GaussianRational):
            if not value.im:
                return value.re
            if self is FieldTag.Q:
                raise ValueError(f"{value} has an imaginary part; not in Q")
            return value
        return _canonical(value)

    def div(self, a: FieldElement, b: FieldElement) -> FieldElement:
        """The quotient a / b of two elements of this field, canonical."""
        if type(a) is int and type(b) is int:
            q, r = divmod(a, b)
            return Fraction(a, b) if r else q
        quotient = a / b
        if type(quotient) is GaussianRational:
            return quotient
        return _canonical(quotient)

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
