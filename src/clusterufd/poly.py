"""Sparse multivariate polynomial and Laurent-polynomial arithmetic.

Polynomials over Q or Q(i) are stored as dicts mapping exponent tuples to
nonzero coefficients.  A Laurent polynomial is a polynomial numerator plus a
monomial denominator exponent vector, kept reduced so that no variable
divides both.  ``/`` on Laurent polynomials is exact division: it raises
``ValueError`` unless the quotient is again Laurent.  A scalar may stand on
either side of ``+`` and ``*``, and only on the right of ``-`` and ``/``.
Variables are addressed 1-based (x1..xm) in every public signature;
exponent tuples are 0-indexed internally.

Two monomial orders are fixed here: ``GREVLEX`` on x1..xm, used for
leading terms, rendering and ideal bases, and ``ELIMINATE_LAST``,
which compares the last exponent first and breaks ties by grevlex on the
others.  ``groebner.ideal_intersection`` appends its auxiliary variable t
last, so ``ELIMINATE_LAST`` eliminates it.  ``MonomialOrder.key`` defines
each order; the Groebner kernel lays out its packed exponents to match.
"""
from __future__ import annotations

from bisect import insort
from fractions import Fraction
from functools import reduce
from operator import add, le, mul, neg, sub
from typing import Optional, Sequence

from .fields import FieldTag, GaussianRational, nonzero_terms, power

Exponent = tuple[int, ...]


# -- exponent-vector helpers ------------------------------------------------

def ev_add(a: Exponent, b: Exponent) -> Exponent:
    return tuple(map(add, a, b))


def ev_sub(a: Exponent, b: Exponent) -> Exponent:
    return tuple(map(sub, a, b))


def ev_max(a: Exponent, b: Exponent) -> Exponent:
    return tuple(map(max, a, b))


def ev_min(a: Exponent, b: Exponent) -> Exponent:
    return tuple(map(min, a, b))


def ev_divides(a: Exponent, b: Exponent) -> bool:
    """True when the monomial x^a divides x^b."""
    return all(map(le, a, b))


# -- monomial orders --------------------------------------------------------

class MonomialOrder:
    """``GREVLEX``, or ``ELIMINATE_LAST``: the last exponent first, then
    grevlex on the others.  Both apply to exponents of any length."""

    __slots__ = ("eliminate_last",)

    def __init__(self, eliminate_last: bool):
        self.eliminate_last = eliminate_last

    def key(self, exp: Exponent):
        """A sort key; larger key means larger monomial."""
        rev = tuple(map(neg, reversed(exp)))
        if self.eliminate_last:
            # rev starts with -t, a constant once t ties
            return (exp[-1], sum(exp) - exp[-1], rev)
        return (sum(exp), rev)


GREVLEX = MonomialOrder(False)
ELIMINATE_LAST = MonomialOrder(True)


# -- polynomials ------------------------------------------------------------

class Polynomial:
    """A sparse polynomial in m variables over a fixed coefficient field.

    ``terms`` maps exponent tuples of length m to nonzero field elements.
    Instances are immutable; all operators return new polynomials.

    >>> x1 = Polynomial.variable(1, 2, FieldTag.Q)
    >>> x2 = Polynomial.variable(2, 2, FieldTag.Q)
    >>> str((x1 + x2) * (x1 - x2))
    'x1^2 - x2^2'
    """

    __slots__ = ("m", "field", "terms")

    def __init__(self, m: int, field: FieldTag, terms: dict):
        clean = {}
        for exp, coeff in terms.items():
            exp = tuple(exp)
            if len(exp) != m:
                raise ValueError(f"exponent {exp} has length {len(exp)}, expected {m}")
            if any(e < 0 for e in exp):
                raise ValueError(f"negative exponent in {exp}")
            c = field.coerce(coeff)
            if c:
                clean[exp] = c
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def _raw(cls, m: int, field: FieldTag, terms: dict) -> "Polynomial":
        """Internal constructor: terms must already be clean."""
        self = object.__new__(cls)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "terms", terms)
        return self

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, m: int, field: FieldTag) -> "Polynomial":
        return cls._raw(m, field, {})

    @classmethod
    def one(cls, m: int, field: FieldTag) -> "Polynomial":
        return cls._raw(m, field, {(0,) * m: 1})

    @classmethod
    def constant(cls, value, m: int, field: FieldTag) -> "Polynomial":
        c = field.coerce(value)
        return cls._raw(m, field, {(0,) * m: c} if c else {})

    @classmethod
    def variable(cls, var: int, m: int, field: FieldTag) -> "Polynomial":
        """The variable x_var, 1-based."""
        if not 1 <= var <= m:
            raise ValueError(f"variable index {var} outside 1..{m}")
        exp = tuple(1 if p == var - 1 else 0 for p in range(m))
        return cls._raw(m, field, {exp: 1})

    @classmethod
    def monomial(cls, coeff, exp: Exponent, m: int, field: FieldTag) -> "Polynomial":
        return cls(m, field, {tuple(exp): coeff})

    # -- queries ------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Largest term degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, var: int) -> int:
        """Largest exponent of x_var; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        p = var - 1
        return max(e[p] for e in self.terms)

    def leading(self, order: MonomialOrder):
        """(exponent, coefficient) of the largest term under ``order``."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exp = max(self.terms, key=order.key)
        return exp, self.terms[exp]

    def coefficient_of(self, var: int, k: int) -> "Polynomial":
        """The coefficient of x_var^k, as a polynomial not involving x_var."""
        p = var - 1
        out = {}
        for exp, c in self.terms.items():
            if exp[p] == k:
                out[exp[:p] + (0,) + exp[p + 1:]] = c
        return Polynomial._raw(self.m, self.field, out)

    def min_exponents(self) -> Exponent:
        """Componentwise minimum exponent over all terms (the monomial
        content); empty for the zero polynomial."""
        return tuple(map(min, zip(*self.terms)))

    def constant_coefficient(self):
        return self.terms.get((0,) * self.m, 0)

    # -- arithmetic ---------------------------------------------------------

    def _check_compatible(self, other: "Polynomial"):
        if self.m != other.m or self.field is not other.field:
            raise ValueError("polynomials live in different ambient rings")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            if isinstance(other, (int, Fraction, GaussianRational)):
                other = Polynomial.constant(other, self.m, self.field)
            else:
                return NotImplemented
        self._check_compatible(other)
        out = dict(self.terms)
        for exp, c in other.terms.items():
            if exp in out:
                s = out[exp] + c
                if s:
                    out[exp] = s
                else:
                    del out[exp]
            else:
                out[exp] = c
        return Polynomial._raw(self.m, self.field, out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._raw(self.m, self.field,
                               {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = Polynomial.constant(other, self.m, self.field)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = Polynomial.constant(other, self.m, self.field)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_compatible(other)
        out: dict = {}
        get = out.get
        t2 = list(other.terms.items())
        for e1, c1 in self.terms.items():
            for e2, c2 in t2:
                exp = tuple(map(add, e1, e2))
                out[exp] = get(exp, 0) + c1 * c2
        return Polynomial._raw(self.m, self.field, nonzero_terms(out))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("polynomial powers take non-negative integer exponents")
        if not k:
            return Polynomial.one(self.m, self.field)
        return power(self, k)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (self.m == other.m and self.field is other.field
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.m, self.field, frozenset(self.terms.items())))

    # -- rendering ----------------------------------------------------------

    def __str__(self):
        return render_polynomial(self)

    __repr__ = __str__

    # -- substitution -------------------------------------------------------

    def substitute(self, values: Sequence["LaurentPolynomial"]) -> "LaurentPolynomial":
        """Evaluate at Laurent values, one per variable position."""
        if len(values) != self.m:
            raise ValueError(f"expected {self.m} values, got {len(values)}")
        if not values:
            raise ValueError("cannot substitute in a 0-variable ring")
        ambient_m, ambient_field = values[0].m, values[0].field
        if not self.terms:
            return LaurentPolynomial.zero(ambient_m, ambient_field)
        terms = []
        for exp, c in self.terms.items():
            factors = [values[p] ** e for p, e in enumerate(exp) if e]
            if c != 1 or not factors:
                factors.append(LaurentPolynomial.constant(c, ambient_m, ambient_field))
            terms.append(reduce(mul, factors))
        return reduce(add, terms)


def divide_exact(p: Polynomial, q: Polynomial) -> Optional[Polynomial]:
    """The quotient p/q when q divides p exactly, else None.

    Single-divisor multivariate division under the order of the exponent
    tuples themselves, that is lex with x1 > x2 > ... > xm.  No other order
    would give another answer:

    - if q divides p, every remainder is a multiple of q, so its largest
      term under any monomial order is divisible by q's largest term;
      whenever a term would land in the remainder the division cannot be
      exact, so we stop early;
    - tuple order is a monomial order, so the division terminates;
    - the exact quotient is unique, so it is the same under every order.

    Each term enters a queue sorted by exponent once, when it enters the
    remainder.  Every term a step adds lies below the leading term it
    cancels, so the largest queued term still in the remainder is the
    leading term; a queued term that has since cancelled is skipped when it
    comes up.
    """
    p._check_compatible(q)
    if q.is_zero:
        raise ZeroDivisionError("division by zero polynomial")
    if p.is_zero:
        return Polynomial.zero(p.m, p.field)
    q_exp = max(q.terms)
    q_coeff = q.terms[q_exp]
    q_terms = list(q.terms.items())
    div = p.field.div
    rem, quot = dict(p.terms), {}
    queue = sorted(rem)
    while rem:
        exp = queue.pop()
        if exp not in rem:
            continue
        if not ev_divides(q_exp, exp):
            return None
        factor = div(rem[exp], q_coeff)
        shift = ev_sub(exp, q_exp)
        quot[shift] = factor
        for e2, c2 in q_terms:
            tgt = ev_add(shift, e2)
            if tgt in rem:
                s = rem[tgt] - factor * c2
                if s:
                    rem[tgt] = s
                else:
                    del rem[tgt]
            else:
                rem[tgt] = -factor * c2
                insort(queue, tgt)
    return Polynomial._raw(p.m, p.field, quot)


# -- Laurent polynomials ----------------------------------------------------

class LaurentPolynomial:
    """A Laurent polynomial num / x^den with monomial denominator.

    The representation is kept reduced: no variable divides both the
    numerator and the denominator monomial, and the zero value has a zero
    denominator vector.  Equality of reduced forms is then literal equality.
    """

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num: Polynomial, den: Exponent):
        den = tuple(den)
        if len(den) != num.m:
            raise ValueError(f"denominator length {len(den)} != ambient {num.m}")
        if any(e < 0 for e in den):
            raise ValueError("denominator exponents must be non-negative")
        if num.is_zero:
            den = (0,) * num.m
        elif any(den):
            content = num.min_exponents()
            shift = ev_min(den, content)
            if any(shift):
                num = Polynomial._raw(
                    num.m, num.field,
                    {ev_sub(e, shift): c for e, c in num.terms.items()})
                den = ev_sub(den, shift)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPolynomial is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, m: int, field: FieldTag) -> "LaurentPolynomial":
        return cls(Polynomial.zero(m, field), (0,) * m)

    @classmethod
    def one(cls, m: int, field: FieldTag) -> "LaurentPolynomial":
        return cls(Polynomial.one(m, field), (0,) * m)

    @classmethod
    def constant(cls, value, m: int, field: FieldTag) -> "LaurentPolynomial":
        return cls(Polynomial.constant(value, m, field), (0,) * m)

    @classmethod
    def variable(cls, var: int, m: int, field: FieldTag) -> "LaurentPolynomial":
        return cls(Polynomial.variable(var, m, field), (0,) * m)

    # -- queries ------------------------------------------------------------

    @property
    def m(self) -> int:
        return self.num.m

    @property
    def field(self) -> FieldTag:
        return self.num.field

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def is_unit(self) -> bool:
        """True when invertible in the Laurent ring: a single-term numerator."""
        return len(self.num.terms) == 1

    def is_polynomial(self) -> bool:
        return not any(self.den)

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def _scale_num(p: Polynomial, shift: Exponent) -> Polynomial:
        if not any(shift):
            return p
        return Polynomial._raw(p.m, p.field,
                               {ev_add(e, shift): c for e, c in p.terms.items()})

    def __add__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = LaurentPolynomial.constant(other, self.m, self.field)
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        den = ev_max(self.den, other.den)
        # the numerators' + checks the ambient rings
        num = (self._scale_num(self.num, ev_sub(den, self.den))
               + self._scale_num(other.num, ev_sub(den, other.den)))
        return LaurentPolynomial(num, den)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPolynomial(-self.num, self.den)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = LaurentPolynomial.constant(other, self.m, self.field)
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = LaurentPolynomial.constant(other, self.m, self.field)
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        # the numerators' * checks the ambient rings
        return LaurentPolynomial(self.num * other.num, ev_add(self.den, other.den))

    __rmul__ = __mul__

    def inverse(self) -> "LaurentPolynomial":
        return LaurentPolynomial.one(self.m, self.field) / self

    def __truediv__(self, other):
        """Exact division: the quotient must again be a Laurent polynomial.

        Write other = x^w * g / x^d with g free of monomial factors; the
        quotient is (self.num / g) * x^d / x^(self.den + w), so g must
        divide self.num exactly, or a ``ValueError`` is raised.
        """
        if not isinstance(other, LaurentPolynomial):
            if isinstance(other, (int, Fraction, GaussianRational)):
                other = LaurentPolynomial.constant(other, self.m, self.field)
            else:
                return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by zero Laurent polynomial")
        w = other.num.min_exponents()
        g = self._scale_num(other.num, tuple(map(neg, w)))
        h = divide_exact(self.num, g)  # also checks the ambient rings
        if h is None:
            raise ValueError(f"{g} does not divide {self.num}")
        return LaurentPolynomial(self._scale_num(h, other.den),
                                 ev_add(self.den, w))

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise ValueError("Laurent powers take integer exponents")
        if k < 0:
            return self.inverse() ** (-k)
        if k == 1:
            return self
        return LaurentPolynomial(self.num ** k,
                                 tuple(e * k for e in self.den))

    def __eq__(self, other):
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.num, self.den)))
        return self._hash

    def __str__(self):
        return render_laurent(self)

    __repr__ = __str__


# -- rendering --------------------------------------------------------------

def _monomial_str(exp: Exponent) -> str:
    parts = []
    for p, e in enumerate(exp):
        if e == 1:
            parts.append(f"x{p + 1}")
        elif e:
            parts.append(f"x{p + 1}^{e}")
    return "*".join(parts)


def _coeff_parts(coeff) -> tuple[bool, str]:
    """(negative, magnitude-text) for a coefficient; mixed Gaussians get parens."""
    if isinstance(coeff, GaussianRational):
        if coeff.re:
            return False, f"({coeff})"
        im = coeff.im
        return im < 0, "i" if abs(im) == 1 else f"{abs(im)}*i"
    return coeff < 0, str(abs(coeff))


def render_polynomial(p: Polynomial) -> str:
    """Canonical text form: terms in descending grevlex order."""
    if p.is_zero:
        return "0"
    pieces = []
    for exp in sorted(p.terms, key=GREVLEX.key, reverse=True):
        neg, mag = _coeff_parts(p.terms[exp])
        mono = _monomial_str(exp)
        if not mono:
            body = mag
        elif mag == "1":
            body = mono
        else:
            body = f"{mag}*{mono}"
        if not pieces:
            pieces.append(f"-{body}" if neg else body)
        else:
            pieces.append(f" - {body}" if neg else f" + {body}")
    return "".join(pieces)


def render_laurent(v: LaurentPolynomial) -> str:
    num_str = render_polynomial(v.num)
    if not any(v.den):
        return num_str
    if len(v.num.terms) > 1:
        num_str = f"({num_str})"
    den_str = _monomial_str(v.den)
    if sum(1 for e in v.den if e) > 1:
        den_str = f"({den_str})"
    return f"{num_str}/{den_str}"
