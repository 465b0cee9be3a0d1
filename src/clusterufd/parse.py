"""Recursive-descent parser for polynomial and Laurent expressions.

Grammar (whitespace ignored)::

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := atom ['^' INT]
    atom   := '(' expr ')' | INT | 'i' | 'x' INT

Division is evaluated in the Laurent ring.  The parser accepts only a
divisor whose reduced numerator is a single term, and rejects anything else
with the position of the offending '/'.  Parentheses nest at most
``MAX_NESTING`` deep, so malformed input cannot exhaust the interpreter's
stack.  A power is refused at its '^' before it is expanded when the
exponent exceeds ``MAX_EXPONENT``, or when a base of t terms raised to k
could have more than ``MAX_POWER_TERMS`` terms, the count of monomials of
degree k in t symbols, C(t + k - 1, k).  A product is refused at its '*'
when its numerator could have more than ``MAX_POWER_TERMS`` terms: factors
whose numerators have t1 and t2 terms and total degrees d1 and d2 give a
numerator of at most min(t1 * t2, C(m + d1 + d2, m)) terms, the second
count being that of the monomials of degree at most d1 + d2 in x1..xm.  So
a short input cannot ask for minutes of arithmetic.  A number, literal or
variable index, of more than ``MAX_DIGITS`` digits is refused where it
stands, and a coefficient grown past it at its operator.  ``i`` needs Qi.
"""
from __future__ import annotations

import re
from math import comb

from .fields import FieldTag, GaussianRational
from .poly import LaurentPolynomial, Polynomial


class ParseError(ValueError):
    """A syntax or evaluation error, carrying the 1-based input position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


MAX_NESTING = 100
MAX_EXPONENT = 1000
MAX_POWER_TERMS = 5000
MAX_DIGITS = 4300  # Python's default limit on int() of a decimal string
_DIGIT_BOUND = 10 ** MAX_DIGITS  # the least number of MAX_DIGITS + 1 digits

_TOKEN = re.compile(r"\s*(?:(\d+)|(x\d+)|(i)|([-+*/^()]))")
_KINDS = (None, "int", "var", "imag", "op")  # by the group that matched


def check_digits(value: LaurentPolynomial, position: int) -> LaurentPolynomial:
    """``value``, after refusing a coefficient whose numerator or
    denominator has more than ``MAX_DIGITS`` digits with a ParseError at
    ``position``."""
    for c in value.num.terms.values():
        for p in (c.re, c.im) if isinstance(c, GaussianRational) else (c,):
            if max(abs(p.numerator), p.denominator) >= _DIGIT_BOUND:
                raise ParseError(
                    f"a coefficient has more than {MAX_DIGITS} digits", position)
    return value


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad_at = len(text) - len(stripped) + 1
            raise ParseError(f"unexpected character {stripped[0]!r}", bad_at)
        group = match.lastindex
        digits = (match.group(1) or match.group(2) or "").lstrip("x")
        if len(digits) > MAX_DIGITS:
            raise ParseError(
                f"a number of {len(digits)} digits is longer than "
                f"{MAX_DIGITS} digits", match.start(group) + 1)
        tokens.append((_KINDS[group], match.group(group), match.start(group) + 1))
        pos = match.end()
    tokens.append(("end", "", len(text) + 1))
    return tokens


class _Parser:
    def __init__(self, text: str, m: int, field: FieldTag):
        self.tokens = _tokenize(text)
        self.idx = 0
        self.depth = 0
        self.m = m
        self.field = field

    def peek(self):
        return self.tokens[self.idx]

    def advance(self):
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def expect_op(self, symbol: str):
        kind, text, pos = self.peek()
        if kind != "op" or text != symbol:
            raise ParseError(f"expected {symbol!r}", pos)
        return self.advance()

    def parse(self) -> LaurentPolynomial:
        value = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {text!r}", pos)
        return value

    def expr(self) -> LaurentPolynomial:
        kind, text, _ = self.peek()
        negate = False
        if kind == "op" and text == "-":
            self.advance()
            negate = True
        value = self.term()
        if negate:
            value = -value
        while True:
            kind, text, pos = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                rhs = self.term()
                value = check_digits(
                    value + rhs if text == "+" else value - rhs, pos)
            else:
                return value

    def term(self) -> LaurentPolynomial:
        value = self.factor()
        while True:
            kind, text, pos = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                rhs = self.factor()
                if text == "*":
                    self.check_product(value, rhs, pos)
                    value = check_digits(value * rhs, pos)
                else:
                    if rhs.is_zero:
                        raise ParseError("division by zero", pos)
                    if not rhs.is_unit():
                        raise ParseError(
                            "division requires a divisor that reduces to a "
                            "single term", pos)
                    value = check_digits(value / rhs, pos)
            else:
                return value

    def check_product(self, a: LaurentPolynomial, b: LaurentPolynomial,
                      star: int):
        """Refuse a product whose numerator may pass ``MAX_POWER_TERMS``."""
        bound = len(a.num.terms) * len(b.num.terms)
        if bound > MAX_POWER_TERMS:
            degree = a.num.total_degree() + b.num.total_degree()
            bound = min(bound, comb(self.m + degree, self.m))
        if bound > MAX_POWER_TERMS:
            raise ParseError(
                f"a product of {len(a.num.terms)}-term and "
                f"{len(b.num.terms)}-term factors may have {bound} terms, "
                f"more than {MAX_POWER_TERMS}", star)

    def factor(self) -> LaurentPolynomial:
        value = self.atom()
        kind, text, caret = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            kind, text, pos = self.peek()
            if kind != "int":
                raise ParseError("exponent must be a non-negative integer", pos)
            self.advance()
            k = int(text)
            if k > MAX_EXPONENT:
                raise ParseError(f"exponent {k} exceeds {MAX_EXPONENT}", caret)
            # the zero base has no terms; one keeps C(t + k - 1, k) defined at 0^0
            t = max(len(value.num.terms), 1)
            bound = comb(t + k - 1, k)
            if bound > MAX_POWER_TERMS:
                raise ParseError(
                    f"a {t}-term base to the power {k} may have {bound} "
                    f"terms, more than {MAX_POWER_TERMS}", caret)
            value = check_digits(value ** k, caret)
        return value

    def atom(self) -> LaurentPolynomial:
        kind, text, pos = self.advance()
        if kind == "int":
            return LaurentPolynomial.constant(int(text), self.m, self.field)
        if kind == "var":
            var = int(text[1:])
            if not 1 <= var <= self.m:
                raise ParseError(
                    f"unknown variable {text}: ambient ring has x1..x{self.m}",
                    pos)
            return LaurentPolynomial.variable(var, self.m, self.field)
        if kind == "imag":
            if self.field is not FieldTag.QI:
                raise ParseError("the symbol i requires --field Qi", pos)
            return LaurentPolynomial.constant(self.field.imaginary_unit(),
                                              self.m, self.field)
        if kind == "op" and text == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(
                    f"parentheses nested deeper than {MAX_NESTING} levels", pos)
            self.depth += 1
            value = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return value
        raise ParseError(
            f"unexpected {text!r}" if text else "unexpected end of input", pos)


def parse_expression(text: str, m: int, field: FieldTag) -> LaurentPolynomial:
    """Parse a Laurent expression in the variables x1..xm."""
    return _Parser(text, m, field).parse()


def parse_polynomial(text: str, m: int, field: FieldTag) -> Polynomial:
    """Parse an expression that must reduce to an honest polynomial."""
    value = parse_expression(text, m, field)
    if not value.is_polynomial():
        raise ParseError(
            f"expression is not a polynomial: it reduces to {value}", 1)
    return value.num
