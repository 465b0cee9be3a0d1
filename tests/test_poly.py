"""Sparse multivariate polynomials, Laurent fractions, orders and parsing."""
from __future__ import annotations

import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from conftest import random_laurent, random_polynomial
from oracles import divide_exact_grevlex
from clusterufd.fields import FieldTag, GaussianRational
from clusterufd.parse import (MAX_DIGITS, MAX_EXPONENT, MAX_NESTING,
                              MAX_POWER_TERMS, ParseError, _tokenize,
                              parse_expression, parse_polynomial)
from clusterufd.poly import (
    ELIMINATE_LAST,
    GREVLEX,
    LaurentPolynomial,
    MonomialOrder,
    Polynomial,
    divide_exact,
    ev_add,
    ev_divides,
    ev_sub,
    render_laurent,
    render_polynomial,
)

Q = FieldTag.Q
QI = FieldTag.QI


def P(text: str, m: int = 2, field: FieldTag = Q) -> Polynomial:
    return parse_polynomial(text, m, field)


def L(text: str, m: int = 2, field: FieldTag = Q) -> LaurentPolynomial:
    return parse_expression(text, m, field)


# -- exponent vectors --------------------------------------------------------

def test_exponent_helpers():
    assert ev_add((1, 2), (3, 0)) == (4, 2)
    assert ev_sub((3, 2), (1, 2)) == (2, 0)
    assert ev_divides((1, 0), (2, 5))
    assert not ev_divides((1, 3), (2, 2))


# -- construction and normalization -----------------------------------------

class TestConstruction:
    def test_zero_coefficients_dropped(self):
        p = Polynomial(2, Q, {(1, 0): Fraction(0), (0, 1): Fraction(2)})
        assert p.terms == {(0, 1): Fraction(2)}

    def test_duplicate_exponents_merge(self):
        p = Polynomial(2, Q, {(1, 0): Fraction(1)}) \
            + Polynomial(2, Q, {(1, 0): Fraction(-1)})
        assert p.is_zero

    def test_bad_exponents_rejected(self):
        with pytest.raises(ValueError):
            Polynomial(2, Q, {(1,): Fraction(1)})
        with pytest.raises(ValueError):
            Polynomial(2, Q, {(1, -1): Fraction(1)})

    def test_coefficients_coerced(self):
        # integral values are stored as ints, the others as Fractions
        p = Polynomial(1, Q, {(0,): Fraction(6, 2), (1,): Fraction(1, 2)})
        assert type(p.terms[(0,)]) is int and p.terms[(0,)] == 3
        assert type(p.terms[(1,)]) is Fraction
        with pytest.raises(ValueError):
            Polynomial(1, Q, {(0,): GaussianRational(0, 1)})

    def test_variable_is_one_based(self):
        assert Polynomial.variable(2, 3, Q).terms == {(0, 1, 0): Fraction(1)}
        with pytest.raises(ValueError):
            Polynomial.variable(0, 3, Q)
        with pytest.raises(ValueError):
            Polynomial.variable(4, 3, Q)


# -- arithmetic --------------------------------------------------------------

class TestArithmetic:
    def test_difference_of_squares(self):
        assert P("x1 + x2") * P("x1 - x2") == P("x1^2 - x2^2")

    def test_gaussian_conjugate_product(self):
        lhs = P("1 + i*x2", field=QI) * P("1 - i*x2", field=QI)
        assert lhs == P("1 + x2^2", field=QI)

    def test_scalar_mixing(self):
        p = P("x1 + 1")
        assert 2 * p - p == p
        assert p * Fraction(1, 2) + p * Fraction(1, 2) == p

    @pytest.mark.parametrize("value", [P("x1 + 1"), L("(x1 + 1)/x2")])
    def test_scalar_sides(self, value):
        # a scalar may stand on either side of + and *, and only on the
        # right of - and /
        assert 1 + value == value + 1
        assert 2 * value == value * 2 == value + value
        assert value - 1 == value + -1
        with pytest.raises(TypeError):
            1 - value
        with pytest.raises(TypeError):
            1 / value
        if isinstance(value, LaurentPolynomial):
            assert value / 2 == value * Fraction(1, 2)

    def test_power(self):
        assert P("x1 + x2") ** 2 == P("x1^2 + 2*x1*x2 + x2^2")
        assert P("x1") ** 0 == Polynomial.one(2, Q)
        with pytest.raises(ValueError):
            P("x1 + x2") ** -1

    def test_degrees(self):
        p = P("x1^3*x2 + x2^2")
        assert p.total_degree() == 4
        assert p.degree_in(1) == 3
        assert p.degree_in(2) == 2
        assert Polynomial.zero(2, Q).total_degree() == -1

    def test_support_and_content(self):
        p = P("x1^2*x2 + x1^3", m=3)
        assert p.min_exponents() == (2, 0, 0)

    def test_coefficient_of_examples(self):
        p = P("x1^2*x2 + 3*x1^2 + x2")
        assert p.coefficient_of(1, 2) == P("x2 + 3")
        assert p.coefficient_of(1, 0) == P("x2")
        assert p.coefficient_of(1, 5).is_zero

    def test_coefficient_of_reconstructs(self):
        rng = random.Random(11)
        for _ in range(30):
            p = random_polynomial(rng, 3, Q)
            for var in (1, 2, 3):
                x = Polynomial.variable(var, 3, Q)
                total = Polynomial.zero(3, Q)
                for k in range(p.degree_in(var) + 1):
                    total = total + p.coefficient_of(var, k) * x ** k
                assert total == p

    def test_substitute(self):
        p = P("x1*x2 + x2 + 1")
        y1 = L("(x2 + 1)/x1")
        y2 = L("x1")
        # y1*y2 + y2 + 1 = (x2 + 1) + x1 + 1
        assert p.substitute([y1, y2]) == L("x1 + x2 + 2")
        q = P("x1^2")
        assert q.substitute([L("1/x1"), L("x2")]) == L("1/x1^2")

    @given(st.integers(0, 2 ** 32))
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, seed):
        rng = random.Random(seed)
        field = rng.choice([Q, QI])
        a = random_polynomial(rng, 2, field)
        b = random_polynomial(rng, 2, field)
        c = random_polynomial(rng, 2, field)
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a - a == Polynomial.zero(2, field)


# -- monomial orders ---------------------------------------------------------

class TestOrders:
    def test_grevlex_comparisons(self):
        key = GREVLEX.key
        # degree first ...
        assert key((2, 2)) > key((3, 0))
        # ... ties broken against the last variable
        assert key((2, 1)) > key((1, 2))

    def test_grevlex_three_vars(self):
        key = GREVLEX.key
        assert key((1, 1, 0)) > key((1, 0, 1)) > key((0, 1, 1))

    def test_elimination_order_blocks(self):
        # The last variable dominates: any monomial containing x3 beats any
        # without, and equal x3 powers fall back to grevlex on x1, x2.
        key = ELIMINATE_LAST.key
        assert key((0, 0, 1)) > key((9, 9, 0))
        assert key((1, 0, 2)) > key((5, 5, 1))
        assert key((2, 1, 1)) > key((1, 2, 1)) > key((2, 0, 1))

    @staticmethod
    def reference_grevlex(exp):
        """Grevlex written out from its definition: total degree first,
        then the smaller exponent of the last differing variable wins."""
        return (sum(exp), [-e for e in reversed(exp)])

    @classmethod
    def reference_eliminate_last(cls, exp):
        """The block order that eliminates one variable, read through the
        permutation that moves the last position first."""
        pe = [exp[-1]] + list(exp[:-1])
        return (cls.reference_grevlex(pe[:1]), cls.reference_grevlex(pe[1:]))

    def test_key_matches_reference_definition(self):
        rng = random.Random(41)
        for m in range(1, 7):
            exps = [tuple(rng.randint(0, 4) for _ in range(m)) for _ in range(20)]
            for order, reference in ((GREVLEX, self.reference_grevlex),
                                     (ELIMINATE_LAST, self.reference_eliminate_last)):
                for a in exps:
                    for b in exps:
                        assert ((order.key(a) < order.key(b))
                                == (reference(a) < reference(b)))
                        assert ((order.key(a) == order.key(b))
                                == (reference(a) == reference(b)) == (a == b))

    def test_leading_term(self):
        p = P("x1^3 + x1*x2^3")
        assert p.leading(GREVLEX)[0] == (1, 3)
        q = P("x1^3 + x2")
        assert q.leading(GREVLEX)[0] == (3, 0)
        assert q.leading(ELIMINATE_LAST)[0] == (0, 1)
        with pytest.raises(ValueError):
            Polynomial.zero(2, Q).leading(GREVLEX)


# -- exact division ----------------------------------------------------------

def univariate_divmod(num, den):
    """Independent schoolbook long division on coefficient lists.

    Lists are little-endian Fractions.  Returns (quotient, remainder).
    """
    rem = list(num)
    quot = [Fraction(0)] * max(len(num) - len(den) + 1, 1)
    while len(rem) >= len(den) and any(rem):
        while rem and not rem[-1]:
            rem.pop()
        if len(rem) < len(den):
            break
        shift = len(rem) - len(den)
        factor = rem[-1] / den[-1]
        quot[shift] = factor
        for k, c in enumerate(den):
            rem[shift + k] -= factor * c
    while rem and not rem[-1]:
        rem.pop()
    return quot, rem


def from_coeffs(coeffs):
    return Polynomial(1, Q, {(k,): c for k, c in enumerate(coeffs)})


class TestDivideExact:
    def test_difference_of_squares(self):
        assert divide_exact(P("x1^2 - x2^2"), P("x1 + x2")) == P("x1 - x2")

    def test_inexact_returns_none(self):
        # Long-division oracle: (x^2 + 1) = (x + 1)(x - 1) + 2, remainder 2.
        quot, rem = univariate_divmod([Fraction(1), Fraction(0), Fraction(1)],
                                      [Fraction(1), Fraction(1)])
        assert rem == [Fraction(2)]
        assert divide_exact(P("x1^2 + 1", m=1), P("x1 + 1", m=1)) is None

    def test_exact_univariate_agrees_with_oracle(self):
        num = [Fraction(-1), Fraction(0), Fraction(0), Fraction(1)]   # x^3 - 1
        den = [Fraction(-1), Fraction(1)]                             # x - 1
        quot, rem = univariate_divmod(num, den)
        assert rem == []
        assert divide_exact(from_coeffs(num), from_coeffs(den)) \
            == from_coeffs(quot)

    def test_random_univariate_against_oracle(self):
        rng = random.Random(23)
        for _ in range(100):
            num = [Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(1, 6))]
            den = [Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(1, 4))]
            while den and not den[-1]:
                den.pop()
            if not den:
                continue
            quot, rem = univariate_divmod(num, den)
            got = divide_exact(from_coeffs(num), from_coeffs(den))
            if rem:
                assert got is None
            else:
                assert got == from_coeffs(quot)

    def test_product_roundtrip(self):
        rng = random.Random(31)
        for _ in range(60):
            field = rng.choice([Q, QI])
            p = random_polynomial(rng, 3, field, nonzero=True)
            q = random_polynomial(rng, 3, field, nonzero=True)
            assert divide_exact(p * q, q) == p

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            divide_exact(P("x1"), Polynomial.zero(2, Q))

    @given(st.data())
    @seed(20261021)
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_grevlex_division(self, data):
        # p = a*q + b with b often zero covers exact and inexact pairs
        field, m = data.draw(FIELDS), data.draw(st.integers(1, 4))
        a, b = data.draw(polynomials(field, m)), data.draw(polynomials(field, m))
        q = data.draw(polynomials(field, m, nonzero=True))
        assert divide_exact(a * q, q) == a
        for p in (a * q + b, b):
            assert divide_exact(p, q) == divide_exact_grevlex(p, q)

    def test_uses_no_monomial_order(self, monkeypatch):
        def refuse(order, exp):
            raise AssertionError("divide_exact consulted a monomial order")

        monkeypatch.setattr(MonomialOrder, "key", refuse)
        cases = [(P("x1^2 - x2^2"), P("x1 + x2"), P("x1 - x2")),
                 (P("x1^2 + 1"), P("x1 + 1"), None),
                 (P("x1^2 + x2^2", field=QI), P("x1 + i*x2", field=QI),
                  P("x1 - i*x2", field=QI))]
        for p, q, quotient in cases:
            assert divide_exact(p, q) == quotient


FIELDS = st.sampled_from([Q, QI])
FRACTIONS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


def polynomials(field: FieldTag, m: int, nonzero: bool = False):
    """Polynomials in x1..xm of at most four terms, exponents at most 3;
    over Q(i) the coefficients are Gaussian rationals."""
    coeffs = (st.builds(GaussianRational, FRACTIONS, FRACTIONS)
              if field is QI else FRACTIONS).filter(bool)
    exps = st.tuples(*[st.integers(0, 3)] * m)
    return st.dictionaries(exps, coeffs, min_size=int(nonzero), max_size=4).map(
        lambda terms: Polynomial(m, field, terms))


# -- Laurent polynomials -----------------------------------------------------

class TestLaurent:
    def test_reduction_on_construction(self):
        v = LaurentPolynomial(P("x1^2 + x1*x2"), (1, 0))
        assert v == L("x1 + x2")
        assert v.den == (0, 0)

    def test_zero_has_canonical_form(self):
        v = LaurentPolynomial(Polynomial.zero(2, Q), (3, 1))
        assert v.is_zero and v.den == (0, 0)

    def test_arithmetic(self):
        a = L("(x2 + 1)/x1")
        b = L("x2/x1")
        assert a - b == L("1/x1")
        assert a * L("x1") == L("x2 + 1")
        assert a / L("x1") == L("(x2 + 1)/x1^2")
        assert a + 1 == L("(x2 + 1 + x1)/x1")

    def test_unit_inverse(self):
        u = L("x1^2/x2")
        assert u.inverse() == L("x2/x1^2")
        assert u * u.inverse() == LaurentPolynomial.one(2, Q)
        with pytest.raises(ValueError):
            L("x1 + 1").inverse()
        with pytest.raises(ZeroDivisionError):
            LaurentPolynomial.zero(2, Q).inverse()

    def test_negative_powers_need_units(self):
        assert L("x1") ** -2 == L("1/x1^2")
        with pytest.raises(ValueError):
            L("x1 + 1") ** -1

    def test_exact_division_by_a_non_unit(self):
        num = L("x1^2 - 1") / L("x2")
        den = L("x1 - 1") / L("x2^2")
        assert num / den == L("(x1 + 1)*x2")
        assert L("x1^2*x2 + x1*x2^2") / L("x1 + x2") == L("x1*x2")

    def test_division_by_a_non_divisor(self):
        with pytest.raises(ValueError, match="x1 - 1 does not divide x2 \\+ 1"):
            L("(x2 + 1)/x1") / L("x1^2 - x1")
        with pytest.raises(ZeroDivisionError):
            L("x1 + 1") / LaurentPolynomial.zero(2, Q)
        with pytest.raises(ZeroDivisionError):
            L("x1 + 1") / 0

    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul,
                                    operator.truediv],
                             ids=["add", "sub", "mul", "truediv"])
    @pytest.mark.parametrize("other", [L("(x2 + 1)/x1", m=3),
                                       L("(x2 + 1)/x1", field=QI)],
                             ids=["m", "field"])
    def test_mixed_rings_are_refused(self, op, other):
        value = L("(x2 + 1)/x1")
        for a, b in ((value, other), (other, value)):
            with pytest.raises(ValueError, match="different ambient rings"):
                op(a, b)

    def test_polynomial_detection(self):
        assert L("x1 + x2").is_polynomial()
        assert not L("(x2 + 1)/x1").is_polynomial()

    def test_reduction_is_idempotent(self):
        rng = random.Random(41)
        for _ in range(60):
            v = random_laurent(rng, 3, Q)
            again = LaurentPolynomial(v.num, v.den)
            assert again.num == v.num and again.den == v.den

    @given(st.integers(0, 2 ** 32))
    @settings(max_examples=60, deadline=None)
    def test_field_axioms(self, seed):
        rng = random.Random(seed)
        a = random_laurent(rng, 2, Q)
        b = random_laurent(rng, 2, Q)
        c = random_laurent(rng, 2, Q)
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a - a == LaurentPolynomial.zero(2, Q)


# -- rendering and parsing ---------------------------------------------------

class TestRenderParse:
    def test_polynomial_render(self):
        assert render_polynomial(P("1 + x2")) == "x2 + 1"
        assert render_polynomial(P("x1^2 - 2*x2")) == "x1^2 - 2*x2"
        assert render_polynomial(Polynomial.zero(2, Q)) == "0"
        assert render_polynomial(P("-x1 + 1")) == "-x1 + 1"
        assert str(P("x1*x2^3")) == "x1*x2^3"

    def test_gaussian_render(self):
        assert render_polynomial(P("i*x2 + 1", field=QI)) == "i*x2 + 1"
        assert render_polynomial(P("(1 + 2*i)*x1", field=QI)) == "(1+2*i)*x1"
        assert render_polynomial(P("-i*x2", field=QI)) == "-i*x2"

    def test_laurent_render(self):
        assert render_laurent(L("(1 + x2)/x1")) == "(x2 + 1)/x1"
        assert render_laurent(L("x2/x1")) == "x2/x1"
        assert render_laurent(L("(1 + x1 + x2)/(x1*x2)")) == "(x1 + x2 + 1)/(x1*x2)"
        assert render_laurent(L("x1 + x2")) == "x1 + x2"

    def test_parse_render_roundtrip(self):
        rng = random.Random(53)
        for _ in range(120):
            field = rng.choice([Q, QI])
            v = random_laurent(rng, 3, field)
            assert parse_expression(render_laurent(v), 3, field) == v
            p = random_polynomial(rng, 3, field)
            assert parse_polynomial(render_polynomial(p), 3, field) == p

    def test_whitespace_and_parens(self):
        assert L("  ( x1+ x2 ) * x1 ") == L("x1^2 + x1*x2")
        assert L("-(x1 - x2)") == L("x2 - x1")

    def test_numeric_literals(self):
        assert P("3*x1/2", m=1) == Polynomial(1, Q, {(1,): Fraction(3, 2)})

    def test_error_positions(self):
        text = "x1 + + x2"
        with pytest.raises(ParseError) as err:
            parse_expression(text, 2, Q)
        second_plus = text.index("+", text.index("+") + 1)
        assert err.value.position == second_plus + 1

        with pytest.raises(ParseError) as err:
            parse_expression("x1 + i", 2, Q)
        assert err.value.position == "x1 + i".index("i") + 1
        assert "Qi" in str(err.value)

    def test_unknown_variable(self):
        with pytest.raises(ParseError) as err:
            parse_expression("x9", 2, Q)
        assert "x1..x2" in str(err.value)

    def test_division_restrictions(self):
        with pytest.raises(ParseError) as err:
            parse_expression("1/(1 + x1)", 2, Q)
        assert err.value.position == "1/(1 + x1)".index("/") + 1
        with pytest.raises(ParseError):
            parse_expression("1/0", 2, Q)
        # Dividing by a fraction that *reduces* to a single term is fine.
        assert L("x1/(x1*x2/x1)") == L("x1/x2")

    def test_nesting_depth(self):
        deep = "(" * MAX_NESTING + "x1" + ")" * MAX_NESTING
        assert L(deep) == L("x1")
        with pytest.raises(ParseError) as err:
            parse_expression("(" + deep + ")", 2, Q)
        assert err.value.position == MAX_NESTING + 1
        assert f"deeper than {MAX_NESTING}" in str(err.value)

    def test_power_bounds(self):
        # a power is refused at its '^' before anything is expanded
        for text in (f"x1^{MAX_EXPONENT + 1}", "(x1 + x2 + 1)^100"):
            with pytest.raises(ParseError) as err:
                parse_expression(text, 2, Q)
            assert err.value.position == text.index("^") + 1
        assert L(f"x1^{MAX_EXPONENT}") == L("x1") ** MAX_EXPONENT
        # C(t + k - 1, k) terms, exact for these bases: 5,151 for the
        # refused (x1 + x2 + 1)^100, 1,891 for (x1 + x2 + 1)^60
        assert len(L("(x1 + x2 + 1)^60").num.terms) == 1891 <= MAX_POWER_TERMS
        assert L("0^0") == L("1")

    @pytest.mark.parametrize("text, terms", [
        # t1 * t2 = 5 * 1000 terms, exactly the bound
        ("(x1 + 1)^4*(x2 + 1)^999", 5000),
        # 50 * 1275 term pairs, but only C(2 + 98, 2) = 4,950 monomials of
        # degree at most 98 in x1, x2 (the product has those of degree 49
        # to 98)
        ("(x1 + x2)^49*(x1 + x2 + 1)^49", 3725),
    ])
    def test_product_bound_admits(self, text, terms):
        assert len(L(text).num.terms) == terms <= MAX_POWER_TERMS

    @pytest.mark.parametrize("text", [
        "(x1 + 1)^4*(x2 + 1)^1000",        # 5 * 1001 = 5,005 terms
        "(x1 + x2)^49*(x1 + x2 + 1)^50",   # C(2 + 99, 2) = 5,050 monomials
        "x1*(x1 + x2 + 1)^60*(x1 + x2 + 1)^60",
    ])
    def test_product_bound_refuses_at_the_star(self, text):
        with pytest.raises(ParseError) as err:
            parse_expression(text, 2, Q)
        assert err.value.position == text.rindex("*") + 1
        assert f"more than {MAX_POWER_TERMS}" in str(err.value)

    @pytest.mark.parametrize("text, position", [
        ("9" * (MAX_DIGITS + 1), 1),
        ("x1^" + "9" * (MAX_DIGITS + 1), 4),
        ("x1 + x" + "1" * (MAX_DIGITS + 1), 6),
    ])
    def test_long_digit_runs_refused_with_position(self, text, position):
        with pytest.raises(ParseError) as err:
            parse_expression(text, 2, Q)
        assert err.value.position == position
        assert f"{MAX_DIGITS + 1} digits" in str(err.value)

    @pytest.mark.parametrize("text, operator, field", [
        ("9" * MAX_DIGITS + " + 1", "+", Q),           # 10^4300
        ("-" + "9" * MAX_DIGITS + " - 1", "- 1", Q),
        ("9" * 2200 + "*" + "9" * 2200, "*", Q),
        ("1/" + "9" * 2200 + " + 1/" + "9" * 2199 + "8", "+ 1/", Q),
        ("x1/(" + "9" * 2200 + " + i)", "/", FieldTag.QI),  # norm 10^4400
        ("(" + "9" * 1500 + "*x1 + 1)^3", "^", Q),
    ], ids=["sum", "difference", "product", "fraction_sum",
            "gaussian_quotient", "power"])
    def test_long_coefficients_refused_at_their_operator(self, text,
                                                         operator, field):
        with pytest.raises(ParseError) as err:
            parse_expression(text, 2, field)
        assert f"more than {MAX_DIGITS} digits" in str(err.value)
        assert err.value.position == text.index(operator) + 1

    def test_longest_coefficient_is_kept(self):
        value = L("9" * MAX_DIGITS + " + 0")
        assert str(value) == "9" * MAX_DIGITS

    def test_longest_digit_run_is_read(self):
        assert L("1" * MAX_DIGITS) == L("1" * MAX_DIGITS + "*1")

    def test_truncated_input(self):
        with pytest.raises(ParseError):
            parse_expression("x1 +", 2, Q)
        with pytest.raises(ParseError):
            parse_expression("(x1", 2, Q)
        with pytest.raises(ParseError):
            parse_expression("", 2, Q)

    def test_non_polynomial_rejected(self):
        with pytest.raises(ParseError):
            parse_polynomial("1/x1", 2, Q)

    def test_unexpected_character(self):
        with pytest.raises(ParseError) as err:
            parse_expression("x1 + y", 2, Q)
        assert err.value.position == "x1 + y".index("y") + 1

    def test_token_kinds_and_positions(self):
        assert _tokenize(" 12*x3 - (i)^2") == [
            ("int", "12", 2), ("op", "*", 4), ("var", "x3", 5),
            ("op", "-", 8), ("op", "(", 10), ("imag", "i", 11),
            ("op", ")", 12), ("op", "^", 13), ("int", "2", 14),
            ("end", "", 15)]


# -- exact powering and the coefficient representation ----------------------

def fraction_product(p: Polynomial, q: Polynomial) -> Polynomial:
    """Schoolbook product on the stored field elements, as an oracle."""
    out = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            exp = ev_add(e1, e2)
            out[exp] = out.get(exp, 0) + c1 * c2
    return Polynomial(p.m, p.field, out)


def fraction_divide(p: Polynomial, q: Polynomial):
    """Single-divisor grevlex division on the stored field elements, as an
    oracle: the quotient when the remainder is zero, else None."""
    key = GREVLEX.key
    q_exp = max(q.terms, key=key)
    rem, quot = dict(p.terms), {}
    while rem:
        exp = max(rem, key=key)
        if not ev_divides(q_exp, exp):
            return None
        shift = ev_sub(exp, q_exp)
        factor = rem[exp] * (Fraction(1) / q.terms[q_exp])
        quot[shift] = factor
        for e2, c2 in q.terms.items():
            tgt = ev_add(shift, e2)
            rem[tgt] = rem.get(tgt, 0) - factor * c2
            if not rem[tgt]:
                del rem[tgt]
    return Polynomial(p.m, p.field, quot)


def integral_polynomial(rng: random.Random, m: int, max_terms: int = 4,
                        nonzero: bool = False) -> Polynomial:
    terms = {tuple(rng.randint(0, 3) for _ in range(m)): rng.randint(-6, 6)
             for _ in range(rng.randint(1 if nonzero else 0, max_terms))}
    p = Polynomial(m, Q, terms)
    return Polynomial.one(m, Q) if nonzero and p.is_zero else p


def canonical(p: Polynomial) -> bool:
    """Integral coefficients are ints, the others Fractions."""
    return all(type(c) is (int if c.denominator == 1 else Fraction)
               for c in p.terms.values())


class CountingMul:
    """Counts Polynomial.__mul__ calls while installed with monkeypatch."""

    def __init__(self, monkeypatch):
        self.calls = 0
        original = Polynomial.__mul__

        def counted(a, b):
            self.calls += 1
            return original(a, b)

        monkeypatch.setattr(Polynomial, "__mul__", counted)
        monkeypatch.setattr(Polynomial, "__rmul__", counted)


class TestPowerAndIntegerKernel:
    @given(st.integers(0, 2 ** 32))
    @seed(20261018)
    @settings(max_examples=40, deadline=None)
    def test_power_is_the_k_fold_product(self, rng_seed):
        rng = random.Random(rng_seed)
        for field in (Q, QI):
            p = random_polynomial(rng, 2, field)
            expected = Polynomial.one(2, field)
            for k in range(7):
                assert p ** k == expected, (p, k)
                expected = fraction_product(expected, p)

    @pytest.mark.parametrize("field", [Q, QI])
    def test_first_power_multiplies_nothing(self, monkeypatch, field):
        p = P("x1 + 2*x2 + 1", field=field)
        v = L("(x1 + 2*x2 + 1)/x2", field=field)
        counter = CountingMul(monkeypatch)
        assert p ** 1 is p
        assert v ** 1 is v
        assert counter.calls == 0

    @pytest.mark.parametrize("k, products", [(2, 1), (3, 2), (4, 2), (5, 3),
                                             (6, 3), (8, 3)])
    def test_power_squares_only_while_bits_remain(self, monkeypatch, k, products):
        # k has bit_length(k) - 1 squarings and popcount(k) - 1 multiplies
        p = P("x1 + x2 + 1")
        counter = CountingMul(monkeypatch)
        p ** k
        assert counter.calls == products

    @given(st.integers(0, 2 ** 32))
    @seed(20261018)
    @settings(max_examples=60, deadline=None)
    def test_kernel_agrees_with_fraction_path(self, rng_seed):
        rng = random.Random(rng_seed)

        def operand(kind, nonzero=False):
            if kind == "int":
                return integral_polynomial(rng, 3, nonzero=nonzero)
            return random_polynomial(rng, 3, Q, nonzero=nonzero)

        for kinds in (("int", "int"), ("int", "frac"), ("frac", "int"),
                      ("frac", "frac")):
            p, q = operand(kinds[0]), operand(kinds[1], nonzero=True)
            product = p * q
            assert product == fraction_product(p, q)
            assert canonical(product)
            for num in (product, product + P("x1 + 1", m=3), p):
                got = divide_exact(num, q)
                assert got == fraction_divide(num, q)
                assert got is None or canonical(got)

    @given(st.integers(0, 2 ** 32))
    @seed(20261018)
    @settings(max_examples=40, deadline=None)
    def test_integral_operands_with_fractional_quotient(self, rng_seed):
        # p = q0 * g and q = d * q0 are integral, but p / q = g / d is not,
        # so the quotient mixes ints and Fractions
        rng = random.Random(rng_seed)
        q0 = integral_polynomial(rng, 2, nonzero=True)
        g = integral_polynomial(rng, 2, nonzero=True)
        d = rng.randint(2, 3)
        got = divide_exact(q0 * g, q0 * d)
        assert got == g * Fraction(1, d)
        assert canonical(got)

    def test_handover_after_an_integral_step(self):
        # (2x^2 + 3x + 1) / (2x + 2): the first quotient term x is integral,
        # the second, 1/2, is not
        got = divide_exact(P("2*x1^2 + 3*x1 + 1", m=1), P("2*x1 + 2", m=1))
        assert got == P("x1", m=1) + Fraction(1, 2)
        assert canonical(got) and type(got.terms[(1,)]) is int

    def test_non_unit_leading_coefficient(self):
        got = divide_exact(P("x1 + 1"), P("2*x1 + 2"))
        assert got == Polynomial.constant(Fraction(1, 2), 2, Q)
        assert canonical(got)
        assert divide_exact(P("x1 + 1"), P("2*x1 + 1")) is None

    def test_stored_coefficients_are_ints(self):
        p, q = P("x1 + 2*x2 - 3"), P("x1 - x2 + 1")
        for result in (p * q, p ** 3, divide_exact(p * q, q),
                       (L("(x1 + 1)/x2") ** 2).num):
            assert result.terms
            assert all(type(c) is int for c in result.terms.values())
        assert hash(p * q) == hash(fraction_product(p, q))
