"""Exact scalar arithmetic: Fraction-backed rationals and Gaussian rationals."""
from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterufd.fields import FieldTag, GaussianRational, power
from clusterufd.poly import Polynomial

HALF = Fraction(1, 2)
I = GaussianRational(0, 1)


def gaussian(re_num, re_den, im_num, im_den):
    return GaussianRational(Fraction(re_num, re_den), Fraction(im_num, im_den))


def conjugate(value):
    """Complex conjugation; the identity on rationals."""
    if isinstance(value, GaussianRational):
        return GaussianRational(value.re, -value.im)
    return value


gaussians = st.builds(
    GaussianRational,
    st.fractions(min_value=-10 ** 6, max_value=10 ** 6, max_denominator=10 ** 4),
    st.fractions(min_value=-10 ** 6, max_value=10 ** 6, max_denominator=10 ** 4),
)


class TestGaussianRational:
    def test_known_values(self):
        assert GaussianRational(HALF, 0) + GaussianRational(Fraction(1, 3), 0) \
            == GaussianRational(Fraction(5, 6), 0)
        assert (1 + I) * (1 - I) == GaussianRational(2, 0)
        assert I * I == GaussianRational(-1, 0)
        assert I ** 4 == GaussianRational(1, 0)
        assert (1 + I) / (1 - I) == I
        assert (2 + 3 * I) * (2 - 3 * I) == GaussianRational(13, 0)

    def test_division_inverts_multiplication(self):
        a = gaussian(3, 4, -2, 5)
        b = gaussian(-1, 7, 6, 1)
        assert (a * b) / b == a
        assert a / a == GaussianRational(1, 0)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            (1 + I) / GaussianRational(0, 0)

    def test_pow(self):
        a = 1 + I
        assert a ** 0 == GaussianRational(1, 0)
        assert a ** 2 == 2 * I
        assert a ** 8 == GaussianRational(16, 0)
        assert a ** -2 == GaussianRational(0, -HALF)
        with pytest.raises(ZeroDivisionError):
            GaussianRational(0, 0) ** -1

    def test_equality_across_types(self):
        assert GaussianRational(HALF, 0) == HALF
        assert GaussianRational(3, 0) == 3
        assert GaussianRational(3, 1) != 3
        assert hash(GaussianRational(HALF, 0)) == hash(HALF)
        assert hash(GaussianRational(7, 0)) == hash(7)

    def test_big_integers_stay_exact(self):
        big = 2 ** 300 + 1
        a = GaussianRational(Fraction(big, 3), 0)
        assert a * 3 == big
        assert a - a == 0

    def test_parts_must_be_exact(self):
        for bad in (0.1, True, None):
            with pytest.raises(TypeError):
                GaussianRational(bad)
            with pytest.raises(TypeError):
                GaussianRational(1, bad)
        a = GaussianRational(Fraction(4, 2), Fraction(3, 6))
        assert type(a.re) is int and type(a.im) is Fraction

    def test_real_results_are_canonical_rationals(self):
        assert type(I * I) is int and I * I == -1
        assert type((1 + I) * (1 - I)) is int
        assert type((1 + I) / (1 + I)) is int
        assert type((1 + I) ** 0) is int
        assert type(I ** 4) is int
        assert type((HALF + I) - I) is Fraction
        assert type(-GaussianRational(HALF, 0)) is Fraction
        assert type(GaussianRational(3, 1) + GaussianRational(Fraction(1, 3), -1)) \
            is Fraction
        assert type(2 / (1 + I)) is GaussianRational
        assert (2 / (1 + I)) == 1 - I

    def test_str_forms(self):
        assert str(GaussianRational(HALF, 0)) == "1/2"
        assert str(I) == "i"
        assert str(-I) == "-i"
        assert str(2 * I) == "2*i"
        assert str(1 + 2 * I) == "1+2*i"
        assert str(1 - I) == "1-i"
        assert str(gaussian(-1, 2, -1, 3)) == "-1/2-1/3*i"

    def test_immutable(self):
        with pytest.raises(AttributeError):
            I.re = Fraction(1)

    @given(gaussians, gaussians, gaussians)
    @settings(max_examples=200, deadline=None)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        assert a + (-a) == GaussianRational(0, 0)

    @given(gaussians, gaussians)
    @settings(max_examples=200, deadline=None)
    def test_field_inverse(self, a, b):
        if b:
            assert (a / b) * b == a

    @given(gaussians)
    @settings(max_examples=200, deadline=None)
    def test_conjugate_is_ring_map(self, a):
        b = gaussian(1, 3, -2, 5)
        assert conjugate(a + b) == conjugate(a) + conjugate(b)
        assert conjugate(a * b) == conjugate(a) * conjugate(b)


class TestPower:
    """``power`` is the one repeated-squaring loop behind ``**`` of both
    Gaussian rationals and polynomials."""

    def test_powers_equal_repeated_products(self):
        x1 = Polynomial.variable(1, 2, FieldTag.QI)
        cases = [(gaussian(1, 2, -2, 3), 1),
                 (x1 + 1, Polynomial.one(2, FieldTag.QI)),
                 (x1 + I, Polynomial.one(2, FieldTag.QI))]
        for base, product in cases:
            for k in range(41):
                assert base ** k == product, k
                product = product * base

    def test_multiplication_count(self):
        class Counted:
            calls = 0

            def __init__(self, value):
                self.value = value

            def __mul__(self, other):
                Counted.calls += 1
                return Counted(self.value * other.value)

        for k in range(1, 41):
            Counted.calls = 0
            assert power(Counted(3), k).value == 3 ** k
            assert Counted.calls == k.bit_length() - 1 + k.bit_count() - 1


class TestFieldTag:
    def test_constants(self):
        assert FieldTag.QI.imaginary_unit() == I
        with pytest.raises(ValueError):
            FieldTag.Q.imaginary_unit()

    def test_coerce(self):
        # over Q, integral values are ints and the others Fractions
        assert FieldTag.Q.coerce(5) == 5
        assert type(FieldTag.Q.coerce(5)) is int
        assert type(FieldTag.Q.coerce(Fraction(10, 2))) is int
        assert type(FieldTag.Q.coerce(GaussianRational(4, 0))) is int
        assert type(FieldTag.Q.coerce(HALF)) is Fraction
        assert FieldTag.QI.coerce(HALF) == GaussianRational(HALF, 0)
        with pytest.raises(ValueError):
            FieldTag.Q.coerce(I)
        with pytest.raises(TypeError):
            FieldTag.Q.coerce(0.5)

    def test_qi_stores_real_values_as_over_q(self):
        assert type(FieldTag.QI.coerce(5)) is int
        assert type(FieldTag.QI.coerce(Fraction(10, 2))) is int
        assert type(FieldTag.QI.coerce(GaussianRational(4, 0))) is int
        assert type(FieldTag.QI.coerce(GaussianRational(HALF, 0))) is Fraction
        assert type(FieldTag.QI.coerce(I)) is GaussianRational
        assert type(FieldTag.QI.div(Fraction(4), 2)) is int
        assert type(FieldTag.QI.div(3, 6)) is Fraction
        assert type(FieldTag.QI.div(2 * I, I)) is int
        assert FieldTag.QI.div(1, I) == -I
        with pytest.raises(TypeError):
            FieldTag.QI.coerce(0.5)

    def test_integer_scalar_detection(self):
        # "Integer" means a plain rational integer: honest mutation arithmetic
        # never produces imaginary or fractional coefficients, even over Qi.
        assert FieldTag.Q.is_integer_scalar(Fraction(4))
        assert not FieldTag.Q.is_integer_scalar(HALF)
        assert FieldTag.QI.is_integer_scalar(GaussianRational(4, 0))
        assert not FieldTag.QI.is_integer_scalar(GaussianRational(4, -2))
        assert not FieldTag.QI.is_integer_scalar(GaussianRational(HALF, 0))
