"""The coefficient representation: a rational coefficient is an int when it
is integral and a Fraction otherwise, over Q and over Q(i) alike; over Q(i)
a non-real coefficient is a GaussianRational whose parts follow the same
rule; never a float or a bool."""
from __future__ import annotations

import ast
import contextlib
import io
import os
import random
from fractions import Fraction

from hypothesis import given, seed, settings
from hypothesis import strategies as st

import clusterufd
from conftest import random_laurent, random_polynomial
from clusterufd import cli
from clusterufd.cluster import (builtin_matrix, builtin_seed,
                                enumerate_cluster_variables)
from clusterufd.factoriality import ExchangeIdeals, conjecture_sweep
from clusterufd.fields import FieldTag, GaussianRational
from clusterufd.groebner import buchberger, normal_form
from clusterufd.parse import parse_expression
from clusterufd.poly import GREVLEX, LaurentPolynomial, Polynomial, divide_exact
from test_golden import RECORD

Q = FieldTag.Q
QI = FieldTag.QI


def exact(c, field: FieldTag) -> bool:
    """Stored as the field stores its elements: never a float or a bool.
    Over Q(i) a real value is stored as over Q, and only a non-real one is
    a GaussianRational."""
    if field is QI and type(c) is GaussianRational:
        return bool(c.im) and type(c.re) in (int, Fraction) \
            and type(c.im) in (int, Fraction)
    return type(c) in (int, Fraction)


def _canonical_rational(c) -> bool:
    return type(c) is (int if c.denominator == 1 else Fraction)


def canonical(c, field: FieldTag) -> bool:
    """An int exactly when integral, else a Fraction; over Q(i) a non-real
    value is a GaussianRational with parts of that form."""
    if field is QI and type(c) is GaussianRational:
        return exact(c, field) and _canonical_rational(c.re) \
            and _canonical_rational(c.im)
    return _canonical_rational(c)


def coefficients(value):
    if isinstance(value, LaurentPolynomial):
        value = value.num
    return list(value.terms.values())


def integral_polynomial(rng: random.Random, m: int, field: FieldTag,
                        nonzero: bool = False) -> Polynomial:
    def scalar():
        if field is QI:
            return GaussianRational(rng.randint(-4, 4), rng.randint(-4, 4))
        return rng.randint(-6, 6)

    terms = {tuple(rng.randint(0, 3) for _ in range(m)): scalar()
             for _ in range(rng.randint(1 if nonzero else 0, 4))}
    p = Polynomial(m, field, terms)
    return Polynomial.one(m, field) if nonzero and p.is_zero else p


def unit(rng: random.Random, m: int, field: FieldTag) -> LaurentPolynomial:
    """A random single-term Laurent polynomial with a nonzero coefficient."""
    c = 0
    while not c:
        c = field.coerce(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
    exp = tuple(rng.randint(0, 2) for _ in range(m))
    den = tuple(rng.randint(0, 2) for _ in range(m))
    return LaurentPolynomial(Polynomial.monomial(c, exp, m, field), den)


class TestRepresentation:
    @given(st.integers(0, 2 ** 32))
    @seed(20261018)
    @settings(max_examples=40, deadline=None)
    def test_every_operation_keeps_the_representation(self, rng_seed):
        rng = random.Random(rng_seed)
        for field in (Q, QI):
            p = random_polynomial(rng, 3, field)
            q = random_polynomial(rng, 3, field, nonzero=True)
            a = integral_polynomial(rng, 3, field)
            b = integral_polynomial(rng, 3, field, nonzero=True)
            u, v = random_laurent(rng, 3, field), unit(rng, 3, field)

            products = [p * q, p ** 3, a * b, a ** 3]
            quotients = [divide_exact(n, d) for n, d in
                         ((p * q, q), (a * b, b), (a * b, q), (p, b), (a, b))]
            assert quotients[0] == p
            assert quotients[1] == a
            # a small ideal in two variables, so the basis stays cheap
            g1 = random_polynomial(rng, 2, field, max_terms=3, max_exp=2,
                                   nonzero=True)
            g2 = integral_polynomial(rng, 2, field, nonzero=True)
            basis = buchberger([g1, g2], GREVLEX)
            laurent = [u / v, v.inverse(), parse_expression(str(u), 3, field),
                       parse_expression(f"({u}) / ({v})", 3, field)]
            assert laurent[2] == u and laurent[3] == laurent[0]
            # exact division by a non-unit, with and without denominators
            nonunit = b + Polynomial.monomial(1, (4, 0, 0), 3, field)
            w = LaurentPolynomial(nonunit, (0, 0, 0)) * v
            laurent_quotients = [LaurentPolynomial(a * nonunit, (0, 0, 0))
                                 / LaurentPolynomial(nonunit, (0, 0, 0)),
                                 (u * w) / w]
            assert laurent_quotients[0] == LaurentPolynomial(a, (0, 0, 0))
            assert laurent_quotients[1] == u
            others = [*basis, normal_form(g1 * g2 + g1 + 1, basis)]

            exact_quotients = [r for r in quotients if r is not None]
            for value in products + exact_quotients + laurent + others:
                assert all(exact(c, field) for c in coefficients(value)), value
            for value in products + exact_quotients + laurent_quotients:
                assert all(canonical(c, field)
                           for c in coefficients(value)), value
            if field is Q:
                # integral operands, integral results: plain ints throughout
                for value in (a * b, a ** 3, quotients[1], laurent_quotients[0]):
                    assert all(type(c) is int
                               for c in coefficients(value)), value

    def test_cluster_variables_have_int_coefficients(self):
        result = enumerate_cluster_variables(builtin_seed("A:6"))
        assert result.complete and result.count == 27
        for variable in result.variables:
            assert all(type(c) is int
                       for c in coefficients(variable)), variable


def typed_terms(terms: dict) -> list:
    """The (exponent, coefficient, coefficient type) triples of a term dict,
    in its order."""
    return [(e, c, type(c)) for e, c in terms.items()]


class TestRealCoefficientsOverQi:
    """Over Q(i), a polynomial with rational coefficients is stored and
    computed with exactly as over Q."""

    @given(st.integers(0, 2 ** 32))
    @seed(20261019)
    @settings(max_examples=40, deadline=None)
    def test_buchberger_agrees_across_fields(self, rng_seed):
        rng = random.Random(rng_seed)
        gens = [{tuple(rng.randint(0, 2) for _ in range(3)): rng.randint(-5, 5)
                 for _ in range(rng.randint(1, 3))}
                for _ in range(rng.randint(1, 3))]
        bases = {}
        for field in (Q, QI):
            polys = [Polynomial(3, field, terms) for terms in gens]
            if all(p.is_zero for p in polys):
                return
            bases[field] = buchberger(polys, GREVLEX)
        assert ([typed_terms(g.terms) for g in bases[Q]]
                == [typed_terms(g.terms) for g in bases[QI]])

    def test_conjecture_sweep_agrees_across_fields(self):
        def outcomes(name, field):
            return [(o.status, o.multi_index, o.detail,
                     None if o.witness is None else typed_terms(o.witness.terms))
                    for o in conjecture_sweep(
                        ExchangeIdeals(builtin_matrix(name), field), 3)]

        for name in ("A:3", "A:4", "D:4"):
            assert outcomes(name, Q) == outcomes(name, QI), name

    def test_rational_verdict_builds_no_gaussian_rational(self, monkeypatch):
        argv = ["verdict", "--builtin", "A:4", "--field", "Qi", "--bound", "3"]
        golden = next(c for c in RECORD["cases"] if c["argv"] == argv)
        built = []
        init = GaussianRational.__init__

        def counting_init(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(GaussianRational, "__init__", counting_init)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv + ["--json"])
        assert (code, out.getvalue()) == (golden["exit"], golden["stdout"])
        assert built == []


# -- where a coefficient may be divided ---------------------------------------

SRC_DIR = os.path.dirname(os.path.abspath(clusterufd.__file__))

# Every other coefficient division goes through FieldTag.div, since
# ``int / int`` gives a float and Polynomial._raw does not coerce.
# The ``/`` of ``Seed.mutate``, ``LaurentPolynomial.inverse`` and
# ``_Parser.term`` divides Laurent polynomials, not coefficients.
DIVISION_ALLOWED = {
    "cluster.Seed.mutate",
    "cluster.find_skew_symmetrizer",
    "fields.FieldTag.div",
    "parse._Parser.term",
    "poly.LaurentPolynomial.inverse",
}


def functions_with_true_division() -> set[str]:
    """Qualified names (module.Class.function) of the package's functions
    whose own body holds a ``/`` or ``/=``."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if (isinstance(child, (ast.BinOp, ast.AugAssign))
                    and isinstance(child.op, ast.Div)):
                found.add(".".join(scope))
            visit(child, scope)

    for name in sorted(os.listdir(SRC_DIR)):
        if name.endswith(".py"):
            with open(os.path.join(SRC_DIR, name), encoding="utf-8") as fh:
                visit(ast.parse(fh.read()), (name[:-3],))
    return found


def test_true_division_only_where_allowed():
    assert functions_with_true_division() == DIVISION_ALLOWED
