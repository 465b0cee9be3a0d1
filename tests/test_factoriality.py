"""Power membership, irreducibility, certificates, and the verdict pipeline."""
from __future__ import annotations

import random
import time
from itertools import combinations
from math import prod

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from conftest import random_acyclic_seed, random_polynomial
from oracles import (RowsOracle, certificate_entries, ideal_membership,
                     power_membership_linear)
from clusterufd import factoriality
from clusterufd.cluster import ExchangeMatrix, builtin_matrix
from clusterufd.fields import FieldTag
from clusterufd.groebner import normal_form
from clusterufd.parse import parse_expression, parse_polynomial
from clusterufd.poly import GREVLEX, Polynomial, divide_exact
from clusterufd.factoriality import (
    MAX_CERTIFICATE_N,
    CoincidentExchangePolynomials,
    ConjectureOutcome,
    ExchangeIdeals,
    FreeIndex,
    FreeVariable,
    Inconclusive,
    NotUFD,
    ReducibleExchangePolynomial,
    SinkSourceSplit,
    SupportCertificate,
    UFD,
    Uncertified,
    algebra_membership,
    binomial_irreducible,
    binomial_witness_factors,
    brute_force_factor,
    certify,
    conjecture_check,
    conjecture_sweep,
    gate,
    necessary_conditions,
    inductive_prover,
    multi_indices_of_weight,
    normal_form_element,
    ufd_verdict,
)

Q = FieldTag.Q
QI = FieldTag.QI

STUCK_ROWS = [[0, 2, 0, 0], [-2, 0, 2, 0], [0, -2, 0, 2], [0, 0, -2, 0]]


def ideals_for(name: str, field: FieldTag = Q) -> ExchangeIdeals:
    return ExchangeIdeals(builtin_matrix(name), field)


def P(text: str, m: int, field: FieldTag = Q) -> Polynomial:
    return parse_polynomial(text, m, field)


# -- membership in powers of exchange ideals ---------------------------------

class TestPowerMembership:
    def test_rank2_valuations(self):
        ideals = ideals_for("A:2")
        x1 = P("x1", 2)
        f1 = P("1 + x2", 2)
        assert ideals.valuation(x1, 1) == 1
        assert ideals.valuation(f1, 1) == 1
        assert ideals.valuation(x1 * f1 ** 2, 1) == 3
        assert ideals.valuation(f1, 2) == 0
        assert ideals.normal_monomial(P("1 + x1 + x2", 2)) == (1, 1)

    def test_coincident_f_has_two_valuations(self):
        # On the path with three vertices f_1 = f_3 = x2 + 1, so that single
        # polynomial lies in both end ideals at once.
        ideals = ideals_for("A:3")
        assert ideals.normal_monomial(P("1 + x2", 3)) == (1, 0, 1)
        assert ideals.normal_monomial(P("x1 + x3", 3)) == (0, 1, 0)

    def test_trivial_cases(self):
        ideals = ideals_for("A:2")
        assert ideals.power_membership(P("x1", 2), 1, 0)
        assert ideals.power_membership(Polynomial.zero(2, Q), 1, 5)
        with pytest.raises(ValueError):
            ideals.power_membership(P("x1", 2), 1, -1)
        with pytest.raises(ValueError):
            ideals.power_membership(P("x1", 2), 3, 1)
        with pytest.raises(ValueError):
            ideals.valuation(Polynomial.zero(2, Q), 1)

    def test_valuation_additive_on_examples(self):
        ideals = ideals_for("A:2")
        p = P("x1 + x1*x2", 2)        # x1(1 + x2): valuation 2 at i = 1
        q = P("1 + x1 + x2", 2)
        assert ideals.valuation(p, 1) == 2
        assert ideals.valuation(p * q, 1) \
            == ideals.valuation(p, 1) + ideals.valuation(q, 1)

    def test_agrees_with_groebner_membership(self):
        rng = random.Random(127)
        for name in ("A:2", "A:3"):
            ideals = ideals_for(name)
            for _ in range(40):
                p = random_polynomial(rng, ideals.m, Q, max_terms=3, max_exp=2)
                i = rng.randint(1, ideals.n)
                a = rng.randint(1, 3)
                direct = ideals.power_membership(p, i, a)
                via_gb = p.is_zero or ideal_membership(p, ideals.power_ideal(i, a))
                assert direct == via_gb, (name, str(p), i, a)

    def test_agrees_with_linear_expansion(self):
        rng = random.Random(131)
        ideals = ideals_for("A:3")
        # f_2 = x1 + x3 exposes both linear variables as expansion pivots.
        for _ in range(40):
            p = random_polynomial(rng, 3, Q, max_terms=3, max_exp=2)
            a = rng.randint(1, 3)
            direct = ideals.power_membership(p, 2, a)
            for k in (1, 3):
                assert power_membership_linear(ideals, p, 2, a, k) == direct

    def test_linear_expansion_needs_linear_variable(self):
        ideals = ideals_for("rank2:2,3")
        with pytest.raises(ValueError):
            power_membership_linear(ideals, P("x1", 2), 1, 1, 2)

    def test_f_power_cached(self):
        ideals = ideals_for("A:2")
        assert ideals.f_power(1, 3) is ideals.f_power(1, 3)
        assert ideals.power_ideal(1, 2) is ideals.power_ideal(1, 2)

    def test_power_ideal_generators(self):
        ideals = ideals_for("A:2")
        gens = ideals.power_ideal(1, 2).generators
        assert set(map(str, gens)) \
            == {"x1^2", "x1*x2 + x1", "x2^2 + 2*x2 + 1"}


# -- irreducibility ----------------------------------------------------------

class TestBinomialCriterion:
    def test_small_cases(self):
        assert binomial_irreducible(P("x1 + x2", 2)) is True
        assert binomial_irreducible(P("1 + x2", 2)) is True
        assert binomial_irreducible(P("x1^2 + x2^2", 2)) is True
        assert binomial_irreducible(P("x1^3 + x2^3", 2)) is False
        assert binomial_irreducible(P("x1^4 + x2^4", 2)) is True
        assert binomial_irreducible(P("x1^6 + x2^10", 2)) is True

    def test_gaussian_rationals_differ(self):
        assert binomial_irreducible(P("x1^2 + x2^2", 2, QI)) is False
        assert binomial_irreducible(P("x1 + x2", 2, QI)) is True
        assert binomial_irreducible(P("1 + x2^2", 2, QI)) is False

    def test_shared_variable_reducible(self):
        assert binomial_irreducible(P("x1*x2 + x1", 2)) is False

    def test_non_binomials_give_no_answer(self):
        assert binomial_irreducible(P("x1 + x2 + 1", 2)) is None
        assert binomial_irreducible(P("2*x1 + x2", 2)) is None
        assert binomial_irreducible(P("x1", 2)) is None
        assert binomial_irreducible(P("x1 - x2", 2)) is None

    def test_witness_factors_multiply_back(self):
        for text, field in [
            ("x1^3 + x2^3", Q),
            ("x1^6 + x2^6", Q),
            ("x1*x2 + x1", Q),
            ("x1^2 + x2^2", QI),
            ("1 + x2^2", QI),
            ("x1^2*x2^2 + x3^4", QI),
        ]:
            f = P(text, 3, field)
            g, h = binomial_witness_factors(f)
            assert g * h == f
            assert g.total_degree() >= 1 and h.total_degree() >= 1

    def test_no_witness_for_irreducible(self):
        assert binomial_witness_factors(P("x1 + x2", 2)) is None
        assert binomial_witness_factors(P("x1^4 + x2^4", 2)) is None


class TestBruteForce:
    def test_cyclotomic_split(self):
        factors = brute_force_factor(P("1 + x2^3", 2))
        assert [str(g) for g in factors] == ["x2 + 1", "x2^2 - x2 + 1"]

    def test_gaussian_split(self):
        g, h = brute_force_factor(P("1 + x2^2", 2, QI))
        assert g * h == P("1 + x2^2", 2, QI)

    # Three or more irreducible factors and a non-unit content: each factor
    # normalized, repeated by its multiplicity and sorted by (degree, str);
    # the content is the unit the oracle reads off the leading coefficients.
    @pytest.mark.parametrize("text, field, factors", [
        ("2*(x2 + 1)*(x3 + 3)*(x2*x3 + 5)", Q,
         ["1/3*x3 + 1", "x2 + 1", "1/5*x2*x3 + 1"]),
        ("-3*(x1 + x2)^2*(x1 - 2*x3 + 1)", Q,
         ["x1 + x2", "x1 + x2", "x1 - 2*x3 + 1"]),
        ("(x2 + i)*(x3 + 2)*(x2 + x3 + 1)", QI,
         ["-i*x2 + 1", "1/2*x3 + 1", "x2 + x3 + 1"]),
        ("(1 + i)*(x1 - i)*(x2 + i)*(x3 + 1)", QI,
         ["-i*x2 + 1", "i*x1 + 1", "x3 + 1"]),
    ])
    def test_pair_is_pinned(self, text, field, factors):
        assert [str(p) for p in brute_force_factor(P(text, 3, field))] == factors

    def test_irreducible_input(self):
        assert brute_force_factor(P("1 + x1 + x2", 2)) == (P("1 + x1 + x2", 2),)

    @pytest.mark.parametrize("answer", [
        [("x1^2 + x2^2 + 2", 1)],           # one factor, not the input
        [("x1^2 + x2^2 + 1", 2)],           # the input, with multiplicity 2
        [],                                 # no factor at all
    ])
    def test_answer_that_does_not_multiply_back(self, monkeypatch, answer):
        import sympy
        x = sympy.symbols("x1:3")

        def garbled(poly, *args, **kwargs):
            return 1, [(sympy.Poly(text, *x, domain="QQ"), mult)
                       for text, mult in answer]

        monkeypatch.setattr(sympy.Poly, "factor_list", garbled)
        with pytest.raises(factoriality.ConsistencyError):
            brute_force_factor(P("x1^2 + x2^2 + 1", 2))

    def test_degree_one_input_still_reaches_sympy(self, monkeypatch):
        # the degree-one lemma lives in normal_form_element, not here, so
        # the oracle stays an independent check of it
        import sympy
        calls = []
        factor_list = sympy.Poly.factor_list

        def counted(poly, *args, **kwargs):
            calls.append(poly)
            return factor_list(poly, *args, **kwargs)

        monkeypatch.setattr(sympy.Poly, "factor_list", counted)
        factors = brute_force_factor(P("1 + x1 + x2", 2))
        assert len(calls) == 1
        assert len(factors) == 1

    def test_degree_cap(self):
        assert brute_force_factor(P("1 + x1 + x1^2*x2^13", 2), max_degree=12) is None

    def test_factors_are_verified_products(self):
        rng = random.Random(137)
        for _ in range(15):
            g = random_polynomial(rng, 2, Q, max_terms=3, max_exp=2, nonzero=True)
            h = random_polynomial(rng, 2, Q, max_terms=3, max_exp=2, nonzero=True)
            product = g * h
            if product.total_degree() < 2 or product.min_exponents() != (0, 0):
                continue
            factors = brute_force_factor(product)
            assert all(factor.total_degree() >= 1 for factor in factors)
            back = prod(factors, start=Polynomial.one(2, Q))
            # equal up to the unit that the leading coefficients give
            assert (product * back.leading(GREVLEX)[1]
                    == back * product.leading(GREVLEX)[1])
            if g.total_degree() >= 1 and h.total_degree() >= 1:
                assert len(factors) >= 2


def strip_content(f: Polynomial) -> Polynomial:
    """f divided by its monomial content."""
    return divide_exact(f, Polynomial.monomial(1, f.min_exponents(), f.m, f.field))


class TestLinearIrreducible:
    @pytest.mark.parametrize("text, field, fires", [
        ("x1*x3 + x1", Q, False),           # monomial content x1
        ("1 + x1 + x2 + x1*x2", Q, False),  # a and b have two terms each
        ("x1*x2 + x1 + x2", Q, True),
        ("x1^2 + x2", Q, True),
        ("i*x1 + 1", QI, True),
    ])
    def test_edge_cases(self, text, field, fires):
        assert factoriality._linear_irreducible(P(text, 3, field)) is fires

    # fewer draws over Q(i), where sympy factors far more slowly
    @pytest.mark.parametrize("field, draws", [(Q, 300), (QI, 60)])
    def test_agrees_with_the_oracle_wherever_it_fires(self, field, draws):
        rng = random.Random(17)
        fired = 0
        for _ in range(draws):
            f = strip_content(random_polynomial(rng, 3, field, max_terms=4,
                                                max_exp=2, nonzero=True))
            if f.total_degree() < 1 or not factoriality._linear_irreducible(f):
                continue
            fired += 1
            assert len(brute_force_factor(f)) == 1, str(f)
        assert fired >= draws // 3

    @pytest.mark.parametrize("field", [Q, QI])
    def test_never_fires_on_a_product(self, field):
        rng = random.Random(23)
        candidates = 0
        for _ in range(600):
            g, h = (strip_content(random_polynomial(rng, 3, field, max_terms=3,
                                                    max_exp=2, nonzero=True))
                    for _ in range(2))
            if g.total_degree() < 1 or h.total_degree() < 1:
                continue
            f = g * h
            # content-free factors give a content-free product, so the
            # lemma's content check is not what turns these down
            assert not any(f.min_exponents())
            candidates += any(f.degree_in(k) == 1 for k in (1, 2, 3))
            assert not factoriality._linear_irreducible(f), f"({g}) * ({h})"
        assert candidates >= 50


# -- necessary conditions ----------------------------------------------------

class TestNecessaryConditions:
    def test_path_with_three_vertices(self):
        witness = necessary_conditions(ideals_for("A:3"))
        assert isinstance(witness, CoincidentExchangePolynomials)
        assert (witness.i, witness.j) == (1, 3)
        assert str(witness.value) == "x2 + 1"
        assert str(witness) == "f_1 = f_3 = x2 + 1"

    def test_branching_coincidences(self):
        witness = necessary_conditions(ideals_for("D:4"))
        assert isinstance(witness, CoincidentExchangePolynomials)
        assert (witness.i, witness.j) == (1, 3)
        witness = necessary_conditions(ideals_for("D:5"))
        assert (witness.i, witness.j) == (4, 5)
        assert str(witness.value) == "x3 + 1"

    def test_reducible_over_gaussians(self):
        witness = necessary_conditions(ideals_for("kronecker", QI))
        assert isinstance(witness, ReducibleExchangePolynomial)
        assert witness.index == 1
        g, h = witness.factors
        assert g * h == P("1 + x2^2", 2, QI)
        assert str(witness) == "f_1 factors as (i*x2 + 1) * (-i*x2 + 1)"

    def test_clean_cases(self):
        for name in ("A:2", "A:4", "E:6", "rank2:1,2", "kronecker"):
            assert necessary_conditions(ideals_for(name)) is None

    def test_rejects_tiny_and_degenerate(self):
        with pytest.raises(ValueError):
            necessary_conditions(ideals_for("A:1"))
        with pytest.raises(ValueError):
            necessary_conditions(
                ExchangeIdeals(ExchangeMatrix([[0, 0], [0, 0]])))

    def test_gate_checks_in_certify_order(self):
        # disconnected, and f_1 = x3^3 + 1 factors: certify's verdict is the
        # gate's, which names the reducible f_1 first
        ideals = ExchangeIdeals(ExchangeMatrix([[0, 0], [0, 0], [3, 0], [0, 3]]))
        assert isinstance(certify(ideals), NotUFD)
        assert gate(ideals) == certify(ideals)
        assert gate(ideals_for("A:2")) is None
        for name in ("A:3", "cyclicA3"):
            assert gate(ideals_for(name)) == certify(ideals_for(name))


# -- the ideal-equality conjecture -------------------------------------------

class TestConjecture:
    def test_holds_on_small_type_a(self):
        ideals = ideals_for("A:2")
        for weight in (1, 2, 3):
            for a in multi_indices_of_weight(2, weight):
                outcome = conjecture_check(ideals, a)
                assert outcome.status == "holds", a

    def test_trivial_indices(self):
        ideals = ideals_for("A:2")
        assert conjecture_check(ideals, (0, 0)).status == "holds"
        assert conjecture_check(ideals, (3, 0)).status == "holds"

    def test_cycle_counterexample(self):
        ideals = ideals_for("cyclicA3")
        for a in ((1, 1, 0), (1, 1, 1)):
            outcome = conjecture_check(ideals, a)
            assert outcome.status == "fails"
            assert str(outcome.witness) == "x1 + x2 + x3"

    def test_witness_is_honest(self):
        # Re-verify the counterexample without trusting conjecture_check:
        # the witness lies in each power yet misses the product ideal.
        ideals = ideals_for("cyclicA3")
        outcome = conjecture_check(ideals, (1, 1, 1))
        w = outcome.witness
        for i in (1, 2, 3):
            assert ideals.power_membership(w, i, 1)
        from clusterufd.groebner import ideal_product
        product = ideal_product(
            ideal_product(ideals.power_ideal(1, 1), ideals.power_ideal(2, 1)),
            ideals.power_ideal(3, 1))
        assert not ideal_membership(w, product)

    def test_bad_multi_index(self):
        ideals = ideals_for("A:2")
        with pytest.raises(ValueError):
            conjecture_check(ideals, (1,))
        with pytest.raises(ValueError):
            conjecture_check(ideals, (1, -1))

    def test_budget_stops_politely(self):
        ideals = ideals_for("E:6")
        outcome = conjecture_check(ideals, (1, 1, 1, 1, 1, 1), budget=10)
        assert outcome.status == "inconclusive"
        assert outcome.detail

    def test_multi_index_generator(self):
        indices = list(multi_indices_of_weight(3, 4))
        assert len(indices) == 15                       # C(6, 2)
        assert len(set(indices)) == 15
        assert all(sum(a) == 4 for a in indices)


# -- inductive certificates --------------------------------------------------

class TestCertificates:
    def test_path_certificate_complete(self):
        result = inductive_prover(ideals_for("A:4"))
        assert result.stuck_supports == ()
        assert len(result.certificate) == 15            # 2^4 - 1 supports
        assert result.certificate.verify(builtin_matrix("A:4")) == []

    def test_exceptional_types(self):
        for name, size in (("E:6", 63), ("E:7", 127)):
            result = inductive_prover(ideals_for(name))
            assert len(result.certificate) == size
            assert result.certificate.verify(builtin_matrix(name)) == []

    def test_single_vertex(self):
        result = inductive_prover(ideals_for("A:1"))
        assert len(result.certificate) == 1
        assert isinstance(certificate_entries(result.certificate)[(1,)], FreeIndex)

    def test_weighted_chain_gets_stuck(self):
        result = inductive_prover(ExchangeIdeals(ExchangeMatrix(STUCK_ROWS)))
        assert result.certificate is None
        assert result.stuck_supports == ((2, 3),)

    def test_deterministic(self):
        a = certificate_entries(inductive_prover(ideals_for("A:4")).certificate)
        b = certificate_entries(inductive_prover(ideals_for("A:4")).certificate)
        assert a == b

    def test_size_cap(self):
        """MAX_CERTIFICATE_N caps only the list of stuck supports: up to it
        every stuck support is listed (``TestRuleTable`` checks the list is
        complete), past it one support of a hole."""
        for n in (MAX_CERTIFICATE_N, MAX_CERTIFICATE_N + 1):
            rows = weighted_chain_rows(n)
            oracle = RowsOracle(rows)
            stuck = inductive_prover(ExchangeIdeals(ExchangeMatrix(rows))).stuck_supports
            assert all(oracle.first_match(s) is None for s in stuck)
            # 1896 is also the count of the per-support search before the cover
            assert len(stuck) == (1 if n > MAX_CERTIFICATE_N else 1896)

    def test_justification_side_conditions(self):
        matrix = builtin_matrix("A:3")

        def cube_problems(rule, inside, outside):
            cert = SupportCertificate([(inside, outside, rule)], 3)
            return [p for p in cert.verify(matrix)
                    if not p.endswith("is not covered")]

        assert cube_problems(SinkSourceSplit(1, 2), (1, 2), ()) == []
        # 3 is not adjacent to 1
        assert cube_problems(SinkSourceSplit(1, 3), (1, 3), ()) == [
            "SinkSourceSplit(i=1, j=3) is not a rule of this matrix"]
        # free index 1 holds on (1, 3) but not on (1, 2): 2 is a neighbor
        assert cube_problems(FreeIndex(1), (1,), (2,)) == []
        assert cube_problems(FreeIndex(1), (1,), ()) == [
            "FreeIndex(i=1) holds on the cube (1,) in, (2,) out, "
            "not on (1,) in, () out"]
        assert cube_problems(FreeVariable(2, 1), (2,), (1,)) == []
        # The pivot variable may not itself lie in the support.
        assert cube_problems(FreeVariable(2, 1), (2,), ()) != []
        assert cube_problems(FreeVariable(2, 2), (2,), ()) == [
            "FreeVariable(i=2, k=2) is not a rule of this matrix"]

    def test_frozen_pivot_variable(self):
        matrix = ExchangeMatrix([[0, 1], [-1, 0], [1, 0]])
        cert = SupportCertificate([
            ((1,), (), FreeVariable(1, 3)),   # f_1 = x2 + x3, pivot frozen
            ((2,), (1,), FreeIndex(2)),
        ], 2)
        assert cert.verify(matrix) == []
        bad = SupportCertificate([
            ((1,), (), FreeVariable(1, 2)),   # pivot x2 may lie in no support
            ((2,), (1,), FreeIndex(2)),
        ], 2)
        assert bad.verify(matrix) == [
            "FreeVariable(i=1, k=2) holds on the cube (1,) in, (2,) out, "
            "not on (1,) in, () out",
            "support (1,) is not covered"]

    def test_tampering_detected(self):
        matrix = builtin_matrix("A:4")
        cubes = list(inductive_prover(ExchangeIdeals(matrix)).certificate.cubes)
        assert SupportCertificate(cubes, 4).verify(matrix) == []
        # a rule absent from the table: 3 is no neighbor of 1
        absent = cubes + [((1, 3), (), SinkSourceSplit(1, 3))]
        assert SupportCertificate(absent, 4).verify(matrix) == [
            "SinkSourceSplit(i=1, j=3) is not a rule of this matrix"]
        # a rule of the table, claimed on a cube that is not its own
        k = cubes.index(((1,), (2,), FreeIndex(1)))
        moved = cubes[:k] + [((1,), (), FreeIndex(1))] + cubes[k + 1:]
        assert SupportCertificate(moved, 4).verify(matrix)[0] == (
            "FreeIndex(i=1) holds on the cube (1,) in, (2,) out, "
            "not on (1,) in, () out")
        # a certificate for another n
        assert SupportCertificate(cubes, 5).verify(matrix)[0] == (
            "certificate is for n = 5, the matrix has n = 4")
        # dropped cubes leave holes, and a reported hole is really uncovered
        holes = []
        for k, j in combinations(range(len(cubes)), 2):
            rest = [c for i, c in enumerate(cubes) if i not in (k, j)]
            problems = SupportCertificate(rest, 4).verify(matrix)
            if not problems:
                continue
            (line,) = problems
            support = next(s for s in all_supports(4)
                           if line == f"support {s} is not covered")
            assert not any(set(inside) <= set(support)
                           and not set(outside) & set(support)
                           for inside, outside, _ in rest)
            holes.append((k, j, line))
        assert holes
        # a rule claimed on every support is rejected and covers nothing
        k, j, line = holes[0]
        inside, outside, rule = cubes[k]
        claimed = [((), (), rule) if i == k else c
                   for i, c in enumerate(cubes) if i != j]
        assert SupportCertificate(claimed, 4).verify(matrix) == [
            f"{rule} holds on the cube {inside} in, {outside} out, "
            f"not on () in, () out", line]


def all_supports(n: int):
    from itertools import combinations
    out = []
    for size in range(1, n + 1):
        out.extend(combinations(range(1, n + 1), size))
    return out


# -- the full verdict --------------------------------------------------------

class TestVerdict:
    def test_unique_factorization_cases(self):
        for name in ("A:2", "A:4"):
            verdict = ufd_verdict(ideals_for(name), degree_bound=2)
            assert isinstance(verdict, UFD)
            assert verdict.cross_checked_bound == 2
            assert verdict.notes == ""

    def test_refuted_cases(self):
        verdict = ufd_verdict(ideals_for("A:3"))
        assert isinstance(verdict, NotUFD)
        assert isinstance(verdict.witness, CoincidentExchangePolynomials)
        verdict = ufd_verdict(ideals_for("kronecker", QI))
        assert isinstance(verdict, NotUFD)
        assert isinstance(verdict.witness, ReducibleExchangePolynomial)

    def test_cycle_is_inconclusive_with_probed_bound(self):
        verdict = ufd_verdict(ideals_for("cyclicA3"))
        assert isinstance(verdict, Inconclusive)
        assert "cycle" in verdict.reason
        # Equality fails first at weight 2, so only weight 1 verifies.
        assert verdict.verified_bound == 1
        assert "fails at" in verdict.reason

    def test_stuck_chain_is_inconclusive(self):
        verdict = ufd_verdict(ExchangeIdeals(ExchangeMatrix(STUCK_ROWS)),
                              degree_bound=2)
        assert isinstance(verdict, Inconclusive)
        assert verdict.stuck_supports == ((2, 3),)
        assert verdict.verified_bound == 2

    def test_past_the_listing_cap_is_ufd(self):
        n = MAX_CERTIFICATE_N + 1
        verdict = ufd_verdict(ideals_for(f"A:{n}"))
        assert isinstance(verdict, UFD)
        assert len(verdict.certificate) == 2 ** n - 1
        assert verdict.notes == "cross-check skipped (n > 8)"

    def test_budget_shortens_cross_check_but_keeps_verdict(self):
        verdict = ufd_verdict(ideals_for("A:4"), degree_bound=2, budget=3)
        assert isinstance(verdict, UFD)
        assert verdict.cross_checked_bound == 1
        assert "budget" in verdict.notes

    def test_input_gates(self):
        with pytest.raises(ValueError):
            ufd_verdict(ideals_for("A:1"))
        with pytest.raises(ValueError):
            ufd_verdict(ExchangeIdeals(ExchangeMatrix([[0, 0], [0, 0]])))


# -- the paper's Dynkin table over every orientation ------------------------

DYNKIN_TYPES = ([f"A:{n}" for n in range(2, 10)] + [f"D:{n}" for n in range(4, 9)]
                + [f"E:{n}" for n in range(6, 9)])


def dynkin_orientations() -> list[tuple[str, ExchangeMatrix]]:
    """Every orientation of every Dynkin tree in ``DYNKIN_TYPES``: each
    subset of a tree's edges flipped, 2^(n-1) seeds per type.  Sink and
    source mutations reach every orientation of a tree and keep the
    algebra, so each type has one verdict."""
    out = []
    for name in DYNKIN_TYPES:
        rows = builtin_matrix(name).rows
        edges = [(i, j) for i in range(len(rows))
                 for j in range(i + 1, len(rows)) if rows[i][j]]
        for flips in range(1 << len(edges)):
            flipped = [list(row) for row in rows]
            for bit, (i, j) in enumerate(edges):
                if flips >> bit & 1:
                    flipped[i][j], flipped[j][i] = rows[j][i], rows[i][j]
            out.append((name, ExchangeMatrix(flipped)))
    return out


def dynkin_verdict(name: str) -> type:
    """The paper's table: the two ends of A_3 and the fork tips of D_n share
    an exchange polynomial; every other type is a UFD."""
    return NotUFD if name == "A:3" or name.startswith("D:") else UFD


class TestDynkinTable:
    def test_every_orientation_at_weight_zero(self):
        orientations = dynkin_orientations()
        assert len(orientations) == 982
        assert len({matrix for _, matrix in orientations}) == 982
        for name, matrix in orientations:
            verdict = ufd_verdict(ExchangeIdeals(matrix), degree_bound=0)
            assert isinstance(verdict, dynkin_verdict(name)), (name, matrix.rows)

    def test_sampled_orientations_cross_check_at_weight_two(self):
        # a direct check that contradicts a verdict raises ConsistencyError
        sample = random.Random(9).sample(dynkin_orientations(), 40)
        for name, matrix in sample:
            verdict = ufd_verdict(ExchangeIdeals(matrix), degree_bound=2)
            assert isinstance(verdict, dynkin_verdict(name)), (name, matrix.rows)


# -- membership and normal forms --------------------------------------------

@pytest.fixture(scope="module")
def a2():
    return ideals_for("A:2")


@pytest.fixture(scope="module", params=["A:3", "cyclicA3", "stuck 4-chain"])
def uncertified(request):
    """A NotUFD seed, one the gate leaves Inconclusive, and one whose
    certificate search is stuck."""
    if request.param == "stuck 4-chain":
        return ExchangeIdeals(ExchangeMatrix(STUCK_ROWS))
    return ideals_for(request.param)


class TestAlgebraMembership:
    def test_members(self, a2):
        for text in ("x1", "x2", "5", "0", "x1*x2",
                     "(1 + x2)/x1", "(1 + x1)/x2", "(1 + x1 + x2)/(x1*x2)"):
            value = parse_expression(text, 2, Q)
            assert algebra_membership(a2, value), text

    def test_non_members(self, a2):
        for text in ("1/x1", "x2/x1", "(1 + x1)/x1", "(1 + x2)/x1^2"):
            value = parse_expression(text, 2, Q)
            assert not algebra_membership(a2, value), text

    def test_frozen_denominators_are_not_inverted(self):
        matrix = ExchangeMatrix([[0, 1], [-1, 0], [1, 1]])
        ideals = ExchangeIdeals(matrix)
        assert isinstance(certify(ideals), UFD)
        for text, member in (("1/x3", False), ("(x2 + x3)/x1", True),
                             ("x3*(x2 + x3)/x1", True), ("x3/x1", False),
                             ("(x2 + x3)/(x1*x3)", False)):
            value = parse_expression(text, 3, Q)
            assert algebra_membership(ideals, value) == member, text

    def test_bad_inputs(self, a2):
        with pytest.raises(ValueError):
            algebra_membership(a2, parse_expression("x1", 3, Q))

    def test_uncertified_seeds_raise_certifys_verdict(self, uncertified):
        value = parse_expression("x1", uncertified.m, Q)
        with pytest.raises(Uncertified) as err:
            algebra_membership(uncertified, value)
        assert err.value.args == (certify(uncertified),)


class TestNormalFormElement:
    def test_exchange_binomial(self, a2):
        result = normal_form_element(a2, P("1 + x2", 2))
        assert str(result.value) == "(x2 + 1)/x1"
        assert result.normal_monomial == (1, 0)
        assert result.irreducibility == "irreducible"

    def test_last_cluster_variable(self, a2):
        result = normal_form_element(a2, P("1 + x1 + x2", 2))
        assert str(result.value) == "(x1 + x2 + 1)/(x1*x2)"
        assert result.irreducibility == "irreducible"

    def test_scalar_normalization(self, a2):
        doubled = normal_form_element(a2, P("2 + 2*x2", 2))
        plain = normal_form_element(a2, P("1 + x2", 2))
        assert doubled.value == plain.value

    def test_reducible_product(self, a2):
        result = normal_form_element(
            a2, P("1 + x1 + x2 + x1*x2", 2))
        assert result.irreducibility == "reducible"
        assert result.normal_monomial == (1, 1)

    def test_unverified_beyond_bound(self, a2):
        # degree 13, past the oracle's cap of 12, and no variable of degree one
        result = normal_form_element(a2, P("1 + x1^2 + x1^7*x2^6", 2))
        assert result.irreducibility == "unverified"

    def test_degree_one_lemma_runs_before_the_oracle(self, a2, monkeypatch):
        def no_oracle(*args):
            raise AssertionError("the factor oracle ran")

        monkeypatch.setattr(factoriality, "brute_force_factor", no_oracle)
        # past the oracle's degree cap, yet decided: x1 has degree one
        result = normal_form_element(a2, P("1 + x1 + x2^13", 2))
        assert result.irreducibility == "irreducible"

    def test_rejected_inputs(self, a2):
        with pytest.raises(ValueError):
            normal_form_element(a2, P("7", 2))
        with pytest.raises(ValueError) as err:
            normal_form_element(a2, P("x1 + x1*x2", 2))
        assert "x1 divides" in str(err.value)

    def test_uncertified_seeds_raise_certifys_verdict(self, uncertified):
        with pytest.raises(Uncertified) as err:
            normal_form_element(uncertified, P("x1 + 1", uncertified.m))
        assert err.value.args == (certify(uncertified),)


# -- the weight sweep and the verdict's stage order ---------------------------

DISCONNECTED_ROWS = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]


def weighted_chain_rows(n: int) -> list[list[int]]:
    """STUCK_ROWS continued to n indices: the path with every weight 2."""
    rows = [[0] * n for _ in range(n)]
    for k in range(n - 1):
        rows[k][k + 1], rows[k + 1][k] = 2, -2
    return rows


def cyclic_path_rows(n: int) -> list[list[int]]:
    """The oriented 3-cycle 1 -> 2 -> 3 -> 1 with a path 3 - 4 - ... - n."""
    rows = [[0] * n for _ in range(n)]
    for i, j in [(0, 1), (1, 2), (2, 0)] + [(k - 1, k) for k in range(3, n)]:
        rows[i][j], rows[j][i] = 1, -1
    return rows


class TestConjectureSweep:
    def test_weight_order_and_outcomes(self):
        ideals = ideals_for("A:2")
        outcomes = conjecture_sweep(ideals, 3)
        expected = [a for w in (1, 2, 3) for a in multi_indices_of_weight(2, w)]
        assert [o.multi_index for o in outcomes] == expected
        assert outcomes == [conjecture_check(ideals, a) for a in expected]

    def test_stops_after_first_outcome_that_does_not_hold(self):
        outcomes = conjecture_sweep(ideals_for("cyclicA3"), 3)
        assert [o.status for o in outcomes] == ["holds"] * 4 + ["fails"]
        assert outcomes[-1].multi_index == (0, 1, 1)
        budgeted = conjecture_sweep(ideals_for("A:4"), 2, 3)
        assert budgeted[-1].status == "inconclusive"
        assert all(o.status == "holds" for o in budgeted[:-1])

    def test_one_elimination_per_multi_index(self, monkeypatch):
        """Each multi-index of the sweep extends one checked before it, so
        E:6 to weight 3 runs 65 eliminations, one per multi-index with two
        or more active indices (85 without the intersection cache), and 65
        product bases; the reduced bases agree, so no normal form runs."""
        from clusterufd import groebner
        calls = {"buchberger": 0, "normal_form": 0}
        for name in calls:
            def counted(*args, _name=name, _original=getattr(groebner, name)):
                calls[_name] += 1
                return _original(*args)
            monkeypatch.setattr(groebner, name, counted)
        outcomes = conjecture_sweep(ideals_for("E:6"), 3)
        assert len(outcomes) == 83 and {o.status for o in outcomes} == {"holds"}
        assert calls == {"buchberger": 130, "normal_form": 0}

    def test_intersection_cache(self):
        from clusterufd.groebner import BudgetExceeded, ideal_intersection_many
        ideals = ideals_for("E:6")
        powers = ((1, 1), (2, 2), (4, 1))
        # a run past its budget caches nothing
        with pytest.raises(BudgetExceeded):
            ideals.power_intersection(powers[:2], 1)
        with pytest.raises(BudgetExceeded):
            ideals.power_intersection(powers[:2], 1)
        meet = ideals.power_intersection(powers, 1_000)
        assert meet.generators == ideal_intersection_many(
            [ideals.power_ideal(i, a) for i, a in powers]).generators
        # cached, so returned whatever the budget
        assert ideals.power_intersection(powers, 1) is meet
        assert ideals.power_intersection(powers[:1], 1) is ideals.power_ideal(1, 1)

    def test_empty_and_gated(self):
        assert conjecture_sweep(ideals_for("A:2"), 0) == []
        # a seed the gate stops is probed all the same
        swept = conjecture_sweep(ideals_for("cyclicA3"), 1)
        assert [o.status for o in swept] == ["holds"] * 3


class TestVerdictStages:
    def test_disconnected_is_inconclusive(self):
        ideals = ExchangeIdeals(ExchangeMatrix(DISCONNECTED_ROWS))
        verdict = ufd_verdict(ideals, degree_bound=2)
        assert isinstance(verdict, Inconclusive)
        assert verdict.reason.startswith("the exchange matrix is not connected")
        assert verdict.stuck_supports == ()
        swept = conjecture_sweep(ideals, 2)
        assert all(o.status == "holds" for o in swept)
        assert verdict.verified_bound == 2

    def test_negative_degree_bound_rejected(self):
        with pytest.raises(ValueError, match="degree bound"):
            ufd_verdict(ideals_for("A:2"), degree_bound=-1)
        verdict = ufd_verdict(ideals_for("A:2"), degree_bound=0)
        assert isinstance(verdict, UFD)
        assert verdict.cross_checked_bound == 0

    @pytest.mark.parametrize("name", ["A:2", "cyclicA3"])
    def test_assumptions_checked_once(self, monkeypatch, name):
        calls = []
        original = factoriality.gate
        monkeypatch.setattr(factoriality, "gate",
                            lambda ideals: calls.append(ideals) or original(ideals))
        ufd_verdict(ideals_for(name), degree_bound=2)
        assert len(calls) == 1

    def test_certify_reuses_the_constructor_symmetrizer(self, monkeypatch):
        """``ExchangeMatrix`` checks skew-symmetrizability when it is built,
        so certifying never searches for a symmetrizer again."""
        from clusterufd import cluster
        ideals = ideals_for("A:16")
        calls = []
        original = cluster.find_skew_symmetrizer
        monkeypatch.setattr(cluster, "find_skew_symmetrizer",
                            lambda principal: calls.append(1) or original(principal))
        assert isinstance(certify(ideals), UFD)
        assert calls == []

    def test_cyclic_past_the_listing_cap_sweeps(self):
        n = MAX_CERTIFICATE_N + 1
        verdict = ufd_verdict(ExchangeIdeals(ExchangeMatrix(cyclic_path_rows(n))))
        assert isinstance(verdict, Inconclusive)
        assert verdict.reason.startswith("the principal quiver has an oriented cycle")
        assert "ideal equality fails at" in verdict.reason
        assert verdict.verified_bound == 1


# -- the rule table against a first-match oracle read from the rows ----------

def supports_in_order(n: int):
    return [s for size in range(1, n + 1)
            for s in combinations(range(1, n + 1), size)]


random_seed_rows = st.builds(
    lambda state, n, frozen: random_acyclic_seed(random.Random(state), n, frozen),
    st.integers(0, 2 ** 32), st.integers(1, 8), st.integers(0, 2))


class TestRuleTable:
    @seed(20261018)
    @settings(max_examples=150, deadline=None)
    @given(random_seed_rows)
    def test_prover_takes_the_first_matching_rule(self, rows):
        oracle = RowsOracle(rows)
        expected = [(s, oracle.first_match(s)) for s in supports_in_order(oracle.n)]
        stuck = tuple(s for s, just in expected if just is None)
        result = inductive_prover(ExchangeIdeals(ExchangeMatrix(rows)))
        assert result.stuck_supports == stuck
        if stuck:
            assert result.certificate is None
        else:
            assert list(certificate_entries(result.certificate).items()) == expected

    @seed(20261018)
    @settings(max_examples=60, deadline=None)
    @given(random_seed_rows.filter(lambda rows: len(rows[0]) <= 5))
    def test_verify_accepts_exactly_the_rules_that_hold(self, rows):
        """verify accepts a cube exactly when the oracle's rule holds on the
        supports of that cube and on no other."""
        oracle = RowsOracle(rows)
        n, m = oracle.n, oracle.m
        matrix = ExchangeMatrix(rows)
        supports = supports_in_order(n)
        candidates = ([SinkSourceSplit(i, j) for i in range(1, n + 1)
                       for j in range(1, n + 1)]
                      + [FreeIndex(i) for i in range(0, n + 2)]
                      + [FreeVariable(i, k) for i in range(1, n + 1)
                         for k in range(0, m + 2)])

        def cube_problems(inside, outside, just):
            cert = SupportCertificate([(inside, outside, just)], n)
            return [p for p in cert.verify(matrix)
                    if not p.endswith("is not covered")]

        for just in candidates:
            held = [set(s) for s in supports if oracle.holds(s, just)]
            if not held:
                assert cube_problems((1,), (), just) == [
                    f"{just} is not a rule of this matrix"]
                continue
            inside = tuple(sorted(set.intersection(*held)))
            outside = tuple(i for i in range(1, n + 1)
                            if i not in set.union(*held))
            # the rule holds on exactly this subcube of supports
            assert held == [set(s) for s in supports
                            if set(inside) <= set(s) and not set(outside) & set(s)]
            assert cube_problems(inside, outside, just) == []
            for t in range(1, n + 1):
                for claim in ((tuple(sorted(set(inside) ^ {t})), outside),
                              (inside, tuple(sorted(set(outside) ^ {t})))):
                    assert cube_problems(*claim, just) == [
                        f"{just} holds on the cube {inside} in, {outside} out, "
                        f"not on {claim[0]} in, {claim[1]} out"]


class TestValueSemantics:
    """Rules are immutable values that key dicts; the result records keep
    their field defaults."""

    def test_rules_of_different_lemmas_are_distinct_keys(self):
        split, variable = SinkSourceSplit(1, 2), FreeVariable(1, 2)
        assert split != variable
        keys = {split: "split", variable: "variable"}
        assert len(keys) == 2
        assert keys[SinkSourceSplit(1, 2)] == "split"
        assert keys[FreeVariable(1, 2)] == "variable"
        assert FreeIndex(1) != SinkSourceSplit(1, 2)

    def test_equal_rules_hash_equal(self):
        for make, args in ((SinkSourceSplit, (3, 4)), (FreeIndex, (2,)),
                           (FreeVariable, (1, 5))):
            assert make(*args) == make(*args)
            assert hash(make(*args)) == hash(make(*args))
        assert SinkSourceSplit(1, 2) != SinkSourceSplit(2, 1)

    def test_rules_are_not_plain_tuples(self):
        """Equality needs the same lemma on both sides, whichever side the
        plain tuple is on; written with ``!=`` so ``__ne__`` is checked too."""
        assert SinkSourceSplit(1, 2) != (1, 2)
        assert (1, 2) != SinkSourceSplit(1, 2)
        assert FreeIndex(1) != (1,)
        assert (1,) != FreeIndex(1)
        cubes = factoriality._rule_cubes(builtin_matrix("A:3"))
        assert SinkSourceSplit(1, 2) in cubes
        assert all(tuple(rule) not in cubes for rule in cubes)

    @pytest.mark.parametrize("value, field", [
        (SinkSourceSplit(1, 2), "j"), (FreeIndex(1), "i"),
        (FreeVariable(1, 2), "k")])
    def test_fields_cannot_be_assigned(self, value, field):
        with pytest.raises(AttributeError):
            setattr(value, field, 0)

    def test_outcome_defaults(self):
        outcome = ConjectureOutcome("holds", (1,))
        assert outcome.witness is None
        assert outcome.detail == ""


random_seed_rows_to_10 = st.builds(
    lambda state, n, frozen: random_acyclic_seed(random.Random(state), n, frozen),
    st.integers(0, 2 ** 32), st.integers(1, 10), st.integers(0, 2))


class TestCoverOracle:
    @seed(20261018)
    @settings(max_examples=80, deadline=None)
    @given(random_seed_rows_to_10)
    def test_cover_against_first_match(self, rows):
        """The cubes certify exactly when the first-match oracle finds no
        stuck support; every support of a hole is stuck; and the listing
        expands to the oracle's first matches."""
        oracle = RowsOracle(rows)
        n = oracle.n
        expected = [(s, oracle.first_match(s)) for s in supports_in_order(n)]
        stuck = {s for s, just in expected if just is None}
        ideals = ExchangeIdeals(ExchangeMatrix(rows))
        hole = factoriality._uncovered(
            factoriality._rule_cubes(ideals.matrix).values(), n)
        assert (hole is None) == (not stuck)
        result = inductive_prover(ideals)
        if hole is None:
            assert list(certificate_entries(result.certificate).items()) == expected
            return
        assert result.certificate is None
        inside, outside = (set(factoriality._support(mask)) for mask in hole)
        assert inside and not inside & outside
        free = set(range(1, n + 1)) - inside - outside
        for extra in all_subsets(sorted(free)):
            assert tuple(sorted(inside | set(extra))) in stuck


class TestFirstCubeTable:
    """``_first_cubes`` is the only per-support first-match computation in
    the package, so it is checked against a plain scan and the row oracle."""

    @seed(20261019)
    @settings(max_examples=60, deadline=None)
    @given(random_seed_rows_to_10)
    def test_table_against_scan_and_oracle(self, rows):
        oracle = RowsOracle(rows)
        n = oracle.n
        table = factoriality._rule_cubes(ExchangeMatrix(rows))
        cubes = list(table.values())
        first = factoriality._first_cubes(cubes, n)
        assert len(first) == 1 << n
        for mask in range(1 << n):
            scan = next((k for k, (inside, outside) in enumerate(cubes)
                         if inside & mask == inside and not outside & mask),
                        len(cubes))
            assert first[mask] == scan
        matches = certificate_entries(SupportCertificate(
            [(factoriality._support(inside), factoriality._support(outside), rule)
             for rule, (inside, outside) in table.items()], n))
        assert list(matches) == supports_in_order(n)
        for support, rule in matches.items():
            assert rule == oracle.first_match(support)
        hole = factoriality._uncovered(cubes, n)
        if hole is not None:
            inside, outside = hole
            free = ((1 << n) - 1) & ~(inside | outside)
            for extra in all_subsets(factoriality._support(free)):
                support = factoriality._support(inside | factoriality._bits(extra))
                assert matches[support] is None

    def test_weighted_chain_stuck_list_is_every_uncovered_support(self):
        for n in (4, 7, 12):
            rows = weighted_chain_rows(n)
            oracle = RowsOracle(rows)
            stuck = inductive_prover(ExchangeIdeals(ExchangeMatrix(rows))).stuck_supports
            assert stuck == tuple(s for s in supports_in_order(n)
                                  if oracle.first_match(s) is None)


class TestCertificateImpliesSweep:
    """A UFD verdict rests on the certificate alone, so the direct weight
    sweep, run on its own, must hold wherever one is given."""

    @seed(20261018)
    @settings(max_examples=100, deadline=None)
    @given(st.builds(
        lambda state, n, frozen: random_acyclic_seed(random.Random(state), n, frozen),
        st.integers(0, 2 ** 32), st.integers(1, 6), st.integers(0, 2))
        .filter(lambda rows: len(rows) > 1))   # one variable is out of scope
    def test_ufd_verdicts_hold_through_weight_2(self, rows):
        # a sweep that contradicts the certificate raises ConsistencyError
        verdict = ufd_verdict(ExchangeIdeals(ExchangeMatrix(rows)), degree_bound=2)
        if not isinstance(verdict, UFD):
            return
        assert (verdict.cross_checked_bound, verdict.notes) == (2, "")
        n = len(rows[0])
        outcomes = conjecture_sweep(ExchangeIdeals(ExchangeMatrix(rows)), 2)
        assert [o.status for o in outcomes] == ["holds"] * (n + n * (n + 1) // 2)


def within_mutations(matrix: ExchangeMatrix, steps: int) -> set[ExchangeMatrix]:
    """Every matrix reached from ``matrix`` by at most ``steps`` mutations."""
    seen = layer = {matrix}
    for _ in range(steps):
        layer = {mu.mutate(k) for mu in layer
                 for k in range(1, matrix.n + 1)} - seen
        seen = seen | layer
    return seen


class TestNecessaryConditionsUnderMutation:
    """The necessary conditions of Geiss, Leclerc and Schroer are properties
    of the cluster algebra, not of one seed, so a UFD verdict requires them
    at every seed: checked at every matrix within three mutations."""

    def test_every_nearby_matrix_of_a_ufd_seed(self):
        matrices = [builtin_matrix(name)
                    for name in ("A:2", "A:3", "A:4", "A:5", "A:6", "E:6")]
        rng = random.Random(13)
        matrices += [ExchangeMatrix(random_acyclic_seed(
            rng, rng.randint(2, 5), rng.randint(1, 2))) for _ in range(20)]
        ufd = [mu for mu in matrices if isinstance(certify(ExchangeIdeals(mu)), UFD)]
        assert len(ufd) >= 10
        for matrix in ufd:
            for nearby in within_mutations(matrix, 3):
                assert necessary_conditions(ExchangeIdeals(nearby)) is None, \
                    (matrix.rows, nearby.rows)


def all_subsets(items):
    return [c for size in range(len(items) + 1) for c in combinations(items, size)]


def timing_cases():
    for name in ("A:17", "A:40", "E:8"):
        yield name, [list(row) for row in builtin_matrix(name).rows]
    for state, frozen in ((0, 0), (1, 1), (3, 0)):
        yield (f"tree{state}",
               random_acyclic_seed(random.Random(state), 40, frozen))


class TestCoverTiming:
    """The cover decides seeds far past the listing cap.  The target is
    under 1 s for each; the gate is 5 s, so a slow machine does not fail."""

    @pytest.mark.parametrize("name, rows", list(timing_cases()),
                             ids=[name for name, _ in timing_cases()])
    def test_certify_or_stuck_and_verify(self, name, rows):
        start = time.perf_counter()
        ideals = ExchangeIdeals(ExchangeMatrix(rows))
        result = inductive_prover(ideals)
        if result.certificate is not None:
            assert result.certificate.verify(ideals.matrix) == []
        elapsed = time.perf_counter() - start
        assert elapsed < 5, f"{name}: {elapsed:.2f} s"
        oracle = RowsOracle(rows)
        for support in result.stuck_supports:
            assert oracle.first_match(support) is None


class TestProverWork:
    def test_a16_matrix_queries(self, monkeypatch):
        """The prover and the verifier each read the matrix once, to build the
        rule table: m neighbor rows and n source/sink flags.  A per-support
        query would cost about 1.26M here, so it cannot come back unseen."""
        calls = []
        for name in ("neighbors", "is_source", "is_sink"):
            original = getattr(ExchangeMatrix, name)
            monkeypatch.setattr(
                ExchangeMatrix, name,
                lambda self, i, _name=name, _original=original:
                    calls.append(_name) or _original(self, i))
        ideals = ideals_for("A:16")
        result = inductive_prover(ideals)
        assert result.certificate.verify(ideals.matrix) == []
        # per pass: 16 neighbor rows, 16 source flags, and 15 sink flags
        # (the source 1 short-circuits its sink test)
        assert len(calls) == 94
        assert calls.count("neighbors") == 32
