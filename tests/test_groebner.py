"""Buchberger, normal forms, ideal intersections/products/powers.

The frozen expected bases below were verified by hand: the lex basis of
(x^2 - y, x^3 - x) by reducing all three S-pairs to zero on paper, and the
grevlex basis of (x^3 - 2xy, x^2y - 2y^2 + x) is the standard worked
example reproduced in most commutative-algebra course notes.  On two
variables ``ELIMINATE_LAST`` is lex with x2 > x1, so the lex examples are
written with x = x2 and y = x1.
"""
from __future__ import annotations

import random

import pytest

from conftest import random_polynomial
from oracles import (basis_is_unit, ideal_equal, ideal_membership, ideal_power,
                     is_unit_ideal, s_polynomial)
from clusterufd.cluster import builtin_matrix
from clusterufd.factoriality import ExchangeIdeals
from clusterufd.fields import FieldTag
from clusterufd.parse import parse_polynomial
from clusterufd.poly import ELIMINATE_LAST, GREVLEX, Polynomial, ev_divides, ev_max
from clusterufd import groebner
from clusterufd.groebner import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    Ideal,
    buchberger,
    ideal_intersection,
    ideal_intersection_many,
    ideal_product,
    normal_form,
)

Q = FieldTag.Q


def P(text: str, m: int = 2) -> Polynomial:
    return parse_polynomial(text, m, Q)


def random_ideal(rng: random.Random, m: int = 2, gens: int = 2) -> Ideal:
    out = []
    while len(out) < gens:
        p = random_polynomial(rng, m, Q, max_terms=3, max_exp=2)
        if not p.is_zero:
            out.append(p)
    return Ideal(out)


def assert_basis_of(gens, gb):
    """gb is a reduced Groebner basis of the ideal the generators span: each
    generator and each S-polynomial of gb reduces to zero, and no term of an
    element is divisible by another element's leading term."""
    for g in gens:
        assert normal_form(g, gb).is_zero
    polys = list(gb)
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            s = s_polynomial(polys[i], polys[j], gb.order)
            assert normal_form(s, gb).is_zero
    leads = [g.leading(gb.order)[0] for g in polys]
    for i, g in enumerate(polys):
        for exp in g.terms:
            assert not any(ev_divides(lead, exp) for j, lead in enumerate(leads)
                           if j != i or exp != leads[i])


# The largest total degree a packed field holds at the first width, and
# binomials whose first run overflows it: "at" in the lcm of a pair (grevlex)
# or in a reduction (ELIMINATE_LAST), "past" when the input is packed,
# "crossing" and "grows" in the lcm of inputs below it.
TOP = 2 ** groebner.FIELD_BITS - 1
EDGE_GENERATORS = {
    "at": [P(f"x1^{TOP} - x2"), P(f"x1*x2^{TOP - 1} - x1")],
    "past": [P(f"x1^{TOP + 1} - x2"), P("x2^3 - x1")],
    "crossing": [P(f"x1^{TOP // 2 + 1}*x2 - 1"), P(f"x1*x2^{TOP // 2 + 1} - x2")],
    "grows": [P(f"x1^{TOP - 2}*x2^2 - x2"), P(f"x1^3 - x2^{TOP - 3}")],
}


class TestBuchberger:
    def test_lex_textbook_basis(self):
        gb = buchberger([P("x2^2 - x1"), P("x2^3 - x2")], ELIMINATE_LAST)
        assert [str(g) for g in gb] == ["x2^2 - x1", "x1*x2 - x2", "x1^2 - x1"]

    def test_grevlex_textbook_basis(self):
        ideal = Ideal([P("x1^3 - 2*x1*x2"), P("x1^2*x2 - 2*x2^2 + x1")])
        gb = ideal.groebner_basis()
        assert [str(g) for g in gb] == ["x1^2", "x1*x2", "x2^2 - 1/2*x1"]

    def test_linear_combination_collapses(self):
        gb = buchberger([P("x1 + x2"), P("x1 - x2")], ELIMINATE_LAST)
        assert [str(g) for g in gb] == ["x2", "x1"]

    def test_membership_via_explicit_cofactors(self):
        # Hand-checked identity in (x^2 - y, x^3 - x):
        #   y^3 - y = (1 - y^2 - x^2 y - x^4)(x^2 - y) + (x^3 + x)(x^3 - x)
        g1, g2 = P("x1^2 - x2"), P("x1^3 - x1")
        h1 = P("1 - x2^2 - x1^2*x2 - x1^4")
        h2 = P("x1^3 + x1")
        target = P("x2^3 - x2")
        assert h1 * g1 + h2 * g2 == target
        ideal = Ideal([g1, g2])
        assert ideal_membership(target, ideal)
        # (0, 0) is a common zero of the generators but y^2 - 1 is -1 there,
        # so y^2 - 1 cannot lie in the ideal.
        assert not ideal_membership(P("x2^2 - 1"), ideal)

    def test_random_bases_satisfy_definition(self, monkeypatch):
        """Random grevlex bases, bases of generators at and past the packed
        field's edge under both orders, and the elimination bases that
        ``ideal_intersection`` computes."""
        rng = random.Random(67)
        runs = []
        for _ in range(25):
            ideal = random_ideal(rng)
            runs.append((ideal.generators, ideal.groebner_basis()))
        for gens in EDGE_GENERATORS.values():
            runs += [(gens, buchberger(gens, order))
                     for order in (GREVLEX, ELIMINATE_LAST)]
        original = groebner.buchberger

        def recording(gens, order, budget=DEFAULT_BUDGET):
            gb = original(gens, order, budget)
            runs.append((gens, gb))
            return gb

        monkeypatch.setattr(groebner, "buchberger", recording)
        for _ in range(10):
            ideal_intersection(random_ideal(rng), random_ideal(rng))
        assert sum(gb.order is ELIMINATE_LAST for _, gb in runs) == 14
        for gens, gb in runs:
            assert_basis_of(gens, gb)

    def test_reduced_and_monic(self):
        rng = random.Random(71)
        for _ in range(25):
            gb = random_ideal(rng).groebner_basis()
            leads = [g.leading(GREVLEX)[0] for g in gb]
            for i, g in enumerate(gb):
                assert g.leading(GREVLEX)[1] == 1
                # No monomial of g may be divisible by another leading term,
                # and only the leading term of g is divisible by its own.
                for exp in g.terms:
                    for j, lead in enumerate(leads):
                        if j == i and exp == leads[i]:
                            continue
                        assert not ev_divides(lead, exp)

    def test_deterministic(self):
        gens = [P("x1^2*x2 - 1"), P("x1*x2^2 - x1")]
        a = Ideal(gens).groebner_basis()
        b = Ideal(gens).groebner_basis()
        assert list(a) == list(b)

    def test_unit_ideal_detection(self):
        assert basis_is_unit(Ideal([P("x1"), P("x1 + 1")]).groebner_basis())
        assert is_unit_ideal(Ideal([P("3")]))
        assert not is_unit_ideal(Ideal([P("x1"), P("x2")]))


class TestPacking:
    """Packed monomials order, divide and overflow as exponent tuples do."""

    @pytest.mark.parametrize("order", [GREVLEX, ELIMINATE_LAST])
    def test_key_lcm_and_divisibility_match_tuples(self, order):
        rng = random.Random(61)
        packing = groebner._Packing(3, order, groebner.FIELD_BITS)
        exps = [(TOP, 0, 0), (0, TOP, 0), (0, 0, TOP), (0, 0, 0)]
        exps += [tuple(rng.randint(0, TOP // 3) for _ in range(3)) for _ in range(60)]
        exps = list(dict.fromkeys(exps))
        packed = list(packing.pack({e: 1 for e in exps}))
        assert packing.unpack(dict.fromkeys(packed, 1)) == dict.fromkeys(exps, 1)
        assert ([packing.unpack({p: 1}) for p in sorted(packed, key=packing.key)]
                == [{e: 1} for e in sorted(exps, key=order.key)])
        for a, pa in zip(exps, packed):
            for b, pb in zip(exps, packed):
                assert packing.divides(pa, pb) == ev_divides(a, b)
                if sum(max(x, y) for x, y in zip(a, b)) <= TOP:
                    lcm, degree = packing.lcm(pa, pb)
                    assert packing.unpack({lcm: 1}) == {ev_max(a, b): 1}
                    assert degree == sum(ev_max(a, b))

    def test_a_field_past_its_edge_overflows(self):
        packing = groebner._Packing(2, GREVLEX, groebner.FIELD_BITS)
        with pytest.raises(groebner._Overflow):
            packing.pack({(TOP, 1): 1})
        (a,), (b,) = packing.pack({(TOP, 0): 1}), packing.pack({(0, 1): 1})
        with pytest.raises(groebner._Overflow):
            packing.lcm(a, b)

    @pytest.mark.parametrize("bits", [1, 64])
    def test_the_first_width_never_changes_a_basis(self, monkeypatch, bits):
        """Starting from one value bit, nearly every run overflows and starts
        over; starting from 64, none does.  Either way every basis and every
        normal form is the one the default width gives."""
        rng = random.Random(67)
        pairs = [(random_ideal(rng), random_ideal(rng)) for _ in range(5)]
        extra = P("x1^40*x2 + x1*x2 - 1")

        def results():
            out = [list(buchberger(gens, order)) for gens in EDGE_GENERATORS.values()
                   for order in (GREVLEX, ELIMINATE_LAST)]
            out += [ideal_intersection(left, right).generators for left, right in pairs]
            for left, _ in pairs:
                gb = left.groebner_basis()
                out.append([normal_form(extra, gb), normal_form(extra * extra, gb)])
            return out

        expected = results()
        monkeypatch.setattr(groebner, "FIELD_BITS", bits)
        assert results() == expected


class TestNormalForm:
    def test_idempotent_and_linear(self):
        rng = random.Random(73)
        gb = Ideal([P("x1^2 - x2"), P("x1^3 - x1")]).groebner_basis()
        for _ in range(30):
            p = random_polynomial(rng, 2, Q)
            q = random_polynomial(rng, 2, Q)
            assert normal_form(normal_form(p, gb), gb) == normal_form(p, gb)
            assert normal_form(p + q, gb) == normal_form(p, gb) + normal_form(q, gb)

    def test_invariant_under_adding_members(self):
        rng = random.Random(79)
        ideal = Ideal([P("x1^2 - x2"), P("x1^3 - x1")])
        gb = ideal.groebner_basis()
        for _ in range(30):
            p = random_polynomial(rng, 2, Q)
            h = random_polynomial(rng, 2, Q)
            member = h * ideal.generators[0]
            assert normal_form(p + member, gb) == normal_form(p, gb)

    def test_reduces_by_the_packing_of_its_basis(self, monkeypatch):
        """A polynomial that fits the basis's packing is reduced by the
        basis's own packed reducers; one past it packs both again, wider."""
        ideal = Ideal([P("x1^2 - x2"), P("x1^3 - x1")])
        fits, past = P("x1^3*x2 + x2^2 + 1"), P(f"x1^{TOP}*x2 + x1")
        with monkeypatch.context() as wide:
            wide.setattr(groebner, "FIELD_BITS", 64)
            gb = ideal.groebner_basis()
            expected = [normal_form(fits, gb), normal_form(past, gb)]
        gb = ideal.groebner_basis()
        packing, made = gb.packed[0], []
        monkeypatch.setattr(groebner, "_Packing", lambda *args: made.append(
            args[2]) or type(packing)(*args))
        assert normal_form(fits, gb) == expected[0] and made == []
        assert normal_form(past, gb) == expected[1]
        assert made == [2 * packing.bits] and gb.packed[0] is packing


class TestIdealConstruction:
    def test_rejects_empty_and_zero(self):
        with pytest.raises(ValueError):
            Ideal([])
        with pytest.raises(ValueError):
            Ideal([Polynomial.zero(2, Q)])

    def test_rejects_mixed_ambients(self):
        with pytest.raises(ValueError):
            Ideal([P("x1", m=2), P("x1", m=3)])

    def test_generators_canonicalized(self):
        a = Ideal([P("x2"), P("x1"), P("x1")])
        b = Ideal([P("x1"), P("x2")])
        assert a.generators == b.generators


class TestIdealOperations:
    def test_principal_intersection(self):
        meet = ideal_intersection(Ideal([P("x1")]), Ideal([P("x2")]))
        assert ideal_equal(meet, Ideal([P("x1*x2")]))

    def test_intersection_with_self(self):
        ideal = Ideal([P("x1^2 - x2"), P("x1*x2")])
        assert ideal_equal(ideal_intersection(ideal, ideal), ideal)

    def test_intersection_members_lie_in_both(self):
        rng = random.Random(83)
        for _ in range(10):
            left = random_ideal(rng)
            right = random_ideal(rng)
            meet = ideal_intersection(left, right)
            for g in meet.generators:
                assert ideal_membership(g, left)
                assert ideal_membership(g, right)

    def test_product_inside_intersection(self):
        rng = random.Random(89)
        for _ in range(10):
            left = random_ideal(rng)
            right = random_ideal(rng)
            meet = ideal_intersection(left, right)
            prod = ideal_product(left, right)
            for g in prod.generators:
                assert ideal_membership(g, meet)

    def test_three_way_intersection(self):
        meet = ideal_intersection_many(
            [Ideal([P("x1")]), Ideal([P("x2")]), Ideal([P("x1 + x2")])])
        assert ideal_equal(meet, Ideal([P("x1^2*x2 + x1*x2^2")]))

    def test_product_generators(self):
        prod = ideal_product(Ideal([P("x1"), P("x2")]), Ideal([P("x1")]))
        assert set(map(str, prod.generators)) == {"x1^2", "x1*x2"}

    def test_power(self):
        ideal = Ideal([P("x1"), P("x2 + 1")])
        square = ideal_power(ideal, 2)
        assert set(map(str, square.generators)) \
            == {"x1^2", "x1*x2 + x1", "x2^2 + 2*x2 + 1"}
        assert is_unit_ideal(ideal_power(ideal, 0))
        with pytest.raises(ValueError):
            ideal_power(ideal, -1)

    def test_equal_is_extensional(self):
        a = Ideal([P("x1"), P("x2")])
        b = Ideal([P("x1 + x2"), P("x1 - x2")])
        assert ideal_equal(a, b)
        assert not ideal_equal(a, Ideal([P("x1")]))


class TestBudget:
    def test_budget_exceeded_raises(self):
        gens = [P("x1^3 - 2*x1*x2"), P("x1^2*x2 - 2*x2^2 + x1")]
        with pytest.raises(BudgetExceeded) as err:
            buchberger(gens, GREVLEX, 2)
        assert err.value.reductions >= 2

    def test_basis_cap(self, monkeypatch):
        gens = [P("x1^3 - 2*x1*x2"), P("x1^2*x2 - 2*x2^2 + x1")]
        monkeypatch.setattr(groebner, "MAX_BASIS", 1)
        with pytest.raises(BudgetExceeded):
            buchberger(gens, GREVLEX)

    def test_generous_budget_suffices(self):
        gens = [P("x2^2 - x1"), P("x2^3 - x2")]
        gb = buchberger(gens, ELIMINATE_LAST, DEFAULT_BUDGET)
        assert len(gb) == 3


class TestReductionSequence:
    """The S-pair reduction count is part of the budget contract.

    Each count N was found with the linear-scan pair selection that predates
    the heap-ordered queue, as the smallest ``budget`` that lets the
    run finish.  A different pair order would change N, so a budget of N
    must succeed and N - 1 must raise.
    """

    @staticmethod
    def product_gens(name, field, multi_index):
        ideals = ExchangeIdeals(builtin_matrix(name), field)
        active = [i for i, a in enumerate(multi_index, start=1) if a]
        product = ideals.power_ideal(active[0], multi_index[active[0] - 1])
        for i in active[1:]:
            product = ideal_product(product, ideals.power_ideal(i, multi_index[i - 1]))
        return product.generators

    @staticmethod
    def assert_pinned(run, n):
        run(n)
        with pytest.raises(BudgetExceeded) as err:
            run(n - 1)
        assert err.value.reductions == n

    @pytest.mark.parametrize("name, field, multi_index, n", [
        ("A:4", Q, (1, 2, 1, 0), 24),
        ("A:4", FieldTag.QI, (2, 1, 0, 0), 9),
        ("E:6", Q, (1, 1, 1, 0, 0, 0), 14),
        ("E:6", Q, (0, 0, 2, 1, 0, 0), 7),
    ])
    def test_product_ideal_basis(self, name, field, multi_index, n):
        gens = self.product_gens(name, field, multi_index)
        self.assert_pinned(lambda b: Ideal(gens).groebner_basis(budget=b), n)

    @pytest.mark.parametrize("name, field, multi_index, n", [
        ("A:4", Q, (1, 2, 1, 0), 24),
        ("E:6", Q, (0, 0, 2, 1, 0, 0), 7),
    ])
    def test_repeated_generators(self, name, field, multi_index, n):
        """Repeats, and scalar multiples that are equal once monic, change
        neither the generators, the basis nor the reduction count."""
        gens = self.product_gens(name, field, multi_index)
        assert Ideal(gens + gens[::-1]).generators == gens
        padded = [h for g in gens for h in (g * 2, g)] + list(gens)
        assert list(buchberger(padded, GREVLEX)) == list(buchberger(gens, GREVLEX))
        self.assert_pinned(lambda b: buchberger(padded, GREVLEX, b), n)

    @pytest.mark.parametrize("name, left, right, n", [
        ("E:6", (3, 2), (4, 1), 18),
        ("E:6", (1, 1), (2, 2), 20),
        ("A:4", (1, 2), (2, 2), 28),
    ])
    def test_intersection(self, name, left, right, n):
        ideals = ExchangeIdeals(builtin_matrix(name), Q)
        lhs, rhs = ideals.power_ideal(*left), ideals.power_ideal(*right)
        self.assert_pinned(lambda b: ideal_intersection(lhs, rhs, b), n)

    def test_from_the_narrowest_width(self, monkeypatch):
        """Runs that overflow and start over wider count their reductions
        afresh: the pinned counts hold from a one-bit first width."""
        monkeypatch.setattr(groebner, "FIELD_BITS", 1)
        self.test_product_ideal_basis("A:4", Q, (1, 2, 1, 0), 24)
        self.test_intersection("E:6", (1, 1), (2, 2), 20)
