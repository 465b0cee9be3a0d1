"""The nine acceptance criteria, one test per criterion.

Each test prints (and records for the terminal summary) a single line
    ACCEPTANCE <k> PASS (<elapsed>)
or the corresponding FAIL line if its assertions trip.  Time limits are
asserted as part of the criterion.
"""
from __future__ import annotations

import functools
import json
import random
import time
from fractions import Fraction

import conftest
from conftest import random_skew_symmetrizable
from oracles import ideal_membership, is_unit_ideal
from clusterufd.cli import main as cli_main
from clusterufd.cluster import (
    ExchangeMatrix,
    builtin_matrix,
    builtin_seed,
    hypersurface_relation_check,
    structure_report,
    verify_laurent_property,
)
from clusterufd.factoriality import (
    CoincidentExchangePolynomials,
    ExchangeIdeals,
    Inconclusive,
    NotUFD,
    ReducibleExchangePolynomial,
    UFD,
    conjecture_check,
    multi_indices_of_weight,
    ufd_verdict,
)
from clusterufd.fields import FieldTag
from clusterufd.groebner import (
    Ideal,
    ideal_intersection_many,
    ideal_product,
)
from clusterufd.parse import parse_polynomial
from clusterufd.poly import Polynomial

Q = FieldTag.Q

STUCK_ROWS = [[0, 2, 0, 0], [-2, 0, 2, 0], [0, -2, 0, 2], [0, 0, -2, 0]]


def criterion(number: int, limit_seconds: float):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
                elapsed = time.perf_counter() - start
                assert elapsed < limit_seconds, (
                    f"criterion {number} took {elapsed:.1f}s, "
                    f"limit {limit_seconds}s")
            except BaseException:
                elapsed = time.perf_counter() - start
                line = f"ACCEPTANCE {number} FAIL ({elapsed:.2f}s)"
                print(line)
                conftest.acceptance_record.append(line)
                raise
            line = f"ACCEPTANCE {number} PASS ({elapsed:.2f}s)"
            print(line)
            conftest.acceptance_record.append(line)
        return run
    return wrap


def random_member_poly(rng: random.Random, m: int,
                       max_terms: int = 3, max_exp: int = 2) -> Polynomial:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exp = tuple(rng.randint(0, max_exp) for _ in range(m))
        terms[exp] = Fraction(rng.randint(-3, 3))
    p = Polynomial(m, Q, terms)
    return p if not p.is_zero else Polynomial.one(m, Q)


@criterion(1, limit_seconds=10)
def test_criterion_1_mutation_involution():
    """Mutation twice is the identity, for matrices and for seeds."""
    # 1000 random connected skew-symmetrizable matrices, n <= 6,
    # entries in [-3, 3] (max_entry=1 times a symmetrizer entry <= 3).
    rng = random.Random(20_001)
    checked = 0
    while checked < 1000:
        n = rng.randint(1, 6)
        matrix = ExchangeMatrix(
            random_skew_symmetrizable(rng, n, frozen=rng.randint(0, 2),
                                      max_entry=1))
        if not structure_report(matrix).connected:
            continue
        assert all(abs(e) <= 3 for row in matrix.rows for e in row)
        k = rng.randint(1, n)
        assert matrix.mutate(k).mutate(k) == matrix
        checked += 1

    # the same at seed level, along 100 random mutation prefixes of A:4
    seed = builtin_seed("A:4")
    for _ in range(100):
        prefix = [rng.randint(1, 4) for _ in range(rng.randint(0, 5))]
        s = seed.mutate_sequence(prefix)
        k = rng.randint(1, 4)
        back = s.mutate(k).mutate(k)
        assert back.cluster == s.cluster and back.matrix == s.matrix


@criterion(2, limit_seconds=30)
def test_criterion_2_laurent_and_counts():
    """Known variable counts for short paths; D:4 completes Laurent-clean."""
    expected = {"A:2": 5, "A:3": 9, "A:4": 14}
    for name, count in expected.items():
        result, problems = verify_laurent_property(builtin_seed(name))
        assert result.complete and result.count == count, name
        assert problems == [], name
    result, problems = verify_laurent_property(builtin_seed("D:4"))
    assert result.complete and problems == []
    assert result.count == 16


@criterion(3, limit_seconds=5)
def test_criterion_3_cycle_counterexample():
    """The oriented triangle separates product from intersection."""
    ideals = ExchangeIdeals(builtin_matrix("cyclicA3"))
    outcome = conjecture_check(ideals, (1, 1, 1))
    assert outcome.status == "fails"
    witness = outcome.witness
    assert str(witness) == "x1 + x2 + x3"
    # Independently of conjecture_check: the witness is in every exchange
    # ideal but not in the product of the three.
    for i in (1, 2, 3):
        assert ideals.power_membership(witness, i, 1)
    product = ideal_product(
        ideal_product(ideals.power_ideal(1, 1), ideals.power_ideal(2, 1)),
        ideals.power_ideal(3, 1))
    assert not ideal_membership(witness, product)


@criterion(4, limit_seconds=5)
def test_criterion_4_necessary_condition_witnesses():
    """Coincident-pair and reducible-polynomial refutations, via verdicts."""
    verdict = ufd_verdict(ExchangeIdeals(builtin_matrix("A:3")))
    assert isinstance(verdict, NotUFD)
    witness = verdict.witness
    assert isinstance(witness, CoincidentExchangePolynomials)
    assert (witness.i, witness.j) == (1, 3)
    assert str(witness.value) == "x2 + 1"

    for name in ("D:4", "D:5"):
        verdict = ufd_verdict(ExchangeIdeals(builtin_matrix(name)))
        assert isinstance(verdict, NotUFD), name
        assert isinstance(verdict.witness, CoincidentExchangePolynomials), name

    verdict = ufd_verdict(ExchangeIdeals(builtin_matrix("kronecker"),
                                         FieldTag.QI))
    assert isinstance(verdict, NotUFD)
    witness = verdict.witness
    assert isinstance(witness, ReducibleExchangePolynomial)
    g, h = witness.factors
    assert g * h == parse_polynomial("1 + x2^2", 2, FieldTag.QI)


@criterion(5, limit_seconds=600)
def test_criterion_5_certified_factorial_seeds():
    """Complete verified certificates with Groebner cross-checks."""
    for name, bound in (("A:2", 4), ("A:4", 4), ("A:5", 3), ("A:6", 3),
                        ("E:6", 3)):
        ideals = ExchangeIdeals(builtin_matrix(name))
        verdict = ufd_verdict(ideals, degree_bound=bound)
        assert isinstance(verdict, UFD), name
        assert verdict.cross_checked_bound == bound, name
        assert len(verdict.certificate) == 2 ** ideals.n - 1, name
        assert verdict.certificate.verify(ideals.matrix) == [], name


@criterion(6, limit_seconds=60)
def test_criterion_6_rank2_family():
    """Rank-2 seeds: factorial over Q, the Kronecker seed splits over Qi."""
    for b, c in ((1, 1), (1, 2), (2, 2), (1, 4)):
        ideals = ExchangeIdeals(builtin_matrix(f"rank2:{b},{c}"))
        verdict = ufd_verdict(ideals, degree_bound=3)
        assert isinstance(verdict, UFD), (b, c)
    verdict = ufd_verdict(
        ExchangeIdeals(builtin_matrix("rank2:2,2"), FieldTag.QI))
    assert isinstance(verdict, NotUFD)
    assert isinstance(verdict.witness, ReducibleExchangePolynomial)


@criterion(7, limit_seconds=10)
def test_criterion_7_hypersurface_relations():
    """The once-mutated entries satisfy the recursive relation for n <= 5."""
    for n in (2, 3, 4, 5):
        assert hypersurface_relation_check(n), n


@criterion(8, limit_seconds=120)
def test_criterion_8_property_suites():
    """Four randomized suites, 500 seeded cases each, zero failures."""
    pool = {name: ExchangeIdeals(builtin_matrix(name))
            for name in ("A:2", "A:3")}

    # (a) valuations are additive on products
    rng = random.Random(30_001)
    for _ in range(500):
        ideals = pool[rng.choice(("A:2", "A:3"))]
        i = rng.randint(1, ideals.n)
        p = random_member_poly(rng, ideals.m)
        q = random_member_poly(rng, ideals.m)
        assert ideals.valuation(p * q, i) \
            == ideals.valuation(p, i) + ideals.valuation(q, i)

    # (b) exchange ideals behave prime, their powers primary
    rng = random.Random(30_002)
    for _ in range(500):
        ideals = pool[rng.choice(("A:2", "A:3"))]
        i = rng.randint(1, ideals.n)
        a = rng.randint(1, 3)
        p = random_member_poly(rng, ideals.m)
        q = random_member_poly(rng, ideals.m)
        if ideals.power_membership(p * q, i, 1):
            assert ideals.power_membership(p, i, 1) \
                or ideals.power_membership(q, i, 1)
        if ideals.power_membership(p * q, i, a) \
                and not ideals.power_membership(p, i, 1):
            assert ideals.power_membership(q, i, a)

    # (c) divisibility-based membership agrees with Groebner membership
    rng = random.Random(30_003)
    for _ in range(500):
        ideals = pool[rng.choice(("A:2", "A:3"))]
        i = rng.randint(1, ideals.n)
        a = rng.randint(1, 3)
        p = random_member_poly(rng, ideals.m)
        assert ideals.power_membership(p, i, a) \
            == ideal_membership(p, ideals.power_ideal(i, a))

    # (d) products of ideal powers sit inside their intersections
    rng = random.Random(30_004)
    choices = {name: [a for weight in (2, 3)
                      for a in multi_indices_of_weight(pool[name].n, weight)
                      if sum(1 for x in a if x) >= 2]
               for name in pool}
    for _ in range(500):
        name = rng.choice(("A:2", "A:3"))
        ideals = pool[name]
        a = choices[name][rng.randrange(len(choices[name]))]
        active = [i for i in range(1, ideals.n + 1) if a[i - 1]]
        powers = [ideals.power_ideal(i, a[i - 1]) for i in active]
        meet = ideal_intersection_many(powers)
        product = powers[0]
        for extra in powers[1:]:
            product = ideal_product(product, extra)
        for g in product.generators:
            assert ideal_membership(g, meet), (a, str(g))
        for g in meet.generators:
            for i in active:
                assert ideals.power_membership(g, i, a[i - 1]), (a, str(g))

    # (e) I_i + I_j is the unit ideal for every sink or source i and
    # adjacent mutable j, across the path seeds and E:6 (exhaustive)
    pairs = 0
    for name in ("A:2", "A:3", "A:4", "A:5", "A:6", "E:6"):
        ideals = ExchangeIdeals(builtin_matrix(name))
        report = structure_report(ideals.matrix)
        for i in report.sources + report.sinks:
            for j in report.neighbors[i - 1]:
                if j > ideals.n:
                    continue
                combined = Ideal(list(ideals.power_ideal(i, 1).generators)
                                 + list(ideals.power_ideal(j, 1).generators))
                assert is_unit_ideal(combined), (name, i, j)
                pairs += 1
    assert pairs >= 12


@criterion(9, limit_seconds=60)
def test_criterion_9_honest_incompleteness(tmp_path):
    """A seed beyond the lemmas yields Inconclusive, never a guessed UFD."""
    ideals = ExchangeIdeals(ExchangeMatrix(STUCK_ROWS))
    verdict = ufd_verdict(ideals, degree_bound=2)
    assert isinstance(verdict, Inconclusive)
    assert verdict.stuck_supports == ((2, 3),)
    assert verdict.verified_bound == 2

    seed_path = tmp_path / "stuck.json"
    seed_path.write_text(json.dumps(
        {"n": 4, "m": 4, "matrix": STUCK_ROWS}))
    import io
    from contextlib import redirect_stdout

    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli_main(["verdict", "--seed", str(seed_path),
                         "--bound", "1", "--json"])
    assert code == 2
    body = json.loads(buffer.getvalue())
    assert body["verdict"] == "Inconclusive"
    assert body["stuck_supports"] == [[2, 3]]
    assert body["verified_bound"] == 1

    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli_main(["prove-ufd", "--seed", str(seed_path), "--json"])
    assert code == 2
    assert json.loads(buffer.getvalue())["stuck_supports"] == [[2, 3]]
