"""Cross-validate the binomial irreducibility criterion against factoring.

Every disjoint-support unit binomial is determined up to relabeling by the
pair of exponent multisets of its two monomials, so sweeping partition
pairs covers all shapes that can arise as exchange binomials.  This file
checks every shape with per-side degree <= 5 over both fields, plus a
curated band of higher-degree shapes chosen to exercise each branch of the
criterion (gcd a power of two, an odd prime factor, gcd one).  The
exhaustive sweep through per-side degree 8 takes several minutes and lives
in scripts/validate_binomial_criterion.py.
"""
from __future__ import annotations

import pytest

from clusterufd.factoriality import (
    binomial_irreducible,
    binomial_witness_factors,
    brute_force_factor,
)
from clusterufd.fields import FieldTag
from clusterufd.poly import Polynomial


def partitions_through(total: int):
    """All non-increasing tuples of positive integers with sum <= total."""
    out = [()]

    def rec(remaining, cap, prefix):
        for first in range(min(remaining, cap), 0, -1):
            out.append(prefix + (first,))
            rec(remaining - first, first, prefix + (first,))

    for s in range(1, total + 1):
        rec(s, s, ())
    # Deduplicate: rec reaches the same prefix once per target sum.
    return sorted(set(out))


def shape_binomial(a: tuple, b: tuple, field: FieldTag) -> Polynomial:
    m = max(len(a) + len(b), 1)
    e1 = tuple(a) + (0,) * (m - len(a))
    e2 = (0,) * len(a) + tuple(b) + (0,) * (m - len(a) - len(b))
    return Polynomial(m, field, {e1: 1, e2: 1})


def assert_criterion_matches_search(a, b, field):
    f = shape_binomial(a, b, field)
    claim = binomial_irreducible(f)
    assert claim is not None, (a, b)
    factors = brute_force_factor(f)
    assert factors is not None, (a, b)
    assert claim == (len(factors) == 1), (a, b, field, claim)
    witness = binomial_witness_factors(f)
    if claim:
        assert witness is None
    else:
        g, h = witness
        assert g * h == f


@pytest.mark.parametrize("field", [FieldTag.Q, FieldTag.QI],
                         ids=["Q", "Qi"])
def test_exhaustive_small_shapes(field):
    shapes = partitions_through(5)
    for i, a in enumerate(shapes):
        for b in shapes[i:]:
            if not a and not b:
                continue
            assert_criterion_matches_search(a, b, field)


BOUNDARY_SHAPES = [
    ((6,), (6,)),            # gcd 6: odd prime factor
    ((7,), (7,)),            # gcd 7
    ((8,), (8,)),            # gcd 8 = 2^3: splits only over Qi
    ((8,), (4,)),            # gcd 4
    ((6,), (4,)),            # gcd 2
    ((6,), (8,)),            # gcd 2
    ((4, 4), (8,)),          # gcd 4 with a split side
    ((3, 3), (6,)),          # gcd 3
    ((4, 2), (6,)),          # gcd 2
    ((6,), (2, 2, 2)),       # gcd 2
    ((2, 2, 2), (3, 3)),     # gcd 1: irreducible over both fields
    ((7,), (2, 2, 1, 1)),    # gcd 1
    ((5, 1), (6,)),          # gcd 1
    ((8,), (6, 2)),          # gcd 2
]


@pytest.mark.parametrize("field", [FieldTag.Q, FieldTag.QI],
                         ids=["Q", "Qi"])
@pytest.mark.parametrize("a,b", BOUNDARY_SHAPES)
def test_higher_degree_boundary(a, b, field):
    assert_criterion_matches_search(a, b, field)


def test_sum_of_two_squares_shape():
    # gcd(6, 6, 4) = 2, so u^6 + v^6 w^4 = A^2 + B^2 with A, B coprime
    # monomials: irreducible over Q, splits as (A+iB)(A-iB) over Qi.
    assert binomial_irreducible(shape_binomial((6,), (6, 4), FieldTag.Q)) is True
    assert binomial_irreducible(shape_binomial((6,), (6, 4), FieldTag.QI)) is False
    for field in (FieldTag.Q, FieldTag.QI):
        assert_criterion_matches_search((6,), (6, 4), field)
