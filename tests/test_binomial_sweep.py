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

import importlib
import os

import pytest

from clusterufd.factoriality import (
    binomial_irreducible,
    binomial_witness_factors,
    brute_force_factor,
)
from clusterufd.fields import FieldTag

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "scripts")


@pytest.fixture
def shapes(monkeypatch):
    """The shape helpers of scripts/validate_binomial_criterion.py."""
    monkeypatch.syspath_prepend(SCRIPTS)
    return importlib.import_module("validate_binomial_criterion")


def assert_criterion_matches_search(shapes, a, b, field):
    f = shapes.shape_binomial(a, b, field)
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
def test_exhaustive_small_shapes(shapes, field):
    parts = shapes.partitions_through(5)
    for i, a in enumerate(parts):
        for b in parts[i:]:
            if not a and not b:
                continue
            assert_criterion_matches_search(shapes, a, b, field)


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
def test_higher_degree_boundary(shapes, a, b, field):
    assert_criterion_matches_search(shapes, a, b, field)


def test_sum_of_two_squares_shape(shapes):
    # gcd(6, 6, 4) = 2, so u^6 + v^6 w^4 = A^2 + B^2 with A, B coprime
    # monomials: irreducible over Q, splits as (A+iB)(A-iB) over Qi.
    f = shapes.shape_binomial((6,), (6, 4), FieldTag.Q)
    assert binomial_irreducible(f) is True
    f = shapes.shape_binomial((6,), (6, 4), FieldTag.QI)
    assert binomial_irreducible(f) is False
    for field in (FieldTag.Q, FieldTag.QI):
        assert_criterion_matches_search(shapes, (6,), (6, 4), field)
