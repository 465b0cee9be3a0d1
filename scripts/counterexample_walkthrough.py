#!/usr/bin/env python3
"""Walk through the oriented-3-cycle counterexample to ideal equality.

For the cyclic orientation of the triangle the product of the three
exchange ideals is strictly smaller than their intersection: the element
x1 + x2 + x3 lies in every (x_i, f_i) yet cannot be written as a
combination from the product.  This script recomputes every step and
prints the intermediate objects, so the failure can be inspected rather
than taken on faith.
"""
from __future__ import annotations

import sys

from clusterufd.cluster import builtin_matrix, structure_report
from clusterufd.factoriality import ExchangeIdeals, conjecture_check
from clusterufd.groebner import ideal_intersection_many, ideal_product, normal_form
from clusterufd.poly import render_polynomial


def main() -> int:
    matrix = builtin_matrix("cyclicA3")
    report = structure_report(matrix)
    print("exchange matrix rows:", matrix.rows)
    print("acyclic:", report.acyclic, "(the certificate machinery needs"
          " acyclicity; this seed is the smallest cyclic one)")

    ideals = ExchangeIdeals(matrix)
    for i in (1, 2, 3):
        print(f"  f_{i} = {render_polynomial(ideals.exchange_poly(i))}")

    powers = [ideals.power_ideal(i, 1) for i in (1, 2, 3)]
    meet = ideal_intersection_many(powers)
    print("intersection generators:",
          [render_polynomial(g) for g in meet.generators])

    product = ideal_product(ideal_product(powers[0], powers[1]), powers[2])
    basis = product.groebner_basis()
    witnesses = [g for g in meet.generators if not normal_form(g, basis).is_zero]
    print("intersection members missing from the product:",
          [render_polynomial(g) for g in witnesses])

    for a in ((0, 1, 1), (1, 1, 0), (1, 1, 1)):
        outcome = conjecture_check(ideals, a)
        extra = f" witness {outcome.witness}" if outcome.witness is not None else ""
        print(f"multi-index {a}: {outcome.status}{extra}")

    # Independent sanity check: the witness is in each ideal by inspection,
    # since x1 + x2 + x3 = x_i + f_i for every i in this orientation.
    w = witnesses[0]
    for i in (1, 2, 3):
        diff = w - ideals.variable(i) - ideals.exchange_poly(i)
        print(f"w - x{i} - f_{i} = {render_polynomial(diff)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
