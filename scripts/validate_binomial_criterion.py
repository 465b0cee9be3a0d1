#!/usr/bin/env python3
"""Exhaustively cross-validate the binomial irreducibility criterion.

Sweeps every disjoint-support unit binomial shape (a pair of exponent
partitions, one per monomial) with per-side total degree up to the bound,
and compares the closed-form criterion against an independent factoring
backend over both coefficient fields.  The default bound of 8 covers 2277
shapes per field and takes a few minutes, dominated by many-variable
Gaussian-rational factorizations.

Usage:
    python3 scripts/validate_binomial_criterion.py [--max-degree 8] [--field both]

Exits 1 if any disagreement is found (none are expected).
"""
from __future__ import annotations

import argparse
import sys
import time

from clusterufd.factoriality import binomial_irreducible, brute_force_factor
from clusterufd.fields import FieldTag
from clusterufd.poly import Polynomial


def partitions_through(total: int) -> list[tuple[int, ...]]:
    out = {()}

    def rec(remaining, cap, prefix):
        for first in range(min(remaining, cap), 0, -1):
            out.add(prefix + (first,))
            rec(remaining - first, first, prefix + (first,))

    rec(total, total, ())
    return sorted(out)


def shape_binomial(a: tuple, b: tuple, field: FieldTag) -> Polynomial:
    m = max(len(a) + len(b), 1)
    e1 = tuple(a) + (0,) * (m - len(a))
    e2 = (0,) * len(a) + tuple(b) + (0,) * (m - len(a) - len(b))
    return Polynomial(m, field, {e1: 1, e2: 1})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-degree", type=int, default=8,
                        help="largest per-side total degree to sweep")
    parser.add_argument("--field", choices=("Q", "Qi", "both"), default="both")
    args = parser.parse_args(argv)

    shapes = partitions_through(args.max_degree)
    pairs = [(a, b) for i, a in enumerate(shapes) for b in shapes[i:] if a or b]
    fields = {
        "Q": [FieldTag.Q],
        "Qi": [FieldTag.QI],
        "both": [FieldTag.Q, FieldTag.QI],
    }[args.field]
    print(f"{len(pairs)} shapes per field, fields: "
          f"{', '.join(f.value for f in fields)}")

    disagreements = []
    start = time.time()
    for field in fields:
        checked = 0
        t0 = time.time()
        for a, b in pairs:
            f = shape_binomial(a, b, field)
            claim = binomial_irreducible(f)
            factors = brute_force_factor(f, max_degree=2 * args.max_degree)
            if factors is None:
                raise RuntimeError(f"search not exhaustive for {a} + {b}")
            if claim != (len(factors) == 1):
                disagreements.append((a, b, field.value, claim))
                print(f"  DISAGREE {a} + {b} over {field.value}: criterion "
                      f"{claim}, factors {[str(g) for g in factors]}")
            checked += 1
            if checked % 500 == 0:
                print(f"  [{field.value}] {checked}/{len(pairs)} "
                      f"({time.time() - t0:.0f}s)")
        print(f"[{field.value}] {checked} shapes in {time.time() - t0:.1f}s")

    print(f"total {time.time() - start:.1f}s, "
          f"{len(disagreements)} disagreement(s)")
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
