#!/usr/bin/env python3
"""Factoriality verdicts across the standard acyclic families.

Reproduces the expected pattern: a seed loses factoriality exactly when
two exchange polynomials coincide (the two ends of A_3 both see x2 + 1;
the fork tips of D_n share a polynomial) or when one factors (the
Kronecker binomial x2^2 + 1 splits over Q(i)).  Longer paths, E types and
the rank-2 seeds over Q all carry complete certificates.

Usage:
    python3 scripts/reproduce_dynkin_table.py [--bound 3]
"""
from __future__ import annotations

import argparse
import sys
import time

from clusterufd.cluster import builtin_matrix
from clusterufd.factoriality import (
    ExchangeIdeals,
    Inconclusive,
    NotUFD,
    UFD,
    ufd_verdict,
)
from clusterufd.fields import FieldTag

CASES = [
    ("A:2", "Q"), ("A:3", "Q"), ("A:4", "Q"), ("A:5", "Q"), ("A:6", "Q"),
    ("D:4", "Q"), ("D:5", "Q"), ("D:6", "Q"),
    ("E:6", "Q"), ("E:7", "Q"), ("E:8", "Q"),
    ("rank2:1,1", "Q"), ("rank2:1,2", "Q"), ("rank2:1,4", "Q"),
    ("kronecker", "Q"), ("kronecker", "Qi"),
    ("cyclicA3", "Q"),
]


def describe(verdict) -> str:
    if isinstance(verdict, UFD):
        return (f"UFD        certificate {len(verdict.certificate):4d} supports, "
                f"cross-checked to weight {verdict.cross_checked_bound}")
    if isinstance(verdict, NotUFD):
        return f"not UFD    {verdict.witness}"
    if isinstance(verdict, Inconclusive):
        return (f"open       verified to weight {verdict.verified_bound}; "
                f"{verdict.reason}")
    return str(verdict)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bound", type=int, default=3,
                        help="cross-check ideal equality up to this weight")
    args = parser.parse_args(argv)

    for name, field_name in CASES:
        field = FieldTag(field_name)
        ideals = ExchangeIdeals(builtin_matrix(name), field)
        t0 = time.time()
        verdict = ufd_verdict(ideals, degree_bound=args.bound)
        elapsed = time.time() - t0
        label = f"{name} / {field_name}"
        print(f"{label:18s} {describe(verdict)}   ({elapsed:.2f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
