"""The reference job: fixed pure-Python work shaped like a clusterufd command.

Interpreter start, the sympy import, sparse polynomial products over
Fractions, and a dict of 150,000 small objects (about 40 MB) for the cost
of fresh memory, which dominates the large certificate commands.
``run.py`` runs it in a fresh process between timed commands and reports
each command's time relative to it, which cancels the speed swings of a
shared machine.  Changing this file changes every end-to-end number, so it
changes only together with the benchmark.
"""
from fractions import Fraction

import sympy  # noqa: F401  (the same start-up cost as the CLI)


def poly_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


p = {(1, 0, 0, 0): Fraction(1), (0, 1, 0, 0): Fraction(1, 2), (0, 0, 1, 1): Fraction(3)}
acc = {(0, 0, 0, 0): Fraction(1)}
for _ in range(12):
    acc = poly_mul(acc, p)
table = {i: (i, str(i)) for i in range(150_000)}
print(len(acc), len(table))
