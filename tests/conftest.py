"""Shared helpers: deterministic random generators, fresh-interpreter runs
and acceptance reporting."""
from __future__ import annotations

import os
import random
import subprocess
import sys
from fractions import Fraction

import clusterufd
from clusterufd.fields import FieldTag, GaussianRational
from clusterufd.poly import LaurentPolynomial, Polynomial

# the directory holding the package under test, for fresh interpreters
SRC = os.path.dirname(os.path.dirname(os.path.abspath(clusterufd.__file__)))

# One line per acceptance criterion, echoed after the test summary so the
# PASS/FAIL record survives pytest's output capture.
acceptance_record: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_record:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_record:
            terminalreporter.write_line(line)


def python_env() -> dict:
    """The environment with the package under test first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def run_python(*args: str, timeout: float = 120) -> subprocess.CompletedProcess:
    """``python *args`` in a fresh interpreter with the package under test
    first on PYTHONPATH; ``run_python("-m", "clusterufd.cli", ...)`` runs
    the CLI the way users and the benchmark do."""
    return subprocess.run([sys.executable, *args], env=python_env(),
                          capture_output=True, text=True, timeout=timeout)


def random_scalar(rng: random.Random, field: FieldTag, zero_ok: bool = True):
    def frac():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    while True:
        value = GaussianRational(frac(), frac()) if field is FieldTag.QI else frac()
        if zero_ok or value:
            return field.coerce(value)


def random_polynomial(rng: random.Random, m: int, field: FieldTag,
                      max_terms: int = 4, max_exp: int = 3,
                      nonzero: bool = False) -> Polynomial:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exp = tuple(rng.randint(0, max_exp) for _ in range(m))
        terms[exp] = random_scalar(rng, field)
    p = Polynomial(m, field, terms)
    if nonzero and p.is_zero:
        return Polynomial.one(m, field)
    return p


def random_laurent(rng: random.Random, m: int, field: FieldTag,
                   max_terms: int = 4, max_exp: int = 3) -> LaurentPolynomial:
    num = random_polynomial(rng, m, field, max_terms, max_exp)
    den = tuple(rng.randint(0, 2) for _ in range(m))
    return LaurentPolynomial(num, den)


def random_skew_symmetrizable(rng: random.Random, n: int, frozen: int = 0,
                              max_entry: int = 3):
    """Random m x n rows with skew-symmetrizable principal part."""
    d = [rng.randint(1, 3) for _ in range(n)]
    rows = [[0] * n for _ in range(n + frozen)]
    for i in range(n):
        for j in range(i + 1, n):
            c = rng.randint(-max_entry, max_entry)
            rows[i][j] = c * d[j]
            rows[j][i] = -c * d[i]
    for i in range(n, n + frozen):
        for j in range(n):
            rows[i][j] = rng.randint(-max_entry, max_entry)
    return rows


def random_acyclic_seed(rng: random.Random, n: int, frozen: int,
                        weights=(1, 2)) -> list[list[int]]:
    """Rows of a connected acyclic seed, as ``perfbench/gen.random_tree_seed``
    builds them: a random spanning tree oriented along a random ranking,
    arrow weights b_uv = a, b_vu = -c drawn from ``weights``, then frozen
    rows with entries in {-1, 0, 1} that each touch a mutable index."""
    order = list(range(n))
    rng.shuffle(order)
    rank = list(range(n))
    rng.shuffle(rank)
    rows = [[0] * n for _ in range(n)]
    for k in range(1, n):
        u, v = order[k], order[rng.randrange(k)]
        if rank[u] > rank[v]:
            u, v = v, u
        rows[u][v] = rng.choice(weights)
        rows[v][u] = -rng.choice(weights)
    for _ in range(frozen):
        row = [rng.choice((-1, 0, 0, 1)) for _ in range(n)]
        row[rng.randrange(n)] = rng.choice((-1, 1))
        rows.append(row)
    return rows
