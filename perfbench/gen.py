"""Seed matrices for the benchmark: the builtin families and seeded random ones.

Everything here is plain integer lists so the benchmark can describe and
check its inputs without importing the program under test.  A matrix has
``m`` rows and ``n`` columns; rows ``n+1..m`` are frozen.  An arrow i -> j
between mutable indices is b_ij = a, b_ji = -c with a, c >= 1.
"""
from __future__ import annotations

import json
import os
import random


def _from_arrows(n: int, arrows) -> list[list[int]]:
    rows = [[0] * n for _ in range(n)]
    for i, j in arrows:
        rows[i - 1][j - 1] = 1
        rows[j - 1][i - 1] = -1
    return rows


def builtin_rows(name: str) -> list[list[int]]:
    """The matrix of a builtin name, from the families' documented definitions."""
    head, _, params = name.partition(":")
    if head == "A":
        n = int(params)
        return _from_arrows(n, [(i, i + 1) for i in range(1, n)])
    if head == "D":
        n = int(params)
        arrows = [(i, i + 1) for i in range(1, n - 2)] + [(n - 1, n - 2), (n, n - 2)]
        return _from_arrows(n, arrows)
    if head == "E":
        n = int(params)
        arrows = [(1, 2), (2, 3), (3, 4), (5, 3)] + [(k + 1, k) for k in range(5, n)]
        return _from_arrows(n, arrows)
    if head == "kronecker":
        return [[0, 2], [-2, 0]]
    if head == "rank2":
        b, c = (int(tok) for tok in params.split(","))
        return [[0, b], [-c, 0]]
    raise ValueError(f"no definition for builtin {name!r}")


def _orient(rng: random.Random, n: int, edges, weights=(1,)) -> list[list[int]]:
    """Orient tree edges along a random ranking, which makes the quiver acyclic."""
    rank = list(range(n))
    rng.shuffle(rank)
    rows = [[0] * n for _ in range(n)]
    for u, v in edges:
        if rank[u] > rank[v]:
            u, v = v, u
        rows[u][v] = rng.choice(weights)
        rows[v][u] = -rng.choice(weights)
    return rows


def _add_frozen(rng: random.Random, rows: list[list[int]], frozen: int) -> list[list[int]]:
    """Frozen rows with entries in {-1, 0, 1}, each touching at least one
    mutable index so the seed stays connected."""
    n = len(rows[0])
    out = list(rows)
    for _ in range(frozen):
        row = [rng.choice((-1, 0, 0, 1)) for _ in range(n)]
        row[rng.randrange(n)] = rng.choice((-1, 1))
        out.append(row)
    return out


def random_tree_seed(rng: random.Random, n: int, frozen: int,
                     weights=(1,)) -> list[list[int]]:
    """A connected acyclic seed: random spanning tree, random orientation."""
    order = list(range(n))
    rng.shuffle(order)
    edges = [(order[k], order[rng.randrange(k)]) for k in range(1, n)]
    return _add_frozen(rng, _orient(rng, n, edges, weights), frozen)


def random_a_seed(rng: random.Random, n: int, frozen: int) -> list[list[int]]:
    """Type A_n (a path) with a random orientation and frozen rows."""
    edges = [(k, k + 1) for k in range(n - 1)]
    return _add_frozen(rng, _orient(rng, n, edges), frozen)


def random_d_seed(rng: random.Random, n: int, frozen: int) -> list[list[int]]:
    """Type D_n (a path of n-2 nodes plus a fork) with a random orientation."""
    edges = [(k, k + 1) for k in range(n - 3)] + [(n - 3, n - 2), (n - 3, n - 1)]
    return _add_frozen(rng, _orient(rng, n, edges), frozen)


def write_seed(directory: str, name: str, rows: list[list[int]]) -> str:
    """Write a seed-JSON file and return its path."""
    path = os.path.join(directory, f"{name}.json")
    body = {"n": len(rows[0]), "m": len(rows), "matrix": rows, "field": "Q"}
    with open(path, "w") as fh:
        json.dump(body, fh)
    return path
