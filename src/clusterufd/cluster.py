"""Seeds, exchange-matrix mutation and cluster-variable enumeration.

An extended exchange matrix has m rows and n <= m columns; indices 1..n are
mutable, n+1..m frozen.  The principal (top n x n) part must be
skew-symmetrizable.  Seeds carry one Laurent-polynomial entry per row and
mutate by the exchange relation; every entry a mutation produces is checked
to be Laurent with a denominator supported on mutable indices, and a
failure raises ``LaurentViolation`` since it can only mean a bug.
"""
from __future__ import annotations

import json
from collections import deque
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, NamedTuple, Optional, Sequence, Union

from .fields import FieldTag
from .poly import LaurentPolynomial, Polynomial


class LaurentViolation(RuntimeError):
    """A mutated entry failed to be Laurent; indicates an internal bug."""


# -- skew-symmetrizability ---------------------------------------------------

def find_skew_symmetrizer(principal: Sequence[Sequence[int]]):
    """(D, None) with minimal positive integer diagonal, or (None, refutation).

    D satisfies d_i * b_ij == -d_j * b_ji for all i, j.  The search assigns
    ratios along a spanning forest of the nonzero pattern and then verifies
    every pair, so any inconsistency is caught and named.
    """
    n = len(principal)
    for i in range(n):
        if principal[i][i] != 0:
            return None, f"diagonal entry b[{i + 1}][{i + 1}] = {principal[i][i]} is nonzero"
    for i in range(n):
        for j in range(i + 1, n):
            bij, bji = principal[i][j], principal[j][i]
            if (bij == 0) != (bji == 0) or bij * bji > 0:
                return None, (f"entries b[{i + 1}][{j + 1}] = {bij} and "
                              f"b[{j + 1}][{i + 1}] = {bji} violate sign "
                              f"skew-symmetry")
    d: list[Optional[Fraction]] = [None] * n
    components: list[list[int]] = []  # of the nonzero pattern
    for root in range(n):
        if d[root] is not None:
            continue
        d[root] = Fraction(1)
        members = [root]
        for i in members:  # grows as the search reaches new indices
            for j in range(n):
                if principal[i][j] == 0 or d[j] is not None:
                    continue
                # d_i * |b_ij| == d_j * |b_ji|
                d[j] = d[i] * abs(principal[i][j]) / abs(principal[j][i])
                members.append(j)
        components.append(members)
    for i in range(n):
        for j in range(n):
            if d[i] * principal[i][j] != -d[j] * principal[j][i]:
                return None, (f"no symmetrizer: entries b[{i + 1}][{j + 1}] and "
                              f"b[{j + 1}][{i + 1}] are inconsistent with the "
                              f"spanning-forest ratios")
    # minimal positive integers, scaled per connected component
    out = [0] * n
    for members in components:
        scale = lcm(*(d[i].denominator for i in members))
        ints = [int(d[i] * scale) for i in members]
        shrink = gcd(*ints)
        for i, value in zip(members, ints):
            out[i] = value // shrink
    return tuple(out), None


class ExchangeMatrix:
    """An m x n integer exchange matrix with skew-symmetrizable principal part."""

    __slots__ = ("rows", "n", "m")

    def __init__(self, rows: Sequence[Sequence[int]]):
        rows = tuple(tuple(entry for entry in row) for row in rows)
        if not rows:
            raise ValueError("matrix needs at least one row")
        n = len(rows[0])
        m = len(rows)
        if n == 0:
            raise ValueError("matrix needs at least one column")
        if n > m:
            raise ValueError(f"more columns ({n}) than rows ({m})")
        for i, row in enumerate(rows):
            if len(row) != n:
                raise ValueError(f"row {i + 1} has {len(row)} entries, expected {n}")
            for j, entry in enumerate(row):
                if not isinstance(entry, int) or isinstance(entry, bool):
                    raise ValueError(
                        f"matrix[{i}][{j}]: expected an integer, got {entry!r}")
        _, refutation = find_skew_symmetrizer([rows[i][:n] for i in range(n)])
        if refutation is not None:
            raise ValueError(f"principal part is not skew-symmetrizable: {refutation}")
        self.rows = rows
        self.n = n
        self.m = m

    @classmethod
    def _raw(cls, rows: tuple, n: int, m: int) -> "ExchangeMatrix":
        self = object.__new__(cls)
        self.rows = rows
        self.n = n
        self.m = m
        return self

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j - 1] for row in self.rows)

    def principal(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self.rows[i][: self.n] for i in range(self.n))

    def mutate(self, k: int) -> "ExchangeMatrix":
        """Matrix mutation in direction k (mutable, 1-based).

        b'_ij = -b_ij if i = k or j = k, else b_ij + |b_ik| b_kj when
        b_ik b_kj > 0 and b_ij otherwise; a row other than k with b_ik = 0 is
        therefore unchanged and is reused as it is.
        """
        if not 1 <= k <= self.n:
            raise ValueError(f"mutation index {k} outside 1..{self.n}")
        kp = k - 1
        row_k = self.rows[kp]
        new_rows = []
        for i, row in enumerate(self.rows):
            bik = row[kp]
            if i == kp:
                row = tuple([-b for b in row])
            elif bik:
                row = [b + abs(bik) * bkj if bik * bkj > 0 else b
                       for b, bkj in zip(row, row_k)]
                row[kp] = -bik
                row = tuple(row)
            new_rows.append(row)
        return ExchangeMatrix._raw(tuple(new_rows), self.n, self.m)

    def neighbors(self, i: int) -> tuple[int, ...]:
        """Mutable indices j with b_ij != 0, for any row index i in 1..m."""
        row = self.rows[i - 1]
        return tuple(j for j in range(1, self.n + 1) if row[j - 1] != 0)

    def is_source(self, i: int) -> bool:
        """No arrow points into i: column i is non-positive (all m rows)."""
        return all(row[i - 1] <= 0 for row in self.rows)

    def is_sink(self, i: int) -> bool:
        """No arrow points out of i: column i is non-negative (all m rows)."""
        return all(row[i - 1] >= 0 for row in self.rows)

    def __eq__(self, other):
        if not isinstance(other, ExchangeMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __str__(self):
        return "\n".join(" ".join(f"{b:3d}" for b in row) for row in self.rows)


def exchange_polynomial(matrix: ExchangeMatrix, j: int,
                        field: FieldTag = FieldTag.Q) -> Polynomial:
    """f_j = prod_{b_ij > 0} x_i^{b_ij} + prod_{b_ij < 0} x_i^{-b_ij}."""
    if not 1 <= j <= matrix.n:
        raise ValueError(f"column index {j} outside 1..{matrix.n}")
    col = matrix.column(j)
    pos = tuple([b if b > 0 else 0 for b in col])
    neg = tuple([-b if b < 0 else 0 for b in col])
    terms = {pos: 1}
    terms[neg] = terms.get(neg, 0) + 1  # a zero column gives the constant 2
    return Polynomial._raw(matrix.m, field, terms)


# -- graphs on the matrix ----------------------------------------------------

def is_connected(matrix: ExchangeMatrix) -> bool:
    """Whether the rows 1..m are connected by the nonzero entries b_ij."""
    m, n = matrix.m, matrix.n
    adj = [set() for _ in range(m)]
    for i in range(m):
        for j in range(n):
            if matrix.rows[i][j] != 0:
                adj[i].add(j)
                adj[j].add(i)
    seen = {0}
    queue = deque([0])
    while queue:
        i = queue.popleft()
        for j in adj[i]:
            if j not in seen:
                seen.add(j)
                queue.append(j)
    return len(seen) == m


def is_acyclic(matrix: ExchangeMatrix) -> bool:
    """No oriented cycle among mutable vertices (arrow i -> j iff b_ij > 0).

    Kahn's algorithm (A. B. Kahn, *Topological sorting of large networks*,
    CACM 1962): vertices are removed as their in-degree reaches 0, and the
    quiver is acyclic exactly when every vertex is removed.
    """
    n, rows = matrix.n, matrix.rows
    indegree = [sum(rows[i][j] > 0 for i in range(n)) for j in range(n)]
    ready = [j for j in range(n) if not indegree[j]]
    for i in ready:                 # the list grows while it is read
        for j in range(n):
            if rows[i][j] > 0:
                indegree[j] -= 1
                if not indegree[j]:
                    ready.append(j)
    return len(ready) == n


class StructureReport(NamedTuple):
    """Combinatorial facts about an exchange matrix."""

    n: int
    m: int
    skew_symmetrizer: tuple[int, ...]
    connected: bool
    acyclic: bool
    sources: tuple[int, ...]
    sinks: tuple[int, ...]
    neighbors: tuple[tuple[int, ...], ...]  # entry i-1 lists N(i), i = 1..m


def structure_report(matrix: ExchangeMatrix) -> StructureReport:
    symmetrizer, _ = find_skew_symmetrizer(matrix.principal())
    sources = tuple(i for i in range(1, matrix.n + 1) if matrix.is_source(i))
    sinks = tuple(i for i in range(1, matrix.n + 1) if matrix.is_sink(i))
    return StructureReport(
        n=matrix.n,
        m=matrix.m,
        skew_symmetrizer=symmetrizer,
        connected=is_connected(matrix),
        acyclic=is_acyclic(matrix),
        sources=sources,
        sinks=sinks,
        neighbors=tuple(matrix.neighbors(i) for i in range(1, matrix.m + 1)),
    )


# -- seeds -------------------------------------------------------------------

class Seed:
    """An exchange matrix together with m Laurent cluster entries."""

    __slots__ = ("matrix", "cluster", "field")

    def __init__(self, matrix: ExchangeMatrix,
                 cluster: Sequence[LaurentPolynomial], field: FieldTag):
        cluster = tuple(cluster)
        if len(cluster) != matrix.m:
            raise ValueError(f"cluster has {len(cluster)} entries, expected {matrix.m}")
        self.matrix = matrix
        self.cluster = cluster
        self.field = field

    @classmethod
    def initial(cls, matrix: ExchangeMatrix, field: FieldTag = FieldTag.Q) -> "Seed":
        cluster = tuple(LaurentPolynomial.variable(i, matrix.m, field)
                        for i in range(1, matrix.m + 1))
        return cls(matrix, cluster, field)

    def mutable_entries(self) -> tuple[LaurentPolynomial, ...]:
        return self.cluster[: self.matrix.n]

    def mutate(self, k: int, exchanges: Optional[dict] = None) -> "Seed":
        """Exchange the k-th entry and mutate the matrix.

        The new entry is f_k evaluated at the cluster, divided exactly by the
        old entry; the Laurent phenomenon makes that quotient Laurent.

        ``exchanges``, a fresh dict unless given, maps each exchange relation
        already evaluated to its new entry; ``enumerate_cluster_variables`` keeps
        one for the length of a search.  A relation is keyed by the old entry
        x_k and the unordered pair of its monomial sides, each the set of
        pairs (c_i, |b_ik|) over the rows, frozen ones included, with
        b_ik > 0 or with b_ik < 0.  The new entry
        (prod c_i^{b_ik} + prod c_i^{-b_ik}) / x_k depends on nothing else, so
        equal keys give equal entries by construction; unlike the search's
        edge skip, the cache rests on no theorem about cluster algebras.
        The matrix mutation and the frozen-denominator check run either way.
        """
        exchanges = {} if exchanges is None else exchanges
        matrix = self.matrix.mutate(k)
        old = self.cluster[k - 1]
        column = self.matrix.column(k)
        positive = frozenset([(c, b) for c, b in zip(self.cluster, column) if b > 0])
        negative = frozenset([(c, -b) for c, b in zip(self.cluster, column) if b < 0])
        key = (old, frozenset((positive, negative)))
        new_entry = exchanges.get(key)
        if new_entry is None:
            total = exchange_polynomial(self.matrix, k, self.field).substitute(self.cluster)
            try:
                new_entry = total / old
            except ValueError as exc:
                raise LaurentViolation(f"exchange quotient is not Laurent: {exc}") from None
            exchanges[key] = new_entry
        if any(new_entry.den[p] for p in range(self.matrix.n, self.matrix.m)):
            raise LaurentViolation(
                f"mutated entry {new_entry} has a frozen variable in its denominator")
        cluster = list(self.cluster)
        cluster[k - 1] = new_entry
        return Seed(matrix, tuple(cluster), self.field)

    def mutate_sequence(self, indices: Iterable[int]) -> "Seed":
        """Apply mutations in the order given (first index first)."""
        seed = self
        for k in indices:
            seed = seed.mutate(k)
        return seed

    def dedup_key(self) -> frozenset:
        return frozenset(self.mutable_entries())


# -- enumeration -------------------------------------------------------------

class EnumerationResult(NamedTuple):
    """Outcome of a breadth-first seed exploration."""

    variables: tuple[LaurentPolynomial, ...]
    complete: bool
    seeds_seen: int

    @property
    def count(self) -> int:
        return len(self.variables)


def enumerate_cluster_variables(seed: Seed, max_seeds: int = 10_000) -> EnumerationResult:
    """All cluster variables reachable from the seed, up to a seed budget.

    A breadth-first search over clusters: seeds are deduplicated by their
    unordered set of mutable entries, not by mutation path, so finite types
    terminate with ``complete=True``.  ``max_seeds`` bounds the seeds
    expanded; ``seeds_seen`` counts every distinct cluster found.

    Each exchange-graph edge is computed once.  Mutating a seed with key C
    at an entry x yields x' and a neighbour with key K; the pair (K, x') is
    then known, and a seed with key K is never mutated at x'.  Mutation is an
    involution, so that exchange leads back to C, which is already visited.
    The skip rests on the premise ``visited`` already rests on: a cluster
    determines its seed up to relabelling (Fomin-Zelevinsky, Cluster
    algebras II, Invent. Math. 2003, for finite type).  Skipped exchanges
    never find a new cluster, so the result and the queue order are those
    of a search that mutates every seed in every direction.  A complete
    enumeration of rank n with N seeds makes exactly n*N/2 mutations.

    The search also evaluates each exchange relation once: an ``exchanges``
    dict, passed to every ``Seed.mutate`` and dropped when the search
    returns, holds the new entry of each relation met so far (A:6 makes
    1,287 mutations over 126 distinct relations).
    """
    queue = deque([seed])
    visited = {seed.dedup_key()}
    known = set()  # (cluster key, entry) pairs whose exchange has been done
    exchanges = {}  # exchange relation -> new entry; see Seed.mutate
    variables = set(seed.mutable_entries())
    expanded = 0
    while queue and expanded < max_seeds:
        current = queue.popleft()
        expanded += 1
        current_key = current.dedup_key()
        for k in range(1, seed.matrix.n + 1):
            if (current_key, current.cluster[k - 1]) in known:
                continue
            neighbor = current.mutate(k, exchanges)
            key = neighbor.dedup_key()
            known.add((key, neighbor.cluster[k - 1]))
            if key not in visited:
                visited.add(key)
                variables.update(neighbor.mutable_entries())
                queue.append(neighbor)
    return EnumerationResult(
        variables=tuple(sorted(variables, key=str)),
        complete=not queue,
        seeds_seen=len(visited),
    )


def verify_laurent_property(seed: Seed, max_seeds: int = 1_000) -> tuple[EnumerationResult, list[str]]:
    """Enumerate and check every variable is Laurent with integer coefficients.

    Returns the enumeration plus a list of violation descriptions (expected
    to be empty; a violation would be a bug, not a mathematical discovery).
    """
    result = enumerate_cluster_variables(seed, max_seeds)
    integer = seed.field.is_integer_scalar
    return result, [f"{v}: non-integer coefficient" for v in result.variables
                    if not all(integer(c) for c in v.num.terms.values())]


# -- builtin families --------------------------------------------------------

MAX_ROWS = 256  # the most rows m of a seed file, and n of A_n and D_n (README)

def _matrix_from_arrows(n: int, arrows: Iterable[tuple[int, int]]) -> ExchangeMatrix:
    if n > MAX_ROWS:
        raise ValueError(f"rank {n} is above the largest builtin rank {MAX_ROWS}")
    rows = [[0] * n for _ in range(n)]
    for i, j in arrows:
        rows[i - 1][j - 1] = 1
        rows[j - 1][i - 1] = -1
    return ExchangeMatrix(rows)


def linear_a_matrix(n: int) -> ExchangeMatrix:
    """Type A_n with the linear orientation 1 -> 2 -> ... -> n."""
    if n < 1:
        raise ValueError("A requires n >= 1")
    return _matrix_from_arrows(n, ((i, i + 1) for i in range(1, n)))


def d_matrix(n: int) -> ExchangeMatrix:
    """Type D_n: a chain into n-2 with both fork tips pointing at n-2."""
    if n < 4:
        raise ValueError("D requires n >= 4")
    arrows = [(i, i + 1) for i in range(1, n - 2)]
    arrows += [(n - 1, n - 2), (n, n - 2)]
    return _matrix_from_arrows(n, arrows)


def e_matrix(n: int) -> ExchangeMatrix:
    """Type E_n for n in {6, 7, 8}: 1 -> 2 -> 3 <- 5 <- 6 <- ... <- n, 3 -> 4."""
    if n not in (6, 7, 8):
        raise ValueError("E requires n in {6, 7, 8}")
    arrows = [(1, 2), (2, 3), (3, 4)]
    arrows += [(k + 1, k) for k in range(5, n)]  # n -> ... -> 6 -> 5
    arrows += [(5, 3)]
    return _matrix_from_arrows(n, arrows)


def rank2_matrix(b: int, c: int) -> ExchangeMatrix:
    """Rank-2 matrix [[0, b], [-c, 0]] with b, c >= 1."""
    if b < 1 or c < 1:
        raise ValueError("rank2 requires positive weights")
    return ExchangeMatrix([[0, b], [-c, 0]])


def kronecker_matrix() -> ExchangeMatrix:
    return rank2_matrix(2, 2)


def cyclic_a3_matrix() -> ExchangeMatrix:
    """The oriented 3-cycle; the standard non-acyclic rank-3 example."""
    return ExchangeMatrix([[0, 1, -1], [-1, 0, 1], [1, -1, 0]])


def builtin_matrix(name: str) -> ExchangeMatrix:
    """Parse names like 'A:4', 'D:5', 'E:6', 'rank2:2,3', 'kronecker', 'cyclicA3'."""
    head, _, params = name.partition(":")
    try:
        if head == "A":
            return linear_a_matrix(int(params))
        if head == "D":
            return d_matrix(int(params))
        if head == "E":
            return e_matrix(int(params))
        if head == "rank2":
            b_txt, _, c_txt = params.partition(",")
            return rank2_matrix(int(b_txt), int(c_txt))
        if head == "kronecker" and not params:
            return kronecker_matrix()
        if head == "cyclicA3" and not params:
            return cyclic_a3_matrix()
    except ValueError as exc:
        raise ValueError(f"invalid builtin seed {name!r}: {exc}") from None
    raise ValueError(f"unknown builtin seed {name!r}")


def builtin_seed(name: str, field: FieldTag = FieldTag.Q) -> Seed:
    return Seed.initial(builtin_matrix(name), field)


# -- seed files --------------------------------------------------------------

def seed_from_dict(data: dict) -> Seed:
    """Build a seed from {"n", "m", "matrix", "field"?}, naming bad entries."""
    if not isinstance(data, dict):
        raise ValueError("seed file must contain a JSON object")
    allowed = {"n", "m", "matrix", "field"}
    unknown = set(data) - allowed
    if unknown:
        raise ValueError(f"unknown seed file keys: {sorted(unknown)}")
    for key in ("n", "m", "matrix"):
        if key not in data:
            raise ValueError(f"seed file is missing {key!r}")
    n, m = data["n"], data["m"]
    for key, value in (("n", n), ("m", m)):
        # JSON true and false load as bools, which are ints
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"{key}: expected an integer, got {value!r}")
    if n < 1 or m < n:
        raise ValueError(f"need integers 1 <= n <= m, got n={n!r}, m={m!r}")
    if m > MAX_ROWS:
        raise ValueError(f"m = {m} is above the largest number of rows {MAX_ROWS}")
    matrix = data["matrix"]
    if not isinstance(matrix, list) or len(matrix) != m:
        raise ValueError(f"matrix: expected {m} rows")
    for i, row in enumerate(matrix):
        if not isinstance(row, list) or len(row) != n:
            raise ValueError(f"matrix[{i}]: expected a row of {n} integers")
    field_name = data.get("field", "Q")
    if field_name not in ("Q", "Qi"):
        raise ValueError(f"field: expected 'Q' or 'Qi', got {field_name!r}")
    return Seed.initial(ExchangeMatrix(matrix), FieldTag(field_name))


def load_seed_file(path: str) -> Seed:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read seed file {path}: {exc}") from None
    except ValueError as exc:
        # a JSONDecodeError, or an integer past Python's 4300-digit limit
        raise ValueError(f"seed file {path} cannot be read as JSON: {exc}") from None
    return seed_from_dict(data)


# -- hypersurface relations --------------------------------------------------

def _relation(x1, primed):
    """R_n(x1, x'_1..x'_n) of linear A_n, n = len(primed), in any ring:
    R_0 = x1 - 1, R_1 = x1 x'_1 - 2, R_k = x'_k R_{k-1} + x'_k - R_{k-2} - 2
    (Berenstein-Fomin-Zelevinsky, Cluster algebras III, Duke 2005)."""
    before, relation = x1 - 1, x1 * primed[0] - 2
    for value in primed[1:]:
        before, relation = relation, value * relation + value - before - 2
    return relation


def hypersurface_relation_check(n: int) -> bool:
    """Evaluate R_n at x1 and the entries of linear A_n mutated once at
    1..n, and confirm it vanishes; R_k evaluates to x_{k+1} - 1 for k < n."""
    if n < 2:
        raise ValueError("hypersurface relations need n >= 2")
    seed = Seed.initial(linear_a_matrix(n))
    primed = [seed.mutate(k).cluster[k - 1] for k in range(1, n + 1)]
    return _relation(seed.cluster[0], primed).is_zero
