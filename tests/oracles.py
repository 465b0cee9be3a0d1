"""Independent oracles for the tests: slower or more direct ways to compute
what the package computes, kept out of the package because nothing but the
tests uses them."""
from __future__ import annotations

from bisect import insort
from collections import deque
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, islice
from typing import Optional

from clusterufd.cluster import Seed
from clusterufd.factoriality import (ExchangeIdeals, FreeIndex, FreeVariable,
                                     SinkSourceSplit)
from clusterufd.fields import FieldTag
from clusterufd.groebner import DEFAULT_BUDGET, GroebnerBasis, Ideal, normal_form
from clusterufd.poly import (GREVLEX, MonomialOrder, Polynomial, ev_add,
                             ev_divides, ev_sub)


def power_membership_linear(ideals: ExchangeIdeals, p: Polynomial, i: int,
                            a: int, k: int) -> bool:
    """Membership in (x_i, f_i)^a via expansion in powers of f_i = x_k + M.

    Requires f_i to contain the bare variable x_k with coefficient one.
    Substituting x_k = T - M for a fresh symbol T writes p = sum_r A_r f_i^r
    with A_r free of x_k; membership then reads x_i^(a-r) divides A_r.
    Exists as an independent oracle for the divisibility-based test.
    """
    f = ideals.exchange_poly(i)
    m, fld = ideals.m, ideals.field
    x_k = Polynomial.variable(k, m, fld)
    monomial_part = f - x_k
    if len(monomial_part.terms) != 1:
        raise ValueError(f"f_{i} = {f} is not of the form x{k} + monomial")
    if monomial_part.degree_in(k) > 0:
        raise ValueError(f"f_{i} = {f} involves x{k} beyond the linear term")
    m2 = m + 1
    lift = {e + (0,): c for e, c in monomial_part.terms.items()}
    minus_m = Polynomial(m2, fld, {e: -c for e, c in lift.items()})
    t_minus_m = Polynomial(m2, fld, {(0,) * m + (1,): 1}) + minus_m
    kp = k - 1
    acc = Polynomial.zero(m2, fld)
    for exp, c in p.terms.items():
        stripped = exp[:kp] + (0,) + exp[kp + 1:] + (0,)
        term = Polynomial(m2, fld, {stripped: c})
        if exp[kp]:
            term = term * t_minus_m ** exp[kp]
        acc = acc + term
    if a == 0 or p.is_zero:
        return True
    for r in range(a):
        a_r = acc.coefficient_of(m2, r)
        if a_r.is_zero:
            continue
        if min(e[i - 1] for e in a_r.terms) < a - r:
            return False
    return True


# The package's ``divide_exact`` as it stood when it divided under grevlex,
# kept as the reference that the order-free division must agree with.
def divide_exact_grevlex(p: Polynomial, q: Polynomial) -> Optional[Polynomial]:
    """The quotient p/q when q divides p exactly, else None.

    Single-divisor multivariate division under grevlex: whenever a term
    would land in the remainder the division cannot be exact, so we stop
    early.

    Each term is keyed once, when it enters the remainder, into a queue
    sorted by key.  Every term a step adds lies below the leading term it
    cancels, so the largest queued term still in the remainder is the
    leading term; a queued term that has since cancelled is skipped when it
    comes up.
    """
    p._check_compatible(q)
    if q.is_zero:
        raise ZeroDivisionError("division by zero polynomial")
    if p.is_zero:
        return Polynomial.zero(p.m, p.field)
    q_exp, q_coeff = q.leading(GREVLEX)
    q_terms = list(q.terms.items())
    key, div = GREVLEX.key, p.field.div
    rem, quot = dict(p.terms), {}
    queue = sorted((key(e), e) for e in rem)
    while rem:
        exp = queue.pop()[1]
        if exp not in rem:
            continue
        if not ev_divides(q_exp, exp):
            return None
        factor = div(rem[exp], q_coeff)
        shift = ev_sub(exp, q_exp)
        quot[shift] = factor
        for e2, c2 in q_terms:
            tgt = ev_add(shift, e2)
            if tgt in rem:
                s = rem[tgt] - factor * c2
                if s:
                    rem[tgt] = s
                else:
                    del rem[tgt]
            else:
                rem[tgt] = -factor * c2
                insort(queue, (key(tgt), tgt))
    return Polynomial._raw(p.m, p.field, quot)


def s_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    """(L / lt(f)) f - (L / lt(g)) g with L the lcm of the leading monomials
    and f, g made monic."""
    f_exp, f_lc = f.leading(order)
    g_exp, g_lc = g.leading(order)
    lcm = tuple(max(a, b) for a, b in zip(f_exp, g_exp))

    def cofactor(exp, lc):
        return Polynomial.monomial(Fraction(1) / lc,
                                   tuple(x - e for x, e in zip(lcm, exp)),
                                   f.m, f.field)

    return cofactor(f_exp, f_lc) * f - cofactor(g_exp, g_lc) * g


def basis_is_unit(basis: GroebnerBasis) -> bool:
    """Whether a reduced basis is {1}."""
    return len(basis) == 1 and basis.polys[0].total_degree() == 0


def is_unit_ideal(ideal: Ideal, budget: int = DEFAULT_BUDGET) -> bool:
    """Whether the ideal is all of the ring (reduced basis {1})."""
    return basis_is_unit(ideal.groebner_basis(budget=budget))


def ideal_membership(p: Polynomial, ideal: Ideal,
                     budget: int = DEFAULT_BUDGET) -> bool:
    """Whether p lies in the ideal, by reduction to zero."""
    if p.is_zero:
        return True
    return normal_form(p, ideal.groebner_basis(budget)).is_zero


def ideal_power(ideal: Ideal, k: int) -> Ideal:
    """I^k; by convention I^0 is the unit ideal."""
    if k < 0:
        raise ValueError("ideal powers take non-negative exponents")
    if k == 0:
        return Ideal([Polynomial.one(ideal.m, ideal.field)])
    gens = []
    for combo in combinations_with_replacement(ideal.generators, k):
        g = combo[0]
        for h in combo[1:]:
            g = g * h
        gens.append(g)
    return Ideal(gens)


def ideal_equal(left: Ideal, right: Ideal,
                budget: int = DEFAULT_BUDGET) -> bool:
    """Mutual containment via normal forms."""
    right_basis = right.groebner_basis(budget=budget)
    if not all(normal_form(g, right_basis).is_zero for g in left.generators):
        return False
    left_basis = left.groebner_basis(budget=budget)
    return all(normal_form(h, left_basis).is_zero for h in right.generators)


class RowsOracle:
    """The three lemmas' side conditions, read straight from the rows."""

    def __init__(self, rows):
        self.rows, self.n, self.m = rows, len(rows[0]), len(rows)

    def neighbors(self, r):
        return {j + 1 for j in range(self.n) if self.rows[r - 1][j] and j + 1 != r}

    def source_or_sink(self, i):
        column = [row[i - 1] for row in self.rows]
        return all(b <= 0 for b in column) or all(b >= 0 for b in column)

    def unit_pivots(self, i):
        """k such that f_i has the term x_k with coefficient one."""
        column = [row[i - 1] for row in self.rows]
        out = set()
        for sign in (1, -1):
            part = [k + 1 for k, b in enumerate(column) if sign * b > 0]
            if len(part) == 1 and sign * column[part[0] - 1] == 1:
                out.add(part[0])
        return out

    def holds(self, support, just):
        s = set(support)
        if isinstance(just, SinkSourceSplit):
            i, j = just.i, just.j
            return (i in s and j in s and i != j and self.source_or_sink(i)
                    and j in self.neighbors(i))
        if isinstance(just, FreeIndex):
            return just.i in s and not self.neighbors(just.i) & s
        i, k = just.i, just.k
        return (i in s and 1 <= k <= self.m and k != i
                and not (k <= self.n and k in s) and k in self.unit_pivots(i)
                and not (self.neighbors(k) - {i}) & s)

    def first_match(self, support):
        """The first rule that holds, in the order sink/source split by
        (i, j), free index by i, free variable by (i, k)."""
        candidates = ([SinkSourceSplit(i, j) for i in support for j in support]
                      + [FreeIndex(i) for i in support]
                      + [FreeVariable(i, k) for i in support
                         for k in range(1, self.m + 1)])
        return next((c for c in candidates if self.holds(support, c)), None)


def certificate_entries(certificate) -> dict:
    """Each nonempty support's first rule (None when no cube holds), in
    ``combinations`` order, read from ``SupportCertificate.listing``; this
    lists all 2^n - 1 supports, so it is for small n only."""
    rules = [rule for _, _, rule in certificate.cubes] + [None]
    return {support: rules[first]
            for support, first in certificate.listing(range(1, certificate.n + 1))}


def oracle_listing(rows) -> list[dict]:
    """The per-support listing of a certified seed as a list of dicts, each
    support's rule taken from ``RowsOracle.first_match``, so it shares no
    code with the package's first-cube table: ``json.dumps`` of these under
    the "certificate" key is the byte-exact reference."""
    oracle = RowsOracle(rows)
    indices = range(1, oracle.n + 1)
    return [{"support": list(support), **oracle.first_match(support).to_json()}
            for size in indices for support in combinations(indices, size)]


def every_direction_search(seed: Seed):
    """A breadth-first search over clusters that mutates every expanded seed
    in every direction, with no exchange skipped.  After the k-th seed is
    expanded it yields ``(variables, seeds_seen, complete)``, which is what
    ``enumerate_cluster_variables`` must return at ``max_seeds=k``."""
    queue = deque([seed])
    visited = {seed.dedup_key()}
    variables = set(seed.mutable_entries())
    while queue:
        current = queue.popleft()
        for k in range(1, seed.matrix.n + 1):
            neighbor = current.mutate(k)
            key = neighbor.dedup_key()
            if key not in visited:
                visited.add(key)
                variables.update(neighbor.mutable_entries())
                queue.append(neighbor)
        yield tuple(sorted(variables, key=str)), len(visited), not queue


def enumerate_every_direction(seed: Seed, max_seeds: int):
    """``every_direction_search``'s answer with at most ``max_seeds`` seeds
    expanded."""
    *_, last = islice(every_direction_search(seed), max_seeds)
    return last


def hypersurface_relation(n: int) -> Polynomial:
    """The polynomial relating x_1 and the once-mutated entries of linear A_n.

    Lives in n+1 variables: position 1 is x_1, positions 2..n+1 are the
    entries obtained by mutating the initial seed once at 1, ..., n.
    """
    if n < 2:
        raise ValueError("hypersurface relations need n >= 2")
    m2 = n + 1
    field = FieldTag.Q
    x1 = Polynomial.variable(1, m2, field)
    primed = [None] + [Polynomial.variable(i + 1, m2, field) for i in range(1, n + 1)]
    relations: dict[int, Polynomial] = {}
    relations[2] = x1 * primed[1] * primed[2] - x1 - primed[2] - 1
    if n >= 3:
        relations[3] = (x1 * primed[1] * primed[2] * primed[3]
                        - primed[2] * primed[3] - x1 * primed[3] - x1 * primed[1])
    for k in range(4, n + 1):
        relations[k] = (primed[k] * relations[k - 1] + primed[k]
                        - relations[k - 2] - 2)
    return relations[n]
