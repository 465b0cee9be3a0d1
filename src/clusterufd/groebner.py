"""Groebner bases via Buchberger's algorithm, with ideal operations.

The kernel is deliberately plain: the normal selection strategy, with
S-pairs kept in a heap keyed by (lcm degree, i, j) so the smallest lcm
degree goes first and ties go to the lowest index pair; the
coprime-leading-term and chain criteria; full tail reduction; and reduced
monic output sorted by descending leading term, so identical inputs always
produce identical bases.  Each Buchberger run counts its S-pair reductions
against an integer budget and its basis size against the fixed cap
``MAX_BASIS``; passing either raises ``BudgetExceeded`` rather than
silently truncating.  The sequence of S-pair reductions is part of that
budget contract: a given input needs the same number of reductions on every
run, so a budget that suffices once always suffices.
"""
from __future__ import annotations

from heapq import heappop, heappush
from typing import Iterable, Sequence

from .fields import FieldTag
from .poly import (ELIMINATE_LAST, GREVLEX, MonomialOrder, Polynomial,
                   ev_add, ev_divides, ev_max, ev_sub)


class BudgetExceeded(Exception):
    """Raised when a Groebner computation exceeds its work budget."""

    def __init__(self, reductions: int, basis_size: int):
        super().__init__(
            f"Groebner budget exceeded: {reductions} pair reductions, "
            f"basis size {basis_size}")
        self.reductions = reductions
        self.basis_size = basis_size


DEFAULT_BUDGET = 1_000_000  # S-pair reductions per Buchberger run
MAX_BASIS = 10_000  # basis elements per Buchberger run


def _support_mask(exp) -> int:
    """The variables of the monomial x^exp as a bitmask: bit k for x_(k+1).
    x^a can divide x^b only when mask(a) & ~mask(b) is zero, which is
    cheaper to test than the divisibility itself."""
    mask = 0
    for k, e in enumerate(exp):
        if e:
            mask |= 1 << k
    return mask


def _reduce_full(terms: dict, reducers: Sequence[tuple], masks: Sequence[int],
                 order: MonomialOrder) -> dict:
    """Fully reduce a term dict modulo monic reducers [(lt_exp, terms)],
    whose leading exponents have the support masks ``masks``.

    The result lists its terms in descending order, so its first key is the
    leading exponent.  Each exponent's order key is computed once.
    """
    key = order.key
    rem = dict(terms)
    keys = {exp: key(exp) for exp in rem}
    out: dict = {}
    while rem:
        exp = max(rem, key=keys.__getitem__)
        coeff = rem.pop(exp)
        absent = ~_support_mask(exp)
        for lt_mask, (lt_exp, g_terms) in zip(masks, reducers):
            if not lt_mask & absent and ev_divides(lt_exp, exp):
                shift = ev_sub(exp, lt_exp)
                for e2, c2 in g_terms.items():
                    if e2 == lt_exp:
                        continue
                    tgt = ev_add(shift, e2)
                    if tgt in rem:
                        s = rem[tgt] - coeff * c2
                        if s:
                            rem[tgt] = s
                        else:
                            del rem[tgt]
                    else:
                        rem[tgt] = -coeff * c2
                        if tgt not in keys:
                            keys[tgt] = key(tgt)
                break
        else:
            out[exp] = coeff
    return out


def _monic(terms: dict, lt_coeff, field: FieldTag) -> dict:
    div = field.div
    return {e: div(c, lt_coeff) for e, c in terms.items()}


def normal_form(p: Polynomial, basis: "GroebnerBasis") -> Polynomial:
    """The fully reduced remainder of p modulo the basis (unique when reduced)."""
    if p.is_zero:
        return p
    masks = [_support_mask(lt_exp) for lt_exp, _ in basis.reducers]
    out = _reduce_full(p.terms, basis.reducers, masks, basis.order)
    return Polynomial._raw(p.m, p.field, out)


def _s_terms(f: tuple, g: tuple, lcm) -> dict:
    """Terms of the S-polynomial of two monic reducers (lt_exp, terms)
    whose leading exponents have least common multiple ``lcm``."""
    f_exp, f_terms = f
    g_exp, g_terms = g
    f_shift, g_shift = ev_sub(lcm, f_exp), ev_sub(lcm, g_exp)
    out = {ev_add(f_shift, e): c for e, c in f_terms.items()}
    for e, c in g_terms.items():
        tgt = ev_add(g_shift, e)
        if tgt in out:
            s = out[tgt] - c
            if s:
                out[tgt] = s
            else:
                del out[tgt]
        else:
            out[tgt] = -c
    return out


def buchberger(generators: Sequence[Polynomial], order: MonomialOrder,
               budget: int = DEFAULT_BUDGET) -> "GroebnerBasis":
    """Reduced Groebner basis of the given generators under ``order``,
    after at most ``budget`` S-pair reductions."""
    field = generators[0].field
    m = generators[0].m
    key = order.key

    monic: dict[Polynomial, tuple] = {}  # monic generator -> lt_exp, first occurrences
    for g in generators:
        if not g.is_zero:
            lt_exp, lt_coeff = g.leading(order)
            monic.setdefault(Polynomial._raw(m, field, _monic(g.terms, lt_coeff, field)), lt_exp)
    # (lt_exp, monic terms), one per basis element
    reducers: list[tuple] = [(lt_exp, g.terms) for g, lt_exp in monic.items()]
    masks = [_support_mask(lt_exp) for lt_exp, _ in reducers]

    if not reducers:
        raise ValueError("cannot compute a basis for the zero ideal")

    # Normal strategy: pop the pair with the smallest (lcm degree, i, j).
    # ``pairs`` mirrors the queue for the chain criterion's membership tests.
    pairs: set[tuple[int, int]] = set()
    queue: list[tuple] = []
    reductions = 0

    def add_pair(i, j):
        lcm = ev_max(reducers[i][0], reducers[j][0])
        pairs.add((i, j))
        heappush(queue, (sum(lcm), i, j, lcm))

    for j in range(len(reducers)):
        for i in range(j):
            add_pair(i, j)

    while queue:
        _, i, j, lcm = heappop(queue)
        pairs.discard((i, j))
        # coprime leading terms: S-polynomial reduces to zero
        if not masks[i] & masks[j]:
            continue
        # chain criterion; the lcm's variables are those of either lead
        absent = ~(masks[i] | masks[j])
        skip = False
        for k in range(len(reducers)):
            if k in (i, j) or masks[k] & absent:
                continue
            if (ev_divides(reducers[k][0], lcm)
                    and (min(i, k), max(i, k)) not in pairs
                    and (min(j, k), max(j, k)) not in pairs):
                skip = True
                break
        if skip:
            continue
        reductions += 1
        if reductions > budget or len(reducers) > MAX_BASIS:
            raise BudgetExceeded(reductions, len(reducers))
        s = _s_terms(reducers[i], reducers[j], lcm)
        if not s:
            continue
        reduced = _reduce_full(s, reducers, masks, order)
        if not reduced:
            continue
        lt_exp = next(iter(reduced))
        new_index = len(reducers)
        reducers.append((lt_exp, _monic(reduced, reduced[lt_exp], field)))
        masks.append(_support_mask(lt_exp))
        for k in range(new_index):
            add_pair(k, new_index)

    # minimalize: drop elements whose leading term another one divides
    keep = []
    for i, (lt, _) in enumerate(reducers):
        if any(ev_divides(reducers[j][0], lt) for j in keep if j != i):
            continue
        keep = [j for j in keep if not ev_divides(lt, reducers[j][0])]
        keep.append(i)

    # inter-reduce tails; the leading terms survive, so sort by them
    reduced = []
    for i in sorted(keep, key=lambda i: key(reducers[i][0]), reverse=True):
        others = [j for j in keep if j != i]
        lt_exp, terms = reducers[i]
        if others:
            terms = _reduce_full(terms, [reducers[j] for j in others],
                                 [masks[j] for j in others], order)
        reduced.append((lt_exp, terms))
    return GroebnerBasis(tuple(Polynomial._raw(m, field, terms) for _, terms in reduced),
                         order, reduced)


class GroebnerBasis:
    """A reduced, monic Groebner basis together with its monomial order;
    ``reducers`` pairs each element's leading exponent with its terms."""

    __slots__ = ("polys", "order", "reducers")

    def __init__(self, polys: tuple[Polynomial, ...], order: MonomialOrder,
                 reducers: list[tuple]):
        self.polys = polys
        self.order = order
        self.reducers = reducers

    def __iter__(self):
        return iter(self.polys)

    def __len__(self):
        return len(self.polys)

    def __str__(self):
        return "{" + ", ".join(str(g) for g in self.polys) + "}"


def _canonical_gen_sort(gens: Iterable[Polynomial]) -> tuple[Polynomial, ...]:
    key = GREVLEX.key
    return tuple(sorted(gens, key=lambda g: (g.total_degree(),
                                             sorted(map(key, g.terms)))))


class Ideal:
    """An ideal of K[x1..xm] given by nonzero generators.

    Repeated generators are dropped and the rest sorted canonically.
    """

    __slots__ = ("generators", "m", "field")

    def __init__(self, generators: Iterable[Polynomial]):
        gens = list(dict.fromkeys(generators))
        if not gens:
            raise ValueError("an ideal needs at least one generator")
        for g in gens:
            if g.is_zero:
                raise ValueError("zero generators are not allowed")
        m = gens[0].m
        field = gens[0].field
        for g in gens:
            if g.m != m or g.field is not field:
                raise ValueError("generators live in different ambient rings")
        self.generators = _canonical_gen_sort(gens)
        self.m = m
        self.field = field

    def groebner_basis(self, budget: int = DEFAULT_BUDGET) -> GroebnerBasis:
        """The reduced grevlex basis; runs Buchberger on each call."""
        return buchberger(self.generators, GREVLEX, budget)

    def __str__(self):
        return "(" + ", ".join(str(g) for g in self.generators) + ")"


def ideal_membership(p: Polynomial, ideal: Ideal,
                     budget: int = DEFAULT_BUDGET) -> bool:
    """Whether p lies in the ideal, by reduction to zero."""
    if p.is_zero:
        return True
    return normal_form(p, ideal.groebner_basis(budget)).is_zero


def _lift(p: Polynomial, t_degree: int, m2: int, field: FieldTag) -> Polynomial:
    terms = {exp + (t_degree,): c for exp, c in p.terms.items()}
    return Polynomial._raw(m2, field, terms)


def ideal_intersection(left: Ideal, right: Ideal,
                       budget: int = DEFAULT_BUDGET) -> Ideal:
    """I ∩ J by elimination: t·I + (1-t)·J with t eliminated.

    t is appended as the last variable, x_{m+1}, and eliminated by
    ``ELIMINATE_LAST``.  The t-free elements of the elimination basis, a
    reduced grevlex basis of the intersection, generate the returned ideal.
    """
    if left.m != right.m or left.field is not right.field:
        raise ValueError("ideals live in different ambient rings")
    m = left.m
    field = left.field
    m2 = m + 1
    t_pos = m  # 0-based position of the eliminated variable
    gens = [_lift(g, 1, m2, field) for g in left.generators]
    one_minus_t = Polynomial(m2, field, {(0,) * m2: 1, (0,) * m + (1,): -1})
    for h in right.generators:
        gens.append(_lift(h, 0, m2, field) * one_minus_t)
    basis = buchberger(gens, ELIMINATE_LAST, budget)
    projected = []
    for g in basis:
        if all(exp[t_pos] == 0 for exp in g.terms):
            projected.append(Polynomial._raw(
                m, field, {exp[:m]: c for exp, c in g.terms.items()}))
    if not projected:
        raise ValueError("intersection of nonzero ideals lost all generators")
    return Ideal(projected)


def ideal_intersection_many(ideals: Sequence[Ideal],
                            budget: int = DEFAULT_BUDGET) -> Ideal:
    """Iterated pairwise intersection, left to right."""
    if not ideals:
        raise ValueError("need at least one ideal")
    acc = ideals[0]
    for nxt in ideals[1:]:
        acc = ideal_intersection(acc, nxt, budget)
    return acc


def ideal_product(left: Ideal, right: Ideal) -> Ideal:
    """The product ideal, generated by all pairwise generator products."""
    return Ideal(g * h for g in left.generators for h in right.generators)
