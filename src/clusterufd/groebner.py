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

Monomials are packed.  For the length of one ``buchberger`` or
``normal_form`` call each exponent vector is one Python int, with a field
per variable and one for the total degree, laid out by ``_Packing`` so that
the order's key is an int function of the packed int (Monagan and Pearce,
"Polynomial division using dynamic arrays, heaps, and packed exponent
vectors", CASC 2007).  The top bit of every field is a guard bit, clear in
every valid monomial.  While the guard bits stay clear no field carries
into its neighbour, so multiplying monomials is ``+``, dividing is ``-``,
and x^a divides x^b exactly when ``((b | G) - a) & G == G`` for the mask G
of guard bits.  A sum whose field reaches its guard bit is caught before it
is used again (the degree field bounds every other field), and the call
starts over with fields twice as wide, so a large exponent costs time,
never a wrong basis.  Vectors are packed on entry and unpacked on exit
only.  A basis keeps the packed reducers of the run that made it, so
``normal_form`` packs only its input while that input fits their
fields.  The pair order, both criteria and the first-divisor choice of
reducer are those of tuple exponents, so the sequence of S-pair reductions
is unchanged.
"""
from __future__ import annotations

from heapq import heappop, heappush
from operator import lshift
from typing import Iterable, Sequence

from .fields import FieldTag
from .poly import ELIMINATE_LAST, GREVLEX, MonomialOrder, Polynomial


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
FIELD_BITS = 5  # value bits per packed field at first: degrees up to 31


class _Overflow(Exception):
    """A packed monomial reached a guard bit; the call restarts wider."""


class _Packing:
    """Exponent vectors of m variables packed into ints whose fields hold
    ``bits`` value bits under a guard bit, laid out so that ``key``, an int
    function of the packed int, sorts as ``order.key`` does.

    Grevlex puts the degree field on top, then x_m down to x_1, and its key
    complements every field below the degree, so among monomials of one
    degree the smaller last exponent wins.  ``ELIMINATE_LAST`` moves x_m
    above the degree field and complements the fields below it."""

    __slots__ = ("bits", "shifts", "degree_shift", "key", "guards", "value",
                 "variables", "ones", "top", "field")

    def __init__(self, m: int, order: MonomialOrder, bits: int):
        self.bits = bits
        width = bits + 1
        shifts = [k * width for k in range(m)]
        degree_shift = m * width
        if order.eliminate_last:
            shifts[-1], degree_shift = degree_shift, shifts[-1]
        self.shifts, self.degree_shift = tuple(shifts), degree_shift
        self.key = ((1 << degree_shift) - 1).__xor__
        self.ones = sum(1 << (k * width) for k in range(m + 1))
        self.guards = self.ones << bits
        self.value = (1 << bits) - 1
        self.variables = self.ones * self.value & ~(self.value << self.degree_shift)
        self.top = m * width
        self.field = (1 << width) - 1

    def pack(self, terms: dict) -> dict:
        shifts, degree_shift, value = self.shifts, self.degree_shift, self.value
        out = {}
        for e, c in terms.items():
            degree = sum(e)
            if degree > value:
                raise _Overflow
            out[sum(map(lshift, e, shifts)) + (degree << degree_shift)] = c
        return out

    def unpack(self, terms: dict) -> dict:
        shifts, value = self.shifts, self.value
        return {tuple(p >> s & value for s in shifts): c for p, c in terms.items()}

    def divides(self, a: int, b: int) -> bool:
        """Whether the valid monomial a divides the valid monomial b."""
        return ((b | self.guards) - a) & self.guards == self.guards

    def lcm(self, a: int, b: int) -> tuple[int, int]:
        """The lcm of two valid monomials and its total degree: the fieldwise
        maximum of the variables, whose sum the multiplication by ``ones``
        gathers in the top field."""
        ge = ((a | self.guards) - b) & self.guards  # guard set where a >= b
        larger = ge - (ge >> self.bits)  # value bits of those fields
        lcm = (b ^ ((a ^ b) & larger)) & self.variables
        degree = (lcm * self.ones >> self.top) & self.field
        if degree > self.value:
            raise _Overflow
        return lcm | degree << self.degree_shift, degree


def _widening(run, m: int, order: MonomialOrder, bits: int):
    """``run(packing)`` for m variables with ``bits`` value bits per field,
    restarted with fields twice as wide while it overflows."""
    while True:
        try:
            return run(_Packing(m, order, bits))
        except _Overflow:
            bits *= 2


def _reduce_full(terms: dict, reducers: Sequence[tuple], packing: _Packing) -> dict:
    """Fully reduce a packed term dict modulo monic packed reducers
    [(lt, terms)], each term by the first reducer whose leading term
    divides it.

    The result lists its terms in descending order, so its first key is the
    leading term.
    """
    key, guards = packing.key, packing.guards
    rem = dict(terms)
    out: dict = {}
    while rem:
        exp = max(rem, key=key)
        if exp & guards:
            raise _Overflow
        coeff = rem.pop(exp)
        guarded = exp | guards
        for lt, g_terms in reducers:
            if (guarded - lt) & guards == guards:
                shift = exp - lt
                for e2, c2 in g_terms.items():
                    if e2 == lt:
                        continue
                    tgt = shift + e2
                    if tgt in rem:
                        s = rem[tgt] - coeff * c2
                        if s:
                            rem[tgt] = s
                        else:
                            del rem[tgt]
                    else:
                        rem[tgt] = -coeff * c2
                break
        else:
            out[exp] = coeff
    return out


def _monic(terms: dict, lt_coeff, field: FieldTag) -> dict:
    div = field.div
    return {e: div(c, lt_coeff) for e, c in terms.items()}


def _leading_reducer(terms: dict, packing: _Packing, field: FieldTag) -> tuple:
    """(lt, monic terms) of a nonzero packed term dict."""
    lt = max(terms, key=packing.key)
    return lt, _monic(terms, terms[lt], field)


def normal_form(p: Polynomial, basis: "GroebnerBasis") -> Polynomial:
    """The fully reduced remainder of p modulo the basis (unique when reduced).

    The reduction runs on the basis's own packed reducers while p fits
    their packing, and packs both again, wider, once it does not."""
    if p.is_zero:
        return p
    packing, reducers = basis.packed
    try:
        out = _reduce_full(packing.pack(p.terms), reducers, packing)
    except _Overflow:
        def run(packing):
            reducers = [_leading_reducer(packing.pack(g.terms), packing, p.field)
                        for g in basis]
            return _reduce_full(packing.pack(p.terms), reducers, packing), packing

        out, packing = _widening(run, p.m, basis.order, packing.bits * 2)
    return Polynomial._raw(p.m, p.field, packing.unpack(out))


def _s_terms(f: tuple, g: tuple, lcm: int) -> dict:
    """Terms of the S-polynomial of two monic reducers (lt, terms) whose
    leading terms have least common multiple ``lcm``."""
    f_lt, f_terms = f
    g_lt, g_terms = g
    f_shift, g_shift = lcm - f_lt, lcm - g_lt
    out = {f_shift + e: c for e, c in f_terms.items()}
    for e, c in g_terms.items():
        tgt = g_shift + e
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
    polys, packed = _widening(
        lambda packing: _buchberger(generators, packing, budget),
        generators[0].m, order, FIELD_BITS)
    return GroebnerBasis(polys, order, packed)


def _buchberger(generators: Sequence[Polynomial], packing: _Packing,
                budget: int) -> tuple[tuple[Polynomial, ...], tuple]:
    """The reduced basis's elements, computed on packed monomials, and
    ``(packing, reducers)``: its monic packed reducers [(lt, terms)]."""
    field = generators[0].field
    m = generators[0].m
    key, guards = packing.key, packing.guards

    # (lt, monic terms), one per distinct monic generator, first occurrences
    firsts: dict[frozenset, tuple] = {}
    for g in generators:
        if not g.is_zero:
            lt, terms = _leading_reducer(packing.pack(g.terms), packing, field)
            firsts.setdefault(frozenset(terms.items()), (lt, terms))
    reducers: list[tuple] = list(firsts.values())
    leads = [lt for lt, _ in reducers]

    if not reducers:
        raise ValueError("cannot compute a basis for the zero ideal")

    # Normal strategy: pop the pair with the smallest (lcm degree, i, j).
    # ``pairs`` mirrors the queue for the chain criterion's membership tests.
    pairs: set[tuple[int, int]] = set()
    queue: list[tuple] = []
    reductions = 0

    def add_pair(i, j):
        lcm, degree = packing.lcm(leads[i], leads[j])
        pairs.add((i, j))
        heappush(queue, (degree, i, j, lcm))

    for j in range(len(reducers)):
        for i in range(j):
            add_pair(i, j)

    while queue:
        _, i, j, lcm = heappop(queue)
        pairs.discard((i, j))
        # coprime leading terms: S-polynomial reduces to zero
        if lcm == leads[i] + leads[j]:
            continue
        # chain criterion
        guarded = lcm | guards
        if any(k != i and k != j and (min(i, k), max(i, k)) not in pairs
               and (min(j, k), max(j, k)) not in pairs
               for k in [k for k, lead in enumerate(leads)
                         if (guarded - lead) & guards == guards]):
            continue
        reductions += 1
        if reductions > budget or len(reducers) > MAX_BASIS:
            raise BudgetExceeded(reductions, len(reducers))
        s = _s_terms(reducers[i], reducers[j], lcm)
        if not s:
            continue
        reduced = _reduce_full(s, reducers, packing)
        if not reduced:
            continue
        lt = next(iter(reduced))
        new_index = len(reducers)
        reducers.append((lt, _monic(reduced, reduced[lt], field)))
        leads.append(lt)
        for k in range(new_index):
            add_pair(k, new_index)

    # minimalize: drop elements whose leading term another one divides
    divides = packing.divides
    keep = []
    for i, lt in enumerate(leads):
        if any(divides(leads[j], lt) for j in keep):
            continue
        keep = [j for j in keep if not divides(lt, leads[j])]
        keep.append(i)

    # inter-reduce tails; the leading terms survive, so sort by them
    out, packed = [], []
    for i in sorted(keep, key=lambda i: key(leads[i]), reverse=True):
        others = [reducers[j] for j in keep if j != i]
        terms = reducers[i][1]
        if others:
            terms = _reduce_full(terms, others, packing)
        packed.append((leads[i], terms))
        out.append(Polynomial._raw(m, field, packing.unpack(terms)))
    return tuple(out), (packing, tuple(packed))


class GroebnerBasis:
    """A reduced, monic Groebner basis together with its monomial order and
    ``packed``, the ``(packing, reducers)`` of the Buchberger run that made
    it, which ``normal_form`` reduces by."""

    __slots__ = ("polys", "order", "packed")

    def __init__(self, polys: tuple[Polynomial, ...], order: MonomialOrder,
                 packed: tuple):
        self.polys = polys
        self.order = order
        self.packed = packed

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
