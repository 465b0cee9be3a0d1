"""Unique-factorization analysis for cluster seeds.

One pipeline, ``certify``, decides a seed in four stages, in this order:
the necessary conditions on the exchange polynomials (reducible or
coinciding f_i refute unique factorization outright), the standing
assumptions (a connected exchange matrix, an acyclic principal quiver), the
certificate cover and the certificate's verification.  The first two
stages are ``gate``, the one place that orders them.  ``conjecture_check``
and ``conjecture_sweep`` probe any seed; a caller that refuses a seed the
gate stops asks ``gate`` first.  In the cover, each of three combinatorial
lemmas holds on a subcube of the supports of mutable indices, and the
certificate is a set of such cubes that covers every nonempty support; a
complete certificate proves that products of the exchange ideals agree with
their intersections for every multi-index, which is the criterion for the
upper cluster algebra to be a UFD.  Certificates are re-checked, never
trusted: once, in ``certify``, which ``algebra_membership`` and
``normal_form_element`` call themselves.  ``ufd_verdict`` additionally
cross-validates a UFD verdict against direct Groebner computations at
small multi-indices; disagreement there raises ``ConsistencyError``
because it can only mean a bug.
"""
from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import chain, combinations
from math import gcd, isqrt, prod
from typing import (TYPE_CHECKING, Iterator, NamedTuple, Optional, Sequence,
                    Union)

from .cluster import ExchangeMatrix, exchange_polynomial, is_acyclic, is_connected
from .fields import FieldTag, GaussianRational
from .poly import GREVLEX, LaurentPolynomial, Polynomial, divide_exact

# The Groebner kernel is imported where the ideals and the weight sweep use
# it, so the certificate commands never load it.
if TYPE_CHECKING:
    from .groebner import Ideal


class ConsistencyError(RuntimeError):
    """Two independent computations disagreed; this is always a bug."""


# -- exchange ideals and the divisibility membership test --------------------

class ExchangeIdeals:
    """The ideals (x_i, f_i) of a seed matrix, one per mutable index.

    Membership in a power (x_i, f_i)^a is decided without Groebner bases:
    writing P = sum_k P_k x_i^k with P_k free of x_i, P lies in the power
    exactly when f_i^(a-k) divides P_k for every k < a.

    The powers f_i^k and the power ideals are cached, and so is every
    intersection that ``power_intersection`` computes, under its
    ((i, a_i), ...) key: the intersection cache.  Each multi-index of the
    weight sweep extends one it has already checked, so the sweep runs one
    new elimination per multi-index.
    """

    def __init__(self, matrix: ExchangeMatrix, field: FieldTag = FieldTag.Q):
        self.matrix = matrix
        self.field = field
        self.n = matrix.n
        self.m = matrix.m
        self._f = tuple(exchange_polynomial(matrix, j, field)
                        for j in range(1, matrix.n + 1))
        self._f_powers: dict[tuple[int, int], Polynomial] = {}
        self._power_ideals: dict[tuple[int, int], Ideal] = {}
        self._intersections: dict[tuple[tuple[int, int], ...], Ideal] = {}

    def exchange_poly(self, i: int) -> Polynomial:
        if not 1 <= i <= self.n:
            raise ValueError(f"index {i} outside 1..{self.n}")
        return self._f[i - 1]

    def variable(self, i: int) -> Polynomial:
        return Polynomial.variable(i, self.m, self.field)

    def f_power(self, i: int, k: int) -> Polynomial:
        cached = self._f_powers.get((i, k))
        if cached is None:
            cached = self.exchange_poly(i) ** k
            self._f_powers[(i, k)] = cached
        return cached

    def power_ideal(self, i: int, a: int) -> Ideal:
        """(x_i, f_i)^a, generated by x_i^r * f_i^(a-r)."""
        if a < 0:
            raise ValueError("powers must be non-negative")
        from .groebner import Ideal
        cached = self._power_ideals.get((i, a))
        if cached is None:
            x = self.variable(i)
            gens = []
            for r in range(a + 1):
                g = x ** r
                if r < a:
                    g = g * self.f_power(i, a - r)
                gens.append(g)
            cached = Ideal(gens)
            self._power_ideals[(i, a)] = cached
        return cached

    def power_intersection(self, powers: tuple[tuple[int, int], ...],
                           budget: int) -> Ideal:
        """The intersection of the power ideals (x_i, f_i)^a over the pairs
        (i, a), left to right: the cached intersection of all but the last
        pair, intersected with the last power ideal.

        Each elimination may take ``budget`` S-pair reductions.  One that
        exceeds it raises ``BudgetExceeded`` and caches nothing; a cached
        intersection is returned whatever the budget.
        """
        if len(powers) == 1:
            return self.power_ideal(*powers[0])
        cached = self._intersections.get(powers)
        if cached is None:
            from .groebner import ideal_intersection
            cached = ideal_intersection(self.power_intersection(powers[:-1], budget),
                                        self.power_ideal(*powers[-1]), budget)
            self._intersections[powers] = cached
        return cached

    def power_membership(self, p: Polynomial, i: int, a: int) -> bool:
        """Whether p lies in (x_i, f_i)^a, by coefficientwise divisibility."""
        if a < 0:
            raise ValueError("powers must be non-negative")
        if a == 0 or p.is_zero:
            return True
        if not 1 <= i <= self.n:
            raise ValueError(f"index {i} outside 1..{self.n}")
        top = min(a - 1, p.degree_in(i))
        for k in range(top + 1):
            p_k = p.coefficient_of(i, k)
            if p_k.is_zero:
                continue
            if divide_exact(p_k, self.f_power(i, a - k)) is None:
                return False
        return True

    def valuation(self, p: Polynomial, i: int) -> int:
        """The largest a with p in (x_i, f_i)^a; p must be nonzero."""
        if p.is_zero:
            raise ValueError("the zero polynomial lies in every power")
        v = 0
        while self.power_membership(p, i, v + 1):
            v += 1
        return v

    def normal_monomial(self, p: Polynomial) -> tuple[int, ...]:
        """Exponents of the monomial M(p) = prod x_i^(valuation at i)."""
        out = [0] * self.m
        for i in range(1, self.n + 1):
            out[i - 1] = self.valuation(p, i)
        return tuple(out)


# -- binomial and degree-one irreducibility ----------------------------------

def _unit_binomial_exponents(f: Polynomial):
    """(u, v) when f = x^u + x^v with both coefficients 1, else None."""
    if len(f.terms) != 2:
        return None
    (u, cu), (v, cv) = sorted(f.terms.items())
    if cu != 1 or cv != 1:
        return None
    return u, v


def binomial_irreducible(f: Polynomial) -> Optional[bool]:
    """Irreducibility of a unit-coefficient binomial; None when not one.

    With disjoint supports and d the gcd of all exponents, f = A^d + B^d for
    coprime monomials A, B; over Q it is irreducible exactly when d is a
    power of two, over Q(i) exactly when d = 1.  A shared variable gives a
    monomial factor, hence reducible.  The decision is
    ``binomial_witness_factors``: f is irreducible when it builds no pair.
    """
    if _unit_binomial_exponents(f) is None:
        return None
    return binomial_witness_factors(f) is None


def binomial_witness_factors(f: Polynomial) -> Optional[tuple[Polynomial, Polynomial]]:
    """An explicit nontrivial factor pair for a reducible unit binomial.

    Shared variables give a monomial split; the smallest odd prime p | d
    gives the classical divisor A^(d/p) + B^(d/p); over Q(i) an even d
    splits as a sum of two squares.  The pair is verified by multiplication.
    """
    ev = _unit_binomial_exponents(f)
    if ev is None:
        return None
    u, v = ev
    m, fld = f.m, f.field
    common = tuple(map(min, u, v))
    if any(common):
        g = Polynomial.monomial(1, common, m, fld)
        h = divide_exact(f, g)
    else:
        d = gcd(*u, *v)
        odd = d // (d & -d)
        # trial division up to the square root: an odd part without a
        # divisor there is itself prime (or 1)
        p = next((q for q in range(3, isqrt(odd) + 1, 2) if odd % q == 0), odd)
        if p > 1:
            g = Polynomial(m, fld, {tuple(e // p for e in u): 1,
                                    tuple(e // p for e in v): 1})
            h = divide_exact(f, g)
        elif fld is FieldTag.QI and d % 2 == 0:
            a = Polynomial.monomial(1, tuple(e // 2 for e in u), m, fld)
            b = Polynomial.monomial(fld.imaginary_unit(),
                                    tuple(e // 2 for e in v), m, fld)
            g, h = a + b, a - b
        else:
            return None
    if h is None or g * h != f:
        raise ConsistencyError(f"constructed factors do not multiply back to {f}")
    return g, h


def _linear_irreducible(f: Polynomial) -> bool:
    """True when f is irreducible by the degree-one lemma; False when the
    lemma does not apply (which says nothing about f).

    The lemma: f has no monomial content and, for some variable x_k,
    f = a*x_k + b with a != 0 and a, b free of x_k, where a or b is a single
    term.  Proof: suppose f = g*h with neither factor a unit.  Degrees in
    x_k add, so one factor, say g, has degree 0 in x_k; then g divides both
    a and b.  One of them is a single term c*x^u, so g divides a monomial
    and is itself c'*x^w with w != 0 (g is no unit).  Then x^w divides f,
    contradicting "no monomial content".  The argument holds over any
    field, so over Q and Q(i) alike.
    """
    if any(f.min_exponents()):
        return False
    for pos in range(f.m):
        degrees = [e[pos] for e in f.terms]
        # the terms of a*x_k number degrees.count(1), those of b count(0)
        if max(degrees) == 1 and 1 in (degrees.count(0), degrees.count(1)):
            return True
    return False


# -- brute-force factor search ----------------------------------------------

def _coeff_from_sympy(c, fld: FieldTag):
    """A coefficient of a sympy QQ or QQ_I polynomial, as an element of fld."""
    if fld is FieldTag.QI:
        return fld.coerce(GaussianRational(_coeff_from_sympy(c.x, FieldTag.Q),
                                           _coeff_from_sympy(c.y, FieldTag.Q)))
    return fld.coerce(Fraction(int(c.numerator), int(c.denominator)))


def _normalize_factor(g: Polynomial) -> Polynomial:
    """Scale so the constant term (else the leading coefficient) is one."""
    c0 = g.constant_coefficient()
    if c0:
        return g * g.field.div(1, c0)
    _, lc = g.leading(GREVLEX)
    return g * g.field.div(1, lc)


def brute_force_factor(f: Polynomial, max_degree: int = 12) -> Optional[tuple[Polynomial, ...]]:
    """The irreducible factors of f, or None when f is not searched.

    Backed by an exact factorization oracle whose answer is re-verified by
    multiplication in our own arithmetic.  Each factor is normalized by
    ``_normalize_factor`` and repeated by its multiplicity, and the list is
    sorted by (total degree, str), so f is irreducible exactly when the list
    has one factor.  Inputs of total degree beyond ``max_degree`` are not
    searched.  An answer that does not multiply back to f, up to the unit
    read off the leading coefficients, raises ``ConsistencyError``.
    """
    if f.is_zero or f.total_degree() < 1:
        raise ValueError("factor search needs a nonconstant polynomial")
    if f.total_degree() > max_degree:
        return None
    # sympy is the slowest import by far, and no other path needs it
    import sympy
    fld = f.field
    terms = {e: c.re + c.im * sympy.I if isinstance(c, GaussianRational) else c
             for e, c in f.terms.items()}
    poly = sympy.Poly.from_dict(terms, sympy.symbols(f"x1:{f.m + 1}"),
                                domain="QQ_I" if fld is FieldTag.QI else "QQ")
    factors = []
    for factor, mult in poly.factor_list()[1]:
        piece = Polynomial(f.m, fld, {e: _coeff_from_sympy(c, fld) for e, c
                                      in factor.as_dict(native=True).items()})
        factors += [_normalize_factor(piece)] * mult
    factors.sort(key=lambda p: (p.total_degree(), str(p)))
    product = prod(factors, start=Polynomial.one(f.m, fld))
    _, f_lc = f.leading(GREVLEX)
    _, p_lc = product.leading(GREVLEX)
    if product * fld.div(f_lc, p_lc) != f:
        raise ConsistencyError("oracle factors do not multiply back to the input")
    return tuple(factors)


# -- necessary conditions ----------------------------------------------------

class ReducibleExchangePolynomial(NamedTuple):
    """f_index factors as the given verified pair, refuting factoriality."""

    index: int
    factors: tuple[Polynomial, Polynomial]

    def __str__(self):
        g, h = self.factors
        return f"f_{self.index} factors as ({g}) * ({h})"

    def to_json(self) -> dict:
        return {"reducible": {"index": self.index,
                              "factors": [str(g) for g in self.factors]}}


class CoincidentExchangePolynomials(NamedTuple):
    """f_i and f_j are literally equal."""

    i: int
    j: int
    value: Polynomial

    def __str__(self):
        return f"f_{self.i} = f_{self.j} = {self.value}"

    def to_json(self) -> dict:
        return {"coincident": [self.i, self.j], "value": str(self.value)}


NotUFDWitness = Union[ReducibleExchangePolynomial, CoincidentExchangePolynomials]


def necessary_conditions(ideals: ExchangeIdeals) -> Optional[NotUFDWitness]:
    """The cheap refutations: reducible or coincident f_i.

    Checked in a fixed order (irreducibility by ascending index, then pair
    coincidences in ascending (i, j)) so the reported witness is stable.
    Every f_i is a binomial with both coefficients one, so proportional
    exchange polynomials are equal and the coincidence check covers them.
    """
    if ideals.m < 2:
        raise ValueError("single-variable seeds are outside the supported scope")
    polys = [ideals.exchange_poly(i) for i in range(1, ideals.n + 1)]
    for i, f in enumerate(polys, start=1):
        if f.total_degree() < 1:
            raise ValueError(
                f"f_{i} is constant (column {i} is zero); the seed is disconnected")
        if _unit_binomial_exponents(f) is None:
            raise ConsistencyError(f"exchange polynomial {f} is not a unit binomial")
        factors = binomial_witness_factors(f)
        if factors is not None:
            return ReducibleExchangePolynomial(i, factors)
    for i, j in combinations(range(1, ideals.n + 1), 2):
        if polys[i - 1] == polys[j - 1]:
            return CoincidentExchangePolynomials(i, j, polys[i - 1])
    return None


# -- the ideal-equality conjecture at one multi-index ------------------------

class ConjectureOutcome(NamedTuple):
    """Result of comparing a product of ideal powers with their intersection."""

    status: str  # "holds" | "fails" | "inconclusive"
    multi_index: tuple[int, ...]
    witness: Optional[Polynomial] = None
    detail: str = ""


def conjecture_check(ideals: ExchangeIdeals, multi_index: Sequence[int],
                     budget: Optional[int] = None) -> ConjectureOutcome:
    """Does prod_i (x_i, f_i)^(a_i) equal the intersection of the powers?

    The containment product <= intersection is asserted unconditionally via
    the divisibility membership test; only the reverse inclusion is in
    question, so a failure is reported with an intersection generator that
    stays outside the product.  The intersection comes from
    ``ideals.power_intersection`` and its cache; then the product's basis is
    computed, each under ``budget``, which defaults to ``DEFAULT_BUDGET``.
    """
    from .groebner import DEFAULT_BUDGET, BudgetExceeded, ideal_product, normal_form
    if budget is None:
        budget = DEFAULT_BUDGET
    a = tuple(multi_index)
    if len(a) != ideals.n or any(x < 0 for x in a):
        raise ValueError(f"multi-index must have {ideals.n} non-negative entries")
    active = [i for i in range(1, ideals.n + 1) if a[i - 1] > 0]
    if not active:
        return ConjectureOutcome("holds", a, detail="zero multi-index is trivial")
    powers = [ideals.power_ideal(i, a[i - 1]) for i in active]
    product = powers[0]
    for extra in powers[1:]:
        product = ideal_product(product, extra)
    for g in product.generators:
        for i in active:
            if not ideals.power_membership(g, i, a[i - 1]):
                raise ConsistencyError(
                    f"product generator {g} escaped (x{i}, f_{i})^{a[i - 1]}")
    if len(active) == 1:
        return ConjectureOutcome("holds", a, detail="single active index")
    try:
        intersection = ideals.power_intersection(
            tuple((i, a[i - 1]) for i in active), budget)
        basis = product.groebner_basis(budget=budget)
    except BudgetExceeded as exc:
        return ConjectureOutcome("inconclusive", a, detail=str(exc))
    # The intersection's generators and the basis are both reduced grevlex
    # bases, and a reduced basis is unique per ideal: equal sets mean equal
    # ideals, and only a failing check needs normal forms, for its witness.
    if set(intersection.generators) != set(basis):
        for g in intersection.generators:
            if not normal_form(g, basis).is_zero:
                return ConjectureOutcome("fails", a, witness=g)
    return ConjectureOutcome("holds", a)


def multi_indices_of_weight(n: int, weight: int):
    """All length-n tuples of non-negative integers summing to ``weight``."""
    if n == 1:
        yield (weight,)
        return
    for first in range(weight + 1):
        for rest in multi_indices_of_weight(n - 1, weight - first):
            yield (first,) + rest


def conjecture_sweep(ideals: ExchangeIdeals, degree_bound: int,
                     budget: Optional[int] = None) -> list[ConjectureOutcome]:
    """``conjecture_check`` at every multi-index of weight 1..degree_bound,
    in order, stopping after the first outcome that does not hold."""
    outcomes = []
    for weight in range(1, degree_bound + 1):
        for a in multi_indices_of_weight(ideals.n, weight):
            outcomes.append(conjecture_check(ideals, a, budget))
            if outcomes[-1].status != "holds":
                return outcomes
    return outcomes


# -- the inductive certificate search ---------------------------------------

class _Rule:
    """One lemma applied at given indices, mixed into a namedtuple of the
    indices.  Two rules are equal, and hash equal, only when they apply the
    same lemma at the same indices, so rules of different lemmas, and plain
    tuples, are distinct dict keys.  Each lemma names its JSON tag in
    ``tag``."""

    __slots__ = ()
    tag: str

    def __eq__(self, other):
        return type(self) is type(other) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash((type(self), *self))

    def to_json(self) -> dict:
        return {"rule": self.tag, **self._asdict()}


class SinkSourceSplit(_Rule, namedtuple("SinkSourceSplit", "i j")):
    """Index i is a sink or source, j is a support neighbor; coprimality
    of f_i and f_j lets the induction split off one power each."""

    __slots__ = ()
    tag = "sink_source"


class FreeIndex(_Rule, namedtuple("FreeIndex", "i")):
    """No neighbor of i lies in the support, so f_i is regular modulo the rest."""

    __slots__ = ()
    tag = "free_index"


class FreeVariable(_Rule, namedtuple("FreeVariable", "i k")):
    """f_i = x_k + monomial with x_k outside the support and no other
    support index adjacent to k, so x_k can absorb one power of f_i."""

    __slots__ = ()
    tag = "free_variable"


Justification = Union[SinkSourceSplit, FreeIndex, FreeVariable]


def _bits(indices) -> int:
    """The bitmask of a set of mutable indices: bit i - 1 stands for i."""
    return sum(1 << (i - 1) for i in indices)


def _rule_cubes(matrix: ExchangeMatrix) -> dict[Justification, tuple[int, int]]:
    """Every justification the matrix admits, in search order, mapped to the
    subcube of supports it justifies: ``(inside, outside)`` bitmasks, and the
    rule holds on a support S exactly when inside <= S and outside & S = 0.

    Each lemma's side conditions are written here only; the prover and the
    verifier both read this table.
    """
    n, m = matrix.n, matrix.m
    neighbors = [matrix.neighbors(r) for r in range(1, m + 1)]
    cubes: dict[Justification, tuple[int, int]] = {}
    for i in range(1, n + 1):
        if matrix.is_source(i) or matrix.is_sink(i):
            for j in neighbors[i - 1]:
                cubes[SinkSourceSplit(i, j)] = (_bits((i, j)), 0)
    for i in range(1, n + 1):
        cubes[FreeIndex(i)] = (_bits((i,)), _bits(neighbors[i - 1]))
    for i in range(1, n + 1):
        # the terms x_k of f_i; k != i, since b_ii = 0 keeps x_i out of f_i
        pivots = [e.index(1) + 1 for e in exchange_polynomial(matrix, i).terms
                  if sum(e) == 1]
        for k in sorted(pivots):
            outside = [j for j in neighbors[k - 1] if j != i]
            if k <= n:
                outside.append(k)
            cubes[FreeVariable(i, k)] = (_bits((i,)), _bits(outside))
    return cubes


def _support(mask: int) -> tuple[int, ...]:
    """The mutable indices of a bitmask, ascending."""
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def _components(cover: list[tuple[int, int]]) -> list[list[tuple[int, int]]]:
    """The cubes of ``cover`` grouped so that no index occurs in two groups."""
    groups: list[tuple[int, list[tuple[int, int]]]] = []
    for cube in cover:
        mask, joined, apart = cube[0] | cube[1], [cube], []
        # the groups are disjoint, so one pass merges all that meet the cube
        for group_mask, cubes in groups:
            if group_mask & mask:
                mask |= group_mask
                joined += cubes
            else:
                apart.append((group_mask, cubes))
        groups = [*apart, (mask, joined)]
    return [cubes for _, cubes in groups]


def _hole(cover: list[tuple[int, int]], inside: int = 0,
          outside: int = 0) -> Optional[tuple[int, int]]:
    """A subcube on which no cube of ``cover`` holds, as ``(inside, outside)``
    bitmasks of the indices it fixes, or None when the cubes cover all.

    ``cover`` is the cofactor of the original cubes on the subcube fixed so
    far.  This is the unate-recursive tautology check of Brayton, Hachtel,
    McMullen and Sangiovanni-Vincentelli, *Logic Minimization Algorithms
    for VLSI Synthesis* (1984).  An index that occurs only as "in" (only as
    "out") leaves the cover weakest with the index out (in), so only that
    side is searched.  Cubes over disjoint indices cover everything exactly
    when one group of them does.  Otherwise the search splits on the most
    binate index: the one in the most cubes, where a cube with l conditions
    counts 2^-l, so the indices of nearly unconditional cubes go first.
    """
    while True:
        if not cover:
            return inside, outside
        ins = outs = 0
        for p, q in cover:
            if not p | q:
                return None         # a cube with no condition left holds
            ins |= p
            outs |= q
        only_in, only_out = ins & ~outs, outs & ~ins
        if not only_in | only_out:
            break
        inside |= only_out
        outside |= only_in
        cover = [(p, q) for p, q in cover if not (p & only_in or q & only_out)]
    groups = _components(cover)
    if len(groups) > 1:
        for group in groups:
            hole = _hole(group)
            if hole is None:
                return None
            inside |= hole[0]
            outside |= hole[1]
        return inside, outside
    weights: dict[int, float] = {}
    for p, q in cover:
        rest = p | q
        weight = 0.5 ** rest.bit_count()
        while rest:
            low = rest & -rest
            weights[low] = weights.get(low, 0.0) + weight
            rest ^= low
    bit = max(weights, key=weights.__getitem__)
    return (_hole([(p & ~bit, q) for p, q in cover if not q & bit],
                  inside | bit, outside)
            or _hole([(p, q & ~bit) for p, q in cover if not p & bit],
                     inside, outside | bit))


def _uncovered(cubes, n: int) -> Optional[tuple[int, int]]:
    """A hole of ``cubes`` among the nonempty supports of 1..n, or None.

    The empty support is added as one more cube, so covering every
    nonempty support is a tautology, and the smallest support of a hole,
    its ``inside``, is never empty.
    """
    return _hole([*cubes, (0, (1 << n) - 1)])


def _first_cubes(cubes: Sequence[tuple[int, int]], n: int) -> list[int]:
    """For every support bitmask of 1..n, the index of the first cube of
    ``cubes`` (``(inside, outside)`` bitmasks) that holds on it, or
    ``len(cubes)`` when none does; n is at most ``MAX_CERTIFICATE_N``.

    The table is built by the subcube split of ``_hole``.  Each step fixes
    some indices in and some out, and keeps a candidate list with the
    invariant: it holds, in order, exactly the cubes that the fixed indices
    do not contradict.  So once every condition of its head is fixed, the
    head holds on the whole subcube and every earlier cube fails there: the
    head is the first match on each support of the subcube, and these are
    filled by submask enumeration.  Otherwise the step splits on the highest
    unfixed index of the head, and each side drops the cubes it contradicts.
    (On A:16 that makes 2,435 steps, against 8,095 with the lowest.)
    """
    table = [len(cubes)] * (1 << n)
    full = (1 << n) - 1
    ins = [inside for inside, _ in cubes]
    outs = [outside for _, outside in cubes]

    def split(live: list[int], inside: int, outside: int):
        if not live:
            return                  # no cube holds: the table says so already
        head = live[0]
        unfixed = ins[head] & ~inside | outs[head] & ~outside
        if not unfixed:
            free = full & ~(inside | outside)
            sub = free
            while True:
                table[inside | sub] = head
                if not sub:
                    return
                sub = (sub - 1) & free
        bit = 1 << (unfixed.bit_length() - 1)
        split([c for c in live if not outs[c] & bit], inside | bit, outside)
        split([c for c in live if not ins[c] & bit], inside, outside | bit)

    split(list(range(len(cubes))), 0, 0)
    return table


# The per-support listing of a certificate has 2^n - 1 entries, so it is
# rendered, and a stuck search lists every stuck support, up to here only.
MAX_CERTIFICATE_N = 16

RuleCube = tuple[tuple[int, ...], tuple[int, ...], Justification]


class SupportCertificate:
    """Rule cubes that together hold on every nonempty support.

    A cube ``(inside, outside, rule)`` says that ``rule`` justifies every
    support S with inside <= S and outside & S empty.  The cubes are the
    rule table's, in its order, so a support's first cube names the rule
    the inductive search would take.  ``verify`` rebuilds the rule table
    from the matrix, accepts a cube only when the table gives its rule that
    same cube, and checks again that the accepted cubes cover every support,
    so a tampered certificate is caught.
    """

    def __init__(self, cubes: Sequence[RuleCube], n: int):
        self.cubes = tuple(cubes)
        self.n = n

    def listing(self, labels: Sequence) -> Iterator[tuple[tuple, int]]:
        """Each nonempty support of 1..n, by size and then in
        ``combinations`` order, index i written as ``labels[i - 1]``, with
        the position in ``cubes`` of its first cube (``len(cubes)`` when
        none holds); for n <= ``MAX_CERTIFICATE_N``."""
        cubes = [(_bits(inside), _bits(outside)) for inside, outside, _ in self.cubes]
        table = _first_cubes(cubes, self.n)
        bits = [1 << i for i in range(self.n)]
        sizes = range(1, self.n + 1)
        # each support and its bitmask, in the same order
        supports = chain.from_iterable(combinations(labels, k) for k in sizes)
        masks = chain.from_iterable(map(sum, combinations(bits, k)) for k in sizes)
        return zip(supports, map(table.__getitem__, masks))

    def verify(self, matrix: ExchangeMatrix) -> list[str]:
        """A list of problems; empty means the certificate checks out."""
        problems = []
        if self.n != matrix.n:
            problems.append(f"certificate is for n = {self.n}, "
                            f"the matrix has n = {matrix.n}")
        table = _rule_cubes(matrix)
        held = []
        for inside, outside, rule in self.cubes:
            cube = table.get(rule)
            if cube is None:
                problems.append(f"{rule} is not a rule of this matrix")
            elif cube != (_bits(inside), _bits(outside)):
                problems.append(f"{rule} holds on the cube {_support(cube[0])} "
                                f"in, {_support(cube[1])} out, not on "
                                f"{inside} in, {outside} out")
            else:
                held.append(cube)
        hole = _uncovered(held, matrix.n)
        if hole is not None:
            problems.append(f"support {_support(hole[0])} is not covered")
        return problems

    def __len__(self):
        """How many supports the certificate covers: 2^n - 1."""
        return (1 << self.n) - 1


def _shrink_stuck(cubes, mask: int) -> int:
    """A stuck support inside the stuck support ``mask``: its indices are
    dropped in ascending order, each while the rest stays nonempty and no
    cube holds on it."""
    for i in _support(mask):
        rest = mask & ~(1 << (i - 1))
        if rest and not any(inside & rest == inside and not outside & rest
                            for inside, outside in cubes):
            mask = rest
    return mask


class ProverResult(NamedTuple):
    certificate: Optional[SupportCertificate]
    stuck_supports: tuple[tuple[int, ...], ...]


def inductive_prover(ideals: ExchangeIdeals) -> ProverResult:
    """Certify when the cubes of the rule table cover every nonempty support.

    Assumes the standing assumptions (connected, acyclic, coprime
    irreducible exchange polynomials) were already verified, as ``certify``
    does through ``gate`` before it calls this.
    When the cover has a hole, the stuck supports are every support no rule
    holds on, for n <= ``MAX_CERTIFICATE_N``, and past that one stuck
    support: the smallest support of the hole found, shrunk by
    ``_shrink_stuck``.
    """
    n = ideals.n
    table = _rule_cubes(ideals.matrix)
    hole = _uncovered(table.values(), n)
    if hole is not None and n > MAX_CERTIFICATE_N:
        return ProverResult(None, (_support(_shrink_stuck(table.values(),
                                                          hole[0])),))
    certificate = SupportCertificate(
        [(_support(inside), _support(outside), rule)
         for rule, (inside, outside) in table.items()], n)
    if hole is None:
        return ProverResult(certificate, ())
    return ProverResult(None, tuple(
        support for support, first in certificate.listing(range(1, n + 1))
        if first == len(table)))


# -- the full verdict pipeline ----------------------------------------------

class NotUFD(NamedTuple):
    """The upper cluster algebra is provably not a UFD."""

    witness: NotUFDWitness


class UFD(NamedTuple):
    """A complete verified certificate; cross-checked up to the given weight."""

    certificate: SupportCertificate
    cross_checked_bound: int
    notes: str = ""


class Inconclusive(NamedTuple):
    """Neither refuted nor certified; records how far direct checks got."""

    reason: str
    stuck_supports: tuple[tuple[int, ...], ...]
    verified_bound: int


UFDVerdict = Union[NotUFD, UFD, Inconclusive]

def gate(ideals: ExchangeIdeals) -> Optional[Union[NotUFD, Inconclusive]]:
    """The first two stages of ``certify``: NotUFD with the first necessary
    condition that fails, else Inconclusive (no stuck supports, bound 0)
    with the standing assumption that fails, else None when both hold.  A
    zero column raises ``ValueError`` from ``necessary_conditions``."""
    witness = necessary_conditions(ideals)
    if witness is not None:
        return NotUFD(witness)
    if not is_connected(ideals.matrix):
        return Inconclusive("the exchange matrix is not connected", (), 0)
    if not is_acyclic(ideals.matrix):
        return Inconclusive("the principal quiver has an oriented cycle", (), 0)
    return None


def certify(ideals: ExchangeIdeals) -> UFDVerdict:
    """The four stages in order: ``gate`` (the necessary conditions, then
    the standing assumptions), the certificate cover and its verification.

    ``gate``'s verdict when it has one; else Inconclusive with the stuck
    supports of the cover, or UFD with a verified certificate.  No weight
    sweep runs here, so the verdict's bound is 0.  A certificate that fails
    its verification raises ``ConsistencyError``.
    """
    stop = gate(ideals)
    if stop is not None:
        return stop
    result = inductive_prover(ideals)
    if result.certificate is None:
        return Inconclusive("no applicable lemma for some supports",
                            result.stuck_supports, 0)
    problems = result.certificate.verify(ideals.matrix)
    if problems:
        raise ConsistencyError(f"freshly built certificate fails to verify: {problems}")
    return UFD(result.certificate, 0)


def ufd_verdict(ideals: ExchangeIdeals, degree_bound: int = 3,
                budget: Optional[int] = None) -> UFDVerdict:
    """``certify``, then the direct weight sweep up to ``degree_bound``:
    how far it holds on an Inconclusive verdict, and a cross-validation of
    a UFD verdict.

    The sweep's bound is the largest weight L <= degree_bound with every
    |a| <= L check passing.  A passing bounded search never upgrades to a
    UFD verdict on its own: only a complete verified certificate does.
    Conversely a certificate that contradicts a direct Groebner check
    raises ``ConsistencyError``.
    """
    if degree_bound < 0:
        raise ValueError("the cross-check degree bound must be non-negative")
    verdict = certify(ideals)
    if isinstance(verdict, NotUFD):
        return verdict
    if isinstance(verdict, UFD) and ideals.n > 8 and degree_bound > 0:
        return verdict._replace(notes="cross-check skipped (n > 8)")
    outcomes = conjecture_sweep(ideals, degree_bound, budget)
    stop = outcomes[-1] if outcomes and outcomes[-1].status != "holds" else None
    bound = degree_bound if stop is None else sum(stop.multi_index) - 1
    fails = stop is not None and stop.status == "fails"
    if isinstance(verdict, UFD):
        if fails:
            raise ConsistencyError(
                f"certificate contradicts a direct check at {stop.multi_index}: "
                f"witness {stop.witness}")
        notes = "" if stop is None else f"cross-check stopped by budget at {stop.multi_index}"
        return verdict._replace(cross_checked_bound=bound, notes=notes)
    reason = verdict.reason
    if fails:
        reason += f"; ideal equality fails at {stop.multi_index} (witness {stop.witness})"
    elif stop is not None:
        reason += f"; budget exhausted at {stop.multi_index}"
    return verdict._replace(reason=reason, verified_bound=bound)


# -- membership and normal forms under a verified certificate ----------------

class Uncertified(Exception):
    """``certify`` gave no certificate; the argument is its verdict."""


def algebra_membership(ideals: ExchangeIdeals, value: LaurentPolynomial) -> bool:
    """Whether the Laurent value lies in the cluster algebra.

    Frozen variables are not inverted (the convention of Geiss, Leclerc and
    Schroer), so a frozen variable in the reduced denominator means
    non-member.  Valid only under a verified certificate (which makes
    valuations detect membership exactly): it runs ``certify`` first and
    raises ``Uncertified`` without one, where only explicit Groebner
    product-ideal computations decide membership.
    """
    verdict = certify(ideals)
    if not isinstance(verdict, UFD):
        raise Uncertified(verdict)
    if value.m != ideals.m:
        raise ValueError("value lives in the wrong ambient ring")
    if value.is_zero:
        return True
    if any(value.den[ideals.n:]):
        return False
    for i in range(1, ideals.n + 1):
        needed = value.den[i - 1]
        if needed and not ideals.power_membership(value.num, i, needed):
            return False
    return True


class NormalFormResult(NamedTuple):
    """An irreducible element's canonical Laurent form P / M(P)."""

    value: LaurentPolynomial
    normal_monomial: tuple[int, ...]
    irreducibility: str  # "irreducible" | "reducible" | "unverified"


def normal_form_element(ideals: ExchangeIdeals, p: Polynomial) -> NormalFormResult:
    """P / M(P) for a unit-normalized polynomial not divisible by any
    variable; it runs ``certify`` first, as ``algebra_membership`` does."""
    verdict = certify(ideals)
    if not isinstance(verdict, UFD):
        raise Uncertified(verdict)
    if p.is_zero or p.total_degree() < 1:
        raise ValueError("normal forms are defined for nonconstant polynomials")
    content = p.min_exponents()
    for pos, e in enumerate(content):
        if e:
            raise ValueError(
                f"x{pos + 1} divides the input; strip monomial factors first")
    _, lc = p.leading(GREVLEX)
    normalized = p * p.field.div(1, lc)
    monomial = ideals.normal_monomial(normalized)
    value = LaurentPolynomial(normalized, monomial)
    # the factor oracle loads sympy, so it runs only when neither in-package
    # decision applies
    verdict = binomial_irreducible(normalized)
    if verdict is None and _linear_irreducible(normalized):
        verdict = True
    if verdict is None:
        factors = brute_force_factor(normalized)
        if factors is not None:
            verdict = len(factors) == 1
    status = {True: "irreducible", False: "reducible", None: "unverified"}[verdict]
    return NormalFormResult(value, monomial, status)
