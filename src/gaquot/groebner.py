"""Groebner-basis engine: the decision procedures behind the geometry.

Normal forms, unit-ideal emptiness tests (squarefreeness among them),
tag elimination, Krull dimension via leading-term independent sets and
subalgebra membership are all read off Groebner bases computed by
Buchberger's algorithm: each verdict completes one run and reads its
rows, and only `buchberger` builds a `GroebnerBasis` record.  It selects
pairs by the normal strategy
(smallest lcm first), except where it eliminates under a block order
from a graph ideal of homogeneous polynomials, as the tag eliminations
of homogeneous kernels do: there a block order's smallest lcm need not
have the least degree, and it selects by the sugar strategy (least
sugar first, then smallest lcm; see `_Run`).  One question is
settled without a run whenever an exact shortcut decides it, with
Buchberger as the fallback: the squarefreeness test first looks for a
modular certificate that p and p' are coprime, before the unit-ideal
test of (p, p') over Q decides.  One run state, `_Run`, holds the
rows, the pair queue and the pair loop, and one function builds and
drives it: `_completed_run` seeds it once with packed seeds and
completes it, for `buchberger`, `is_unit_ideal`, `krull_dimension`,
`_graph_run` and the v3 presentation.  One read-out, `_Run.reduced`,
gives `buchberger` and the graph relations (`_relations`) their part of
a completed run's reduced basis, and one unpacking, `_polynomial`,
makes every packed result a polynomial.  Pairs are pruned when they
are formed, by the update of Gebauer and Moeller
("On an installation of Buchberger's algorithm", J. Symb. Comp. 6, 1988;
UPDATE in Becker and Weispfenning, "Groebner Bases", GTM 141), run each
time an element joins the basis: criteria M and F and the product
criterion on the new pairs, criterion B on the queued ones.  The update
also retires every element whose leading monomial the new one divides,
and S-polynomials are reduced against the active elements only; since a
retired leading monomial is a multiple of an active one, remainders are
still full normal forms.  Output is deterministic for fixed input and
order; a reduced basis is listed in ascending order of leading monomial.
Each term order is one descending sort key, built on the one grevlex key
of `poly`.  The tag-variable graph ideal (extra) + (y_i - g_i), over
the ring extended by one tag y_i per g_i, is laid out once: its packing,
`_graph_packing`, puts the ring's variables in the first exponent fields
and the tags in the next ones, under the block order eliminating the
ring.  `_graph_seed` packs y_i - g_i straight from the terms of g_i, so
no polynomial over the extended ring is built.  `_graph_run` seeds a
run with the whole ideal, for `subalgebra_membership`, which
`_GraphSpan` asks once per candidate, and for the eliminations
`_graph_relations` of the saturation rounds and of
`subalgebra_presentation`.  `families.invariant_presentation`
writes its own seeds as packed integer term dicts under
`_graph_packing`, over z1, z3 and z5 alone, as its survivors z2 and z4
are their own tags, and reads its relations off the completed run with
`_relations`.

Buchberger, normal forms and the pair update work on packed monomials:
inside the engine a monomial is one Python int, linear in its exponent
vector (after Monagan and Pearce, "Polynomial division using dynamic
arrays, heaps, and packed exponent vectors", CASC 2007).
One packing per term order and number of variables, `_packing`, lays
out, from the top: the order's descending key as signed fields, a
total-degree field, and the exponents, each in a 32-bit field whose top
bit is a guard.  A product of monomials is a sum of ints, a comparison
under the order is a comparison of ints (smaller is larger, as with the
descending key), divisibility is one subtraction and one mask of the
guard bits, an lcm is a field-wise max of the exponent fields, and the
degree is a shift and a mask.  The working polynomial's monomials sit in
a binary heap of bare ints, so the leading term is popped rather than
found by a scan, and a term that cancels after it was queued is skipped
when popped.  Exponent tuples enter only through `_Packing.pack` and
leave only through `_Packing.unpack`; every exponent must stay below
2**31, and an input or a reduction that passes that bound raises
`ResourceCapError` before it can be mis-ordered.

Buchberger and normal forms reduce fraction-free, the standard practice
over the rationals (Becker and Weispfenning, "Groebner Bases", GTM 141).
Basis rows are primitive integer polynomials: content removed, leading
coefficient positive.  A reduction step cross-multiplies by the two
leading coefficients divided by their gcd, and the working polynomial
keeps the accumulated scale.  Coefficients are divided only at the
edges, through `poly._exact_quotient`, so they stay ints where the
quotient is integral and become Fractions only where it is not: an
input is cleared of denominators once, a normal form is divided by its
scale and denominator, and a reduced basis is made monic as it is
returned, so its output is the unique monic reduced basis.  Exact
division is a normal form too, so `_reduce_full` is the one reduction
loop: p/d is the normal form of p*t modulo d*t - 1, with a new variable
t (`divide_exact`).
"""

from __future__ import annotations

import heapq
from functools import lru_cache
from itertools import combinations
from math import gcd, lcm
from operator import itemgetter, mul, neg
from pathlib import Path
from struct import Struct
from typing import Optional, Sequence, Union

from .errors import (
    NotUnivariateError,
    ParseError,
    ResourceCapError,
    RingMismatchError,
    UnitIdealError,
    UsageError,
    ZeroPolynomialError,
)
from .poly import (
    Polynomial,
    VarSet,
    _Record,
    _exact_quotient,
    _grevlex_descending,
    fresh_names,
    parse,
    read_spec_file,
    scan_identifiers,
)

# -- term orders ---------------------------------------------------------------


class TermOrder(_Record):
    """Multiplication-compatible total order on monomials with 1 minimal.

    kind is one of "grevlex", "lex", "block"; a block(k) order compares
    the first k exponents grevlex-first (so it eliminates those
    variables), then the rest grevlex.  A block order takes a
    nonnegative block size and the others none (0); any other size
    raises ValueError.

    Each order carries one sort key on exponent tuples, built once:
    `descending_key`, under which a smaller key means a larger monomial,
    so a `heapq` min-heap pops the leading monomial first, `min` finds
    the leading monomial and `sorted` lists monomials from the largest.
    The key is injective, so ties never fall through to the monomial
    itself.  grevlex is defined once, as `poly._grevlex_descending`.
    """

    __slots__ = ("kind", "block_size", "descending_key")
    _fields = ("kind", "block_size")

    def __init__(self, kind: str, block_size: int = 0):
        if kind == "grevlex":
            descending = _grevlex_descending
        elif kind == "lex":
            descending = _lex_descending
        elif kind == "block":
            if block_size < 0:
                raise ValueError("block size must be nonnegative")
            descending = _block_descending(block_size)
        else:
            raise ValueError(f"unknown term order {kind!r}")
        if block_size and kind != "block":
            raise ValueError(f"block size must be 0 for a {kind} order")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "block_size", block_size)
        object.__setattr__(self, "descending_key", descending)

    @staticmethod
    def grevlex() -> "TermOrder":
        return TermOrder("grevlex")

    @staticmethod
    def lex() -> "TermOrder":
        return TermOrder("lex")

    @staticmethod
    def block(k: int) -> "TermOrder":
        return TermOrder("block", k)


def _lex_descending(exps):
    return tuple(map(neg, exps))


def _block_descending(k: int):
    return lambda exps: _grevlex_descending(exps[:k]) + _grevlex_descending(exps[k:])


# -- ideals and bases ----------------------------------------------------------


class Ideal(_Record):
    """Finitely generated ideal; zero generators are dropped unless that
    would empty the list."""

    __slots__ = _fields = ("ring", "generators")

    def __init__(self, ring: VarSet, generators: Sequence[Polynomial]):
        gens = tuple(generators)
        if not gens:
            raise ValueError("an ideal needs at least one generator")
        for g in gens:
            if g.ring != ring:
                raise RingMismatchError("generator ring differs from ideal ring")
        nonzero = tuple(g for g in gens if not g.is_zero())
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "generators", nonzero or (ring.zero(),))

    def __add__(self, other: "Ideal") -> "Ideal":
        return Ideal(self.ring, self.generators + other.generators)


class GroebnerBasis(_Record):
    """Reduced basis (monic, pairwise irreducible) of `source` under `order`.
    Its three fields are all it holds, so equal records reduce alike."""

    __slots__ = _fields = ("order", "basis", "source")

    def __init__(self, order: TermOrder, basis: tuple, source: Ideal):
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "source", source)


class ResourceCaps(_Record):
    """Budget converting runaway computations into clean errors: a
    Buchberger run reduces at most `max_pairs` S-polynomials (the pairs
    that survive pruning) and adds no remainder of one above total degree
    `max_degree`.  A negative budget raises UsageError."""

    __slots__ = _fields = ("max_pairs", "max_degree")

    def __init__(self, max_pairs: int = 100_000, max_degree: int = 60):
        if max_pairs < 0:
            raise UsageError("max_pairs must be nonnegative")
        if max_degree < 0:
            raise UsageError("max_degree must be nonnegative")
        object.__setattr__(self, "max_pairs", max_pairs)
        object.__setattr__(self, "max_degree", max_degree)


DEFAULT_CAPS = ResourceCaps()


# -- packed monomials ------------------------------------------------------------

_EXPONENT_BITS = 32
_EXPONENT_BOUND = 1 << (_EXPONENT_BITS - 1)  # the top bit of each field is its guard


def _first_fields(k: int) -> int:
    """The mask of the exponent fields of the first k variables, the
    lowest fields: a packed monomial is free of them iff it misses it."""
    return (1 << _EXPONENT_BITS * k) - 1


class _Packing:
    """Monomials of an n-variable ring under one term order, `order`, as ints.

    pack(e) = sum of e_i * weight_i, so the packing is linear: the
    product of monomials is the sum of their packed ints, and a tuple of
    the first k < n exponents packs as the monomial with the others zero,
    which is how a polynomial packs into a ring that appends variables
    to its own.  `weights` holds the packed unit vectors: the weight of
    the i-th unit vector places, from the most significant field down,
    the order's descending key of that vector (one signed field per key
    entry), a 1 in the total-degree field and a 1 in the i-th 32-bit
    exponent field.  Key and degree fields are 32 + n.bit_length() bits
    wide, which holds any value they take while every exponent is below
    2**32, so no field carries into the next and comparing packed ints
    compares descending keys: a smaller int is a larger monomial.

    Exponents of packed inputs and of every monomial the core keeps are
    below 2**31 (`_EXPONENT_BOUND`), so their guard bits are clear; a
    product of two such monomials stays below 2**32 in each field, and
    its guard bits show whether it passed the bound.  For two monomials
    below the bound, b divides a iff (a - b) & guard == 0: a negative
    field difference borrows and sets its guard bit.  The exponent fields
    are the lowest, `low` masks them, and `lcm` works on them alone."""

    def __init__(self, order: TermOrder, n: int):
        self.order = order
        width = _EXPONENT_BITS + n.bit_length()
        self._degree_shift = _EXPONENT_BITS * n
        self._degree_mask = (1 << width) - 1
        weights = []
        for i in range(n):
            key = order.descending_key((0,) * i + (1,) + (0,) * (n - 1 - i))
            top = self._degree_shift + width * len(key)  # where the first key field starts
            weights.append(sum(k << (top - width * f) for f, k in enumerate(key) if k)
                           + (1 << self._degree_shift) + (1 << (_EXPONENT_BITS * i)))
        self.weights = tuple(weights)
        self.guard = sum(_EXPONENT_BOUND << (_EXPONENT_BITS * i) for i in range(n))
        self.low = _first_fields(n)
        self._low_bytes = _EXPONENT_BITS // 8 * n
        self._fields = Struct(f"<{n}I")

    def pack(self, exps) -> int:
        if max(exps, default=0) >= _EXPONENT_BOUND:
            raise ResourceCapError(f"exponent {max(exps)} is at or above the bound 2**31")
        return sum(map(mul, exps, self.weights))

    def unpack(self, m: int) -> tuple:
        return self._fields.unpack((m & self.low).to_bytes(self._low_bytes, "little"))

    def degree(self, m: int) -> int:
        return m >> self._degree_shift & self._degree_mask

    def lcm(self, a: int, b: int) -> int:
        """The exponent fields of the lcm of two monomials below the bound,
        a field-wise max (SWAR): a field of (a | guard) - b keeps its guard
        bit iff a's exponent is at least b's, and that bit is spread into
        an all-ones mask over the field, selecting a's exponent there.  So
        a and b are coprime iff their lcm is (a + b) & low."""
        a &= self.low
        b &= self.low
        ge = ((a | self.guard) - b) & self.guard
        return b ^ ((a ^ b) & ((ge << 1) - (ge >> (_EXPONENT_BITS - 1))))


# One entry per term order and ring size in use.  After one in-process
# `perfbench/run.py --workload W --seconds 1` run, at seed 1 or 11, the cache
# holds 10 for cli-mix, the widest workload, 7 for kernel-width, 1 for battery-degree.
@lru_cache(maxsize=256)
def _packing(order: TermOrder, n: int) -> _Packing:
    return _Packing(order, n)


def _integer_terms(terms, pack) -> tuple:
    """(packed integer term dict, d): the rational term dict times the
    least common multiple d of its denominators."""
    d = lcm(*(c.denominator for c in terms.values()))
    return {pack(m): c.numerator * (d // c.denominator) for m, c in terms.items()}, d


def _row(terms: dict) -> tuple:
    """The packed row (lm, lc, tail) of a nonzero integer term dict that
    lists its terms in descending order, divided by its content and
    signed so that lc is positive."""
    items = iter(terms.items())
    lm, lc = next(items)
    content = gcd(*terms.values())
    if lc < 0:
        content = -content
    if content == 1:
        return lm, lc, tuple(items)
    return lm, lc // content, tuple((m, c // content) for m, c in items)


def _reduce_full(work: dict, rows: Sequence, guard: int) -> tuple:
    """Full normal form of the packed integer term dict `work` against
    the packed `rows`: (remainder, scale), where the remainder is
    scale * work modulo the rows and scale is a positive integer.

    The leading monomial comes off a heap of packed ints instead of a
    scan of `work`.  A popped term c*x^m whose monomial the leading term
    lc*x^lm of a row divides is cancelled without leaving the integers:
    with h = gcd(c, lc), the working dict and the remainder so far are
    multiplied by lc/h, then (c/h)*x^(m-lm) times the row's tail is
    subtracted.  Reducing a monomial m only adds monomials smaller than
    m, so a popped monomial never returns.  The remainder's terms are in
    descending order, so its first key is its leading monomial.  A popped
    monomial with a guard bit set has passed the exponent bound, and
    raises.  Consumes `work`."""
    heap = list(work)
    heapq.heapify(heap)
    heappop, heappush = heapq.heappop, heapq.heappush
    remainder: dict = {}
    scale = 1
    while heap:
        m = heappop(heap)
        c = work.pop(m)
        if not c:
            continue
        if m & guard:
            raise ResourceCapError("a reduction passed the exponent bound 2**31")
        for lm, lc, tail in rows:
            shift = m - lm
            if not shift & guard:
                h = gcd(c, lc)
                factor = lc // h
                if factor != 1:
                    scale *= factor
                    for t in work:
                        work[t] *= factor
                    for t in remainder:
                        remainder[t] *= factor
                c = -c // h
                for gm, gc in tail:
                    t = shift + gm
                    old = work.get(t)
                    if old is None:
                        work[t] = c * gc
                        heappush(heap, t)
                    else:
                        work[t] = old + c * gc
                break
        else:
            remainder[m] = c
    return remainder, scale


def _spoly(f: tuple, g: tuple, l: int) -> dict:
    """S-polynomial, at the packed lcm l of the two leading monomials, of
    two packed rows, each multiplied by the other's leading coefficient
    over the gcd of the two; the leading terms cancel and are left out."""
    lmf, lcf, tailf = f
    lmg, lcg, tailg = g
    sf, sg = l - lmf, l - lmg
    h = gcd(lcf, lcg)
    a, b = lcg // h, lcf // h
    terms = {sf + m: a * c for m, c in tailf}
    for m, c in tailg:
        t = sg + m
        val = terms.get(t, 0) - b * c
        if val:
            terms[t] = val
        else:
            del terms[t]
    return terms


def _update(pairs: list, basis: list, sugar: Optional[list], active: list,
            packing: _Packing) -> list:
    """Gebauer-Moeller update for the row just appended, the last of
    `basis`: prunes the queued `pairs` in place, queues the new pairs that
    survive, and returns the new active indices.

    Queued pairs are (sugar, negated packed lcm, i, j); the low fields of
    the packed lcm are its exponents.  With `sugar`, the sugar of each row
    of `basis`, a pair's sugar is max(sugar[k] + deg lcm - deg lm_k) over
    its two rows, so the heap pops the least sugar first and, among equal
    sugar, the smallest lcm; with None it is 0 and the smallest lcm comes
    first.  With h the new leading monomial:
    - criterion B drops a queued pair whose lcm h divides unless h joined
      with either element gives that same lcm;
    - of the new pairs (g, h), g active, criterion M drops one whose lcm
      another new lcm properly divides, criterion F keeps one pair per lcm
      (the first), and the product criterion drops every pair whose lcm is
      also that of a pair with coprime leading monomials;
    - every active element whose leading monomial h divides retires.
    """
    guard, low, lcm, degree = packing.guard, packing.low, packing.lcm, packing.degree
    j = len(basis) - 1
    h = basis[j][0]
    kept = [p for p in pairs
            if (-p[1] - h) & guard or lcm(basis[p[2]][0], h) == -p[1] & low
            or lcm(basis[p[3]][0], h) == -p[1] & low]
    if len(kept) < len(pairs):
        pairs[:] = kept
        heapq.heapify(pairs)
    first: dict = {}  # lcm exponents -> first active index, None if any pair is coprime
    for i in active:
        g = basis[i][0]
        l = lcm(g, h)
        if l == (g + h) & low:
            first[l] = None
        else:
            first.setdefault(l, i)
    for l, i in first.items():
        # a proper divisor of l is a smaller int, so t < l filters cheaply first
        if i is None or any(t < l and not (l - t) & guard for t in first):
            continue
        l = packing.pack(packing.unpack(l))
        s = (0 if sugar is None
             else max(sugar[i] - degree(basis[i][0]), sugar[j] - degree(h)) + degree(l))
        heapq.heappush(pairs, (s, -l, i, j))
    return [i for i in active if (basis[i][0] - h) & guard] + [j]


def _selects_by_sugar(packing: _Packing, seeds: Sequence[dict]) -> bool:
    """Whether a run under `packing` from the packed term dicts `seeds`
    selects pairs by sugar: under a block order, when every seed is
    homogeneous or c*y - g, with y a variable of the second block and g
    homogeneous in the first.  A tag elimination of homogeneous
    generators, with homogeneous extras, is such a run: weighting each
    tag y by the degree of its g makes every seed homogeneous."""
    if packing.order.kind != "block":
        return False
    outside = packing.low ^ _first_fields(packing.order.block_size)  # the second block
    degree = packing.degree
    for seed in seeds:
        if len(set(map(degree, seed))) == 1:
            continue
        tagged = [m for m in seed if m & outside]
        if len(tagged) != 1 or degree(tagged[0]) != 1 \
                or len({degree(m) for m in seed if not m & outside}) != 1:
            return False
    return True


class _Run:
    """The state of one Buchberger run under one packing: the packed rows
    added so far, the sugar of each if the run selects pairs by sugar, the
    pair queue and active indices of `_update`, and the S-polynomials
    reduced, counted against `caps.max_pairs`.

    Reducers are the active rows.  A retired row's leading monomial is a
    multiple of an active one, so remainders are full normal forms.

    A run selects pairs by sugar (Giovini, Mora, Niesi, Robbiano and
    Traverso, "One sugar cube, please", ISSAC 1991) when `_completed_run`
    finds that `_selects_by_sugar` holds for its seeds.  A seed row's
    sugar is its total degree, and an S-polynomial remainder's is its
    pair's, or its own total degree if that is larger: an estimate of
    the degree it would have if the input were homogenized.  A block
    order's smallest lcm need not have the least degree: by smallest lcm
    the tag eliminations of `kernel_saturation` on seven blocks reduce
    77,610 S-polynomials, against 4,049 by sugar.  Every other run takes
    the smallest lcm first.  grevlex is degree-first already.  With the
    sugar test forced on (`buchberger` on one core of a 2-core Xeon,
    Python 3.11.7), sugar makes katsura-3 under lex about 30 times
    slower, 64 ms against 2.2 ms (best of 5), with 27 S-polynomials
    either way; under the block order eliminating 3 of katsura-4's 5
    variables, a run of 0.24 s by smallest lcm (best of 3) had not ended
    by sugar after 16 minutes.  Reduced bases are unique, so the
    selection changes the work done, never the result."""

    def __init__(self, packing: _Packing, caps: ResourceCaps, sugared: bool = False):
        self.packing = packing
        self.caps = caps
        self.basis: list = []  # packed rows
        self.sugar: Optional[list] = [] if sugared else None  # the sugar of each row
        self.pairs: list = []
        self.active: list = []
        self.rows: list = []  # the active rows
        self.reductions = 0

    def reduce(self, work: dict) -> dict:
        """Normal form of the packed integer term dict `work` against the
        active rows, up to a positive integer scale; consumes `work`."""
        return _reduce_full(work, self.rows, self.packing.guard)[0]

    def append(self, reduced: dict, sugar: Optional[int] = None) -> None:
        """Add a nonzero remainder as a row, with its sugar (a seed's is
        its total degree), and update the pairs."""
        self.basis.append(_row(reduced))  # remainders list their terms in descending order
        if self.sugar is not None:
            self.sugar.append(max(map(self.packing.degree, reduced)) if sugar is None else sugar)
        self.active = _update(self.pairs, self.basis, self.sugar, self.active, self.packing)
        self.rows = [self.basis[k] for k in self.active]

    def complete(self) -> None:
        """Reduce queued S-polynomials until none is left; the active rows
        are then a Groebner basis of everything appended."""
        pairs, basis, caps = self.pairs, self.basis, self.caps
        while pairs:
            sugar, l, i, j = heapq.heappop(pairs)
            self.reductions += 1
            if self.reductions > caps.max_pairs:
                raise ResourceCapError(f"pair budget {caps.max_pairs} exhausted")
            reduced = self.reduce(_spoly(basis[i], basis[j], -l))
            if not reduced:
                continue
            degree = max(map(self.packing.degree, reduced))
            if degree > caps.max_degree:
                raise ResourceCapError(f"degree budget {caps.max_degree} exhausted")
            self.append(reduced, max(sugar, degree))

    def reduced(self, free_of: int = 0) -> list:
        """The packed rows of a completed run's reduced basis whose leading
        monomials have no exponent in the fields of the mask `free_of`, in
        ascending order of leading monomial; the whole basis for mask 0.

        No active leading monomial divides another, so the active rows
        form a minimal basis.  Each kept row is tail-reduced against the
        other rows kept, which preserves its leading monomial; leading
        monomials are distinct, so the order is deterministic.  Leaving
        the other rows out as reducers is exact under a block order whose
        first block is the mask's fields: a kept row's tail is free of
        the block, as its leading monomial is, and no leading monomial
        with a block variable divides a monomial free of it (Becker and
        Weispfenning, GTM 141)."""
        kept = sorted((row for row in self.rows if not row[0] & free_of),
                      key=itemgetter(0), reverse=True)
        final = []
        for lm, lc, tail in kept:
            work = dict(((lm, lc),) + tail)
            final.append(_row(_reduce_full(work, [r for r in kept if r[0] != lm],
                                           self.packing.guard)[0]))
        return final


def _completed_run(packing: _Packing, seeds: Sequence[dict], caps: ResourceCaps) -> _Run:
    """The run under `packing` seeded with the packed integer term dicts
    `seeds`, in order, completed: the one run behind `buchberger`,
    `is_unit_ideal`, `krull_dimension`, `_graph_run` and
    `families.invariant_presentation`.  Consumes `seeds`."""
    run = _Run(packing, caps, _selects_by_sugar(packing, seeds))
    for seed in seeds:
        reduced = run.reduce(seed)
        if reduced:
            run.append(reduced)
    run.complete()
    return run


def _polynomial(ring: VarSet, terms, packing: _Packing, start: int, d: int) -> Polynomial:
    """The packed integer terms, (monomial, coefficient) pairs, over the
    positive integer d, as a polynomial over `ring` whose exponents are
    the len(ring) exponent fields from field `start` on: the one place
    the engine builds a polynomial."""
    unpack, stop = packing.unpack, start + len(ring)
    return Polynomial(ring, {unpack(m)[start:stop]: _exact_quotient(c, d) for m, c in terms})


def _monic(rows: list, packing: _Packing, ring: VarSet, start: int) -> tuple:
    """The packed `rows` made monic, each over its leading coefficient, as
    polynomials over `ring` read from the exponent fields from `start` on
    (`_polynomial`)."""
    return tuple(_polynomial(ring, ((lm, lc),) + tail, packing, start, lc)
                 for lm, lc, tail in rows)


def buchberger(ideal: Ideal, order: Optional[TermOrder] = None,
               caps: ResourceCaps = DEFAULT_CAPS) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal, deterministic for fixed input.

    `caps.max_pairs` bounds the S-polynomials reduced, which are the pairs
    that survive the pruning of `_update`.  Every exponent of the input
    and of the terms the reduction reaches must stay below 2**31.  Passing
    a cap or that bound raises ResourceCapError."""
    packing = _packing(order or TermOrder.grevlex(), len(ideal.ring))
    seeds = [_integer_terms(g.terms, packing.pack)[0] for g in ideal.generators]
    run = _completed_run(packing, seeds, caps)
    polys = _monic(run.reduced(), run.packing, ideal.ring, 0)
    return GroebnerBasis(packing.order, polys, ideal)


def normal_form(f: Polynomial, gb: GroebnerBasis) -> Polynomial:
    """Unique remainder of f modulo the basis, packed as the primitive rows
    `buchberger` reduced, so it depends on the basis alone; zero iff f is
    a member.  Raises ResourceCapError if an exponent of f or of a term
    the reduction reaches is 2**31 or more."""
    if f.ring != gb.source.ring:
        raise RingMismatchError("polynomial ring differs from basis ring")
    packing = _packing(gb.order, len(f.ring))
    rows = [_row(dict(sorted(_integer_terms(g.terms, packing.pack)[0].items())))
            for g in gb.basis]
    work, d = _integer_terms(f.terms, packing.pack)
    remainder, scale = _reduce_full(work, rows, packing.guard)
    return _polynomial(f.ring, remainder.items(), packing, 0, d * scale)


def is_unit_ideal(ideal: Ideal, caps: ResourceCaps = DEFAULT_CAPS) -> bool:
    """True iff the ideal is the whole ring, i.e. its vanishing set is empty.

    A nonzero constant generator is the unit ideal and the zero ideal is
    proper, with no Groebner run; otherwise the ideal is the unit ideal
    iff a constant (packed as 0) leads a row of the completed grevlex run
    under `caps`, retiring every other."""
    gens = [g.terms for g in ideal.generators if not g.is_zero()]
    one = (0,) * len(ideal.ring)
    if any(t.keys() == {one} for t in gens):
        return True
    if not gens:
        return False
    packing = _packing(TermOrder.grevlex(), len(ideal.ring))
    seeds = [_integer_terms(t, packing.pack)[0] for t in gens]
    return _completed_run(packing, seeds, caps).rows[0][0] == 0


def divide_exact(p: Polynomial, d: Polynomial) -> Optional[Polynomial]:
    """Quotient p/d when d divides p exactly, else None.

    A normal form (Becker and Weispfenning, GTM 141): in
    Q[x, t]/(d*t - 1) = Q[x][1/d], p/d is p*t, reduced by `_reduce_full`
    modulo the row d*t - 1 under the block order eliminating t, put
    first.  The row leads with t*lm(d), lm under grevlex, so this is
    grevlex division, and each quotient term, free of t and below every
    monomial with t, lands in the remainder: d divides p iff no remainder
    monomial has t, and the remainder is then the quotient times the
    denominator of p and the reduction's scale.  A division that is not
    exact reduces to the end before it returns None.  Raises
    ZeroPolynomialError for d = 0, RingMismatchError for p and d in
    different rings, and ResourceCapError when an exponent of p or d, or
    of a term the division reaches, is 2**31 or more."""
    if d.is_zero():
        raise ZeroPolynomialError("division by the zero polynomial")
    if p.ring != d.ring:
        raise RingMismatchError("divisor ring differs from dividend ring")
    packing = _packing(TermOrder.block(1), len(p.ring) + 1)
    work, denominator = _integer_terms(p.terms, lambda m: packing.pack((1,) + m))
    row, cleared = _integer_terms(d.terms, lambda m: packing.pack((1,) + m))
    row[0] = -cleared  # the constant packs as 0, the least monomial
    remainder, scale = _reduce_full(work, [_row(dict(sorted(row.items())))], packing.guard)
    if any(m & _first_fields(1) for m in remainder):  # t's exponent field
        return None
    return _polynomial(p.ring, remainder.items(), packing, 1, denominator * scale)


# -- squarefreeness ------------------------------------------------------------------


# Fixed primes of the modular coprimality certificate, tried in order, so
# every verdict is deterministic: the Mersenne primes 2**31 - 1 and 2**61 - 1.
_COPRIME_PRIMES = (2**31 - 1, 2**61 - 1)


def _coprime_mod(a: list, b: list, prime: int) -> bool:
    """Whether gcd(a mod prime, b mod prime) is a nonzero constant, for
    integer coefficient lists in ascending degree, a's last entry (its
    leading coefficient) prime to `prime`: Euclid on dense lists of
    residues, each step cancelling the leading entry, which is popped."""
    a = [c % prime for c in a]
    b = [c % prime for c in b]
    while b and not b[-1]:
        b.pop()
    while b:
        inverse, body = pow(b[-1], -1, prime), b[:-1]
        shift = len(a) - len(b)
        while shift >= 0:
            q = a.pop() * inverse % prime
            for k, c in enumerate(body, shift):
                a[k] = (a[k] - q * c) % prime
            while a and not a[-1]:
                a.pop()
            shift = len(a) - len(b)
        a, b = b, a
    return len(a) == 1


def is_squarefree(p: Polynomial) -> bool:
    """True iff a nonzero univariate polynomial has no repeated roots.

    Over the rationals this is exactly (p, p') = (1), p and p' coprime,
    which certifies distinct roots over the algebraic closure.  A modular
    certificate (von zur Gathen and Gerhard, "Modern Computer Algebra",
    ch. 6) decides most inputs with no Groebner run.  With a and b the
    integer polynomials d*p and e*p', d and e the lcms of the
    denominators, take a prime of `_COPRIME_PRIMES` that does not divide
    lc(a); if a and b are coprime mod that prime, they are coprime over
    Q.  For a nonconstant common factor of a and b can be taken primitive
    in Z[x], where it divides a, so its leading coefficient divides lc(a)
    and it keeps its degree mod the prime.  A common factor mod the prime
    proves nothing, so when no prime certifies, `is_unit_ideal` decides on
    (p, p').  In one variable its fraction-free grevlex run is Euclid on
    primitive integer pseudo-remainders, the primitive PRS (Collins, JACM
    14, 1967; Brown, JACM 18, 1971): each remainder's content is divided
    out, so its coefficients do not swell as in Euclid over the rationals.
    No remainder has a degree above deg p, which is the run's degree cap.
    """
    if p.is_zero():
        raise ZeroPolynomialError("squarefreeness is undefined for 0")
    used = p.variables()
    if len(used) > 1:
        raise NotUnivariateError(f"polynomials involve several variables: {sorted(used)}")
    if not used:
        return True  # nonzero constants have no roots at all
    derivative = p.partial(used[0])
    degree_of = itemgetter(p.ring.index(used[0]))
    a, b = ([terms.get(e, 0) for e in range(max(terms) + 1)]  # ascending degree
            for terms, _ in (_integer_terms(r.terms, degree_of) for r in (p, derivative)))
    if any(a[-1] % prime and _coprime_mod(a, b, prime) for prime in _COPRIME_PRIMES):
        return True
    return is_unit_ideal(Ideal(p.ring, (p, derivative)),
                         ResourceCaps(max_degree=p.total_degree()))


# -- dimension ---------------------------------------------------------------------


def krull_dimension(ideal: Ideal, caps: ResourceCaps = DEFAULT_CAPS) -> int:
    """Dimension of the vanishing set: the largest set of variables
    containing the support of no leading monomial of a grevlex Groebner
    basis (the independent-set criterion, Becker and Weispfenning, GTM
    141, 9.3).  The active rows of the completed run are a minimal basis,
    so their leading monomials are those of the reduced basis; the zero
    ideal leaves no rows.  The unit ideal, where a constant (packed as 0)
    leads a row, raises UnitIdealError.  So the zero ideal gives n and a
    nonconstant principal ideal n - 1, a hypersurface (Cox, Little and
    O'Shea, "Ideals, Varieties, and Algorithms", ch. 9)."""
    n = len(ideal.ring)
    packing = _packing(TermOrder.grevlex(), n)
    seeds = [_integer_terms(g.terms, packing.pack)[0] for g in ideal.generators]
    run = _completed_run(packing, seeds, caps)
    leading = [lm for lm, _, _ in run.rows]
    if 0 in leading:
        raise UnitIdealError("the empty set has no dimension")
    unpack = run.packing.unpack
    supports = [frozenset(i for i, e in enumerate(unpack(lm)) if e) for lm in leading]
    for size in range(n, -1, -1):
        for subset in combinations(range(n), size):
            chosen = set(subset)
            if all(not support <= chosen for support in supports):
                return size
    raise AssertionError("unreachable: the empty set is always independent")


def _graph_packing(n: int, count: int) -> _Packing:
    """The packing of a graph ideal over an n-variable ring with `count`
    tags: the ring's variables in the first n exponent fields, the tags in
    the next `count`, under the block order eliminating the ring."""
    return _packing(TermOrder.block(n), n + count)


def _graph_seed(packing: _Packing, tag: int, form: Polynomial) -> dict:
    """The packed integer term dict of y - form, y the packed tag `tag`,
    times the least positive integer that clears its denominators: a
    graph-ideal generator y_i - g_i, packed from the terms of g_i."""
    work, d = _integer_terms(form.terms, packing.pack)
    seed = {m: -c for m, c in work.items()}
    seed[tag] = d
    return seed


def _graph_run(ring: VarSet, gens: Sequence[Polynomial], extra: Sequence[Polynomial],
               caps: ResourceCaps) -> _Run:
    """The completed run of the graph ideal (extra) + (y_i - gens_i), the
    `extra` generators over `ring` first, under `_graph_packing(len(ring),
    len(gens))`.  With neither, it is the zero ideal, which leaves no
    rows.  Raises RingMismatchError for a generator not over `ring`."""
    n = len(ring)
    if any(g.ring != ring for g in gens):
        raise RingMismatchError("graph generators over the wrong ring")
    packing = _graph_packing(n, len(gens))
    seeds = [_integer_terms(e.terms, packing.pack)[0] for e in extra]
    seeds += [_graph_seed(packing, tag, g) for tag, g in zip(packing.weights[n:], gens)]
    return _completed_run(packing, seeds, caps)


def _relations(run: _Run, ring: VarSet, count: int) -> Ideal:
    """The rows of a completed graph run free of `ring`'s variables, the
    first ones (`_Run.reduced`), made monic over fresh tags y1..y<count>
    read from the `count` exponent fields after the ring's; the zero
    ideal if none is."""
    tags = VarSet(fresh_names("y", count, ring.names))
    relations = _monic(run.reduced(_first_fields(len(ring))), run.packing, tags, len(ring))
    return Ideal(tags, relations or (tags.zero(),))


def _graph_relations(ring: VarSet, gens: Sequence[Polynomial], extra: Sequence[Polynomial],
                     caps: ResourceCaps) -> Ideal:
    """The tag polynomials p with p(gens) in the ideal (extra) over `ring`:
    the elimination of `ring` from the graph ideal of `_graph_run`."""
    return _relations(_graph_run(ring, gens, extra, caps), ring, len(gens))


class _GraphSpan:
    """The candidates, in the order given, each kept only if it is not in
    the subalgebra generated by those kept before it (`kept`): the
    Groebner counterpart, for any polynomials, of
    `derivations._GradedSpan`.  Each membership test, of a candidate or
    through `contains`, is one `subalgebra_membership` run over the kept
    candidates under `caps`, so the budget bounds each run, not the span.
    Raises RingMismatchError for a polynomial not over `ring` and
    ValueError for an empty candidate list."""

    def __init__(self, ring: VarSet, candidates: Sequence[Polynomial],
                 caps: ResourceCaps = DEFAULT_CAPS):
        if not candidates:
            raise ValueError("a subalgebra span needs at least one candidate")
        self._ring = ring
        self._caps = caps
        self.kept = []
        for p in candidates:
            if not self.contains(p):
                self.kept.append(p)

    def contains(self, f: Polynomial) -> bool:
        """Membership of f, over `ring`, in the kept candidates' subalgebra."""
        if f.ring != self._ring:
            raise RingMismatchError("polynomial ring differs from subalgebra span ring")
        return subalgebra_membership(f, self.kept, self._caps)[0]


def subalgebra_membership(f: Polynomial, gens: Sequence[Polynomial],
                          caps: ResourceCaps = DEFAULT_CAPS):
    """Decide membership in the subalgebra generated by `gens`, by one
    run computed from scratch.

    Tag variables y_i are adjoined with relations y_i - gens_i; under a
    block order eliminating the original variables the normal form of f
    mentions only tags exactly when f is a member.  Returns (flag,
    witness) where the witness is that tag polynomial over m fresh tags,
    y1..ym unless f's ring takes those names.  A normal form is the same
    modulo every Groebner basis of the ideal, so f's packed terms, which
    are those of f over the big ring, reduce against the active rows of
    the completed run; with no generators the graph ideal is the zero
    ideal, which leaves no rows.  A generator not over f's ring raises
    RingMismatchError (`_graph_run`).
    """
    ring = f.ring
    n = len(ring)
    run = _graph_run(ring, gens, (), caps)
    work, d = _integer_terms(f.terms, run.packing.pack)
    remainder, scale = _reduce_full(work, run.rows, run.packing.guard)
    if any(m & _first_fields(n) for m in remainder):
        return False, None
    witness_ring = VarSet(fresh_names("y", len(gens), ring.names))
    return True, _polynomial(witness_ring, remainder.items(), run.packing, n, d * scale)


def subalgebra_presentation(ring: VarSet, candidates: Sequence[Polynomial],
                            caps: ResourceCaps = DEFAULT_CAPS):
    """(survivors, relations): the candidates, in the order given, each
    kept only if it is not in the subalgebra generated by those kept
    before it, and the ideal of relations among the survivors, over
    fresh tags y1, y2, ..., one per survivor.  A `_GraphSpan` keeps the
    survivors, one membership run per candidate, and `_graph_relations`
    eliminates over them in one more run; `caps` bounds each of these
    runs on its own.  An empty candidate list raises ValueError."""
    span = _GraphSpan(ring, candidates, caps)
    return span.kept, _graph_relations(ring, span.kept, (), caps)


# -- ideal files -----------------------------------------------------------------
#
# One polynomial per line; '#' starts a comment; the first non-comment line
# may be "vars: w1 w2 ..." declaring the ring, otherwise variables are
# inferred in order of first appearance.


def load_ideal_file(path: Union[str, Path]) -> Ideal:
    declared, lines = read_spec_file(path)
    if not lines:
        if declared is None:
            raise ParseError("ideal file contains no polynomials", 0)
        raise ParseError("ideal file declares variables but no polynomials", 0)
    if declared is None:
        declared = tuple(dict.fromkeys(
            name for line in lines for name in scan_identifiers(line)
        ))
    ring = VarSet(declared)
    return Ideal(ring, tuple(parse(line, ring) for line in lines))
