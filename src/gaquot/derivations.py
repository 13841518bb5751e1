"""Locally nilpotent derivations: the infinitesimal form of an additive
group action on affine space.

A derivation is stored by its images on the ring variables and extended
everywhere by linearity and Leibniz.  Exponentiating a locally nilpotent
derivation (the series is finite) recovers the group action; kernels are
the rings of invariant functions and are computed either by an exact
degree-bounded linear solve or by a slice/saturation cross-check.  An
element f is invariant iff `apply(f)` is zero.  Local nilpotency is never
certified for a whole derivation: the flow and the slice projection
iterate D on the one element they need and raise
NotLocallyNilpotentError if it survives NILPOTENCY_STEP_CAP steps.

A derivation keeps the terms of its nonzero images in a table built
once and applies Leibniz on term dicts (`Derivation._apply_terms`);
`apply` wraps the result in one Polynomial.  Exact linear algebra runs
on one sparse echelon (linalg.Echelon).  The linear solve reduces the
image of each monomial, a term dict straight from that table, against
the images of the monomials before it, over every variable, free ones
included (the v3 presentation adjoins the trivial summands' coordinates
itself).  Both kernel methods prune generators by subalgebra membership
through one function, `_span`: it sorts a candidate list and builds one
span of it, a value exposing the candidates it keeps (`kept`) and a
membership test (`contains`).  When every candidate is homogeneous
(the kernel of a linear derivation is graded) the engine is an echelon
of products of generators one degree at a time (_GradedSpan);
otherwise each test is one Buchberger run of the tag-variable test
(Shannon and Sweedler, J. Symb. Comp. 6, 1988) over the graph ideal of
the candidates kept so far (groebner._GraphSpan), the general route of
SAGBI theory (Robbiano and Sweedler, LNM 1430, 1990).  A saturation
round asks the span of its generators alone whether a candidate is
new, and the span of the round that adds nothing is the final filter.
"""

from __future__ import annotations

from itertools import combinations_with_replacement, groupby
from math import comb, factorial
from operator import add, itemgetter
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, Optional, Union

from .errors import (
    NotLocallyNilpotentError,
    ParseError,
    ResourceCapError,
    RingMismatchError,
    RoundCapError,
    UsageError,
)
from .groebner import (
    DEFAULT_CAPS,
    Ideal,
    ResourceCaps,
    _graph_relations,
    _GraphSpan,
    divide_exact,
)
from .linalg import Echelon
from .poly import (
    Polynomial,
    VarSet,
    _Record,
    _degree_and_leading_text,
    _exact_quotient,
    _grevlex_descending,
    _product,
    monic,
    parse,
    read_spec_file,
    scan_identifiers,
)

# Iteration budget used when certifying that applying a derivation to a
# concrete element eventually gives zero.
NILPOTENCY_STEP_CAP = 256

# Largest coefficient space (monomials of degree <= max_degree) that
# kernel_linear solves over, and largest number of monomials one degree
# piece of a graded subalgebra span may reach.
KERNEL_DIMENSION_CAP = 5000


class Derivation(_Record):
    """Derivation of a polynomial ring, given by images of the variables.

    Variables missing from the image map are sent to zero.
    """

    __slots__ = ("ring", "images", "_image_terms")
    _fields = ("ring", "images")

    def __init__(self, ring: VarSet, images: Mapping[str, Polynomial]):
        complete = {}
        for name in ring.names:
            image = images.get(name, ring.zero())
            if image.ring != ring:
                raise RingMismatchError(f"image of {name!r} lives over the wrong ring")
            complete[name] = image
        for name in images:
            ring.index(name)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "images", MappingProxyType(complete))
        # (variable index, term items of its image) for each nonzero image
        object.__setattr__(self, "_image_terms", tuple(
            (i, tuple(image.terms.items()))
            for i, image in enumerate(complete.values()) if not image.is_zero()))

    def apply(self, f: Polynomial) -> Polynomial:
        """Leibniz extension: sum of images[x] * df/dx."""
        if f.ring != self.ring:
            raise RingMismatchError("polynomial ring differs from derivation ring")
        return Polynomial(self.ring, self._apply_terms(f.terms))

    def _apply_terms(self, terms: Mapping) -> dict:
        """Term dict of the image of the term dict `terms`, without zero
        coefficients (an integral one may be a Fraction; Polynomial and
        Echelon rows canonicalize): each term c*x^m contributes
        c*m_i*x^(m - e_i) times the image of x_i for every variable x_i
        of m with a nonzero image."""
        out: dict = {}
        for m, c in terms.items():
            for i, image in self._image_terms:
                e = m[i]
                if not e:
                    continue
                base = m[:i] + (e - 1,) + m[i + 1:]
                scaled = c * e
                for im, ic in image:
                    key = tuple(map(add, base, im))
                    val = out.get(key, 0) + scaled * ic
                    if val:
                        out[key] = val
                    else:
                        del out[key]
        return out


def make_slice(derivation: Derivation, var: str) -> str:
    """`var`, once checked to be a local slice: a variable s with
    a = D(s) nonzero and D(a) = 0.  A slice is its variable; `_check_slice`
    reads a off the derivation at hand."""
    _check_slice(derivation, var)
    return var


def find_slice(derivation: Derivation) -> Optional[str]:
    """The first variable, in ring order, that is a slice; None if no
    variable is."""
    for name in derivation.ring.names:
        try:
            return make_slice(derivation, name)
        except UsageError:
            continue
    return None


def _check_slice(derivation: Derivation, var: str) -> Polynomial:
    """a = D(s) for the slice variable s; UsageError unless a != 0 = D(a)."""
    a = derivation.apply(derivation.ring.var(var))
    if a.is_zero():
        raise UsageError(f"D({var}) vanishes; not a slice")
    if not derivation.apply(a).is_zero():
        raise UsageError("slice image is not in the kernel")
    return a


def lower_triangular_derivation(copies_v: int, trivial: int = 0) -> Derivation:
    """Infinitesimal generator of the additive group acting through lower
    triangular 2x2 matrices on copies_v two-dimensional blocks, plus
    `trivial` fixed coordinates.

    Per block (w_{2i-1}, w_{2i}): the odd coordinate maps to zero and the
    even one to its odd partner (differentiate (u, v) -> (u, t*u + v) at
    t = 0).
    """
    if copies_v < 1:
        raise ValueError("need at least one two-dimensional block")
    names = tuple(f"w{i}" for i in range(1, 2 * copies_v + 1))
    names += tuple(f"e{i}" for i in range(1, trivial + 1))
    ring = VarSet(names)
    images = {}
    for i in range(1, copies_v + 1):
        images[f"w{2 * i}"] = ring.var(f"w{2 * i - 1}")
    return Derivation(ring, images)


def _iterates(derivation: Derivation, f: Polynomial):
    """[f, D(f), D^2(f), ...] down to (and excluding) the first zero."""
    chain = [f]
    g = f
    for _ in range(NILPOTENCY_STEP_CAP):
        g = derivation.apply(g)
        if g.is_zero():
            return chain
        chain.append(g)
    raise NotLocallyNilpotentError(
        f"derivation failed to annihilate within {NILPOTENCY_STEP_CAP} steps"
    )


def exp_action(derivation: Derivation, f: Polynomial,
               parameter: str = "t") -> Polynomial:
    """Group action on f: the finite sum of t^i D^i(f) / i! over the ring
    extended by the flow parameter."""
    if f.ring != derivation.ring:
        raise RingMismatchError("polynomial ring differs from derivation ring")
    if parameter in derivation.ring:
        raise ValueError(f"parameter {parameter!r} collides with a ring variable")
    chain = _iterates(derivation, f)
    extended = derivation.ring.extend((parameter,))
    t = extended.var(parameter)
    result = extended.zero()
    for i, g in enumerate(chain):
        result = result + g.embed(extended) * t ** i * _exact_quotient(1, factorial(i))
    return result


def fixed_point_ideal(derivation: Derivation) -> Ideal:
    """Ideal of the zero locus of the fundamental vector field, generated
    by the variable images."""
    gens = tuple(derivation.images[name] for name in derivation.ring.names)
    return Ideal(derivation.ring, gens)


# -- kernel computation ----------------------------------------------------------


def _monomials_up_to(ring: VarSet, max_degree: int):
    """All exponent tuples of total degree <= max_degree, ascending grevlex."""
    n = len(ring)
    monos = []
    for d in range(max_degree + 1):
        for combo in combinations_with_replacement(range(n), d):
            exps = [0] * n
            for i in combo:
                exps[i] += 1
            monos.append(tuple(exps))
    monos.sort(key=_grevlex_descending, reverse=True)
    return monos


def _sorted_gens(polys):
    """`polys` sorted by (total degree, printed text), stably.  The text
    is printed in full only within a run of equal degree and equal
    leading text: where those differ, the leading texts already order
    the printed ones (`poly._degree_and_leading_text`)."""
    keyed = sorted(zip(map(_degree_and_leading_text, polys), polys), key=itemgetter(0))
    ordered = []
    for _, run in groupby(keyed, key=itemgetter(0)):
        run = [p for _, p in run]
        ordered.extend(sorted(run, key=str) if len(run) > 1 else run)
    return ordered


class _GradedSpan:
    """The homogeneous candidates, adjoined in ascending degree (a stable
    sort), each kept only if it is not in the subalgebra generated by
    those kept before it (`kept`), with the degree pieces A_d of that
    subalgebra, each an echelon built when first needed.

    The subalgebra is graded: A_0 holds the constants, and A_d is spanned
    by the products g*b of a kept g of degree e <= d with b in the
    echelon of A_{d-e}.  A homogeneous f of degree d is a member exactly
    when it reduces to zero against A_d, and a candidate is kept iff it
    raises the rank of its degree's piece.  Candidates come in ascending
    degree, so no piece above a candidate's degree exists when it is
    kept, and every piece ever built spans products of all of `kept`.
    A piece whose rows reach more than KERNEL_DIMENSION_CAP monomials
    (rows never outnumber them) raises ResourceCapError.
    """

    def __init__(self, ring: VarSet, candidates):
        one = (0,) * len(ring)
        self._ring = ring
        self._generators = []  # (degree, terms) of each kept candidate
        constants = Echelon()
        constants.insert({one: 1})
        # degree -> (echelon of the piece, monomials of its rows)
        self._pieces = {0: (constants, {one})}
        self.kept = []
        for f in sorted(candidates, key=Polynomial.total_degree):
            d = f.total_degree()
            if self._insert(self._piece(d), d, dict(f.terms)):
                self._generators.append((d, dict(f.terms)))
                self.kept.append(f)

    def _piece(self, d: int):
        piece = self._pieces.get(d)
        if piece is None:
            piece = self._pieces[d] = (Echelon(), set())
            for e, g in self._generators:
                if e <= d:
                    for b in self._piece(d - e)[0].rows.values():
                        self._insert(piece, d, _product(g, b))
        return piece

    def _insert(self, piece, d: int, terms: dict) -> bool:
        """Append what is left of `terms` after reduction as a new row;
        False if nothing is left."""
        echelon, support = piece
        row = echelon.insert(terms)
        if row is None:
            return False
        support.update(row)
        if len(support) > KERNEL_DIMENSION_CAP:
            raise ResourceCapError(
                f"subalgebra span in degree {d} exceeds {KERNEL_DIMENSION_CAP} monomials"
            )
        return True

    def contains(self, f: Polynomial) -> bool:
        """Membership of f, one homogeneous component at a time."""
        if f.ring != self._ring:
            raise RingMismatchError("polynomial ring differs from subalgebra span ring")
        parts: dict = {}
        for m, c in f.terms.items():
            parts.setdefault(sum(m), {})[m] = c
        return all(self._piece(d)[0].reduce(p) is None for d, p in parts.items())


def _span(ring: VarSet, candidates, caps: ResourceCaps):
    """The candidates in (degree, text) order, each kept only if it is
    not in the subalgebra of those kept before it: a _GradedSpan when
    every one is homogeneous, else a _GraphSpan.  Neither keeps a
    constant."""
    ordered = _sorted_gens(candidates)
    if all(len({sum(m) for m in p.terms}) <= 1 for p in ordered):
        return _GradedSpan(ring, ordered)
    return _GraphSpan(ring, ordered, caps)


def kernel_linear(derivation: Derivation, max_degree: int,
                  caps: ResourceCaps = DEFAULT_CAPS):
    """Minimal generating set of the degree-bounded kernel.

    Solves D(f) = 0 over the polynomials of total degree <= max_degree on
    one sparse echelon: the image D(m) of each monomial m, in ascending
    grevlex order, is reduced against the earlier images, each row
    carrying the polynomial whose image it is.  Images enter the echelon
    as term dicts (`Derivation._apply_terms`), so no Polynomial is built
    per monomial.  When D(m) reduces to zero, m minus the carried
    multiples is a solution, the basis vector that the reduced row
    echelon form gives for the free column m; the carried monomials are
    earlier, so m leads it with coefficient 1.  One `_span` of the
    solutions then drops the constant 1 and each solution generated by
    the lower ones: by graded linear algebra when they are homogeneous
    (always, for a linear derivation), by Groebner subalgebra membership
    otherwise.  The coefficient space is capped before the solve.
    """
    if max_degree < 1:
        raise UsageError("max_degree must be at least 1")
    ring = derivation.ring
    dimension = comb(len(ring) + max_degree, max_degree)
    if dimension > KERNEL_DIMENSION_CAP:
        raise ResourceCapError(f"coefficient space of dimension {dimension} exceeds "
                               f"{KERNEL_DIMENSION_CAP}")
    images = Echelon()
    solutions = []
    for m in _monomials_up_to(ring, max_degree):
        f = {m: 1}
        if images.insert(derivation._apply_terms(f), f) is None:
            solutions.append(Polynomial(ring, f))
    return _span(ring, solutions, caps).kept


def _dixmier_cleared(derivation: Derivation, var: str, a: Polynomial,
                     f: Polynomial) -> Polynomial:
    """Slice projection of f with denominators cleared by powers of a.

    The alternating sum of D^i(f) s^i / (i! a^i) lands in the kernel of
    the localized ring; multiplying by a^N returns it to the polynomial
    ring without leaving the kernel (a itself is invariant).
    """
    chain = _iterates(derivation, f)
    n = len(chain) - 1
    s = derivation.ring.var(var)
    result = derivation.ring.zero()
    for i, g in enumerate(chain):
        sign = -1 if i % 2 else 1
        result = result + g * s ** i * a ** (n - i) * _exact_quotient(sign, factorial(i))
    return result


def kernel_saturation(derivation: Derivation, var: str, max_rounds: int,
                      caps: ResourceCaps = DEFAULT_CAPS):
    """Kernel generators by the local-slice method.

    Seeds with the cleared slice projections of the variables, then
    repeatedly adjoins kernel elements h with a*h inside the current
    subalgebra, for the slice image a = D(s) of the slice variable s =
    `var` (`_check_slice`).  Each subalgebra is one `_span`, which keeps
    the generators that the ones before them in (degree, text) order do
    not generate, as kernel_linear does (a seed can repeat another or lie
    in the subalgebra of others); the next round's span is built from
    its kept generators plus the new elements, since a dropped generator
    stays in the subalgebra of the kept ones before it.  A round asks its
    span alone whether a candidate is new.  Stops when a round adds
    nothing and returns that span's kept generators; with max_rounds = 0
    the seeds' span is returned unverified.  Exhausting a positive round
    budget raises RoundCapError (the invariant ring need not be finitely
    generated, so silent truncation is never acceptable), and a negative
    one UsageError.
    """
    if max_rounds < 0:
        raise UsageError("max_rounds must be nonnegative")
    a = _check_slice(derivation, var)
    ring = derivation.ring
    cleared = [_dixmier_cleared(derivation, var, a, ring.var(name)) for name in ring.names]
    span = _span(ring, [monic(c) for c in cleared if not c.is_constant()], caps)
    for _ in range(max_rounds):
        new = _saturation_round(ring, a, span, caps)
        if not new:
            return span.kept
        span = _span(ring, span.kept + new, caps)
    if max_rounds:
        raise RoundCapError(f"kernel not stabilized within {max_rounds} rounds")
    return span.kept


def _saturation_round(ring: VarSet, a: Polynomial, span, caps: ResourceCaps):
    """The kernel elements h outside the subalgebra of `span` (a `_span`)
    with a*h inside it, made monic; one found twice is listed twice, and
    the next `_span` drops the repeat.

    Tag polynomials p with p(kept) divisible by a are exactly the
    elimination ideal of (a) + (y_i - kept_i), over the span's kept
    generators only: they generate the subalgebra, and a tag for a
    generator the span dropped can make the elimination run far longer
    than the rest of the round.  Each quotient p(kept)/a is
    automatically a kernel element.  With nothing kept the graph ideal
    has no tags, and each relation is a constant.  A p(kept) that a does
    not divide is a bug, and raises ValueError.
    """
    kept = span.kept
    relations = _graph_relations(ring, kept, (a,), caps)
    assignment = dict(zip(relations.ring.names, kept))
    new = []
    for p in relations.generators:
        b = p.substitute(assignment) if p.variables() else ring.const(p.constant_term())
        h = divide_exact(b, a)
        if h is None:
            raise ValueError(f"relation image {b} is not divisible by the slice image {a}")
        if h.is_constant():
            continue
        h = monic(h)
        if not span.contains(h):
            new.append(h)
    return new


# -- derivation files --------------------------------------------------------------
#
# Optional "vars: ..." line, then lines "x -> polynomial"; variables not
# listed on any left-hand side map to zero, and one listed on two is a
# ParseError.


def load_derivation_file(path: Union[str, Path]) -> Derivation:
    declared, lines = read_spec_file(path)
    entries = {}
    for line in lines:
        if "->" not in line:
            raise ParseError(f"expected 'x -> polynomial' in line {line!r}", 0)
        lhs, rhs = (side.strip() for side in line.split("->", 1))
        if lhs in entries:
            raise ParseError(f"variable {lhs!r} is assigned twice", 0)
        entries[lhs] = rhs
    if declared is None:
        declared = tuple(dict.fromkeys(
            name for lhs, rhs in entries.items() for name in [lhs, *scan_identifiers(rhs)]
        ))
    ring = VarSet(declared)
    images = {lhs: parse(rhs, ring) for lhs, rhs in entries.items()}
    return Derivation(ring, images)
