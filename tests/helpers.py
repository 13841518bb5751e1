"""Shared test utilities: random inputs and independent oracles.

The oracles deliberately take different routes from the library code:
univariate gcd by list-based Euclid, Groebner bases, resultants and dense
kernel solves via sympy, polynomial text by the parser and printer
that worked through Polynomial and Fraction arithmetic, and Krull
dimension and subalgebra membership through the reduced basis record
that `buchberger` builds and `normal_form` reduces against.  The graph
ideal, elimination and the sugar test of pair selection are written over
polynomials, where the library packs them.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction
from itertools import combinations, product
from math import prod

import sympy as sp

from gaquot import (Ideal, ParseError, Polynomial, TermOrder, UnknownVariableError, VarSet,
                    VerificationReport, buchberger, check_smooth, normal_form)
from gaquot.poly import fresh_names


def random_exponents(rng, nvars, max_degree):
    budget = rng.randint(0, max_degree)
    exps = [0] * nvars
    for _ in range(budget):
        exps[rng.randrange(nvars)] += 1
    return tuple(exps)


def random_poly(rng, ring, max_degree=3, max_terms=4, coeff_bound=5,
                allow_zero=True, nonconstant=False, denominator_bound=1):
    """Random polynomial with coefficients n/d, 0 < |n| <= coeff_bound and
    1 <= d <= denominator_bound; under the default bound of 1 no
    denominator is drawn from rng."""
    terms = {}
    for _ in range(rng.randint(0 if allow_zero else 1, max_terms)):
        coeff = 0
        while coeff == 0:
            coeff = rng.randint(-coeff_bound, coeff_bound)
        denominator = rng.randint(1, denominator_bound) if denominator_bound > 1 else 1
        terms[random_exponents(rng, len(ring), max_degree)] = Fraction(coeff, denominator)
    poly = Polynomial(ring, terms)
    if not allow_zero and poly.is_zero():
        return ring.one()
    if nonconstant and poly.is_constant():
        return poly + ring.var(ring.names[rng.randrange(len(ring))])
    return poly


# -- reference term orders ----------------------------------------------------


def _reference_grevlex(exps):
    return (sum(exps), tuple(-e for e in reversed(exps)))


def reference_key(order):
    """Ascending sort key of a TermOrder, written out from the textbook
    definitions apart from the library: a larger key is a larger monomial.
    grevlex compares total degree, then prefers the smaller exponent in
    the last variable where two monomials differ; lex compares exponent
    tuples; block(k) compares the first k exponents by grevlex, then the
    rest by grevlex."""
    if order.kind == "grevlex":
        return _reference_grevlex
    if order.kind == "lex":
        return tuple
    k = order.block_size
    return lambda exps: (_reference_grevlex(exps[:k]), _reference_grevlex(exps[k:]))


# -- sympy bridge -------------------------------------------------------------


def sympy_symbols(ring: VarSet):
    return sp.symbols(list(ring.names))


def to_sympy(p: Polynomial, syms=None):
    syms = syms or sympy_symbols(p.ring)
    expr = sp.Integer(0)
    for exps, coeff in p.terms.items():
        term = sp.Rational(coeff.numerator, coeff.denominator)
        for sym, e in zip(syms, exps):
            if e:
                term *= sym ** e
        expr += term
    return expr


def from_sympy(expr, ring: VarSet) -> Polynomial:
    syms = sympy_symbols(ring)
    poly = sp.Poly(expr, *syms, domain="QQ")
    terms = {}
    for exps, coeff in poly.terms():
        q = sp.Rational(coeff)
        terms[tuple(exps)] = Fraction(int(q.p), int(q.q))
    return Polynomial(ring, terms)


def sympy_reduced_gb(gens, ring: VarSet, order: str):
    """Reduced Groebner basis via sympy, as library polynomials.  The
    order is "grevlex", "lex" or "elim:K", the last being grevlex on the
    first K variables with ties broken by grevlex on the rest (the
    library's block order)."""
    from sympy.polys.orderings import ProductOrder, grevlex

    if order.startswith("elim:"):
        k = int(order[len("elim:"):])
        order = ProductOrder((grevlex, lambda m: m[:k]), (grevlex, lambda m: m[k:]))
    syms = sympy_symbols(ring)
    exprs = [to_sympy(g, syms) for g in gens if not g.is_zero()]
    basis = sp.groebner(exprs, *syms, order=order, domain="QQ")
    return [from_sympy(b, ring) for b in basis.exprs]


def sympy_resultant(p: Polynomial, q: Polynomial, var: str,
                    target: VarSet) -> Polynomial:
    syms = sympy_symbols(p.ring)
    lookup = dict(zip(p.ring.names, syms))
    res = sp.resultant(to_sympy(p, syms), to_sympy(q, syms), lookup[var])
    return from_sympy(sp.expand(res), target)


def in_ideal(f: Polynomial, ideal: Ideal) -> bool:
    """Membership by the library's own normal form; not an oracle, for
    tests whose independent check lies elsewhere."""
    return normal_form(f, buchberger(ideal)).is_zero()


# -- the graph ideal, elimination and sugar over polynomials ---------------------


def tag_ring(ring: VarSet, count: int) -> VarSet:
    """`ring` followed by fresh tags y1..y<count>, one per generator of a
    graph ideal: the names the library gives the tags it packs."""
    return ring.extend(fresh_names("y", count, ring.names))


def graph_ideal(ring: VarSet, gens, extra=()) -> Ideal:
    """The graph ideal (extra) + (y_i - gens_i) as polynomials over
    `tag_ring(ring, m)`, one tag y_i per generator, with the `extra`
    generators (over `ring`) first.  The library packs the same
    generators (`groebner._graph_seed`) and builds no such ring."""
    big = tag_ring(ring, len(gens))
    tags = big.names[len(ring):]
    return Ideal(big, tuple(e.embed(big) for e in extra)
                 + tuple(big.var(t) - g.embed(big) for t, g in zip(tags, gens)))


def eliminate(ideal: Ideal, k: int) -> Ideal:
    """The elimination ideal of the first k variables by the documented
    recipe: the elements of `buchberger(ideal, TermOrder.block(k))` free
    of them, over `VarSet(ring.names[k:])` (the zero ideal if none is)."""
    small = VarSet(ideal.ring.names[k:])
    kept = tuple(Polynomial(small, {m[k:]: c for m, c in g.terms.items()})
                 for g in buchberger(ideal, TermOrder.block(k)).basis
                 if not any(any(m[:k]) for m in g.terms))
    return Ideal(small, kept or (small.zero(),))


def polynomial_selects_by_sugar(order: TermOrder, seeds) -> bool:
    """`groebner._selects_by_sugar` on polynomials: under a block order,
    every seed homogeneous or c*y - g, with y a variable of the second
    block and g homogeneous in the first."""
    if order.kind != "block":
        return False
    k = order.block_size
    for p in seeds:
        if len({sum(m) for m in p.terms}) == 1:
            continue
        outside = [m for m in p.terms if any(m[k:])]
        if len(outside) != 1 or sum(outside[0]) != 1 \
                or len({sum(m) for m in p.terms if not any(m[k:])}) != 1:
            return False
    return True


# -- the verdicts through a reduced basis record -------------------------------


def leading_monomials(gb) -> tuple:
    """The leading monomial of each element of a GroebnerBasis, under its
    order, in the order of the basis."""
    return tuple(min(g.terms, key=gb.order.descending_key) for g in gb.basis)


def independent_set_dimension(n, leading):
    """The largest set of the n variables containing the support of no
    monomial of `leading`: the dimension rule on leading monomials."""
    supports = [{i for i, e in enumerate(lm) if e} for lm in leading]
    return max(size for size in range(n + 1) for subset in combinations(range(n), size)
               if not any(support <= set(subset) for support in supports))


def basis_krull_dimension(ideal: Ideal):
    """krull_dimension by the route through the basis record: the
    independent-set rule on the leading monomials of `buchberger`'s
    reduced grevlex basis, or "unit" for the unit ideal."""
    gb = buchberger(ideal)
    if gb.basis == (ideal.ring.one(),):
        return "unit"
    return independent_set_dimension(len(ideal.ring), leading_monomials(gb))


def basis_subalgebra_membership(f: Polynomial, gens):
    """subalgebra_membership by the route through the basis record: the
    normal form of f, embedded in the graph ideal's ring, modulo
    `buchberger`'s reduced basis of the graph ideal under the block order
    eliminating f's ring; f itself with no generators.  (member, witness
    over the tags of `graph_ideal`) when the normal form is tag-only,
    else (False, None)."""
    ring, n = f.ring, len(f.ring)
    nf = f
    if gens:
        graph = graph_ideal(ring, gens)
        nf = normal_form(f.embed(graph.ring), buchberger(graph, TermOrder.block(n)))
    if any(any(exps[:n]) for exps in nf.terms):
        return False, None
    witness_ring = VarSet(tag_ring(ring, len(gens)).names[n:])
    return True, Polynomial(witness_ring, {exps[n:]: c for exps, c in nf.terms.items()})


def euclid_gcd_coeffs(a, b):
    """Monic gcd of univariate coefficient lists (ascending), by Euclid."""
    a = [Fraction(x) for x in a]
    b = [Fraction(x) for x in b]

    def trim(c):
        while c and c[-1] == 0:
            c.pop()
        return c

    a, b = trim(a), trim(b)
    while b:
        r = list(a)
        while len(trim(r)) >= len(b):
            r = trim(r)
            shift = len(r) - len(b)
            factor = Fraction(r[-1]) / b[-1]
            for i, c in enumerate(b):
                r[shift + i] -= factor * c
            r = trim(r)
            if not r:
                break
        a, b = b, trim(r)
    return [Fraction(c) / a[-1] for c in a] if a else []


def coeff_list(p: Polynomial, var: str):
    """Ascending coefficient list of a univariate polynomial."""
    idx = p.ring.index(var)
    out = [Fraction(0)] * (max(e[idx] for e in p.terms) + 1)
    for exps, coeff in p.terms.items():
        out[exps[idx]] = coeff
    return out


def spolynomials_per_run(monkeypatch, compute) -> list:
    """The S-polynomials each Buchberger run made by `compute` reduced, in
    the order the runs were started."""
    from gaquot import groebner

    runs = []

    class Counted(groebner._Run):
        def __init__(self, *args):
            super().__init__(*args)
            runs.append(self)

    monkeypatch.setattr(groebner, "_Run", Counted)
    compute()
    return [run.reductions for run in runs]


def assert_same_subalgebra(gens_a, gens_b, caps=None):
    """Mutual subalgebra membership in both directions."""
    from gaquot import DEFAULT_CAPS, subalgebra_membership

    caps = caps or DEFAULT_CAPS
    for g in gens_a:
        member, _ = subalgebra_membership(g, list(gens_b), caps=caps)
        assert member, f"{g} not generated by {[str(x) for x in gens_b]}"
    for g in gens_b:
        member, _ = subalgebra_membership(g, list(gens_a), caps=caps)
        assert member, f"{g} not generated by {[str(x) for x in gens_a]}"


def groebner_minimal_generators(candidates):
    """Reference filter: the nonconstant candidates in (degree, text)
    order, each kept unless one Groebner subalgebra membership test, run
    from scratch, puts it in the subalgebra of those kept before it."""
    from gaquot import subalgebra_membership

    kept = []
    for p in sorted(candidates, key=lambda p: (p.total_degree(), str(p))):
        if p.is_constant():
            continue
        member, _ = subalgebra_membership(p, kept)
        if not member:
            kept.append(p)
    return kept


def brute_graded_subalgebra_membership(f: Polynomial, gens) -> bool:
    """Is the homogeneous f a linear combination of products of the
    homogeneous `gens` of total degree deg f?

    Every such product is built outright, one column per multiset of
    generators, and the rank test is sympy's: a route independent of
    both Groebner membership and the library's graded spans.
    """
    from itertools import combinations_with_replacement

    ring = f.ring
    if f.is_zero():
        return True
    degree = f.total_degree()
    gens = [g for g in gens if not g.is_constant()]
    columns = [{(0,) * len(ring): sp.Integer(1)}] if degree == 0 else []
    for size in range(1, degree + 1):
        for combo in combinations_with_replacement(range(len(gens)), size):
            if sum(gens[i].total_degree() for i in combo) != degree:
                continue
            prod = ring.one()
            for i in combo:
                prod = prod * gens[i]
            columns.append({e: sp.Rational(c.numerator, c.denominator)
                            for e, c in prod.terms.items()})
    target = {e: sp.Rational(c.numerator, c.denominator) for e, c in f.terms.items()}
    if not columns:
        return False
    rows = sorted(set().union(*[set(c) for c in columns]) | set(target))
    matrix = sp.Matrix([[col.get(r, sp.Integer(0)) for col in columns] for r in rows])
    rhs = sp.Matrix([[target.get(r, sp.Integer(0))] for r in rows])
    return matrix.rank() == matrix.row_join(rhs).rank()


def _exponent_tuples(nvars: int, budget: int):
    """Every exponent tuple of length nvars and total degree <= budget."""
    if nvars == 0:
        yield ()
        return
    for e in range(budget + 1):
        for rest in _exponent_tuples(nvars - 1, budget - e):
            yield (e,) + rest


def sympy_kernel_solutions(derivation, max_degree: int):
    """Monic basis of {f : D(f) = 0, deg f <= max_degree} from sympy's
    dense Matrix.nullspace, one vector per free column, with the columns
    (monomials) in ascending grevlex order.  The images are computed by
    sympy differentiation, not by Derivation.apply."""
    from gaquot import monic

    ring = derivation.ring
    syms = sympy_symbols(ring)
    images = [to_sympy(derivation.images[name], syms) for name in ring.names]
    monos = sorted(_exponent_tuples(len(ring), max_degree), key=_reference_grevlex)
    columns = []
    for exps in monos:
        mono = sp.Mul(*[s ** e for s, e in zip(syms, exps)])
        image = sp.expand(sum(a * sp.diff(mono, s) for a, s in zip(images, syms)))
        columns.append(dict(sp.Poly(image, *syms).terms()) if image != 0 else {})
    rows = sorted({r for col in columns for r in col})
    matrix = sp.Matrix(len(rows), len(monos), lambda i, j: columns[j].get(rows[i], 0))
    solutions = []
    for vec in matrix.nullspace():
        terms = {e: Fraction(int(c.p), int(c.q)) for e, c in zip(monos, vec) if c}
        solutions.append(monic(Polynomial(ring, terms)))
    return solutions


# -- the v3 presentation without the summand split ----------------------------


def restricted_w_invariants(f: Polynomial, trivial: int):
    """(z-ring of X, candidates): every generator of the W-invariants of
    v3 with `trivial` trivial summands, the trivial coordinates included,
    restricted to X by substitution (w1 -> 1 + f(q) with q = w3*w6 -
    w4*w5, w_k -> z_(k-1)), without its constant term, made monic, with
    duplicates dropped and in `_sorted_gens` order.  The generators come
    from `kernel_linear`'s solve, so this checks the ones the
    presentation names."""
    from gaquot import kernel_linear, lower_triangular_derivation, monic
    from gaquot.derivations import _sorted_gens

    gens = kernel_linear(lower_triangular_derivation(3, trivial), 2)
    w_ring = gens[0].ring
    z_ring = VarSet(tuple(f"z{i}" for i in range(1, len(w_ring))))
    z = [z_ring.var(name) for name in z_ring.names]
    w1 = z_ring.one() + f.substitute({"s": z[1] * z[4] - z[2] * z[3]})
    assignment = dict(zip(w_ring.names, [w1] + z))
    candidates = []
    for g in gens:
        image = g.substitute(assignment)
        image = image - image.constant_term()
        if not image.is_zero() and monic(image) not in candidates:
            candidates.append(monic(image))
    return z_ring, _sorted_gens(candidates)


def unsplit_v3_presentation(f: Polynomial, trivial: int):
    """(survivors, relations) of the v3 invariant presentation as one
    `subalgebra_presentation` over the whole z-ring of X, on every
    restricted W-invariant: the trivial coordinates are spanned with the
    rest instead of being adjoined afterwards, and w1's image is filtered
    out instead of never being built."""
    from gaquot import subalgebra_presentation

    return subalgebra_presentation(*restricted_w_invariants(f, trivial))


def points_mod_p(polys, p: int) -> int:
    """#V(polys)(F_p), the common zeros of `polys` (over one ring) in
    F_p^n, n the size of the ring, by brute force over all p^n points: a
    Groebner-free count.  Each coefficient is read mod p, so its
    denominator must be prime to p (else ValueError)."""
    reduced = []
    for g in polys:
        terms = []
        for exps, c in g.terms.items():
            c = Fraction(c)
            if c.denominator % p == 0:
                raise ValueError(f"coefficient {c} is not {p}-integral")
            terms.append((c.numerator * pow(c.denominator, -1, p) % p, exps))
        reduced.append(terms)
    return sum(all(sum(c * prod(map(pow, point, exps)) for c, exps in terms) % p == 0
                   for terms in reduced)
               for point in product(range(p), repeat=len(polys[0].ring)))


# -- the signed-roots shapes ---------------------------------------------------


def signed_roots_factors(degree: int, seed: int) -> list:
    """The factors (1 - sign_k * k * s), k = 1..degree with seeded signs,
    whose product is f + 1 of the benchmark's signed-roots shape."""
    s = VarSet(("s",))
    rng = random.Random(seed)
    return [s.one() - s.var("s") * (rng.choice((1, -1)) * k) for k in range(1, degree + 1)]


def signed_roots_shape(degree: int, seed: int) -> Polynomial:
    """f of degree `degree` with f(0) = 0 and f + 1 the product of the
    signed-roots factors: a valid v3 shape."""
    factors = signed_roots_factors(degree, seed)
    return prod(factors, start=factors[0].ring.one()) - 1


# -- the expanded v3 smoothness identities and the cone over B -----------------


def jacobian_identities(spec, h=None) -> bool:
    """Whether B's equation h (by default as built, expanded) satisfies the
    two v3 identities that put 1 + f(q) and q*f'(q) in its Jacobian ideal;
    False for v4.  With q the quadratic invariant:

        -h = 1 + f(q),
        sum over i = 3..6 of w_i*dh/dw_i = -2*q*f'(q)   (Euler: q is a quadric).

    An oracle on the expanded equation for the battery's smoothness
    certificate, which reads f and q instead.  The Euler operator maps a
    term c*x^m to (m_3 + ... + m_6)*c*x^m, so both identities are one
    pass over h's terms; the right-hand sides come from f and one table
    of powers of q.
    """
    from gaquot.poly import _product

    if spec.family != "v3":
        return False
    (q,) = spec.quad_invariants
    w_ring = spec.w_ring
    euler_at = [w_ring.index(n) for n in q.variables()]  # w3..w6
    f = {k: c for (k,), c in spec.f.terms.items()}  # s^k -> its coefficient
    one_plus_f, minus_2q_f_prime = {}, {}
    power = {(0,) * len(w_ring): 1}  # q^k, of degree 2k: no two k share a term
    for k in range(max(f, default=0) + 1):
        if k:
            power = _product(power, q.terms)
        for target, c in ((one_plus_f, (k == 0) + f.get(k, 0)),
                          (minus_2q_f_prime, -2 * k * f.get(k, 0))):
            if c:
                target.update((m, c * d) for m, d in power.items())
    (h,) = spec.b_ideal.generators if h is None else (h,)
    euler = {w: e * c for w, c in h.terms.items() if (e := sum(w[i] for i in euler_at))}
    return {w: -c for w, c in h.terms.items()} == one_plus_f and euler == minus_2q_f_prime


def polynomial_polarization_ideal(spec) -> Ideal:
    """The smoothness ideal the v4 battery once decided, J' = (1 + f, J_kl
    for each polarization operator E_kl = w(2k-1)*d/dw(2l-1) +
    w(2k)*d/dw(2l), blocks k, l in 2.. in order), by polynomial
    arithmetic: J_kl = sum of c * df/ds_j * s_m over the quadrics with
    E_kl q_j = c*q_m, c = +-1, a table worked out here from the spec's
    quadrics, which the library keeps only as a certificate.  A zero
    J_kl is dropped.  An oracle for the criterion the battery decides
    instead, (1 + f, grad f): the two ideals are equal when f(0) = 0."""
    from gaquot.families import FAMILIES
    from gaquot.poly import jacobian

    f, quads, w = spec.f, spec.quad_invariants, spec.w_ring.var
    s = [f.ring.var(n) for n in f.ring.names]
    gradient = jacobian([f], f.ring.names)[0]
    j_kl = []
    for k, l in product(range(2, FAMILIES[spec.family][0] + 1), repeat=2):
        images = [w(f"w{2 * k - 1}") * q.partial(f"w{2 * l - 1}")
                  + w(f"w{2 * k}") * q.partial(f"w{2 * l}") for q in quads]
        j_kl.append(sum((c * gradient[j] * s[m] for j, image in enumerate(images)
                         for m, q in enumerate(quads) for c in (1, -1) if image == c * q),
                        f.ring.zero()))
    return Ideal(f.ring, (f + 1, *j_kl))


def smoothness_equation(spec) -> Ideal:
    """The hypersurface 1 + f of f's own affine space, whose smoothness is
    B's when f(0) = 0."""
    return Ideal(spec.f.ring, (spec.f + 1,))


def composed_checks(spec, smooth=None):
    """The checks of the report on `spec` with B's smoothness verdict
    `smooth`, the battery's checks.  When `smooth` is None the Jacobian
    criterion on 1 + f decides it, with B singular at W's origin when
    1 + f(0) = 0 (every quadric has gradient 0 there), so specs the
    validation rejects are covered too."""
    if smooth is None:
        smooth = spec.f.constant_term() != -1 and check_smooth(smoothness_equation(spec))
    return VerificationReport(spec, smooth, None).checks


def ybar_ideal(art):
    """The closure Ybar of a family instance, which the library never
    builds: the principal ideal of u*w2 - v*w1 + h, with h B's equation,
    over ("u", "v") followed by the coordinates of W."""
    ring = VarSet(("u", "v") + art.w_ring.names)
    u, v, w1, w2 = map(ring.var, ("u", "v", "w1", "w2"))
    (h,) = art.b_ideal.generators
    return Ideal(ring, (u * w2 - v * w1 + h.embed(ring),))


def check_cone_over_boundary(art, g=None, h=None):
    """Raise ValueError unless Ybar's equation g is u*w2 - v*w1 + h with h,
    B's equation, free of w1 and w2 (by default, g from `ybar_ideal` and
    h as built).  Then Ybar is smooth iff B is: h = g - u*dg/du - v*dg/dv
    and dg/dw_i = dh/dw_i for i >= 3, so B's Jacobian ideal lies in
    Ybar's; and a singular point w of B with w1 = w2 = 0 gives Ybar's
    singular point (0, 0, w)."""
    (g,) = ybar_ideal(art).generators if g is None else (g,)
    (h,) = art.b_ideal.generators if h is None else (h,)
    u, v, w1, w2 = map(g.ring.var, ("u", "v", "w1", "w2"))
    cone = (u * w2 - v * w1).terms | {(0, 0) + m: c for m, c in h.terms.items()}  # h lacks u, v
    if (g.ring.names != ("u", "v") + h.ring.names or {"w1", "w2"} & set(h.variables())
            or g.terms != cone):
        raise ValueError("Ybar's equation is not u*w2 - v*w1 plus B's equation")


# -- the parser and printer that worked by Polynomial arithmetic ----------------


_REFERENCE_TOKEN_RE = re.compile(
    r"(?P<num>\d+)|(?P<ident>[A-Za-z][A-Za-z0-9_]*)|(?P<op>[-+*^()/])")


def _reference_tokenize(text: str):
    """Tokens (kind, value, position), skipping characters that
    `str.isspace` accepts one at a time, then ("end", "", len(text))."""
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        match = _REFERENCE_TOKEN_RE.match(text, pos)
        if not match:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        tokens.append((match.lastgroup, match.group(), pos))
        pos = match.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _ReferenceParser:
    """Recursive descent that builds a Polynomial for every number,
    variable, partial sum and product and combines them with `+`, `-`,
    `*` and `**`."""

    def __init__(self, tokens, ring: VarSet):
        self.tokens = tokens
        self.ring = ring
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, symbol: str):
        kind, value, pos = self.peek()
        if kind != "op" or value != symbol:
            raise ParseError(f"expected {symbol!r}", pos)
        return self.advance()

    def expr(self) -> Polynomial:
        negate = False
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            negate = True
        result = self.term()
        if negate:
            result = -result
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                rhs = self.term()
                result = result + rhs if value == "+" else result - rhs
            else:
                return result

    def term(self) -> Polynomial:
        result = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "*":
                self.advance()
                result = result * self.factor()
            else:
                return result

    def factor(self) -> Polynomial:
        base = self.base()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            kind, value, pos = self.peek()
            if kind != "num":
                raise ParseError("expected natural number after '^'", pos)
            self.advance()
            return base ** int(value)
        return base

    def base(self) -> Polynomial:
        kind, value, pos = self.advance()
        if kind == "num":
            numerator = int(value)
            kind2, value2, _ = self.peek()
            if kind2 == "op" and value2 == "/":
                self.advance()
                kind3, value3, pos3 = self.peek()
                if kind3 != "num":
                    raise ParseError("expected digits after '/'", pos3)
                self.advance()
                if int(value3) == 0:
                    raise ParseError("zero denominator", pos3)
                return self.ring.const(Fraction(numerator, int(value3)))
            return self.ring.const(numerator)
        if kind == "ident":
            if value not in self.ring:
                raise UnknownVariableError(f"variable {value!r} not in ring {self.ring.names}")
            return self.ring.var(value)
        if kind == "op" and value == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ParseError(f"unexpected token {value!r}" if value else "unexpected end of input", pos)


def reference_parse(text: str, ring: VarSet) -> Polynomial:
    """`parse` as it was before it worked on term dicts: the oracle of the
    term-dict parser, error positions and messages included."""
    parser = _ReferenceParser(_reference_tokenize(text), ring)
    try:
        result = parser.expr()
    except RecursionError:
        raise ParseError("input nested too deeply", parser.peek()[2]) from None
    kind, value, pos = parser.peek()
    if kind != "end":
        raise ParseError(f"trailing input {value!r}", pos)
    return result


def _reference_term_text(names, exps, coeff, first: bool) -> str:
    factors = "*".join(name if e == 1 else f"{name}^{e}" for name, e in zip(names, exps) if e)
    mag = abs(coeff)
    if not factors:
        body = str(mag)
    elif mag == 1:
        body = factors
    else:
        body = f"{mag}*{factors}"
    if first:
        return f"-{body}" if coeff < 0 else body
    return f" - {body}" if coeff < 0 else f" + {body}"


def reference_str(p: Polynomial) -> str:
    """`str(p)` as printed through `abs`, `<` and `str` on the
    coefficients: the oracle of the direct printer."""
    if p.is_zero():
        return "0"
    names = p.ring.names
    exps = sorted(p.terms, key=lambda e: (-sum(e),) + e[::-1])
    return "".join(_reference_term_text(names, e, p.terms[e], pos == 0)
                   for pos, e in enumerate(exps))
