"""Groebner engine: bases, membership, elimination, dimension."""

import random
from fractions import Fraction
from itertools import combinations
from operator import add, le
from types import SimpleNamespace

import pytest

from gaquot import (
    FamilySpec,
    Ideal,
    Polynomial,
    RepeatedRootsError,
    ResourceCapError,
    ResourceCaps,
    RingMismatchError,
    TermOrder,
    UnitIdealError,
    VarSet,
    ZeroPolynomialError,
    buchberger,
    divide_exact,
    is_squarefree,
    is_unit_ideal,
    krull_dimension,
    monic,
    normal_form,
    parse,
    run_battery,
    subalgebra_membership,
)
from gaquot import derivations, groebner
from gaquot.derivations import kernel_saturation, lower_triangular_derivation, make_slice
from helpers import (
    basis_krull_dimension,
    basis_subalgebra_membership,
    eliminate,
    graph_ideal,
    in_ideal,
    independent_set_dimension,
    leading_monomials,
    outcome,
    polynomial_selects_by_sugar,
    random_poly,
    reference_key,
    signed_roots_shape,
    spolynomials_per_run,
    sympy_reduced_gb,
    sympy_resultant,
)

W = VarSet(("w1", "w2", "w3", "w4", "w5", "w6"))
XY = VarSet(("x", "y"))
TXY = VarSet(("t", "x", "y"))


def P(text, ring=W):
    return parse(text, ring)


def ideal(ring, *texts):
    return Ideal(ring, tuple(parse(t, ring) for t in texts))


def spoly(f, g, order):
    """Test-local S-polynomial built from public pieces."""
    key = reference_key(order)
    lf = max(f.terms, key=key)
    lg = max(g.terms, key=key)
    lcm = tuple(max(a, b) for a, b in zip(lf, lg))
    mf = type(f)(f.ring, {tuple(l - a for l, a in zip(lcm, lf)): Fraction(1) / f.terms[lf]})
    mg = type(g)(g.ring, {tuple(l - a for l, a in zip(lcm, lg)): Fraction(1) / g.terms[lg]})
    return mf * f - mg * g


# -- buchberger ------------------------------------------------------------------


def test_principal_monomial_ideal():
    gb = buchberger(ideal(W, "w1"))
    assert [str(g) for g in gb.basis] == ["w1"]


def test_lex_elimination_of_parameter():
    # oracle: substitute t = x by hand, leaving y - x^2
    gb = buchberger(ideal(TXY, "x - t", "y - t^2"), TermOrder.lex())
    assert parse("x^2 - y", TXY) in gb.basis


def test_stability_ideal_is_unit():
    gb = buchberger(ideal(W, "w1", "w3", "w5", "w1 - 1 - (w3*w6 - w4*w5)"))
    assert [str(g) for g in gb.basis] == ["1"]


def test_zero_ideal_basis_empty():
    gb = buchberger(Ideal(W, (W.zero(),)))
    assert gb.basis == ()


def test_pair_cap_raises():
    """The cap counts S-polynomials reduced: the pair (x^2, x*y) survives
    pruning, so a budget of 0 stops at it."""
    caps = ResourceCaps(max_pairs=0)
    with pytest.raises(ResourceCapError):
        buchberger(ideal(XY, "x^2 - y", "x*y - 1"), caps=caps)


def test_pair_cap_ignores_pruned_pairs():
    """Every pair of this ideal is pruned when it is formed (coprime
    leading monomials, then the unit), so no S-polynomial is reduced."""
    caps = ResourceCaps(max_pairs=0)
    gb = buchberger(ideal(W, "w1", "w3", "w5", "w1 - 1 - (w3*w6 - w4*w5)"), caps=caps)
    assert gb.basis == (W.one(),)


@pytest.mark.parametrize("budget", ["max_pairs", "max_degree"])
def test_negative_caps_are_rejected(budget):
    with pytest.raises(ValueError, match=f"{budget} must be nonnegative"):
        ResourceCaps(**{budget: -1})
    assert getattr(ResourceCaps(**{budget: 0}), budget) == 0


def test_degree_cap_raises():
    caps = ResourceCaps(max_degree=1)
    with pytest.raises(ResourceCapError):
        buchberger(ideal(XY, "x^2 - y", "x*y - 1"), caps=caps)


def assert_rational_leading_coefficients(leading):
    """The rational cases reach leading coefficients that are negative,
    integral but not units, and not integral."""
    assert any(c < 0 for c in leading)
    assert any(c.denominator == 1 and abs(c) > 1 for c in leading)
    assert any(c.denominator > 1 for c in leading)


def test_spoly_reduction_and_sympy_cross_check():
    """Every S-polynomial of a computed basis reduces to zero, and the
    reduced basis agrees with an independent implementation; the last 20
    cases have rational coefficients."""
    rng = random.Random(20240810)
    ring = VarSet(("x", "y", "z"))
    leading = []
    for case in range(60):
        bound = 1 if case < 40 else 6
        gens = [
            random_poly(rng, ring, max_degree=2, max_terms=3, coeff_bound=3,
                        allow_zero=False, nonconstant=True, denominator_bound=bound)
            for _ in range(rng.randint(1, 3))
        ]
        order_name = rng.choice(["grevlex", "lex"])
        order = TermOrder.grevlex() if order_name == "grevlex" else TermOrder.lex()
        if bound > 1:
            leading += [g.terms[max(g.terms, key=reference_key(order))] for g in gens]
        gb = buchberger(Ideal(ring, tuple(gens)), order)
        for i in range(len(gb.basis)):
            for j in range(i + 1, len(gb.basis)):
                s = spoly(gb.basis[i], gb.basis[j], order)
                assert normal_form(s, gb).is_zero()
        theirs = sympy_reduced_gb(gens, ring, order_name)
        assert sorted(map(str, gb.basis)) == sorted(map(str, theirs))
    assert_rational_leading_coefficients(leading)


KATSURA3 = (VarSet(("x0", "x1", "x2", "x3")), (
    "x0 + 2*x1 + 2*x2 + 2*x3 - 1",
    "x0^2 + 2*x1^2 + 2*x2^2 + 2*x3^2 - x0",
    "2*x0*x1 + 2*x1*x2 + 2*x2*x3 - x1",
    "2*x0*x2 + x1^2 + 2*x1*x3 - x2",
))
CYCLIC4 = (VarSet(("x0", "x1", "x2", "x3")), (
    "x0 + x1 + x2 + x3",
    "x0*x1 + x1*x2 + x2*x3 + x3*x0",
    "x0*x1*x2 + x1*x2*x3 + x2*x3*x0 + x3*x0*x1",
    "x0*x1*x2*x3 - 1",
))


@pytest.mark.parametrize("system, order_name", [
    (KATSURA3, "grevlex"), (KATSURA3, "lex"), (KATSURA3, "elim:1"),
    (CYCLIC4, "grevlex"), (CYCLIC4, "lex"),
], ids=["katsura3-grevlex", "katsura3-lex", "katsura3-elim1", "cyclic4-grevlex",
        "cyclic4-lex"])
def test_reduced_basis_with_coefficient_growth_matches_sympy(system, order_name):
    """Systems whose reductions grow large coefficients (the katsura-3 lex
    basis has 12-digit numerators)."""
    ring, texts = system
    order = {"grevlex": TermOrder.grevlex(), "lex": TermOrder.lex(),
             "elim:1": TermOrder.block(1)}[order_name]
    gens = tuple(parse(t, ring) for t in texts)
    gb = buchberger(Ideal(ring, gens), order)
    theirs = sympy_reduced_gb(gens, ring, order_name)
    assert sorted(map(str, gb.basis)) == sorted(map(str, theirs))
    for g in gens:
        assert normal_form(g, gb).is_zero()


def test_basis_invariant_under_generator_permutation():
    rng = random.Random(20240811)
    ring = VarSet(("x", "y", "z"))
    for _ in range(30):
        gens = [
            random_poly(rng, ring, max_degree=2, max_terms=3, allow_zero=False,
                        nonconstant=True)
            for _ in range(3)
        ]
        shuffled = list(gens)
        rng.shuffle(shuffled)
        a = buchberger(Ideal(ring, tuple(gens)))
        b = buchberger(Ideal(ring, tuple(shuffled)))
        assert a.basis == b.basis  # reduced bases are canonical
        for g in gens:
            assert normal_form(g, b).is_zero()


# -- normal form -------------------------------------------------------------------


def test_generators_reduce_to_zero():
    src = ideal(W, "w1 - 1 - (w3*w6 - w4*w5)", "w3*w4 - w5")
    gb = buchberger(src)
    for g in src.generators:
        assert normal_form(g, gb).is_zero()


def test_normal_form_of_one_modulo_unit():
    gb = buchberger(ideal(W, "w1", "1 - w1"))
    assert [str(g) for g in gb.basis] == ["1"]
    assert normal_form(W.one(), gb).is_zero()


def test_normal_form_single_reduction():
    ring = VarSet(("y", "x"))
    gb = buchberger(ideal(ring, "y - x^2"), TermOrder.lex())
    assert normal_form(parse("y", ring), gb) == parse("x^2", ring)


def test_normal_form_idempotent_randomized():
    rng = random.Random(20240812)
    ring = VarSet(("x", "y", "z"))
    gb = buchberger(ideal(ring, "x^2 - y", "y*z - 1"))
    for _ in range(100):
        f = random_poly(rng, ring, max_degree=4)
        nf = normal_form(f, gb)
        assert normal_form(nf, gb) == nf


# -- membership and unit tests -------------------------------------------------------


def test_unit_ideal_examples():
    assert is_unit_ideal(ideal(W, "w1", "w3", "w5", "w1 - 1 - (w3*w6 - w4*w5)"))
    assert not is_unit_ideal(ideal(W, "w1", "w3", "w5"))
    S = VarSet(("s",))
    assert not is_unit_ideal(ideal(S, "s^2 + 1"))  # no rational point, still proper


def is_unit_by_buchberger(src):
    gb = buchberger(src)
    return len(gb.basis) == 1 and gb.basis[0] == 1


@pytest.mark.parametrize("texts, unit", [
    (("w1 - w3", "w3", "w1*w2 - 1"), True),
    (("w3", "2 + w3*w4"), True),
    (("w1 - w3", "w3", "w2*w4 - w1"), False),
    (("w1", "w2", "w3", "w4", "w5", "w6"), False),
    (("w1", "w1 - w1*w2", "3*w3"), False),
])
def test_unit_ideal_lone_variable_cases(texts, unit, monkeypatch):
    """Ideals with lone-variable generators c*x_k, and no constant one:
    one grevlex run decides each, as the plain Buchberger run does."""
    src = ideal(W, *texts)
    assert is_unit_by_buchberger(src) == unit
    verdicts = []
    made = spolynomials_per_run(monkeypatch, lambda: verdicts.append(is_unit_ideal(src)))
    assert (verdicts, len(made)) == ([unit], 1)


def test_unit_ideal_shortcut_agrees_with_buchberger_on_seeded_ideals(monkeypatch):
    """Random generators next to lone-variable ones c*x_k: the verdict is
    the plain Buchberger run's on the whole ideal.  Then unit ideals (p,
    1 + p*q, r), 1 = (1 + p*q) - q*p, with no constant generator, so the
    verdict is read off the one run; sympy confirms each is the unit
    ideal."""
    rng = random.Random(20261018)
    ring = VarSet(("x1", "x2", "x3", "x4", "x5"))
    verdicts = []
    for _ in range(80):
        lone = [ring.var(n) * rng.choice((1, -2, 3))
                for n in rng.sample(ring.names, rng.randint(1, 3))]
        others = [random_poly(rng, ring, max_degree=2, max_terms=3, allow_zero=False)
                  for _ in range(rng.randint(1, 3))]
        gens = others + lone
        rng.shuffle(gens)
        src = Ideal(ring, tuple(gens))
        verdicts.append(is_unit_ideal(src))
        assert verdicts[-1] == is_unit_by_buchberger(src)
    assert 10 < sum(verdicts) < 70  # both verdicts occur
    made = 0
    while made < 12:
        p, q, r = (random_poly(rng, ring, max_degree=2, max_terms=2, allow_zero=False,
                               nonconstant=True, denominator_bound=3) for _ in range(3))
        gens = [p, 1 + p * q, r]
        rng.shuffle(gens)
        assert sympy_reduced_gb(gens, ring, "grevlex") == [ring.one()]
        src = Ideal(ring, tuple(gens))
        verdicts = []
        runs = spolynomials_per_run(monkeypatch, lambda: verdicts.append(is_unit_ideal(src)))
        assert verdicts == [True] and len(runs) == 1
        made += 1


def test_unit_iff_one_is_member():
    rng = random.Random(20240813)
    ring = VarSet(("x", "y"))
    for _ in range(30):
        gens = tuple(
            random_poly(rng, ring, max_degree=2, max_terms=3, allow_zero=False)
            for _ in range(2)
        )
        src = Ideal(ring, gens)
        assert is_unit_ideal(src) == in_ideal(ring.one(), src)


# -- elimination -----------------------------------------------------------------------
#
# `eliminate` is the documented recipe (`helpers.eliminate`): the block-free elements
# of `buchberger` under a block order.  The library's own elimination is the graph
# elimination `_graph_relations` of the saturation rounds.


def test_eliminate_parabola():
    out = eliminate(ideal(TXY, "x - t", "y - t^2"), 1)
    assert out.ring.names == ("x", "y")
    assert [str(g) for g in out.generators] == ["x^2 - y"]


def test_eliminate_to_zero_ideal():
    out = eliminate(ideal(W, "w1"), 1)
    assert out.ring.names == W.names[1:]
    assert out.generators == (out.ring.zero(),)


def test_eliminate_resultant_membership_randomized():
    """The resultant of (x - p(t), y - q(t)) w.r.t. t lies in the
    eliminated ideal; resultants come from an independent implementation."""
    rng = random.Random(20240814)
    for _ in range(12):
        T = VarSet(("t",))
        p = random_poly(rng, T, max_degree=3, max_terms=3, allow_zero=False)
        q = random_poly(rng, T, max_degree=3, max_terms=3, allow_zero=False)
        g1 = TXY.var("x") - p.embed(TXY)
        g2 = TXY.var("y") - q.embed(TXY)
        out = eliminate(Ideal(TXY, (g1, g2)), 1)
        res = sympy_resultant(g1, g2, "t", XY)
        if res.is_zero():
            continue
        assert in_ideal(res, out)



def saturation_graph_ideals(monkeypatch, blocks: int) -> list:
    """(ring, gens, extra) of each graph elimination the saturation rounds
    on `blocks` two-dimensional blocks make: (a) plus the graph ideal of
    the kept generators, eliminating the variables of W."""
    calls = []
    real = derivations._graph_relations

    def recording(ring, gens, extra, caps):
        calls.append((ring, gens, extra))
        return real(ring, gens, extra, caps)

    monkeypatch.setattr(derivations, "_graph_relations", recording)
    derivation = lower_triangular_derivation(blocks)
    kernel_saturation(derivation, make_slice(derivation, "w2"), 8)
    return calls


def test_eliminate_is_the_block_free_part_of_the_reduced_basis(monkeypatch):
    """The graph elimination `_graph_relations`, which interreduces only
    the rows it returns, gives the elements of the whole reduced basis of
    the polynomial graph ideal under the block order eliminating the ring
    whose leading monomials are free of it, over the tags: on seeded
    graph ideals in 1 to 3 variables with rational coefficients, with
    and without an extra generator, and on every saturation-round graph
    ideal of V3 and V4, with the extra generator a."""
    rng = random.Random("block-free")
    cases = []
    for _ in range(40):
        ring = VarSet(("x1", "x2", "x3")[:rng.randint(1, 3)])

        def draw():
            return random_poly(rng, ring, max_degree=2, max_terms=3, allow_zero=False,
                               nonconstant=True, denominator_bound=3)

        gens = [draw() for _ in range(rng.randint(1, 3))]
        cases.append((ring, gens, [draw() for _ in range(rng.randint(0, 1))]))
    for blocks in (3, 4):
        graphs = saturation_graph_ideals(monkeypatch, blocks)
        assert graphs and all(len(ring) == 2 * blocks and len(extra) == 1
                              for ring, _, extra in graphs)
        cases += graphs
    dropped = 0
    for ring, gens, extra in cases:
        k = len(ring)
        graph = graph_ideal(ring, gens, extra)
        gb = buchberger(graph, TermOrder.block(k))
        tags = VarSet(graph.ring.names[k:])
        kept = tuple(Polynomial(tags, {m[k:]: c for m, c in g.terms.items()})
                     for g, lm in zip(gb.basis, leading_monomials(gb)) if not any(lm[:k]))
        relations = groebner._graph_relations(ring, gens, extra, groebner.DEFAULT_CAPS)
        assert relations.generators == (kept or (tags.zero(),))
        dropped += 0 < len(kept) < len(gb.basis)
    assert dropped >= 20


# -- dimension ---------------------------------------------------------------------------


def test_dimension_whole_space():
    ring = VarSet(tuple(f"x{i}" for i in range(8)))
    assert krull_dimension(Ideal(ring, (ring.zero(),))) == 8


def test_dimension_hypersurface_in_eight_variables():
    ring = VarSet(("u", "v") + W.names)
    eq = parse("u*w2 - v*w1 - 1 - (w3*w6 - w4*w5)", ring)
    assert krull_dimension(Ideal(ring, (eq,))) == 7


def test_dimension_boundary_slice():
    ring = VarSet(("u", "v") + W.names)
    src = Ideal(ring, (parse("u", ring), parse("v", ring),
                       parse("w3*w6 - w4*w5 + 1", ring)))
    assert krull_dimension(src) == 5


def test_dimension_of_unit_ideal_rejected():
    with pytest.raises(UnitIdealError):
        krull_dimension(ideal(XY, "x", "1 - x"))


def test_hypersurface_dimension_law_randomized():
    rng = random.Random(20240815)
    for _ in range(60):
        n = rng.randint(1, 4)
        ring = VarSet(tuple(f"x{i}" for i in range(n)))
        p = random_poly(rng, ring, max_degree=3, max_terms=3, allow_zero=False)
        if p.is_constant():
            continue
        assert krull_dimension(Ideal(ring, (p,))) == n - 1


def dimension_or_unit(ideal):
    try:
        return krull_dimension(ideal)
    except UnitIdealError:
        return "unit"


def test_krull_dimension_matches_the_basis_route():
    """krull_dimension, read off the leading monomials of the active rows
    of one run, gives what the independent-set rule gives on the leading
    monomials of `buchberger`'s reduced basis, on 300 seeded ideals in 1
    to 4 variables: zero ideals, unit ideals (p, 1 + p*q, ...) and
    ideals with rational coefficients among them."""
    rng = random.Random("dimension route")
    outcomes = []
    for case in range(300):
        ring = VarSet(("x1", "x2", "x3", "x4")[:rng.randint(1, 4)])
        gens = [random_poly(rng, ring, max_degree=3, max_terms=3, allow_zero=False,
                            nonconstant=True, denominator_bound=4)
                for _ in range(rng.randint(1, 3))]
        if case % 5 == 0:
            gens = [ring.zero()]
        elif case % 5 == 1:
            gens[1:] = [1 + gens[0] * random_poly(rng, ring, max_degree=1, allow_zero=False)]
        src = Ideal(ring, tuple(gens))
        outcomes.append(basis_krull_dimension(src))
        assert dimension_or_unit(src) == outcomes[-1]
    assert {"unit", 0, 1, 2, 3, 4} <= set(outcomes)
    assert outcomes.count("unit") >= 60


def test_principal_dimension_agrees_with_independent_sets():
    """The dimension of a principal ideal is n for the zero ideal, the unit
    ideal for a nonzero constant and n - 1 for a nonconstant polynomial,
    equal to the independent-set rule on its reduced basis, over 1 to 9
    variables.  A nonzero generator listed twice gives the same answer
    (zero generators are dropped, so the zero ideal stays principal)."""
    rng = random.Random(20261018)
    ideals, expected = [], []
    for trial in range(135):
        n = trial % 9 + 1
        ring = VarSet(tuple(f"x{i}" for i in range(n)))
        kind = trial // 9 % 3
        if kind == 0:
            p = ring.zero()
        elif kind == 1:
            p = ring.const(Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 4)))
        else:
            p = random_poly(rng, ring, max_degree=3, max_terms=3, allow_zero=False,
                            nonconstant=True, denominator_bound=3)
        gb = buchberger(Ideal(ring, (p,)))
        want = ("unit" if gb.basis == (ring.one(),)
                else independent_set_dimension(n, leading_monomials(gb)))
        assert want == (n, "unit", n - 1)[kind]
        assert dimension_or_unit(Ideal(ring, (p, p))) == want
        ideals.append(Ideal(ring, (p,)))
        expected.append(want)
    assert list(map(dimension_or_unit, ideals)) == expected


# -- subalgebra membership ----------------------------------------------------------------


SIX_GENS = [
    "w1", "w3", "w5",
    "w1*w4 - w2*w3", "w1*w6 - w2*w5", "w3*w6 - w4*w5",
]


def test_subalgebra_self_membership():
    q = P("w3*w6 - w4*w5")
    member, witness = subalgebra_membership(q, [q])
    assert member
    assert str(witness) == "y1"


def test_subalgebra_rejects_noninvariant():
    gens = [P(t) for t in SIX_GENS]
    member, witness = subalgebra_membership(P("w2"), gens)
    assert not member and witness is None


def test_subalgebra_product_closure_with_witness():
    gens = [P(t) for t in SIX_GENS]
    f = P("(w1*w4 - w2*w3)*w5")
    member, witness = subalgebra_membership(f, gens)
    assert member
    assert witness.total_degree() == 2
    # the witness reconstructs f from the generators
    assignment = {f"y{i + 1}": g for i, g in enumerate(gens)}
    assert witness.substitute(assignment) == f


def test_membership_witness_tags_avoid_the_ring_names():
    """The witness is named over fresh tags (`helpers.tag_ring`), so over the
    ring (y1, y2) the membership of y1^6 in Q[y1^2, y1^3] is witnessed by
    yy2^2 over (yy1, yy2), not by a polynomial over names the ring takes."""
    ring = VarSet(("y1", "y2"))
    y1 = ring.var("y1")
    member, witness = subalgebra_membership(y1 ** 6, [y1 ** 2, y1 ** 3])
    assert member and witness.ring.names == ("yy1", "yy2")
    assert str(witness) == "yy2^2"
    assert witness.substitute({"yy1": y1 ** 2, "yy2": y1 ** 3}) == y1 ** 6


def test_subalgebra_constants_and_empty_generators():
    member, witness = subalgebra_membership(W.const(5), [])
    assert member and witness.is_constant()
    member, _ = subalgebra_membership(W.var("w1"), [])
    assert not member


def test_subalgebra_membership_matches_the_basis_route():
    """subalgebra_membership, which reduces f against the active rows of
    one run, gives the flag and witness of the normal form modulo
    `buchberger`'s reduced basis of the graph ideal, on 300 seeded cases
    in 1 to 3 variables with rational coefficients: no generators,
    redundant generators (a repeat, or a polynomial in the others), and
    f a member built from the generators or a random polynomial."""
    rng = random.Random("membership route")
    members = empty = redundant = fractional = 0
    for case in range(300):
        ring = VarSet(("x", "y", "z")[:rng.randint(1, 3)])
        gens = [random_poly(rng, ring, max_degree=2, max_terms=3, allow_zero=False,
                            nonconstant=True, denominator_bound=4)
                for _ in range(case % 4)]
        if len(gens) > 1 and rng.random() < 0.4:
            extra = (rng.choice(gens) if rng.random() < 0.5
                     else gens[0] * gens[1] - Fraction(1, 2) * gens[0])
            gens.insert(rng.randrange(len(gens) + 1), extra)
            redundant += 1
        if gens and rng.random() < 0.5:
            f = ring.const(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
            for _ in range(rng.randint(1, 3)):
                f += Fraction(rng.randint(-5, 5), rng.randint(1, 4)) * rng.choice(gens) \
                    * rng.choice(gens + [ring.one()])
        else:
            f = random_poly(rng, ring, max_degree=3, max_terms=4, denominator_bound=4)
        got = subalgebra_membership(f, gens)
        assert got == basis_subalgebra_membership(f, gens)
        members += got[0]
        empty += not gens
        if got[0]:
            fractional += any(type(c) is Fraction for c in got[1].terms.values())
    assert 100 < members < 250 and empty >= 60 and redundant >= 30 and fractional >= 30


def test_no_verdict_builds_a_basis_record(monkeypatch):
    """Each verdict reads its own completed run: is_squarefree's unit-ideal
    fallback, krull_dimension, subalgebra_membership, is_unit_ideal, the
    graph elimination and the v3 and v4 batteries decide with `buchberger`,
    `normal_form` and `GroebnerBasis` refusing every call."""
    def refuse(*args, **kwargs):
        raise AssertionError("a verdict built a basis record")

    for name in ("buchberger", "normal_form", "GroebnerBasis"):
        monkeypatch.setattr(groebner, name, refuse)
    S = VarSet(("s",))
    verdicts = []
    runs = spolynomials_per_run(
        monkeypatch, lambda: verdicts.append(is_squarefree(parse("(s+1)^2*(s-2)", S))))
    assert verdicts == [False] and len(runs) == 1  # no prime certifies: the fallback ran
    assert krull_dimension(ideal(TXY, "x - t", "y - t^2")) == 1
    with pytest.raises(UnitIdealError):
        krull_dimension(ideal(XY, "x*y - 1", "x^2"))
    gens = [P(t) for t in SIX_GENS]
    member, witness = subalgebra_membership(P("(w1*w4 - w2*w3)*w5"), gens)
    assert member and witness.total_degree() == 2
    assert is_unit_ideal(ideal(XY, "x*y - 1", "x^2"))
    T = VarSet(("t",))
    relations = groebner._graph_relations(T, [T.var("t"), parse("t^2", T)], (),
                                          groebner.DEFAULT_CAPS)
    assert relations.generators == (parse("y1^2 - y2", VarSet(("y1", "y2"))),)
    assert run_battery(FamilySpec("v3", signed_roots_shape(3, 1), 1)).passed
    assert run_battery(FamilySpec("v4", parse("a^2 + b*c", VarSet(("a", "b", "c"))))).passed
    assert not run_battery(FamilySpec("v4", parse("a*b - a - b", VarSet(("a", "b", "c"))))).passed
    with pytest.raises(RepeatedRootsError):
        run_battery(FamilySpec("v3", parse("s^2 + 2*s", S)))


def test_graph_span_contains_checks_the_ring():
    """A polynomial of another ring raises instead of being embedded by
    name, as the constructor and subalgebra_membership do."""
    cands = [parse("x", XY), parse("x*y + y", XY)]
    span = groebner._GraphSpan(XY, cands)
    assert span.kept == cands
    assert span.contains(parse("x^2 + 1", XY))
    assert not span.contains(parse("y", XY))
    for ring in (VarSet(("x",)), VarSet(("y", "x"))):
        with pytest.raises(RingMismatchError):
            span.contains(ring.var("x"))


# -- exact division helper -----------------------------------------------------------------


def test_divide_exact():
    p = P("w1*w3*w6 - w1*w4*w5")
    assert divide_exact(p, P("w1")) == P("w3*w6 - w4*w5")
    assert divide_exact(P("w1 + 1"), P("w1")) is None
    assert divide_exact(P("0"), P("w1")).is_zero()
    # divisors that are not monic, the first not dividing
    assert divide_exact(parse("x^2 + x", XY), parse("2*x^2 - 3", XY)) is None
    assert divide_exact(parse("x^2 + x*y", XY), parse("2*x + 2*y", XY)) == parse("1/2*x", XY)
    # a ring with no variables divides its constants
    empty = VarSet(())
    assert divide_exact(empty.const(6), empty.const(4)) == empty.const(Fraction(3, 2))
    assert divide_exact(empty.zero(), empty.const(4)).is_zero()
    assert monic(P("2*w1 - 2")) == P("w1 - 1")
    # positions name different variables in (x, y) and (y, x), and a ring
    # of another size packs differently: neither is divided
    with pytest.raises(RingMismatchError):
        divide_exact(parse("x^2", XY), parse("y", VarSet(("y", "x"))))
    with pytest.raises(RingMismatchError):
        divide_exact(parse("x^2", XY), parse("x", VarSet(("x",))))


# -- heap-ordered reduction core against the max-scan reference -------------------


def scan_subtract(work, c, shift, g, lm):
    for gm, gc in g.items():
        if gm == lm:
            continue
        t = tuple(a + b for a, b in zip(shift, gm))
        val = work.get(t, 0) - c * gc
        if val:
            work[t] = val
        else:
            work.pop(t, None)


def scan_normal_form(f, gb):
    """Reference normal form: each leading term is found by a scan of the
    whole working polynomial, and cancelled terms leave it at once."""
    key = reference_key(gb.order)
    lms = [max(g.terms, key=key) for g in gb.basis]
    work, remainder = dict(f.terms), {}
    while work:
        m = max(work, key=key)
        c = work.pop(m)
        for g, lm in zip(gb.basis, lms):
            if all(a <= b for a, b in zip(lm, m)):
                scan_subtract(work, c, tuple(a - b for a, b in zip(m, lm)), g.terms, lm)
                break
        else:
            remainder[m] = c
    return remainder


def scan_divide_exact(p, d):
    """Reference grevlex exact division by the same scan."""
    key = reference_key(TermOrder.grevlex())
    dlm = max(d.terms, key=key)
    work, quotient = dict(p.terms), {}
    while work:
        m = max(work, key=key)
        if not all(a <= b for a, b in zip(dlm, m)):
            return None
        c = Fraction(work.pop(m)) / d.terms[dlm]
        shift = tuple(a - b for a, b in zip(m, dlm))
        quotient[shift] = c
        scan_subtract(work, c, shift, d.terms, dlm)
    return quotient


REDUCTION_ORDERS = [TermOrder.grevlex(), TermOrder.lex(), TermOrder.block(1),
                    TermOrder.block(2)]


@pytest.mark.parametrize("order", REDUCTION_ORDERS, ids=lambda o: f"{o.kind}{o.block_size}")
def test_normal_form_matches_scan_reference(order):
    """The last 6 cases have rational coefficients."""
    rng = random.Random(20261017)
    ring = VarSet(("x", "y", "z", "t"))
    leading = []
    for case in range(18):
        bound = 1 if case < 12 else 6
        gens = tuple(
            random_poly(rng, ring, max_degree=2, max_terms=3, allow_zero=False,
                        nonconstant=True, denominator_bound=bound)
            for _ in range(rng.randint(1, 3))
        )
        if bound > 1:
            leading += [g.terms[max(g.terms, key=reference_key(order))] for g in gens]
        gb = buchberger(Ideal(ring, gens), order)
        assert leading_monomials(gb) == tuple(max(g.terms, key=reference_key(order))
                                            for g in gb.basis)
        for _ in range(6):
            f = random_poly(rng, ring, max_degree=4, max_terms=6, denominator_bound=bound)
            # members of the ideal: every term cancels on the way to zero
            f_member = sum((random_poly(rng, ring, max_degree=2, denominator_bound=bound) * g
                            for g in gens), ring.zero())
            for h in (f, f_member, f + f_member):
                nf = normal_form(h, gb)
                # same terms in the same (descending) order
                assert list(nf.terms.items()) == list(scan_normal_form(h, gb).items())
            assert normal_form(f_member, gb).is_zero()
    assert_rational_leading_coefficients(leading)


def test_divide_exact_matches_scan_reference():
    """The last 60 cases have rational coefficients."""
    rng = random.Random(20261018)
    ring = VarSet(("x", "y", "z"))
    leading = []
    for case in range(210):
        bound = 1 if case < 150 else 4
        d = random_poly(rng, ring, max_degree=2, max_terms=3, allow_zero=False,
                        denominator_bound=bound)
        q = random_poly(rng, ring, max_degree=3, max_terms=4, denominator_bound=bound)
        r = random_poly(rng, ring, max_degree=3, max_terms=2, denominator_bound=bound)
        if bound > 1:
            leading.append(d.terms[max(d.terms, key=reference_key(TermOrder.grevlex()))])
        for p in (q * d, q * d + r):
            quotient = divide_exact(p, d)
            reference = scan_divide_exact(p, d)
            if reference is None:
                assert quotient is None
            else:
                assert list(quotient.terms.items()) == list(reference.items())
        assert divide_exact(q * d, d) == q
    assert_rational_leading_coefficients(leading)


def fq_presentation_case():
    """The largest normal form of the deg-12 battery's invariant
    presentation: f(q), with f + 1 = prod over k of (1 - sign_k * k * s)
    and q = z3*z4 - z2*z5, modulo the graph ideal of [z2, z4, q] under
    block(5), the membership test of f(q) in the subalgebra of the rest."""
    z = VarSet(("z1", "z2", "z3", "z4", "z5"))
    q = parse("z3*z4 - z2*z5", z)
    rng = random.Random(11)
    product = z.one()
    for k in range(1, 13):
        product = product * (z.one() - q * (rng.choice((1, -1)) * k))
    fq = product - z.one()
    gb = buchberger(graph_ideal(z, [z.var("z2"), z.var("z4"), q]),
                    TermOrder.block(len(z)))
    return fq.embed(gb.source.ring), gb


def test_presentation_normal_form_matches_scan_reference():
    fq, gb = fq_presentation_case()
    assert len(fq.terms) == 90 and len(gb.basis) == 3
    nf = normal_form(fq, gb)
    assert list(nf.terms.items()) == list(scan_normal_form(fq, gb).items())
    # f(q) is a polynomial in the tag of q
    assert nf.variables() == ("y3",)


def test_reduction_skips_cancelled_queued_terms():
    """x*y is queued from the start and cancels when x^2 is reduced."""
    ring = VarSet(("x", "y", "z"))
    for order in REDUCTION_ORDERS:
        gb = buchberger(ideal(ring, "x - y"), order)
        f = parse("x^2 - x*y + z", ring)
        assert normal_form(f, gb) == parse("z", ring)
        g = parse("x^3 - x^2*y - x*y*z + y^2*z + y*z", ring)
        assert normal_form(g, gb) == parse("y*z", ring)
        assert list(normal_form(g, gb).terms) == list(scan_normal_form(g, gb))
    assert divide_exact(parse("x^2 - x*y", ring), parse("x - y", ring)) == parse("x", ring)
    assert divide_exact(parse("x^3 - x*y^2 + x - y", ring), parse("x - y", ring)) \
        == parse("x^2 + x*y + 1", ring)


@pytest.mark.parametrize("order", REDUCTION_ORDERS, ids=lambda o: f"{o.kind}{o.block_size}")
def test_basis_ascends_by_leading_monomial(order):
    """The basis, as the gb command prints it, is listed in strictly
    ascending order of leading monomial."""
    rng = random.Random(20261019)
    ring = VarSet(("x", "y", "z", "t"))
    key = reference_key(order)
    systems = [tuple(parse(t, KATSURA3[0]) for t in KATSURA3[1]),
               tuple(parse(t, CYCLIC4[0]) for t in CYCLIC4[1])]
    systems += [tuple(random_poly(rng, ring, max_degree=2, max_terms=3, allow_zero=False,
                                  nonconstant=True) for _ in range(rng.randint(2, 3)))
                for _ in range(20)]
    longest = 0
    for gens in systems:
        gb = buchberger(Ideal(gens[0].ring, gens), order)
        assert leading_monomials(gb) == tuple(max(g.terms, key=key) for g in gb.basis)
        keys = [key(lm) for lm in leading_monomials(gb)]
        assert all(a < b for a, b in zip(keys, keys[1:]))
        longest = max(longest, len(keys))
    assert longest >= 4


# -- pair pruning against textbook Buchberger ---------------------------------------


def textbook_buchberger(gens, order):
    """Buchberger's algorithm with no criterion: every pair is reduced, in
    the order formed, against the whole basis so far by the scan
    reference; then the basis is minimalized, tail-reduced and made monic.
    Returns (reduced basis in ascending order of leading monomial,
    number of S-polynomials reduced)."""
    key = reference_key(order)
    ring = gens[0].ring

    def lead(g):
        return max(g.terms, key=key)

    def monic_under_order(g):
        return g * ring.const(Fraction(1) / g.terms[lead(g)])

    def remainder(f, basis):
        return Polynomial(ring, scan_normal_form(f, SimpleNamespace(order=order, basis=basis)))

    basis = [monic_under_order(g) for g in gens if not g.is_zero()]
    pairs = list(combinations(range(len(basis)), 2))
    reduced = 0
    while pairs:
        i, j = pairs.pop(0)
        reduced += 1
        r = remainder(spoly(basis[i], basis[j], order), basis)
        if not r.is_zero():
            pairs += [(k, len(basis)) for k in range(len(basis))]
            basis.append(monic_under_order(r))
    basis.sort(key=lambda g: key(lead(g)))
    minimal = []
    for g in basis:
        if not any(all(a <= b for a, b in zip(lead(h), lead(g))) for h in minimal):
            minimal.append(g)
    return [monic_under_order(remainder(g, [h for h in minimal if h is not g]))
            for g in minimal], reduced


@pytest.mark.parametrize("order", REDUCTION_ORDERS, ids=lambda o: f"{o.kind}{o.block_size}")
def test_pruned_buchberger_matches_textbook_reference(order):
    """Pruning pairs and reducing against the active elements only leaves
    the reduced basis unchanged.  Under grevlex every pair of leading
    monomials of the first system has the lcm x*y*z, so criterion F must
    keep one pair of each lcm."""
    rng = random.Random(20261020)
    ring = VarSet(("x", "y", "z"))
    key = reference_key(order)
    systems = [tuple(parse(t, ring) for t in ("x*y - z", "x*z - y", "y*z - x"))]
    systems += [tuple(random_poly(rng, ring, max_degree=2, max_terms=3, allow_zero=False,
                                  nonconstant=True) for _ in range(rng.randint(2, 3)))
                for _ in range(30)]
    for gens in systems:
        expected, _ = textbook_buchberger(gens, order)
        gb = buchberger(Ideal(ring, gens), order)
        assert gb.basis == tuple(expected)
        assert leading_monomials(gb) == tuple(max(g.terms, key=key) for g in expected)


# The ambient ring of v3 with 10 trivial summands, as wide as the rings of
# the kernel-width benchmark.
WIDE = VarSet(("u", "v", "w1", "w2", "w3", "w4", "w5", "w6")
              + tuple(f"e{i}" for i in range(1, 11)))


@pytest.mark.parametrize("order", [TermOrder.grevlex(), TermOrder.block(2)],
                         ids=lambda o: f"{o.kind}{o.block_size}")
def test_wide_sparse_buchberger_matches_textbook_reference(order):
    """Sparse systems in 18 variables, each generator in at most three of
    them, against textbook Buchberger."""
    rng = random.Random(20261021)
    key = reference_key(order)
    for _ in range(12):
        gens = []
        for _ in range(rng.randint(2, 3)):
            names = rng.sample(WIDE.names, 3)
            sub = VarSet(tuple(sorted(names, key=WIDE.index)))
            gens.append(random_poly(rng, sub, max_degree=2, max_terms=3, allow_zero=False,
                                    nonconstant=True).embed(WIDE))
        expected, _ = textbook_buchberger(tuple(gens), order)
        gb = buchberger(Ideal(WIDE, tuple(gens)), order)
        assert gb.basis == tuple(expected)
        assert leading_monomials(gb) == tuple(max(g.terms, key=key) for g in expected)


@pytest.mark.parametrize("system", [KATSURA3, CYCLIC4], ids=["katsura3", "cyclic4"])
def test_pruning_reduces_fewer_spolynomials(system, monkeypatch):
    ring, texts = system
    gens = tuple(parse(t, ring) for t in texts)
    expected, reference_count = textbook_buchberger(gens, TermOrder.grevlex())
    calls = []
    spoly_core = groebner._spoly

    def counting(*args):
        calls.append(args)
        return spoly_core(*args)

    monkeypatch.setattr(groebner, "_spoly", counting)
    gb = buchberger(Ideal(ring, gens))
    assert gb.basis == tuple(expected)
    assert 0 < len(calls) < reference_count


@pytest.mark.parametrize("system, order, expected", [
    (KATSURA3, TermOrder.grevlex(), [8]),
    (KATSURA3, TermOrder.lex(), [27]),
    (KATSURA3, TermOrder.block(1), [8]),
    (CYCLIC4, TermOrder.grevlex(), [8]),
    (CYCLIC4, TermOrder.lex(), [16]),
], ids=["katsura3-grevlex", "katsura3-lex", "katsura3-elim1", "cyclic4-grevlex",
        "cyclic4-lex"])
def test_spolynomial_counts_are_pinned(system, order, expected, monkeypatch):
    """The pair pruning reduces exactly as many S-polynomials as when the
    counts were recorded; a change in them is a change in the pruning."""
    ring, texts = system
    gens = tuple(parse(t, ring) for t in texts)
    assert spolynomials_per_run(monkeypatch, lambda: buchberger(Ideal(ring, gens), order)) \
        == expected


def recorded_runs(monkeypatch) -> list:
    """Records each Buchberger run started, with the sugar passed to each
    row it appends (None for a seed) in `appended`."""
    runs = []

    class Recorded(groebner._Run):
        def __init__(self, *args):
            super().__init__(*args)
            self.appended = []
            runs.append(self)

        def append(self, reduced, sugar=None):
            self.appended.append(sugar)
            super().append(reduced, sugar)

    monkeypatch.setattr(groebner, "_Run", Recorded)
    return runs


def selects_by_sugar(order: TermOrder, polys) -> bool:
    """`_selects_by_sugar` on the polynomials `polys`, packed under `order`."""
    packing = groebner._packing(order, len(polys[0].ring))
    return groebner._selects_by_sugar(
        packing, [groebner._integer_terms(p.terms, packing.pack)[0] for p in polys])


def test_packed_sugar_test_matches_the_polynomial_oracle():
    """The sugar test on packed seeds agrees with the test on polynomials
    under grevlex, lex and block(k) for every k, on 300 seeded cases:
    graph ideals with and without extra generators, of homogeneous
    polynomials or not, and random ideals."""
    rng = random.Random("sugar oracle")
    sugared = graphs = 0
    for case in range(300):
        ring = VarSet(("x", "y", "z", "t")[:rng.randint(1, 4)])
        homogeneous = case % 2 == 0

        def draw():
            p = random_poly(rng, ring, max_degree=3, max_terms=3, allow_zero=False,
                            nonconstant=True, denominator_bound=3)
            top = p.total_degree()
            return Polynomial(ring, {m: c for m, c in p.terms.items()
                                     if sum(m) == top or not homogeneous})

        if case % 3:
            gens = [draw() for _ in range(rng.randint(1, 3))]
            polys = graph_ideal(ring, gens, [draw() for _ in range(rng.randint(0, 2))]).generators
            graphs += 1
        else:
            polys = [draw() for _ in range(rng.randint(1, 3))]
        n = len(polys[0].ring)
        for order in [TermOrder.grevlex(), TermOrder.lex()] + [TermOrder.block(k)
                                                              for k in range(n + 1)]:
            got = selects_by_sugar(order, polys)
            assert got == polynomial_selects_by_sugar(order, polys)
            sugared += got
    assert graphs == 200 and 300 < sugared < 1500


def test_graph_ideals_of_homogeneous_polynomials_select_pairs_by_sugar(monkeypatch):
    """The tag elimination of a saturation round on V3: (w1) plus the
    graph ideal of the Weitzenboeck generators, under the block order
    eliminating W.  A pair's sugar is at least that of each of its rows,
    so the heap pops sugars that never decrease, each remainder taking
    the larger of its pair's and its own degree."""
    gens = [W.var("w1"), W.var("w3"), W.var("w5")] + [
        parse(t, W) for t in ("w1*w4 - w2*w3", "w1*w6 - w2*w5", "w3*w6 - w4*w5")]
    extra = (W.var("w1"),)
    assert selects_by_sugar(TermOrder.block(len(W)), graph_ideal(W, gens, extra).generators)
    runs = recorded_runs(monkeypatch)
    groebner._graph_relations(W, gens, extra, groebner.DEFAULT_CAPS)
    (run,) = runs
    seeds = len(extra) + len(gens)
    remainders = run.appended[seeds:]
    assert run.appended[:seeds] == [None] * seeds
    assert remainders and remainders == sorted(remainders) and min(remainders) >= 2
    assert run.sugar[seeds:] == remainders


@pytest.mark.parametrize("system", [KATSURA3, CYCLIC4], ids=["katsura3", "cyclic4"])
@pytest.mark.parametrize("order", [TermOrder.grevlex(), TermOrder.lex(), TermOrder.block(1),
                                   TermOrder.block(2), TermOrder.block(3)],
                         ids=["grevlex", "lex", "elim1", "elim2", "elim3"])
def test_other_runs_select_the_smallest_lcm_first(system, order, monkeypatch):
    """No sugar outside graph ideals of homogeneous polynomials: under
    grevlex and lex, and under block orders on inhomogeneous ideals (by
    sugar, katsura-4 eliminating 3 of its 5 variables takes minutes)."""
    ring, texts = system
    gens = tuple(parse(t, ring) for t in texts)
    assert not selects_by_sugar(order, gens)
    runs = recorded_runs(monkeypatch)
    buchberger(Ideal(ring, gens), order)
    (run,) = runs
    assert run.sugar is None


def test_sugar_needs_a_graph_of_homogeneous_polynomials():
    """Each seed homogeneous, or c*y - g with y in the second block and g
    homogeneous in the first; under a block order only."""
    xy = VarSet(("x", "y", "t", "u"))
    block = TermOrder.block(2)

    def selects(*texts, order=block):
        return selects_by_sugar(order, [parse(t, xy) for t in texts])

    assert selects("t - x^2", "3*u - x*y + y^2", "x*y - t^2")
    assert not selects("t - x^2", "u - x^2 - y")  # g inhomogeneous
    assert not selects("t - x^2 - u")  # two terms in the second block
    assert not selects("t^2 - x")  # the second-block term is no variable
    assert not selects("t - x^2", order=TermOrder.lex())
    assert not selects("t - x^2", order=TermOrder.grevlex())


def test_battery_spolynomial_counts_are_pinned(monkeypatch):
    """Per Buchberger run of the v3 battery at deg f = 12, f + 1 the product
    of (1 - sign_k * k * s) with seeded signs: the invariant presentation
    is the one run.  The squarefreeness of f + 1 is certified modulo a
    prime, and stability and freeness are read off -1 - f(0); B's
    smoothness is certified by polynomial identities and Ybar's is B's,
    as Ybar is the cone over B; and the three dimensions, of the
    hypersurfaces X, Ybar and B, are each read off its one equation.  Each of these once made a run: the pin read
    [11, 1, 0, 0, 0, 7] until the dimensions were read off, then
    [11, 1, 7] (the squarefree gcd, the stability run, the presentation)
    until the two shortcuts removed the first two runs, then [7] until
    the presentation eliminated its known survivors in one run instead
    of filtering them in a subalgebra span."""
    spec = FamilySpec("v3", signed_roots_shape(12, 11))
    assert spolynomials_per_run(monkeypatch, lambda: run_battery(spec)) == [5]


@pytest.mark.parametrize("f, expected", [
    ("a^2 + b*c", [1]),
    ("a*b - a - b", [1]),
    ("a^2 - 2*a + b^2 + c^2", [1]),
    ("a^5 + b*c^2 + a*b + c", [16]),
    ("a^7 + b*c^2 + a*b + c", [20]),
    ("a^10 + b*c^2 + a*b + c", [25]),
])
def test_v4_battery_spolynomial_counts_are_pinned(f, expected, monkeypatch):
    """The one Buchberger run of a v4 battery is the Jacobian criterion on
    the hypersurface 1 + f, the unit test of (1 + f, grad f) in the
    variables f involves; Ybar's smoothness is B's.  The second and third
    shapes are singular.  a^2 + b*c read [] while `is_unit_ideal` set
    lone variables, here its partials 2*a, c and b, to zero before any
    run.  The pins read [0], [3], [6] and [9] for
    each a^k + b*c^2 + a*b + c while the battery tested J' = (1 + f, J_kl
    for each polarization operator E_kl), the same ideal written from
    nine generators: the singular shapes then took more pairs and the
    sparse ones fewer.  Before that, the first three read [9], [13] and
    [58] while B's Jacobian criterion ran in the 6 variables w3..w8 (and
    [n, n] while Ybar's ran too), and the criterion on B took thousands
    of S-polynomials (4019 at k = 7) on the a^k + b*c^2 + a*b + c
    shapes."""
    spec = FamilySpec("v4", parse(f, VarSet(("a", "b", "c"))))
    assert spolynomials_per_run(monkeypatch, lambda: run_battery(spec)) == expected


def test_high_degree_battery_makes_only_the_presentation_run(monkeypatch):
    """The seed-7 signed-roots v3 battery at deg f = 30 passes, and its one
    Buchberger run is the presentation's: validation, stability and
    freeness, smoothness and the dimensions are all decided without one."""
    spec = FamilySpec("v3", signed_roots_shape(30, 7))
    reports = []
    runs = spolynomials_per_run(monkeypatch, lambda: reports.append(run_battery(spec)))
    assert reports[0].passed
    assert len(runs) == 1


# -- packed monomials -------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 4, 18])
def test_packing_agrees_with_exponent_tuples(n):
    """Each packing against exponent tuples, with exponents up to the
    largest allowed, 2**31 - 1, and products up to twice that; lcms are
    taken of c and, half the time, of c cleared on the support of a."""
    rng = random.Random(20261022 + n)
    top = groebner._EXPONENT_BOUND - 1

    def rand_mono():
        return tuple(rng.choice((0, rng.randint(1, 3), rng.randint(0, top), top))
                     for _ in range(n))

    def near_divisor(a):
        """A divisor of a; half the time one field is raised by one, so
        that it no longer divides a unless that field is at the bound."""
        b = [rng.choice((e, rng.randint(0, e))) for e in a]
        if rng.random() < 0.5:
            i = rng.randrange(n)
            b[i] = min(a[i] + 1, top)
        return tuple(b)

    divides, coprime = [], []

    for order in [TermOrder.grevlex(), TermOrder.lex(), TermOrder.block(1),
                  TermOrder.block(2), TermOrder.block(n)]:
        packing = groebner._packing(order, n)
        descending = order.descending_key
        for _ in range(300):
            a, c = rand_mono(), rand_mono()
            b = near_divisor(a)
            pa, pb, pc = packing.pack(a), packing.pack(b), packing.pack(c)
            for x, px in ((a, pa), (b, pb)):
                assert packing.unpack(px) == x
                assert packing.degree(px) == sum(x)
                assert not px & packing.guard
            assert (pa < pb) == (descending(a) < descending(b))
            assert (pa < pc) == (descending(a) < descending(c))
            assert (pa == pb) == (a == b)
            divides.append(all(map(le, b, a)))
            assert (not (pa - pb) & packing.guard) == divides[-1]
            # products: linear, ordered and measured even past the bound,
            # which exactly the guard bits flag
            ab, bc = tuple(map(add, a, b)), tuple(map(add, b, c))
            assert (pa + pb < pb + pc) == (descending(ab) < descending(bc))
            assert packing.degree(pa + pb) == sum(ab)
            assert bool((pa + pb) & packing.guard) == (max(ab) > top)
            if max(ab) <= top:
                assert pa + pb == packing.pack(ab)
            # lcm: the packed field-wise max, on the exponent fields alone;
            # it is the sum of those fields exactly for disjoint supports
            d = c if rng.random() < 0.5 else tuple(0 if x else y for x, y in zip(a, c))
            pd = packing.pack(d)
            l = packing.lcm(pa, pd)
            assert l == packing.lcm(pd, pa) == packing.pack(tuple(map(max, a, d))) & packing.low
            coprime.append(not any(x and y for x, y in zip(a, d)))
            assert (l == (pa + pd) & packing.low) == coprime[-1]
        with pytest.raises(ResourceCapError):
            packing.pack((top + 1,) + (0,) * (n - 1))
    assert 0.3 < sum(divides) / len(divides) < 0.7
    assert 0.3 < sum(coprime) / len(coprime) < 0.9
    assert groebner._packing(TermOrder.lex(), n) is groebner._packing(TermOrder.lex(), n)


def test_exponent_bound_is_checked():
    """2**31 - 1 is the largest exponent an input or a reduction may reach;
    under lex, reducing x^2 by x - y^(2**30) climbs to y^(2**31)."""
    top = groebner._EXPONENT_BOUND - 1
    with pytest.raises(ResourceCapError):
        buchberger(ideal(XY, f"x^{top + 1} - 1"))
    assert buchberger(ideal(XY, f"x^{top} - y")).basis == (parse(f"x^{top} - y", XY),)
    gb = buchberger(ideal(XY, "x - y^1073741824"), TermOrder.lex())
    assert normal_form(parse("x", XY), gb) == parse("y^1073741824", XY)
    with pytest.raises(ResourceCapError):
        normal_form(parse("x^2", XY), gb)
    with pytest.raises(ResourceCapError):
        buchberger(ideal(XY, "x - y^1073741824", "x^2 - 1"), TermOrder.lex())
    with pytest.raises(ResourceCapError):
        normal_form(parse(f"x^{top + 1}", XY), gb)
    # exact division: dividing x^top*y^2 by x*y^2 + x^2 queues x^(top + 1)
    with pytest.raises(ResourceCapError):
        divide_exact(parse(f"x^{top}*y^2", XY), parse("x*y^2 + x^2", XY))
    with pytest.raises(ResourceCapError):
        divide_exact(parse(f"x^{top + 1}", XY), parse("x", XY))
    assert divide_exact(parse(f"x^{top}*y^2", XY), parse("x*y^2", XY)) \
        == parse(f"x^{top - 1}", XY)


# -- contracts on orders, bases, ideals ------------------------------------------


def test_term_orders_are_multiplicative_with_one_minimal():
    """Each order's descending key, under which smaller is larger, against
    the reference key of the tests."""
    rng = random.Random(20240816)
    orders = [TermOrder.grevlex(), TermOrder.lex(), TermOrder.block(1), TermOrder.block(2)]
    n = 4
    one = (0,) * n

    def rand_mono():
        return tuple(rng.randint(0, 3) for _ in range(n))

    for order in orders:
        key, descending = reference_key(order), order.descending_key
        for _ in range(400):
            a, b, c = rand_mono(), rand_mono(), rand_mono()
            ac = tuple(x + y for x, y in zip(a, c))
            bc = tuple(x + y for x, y in zip(b, c))
            # the reference order, reversed and injective
            assert (key(a) > key(b)) == (descending(a) < descending(b))
            assert (descending(a) == descending(b)) == (a == b)
            # compatibility with multiplication
            assert (descending(a) < descending(b)) == (descending(ac) < descending(bc))
            # 1 is minimal
            if a != one:
                assert descending(a) < descending(one)


def test_block_order_eliminates_first_block():
    descending = TermOrder.block(2).descending_key
    # any monomial touching the first block beats any monomial that does not
    assert descending((1, 0, 0, 0)) < descending((0, 0, 5, 7))
    assert descending((0, 1, 0, 0)) < descending((0, 0, 9, 0))


def test_term_orders_reject_block_sizes_they_cannot_take():
    """Only a block order takes a block size, and not a negative one:
    block(-1) would order by the first n - 1 exponents and eliminate
    them, and a grevlex order with a size would compare unequal to
    grevlex and take a packing of its own."""
    for kind, size, message in (("block", -1, "block size must be nonnegative"),
                                ("grevlex", 5, "block size must be 0 for a grevlex order"),
                                ("lex", 1, "block size must be 0 for a lex order"),
                                ("lex", -2, "block size must be 0 for a lex order")):
        with pytest.raises(ValueError, match=message):
            TermOrder(kind, size)
    with pytest.raises(ValueError, match="block size must be nonnegative"):
        TermOrder.block(-1)
    assert TermOrder("grevlex", 0) == TermOrder.grevlex()
    assert TermOrder("block", 0) == TermOrder.block(0)


def test_reduced_basis_contract():
    """Leading coefficients 1 and no term divisible by another leading term."""
    rng = random.Random(20240817)
    ring = VarSet(("x", "y", "z"))
    order = TermOrder.grevlex()
    for _ in range(40):
        gens = tuple(
            random_poly(rng, ring, max_degree=2, max_terms=3, allow_zero=False,
                        nonconstant=True)
            for _ in range(rng.randint(2, 3))
        )
        gb = buchberger(Ideal(ring, gens))
        key = reference_key(order)
        lms = [max(g.terms, key=key) for g in gb.basis]
        for i, g in enumerate(gb.basis):
            assert g.terms[lms[i]] == 1  # monic
            for m in g.terms:
                for j, lm in enumerate(lms):
                    if j != i:
                        assert not all(a <= b for a, b in zip(lm, m)), \
                            "basis is not fully reduced"


def test_ideal_drops_zero_generators():
    src = Ideal(W, (W.zero(), P("w1"), W.zero()))
    assert src.generators == (P("w1"),)
    zero = Ideal(W, (W.zero(), W.zero()))
    assert zero.generators == (W.zero(),)
    with pytest.raises(ValueError):
        Ideal(W, ())


# One reachable branch stays untested: `_coprime_mod`'s strip of b's
# leading zeros.  a = d*p and b = e*p', with d and e the lcms of the
# denominators of p and p', so e divides d, and lc(b) = e*deg(p)*lc(p)
# is prime to every prime that lc(a) = d*lc(p) is prime to, unless the
# prime divides deg p.  Exponents stay below 2**31, so of the two
# primes only 2**31 - 1 can divide deg p, and only at deg p = 2**31 - 1.
@pytest.mark.parametrize("call, expected", [
    (lambda: is_squarefree(XY.const(3)), True),
    (lambda: divide_exact(XY.var("x"), XY.zero()),
     (ZeroPolynomialError, "division by the zero polynomial")),
    (lambda: normal_form(TXY.var("x"), buchberger(Ideal(XY, (XY.var("x"),)))),
     (RingMismatchError, "polynomial ring differs from basis ring")),
    (lambda: Ideal(XY, (TXY.var("x"),)),
     (RingMismatchError, "generator ring differs from ideal ring")),
    (lambda: Ideal(XY, (XY.var("x"),)) + Ideal(TXY, (TXY.var("x"),)),
     (RingMismatchError, "generator ring differs from ideal ring")),
    (lambda: (Ideal(XY, (XY.var("x"),)) + Ideal(VarSet(XY.names), (XY.var("y"),))).ring is XY,
     True),
    (lambda: TermOrder("foo"), (ValueError, "unknown term order 'foo'")),
], ids=["squarefree-constant", "divide-by-zero", "normal-form-across-rings",
        "ideal-generator-across-rings", "ideal-sum-across-rings", "ideal-sum-keeps-left-ring",
        "unknown-order"])
def test_branches_no_other_test_takes(call, expected):
    """Each reachable branch of `groebner` that no other in-process test
    takes, by the value it returns or the error it raises.  A sum of
    ideals is built over its left summand's ring, the very object, so
    later ring checks take `_Record.__eq__`'s identity path."""
    assert outcome(call) == expected
