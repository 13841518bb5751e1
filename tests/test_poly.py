"""Polynomial core: parsing, arithmetic, calculus, hashing, coprimality
as a unit-ideal verdict, and the squarefreeness test with its modular
certificate and its unit-ideal fallback."""

import random
import re
import sys
from fractions import Fraction
from math import prod

import pytest
import sympy as sp

from gaquot import (
    FamilySpec,
    Ideal,
    MissingAssignmentError,
    NotUnivariateError,
    ParseError,
    Polynomial,
    RingMismatchError,
    TermOrder,
    UnknownVariableError,
    UsageError,
    VarSet,
    ZeroPolynomialError,
    buchberger,
    divide_exact,
    is_squarefree,
    is_unit_ideal,
    jacobian,
    kernel_linear,
    lower_triangular_derivation,
    monic,
    normal_form,
    parse,
    run_battery,
)
from gaquot import groebner
from gaquot.linalg import Echelon
from gaquot.poly import _degree_and_leading_text
from helpers import (
    coeff_list,
    euclid_gcd_coeffs,
    from_sympy,
    outcome,
    random_poly,
    reference_parse,
    reference_str,
    signed_roots_factors,
    spolynomials_per_run,
    sympy_symbols,
    to_sympy,
)

W = VarSet(("w1", "w2", "w3", "w4", "w5", "w6"))
S = VarSet(("s",))


def P(text, ring=W):
    return parse(text, ring)


# -- parsing -------------------------------------------------------------------


def test_parse_two_term_invariant():
    p = P("w1*w4 - w2*w3")
    assert p.terms == {
        (1, 0, 0, 1, 0, 0): Fraction(1),
        (0, 1, 1, 0, 0, 0): Fraction(-1),
    }


def test_parse_zero():
    assert P("0").terms == {}
    assert P("0").is_zero()


def test_parse_expansion():
    # oracle: repeated multiplication, (1+s)^2 - 1 = s^2 + 2s
    s = S.var("s")
    expected = (1 + s) * (1 + s) - 1
    assert parse("(1+s)^2 - 1", S) == expected
    assert expected.terms == {(2,): Fraction(1), (1,): Fraction(2)}


def test_parse_rationals_and_signs():
    assert parse("-3/2", S) == S.const(Fraction(-3, 2))
    assert parse("-s + 1", S) == 1 - S.var("s")
    assert parse("2*s^3", S).terms == {(3,): Fraction(2)}


def test_parse_errors():
    with pytest.raises(ParseError):
        parse("2s", S)  # no implicit multiplication
    with pytest.raises(ParseError):
        parse("s +", S)
    with pytest.raises(ParseError):
        parse("(s", S)
    with pytest.raises(ParseError):
        parse("3/0", S)
    with pytest.raises(ParseError):
        parse("s $ 2", S)
    with pytest.raises(UnknownVariableError):
        parse("q + 1", S)


def test_parse_print_round_trip_randomized():
    rng = random.Random(20240801)
    for _ in range(300):
        p = random_poly(rng, W, max_degree=4, max_terms=6)
        assert parse(str(p), W) == p
    # print-parse idempotence on assorted raw texts
    for text in ("s^2 + s - 1", "((s))", "1/2*s - 1/3", "-s^4", "0"):
        once = str(parse(text, S))
        assert str(parse(once, S)) == once


# Characters `str.isspace` accepts, ASCII and not, for texts the parser skips over.
WHITESPACE = (" ", "\t", "\n", "\x0b", "\x1c", "\x85", "\u00a0", "\u1680", "\u2003",
              "\u2028", "\u3000")
XYS = VarSet(("s", "x", "y"))


def random_text(rng, depth=3) -> str:
    """A random well-formed expression over s, x and y: signs, rationals,
    powers and nested parentheses, with whitespace between the tokens."""
    def ws():
        return "".join(rng.choice(WHITESPACE) for _ in range(rng.choice((0, 0, 0, 1, 2))))

    def base(level):
        pick = rng.randrange(6 if level else 4)
        if pick == 0:
            return str(rng.randint(0, 12))
        if pick == 1:
            return f"{rng.randint(0, 12)}{ws()}/{ws()}{rng.randint(1, 9)}"
        if pick in (2, 3):
            return rng.choice(XYS.names)
        return f"({ws()}{expr(level - 1)}{ws()})"

    def factor(level):
        text = base(level)
        return f"{text}{ws()}^{ws()}{rng.randint(0, 3)}" if rng.random() < 0.3 else text

    def term(level):
        return f"{ws()}*{ws()}".join(factor(level) for _ in range(rng.randint(1, 2)))

    def expr(level):
        text = ("-" + ws() if rng.random() < 0.3 else "") + term(level)
        for _ in range(rng.randint(0, 2)):
            text += f"{ws()}{rng.choice('+-')}{ws()}{term(level)}"
        return text

    return ws() + expr(depth) + ws()


def mutate(rng, text: str) -> str:
    """The text with a few characters deleted, inserted or replaced, from
    an alphabet that makes parse errors and unknown names."""
    alphabet = "+-*^/()0123456789sxyz_ .$" + "".join(WHITESPACE)
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        at = rng.randint(0, len(chars))
        move = rng.randrange(3)
        if move == 0 and at < len(chars):
            del chars[at]
        elif move == 1 or at == len(chars):
            chars.insert(at, rng.choice(alphabet))
        else:
            chars[at] = rng.choice(alphabet)
    return "".join(chars)


def parse_outcome(parser, text: str, ring=XYS):
    """What a parser makes of the text: its terms, in order, with each
    coefficient's type, or the error's type, message and position."""
    try:
        p = parser(text, ring)
    except (ParseError, UnknownVariableError) as exc:
        return type(exc), str(exc), getattr(exc, "position", None)
    return [(exps, coeff, type(coeff)) for exps, coeff in p.terms.items()]


def test_parse_matches_the_polynomial_arithmetic_parser():
    """On seeded random texts, well formed and mutated, the term-dict
    parser gives what the parser that added and multiplied Polynomials
    gave: the same terms in the same order, coefficients of the same
    type, and the same error with the same message and position."""
    rng = random.Random(20261019)
    kinds = set()
    for _ in range(1500):
        text = random_text(rng)
        for candidate in (text, mutate(rng, text)):
            outcome = parse_outcome(parse, candidate)
            assert outcome == parse_outcome(reference_parse, candidate), candidate
            kinds.add(outcome[0] if isinstance(outcome, tuple) else "parsed")
    assert kinds == {"parsed", ParseError, UnknownVariableError}
    for text in ("", " ", "\u2003", "s +* s", "2s", "s^", "(s", "s)", "3/0", "s^-1", "1/s",
                 "s $ 2", "s \u00a0+\u2003x", "((s)", "(" * 60 + "-x + 1/2" + ")" * 60 + "^2",
                 "0*s - 0/4", "1/2 + 1/2", "2/4*s", "s - s", "-(-s)", "+s", "--s",
                 "s\x85\x1c*\u3000y", "s \u200b", "\u0663*s", "s^\u0662", "x__1"):
        assert parse_outcome(parse, text) == parse_outcome(reference_parse, text), text


def test_whitespace_is_what_str_isspace_accepts():
    """The tokenizer skips whitespace with the regex class `\\s`, which
    matches exactly the characters `str.isspace` accepts."""
    space = re.compile(r"\s")
    chars = [chr(c) for c in range(sys.maxunicode + 1)]
    assert [c for c in chars if space.match(c)] == [c for c in chars if c.isspace()]


def test_printing_matches_the_fraction_arithmetic_printer():
    """str prints what the printer that took `abs`, `<` and `str` of
    each coefficient printed: random polynomials with integral and
    rational coefficients, parsed random texts and the leading text."""
    rng = random.Random(20261020)
    for trial in range(400):
        ring = W if trial % 2 else XYS
        p = random_poly(rng, ring, max_degree=4, max_terms=6, coeff_bound=12,
                        denominator_bound=1 if trial % 3 else 7)
        assert str(p) == reference_str(p)
        q = parse(random_text(rng, depth=2), XYS)
        assert str(q) == reference_str(q)
        for poly in (p, q):
            assert str(poly).startswith(_degree_and_leading_text(poly)[1])
    for value in (1, -1, 0, Fraction(-1, 3), Fraction(7, 2), 10 ** 30, -Fraction(1, 10 ** 20)):
        for p in (S.const(value), value * S.var("s"), value * S.var("s") ** 2 - S.var("s")):
            assert str(p) == reference_str(p)


def test_one_parse_builds_one_polynomial(monkeypatch):
    """parse works on term dicts: it constructs exactly one Polynomial and
    adds or multiplies none, however many numbers, variables, sums,
    products and powers the text holds."""
    counts = {"init": 0, "add": 0, "mul": 0}

    def counted(name, method):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return method(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(Polynomial, "__init__", counted("init", Polynomial.__init__))
    monkeypatch.setattr(Polynomial, "__add__", counted("add", Polynomial.__add__))
    monkeypatch.setattr(Polynomial, "__mul__", counted("mul", Polynomial.__mul__))
    p = parse("-(1 + s)^3*(x - 1/2)^2 + 2*s*x*y - 3/4 + (y - (s + x)^2)", XYS)
    assert counts == {"init": 1, "add": 0, "mul": 0}
    assert p == reference_parse(str(p), XYS)


# -- ring arithmetic ------------------------------------------------------------


def test_additive_identity():
    p = P("w1*w4 - w2*w3")
    assert p + W.zero() == p


def test_invariant_built_termwise():
    assert W.var("w1") * W.var("w4") - W.var("w2") * W.var("w3") == P("w1*w4 - w2*w3")


def test_pow_binomial():
    # oracle: binomial coefficients by hand
    assert parse("(1+s)^3", S) == parse("1 + 3*s + 3*s^2 + s^3", S)
    assert parse("(1+s)^0", S) == S.one()


def test_ring_mismatch_rejected():
    with pytest.raises(RingMismatchError):
        P("w1") + S.var("s")


def test_ring_axioms_randomized():
    rng = random.Random(20240802)
    ring = VarSet(("x", "y", "z", "t"))
    for _ in range(200):
        p = random_poly(rng, ring, max_degree=4)
        q = random_poly(rng, ring, max_degree=4)
        r = random_poly(rng, ring, max_degree=4)
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p
        assert (p * q) * r == p * (q * r)
        assert p * q == q * p
        assert p * (q + r) == p * q + p * r
        assert p + ring.zero() == p
        assert p * ring.one() == p


# -- substitution ----------------------------------------------------------------


def test_substitute_graph_equation():
    hyper = P("w1 - 1 - (w3*w6 - w4*w5)")
    image = {"w1": P("1 + (w3*w6 - w4*w5)")}
    image.update({n: W.var(n) for n in ("w3", "w4", "w5", "w6")})
    assert hyper.substitute(image).is_zero()


def test_substitute_rename_to_affine_coordinates():
    Z = VarSet(("z1", "z2", "z3", "z4", "z5"))
    images = {f"w{i}": Z.var(f"z{i-1}") for i in range(2, 7)}
    assert P("w3*w6 - w4*w5").substitute(images) == parse("z2*z5 - z3*z4", Z)


def test_substitute_composition_inverse():
    s = S.var("s")
    shifted = s.substitute({"s": s + 1})
    assert shifted.substitute({"s": s - 1}) == s


def test_substitute_is_homomorphism_randomized():
    rng = random.Random(20240803)
    ring = VarSet(("x", "y"))
    target = VarSet(("a", "b"))
    for _ in range(100):
        p = random_poly(rng, ring, max_degree=3)
        q = random_poly(rng, ring, max_degree=3)
        images = {
            "x": random_poly(rng, target, max_degree=2),
            "y": random_poly(rng, target, max_degree=2),
        }
        assert (p + q).substitute(images) == p.substitute(images) + q.substitute(images)
        assert (p * q).substitute(images) == p.substitute(images) * q.substitute(images)


def test_product_and_substitute_match_sympy():
    """p * q and p.substitute(images) against sympy's expand, on rational
    coefficients, with zero, constant and variable images among random ones."""
    rng = random.Random(20261018)
    ring = VarSet(("x", "y", "z"))
    target = VarSet(("a", "b"))
    syms = dict(zip(ring.names, sympy_symbols(ring)))
    fixed = [target.zero(), target.const(Fraction(-3, 2)), target.var("b")]
    for _ in range(60):
        p = random_poly(rng, ring, max_degree=4, max_terms=5, denominator_bound=4)
        q = random_poly(rng, ring, max_degree=3, max_terms=4, denominator_bound=4)
        assert p * q == from_sympy(sp.expand(to_sympy(p) * to_sympy(q)), ring)
        pool = [random_poly(rng, target, max_degree=2, denominator_bound=3) for _ in ring.names]
        images = dict(zip(ring.names, rng.sample(pool + fixed, len(ring.names))))
        expected = sp.expand(to_sympy(p).subs(
            {syms[n]: to_sympy(image) for n, image in images.items()}, simultaneous=True))
        assert p.substitute(images) == from_sympy(expected, target)
    images = {"x": parse("a + b", target), "y": parse("a + b", target)}
    assert parse("x - y", ring).substitute(images) == target.zero()


def test_substitute_missing_assignment():
    with pytest.raises(MissingAssignmentError):
        P("w1 + w2").substitute({"w1": W.var("w1")})


# -- differentiation --------------------------------------------------------------


def test_partial_monomial_rule():
    assert P("w3*w6 - w4*w5").partial("w3") == W.var("w6")


def test_partial_constant():
    assert W.const(7).partial("w1").is_zero()


def test_partial_product_rule_example():
    # oracle: product rule on (1+s)(1+2s), derivative 3 + 4s
    f_plus_1 = parse("(1+s)*(1+2*s)", S)
    assert f_plus_1.partial("s") == parse("3 + 4*s", S)


def test_partial_unknown_variable():
    with pytest.raises(UnknownVariableError):
        P("w1").partial("bogus")


def test_leibniz_randomized():
    rng = random.Random(20240804)
    ring = VarSet(("x", "y", "z"))
    for _ in range(200):
        p = random_poly(rng, ring)
        q = random_poly(rng, ring)
        name = rng.choice(ring.names)
        assert (p * q).partial(name) == p * q.partial(name) + q * p.partial(name)


def test_jacobian_of_quadratic_invariant():
    rows = jacobian([P("w3*w6 - w4*w5")], ["w3", "w4", "w5", "w6"])
    assert rows == [[W.var("w6"), -W.var("w5"), -W.var("w4"), W.var("w3")]]


def test_jacobian_zero_row():
    assert jacobian([W.zero()], ["w1", "w2"]) == [[W.zero(), W.zero()]]


def test_jacobian_identity_block():
    rows = jacobian([W.var("w1"), W.var("w3")], ["w1", "w3"])
    assert rows == [[W.one(), W.zero()], [W.zero(), W.one()]]


# -- squarefreeness ----------------------------------------------------------------


def test_squarefree_above_the_default_degree_cap():
    """The fallback run's degree cap is deg p, not DEFAULT_CAPS: no prime
    certifies these shapes, and the remainders of (p, p') reach degree 69,
    above its 60."""
    for text in ("(s+1)^70", "(s+1)^35*(s-1)^35", "(s+1)^65*(s-1)^3*(s+2)^2"):
        p = parse(text, S)
        assert p.total_degree() == 70
        assert not is_squarefree(p)


# -- coprimality: (p, q) = (1) -------------------------------------------------------


def test_coprime_iff_no_shared_factor():
    """p and q are coprime iff (p, q) is the unit ideal: a shared factor
    or a shared power of s keeps it proper, a unit or distinct roots do not."""
    for p, q, coprime in (("s^2", "s^3", False), ("(1+s)*(1+2*s)", "1+s", False),
                          ("1+s", "1", True), ("(1+s)*(1+2*s)", "1+3*s", True),
                          ("s^2 + 1", "s^2 - 1", True)):
        assert is_unit_ideal(Ideal(S, (parse(p, S), parse(q, S)))) is coprime


def test_coprime_with_zero_iff_a_nonzero_constant():
    """(p, 0) = (p), which is the unit ideal iff p is a nonzero constant."""
    for text, unit in (("2*s^2 + 2*s", False), ("s", False), ("3", True), ("0", False)):
        assert is_unit_ideal(Ideal(S, (parse(text, S), S.zero()))) is unit


def test_coprime_agrees_with_euclid_randomized():
    """The unit-ideal verdict of (p, q) is Euclid's constant gcd, for s
    alone and for s inside a ring whose other variables stay unused; a
    nonconstant common factor always keeps the ideal proper."""
    rng = random.Random(20240805)
    verdicts = []
    for ring in (S, VarSet(("t", "s", "u"))):
        for _ in range(60):
            common, a, b = (random_poly(rng, S, max_degree=2, max_terms=3,
                                        allow_zero=False) for _ in range(3))
            p, q = (r.embed(ring) for r in (a, b))
            euclid = euclid_gcd_coeffs(coeff_list(p, "s"), coeff_list(q, "s"))
            verdicts.append(is_unit_ideal(Ideal(ring, (p, q))))
            assert verdicts[-1] == (len(euclid) == 1)
            if not common.is_constant():
                shared = common.embed(ring)
                assert not is_unit_ideal(Ideal(ring, (shared * p, shared * q)))
    assert 10 < verdicts.count(False) < 110


def test_squarefree_three_distinct_roots():
    assert is_squarefree(parse("(1+s)*(1+2*s)*(1+3*s)", S))


def test_squarefree_rejects_square():
    assert not is_squarefree(parse("(1+s)^2", S))


def test_squarefree_linear():
    assert is_squarefree(parse("1+s", S))


def test_squarefree_errors():
    with pytest.raises(ZeroPolynomialError):
        is_squarefree(S.zero())
    with pytest.raises(NotUnivariateError):
        is_squarefree(P("w1*w2"))


def sympy_monic_gcd(p: Polynomial, q: Polynomial) -> Polynomial:
    return from_sympy(sp.monic(sp.gcd(to_sympy(p), to_sympy(q)), sp.Symbol("s")), S)


def test_squarefree_high_degree_agrees_with_sympy():
    f1 = prod(signed_roots_factors(30, 7), start=S.one())
    assert sympy_monic_gcd(f1, f1.partial("s")) == S.one()
    assert is_squarefree(f1)


def test_squarefree_high_degree_rejects_a_doubled_root():
    """The deg-30 shape with the root of its first factor replaced by
    that of its last, so the last root is doubled."""
    factors = signed_roots_factors(30, 7)
    f1 = prod(factors[1:] + factors[-1:], start=S.one())
    assert sympy_monic_gcd(f1, f1.partial("s")) == monic(factors[-1])
    assert not is_squarefree(f1)


def sympy_squarefree(p: Polynomial) -> bool:
    return all(k == 1 for _, k in sp.sqf_list(to_sympy(p))[1])


def test_squarefree_agrees_with_sympy_on_signed_roots():
    """Every signed-roots product of deg 1..30 is squarefree, and stays so
    under the modular certificate; with one factor doubled it is not, and
    the fallback unit-ideal test says so."""
    rng = random.Random(20261018)
    for degree in range(1, 31):
        factors = signed_roots_factors(degree, degree)
        p = prod(factors, start=S.one())
        doubled = p * rng.choice(factors)
        for q in (p, doubled):
            assert is_squarefree(q) == sympy_squarefree(q)
        assert is_squarefree(p)


def test_squarefree_agrees_with_sympy_on_rational_coefficients():
    """And with Euclid on coefficient lists: p is squarefree iff its gcd
    with p' is constant."""
    rng = random.Random(20261019)
    verdicts = []
    for _ in range(60):
        p = random_poly(rng, S, max_degree=6, max_terms=5, coeff_bound=9,
                        allow_zero=False, nonconstant=True, denominator_bound=12)
        if rng.random() < 0.3:
            p = p * random_poly(rng, S, max_degree=2, max_terms=2, allow_zero=False,
                                nonconstant=True) ** 2
        verdicts.append(is_squarefree(p))
        euclid = euclid_gcd_coeffs(coeff_list(p, "s"), coeff_list(p.partial("s"), "s"))
        assert verdicts[-1] == sympy_squarefree(p) == (len(euclid) == 1)
    assert 5 < verdicts.count(False) < 55


COPRIME_PRIMES = groebner._COPRIME_PRIMES


def dense(p: Polynomial) -> list:
    """Integer coefficients in ascending degree, as the certificate takes them."""
    return [int(c) for c in coeff_list(p, "s")]


@pytest.mark.parametrize("prime", COPRIME_PRIMES)
def test_squarefree_over_q_but_square_mod_a_prime(prime, monkeypatch):
    """(s - 1)*(s - 1 - P) has distinct roots over Q but is (s - 1)^2 mod
    P: that prime cannot certify it, the other one does, with no run."""
    p = parse(f"(s - 1)*(s - 1 - {prime})", S)
    assert not groebner._coprime_mod(dense(p), dense(p.partial("s")), prime)
    verdicts = []
    assert spolynomials_per_run(monkeypatch, lambda: verdicts.append(is_squarefree(p))) == []
    assert verdicts == [True]


def test_squarefree_mod_no_prime_falls_back_to_the_gcd(monkeypatch):
    """A square mod every prime of the tuple, squarefree over Q: the
    fallback unit-ideal test of (p, p') decides."""
    p = parse(f"(s - 1)*(s - 1 - {prod(COPRIME_PRIMES)})", S)
    verdicts = []
    assert spolynomials_per_run(monkeypatch, lambda: verdicts.append(is_squarefree(p))) != []
    assert verdicts == [True] == [sympy_squarefree(p)]


def test_squarefree_skips_a_prime_dividing_the_leading_coefficient():
    """(P*s + 1)^2*(s + 2) is s + 2 mod P, and its derivative is 1, so P
    would wrongly certify it; P divides the leading coefficient, so it is
    skipped, and the next prime sees the square."""
    first, second = COPRIME_PRIMES
    p = parse(f"({first}*s + 1)^2*(s + 2)", S)
    assert [c % first for c in dense(p)] == [2, 1, 0, 0]
    assert [c % first for c in dense(p.partial("s"))] == [1, 0, 0]
    assert not groebner._coprime_mod(dense(p), dense(p.partial("s")), second)
    assert not is_squarefree(p)
    assert is_squarefree(parse(f"{first}*s^2 - {first}", S))


def test_repeated_root_is_rejected_through_the_fallback(monkeypatch):
    """Also for s inside a ring whose other variables stay unused."""
    for ring in (S, VarSet(("t", "s", "u"))):
        p = parse("(1+s)^2*(1+2*s)", ring)
        verdicts = []
        assert spolynomials_per_run(monkeypatch, lambda: verdicts.append(is_squarefree(p))) != []
        assert verdicts == [False]


def test_squarefree_at_degree_30_makes_no_run(monkeypatch):
    p = prod(signed_roots_factors(30, 7), start=S.one())
    verdicts = []
    assert spolynomials_per_run(monkeypatch, lambda: verdicts.append(is_squarefree(p))) == []
    assert verdicts == [True]


def test_square_never_squarefree_randomized():
    rng = random.Random(20240806)
    for _ in range(60):
        p = random_poly(rng, S, max_degree=3, max_terms=3, allow_zero=False)
        if p.is_constant():
            continue
        assert not is_squarefree(p * p)
    product = parse("(s+1)*(s+2)*(s-3)*(s - 1/2)", S)
    assert is_squarefree(product)


# -- canonical coefficients --------------------------------------------------------


def assert_canonical(terms):
    """Every coefficient is an int (not a bool) when integral, else a
    Fraction with denominator above 1."""
    for c in terms.values():
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1), repr(c)


def test_coefficients_stay_canonical_through_every_layer():
    rng = random.Random(20261018)
    xyz = VarSet(("x", "y", "z"))
    x, y, z = (xyz.var(n) for n in xyz.names)
    images = {"x": y + Fraction(1, 2), "y": 3 * z, "z": x * y - 1}
    outputs = []
    for trial in range(40):
        bound = 1 if trial % 2 else 4  # integer inputs, then rational ones
        p = random_poly(rng, xyz, max_degree=2, max_terms=3, denominator_bound=bound)
        q = random_poly(rng, xyz, max_degree=2, max_terms=3, denominator_bound=bound,
                        allow_zero=False)
        outputs += [p, p * q, p + q, p - q, -p, p ** 2, p.partial("x"), p.substitute(images),
                    monic(q)]
        quotient = divide_exact(p * q, q)
        assert quotient == p
        outputs.append(quotient)
        for order in (TermOrder.grevlex(), TermOrder.lex()):
            gb = buchberger(Ideal(xyz, (p, q)), order)
            outputs += list(gb.basis)
            outputs.append(normal_form(p * p + x, gb))
    echelon = Echelon()
    for _ in range(30):
        vector = random_poly(rng, xyz, max_degree=2, max_terms=4, denominator_bound=3)
        echelon.insert(dict(vector.terms), dict(random_poly(rng, xyz, denominator_bound=3).terms))
    for row in list(echelon.rows.values()) + list(echelon.carried.values()):
        assert_canonical(row)
    outputs += kernel_linear(lower_triangular_derivation(3), 3)
    generators, relations = run_battery(
        FamilySpec("v3", parse("1/3*s + 1/7*s^2", S), 1)).presentation
    outputs += list(generators) + list(relations.generators)
    assert any(type(c) is Fraction for p in outputs for c in p.terms.values())
    for p in outputs:
        assert_canonical(p.terms)


def test_int_and_fraction_build_the_same_polynomial():
    ring = VarSet(("x", "y"))
    for value in (2, -7, 0, 1, True):
        a = Polynomial(ring, {(1, 0): value, (0, 0): 3})
        b = Polynomial(ring, {(1, 0): Fraction(value), (0, 0): Fraction(6, 2)})
        assert a == b and hash(a) == hash(b) and str(a) == str(b)
        assert_canonical(a.terms)
        assert_canonical(b.terms)
    half = Polynomial(ring, {(0, 1): Fraction(2, 4)})
    assert half.terms == {(0, 1): Fraction(1, 2)}
    assert ring.const(Fraction(4, 2)) == 2 and type(ring.const(Fraction(4, 2)).terms[(0, 0)]) is int
    assert type(P("w1 + 4/2").constant_term()) is int


def test_a_constant_hashes_as_the_number_it_equals():
    """Objects that compare equal hash equal: a constant polynomial equals
    its coefficient, and the zero polynomial equals 0, so each hashes as
    that number and meets it in a set.  A nonconstant polynomial keeps
    the hash of its ring and support, which takes no Fraction hash."""
    ring = VarSet(("x", "y"))
    for value in (0, 1, -3, Fraction(1, 2), Fraction(-7, 3), True):
        c = ring.const(value)
        assert c == value and hash(c) == hash(value)
        assert len({c, value}) == 1 and value in {c} and c in {value}
    assert hash(ring.zero()) == hash(0) and ring.zero() in {0}
    assert hash(ring.one()) == hash(VarSet(("s",)).one()) and ring.one() != VarSet(("s",)).one()
    p = Polynomial(ring, {(1, 0): Fraction(1, 3), (0, 0): 2})
    assert hash(p) == hash((ring.names, frozenset({(1, 0), (0, 0)})))


def test_every_coefficient_branch_of_the_constructor():
    """Each kind of coefficient the constructor meets: an int is kept as
    it is, 0 dropped; a Fraction with denominator above 1 is kept as it
    is, one with denominator 1 becomes its int numerator, 0 included, and
    is dropped at 0; True and any other numbers.Rational (here sympy's)
    become the int or Fraction of their value; a float raises TypeError.
    The arity of every exponent tuple is checked before its coefficient,
    so a wrong arity raises ValueError even where the coefficient is 0."""
    ring = VarSet(("s",))
    cases = [(0, None), (5, 5), (Fraction(4, 2), 2), (Fraction(0), None),
             (Fraction(1, 3), Fraction(1, 3)), (True, 1), (sp.Rational(-2, 6), Fraction(-1, 3)),
             (sp.Integer(7), 7)]
    for value, stored in cases:
        terms = Polynomial(ring, {(1,): value}).terms
        assert terms == ({} if stored is None else {(1,): stored}), repr(value)
        assert_canonical(terms)
        if stored is not None:
            assert type(terms[(1,)]) is type(stored), repr(value)
    third = Fraction(1, 3)
    assert Polynomial(ring, {(1,): third}).terms[(1,)] is third
    with pytest.raises(TypeError):
        Polynomial(ring, {(1,): 0.5})
    for value in (0, 1, Fraction(0), Fraction(1, 3)):
        with pytest.raises(ValueError):
            Polynomial(ring, {(1, 2, 3): value})


def test_non_rational_coefficients_are_rejected():
    ring = VarSet(("x",))
    for value in (0.1, 1.0, complex(1, 0), "1"):
        with pytest.raises(TypeError):
            Polynomial(ring, {(1,): value})
    with pytest.raises(TypeError):
        ring.const(0.5)


def test_constant_term_defaults_to_int_zero():
    c = P("w1*w2").constant_term()
    assert c == 0 and type(c) is int


@pytest.mark.parametrize("call, expected", [
    (lambda: VarSet(("s", "s")), (UsageError, "duplicate variable names in ('s', 's')")),
    (lambda: VarSet(("2s",)), (UsageError, "invalid variable name '2s'")),
    (lambda: S.var("s") ** -1, (ValueError, "exponent must be a natural number")),
    (lambda: P("w1 + w2").substitute({"w1": S.var("s"), "w2": XYS.var("s")}),
     (RingMismatchError, "substitution images live over different rings")),
    (lambda: S.const(3).substitute({}), S.const(3)),
    (lambda: P("w1 + w2").embed(VarSet(("w1",))),
     (UnknownVariableError, "target ring lacks variables ['w2']")),
    (lambda: monic(S.zero()),
     (ZeroPolynomialError, "the zero polynomial has no leading coefficient")),
    (lambda: jacobian([], ("s",)), []),
    (lambda: jacobian([S.var("s"), XYS.var("s")], ("s",)),
     (RingMismatchError, "jacobian rows live over different rings")),
    (lambda: S.var("s") + "s",
     (TypeError, "unsupported operand type(s) for +: 'Polynomial' and 'str'")),
    (lambda: S.var("s") - "s",
     (TypeError, "unsupported operand type(s) for -: 'Polynomial' and 'str'")),
    (lambda: S.var("s") * "s",
     (TypeError, "can't multiply sequence by non-int of type 'Polynomial'")),
    (lambda: S.var("s") == "s", False),
], ids=["duplicate-names", "invalid-name", "negative-power", "images-across-rings",
        "constant-empty-assignment", "embed-lacking-variable", "monic-zero", "empty-jacobian",
        "jacobian-across-rings", "add-text", "subtract-text", "multiply-text", "equal-text"])
def test_branches_no_other_test_takes(call, expected):
    """Each reachable branch of `poly` that no other in-process test
    takes, by the value it returns or the error it raises."""
    assert outcome(call) == expected
