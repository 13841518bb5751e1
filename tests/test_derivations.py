"""Derivations: construction, flows, invariance, fixed points, kernels."""

import hashlib
import math
import random
import sys
from fractions import Fraction
from itertools import combinations

import pytest

from gaquot import (
    Derivation,
    NotLocallyNilpotentError,
    Polynomial,
    ResourceCapError,
    ResourceCaps,
    RingMismatchError,
    VarSet,
    exp_action,
    fixed_point_ideal,
    kernel_linear,
    kernel_saturation,
    lower_triangular_derivation,
    make_slice,
    monic,
    parse,
    subalgebra_membership,
)
from gaquot import derivations, groebner
from helpers import (
    assert_same_subalgebra,
    brute_graded_subalgebra_membership,
    groebner_minimal_generators,
    random_exponents,
    random_poly,
    spolynomials_per_run,
    sympy_kernel_solutions,
)

D3 = lower_triangular_derivation(3)
W = D3.ring


def P(text, ring=W):
    return parse(text, ring)


def random_triangular_derivation(rng, ring):
    """D(x_i) depends only on x_1..x_{i-1}: always locally nilpotent."""
    images = {}
    for i, name in enumerate(ring.names):
        if i == 0 or rng.random() < 0.3:
            continue
        sub = VarSet(ring.names[:i])
        images[name] = random_poly(rng, sub, max_degree=2, max_terms=2).embed(ring)
    return Derivation(ring, images)


# -- construction ---------------------------------------------------------------


def test_lower_triangular_three_blocks():
    assert D3.ring.names == ("w1", "w2", "w3", "w4", "w5", "w6")
    assert D3.images["w2"] == W.var("w1")
    assert D3.images["w4"] == W.var("w3")
    assert D3.images["w6"] == W.var("w5")
    for odd in ("w1", "w3", "w5"):
        assert D3.images[odd].is_zero()


def test_lower_triangular_one_block_two_trivial():
    d = lower_triangular_derivation(1, 2)
    assert d.ring.names == ("w1", "w2", "e1", "e2")
    nonzero = [n for n in d.ring.names if not d.images[n].is_zero()]
    assert nonzero == ["w2"]


def test_lower_triangular_four_blocks():
    d = lower_triangular_derivation(4)
    assert d.images["w8"] == d.ring.var("w7")


# -- application ------------------------------------------------------------------


def test_apply_kills_quadratic_invariant():
    # Leibniz gives w3*w5 - w3*w5 = 0
    assert D3.apply(P("w3*w6 - w4*w5")).is_zero()


def test_apply_on_variable():
    assert D3.apply(W.var("w2")) == W.var("w1")


def test_apply_on_constant():
    assert D3.apply(W.const(9)).is_zero()


def test_apply_leibniz_randomized():
    rng = random.Random(20240820)
    ring = VarSet(("x", "y", "z"))
    for _ in range(150):
        images = {
            name: random_poly(rng, ring, max_degree=2, max_terms=2)
            for name in ring.names
        }
        d = Derivation(ring, images)
        f = random_poly(rng, ring)
        g = random_poly(rng, ring)
        assert d.apply(f * g) == f * d.apply(g) + g * d.apply(f)


def reference_apply(d, f):
    """D(f) by the Leibniz loop in Polynomial arithmetic: the sum of
    images[x] * df/dx over the variables x of f."""
    result = d.ring.zero()
    for name in f.variables():
        result = result + d.images[name] * f.partial(name)
    return result


def test_apply_matches_the_polynomial_reference():
    """Derivation.apply and the term dicts kernel_linear feeds its
    echelon, against the Polynomial loop: nonlinear images, Fraction
    coefficients, and images that are zero or left out."""
    rng = random.Random(20261018)
    ring = VarSet(("x", "y", "z", "u"))
    for _ in range(200):
        images = {}
        for name in ring.names:
            roll = rng.random()
            if roll < 0.2:
                continue
            images[name] = (ring.zero() if roll < 0.35 else
                            random_poly(rng, ring, max_degree=3, max_terms=4,
                                        denominator_bound=4))
        d = Derivation(ring, images)
        f = random_poly(rng, ring, max_degree=4, max_terms=5, denominator_bound=6)
        expected = reference_apply(d, f)
        got = d.apply(f)
        assert got == expected
        assert str(got) == str(expected)
        terms = d._apply_terms(f.terms)
        assert terms == dict(expected.terms)
        assert all(terms.values())
    # terms that cancel leave no zero coefficient behind
    assert D3._apply_terms(P("w3*w6 - w4*w5 + w1").terms) == {}
    with pytest.raises(RingMismatchError):
        d.apply(parse("x", VarSet(("x", "y", "z"))))
    with pytest.raises(RingMismatchError):
        d.apply(parse("x", VarSet(("u", "z", "y", "x"))))


# -- exponential action -----------------------------------------------------------


def test_exp_on_even_coordinate():
    out = exp_action(D3, W.var("w2"))
    ext = out.ring
    assert out == ext.var("w2") + ext.var("t") * ext.var("w1")


def test_exp_fixes_kernel_variable():
    out = exp_action(D3, W.var("w1"))
    assert out == W.var("w1").embed(out.ring)


def test_exp_is_multiplicative_on_square():
    out = exp_action(D3, P("w2^2"))
    ext = out.ring
    w1, w2, t = ext.var("w1"), ext.var("w2"), ext.var("t")
    assert out == w2 ** 2 + 2 * t * w1 * w2 + t ** 2 * w1 ** 2


def test_exp_homomorphism_randomized():
    rng = random.Random(20240821)
    ring = VarSet(("x", "y", "z"))
    for _ in range(100):
        d = random_triangular_derivation(rng, ring)
        f = random_poly(rng, ring, max_degree=2)
        g = random_poly(rng, ring, max_degree=2)
        assert exp_action(d, f * g) == exp_action(d, f) * exp_action(d, g)


def test_exp_group_law_on_generators():
    rng = random.Random(20240822)
    ring = VarSet(("x", "y", "z"))
    for _ in range(40):
        d = random_triangular_derivation(rng, ring)
        for name in ring.names:
            once = exp_action(d, ring.var(name), "t")
            extended = Derivation(
                once.ring,
                {k: v.embed(once.ring) for k, v in d.images.items()},
            )
            twice = exp_action(extended, once, "t2")
            big = twice.ring
            combined = exp_action(d, ring.var(name), "t").embed(big)
            shift = {n: big.var(n) for n in combined.variables()}
            shift["t"] = big.var("t") + big.var("t2")
            assert twice == combined.substitute(shift)


# -- invariance --------------------------------------------------------------------


def test_hypersurface_equation_invariant():
    assert D3.apply(P("w1 - 1 - (w3*w6 - w4*w5)")).is_zero()


def test_even_coordinate_not_invariant():
    assert not D3.apply(W.var("w2")).is_zero()


def test_odd_coordinate_polynomials_invariant_randomized():
    rng = random.Random(20240823)
    odd = VarSet(("w1", "w3", "w5"))
    for _ in range(50):
        p = random_poly(rng, odd, max_degree=3).embed(W)
        assert D3.apply(p).is_zero()


def test_invariance_matches_fixed_flow():
    rng = random.Random(20240824)
    kernel6 = kernel_linear(D3, 2)
    for _ in range(25):
        invariant = W.one()
        for _ in range(2):
            invariant = invariant * rng.choice(kernel6)
        assert D3.apply(invariant).is_zero()
        assert exp_action(D3, invariant) == invariant.embed(
            exp_action(D3, invariant).ring
        )
        noninvariant = invariant + W.var("w2")
        assert not D3.apply(noninvariant).is_zero()
        assert exp_action(D3, noninvariant) != noninvariant.embed(
            exp_action(D3, noninvariant).ring
        )


# -- fixed points ------------------------------------------------------------------


def test_fixed_point_ideal_matches_nonstable_locus():
    gens = fixed_point_ideal(D3).generators
    assert sorted(map(str, gens)) == ["w1", "w3", "w5"]


def test_fixed_point_ideal_of_zero_derivation():
    assert fixed_point_ideal(Derivation(W, {})).generators == (W.zero(),)


def test_fixed_point_ideal_four_blocks():
    d = lower_triangular_derivation(4)
    assert sorted(map(str, fixed_point_ideal(d).generators)) == [
        "w1", "w3", "w5", "w7",
    ]


# -- kernels -----------------------------------------------------------------------


EXPECTED_KERNEL = [
    "w1", "w3", "w5",
    "w1*w4 - w2*w3", "w1*w6 - w2*w5", "w3*w6 - w4*w5",
]


def test_kernel_linear_three_blocks():
    gens = kernel_linear(D3, 2)
    expected = [P(t) for t in EXPECTED_KERNEL]
    assert len(gens) == 6
    assert_same_subalgebra(gens, expected)
    for g in gens:
        assert D3.apply(g).is_zero()


def test_kernel_linear_zero_derivation():
    zero = Derivation(W, {})
    gens = kernel_linear(zero, 1)
    assert sorted(map(str, gens)) == sorted(W.names)


def test_kernel_linear_single_block():
    gens = kernel_linear(lower_triangular_derivation(1), 2)
    assert [str(g) for g in gens] == ["w1"]


# sha256 of the generators of kernel_linear, one per line, as recorded
# before images entered the echelon as term dicts; the kernel counterpart
# of test_cli.test_verify_report_is_pinned.
KERNEL_LINEAR_DIGESTS = {
    (2, 0): "f467861e20e186a774fccbab69e6f2e47142a5a3e9f0c5905994e458caf942e0",
    (2, 2): "3a417caf54ca4cf485c85b1cf84d775c8835d33e8a97003085d2bc7fecc6e735",
    (3, 0): "87dc61de34e91e73775e31447e6a67b7bc17dfcf653e863ea7acd712fc565392",
    (3, 2): "f3056b092bc1b3ee13a93937bd5e37da1bfe2f2fd4876bf32e1861a847e3e141",
    (4, 0): "47736c2c59b044f3438ade6c5b87309d6a5fa77fcea35acadca1852b5a22eb22",
    (4, 2): "8267292281f346f2a7192353fce94eb660935823a790f1ed0049763e36a60a79",
    (5, 0): "d3a5ae7d115b7b71fc9f85a76f6cd1d7c3863b42b91e324676bb7926eccab884",
    (5, 2): "10102450484e7cdef04894996343dda6012287add147aed0662bf2cea121dba8",
}


def kernel_digest(gens) -> str:
    return hashlib.sha256("\n".join(map(str, gens)).encode()).hexdigest()


@pytest.mark.parametrize("degree", [2, 3])
@pytest.mark.parametrize("n, trivial", sorted(KERNEL_LINEAR_DIGESTS))
def test_kernel_linear_output_is_pinned(n, trivial, degree):
    """V2-V5 with 0 and 2 trivial summands: the Weitzenboeck kernel is
    generated in degree 2, so degrees 2 and 3 list the same generators."""
    gens = kernel_linear(lower_triangular_derivation(n, trivial), degree)
    assert kernel_digest(gens) == KERNEL_LINEAR_DIGESTS[n, trivial]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_kernel_saturation_output_is_pinned(n):
    """Slice w2 on V3-V5: the same lists as kernel_linear."""
    d = lower_triangular_derivation(n)
    gens = kernel_saturation(d, make_slice(d, "w2"), 8)
    assert kernel_digest(gens) == KERNEL_LINEAR_DIGESTS[n, 0]


def kernel_ladder():
    """(id, derivation, max_degree): V1-V4 with 0 or 2 trivial summands at
    degrees 1-3, V5, V3 with 10 trivial summands, an inhomogeneous and a
    nonlinear derivation."""
    for n in range(1, 5):
        for trivial in (0, 2):
            for degree in (1, 2, 3):
                yield f"V{n}+{trivial}-d{degree}", lower_triangular_derivation(n, trivial), degree
    yield "V5-d2", lower_triangular_derivation(5), 2
    yield "V3+10-d2", lower_triangular_derivation(3, 10), 2
    xyz = VarSet(("x", "y", "z"))
    # solutions such as x*z - y are inhomogeneous: the Groebner filter path
    yield "inhomogeneous-d3", Derivation(xyz, {"y": xyz.var("x"), "z": xyz.one()}), 3
    xyzu = VarSet(("x", "y", "z", "u"))
    nonlinear = {"y": parse("x^2", xyzu), "z": xyzu.var("y"), "u": parse("x*y - 1", xyzu)}
    yield "nonlinear-d3", Derivation(xyzu, nonlinear), 3


@pytest.mark.parametrize("derivation, max_degree",
                         [case[1:] for case in kernel_ladder()],
                         ids=[case[0] for case in kernel_ladder()])
def test_kernel_linear_matches_sympy_nullspace(derivation, max_degree):
    solutions = sympy_kernel_solutions(derivation, max_degree)
    expected = derivations._span(derivation.ring, solutions, derivations.DEFAULT_CAPS).kept
    gens = kernel_linear(derivation, max_degree)
    assert [str(g) for g in gens] == [str(g) for g in expected]
    assert gens == expected


def test_kernel_linear_caps_dimension_before_listing_monomials(monkeypatch):
    def unreachable(ring, max_degree):
        raise AssertionError("monomials listed before the dimension check")

    monkeypatch.setattr(derivations, "_monomials_up_to", unreachable)
    wide = lower_triangular_derivation(10, 10)  # 30 variables
    with pytest.raises(ResourceCapError, match=f"dimension {math.comb(40, 10)} exceeds"):
        kernel_linear(wide, 10)


def test_kernel_linear_dimension_cap_counts_every_monomial(monkeypatch):
    dimension = len(derivations._monomials_up_to(W, 3))  # C(9, 3) = 84
    monkeypatch.setattr(derivations, "KERNEL_DIMENSION_CAP", dimension)
    assert len(kernel_linear(D3, 3)) == 6
    monkeypatch.setattr(derivations, "KERNEL_DIMENSION_CAP", dimension - 1)
    with pytest.raises(ResourceCapError, match=f"dimension {dimension} exceeds {dimension - 1}"):
        kernel_linear(D3, 3)


def derivation_with_free_variables(rng):
    """A derivation on 2-7 variables in seeded order: a triangular core
    with nonlinear, often inhomogeneous images; 1-3 free variables (zero
    image, in no image); and, in most cases, a silent variable, whose
    image is zero but which occurs in a core image, so it is not free."""
    core = [f"x{i}" for i in range(rng.randint(1, 3))]
    free = [f"e{i}" for i in range(rng.randint(1, 3))]
    silent = ["s"] if rng.random() < 0.7 else []
    names = core + free + silent
    rng.shuffle(names)
    ring = VarSet(tuple(names))
    images = {}
    for i, name in enumerate(core):
        lower = silent + core[:i]
        if not lower:
            continue
        sub = VarSet(tuple(lower))
        image = random_poly(rng, sub, max_degree=2, max_terms=3)
        if silent and i == len(core) - 1:
            image = image + sub.var("s") * rng.choice((1, -2, Fraction(1, 3)))
        images[name] = image.embed(ring)
    return Derivation(ring, images)


def test_kernel_linear_with_free_variables_matches_sympy_nullspace():
    """On 150 seeded derivations with free and silent variables,
    kernel_linear gives exactly the generators that one `_span` keeps of
    sympy's dense nullspace over the whole ring."""
    rng = random.Random(2107)
    free = silent = inhomogeneous = 0
    for _ in range(150):
        d = derivation_with_free_variables(rng)
        degree = rng.randint(1, 3)
        while math.comb(len(d.ring) + degree, degree) > 120:
            degree -= 1
        solutions = sympy_kernel_solutions(d, degree)
        expected = derivations._span(d.ring, solutions, derivations.DEFAULT_CAPS).kept
        gens = kernel_linear(d, degree)
        assert [str(g) for g in gens] == [str(g) for g in expected]
        assert gens == expected
        in_images = {n for image in d.images.values() for n in image.variables()}
        free += any(d.images[n].is_zero() and n not in in_images for n in d.ring.names)
        silent += "s" in in_images and d.images["s"].is_zero()
        inhomogeneous += any(len({sum(m) for m in g.terms}) > 1 for g in gens)
    assert free == 150 and silent > 60 and inhomogeneous > 20


def test_kernel_linear_with_forty_trivial_summands_is_pinned():
    """The three odd block coordinates and minors of V3, with e1..e40
    adjoined, in (degree, text) order."""
    gens = kernel_linear(lower_triangular_derivation(3, 40), 2)
    degree_one = sorted([f"e{i}" for i in range(1, 41)] + ["w1", "w3", "w5"])
    assert [str(g) for g in gens] == degree_one + [
        "w2*w3 - w1*w4", "w2*w5 - w1*w6", "w4*w5 - w3*w6"]


def test_kernel_monotone_in_degree():
    low = kernel_linear(D3, 1)
    high = kernel_linear(D3, 2)
    for g in low:
        member, _ = subalgebra_membership(g, high)
        assert member


def test_kernel_saturation_cross_check():
    data = make_slice(D3, "w2")
    assert derivations._check_slice(D3, data) == W.var("w1")  # the slice image D(w2)
    gens = kernel_saturation(D3, data, 5)
    for g in gens:
        assert D3.apply(g).is_zero()
    assert_same_subalgebra(gens, [P(t) for t in EXPECTED_KERNEL])


def linear_ladder_with_slice():
    """The kernel-ladder inputs whose derivation is linear (so both kernels
    are homogeneous) and has a slice."""
    return [case for case in kernel_ladder()
            if all(sum(m) == 1 for image in case[1].images.values() for m in image.terms)
            and derivations.find_slice(case[1]) is not None]


@pytest.mark.parametrize("derivation, max_degree",
                         [case[1:] for case in linear_ladder_with_slice()],
                         ids=[case[0] for case in linear_ladder_with_slice()])
def test_kernel_methods_generate_the_same_subalgebra(derivation, max_degree):
    """kernel_saturation against kernel_linear, run to the ladder degree or
    to the top degree of the saturation output if that is higher: the
    graded spans of the two outputs have equal rank in every degree up to
    that top degree, and each output lies in the other's subalgebra.  The
    lists may differ, since the greedy filter depends on the candidates."""
    saturated = kernel_saturation(derivation, derivations.find_slice(derivation), 8)
    top = max(g.total_degree() for g in saturated)
    linear = kernel_linear(derivation, max(max_degree, top))
    spans = [derivations._GradedSpan(derivation.ring, gens) for gens in (linear, saturated)]
    for span, gens in zip(spans, (linear, saturated)):
        assert span.kept == gens  # both are minimal
    ranks = [[len(span._piece(d)[0].rows) for d in range(top + 1)] for span in spans]
    assert ranks[0] == ranks[1]
    assert all(spans[1].contains(g) for g in linear)
    assert all(spans[0].contains(g) for g in saturated)


def test_kernel_saturation_single_block():
    d = lower_triangular_derivation(1)
    gens = kernel_saturation(d, make_slice(d, "w2"), 3)
    assert [str(g) for g in gens] == ["w1"]


def test_kernel_saturation_zero_rounds_returns_seeds():
    data = make_slice(D3, "w2")
    seeds = kernel_saturation(D3, data, 0)
    # projections of the variables only; the third determinant needs a round
    assert sorted(map(str, seeds)) == [
        "w1", "w2*w3 - w1*w4", "w2*w5 - w1*w6", "w3", "w5",
    ]
    for g in seeds:
        assert D3.apply(g).is_zero()


def test_find_slice_takes_first_slice_variable():
    assert derivations.find_slice(D3) == make_slice(D3, "w2") == "w2"
    ring = VarSet(("z", "y", "x"))
    chain = Derivation(ring, {"z": ring.var("y"), "y": ring.var("x")})
    assert derivations.find_slice(chain) == make_slice(chain, "y")  # D(D(z)) = x
    assert derivations.find_slice(Derivation(ring, {})) is None
    euler = Derivation(ring, {"x": ring.var("x")})
    assert derivations.find_slice(euler) is None


def test_slice_validation():
    """A slice is checked against the derivation it is used with, whether
    `make_slice` returned it or not."""
    with pytest.raises(ValueError):
        make_slice(D3, "w1")  # D(w1) = 0, not a slice
    with pytest.raises(ValueError):
        kernel_saturation(D3, "w1", 1)


def test_kernel_elements_all_annihilated_randomized():
    rng = random.Random(20240825)
    ring = VarSet(("x", "y", "z"))
    for _ in range(20):
        d = random_triangular_derivation(rng, ring)
        for g in kernel_linear(d, 2):
            assert d.apply(g).is_zero()


def test_exp_action_rejects_non_nilpotent():
    from gaquot import NotLocallyNilpotentError

    ring = VarSet(("x",))
    euler = Derivation(ring, {"x": ring.var("x")})
    with pytest.raises(NotLocallyNilpotentError):
        exp_action(euler, ring.var("x"))


def test_kernel_saturation_round_cap():
    from gaquot import RoundCapError

    data = make_slice(D3, "w2")
    # one round adds the missing determinant, but stabilization is only
    # certified by a quiet round, so a budget of one must be reported
    with pytest.raises(RoundCapError):
        kernel_saturation(D3, data, 1)
    assert len(kernel_saturation(D3, data, 2)) == 6


# -- graded subalgebra membership -----------------------------------------------


def weitzenboeck_kernel(n):
    """Generators of the invariants of n copies of the two-dimensional
    block (Weitzenboeck; Freudenburg, Algebraic Theory of Locally Nilpotent
    Derivations): the odd coordinates and the 2x2 minors, monic, in
    (degree, text) order."""
    ring = lower_triangular_derivation(n).ring
    gens = [ring.var(f"w{2 * i - 1}") for i in range(1, n + 1)]
    for i, j in combinations(range(1, n + 1), 2):
        gens.append(monic(parse(f"w{2*i-1}*w{2*j} - w{2*i}*w{2*j-1}", ring)))
    return sorted(gens, key=lambda p: (p.total_degree(), str(p)))


@pytest.mark.parametrize("n", range(2, 7))
def test_kernel_linear_is_weitzenboeck(n):
    gens = kernel_linear(lower_triangular_derivation(n), 2)
    expected = weitzenboeck_kernel(n)
    assert [str(g) for g in gens] == [str(g) for g in expected]
    assert gens == expected


@pytest.mark.parametrize("n", range(2, 8))
def test_kernel_saturation_generates_weitzenboeck(n):
    """Slice w2 on V2-V7: invariant generators of the Weitzenboeck
    subalgebra, by the brute graded oracle up to V6 (it needs seconds at
    V7) and by Groebner subalgebra membership up to V5; on V6 and V7 the
    very list of test_kernel_linear_is_weitzenboeck."""
    d = lower_triangular_derivation(n)
    gens = kernel_saturation(d, make_slice(d, "w2"), 8)
    expected = weitzenboeck_kernel(n)
    for g in gens:
        assert d.apply(g).is_zero()
    if n <= 6:
        for a, b in ((gens, expected), (expected, gens)):
            for g in a:
                assert brute_graded_subalgebra_membership(g, b), str(g)
    if n <= 5:
        assert_same_subalgebra(gens, expected)
    if n >= 6:
        assert [str(g) for g in gens] == [str(g) for g in expected]
        assert gens == expected


CHAIN_RING = VarSet(("z", "y", "x"))
CHAIN = Derivation(CHAIN_RING, {"z": CHAIN_RING.var("y"), "y": CHAIN_RING.var("x")})


def test_kernel_saturation_drops_generated_seeds():
    # the seed y^2*x - 2*z*x^2 is x times the seed y^2 - 2*z*x
    gens = kernel_saturation(CHAIN, make_slice(CHAIN, "y"), 8)
    assert [str(g) for g in gens] == ["x", "y^2 - 2*z*x"]


@pytest.mark.parametrize("name", ["V2", "V3", "V4", "V5", "chain"])
def test_kernel_methods_return_minimal_generators(name):
    """No generator either method returns lies in the subalgebra of the
    others (sympy rank test)."""
    if name == "chain":
        d, data = CHAIN, make_slice(CHAIN, "y")
    else:
        d = lower_triangular_derivation(int(name[1:]))
        data = make_slice(d, "w2")
    for gens in (kernel_linear(d, 2), kernel_saturation(d, data, 8)):
        for i, g in enumerate(gens):
            assert not brute_graded_subalgebra_membership(g, gens[:i] + gens[i + 1:]), str(g)


def random_form(rng, ring, degree):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        exps = ()
        while sum(exps) != degree:
            exps = random_exponents(rng, len(ring), degree)
        terms[exps] = rng.choice((-3, -2, -1, 1, 2, 3))
    return Polynomial(ring, terms)


def homogeneous_candidates(rng, ring, size=8, top=3):
    """Forms of degree <= top, each fresh or built from earlier ones: a
    product, a scalar multiple, or a product plus a multiple of a form
    of the same degree."""
    cands = [random_form(rng, ring, rng.randint(1, 2)) for _ in range(3)]
    while len(cands) < size:
        kind = rng.choice(("product", "scalar", "sum", "fresh"))
        p, q = rng.choice(cands), rng.choice(cands)
        degree = p.total_degree() + q.total_degree()
        if kind == "product" and degree <= top:
            cands.append(p * q)
        elif kind == "scalar":
            cands.append(p * Fraction(rng.choice((-2, 3)), 5))
        elif kind == "sum" and degree <= top:
            same = [c for c in cands if c.total_degree() == degree]
            extra = rng.choice(same) if same else random_form(rng, ring, degree)
            cands.append(p * q + extra * rng.choice((-1, 2)))
        elif kind == "fresh":
            cands.append(random_form(rng, ring, rng.randint(1, top)))
    return cands


def count_groebner_calls(monkeypatch):
    """Records the Groebner subalgebra work of derivations as (name of
    the function that asked for it, what it is): the candidate list of
    each Groebner span built (groebner._GraphSpan, built by _span), or
    the polynomial of each membership test made on one.  The tests a
    span makes of its own candidates are left out."""
    calls = []

    class Recorded(groebner._GraphSpan):
        def __init__(self, ring, candidates, caps):
            calls.append((sys._getframe(2).f_code.co_name, list(candidates)))
            super().__init__(ring, candidates, caps)

        def contains(self, f):
            caller = sys._getframe(1).f_code.co_name
            if caller != "__init__":
                calls.append((caller, f))
            return super().contains(f)

    monkeypatch.setattr(derivations, "_GraphSpan", Recorded)
    return calls


def test_graded_filter_matches_groebner_filter(monkeypatch):
    rng = random.Random(4417)
    ring = VarSet(("x", "y", "z"))
    lists = [homogeneous_candidates(rng, ring) for _ in range(20)]
    expected = [groebner_minimal_generators(c) for c in lists]
    calls = count_groebner_calls(monkeypatch)
    for cands, want in zip(lists, expected):
        got = derivations._span(ring, cands, derivations.DEFAULT_CAPS).kept
        assert [str(g) for g in got] == [str(g) for g in want]
    assert not calls  # every list is homogeneous: no Groebner membership
    assert any(len(want) < len(c) for c, want in zip(lists, expected))


def test_filter_falls_back_to_groebner_on_inhomogeneous_input(monkeypatch):
    """One Groebner span filters the whole list, in (degree, text)
    order, and keeps what one from-scratch membership run per candidate
    keeps."""
    ring = VarSet(("x", "y", "z"))
    cands = homogeneous_candidates(random.Random(8), ring)
    cands.append(parse("x^2 + y", ring))
    expected = groebner_minimal_generators(cands)
    calls = count_groebner_calls(monkeypatch)
    got = derivations._span(ring, cands, derivations.DEFAULT_CAPS).kept
    assert got == expected
    assert [what for _, what in calls] == [derivations._sorted_gens(cands)]


def test_saturation_round_falls_back_to_groebner_on_inhomogeneous_generators(monkeypatch):
    ring = VarSet(("x", "y", "z"))
    d = Derivation(ring, {"y": parse("x", ring), "z": parse("y + 1", ring)})
    calls = count_groebner_calls(monkeypatch)
    gens = kernel_saturation(d, derivations.find_slice(d), 8)
    assert [str(g) for g in gens] == ["x", "y^2 - 2*x*z + 2*y"]
    assert gens == kernel_linear(d, 4)
    assert "_saturation_round" in {caller for caller, _ in calls}


def test_saturation_round_rejects_an_inexact_division(monkeypatch):
    """Negative control: each substituted relation lies in (a), so a
    division by a that is not exact is a bug, and the round raises instead
    of dropping the relation."""
    monkeypatch.setattr(derivations, "divide_exact", lambda p, d: None)
    with pytest.raises(ValueError, match="is not divisible by the slice image w1"):
        kernel_saturation(D3, make_slice(D3, "w2"), 5)


def test_saturation_round_skips_known_generators(monkeypatch):
    """Round 1 finds y^2 - 2*x*z + 2*y, the one membership test; round
    2's elimination leaves only the relation of x, whose quotient by the
    slice image x is constant, so it tests nothing.  Each round tests
    against one span of the previous span's kept generators plus the new
    ones, and the second round's span is the final minimality filter."""
    ring = VarSet(("x", "y", "z"))
    d = Derivation(ring, {"y": parse("x", ring), "z": parse("y + 1", ring)})
    calls = count_groebner_calls(monkeypatch)
    got = kernel_saturation(d, derivations.find_slice(d), 8)
    seeds = [parse(t, ring) for t in ("x", "x*y^2 - 2*x^2*z + 2*x*y")]
    generators = [parse(t, ring) for t in ("x", "y^2 - 2*x*z + 2*y", "x*y^2 - 2*x^2*z + 2*x*y")]
    assert calls == [("kernel_saturation", seeds),
                     ("_saturation_round", parse("y^2 - 2*x*z + 2*y", ring)),
                     ("kernel_saturation", generators)]
    assert got == groebner_minimal_generators(generators)


def four_round_derivation():
    """An inhomogeneous derivation whose saturation takes four rounds."""
    ring = VarSet(("x", "y", "z", "u"))
    return Derivation(ring, {"y": parse("x", ring), "z": parse("y + x^2", ring),
                             "u": parse("z + 1", ring)})


def test_saturation_round_builds_one_span_per_round(monkeypatch):
    """Each round tests its candidates against one Groebner span of the
    round's generators, built by kernel_saturation, and the last round's
    span is also the final filter: 6 tests of 5 polynomials on 4 spans.
    Round 4's span drops the degree-8 element found in round 2 for the
    degree-7 one found in round 3; round 4 derives it again and tests it
    again, and its span contains it."""
    d = four_round_derivation()
    calls = count_groebner_calls(monkeypatch)
    got = kernel_saturation(d, derivations.find_slice(d), 8)
    assert [str(g) for g in got] == [
        "x", "x^2*y + 1/2*y^2 - x*z", "x^2*y^2 + 2/3*y^3 - 2*x*y*z + 2*x^2*u - 2*x*y",
        "x^4*y^3 + 39/32*x^2*y^4 - 3*x^3*y^2*z - 3*x^3*y^2 + 3/8*y^5 - 15/8*x*y^3*z"
        " + 3*x^2*y*z^2 - 9/8*x^2*y^2*u - 15/8*x*y^3 + 6*x^2*y*z + 3/8*y^2*z^2 - x*z^3"
        " - 3/4*y^3*u + 9/4*x*y*z*u - 9/8*x^2*u^2 + 3/4*y^2*z - 3*x*z^2 + 9/4*x*y*u"
        " - 9/8*y^2"]
    spans = [tuple(what) for caller, what in calls if caller == "kernel_saturation"]
    assert {caller for caller, _ in calls} == {"kernel_saturation", "_saturation_round"}
    tests = [what for caller, what in calls if caller == "_saturation_round"]
    assert len(tests) == 6
    assert len(set(tests)) == 5
    assert [g.total_degree() for g in tests if tests.count(g) == 2] == [8, 8]
    assert len(spans) == len(set(spans)) == 4
    assert got == groebner_minimal_generators(spans[-1])


def test_saturation_round_tags_only_the_kept_generators():
    """A round eliminates over the generators its span kept.  Here the
    fifth round's span finds several generators redundant; with a tag
    for each of them the elimination passes any practical budget, and
    under a degree cap of 8 it raises at once."""
    ring = VarSet(("x", "y", "z", "u"))
    d = Derivation(ring, {"y": parse("-3*x", ring), "z": parse("-4*y - 1", ring),
                          "u": parse("-3*y*z + 2", ring)})
    gens = kernel_saturation(d, make_slice(d, "y"), 8, caps=ResourceCaps(max_degree=8))
    assert len(gens) == 4
    assert all(d.apply(g).is_zero() for g in gens)


def test_graph_runs_embed_no_polynomial(monkeypatch):
    """The saturation rounds and the one-shot subalgebra membership pack
    each graph-ideal generator y_i - g_i from the terms of g_i: with
    `Polynomial.embed` refusing every call, kernel_saturation on V3, V4
    and the four-round derivation, and subalgebra_membership with and
    without generators, give what they give with it."""
    cases = [lower_triangular_derivation(3), lower_triangular_derivation(4),
             four_round_derivation()]
    kernels = [kernel_saturation(d, derivations.find_slice(d), 8) for d in cases]
    f = P("w1*w4 - w2*w3")
    memberships = [subalgebra_membership(f, gens)
                   for gens in ([], kernels[0], [W.var("w1"), W.var("w2")])]
    assert [member for member, _ in memberships] == [False, True, False]

    def refuse(self, target):
        raise AssertionError("a polynomial was embedded in a larger ring")

    monkeypatch.setattr(Polynomial, "embed", refuse)
    assert [kernel_saturation(d, derivations.find_slice(d), 8) for d in cases] == kernels
    assert [subalgebra_membership(f, gens)
            for gens in ([], kernels[0], [W.var("w1"), W.var("w2")])] == memberships


@pytest.mark.parametrize("derivation, expected", [
    (four_round_derivation(), [0, 0, 0, 0, 3, 3, 0, 0, 0, 2, 2, 4, 2, 0, 0, 0, 2, 8, 9, 9,
                               0, 0, 0, 2, 24, 24, 10, 24]),
    (lower_triangular_derivation(4), [8, 76]),
    (lower_triangular_derivation(5), [20, 425]),
    (lower_triangular_derivation(6), [40, 1205]),
], ids=["four-round", "V4", "V5", "V6"])
def test_kernel_saturation_spolynomial_counts_are_pinned(derivation, expected, monkeypatch):
    """Per Buchberger run of kernel_saturation: on inhomogeneous
    generators each round's span makes one membership run per candidate,
    over the candidates it kept before (over none, a run reduces
    nothing), then the round's elimination of (a) + the graph ideal of
    the generators the span kept, then one membership run per element
    the round tests.  V4-V6's generators are homogeneous, so they have
    eliminations only.  Those eliminate from graph ideals of homogeneous
    polynomials, so they select pairs by sugar; the four-round
    derivation's runs do not.  The four-round pin read [3, 0, 2, 4, 8,
    8, 24, 10] while each span was one incremental run over the graph
    ideal of all its candidates."""
    data = derivations.find_slice(derivation)
    assert spolynomials_per_run(monkeypatch, lambda: kernel_saturation(derivation, data, 8)) \
        == expected


def saturation_oracle_cases():
    ring = VarSet(("x", "y", "z"))
    yield "y->x,z->y+1", Derivation(ring, {"y": parse("x", ring), "z": parse("y + 1", ring)})
    yield "y->x,z->1", Derivation(ring, {"y": ring.var("x"), "z": ring.one()})
    yield "four-round", four_round_derivation()
    for n in (3, 4, 5):
        yield f"V{n}", lower_triangular_derivation(n)
    rng = random.Random(20261018)
    seeded = 0
    while seeded < 12:
        d = random_triangular_derivation(rng, ring)
        if derivations.find_slice(d) is not None:
            yield f"triangular-{seeded}", d
            seeded += 1


@pytest.mark.parametrize("derivation",
                         [case[1] for case in saturation_oracle_cases()],
                         ids=[case[0] for case in saturation_oracle_cases()])
def test_kernel_saturation_returns_the_last_rounds_filter(derivation, monkeypatch):
    """The output is what the reference filter, one from-scratch Groebner
    membership run per candidate, keeps of the generators of the round
    that adds nothing: that round's span is the final filter."""
    rounds = record_spans(monkeypatch)
    got = kernel_saturation(derivation, derivations.find_slice(derivation), 8)
    assert got == groebner_minimal_generators(rounds[-1])


def record_spans(monkeypatch):
    """Records the candidate list of each span derivations builds."""
    spans = []
    span = derivations._span

    def recording(ring, candidates, caps):
        spans.append(list(candidates))
        return span(ring, candidates, caps)

    monkeypatch.setattr(derivations, "_span", recording)
    return spans


def refiltering_saturation(derivation, data, max_rounds):
    """kernel_saturation with each round's span built over every
    generator found so far plus the new ones, kept or not."""
    ring = derivation.ring
    a = derivations._check_slice(derivation, data)
    seeds = []
    for name in ring.names:
        cleared = derivations._dixmier_cleared(derivation, data, a, ring.var(name))
        if cleared.is_zero() or cleared.is_constant():
            continue
        cleared = monic(cleared)
        if cleared not in seeds:
            seeds.append(cleared)
    generators = seeds
    for _ in range(max_rounds):
        span = derivations._span(ring, generators, derivations.DEFAULT_CAPS)
        new = derivations._saturation_round(ring, a, span, derivations.DEFAULT_CAPS)
        if not new:
            return span.kept
        generators = generators + new
    raise AssertionError("round budget exhausted")


def refiltering_cases():
    for n in range(2, 7):
        d = lower_triangular_derivation(n)
        yield f"V{n}-slice-w2", d, make_slice(d, "w2")
    for name, d in saturation_oracle_cases():
        yield name, d, derivations.find_slice(d)


@pytest.mark.parametrize("derivation, data",
                         [case[1:] for case in refiltering_cases()],
                         ids=[case[0] for case in refiltering_cases()])
def test_kernel_saturation_matches_the_refiltering_loop(derivation, data):
    """Carrying only what a span kept into the next round keeps what
    re-filtering every generator keeps: a dropped generator lies in the
    subalgebra of kept ones that sort before it."""
    assert kernel_saturation(derivation, data, 8) == refiltering_saturation(derivation, data, 8)


def test_kernel_saturation_filters_from_scratch_only_without_rounds(monkeypatch):
    """With no rounds the output is the seeds' span, the first span a
    run with rounds builds, and nothing else is built."""
    spans = record_spans(monkeypatch)
    data = make_slice(D3, "w2")
    assert len(kernel_saturation(D3, data, 8)) == 6
    seeds = spans[0]
    assert len(spans) == 2
    del spans[:]
    got = kernel_saturation(D3, data, 0)
    assert spans == [seeds]
    assert got == groebner_minimal_generators(seeds)


@pytest.mark.parametrize("rounds", [-1, -7])
def test_kernel_saturation_rejects_a_negative_round_budget(rounds):
    with pytest.raises(ValueError, match="max_rounds must be nonnegative"):
        kernel_saturation(D3, make_slice(D3, "w2"), rounds)


def test_graded_span_contains_checks_the_ring():
    """Polynomials of another ring raise, even with the same number of
    variables, as with the Groebner span."""
    span = derivations._GradedSpan(W, [P("w1")])
    assert span.kept == [P("w1")]
    assert span.contains(P("w1^2"))
    for ring in (VarSet(W.names[::-1]), VarSet(("w1",))):
        with pytest.raises(RingMismatchError):
            span.contains(ring.var("w1"))


def test_graded_span_obeys_dimension_cap(monkeypatch):
    monkeypatch.setattr(derivations, "KERNEL_DIMENSION_CAP", 3)
    cands = [P(t) for t in EXPECTED_KERNEL]
    # the degree 1 piece spans w1, w3, w5: exactly at the cap
    with pytest.raises(ResourceCapError, match="degree 2"):
        derivations._span(W, cands, derivations.DEFAULT_CAPS)
    with pytest.raises(ResourceCapError, match="degree 2"):
        kernel_saturation(D3, make_slice(D3, "w2"), 2)
    # one row over two monomials: the monomials count
    monkeypatch.setattr(derivations, "KERNEL_DIMENSION_CAP", 1)
    with pytest.raises(ResourceCapError, match="degree 2"):
        derivations._span(W, [P("w1*w4 - w2*w3")], derivations.DEFAULT_CAPS)


def test_spans_keep_no_constant():
    XY = VarSet(("x", "y"))
    graded = derivations._GradedSpan(W, [W.const(3), P("w1"), W.one(), P("w1^2")])
    assert graded.kept == [P("w1")]
    graph = groebner._GraphSpan(XY, [XY.const(2), parse("x + 1", XY), XY.const(-5)])
    assert graph.kept == [parse("x + 1", XY)]
    assert groebner._GraphSpan(XY, [XY.one()]).kept == []
    for cands in ([W.one()], [W.const(7), P("w1 + 1")]):
        assert all(not g.is_constant() for g in derivations._span(
            W, cands, derivations.DEFAULT_CAPS).kept)


@pytest.mark.parametrize("homogeneous", [True, False], ids=["graded", "groebner"])
def test_span_keeps_the_same_list_in_any_order(homogeneous):
    rng = random.Random(3301)
    ring = VarSet(("x", "y", "z"))
    cands = homogeneous_candidates(rng, ring)
    if not homogeneous:
        cands.append(parse("x^2 + y", ring))
    want = derivations._span(ring, derivations._sorted_gens(cands), derivations.DEFAULT_CAPS).kept
    assert len(want) < len(cands)
    for _ in range(4):
        rng.shuffle(cands)
        assert derivations._span(ring, cands, derivations.DEFAULT_CAPS).kept == want


def test_graded_span_answers_alike_in_any_degree_order():
    """Given a degree-2 candidate before w1, the span still holds w1^2:
    no piece is built before every candidate of its degree and below is
    kept."""
    cands = [P("w1*w4 - w2*w3"), P("w3"), P("w1")]
    probes = [P("w1^2"), P("w1*w3"), P("w1^2*w4 - w1*w2*w3"), P("w3^3"), P("w2"), P("w1*w2")]
    shuffled = derivations._GradedSpan(W, cands)
    ordered = derivations._GradedSpan(W, derivations._sorted_gens(cands))
    assert [shuffled.contains(f) for f in probes] == [ordered.contains(f) for f in probes] \
        == [True, True, True, True, False, False]
    rng = random.Random(3302)
    ring = VarSet(("x", "y", "z"))
    for _ in range(10):
        cands = homogeneous_candidates(rng, ring)
        probes = [p * q for p in cands for q in cands] + [random_form(rng, ring, 3)]
        ordered = derivations._GradedSpan(ring, derivations._sorted_gens(cands))
        rng.shuffle(cands)
        shuffled = derivations._GradedSpan(ring, cands)
        assert [shuffled.contains(f) for f in probes] == [ordered.contains(f) for f in probes]


def test_sorted_gens_orders_by_degree_then_printed_text():
    """`_sorted_gens` lists polynomials exactly as a stable sort by
    (total degree, str) does, though it prints in full only those that
    share a degree and a leading text.  The seeded lists draw repeated
    polynomials, many with one leading term and different tails, in
    variables named like prefixes of each other (z3, z30, z), with
    negative and fractional coefficients and constants."""
    rng = random.Random(20261018)
    ring = VarSet(("z", "z3", "z30", "w1", "w10"))
    leads = [parse(text, ring) for text in
             ("z3", "z30", "-z3", "z3^2", "z*z3", "2*z30", "1/2*z3", "-3/4*w10", "w1", "7", "-1")]
    for _ in range(300):
        polys = []
        for _ in range(rng.randint(0, 10)):
            if polys and rng.random() < 0.15:
                polys.append(rng.choice(polys))  # the same object again
                continue
            tail = random_poly(rng, ring, max_degree=1, max_terms=2, denominator_bound=3)
            polys.append(rng.choice(leads) + tail if rng.random() < 0.7
                         else random_poly(rng, ring, max_degree=2, max_terms=3,
                                          denominator_bound=3))
        want = sorted(polys, key=lambda p: (p.total_degree(), str(p)))
        assert [id(p) for p in derivations._sorted_gens(polys)] == [id(p) for p in want]
