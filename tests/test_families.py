"""Family construction and the verification battery."""

import io
import json
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from itertools import product

import pytest
import sympy as sp

from gaquot import (
    DEFAULT_CAPS,
    Derivation,
    Dims,
    FamilySpec,
    Ideal,
    KTheoryRanks,
    NonzeroConstantError,
    NotHypersurfaceError,
    Polynomial,
    RepeatedRootsError,
    ResourceCapError,
    ResourceCaps,
    UnitIdealError,
    VarSet,
    VerificationReport,
    build_family,
    check_freeness,
    check_smooth,
    check_stability,
    fixed_point_ideal,
    invariant_presentation,
    is_squarefree,
    jacobian,
    krull_dimension,
    lower_triangular_derivation,
    normal_form,
    buchberger,
    parse,
    run_battery,
)
from gaquot import cli, derivations, families, groebner, linalg, poly
from gaquot.families import nonstable_ideal
from helpers import (check_cone_over_boundary, composed_checks, jacobian_identities,
                     polynomial_polarization_ideal, random_poly, signed_roots_shape,
                     smoothness_equation, spolynomials_per_run, to_sympy, ybar_ideal)

S = VarSet(("s",))
ABC = VarSet(("a", "b", "c"))


def v3(text, trivial=0):
    return FamilySpec("v3", parse(text, S), trivial)


def v4(text, trivial=0):
    return FamilySpec("v4", parse(text, ABC), trivial)


def random_valid_f(rng, min_degree=1, max_degree=4):
    """Random f with f(0) = 0 and f + 1 squarefree."""
    while True:
        degree = rng.randint(min_degree, max_degree)
        terms = {(e,): rng.randint(-3, 3) for e in range(1, degree + 1)}
        terms[(degree,)] = rng.choice([1, 2, -1, -2, 3])
        from gaquot import Polynomial

        f = Polynomial(S, terms)
        if f.total_degree() >= min_degree and is_squarefree(f + 1):
            return f


# -- construction ------------------------------------------------------------------


def test_build_identity_instance():
    art = build_family(v3("s"))
    assert art.w_ring.names == ("w1", "w2", "w3", "w4", "w5", "w6")
    ybar = ybar_ideal(art)
    assert ybar.ring.names == ("u", "v") + art.w_ring.names
    assert art.x_ideal.generators == (
        parse("w1 - 1 - (w3*w6 - w4*w5)", art.w_ring),
    )
    assert ybar.generators == (
        parse("u*w2 - v*w1 - 1 - (w3*w6 - w4*w5)", ybar.ring),
    )
    assert art.b_ideal.generators == (parse("-1 - (w3*w6 - w4*w5)", art.w_ring),)
    assert art.quad_invariants == (parse("w3*w6 - w4*w5", art.w_ring),)


def test_build_rejects_repeated_roots():
    with pytest.raises(RepeatedRootsError):
        build_family(v3("(1+s)^2 - 1"))


def test_build_rejects_nonzero_constant():
    with pytest.raises(NonzeroConstantError):
        build_family(v3("s + 1"))
    with pytest.raises(NonzeroConstantError):
        build_family(v4("a + 1"))


def test_build_validates_under_the_callers_caps():
    """build_family caps deg f at the degree budget it is given, as
    run_battery does: f = s^61 + s passes under a budget of 500 and is
    refused under the default budget of 60."""
    spec = v3("s^61 + s")
    assert build_family(spec, ResourceCaps(max_degree=500)) is spec
    assert run_battery(spec, ResourceCaps(max_degree=500)).passed
    with pytest.raises(ResourceCapError, match="^f has degree 61, above the degree budget 60$"):
        build_family(spec)


def test_family_spec_rejects_bad_parameters():
    with pytest.raises(ValueError, match="unknown family"):
        FamilySpec("v5", parse("s", S))
    with pytest.raises(ValueError, match="1 variable"):
        FamilySpec("v3", parse("a", ABC))
    with pytest.raises(ValueError, match="3 variable"):
        FamilySpec("v4", parse("s", S))
    with pytest.raises(ValueError, match="nonnegative"):
        FamilySpec("v3", parse("s", S), -1)


def test_build_moduli_instance():
    art = build_family(v4("a"))
    assert art.w_ring.names == tuple(f"w{i}" for i in range(1, 9))
    assert art.x_ideal.generators == (
        parse("w1 - 1 - (w3*w6 - w4*w5)", art.w_ring),
    )
    assert art.quad_invariants == tuple(
        parse(t, art.w_ring)
        for t in ("w3*w6 - w4*w5", "w3*w8 - w4*w7", "w5*w8 - w6*w7")
    )


def test_trivial_summands_extend_rings():
    art = build_family(v3("s", trivial=2))
    assert art.w_ring.names[-2:] == ("e1", "e2")
    d = art.derivation
    assert d.images["e1"].is_zero() and d.images["e2"].is_zero()


@pytest.mark.parametrize("trivial", [0, 2])
@pytest.mark.parametrize("make, f, blocks", [(v3, "s", 3), (v4, "a", 4)], ids=["v3", "v4"])
def test_construction_identities(make, f, blocks, trivial):
    """Each object is the one it stands for, built in its own ring: the
    action is the Weitzenboeck derivation of the blocks and trivial
    summands, B is Ybar at u = v = 0 written over W, and the zeros of the
    action are the non-stable locus."""
    art = build_family(make(f, trivial))
    assert art.derivation == lower_triangular_derivation(blocks, trivial)
    w_ring = art.w_ring
    to_w = {name: w_ring.var(name) for name in w_ring.names}
    to_w.update(u=w_ring.zero(), v=w_ring.zero())
    (ybar_gen,) = ybar_ideal(art).generators
    assert art.b_ideal.generators == (ybar_gen.substitute(to_w),)
    assert art.b_ideal.ring == w_ring
    assert fixed_point_ideal(art.derivation) == nonstable_ideal(art)


# -- individual checks --------------------------------------------------------------


def broken_representation_is_a_bug(monkeypatch, request, capsys, attribute, broken,
                                   message, trivial=0):
    """Replace the builder `attribute` of W in `families` by `broken`: W is
    then rejected where it is built, for v3 and v4, with ValueError
    `message`, and `verify` exits 5, as on any bug."""
    clear_representation_caches()
    request.addfinalizer(clear_representation_caches)
    monkeypatch.setattr(families, attribute, broken)
    for spec in (v3("s", trivial), v4("a", trivial)):
        with pytest.raises(ValueError, match=message):
            spec.w_ring
    argv = ["verify", "--family", "v3", "--f=s", "--trivial", str(trivial)]
    assert cli.main(argv, out=io.StringIO()) == 5
    assert capsys.readouterr().err.startswith(f"internal error: ValueError: {message}\n")


def doctored_record(monkeypatch, derivation=None, quads=None):
    """The record of v3 with f = s, read while `_representation` returns
    W's certified values but for `derivation` or `quads`: a W that no
    unpatched path can build, for the expanded checks to see."""
    certified_derivation, certified_quads = families._representation("v3", 0)
    monkeypatch.setattr(families, "_representation", lambda family, trivial: (
        certified_derivation if derivation is None else derivation,
        certified_quads if quads is None else quads))
    return v3("s")


def with_first_quadric_plus(text):
    """`_quadratic_invariants` with `text` added to the first quadric."""
    original = families._quadratic_invariants

    def broken(w_ring, blocks):
        first, *rest = original(w_ring, blocks)
        return (first + parse(text, w_ring), *rest)

    return broken


def test_affine_space_check(monkeypatch, request, capsys):
    """X is a graph over w2, w3, ... because the quadrics are free of w1,
    which W certifies as it is built: adding w1*w3, invariant, a quadric
    and with a non-stable coordinate, to a quadric makes W a bug, and X's
    equation w1 - 1 - q is then no graph in w1."""
    art = build_family(v3("s"))
    (equation,) = art.x_ideal.generators
    assert "w1" not in (art.w_ring.var("w1") - equation).variables()
    with monkeypatch.context() as patch:
        doctored = doctored_record(patch, quads=(parse("w3*w6 - w4*w5 + w1*w3", art.w_ring),))
        (equation,) = doctored.x_ideal.generators
    assert "w1" in (art.w_ring.var("w1") - equation).variables()
    broken_representation_is_a_bug(monkeypatch, request, capsys, "_quadratic_invariants",
                                   with_first_quadric_plus("w1*w3"),
                                   "a quadratic invariant involves w1")


def test_invariance_check(monkeypatch, request, capsys):
    """D kills X's equation w1 - 1 - f(q) because it kills w1 and every
    quadric, which W certifies as it is built.  D(w1) = w3, or a term
    w3*w4 added to a quadric (D(w3*w4) = w3^2), makes W a bug."""
    art = build_family(v3("s"))
    (equation,) = art.x_ideal.generators
    assert art.derivation.apply(equation).is_zero()

    def moving_w1(blocks, trivial=0):
        d = lower_triangular_derivation(blocks, trivial)
        return Derivation(d.ring, {**d.images, "w1": d.ring.var("w3")})

    for attribute, broken in (("lower_triangular_derivation", moving_w1),
                              ("_quadratic_invariants", with_first_quadric_plus("w3*w4"))):
        with monkeypatch.context() as patch:
            broken_representation_is_a_bug(
                patch, request, capsys, attribute, broken,
                "the action does not kill w1 and every quadratic invariant")


def test_stability_check():
    assert check_stability(build_family(v3("s")))
    # constant term zero in the hypersurface equation keeps the origin side
    forced = v3("s - 1")
    assert not check_stability(forced)


@pytest.mark.parametrize("spec", [FamilySpec("v3", signed_roots_shape(12, 11)),
                                  v4("a^2 + b*c - 3*c")], ids=["v3-deg12", "v4"])
def test_stability_and_freeness_make_one_run_each(spec, monkeypatch):
    """The non-stable ideal is generated by the odd block coordinates;
    modulo them X's equation is -1 - f(0) = -1, so each unit-ideal run
    reduces one S-polynomial.  Both read no run while `is_unit_ideal`
    set lone variables to zero first."""
    art = build_family(spec)
    verdicts = []
    runs = spolynomials_per_run(monkeypatch, lambda: verdicts.extend(
        (check_stability(art), check_freeness(art))))
    assert (runs, verdicts) == ([1, 1], [True, True])


def test_freeness_check(monkeypatch):
    assert check_freeness(build_family(v3("s")))
    assert check_freeness(build_family(v4("a")))
    art = build_family(v3("s"))
    degenerate = doctored_record(monkeypatch, derivation=Derivation(art.w_ring, {}))
    assert not check_freeness(degenerate)


def test_smoothness_of_closure_and_boundary():
    art = build_family(v3("s"))
    assert check_smooth(ybar_ideal(art))
    assert check_smooth(art.b_ideal)
    cubic = build_family(v3("(1+s)*(1+2*s)*(1+3*s) - 1"))
    assert check_smooth(cubic.b_ideal)


def test_smoothness_fails_on_repeated_root():
    """With a repeated root of f + 1, built without validation, both
    equations are singular, yet B's smoothness identities still hold: the
    identities certify smoothness only together with V(1 + f) smooth,
    which this shape fails, as -1 is a root of both 1 + f and f', so the
    battery's verdict is False.  Ybar is still the cone over B, so it is
    singular with B."""
    forced = v3("(1+s)^2 - 1")
    assert not check_smooth(forced.b_ideal)
    assert not check_smooth(ybar_ideal(forced))
    assert jacobian_identities(forced) is True
    check_cone_over_boundary(forced)
    assert not check_smooth(smoothness_equation(forced))
    assert composed_checks(forced)["boundarySmooth"] is False
    with pytest.raises(RepeatedRootsError):
        run_battery(forced)


def test_smoothness_requires_hypersurface():
    art = build_family(v3("s"))
    bad = art.x_ideal + Ideal(art.w_ring, (parse("w2*w3 - 1", art.w_ring),))
    with pytest.raises(NotHypersurfaceError):
        check_smooth(bad)
    ybar = ybar_ideal(art)
    ambient = ybar.ring
    cut = ybar + Ideal(ambient, (ambient.var("u"), ambient.var("v")))
    with pytest.raises(NotHypersurfaceError):
        check_smooth(cut)


def recorded_unit_ideal_rings(monkeypatch) -> list:
    """The ring names of each `is_unit_ideal` call from `families` from now on."""
    rings = []

    def recording(ideal, caps=DEFAULT_CAPS):
        rings.append(ideal.ring.names)
        return groebner.is_unit_ideal(ideal, caps=caps)

    monkeypatch.setattr(families, "is_unit_ideal", recording)
    return rings


@pytest.mark.parametrize("trivial", [0, 50])
def test_jacobian_criterion_runs_in_the_ring_it_is_given(trivial, monkeypatch):
    """v4's B with f = a + b + c involves w3..w8 alone, yet its Jacobian
    criterion runs in all of W's ring, trivial summands included; the
    battery's criterion on 1 + f runs in f's ring a, b, c."""
    rings = recorded_unit_ideal_rings(monkeypatch)
    spec = build_family(v4("a + b + c", trivial))
    assert check_smooth(spec.b_ideal)
    assert run_battery(spec).passed
    assert rings == [spec.w_ring.names, ABC.names]
    assert len(rings[0]) == 8 + trivial


def test_jacobian_criterion_of_a_constant_runs_in_the_full_ring(monkeypatch):
    rings = recorded_unit_ideal_rings(monkeypatch)
    ring = build_family(v4("a")).w_ring
    assert check_smooth(Ideal(ring, (ring.const(-1),)))  # empty, so smooth
    assert not check_smooth(Ideal(ring, (ring.zero(),)))  # the criterion's ideal is zero
    assert rings == [ring.names] * 2


# -- the smoothness criterion on 1 + f --------------------------------------------------

# The v3 signed-roots shapes of deg 1..12 (seed 7), and f = s with 0..3
# trivial summands.
CERTIFIED_SPECS = (
    [pytest.param(FamilySpec("v3", signed_roots_shape(d, 7)), id=f"signed-deg{d}")
     for d in range(1, 13)]
    + [pytest.param(v3("s", trivial), id=f"s-triv{trivial}") for trivial in range(4)]
)


@pytest.mark.parametrize("spec", CERTIFIED_SPECS)
def test_jacobian_identities_agree_with_groebner(spec):
    """The identities, the Jacobian criterion on 1 + f and that on B all
    certify B, and the battery's smoothness verdict, which reads the
    validation's, is the one the Jacobian criterion decides on B and on
    Ybar."""
    art = build_family(spec)
    assert jacobian_identities(art) is True
    assert check_smooth(smoothness_equation(art))
    assert run_battery(spec).smooth == check_smooth(art.b_ideal) \
        == check_smooth(ybar_ideal(art)) is True


def counted_calls(monkeypatch, *sites) -> dict:
    """Calls from now on of each (owner, name) site, by name."""
    counts = dict.fromkeys((name for _, name in sites), 0)

    def counting(name, original):
        def call(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return call

    for owner, name in sites:
        monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
    return counts


def test_v3_battery_fixed_cost_is_pinned(monkeypatch):
    """Deterministic counts of the per-call work of one deg-12 v3 battery
    on a warm cache, next to its S-polynomial pin: it builds one ring
    (the ring of the relations), runs the modular coprimality loop once
    (in the validation, whose verdict the smoothness certificate reads),
    and packs the five graph-ideal seeds (w3, w5, q and the two minors;
    w1's image is never built) itself, from 8 packed monomials, with no
    `_graph_seed`; the other 5 `pack` calls are the pair update's.  The
    first two read 7 and 2 while the rings were rebuilt around a
    subalgebra span and the certificate ran the loop again, and 2 while
    the seeds were forms over a tag ring; `_graph_seed` packed the forms'
    five seeds, at 37 `pack` calls in all.  It multiplies no term dicts
    (`poly._product`, under every module that binds it) and sorts no
    polynomials by search (`derivations._sorted_gens`): the candidates,
    their seeds and their order are written in closed form."""
    spec = FamilySpec("v3", signed_roots_shape(12, 11))
    run_battery(spec)  # W and its invariants are cached from here on
    bound = [(module, name) for module in (cli, derivations, families, groebner, linalg, poly)
             for name in ("_product", "_sorted_gens") if name in vars(module)]
    counts = counted_calls(monkeypatch, (VarSet, "__init__"), (groebner, "_coprime_mod"),
                           (groebner, "_graph_seed"), (groebner._Packing, "pack"), *bound)
    assert run_battery(spec).passed
    assert counts == {"__init__": 1, "_coprime_mod": 1, "_graph_seed": 0, "pack": 13,
                      "_product": 0, "_sorted_gens": 0}


def test_the_smoothness_certificate_is_the_validation_verdict(monkeypatch):
    """A v3 battery's smoothness verdict is the validation's verdict on
    f + 1, so it runs the modular loop once, in the validation, and
    reduces no S-polynomial for smoothness: its Groebner runs are the
    presentation's.  That squarefree test is the Jacobian criterion on
    1 + f, (1 + f, f') the unit ideal in Q[s], which checks given no
    verdict decide on a spec validated or not, by a unit-ideal test with
    no modular loop; on shapes the validation rejects for a repeated
    root both say singular."""
    spec = FamilySpec("v3", signed_roots_shape(5, 3))
    counts = counted_calls(monkeypatch, (groebner, "_coprime_mod"))
    reports = []
    with monkeypatch.context() as patch:
        battery_runs = spolynomials_per_run(patch, lambda: reports.append(run_battery(spec)))
    assert (reports[0].smooth, counts["_coprime_mod"]) == (True, 1)
    assert battery_runs == spolynomials_per_run(monkeypatch,
                                                lambda: invariant_presentation(spec))
    validated = build_family(spec)
    assert counts["_coprime_mod"] == 2
    for art in (validated, spec):
        assert check_smooth(smoothness_equation(art)) is True
        assert [composed_checks(art)["boundarySmooth"] for _ in range(2)] == [True, True]
    assert counts["_coprime_mod"] == 2
    for text in ("(1+s)^2 - 1", "s^3 + 3*s^2 + 3*s", "s^4 - 2*s^2", "1/2*s^3 - s", "s^2 + s"):
        spec = v3(text)
        assert is_squarefree(spec.f + 1) is check_smooth(smoothness_equation(spec))
    # f(0) = -1 puts W's origin, where every quadric's gradient is 0, on B
    assert check_smooth(smoothness_equation(v3("s - 1")))
    assert composed_checks(v3("s - 1"))["boundarySmooth"] is False


def test_jacobian_identities_reject_a_changed_coefficient():
    """Doubling any one coefficient of B's equation, the constant or one of
    f(q), or adding a term of Euler weight 0 (w2) or 2 (w1*w3*w6), breaks
    an identity."""
    art = build_family(FamilySpec("v3", signed_roots_shape(3, 7)))
    (h,) = art.b_ideal.generators
    mutations = [(exps, 2 * coeff) for exps, coeff in h.terms.items()]
    mutations += [(next(iter(parse(text, art.w_ring).terms)), 1) for text in ("w1*w3*w6", "w2")]
    for exps, coeff in mutations:
        changed = dict(h.terms)
        changed[exps] = coeff
        assert not jacobian_identities(art, Polynomial(art.w_ring, changed)), exps


def polynomial_identities(art, h=None):
    """The two v3 identities on B checked with Polynomial partials,
    products and sums, as the battery once checked them: an independent
    reference for the term-dict check of `jacobian_identities`."""
    (q,) = art.quad_invariants
    f = art.f
    one_plus_f = 1 + f.substitute({"s": q})
    minus_2q_f_prime = -2 * q * f.partial("s").substitute({"s": q})
    (h,) = art.b_ideal.generators if h is None else (h,)
    ring = art.b_ideal.ring
    euler = ring.zero()
    for n in q.variables():
        euler = euler + ring.var(n) * h.partial(n)
    return -h == one_plus_f.embed(ring) and euler == minus_2q_f_prime.embed(ring)


@pytest.mark.parametrize("seed", range(6))
def test_jacobian_identities_agree_with_polynomial_arithmetic(seed):
    """On seeded v3 specs (deg f 1 to 12, 0 to 2 trivial summands), the
    term-dict check and the Polynomial reference give the same verdict,
    on B's equation as built and after seeded changes of the coefficient
    of one monomial of degree at most 2 in each variable."""
    rng = random.Random(seed)
    for _ in range(4):
        spec = FamilySpec("v3", signed_roots_shape(rng.randint(1, 12), seed), rng.randint(0, 2))
        art = build_family(spec)
        assert jacobian_identities(art) is polynomial_identities(art) is True
        ring = art.b_ideal.ring
        for _ in range(8):
            changed = dict(art.b_ideal.generators[0].terms)
            exps = tuple(rng.choice((0, 0, 1, 2)) for _ in ring.names)
            changed[exps] = rng.choice((-2, 0, 1, 3))
            mutated = Polynomial(ring, changed)
            assert jacobian_identities(art, mutated) == polynomial_identities(art, mutated), exps


@pytest.mark.parametrize("text", ["0", "-1", "-1 + s", "(1+s)^2 - 1", "1/2*s^3 - s"])
def test_jacobian_identities_agree_on_unvalidated_shapes(text):
    """Shapes the validation rejects or that sit at its edges (f = 0, a
    constant term, a repeated root of f + 1) get the same verdict from
    both checks, from f's table of coefficients down to its empty one."""
    art = v3(text)
    assert jacobian_identities(art) == polynomial_identities(art)


@pytest.mark.parametrize("seed", [3, 7, 11])
def test_jacobian_identities_hold_in_sympy(seed):
    """Each identity, expanded by sympy from B's equation as built, on
    seeded signed-roots shapes with a seeded number of trivial summands."""
    rng = random.Random(seed)
    spec = FamilySpec("v3", signed_roots_shape(rng.randint(1, 8), seed), rng.randint(0, 2))
    art = build_family(spec)
    w3, w4, w5, w6 = sp.symbols("w3 w4 w5 w6")
    s = sp.Symbol("s")
    q = w3 * w6 - w4 * w5
    f = to_sympy(spec.f, [s])
    (equation,) = art.b_ideal.generators
    h = to_sympy(equation, sp.symbols(list(art.b_ideal.ring.names)))
    assert sp.expand(-h - 1 - f.subs(s, q)) == 0
    assert sp.expand(sum(x * sp.diff(h, x) for x in (w3, w4, w5, w6))
                     + 2 * q * sp.diff(f, s).subs(s, q)) == 0
    assert jacobian_identities(art) is True


def v4_polarization_shapes(seed):
    """Four seeded v4 shapes of degree 1..4, f(0) = 0."""
    rng, shapes = random.Random(seed), []
    while len(shapes) < 4:
        f = random_poly(rng, ABC, max_degree=4, max_terms=4)
        f -= f.constant_term()
        if not f.is_zero():
            shapes.append(f)
    return shapes


J_PRIME_SHAPES = ["a", "b", "c", "-2*a + b", "a - 3*b + 1/2*c", "a^5 + b*c^2 + a*b + c",
                  "1/2*a^2 - 3/4*b*c + 2/3*c^3 + a"]

SINGULAR_V4 = ["a^2 - 2*a + b^2 + c^2", "a*b - a - b", "a^2*b^2 - 2*a*b + c^2",
               "(a+b+c)^2 + 2*(a+b+c)"]


def dense_v4_shapes():
    """Dense v4 shapes of degree 3 and 4, drawn in that order from
    random.Random(3): each monomial a^i*b^j*c^k of degree 1..d is kept
    with probability 1/2, with a coefficient of +-1..5."""
    rng = random.Random(3)
    return [Polynomial(ABC, {m: rng.choice((-1, 1)) * rng.randint(1, 5)
                             for total in range(1, d + 1)
                             for m in sorted(e for e in product(range(total + 1), repeat=3)
                                             if sum(e) == total)
                             if rng.random() < 0.5})
            for d in (3, 4)]


def gradient_oracle_specs():
    """The linear, mixed and rational shapes with 0 and 3 trivial
    summands, the singular controls, seeded shapes of degree <= 4 and the
    dense shapes of degree 3 and 4."""
    return ([pytest.param(v4(text, trivial), id=f"{text}-triv{trivial}")
             for text in J_PRIME_SHAPES for trivial in (0, 3)]
            + [pytest.param(v4(text), id=f"singular-{text}") for text in SINGULAR_V4]
            + [pytest.param(FamilySpec("v4", f), id=f"seed{seed}-{f}")
               for seed in range(6) for f in v4_polarization_shapes(seed)]
            + [pytest.param(FamilySpec("v4", f), id=f"dense-deg{f.total_degree()}")
               for f in dense_v4_shapes()])


@pytest.mark.parametrize("spec", gradient_oracle_specs())
def test_the_gradient_ideal_is_the_polarization_ideal(spec):
    """Oracle: the battery's verdict, the Jacobian criterion on 1 + f,
    is the unit test of J' = (1 + f, J_kl), the ideal built from the
    polarization operators (`helpers.polynomial_polarization_ideal`),
    and (1 + f, grad f) and J' have equal reduced grevlex bases: the
    J_kl span every s_m*df/ds_j, and f(0) = 0 puts f in (s)."""
    f = spec.f
    gradient = Ideal(f.ring, (f + 1, *jacobian([f], f.ring.names)[0]))
    polarization = polynomial_polarization_ideal(spec)
    assert run_battery(spec).smooth is check_smooth(smoothness_equation(spec)) \
        is groebner.is_unit_ideal(polarization)
    assert buchberger(gradient).basis == buchberger(polarization).basis


@pytest.mark.parametrize("seed", [3, 7, 11])
def test_polarization_identities_hold_in_sympy(seed):
    """E_kl h = -J_kl(q) for each polarization operator E_kl =
    w(2k-1)*d/dw(2l-1) + w(2k)*d/dw(2l), blocks k, l in 2..4 in order,
    with h B's equation as built, expanded by sympy on seeded v4 shapes
    with a seeded number of trivial summands, and J_kl from the table
    `helpers.polynomial_polarization_ideal` works out: J''s first
    generator is 1 + f, and the others, at s -> q, are the nonzero
    -E_kl h in order (J' drops a zero J_kl, and J_kl(q) = 0 only for
    J_kl = 0, as the quadrics are algebraically independent)."""
    rng = random.Random(seed)
    a, b, c = symbols = sp.symbols("a b c")
    w = sp.symbols("w1:9")
    q = (w[2] * w[5] - w[3] * w[4], w[2] * w[7] - w[3] * w[6], w[4] * w[7] - w[5] * w[6])
    for f in v4_polarization_shapes(seed):
        art = FamilySpec("v4", f, rng.randint(0, 2))
        (equation,) = art.b_ideal.generators
        h = to_sympy(equation, sp.symbols(list(art.w_ring.names)))
        one_plus_f, *j = (to_sympy(g, symbols)
                          for g in polynomial_polarization_ideal(art).generators)
        assert sp.expand(one_plus_f - 1 - to_sympy(f, symbols)) == 0
        images = [sp.expand(-sum(w[2 * k - i] * sp.diff(h, w[2 * l - i]) for i in (2, 1)))
                  for k in range(2, 5) for l in range(2, 5)]
        at_q = dict(zip((a, b, c), q))
        assert [image for image in images if image != 0] == [
            sp.expand(j_kl.subs(at_q, simultaneous=True)) for j_kl in j]


# -- Ybar is the cone over B ---------------------------------------------------------

def transfer_specs():
    """v3 signed-roots shapes of deg 1..12 with 0..2 trivial summands,
    seeded v4 shapes of degree <= 3 and of degree 4, and the singular v4
    controls."""
    specs = [pytest.param(FamilySpec("v3", signed_roots_shape(d, 7 + t), t),
                          id=f"v3-deg{d}-triv{t}")
             for d in range(1, 13) for t in range(3)]
    for seed, count, degrees in (("cone", 8, range(1, 4)), ("cone-4", 6, (4,))):
        rng, shapes = random.Random(seed), []
        while len(shapes) < count:
            f = random_poly(rng, ABC, max_degree=max(degrees), max_terms=4)
            f -= f.constant_term()
            if f.total_degree() in degrees:
                shapes.append(f)
        specs += [pytest.param(FamilySpec("v4", f), id=f"v4-{f}") for f in shapes]
    return specs + [pytest.param(v4(text), id=f"v4-{text}") for text in SINGULAR_V4]


@pytest.mark.parametrize("spec", transfer_specs())
def test_smoothness_is_decided_on_b_and_transferred_to_ybar(spec):
    """Oracle: the battery's verdicts, both decided on B, equal the Jacobian
    criterion on each of Ybar and B, and Ybar as built is the cone over B."""
    art = build_family(spec)
    checks = run_battery(spec).checks
    assert checks["ybarSmooth"] == check_smooth(ybar_ideal(art))
    assert checks["boundarySmooth"] == check_smooth(art.b_ideal)
    check_cone_over_boundary(art)


@pytest.mark.parametrize("text", SINGULAR_V4)
def test_singular_v4_controls_exit_two(text):
    """Each singular v4 control fails through the CLI, with both smoothness
    keys false and the other checks true."""
    out = io.StringIO()
    assert cli.main(["verify", "--family", "v4", f"--f={text}"], out=out) == 2
    checks = json.loads(out.getvalue())["checks"]
    assert checks.pop("ybarSmooth") is checks.pop("boundarySmooth") is False
    assert all(checks.values())


def test_a_ybar_not_the_cone_over_b_is_a_bug():
    """Any change of one coefficient of Ybar's equation, or a term in u, v,
    w1 or w2 added to it or to B's, breaks the identity g = u*w2 - v*w1 + h:
    the oracle raises ValueError."""
    art = build_family(FamilySpec("v3", signed_roots_shape(3, 7), 1))
    ybar, w_ring = ybar_ideal(art), art.w_ring
    ambient = ybar.ring
    (g,), (h,) = ybar.generators, art.b_ideal.generators
    mutated = [Polynomial(ambient, {**g.terms, exps: 2 * c}) for exps, c in g.terms.items()]
    mutated += [g + parse(text, ambient) for text in ("u*w3", "v", "u*w2", "w1*w3*w6")]
    pairs = [(p, h) for p in mutated]
    pairs += [(g + parse(text, ambient), h + parse(text, w_ring)) for text in ("w1", "w2*w3")]
    for broken_g, broken_h in pairs:
        with pytest.raises(ValueError, match="Ybar's equation is not"):
            check_cone_over_boundary(art, broken_g, broken_h)


# -- the composed battery against the expanded objects ---------------------------------

UNVALIDATED = [v3("(1+s)^2 - 1"), v3("s - 1"), v3("s + 5"), v3("0"), v3("-1")]


def expanded_verdicts(art):
    """Each battery verdict decided on the expanded equations: D applied to
    X's equation, X's equation a graph in w1, the unit-ideal tests, the
    Jacobian criterion on B and Ybar, and the dimensions of X, Ybar and B
    (None for a B with no points)."""
    (x_equation,) = art.x_ideal.generators
    ybar = ybar_ideal(art)
    try:
        dim_b = krull_dimension(art.b_ideal)
    except UnitIdealError:
        dim_b = None
    return ({"invariant": art.derivation.apply(x_equation).is_zero(),
             "affineSpace": "w1" not in (art.w_ring.var("w1") - x_equation).variables(),
             "stable": check_stability(art),
             "free": check_freeness(art),
             "ybarSmooth": check_smooth(ybar),
             "boundarySmooth": check_smooth(art.b_ideal)},
            (krull_dimension(art.x_ideal), krull_dimension(ybar), dim_b))


@pytest.mark.parametrize("spec", transfer_specs() + [
    pytest.param(spec, id=f"unvalidated-{spec.f}") for spec in UNVALIDATED])
def test_composed_verdicts_match_the_expanded_objects(spec):
    """Oracle: every verdict the battery decides from f, the quadrics and
    W's derivation equals the verdict on the expanded equations, on valid
    specs and on specs the validation rejects (a repeated root, which is
    not smooth; f(0) = -1, not stable; f(0) = 5, stable; f = 0, whose
    boundary is empty; f = -1, whose boundary is all of W)."""
    composed = composed_checks(spec)
    checks, (dim_x, dim_ybar, dim_b) = expanded_verdicts(spec)
    assert (composed, list(composed)) == (checks, list(checks))  # with the report's key order
    report = VerificationReport(spec, True, None)
    if dim_b is None:
        with pytest.raises(UnitIdealError, match="empty boundary"):
            report.dims
    else:
        assert report.dims == Dims(dim_x, dim_ybar, dim_b)
    assert len(spec.w_ring) - 1 == dim_x
    if spec not in UNVALIDATED:
        assert run_battery(spec).dims.x == dim_x


@pytest.mark.parametrize("trivial", ["0", "100"])
def test_empty_boundary_exits_two(trivial, capsys):
    """f = 0 fails on its empty boundary in `build_family`, before W's
    bound on the trivial summands is reached."""
    argv = ["verify", "--family", "v3", "--f=0", "--trivial", trivial]
    assert cli.main(argv, out=io.StringIO()) == 2
    assert capsys.readouterr().err == (
        "check failed: empty boundary: the rank bookkeeping needs a nonempty complement\n")


@pytest.mark.parametrize("spec, passed", [
    *(pytest.param(FamilySpec("v3", signed_roots_shape(d, 7), t), True, id=f"v3-deg{d}-triv{t}")
      for d in (1, 12, 30) for t in (0, 2)),
    *(pytest.param(v4(text), True, id=f"v4-{text}")
      for text in ("a", "a^2 + b*c", "a^5 + b*c^2 + a*b + c")),
    *(pytest.param(v4(text), False, id=f"v4-{text}") for text in SINGULAR_V4),
])
def test_battery_expands_no_f_of_q(spec, passed, monkeypatch):
    """A battery of either family, passing or singular, decides every
    check without X or B and calls the Jacobian criterion on 1 + f alone,
    in f's ring: reading either ideal raises, and the battery still
    returns."""
    def refuse(ideal, caps=DEFAULT_CAPS):
        if ideal != smoothness_equation(spec):
            raise AssertionError("the battery ran the expanded Jacobian criterion")
        return check_smooth(ideal, caps)

    def expand(spec):
        raise AssertionError("the battery expanded f(q)")

    monkeypatch.setattr(families, "check_smooth", refuse)
    for name in ("x_ideal", "b_ideal"):
        monkeypatch.setattr(FamilySpec, name, property(expand))
    assert run_battery(spec).passed is passed


def test_a_quadric_off_the_nonstable_coordinates_is_a_bug(monkeypatch, request, capsys):
    """`stable` reads -1 - f(0) because every term of every quadric has an
    odd block coordinate, which W certifies as it is built.  e1^2, with
    e1 the first trivial coordinate, is invariant, a quadric and free of
    w1, yet a term off those coordinates: with it W is a bug."""
    broken_representation_is_a_bug(
        monkeypatch, request, capsys, "_quadratic_invariants", with_first_quadric_plus("e1^2"),
        "a quadratic invariant has a term free of the non-stable coordinates", trivial=1)


def test_a_fixed_locus_off_the_nonstable_locus_is_a_bug(monkeypatch, request, capsys):
    """The battery's freeness verdict is its stability verdict because the
    zeros of the action are the non-stable locus.  With D(w2) = w1*w3 the
    zeros are w3 = w5 = 0 and meet X, so the action is not free though X
    is stable; W is then rejected as it is built: reading `w_ring` raises
    ValueError, and `verify` exits 5, as on any bug."""
    def off_locus(blocks, trivial=0):
        d = lower_triangular_derivation(blocks, trivial)
        return Derivation(d.ring, {**d.images, "w2": d.ring.var("w1") * d.ring.var("w3")})

    with monkeypatch.context() as patch:
        art = doctored_record(patch, derivation=off_locus(3))
        assert (check_stability(art), check_freeness(art)) == (True, False)
    broken_representation_is_a_bug(
        monkeypatch, request, capsys, "lower_triangular_derivation", off_locus,
        "the zeros of the action are not the non-stable locus")


def test_smoothness_certificate_needs_a_quadric(monkeypatch, request, capsys):
    """The presentation's leading coefficients need q homogeneous of
    degree 2, and so does E_kl mapping q to a signed quadric, which W
    certifies as it is built: adding w3, invariant, free of w1 and
    non-stable, to a quadric makes W a bug."""
    broken_representation_is_a_bug(monkeypatch, request, capsys, "_quadratic_invariants",
                                   with_first_quadric_plus("w3"),
                                   "a quadratic invariant is not a homogeneous quadric")


def test_a_polarization_image_off_the_quadrics_is_a_bug(monkeypatch, request, capsys):
    """E_kl h = -grad f(q) . E_kl q, behind the smoothness verdict, needs
    each polarization operator to map each quadric to 0 or a signed
    quadric, which W certifies as it works out its table: w3*w5 is
    invariant, a quadric, free of w1 and non-stable, yet E_23 =
    w3*d/dw5 + w4*d/dw6 maps it to w3^2, so with it added to a quadric W
    is a bug."""
    broken_representation_is_a_bug(
        monkeypatch, request, capsys, "_quadratic_invariants", with_first_quadric_plus("w3*w5"),
        "a polarization operator maps a quadratic invariant to neither 0 nor a signed "
        "quadratic invariant")


@pytest.mark.parametrize("kept", ["all-but-the-last", "off-diagonal"])
def test_polarization_operators_short_of_full_rank_are_a_bug(kept, monkeypatch, request,
                                                             capsys):
    """B is smooth iff V(1 + f) is only because the E_kl s span A^N at
    s != 0, which W certifies by the rank of the operators' matrices on
    f's N variables: N**2, every linear map.  Without the last operator
    E_44, v4's matrices have rank 8, so W raises ValueError where it is
    built, caches nothing and `verify` exits 5, while v3, whose E_22
    alone spans its 1x1 matrices, still builds and passes.  Without the
    diagonal operators E_kk, v4's rank is 6 and v3's 0: both are bugs."""
    clear_representation_caches()
    request.addfinalizer(clear_representation_caches)

    def operators(blocks, repeat):
        pairs = list(product(blocks, repeat=repeat))
        return pairs[:-1] if kept == "all-but-the-last" else [(k, l) for k, l in pairs if k != l]

    monkeypatch.setattr(families, "product", operators)
    message = "the polarization operators do not span every linear map of the quadratic invariants"
    for spec in [v4("a")] + [v3("s")] * (kept == "off-diagonal"):
        with pytest.raises(ValueError, match=message):
            spec.w_ring
        with pytest.raises(ValueError, match=message):
            run_battery(spec)
    assert families._representation.cache_info().currsize == 0
    if kept == "all-but-the-last":
        assert run_battery(v3("s")).passed
    assert cli.main(["verify", "--family", "v4", "--f=a"], out=io.StringIO()) == 5
    assert capsys.readouterr().err.startswith(f"internal error: ValueError: {message}\n")


@pytest.mark.parametrize("text", ["t^2 + t", "(1+t)*(1+2*t)*(1+3*t) - 1"])
def test_v3_reads_f_in_its_own_variable(text):
    """FamilySpec takes a v3 shape in any one variable: over t the report
    is the one over s but for the `f` text, and so are the checks of a
    shape the validation rejects, which the Jacobian criterion decides."""
    T = VarSet(("t",))
    over_t, over_s = (FamilySpec("v3", parse(text, T)), v3(text.replace("t", "s")))
    docs = [cli.report_document(run_battery(spec), DEFAULT_CAPS, cli.DEFAULT_MAX_ROUNDS)
            for spec in (over_t, over_s)]
    assert [doc.pop("f") for doc in docs] == [str(over_t.f), str(over_s.f)]
    assert docs[0] == docs[1]
    forced = composed_checks(FamilySpec("v3", parse("(1+t)^2 - 1", T)))
    assert forced == composed_checks(v3("(1+s)^2 - 1"))
    assert forced["boundarySmooth"] is False


# -- boundary and ranks ----------------------------------------------------------------


def boundary(report):
    """(dim Ybar, dim B, m) of a report."""
    return report.dims.ybar, report.dims.b, report.m


def test_boundary_identity_instance():
    assert boundary(run_battery(v3("s"))) == (7, 5, 1)


def test_boundary_cubic_instance():
    assert boundary(run_battery(v3("(1+s)*(1+2*s)*(1+3*s) - 1"))) == (7, 5, 3)


def test_boundary_moduli_instance():
    assert boundary(run_battery(v4("a"))) == (9, 7, None)


def test_boundary_empty_rejected():
    """At f = 0, f(q) is the zero polynomial of W: X is w1 = 1 and B is
    the empty set -1 = 0, so `build_family` raises UnitIdealError, as
    the report's dims do on the unvalidated spec."""
    art = v3("0")
    assert art.x_ideal.generators == (art.w_ring.var("w1") - 1,)
    assert art.b_ideal.generators == (art.w_ring.const(-1),)
    with pytest.raises(UnitIdealError, match="^empty boundary: "):
        build_family(art)
    with pytest.raises(UnitIdealError):
        VerificationReport(art, True, None).dims


def test_rank_arithmetic():
    """The ranks are forced by m: a record of m alone carries them, and
    an empty boundary (m = 0) raises."""
    for m, ranks in ((1, (1, 2, 1)), (3, (3, 4, 1))):
        got = KTheoryRanks(m)
        assert (got.m, got.rank_z, got.rank_closure, got.rank_quotient) == (m, *ranks)
    for m in (0, -1):
        with pytest.raises(ValueError):
            KTheoryRanks(m)


# -- presentation ------------------------------------------------------------------------


def test_presentation_identity_instance():
    art = build_family(v3("s"))
    gens, relations = invariant_presentation(art)
    assert len(gens) == 5
    assert len(relations.generators) == 1
    relation = relations.generators[0]
    assert relation.total_degree() == 2
    assert relations.ring.names == ("y1", "y2", "y3", "y4", "y5")
    # hand syzygy oracle: with s1..s5 the sorted restricted generators,
    # z4*s5 - z2*s4 = s3^2 - s3 expands by hand, so the relation must be
    # y3^2 + y1*y4 - y2*y5 - y3 after monic normalization.
    assert relation == parse("y3^2 + y1*y4 - y2*y5 - y3", relations.ring)


@pytest.mark.parametrize("trivial", [0, 1])
@pytest.mark.parametrize("shape", ["s", "(1+s)*(1+2*s)*(1+3*s) - 1"], ids=["s", "cubic"])
def test_presentation_round_trip_reduces_to_zero(shape, trivial):
    """A linear and a non-linear graph, each with and without a trivial
    coordinate next to the dropped w1."""
    art = build_family(v3(shape, trivial))
    gens, relations = invariant_presentation(art)
    assignment = {f"y{i + 1}": g for i, g in enumerate(gens)}
    # back in the representation coordinates, reduce modulo the graph ideal
    w_ring = art.w_ring
    to_w = {f"z{i}": w_ring.var(w_ring.names[i]) for i in range(1, len(w_ring))}
    gb = buchberger(art.x_ideal)
    for relation in relations.generators:
        substituted = relation.substitute(
            {n: assignment[n] for n in relation.variables()}
        )
        assert substituted.is_zero()
        in_w = substituted.substitute(to_w) if substituted.variables() else \
            w_ring.const(substituted.constant_term())
        assert normal_form(in_w, gb).is_zero()


def test_presentation_requires_v3():
    art = build_family(v4("a"))
    with pytest.raises(ValueError):
        invariant_presentation(art)


# -- battery ------------------------------------------------------------------------------


def test_battery_identity_instance():
    report = run_battery(v3("s"))
    assert report.passed
    assert (report.dims.x, report.dims.quotient, report.dims.ybar,
            report.dims.b) == (5, 4, 7, 5)
    assert report.boundary_codim == 2
    assert report.m == 1
    assert (report.ranks.rank_z, report.ranks.rank_closure,
            report.ranks.rank_quotient) == (1, 2, 1)
    gens, relations = report.presentation
    assert len(gens) == 5 and len(relations.generators) == 1


def test_battery_trivial_summands():
    report = run_battery(v3("s", trivial=2))
    assert report.passed
    assert (report.dims.x, report.dims.quotient, report.dims.ybar,
            report.dims.b) == (7, 6, 9, 7)
    assert (report.ranks.rank_z, report.ranks.rank_closure,
            report.ranks.rank_quotient) == (1, 2, 1)


def test_battery_moduli_instance_reports_absent_ranks():
    report = run_battery(v4("a"))
    assert report.passed
    assert report.m is None and report.ranks is None and report.presentation is None
    assert report.boundary_codim == 2
    assert (report.dims.x, report.dims.quotient) == (7, 6)


# -- the representation caches -----------------------------------------------------------


def clear_representation_caches():
    families._representation.cache_clear()


def rendered_report(spec):
    report = run_battery(spec)
    return cli.render_report(cli.report_document(report, DEFAULT_CAPS, cli.DEFAULT_MAX_ROUNDS))


CACHE_CASES = ([(f"v3-deg{d}-triv{t}", "v3", signed_roots_shape(d, 7), t)
                for d in range(1, 13) for t in range(3)]
               + [(f"v4-{f}", "v4", parse(f, ABC), 0)
                  for f in ("a", "2*a - b + 3*c", "-1/2*a + 2*b - c")])


@pytest.mark.parametrize("label, family, f, trivial", CACHE_CASES,
                         ids=[case[0] for case in CACHE_CASES])
def test_cold_and_warm_caches_give_identical_reports(label, family, f, trivial):
    """A battery on a warm cache renders the same bytes as on a cold
    one, and builds no W: it reads W from the cache, and misses it never."""
    spec = FamilySpec(family, f, trivial)
    clear_representation_caches()
    cold = rendered_report(spec)
    before = families._representation.cache_info()
    warm = rendered_report(spec)
    after = families._representation.cache_info()
    assert warm == cold
    assert after.misses - before.misses == 0 < after.hits - before.hits


def test_the_v3_presentation_solves_no_kernel(monkeypatch):
    """The presentation names W's invariants: on cold caches, no v3
    battery and no `present` inserts a row into a linear echelon, which
    any kernel solve would, but for the rank certificate of each W built
    (`_representation`): one row per polarization operator, keyed by
    pairs (j, m) of quadrics, four for each of the three v3 Ws."""
    rows = []
    insert = linalg.Echelon.insert

    def certificate_only(self, terms, carried=None):
        rows.append(carried is None and all(len(m) == 2 for m in terms))
        return insert(self, terms, carried)

    monkeypatch.setattr(linalg.Echelon, "insert", certificate_only)
    for value in vars(families).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()
    for degree in range(1, 13):
        for trivial in range(3):
            assert run_battery(FamilySpec("v3", signed_roots_shape(degree, 7), trivial)).passed
    assert cli.main(["present", "--f=s"], out=io.StringIO()) == 0
    assert rows == [True] * 12


def test_threads_on_a_cold_cache_give_equal_reports():
    """More threads than cores start together on one W from a cold
    cache, switching as often as the interpreter allows; every report
    equals the one a single cold call renders."""
    spec = v3("s^3 - 2*s", trivial=1)
    clear_representation_caches()
    expected = rendered_report(spec)
    clear_representation_caches()
    threads = 4
    start = threading.Barrier(threads)

    def battery():
        start.wait(timeout=30)
        return rendered_report(spec)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            jobs = [pool.submit(battery) for _ in range(threads)]
            reports = [job.result(timeout=60) for job in jobs]
    finally:
        sys.setswitchinterval(interval)
    assert reports == [expected] * threads


def assert_core_checks(art):
    """The battery's invariance, affine space, stability and freeness
    verdicts hold, and so do they on X's expanded equation."""
    assert [composed_checks(art)[key] for key in ("invariant", "affineSpace", "stable", "free")] \
        == [True] * 4
    (equation,) = art.x_ideal.generators
    assert art.derivation.apply(equation).is_zero()
    assert "w1" not in (art.w_ring.var("w1") - equation).variables()
    assert check_stability(art)
    assert check_freeness(art)


def test_randomized_family_checks():
    """Sampled valid v3 and v4 instances all satisfy the core checks, on
    the battery's verdicts and on X's expanded equation, and the
    dimension laws."""
    rng = random.Random(20240830)
    for _ in range(8):
        spec = FamilySpec("v3", random_valid_f(rng), rng.choice([0, 0, 1]))
        art = build_family(spec)
        assert_core_checks(art)
        dim_ybar, dim_b, m = boundary(VerificationReport(art, True, None))
        assert dim_ybar - dim_b == 2
        assert m == spec.f.total_degree()
        ybar = ybar_ideal(art)
        assert krull_dimension(ybar) == len(ybar.ring) - 1
        assert krull_dimension(art.x_ideal) == len(art.w_ring) - 1
    for _ in range(4):
        coeffs = {(1, 0, 0): rng.randint(1, 3), (0, 1, 0): rng.randint(-3, 3),
                  (0, 0, 1): rng.randint(-3, 3)}
        from gaquot import Polynomial

        f = Polynomial(ABC, {k: v for k, v in coeffs.items() if v})
        if f.is_zero():
            continue
        art = build_family(FamilySpec("v4", f))
        assert_core_checks(art)
        dim_ybar, dim_b, m = boundary(VerificationReport(art, True, None))
        assert dim_ybar - dim_b == 2 and m is None


def test_ranks_track_component_count_randomized():
    rng = random.Random(20240831)
    for _ in range(10):
        f = random_valid_f(rng)
        ranks = KTheoryRanks(f.total_degree())
        assert ranks.rank_closure == ranks.rank_z + 1
        assert ranks.rank_quotient == 1
