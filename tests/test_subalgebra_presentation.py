"""subalgebra_presentation against the route it replaces: one Groebner
subalgebra membership run per candidate, then a from-scratch elimination
of the survivors' graph ideal; survivors and relations must agree string
for string, tag names included."""

import hashlib
import io
import random
from collections import Counter
from fractions import Fraction

import pytest

from gaquot import (Ideal, Polynomial, ResourceCapError, ResourceCaps, RingMismatchError, VarSet,
                    monic, parse)
from gaquot.poly import scan_identifiers
from gaquot import derivations, families, groebner
from gaquot.cli import main
from gaquot.derivations import _sorted_gens
from gaquot.families import FamilySpec, build_family, invariant_presentation, run_battery
from gaquot.groebner import (DEFAULT_CAPS, _GraphSpan, _first_fields, _graph_packing,
                             _graph_relations, _graph_run, _relations,
                             subalgebra_presentation)
from helpers import (eliminate, graph_ideal, groebner_minimal_generators, points_mod_p,
                     random_poly, restricted_w_invariants, signed_roots_shape,
                     spolynomials_per_run, tag_ring, unsplit_v3_presentation)


def reference(ring, candidates):
    survivors = groebner_minimal_generators(candidates)
    relations = eliminate(graph_ideal(ring, survivors), len(ring))
    return ([str(g) for g in survivors], relations.ring.names,
            [str(r) for r in relations.generators])


def printed(survivors, relations):
    return ([str(g) for g in survivors], relations.ring.names,
            [str(r) for r in relations.generators])


def presented(ring, candidates):
    return printed(*subalgebra_presentation(ring, _sorted_gens(candidates)))


def inhomogeneous_candidates(rng, ring):
    """Random polynomials with constant terms, members of the subalgebra
    they generate (sums, products and scalings of them), and constants."""
    base = [random_poly(rng, ring, max_degree=2, max_terms=3, nonconstant=True)
            + rng.choice((1, -2, 3)) for _ in range(rng.randint(2, 3))]
    cands = list(base)
    for _ in range(rng.randint(2, 4)):
        p, q = rng.choice(base), rng.choice(base)
        kind = rng.choice(("product", "sum", "scalar"))
        if kind == "product":
            cands.append(p * q + rng.choice((-1, 2)))
        elif kind == "sum":
            cands.append(p * rng.choice((2, -3)) + q)
        else:
            cands.append(p * rng.choice((-1, 3)) + 5)
    cands.append(ring.const(rng.choice((1, -7))))
    cands.append(random_poly(rng, ring, max_degree=2, max_terms=2, nonconstant=True))
    rng.shuffle(cands)
    return cands


@pytest.mark.parametrize("names", [("x", "y", "z"), ("x", "y1", "z"), ("y3", "x")],
                         ids=["xyz", "taken-y1", "taken-y3"])
def test_matches_membership_then_elimination_on_seeded_lists(names):
    """subalgebra_presentation and the span `derivations._span` builds
    keep what the reference filter keeps, and the relations are a fresh
    elimination over the survivors, by the library's graph run and by
    the polynomial recipe alike."""
    ring = VarSet(names)
    rng = random.Random(f"presentation:{names}")
    dropped = 0
    for _ in range(6):
        cands = inhomogeneous_candidates(rng, ring)
        want = reference(ring, cands)
        survivors, relations = subalgebra_presentation(ring, _sorted_gens(cands))
        assert printed(survivors, relations) == want
        assert survivors == groebner_minimal_generators(cands) \
            == derivations._span(ring, cands, DEFAULT_CAPS).kept
        assert relations == _graph_relations(ring, survivors, (), DEFAULT_CAPS)
        dropped += len(cands) - len(want[0])
    assert dropped > 12  # the constants, and members beyond them


def shifted_monomial_lists(seed: str, count: int):
    """(ring, lists): `count` seeded lists of five candidates over x, y,
    z, each a monomial of degree 2 or 3 plus 0, 1 or -2, whose
    subalgebras have several relations."""
    rng = random.Random(seed)
    ring = VarSet(("x", "y", "z"))
    monomials = [m for m in (tuple(rng.randint(0, 3) for _ in ring) for _ in range(200))
                 if 2 <= sum(m) <= 3]
    return ring, [[Polynomial(ring, {m: 1, (0, 0, 0): rng.choice((0, 1, -2))})
                   for m in rng.sample(monomials, 5)] for _ in range(count)]


def test_caps_bound_each_membership_run_and_the_elimination(monkeypatch):
    """A span tests each candidate in one membership run, and
    subalgebra_presentation eliminates over the survivors in one more:
    as many runs as candidates, plus one.  `caps` bounds each run on its
    own, so a pair budget of the largest run's count passes although
    the runs together reduce more, and one pair less raises."""
    ring, lists = shifted_monomial_lists("caps per run", 6)
    spread = 0
    for cands in lists:
        cands = _sorted_gens(cands)
        want = subalgebra_presentation(ring, cands)
        runs = spolynomials_per_run(monkeypatch, lambda: subalgebra_presentation(ring, cands))
        assert len(runs) == len(cands) + 1
        caps = ResourceCaps(max_pairs=max(runs))
        got = []
        capped = spolynomials_per_run(
            monkeypatch, lambda: got.append(subalgebra_presentation(ring, cands, caps)))
        assert capped == runs and all(count <= caps.max_pairs for count in capped)
        assert got == [want]
        if max(runs):
            with pytest.raises(ResourceCapError, match="pair budget"):
                subalgebra_presentation(ring, cands, ResourceCaps(max_pairs=max(runs) - 1))
        spread += sum(runs) > max(runs)
    assert spread >= 5


def test_tags_are_named_for_the_survivors():
    """With y3 taken, two survivors are tagged y1, y2 although five
    candidates would need yy1..yy5; with y1 taken, tags are yy1, yy2, ..."""
    ring = VarSet(("y3", "x"))
    cands = [parse(t, ring) for t in ("x + 1", "y3", "x^2 + 2*x", "y3*x + y3", "7")]
    survivors, relations = subalgebra_presentation(ring, _sorted_gens(cands))
    assert [str(g) for g in survivors] == ["x + 1", "y3"]
    assert relations.ring.names == ("y1", "y2")
    assert relations.generators == (relations.ring.zero(),)
    ring = VarSet(("x", "y1"))
    cands = [parse(t, ring) for t in ("y1", "x^2", "x^3", "x^4*y1 - x^2")]
    survivors, relations = subalgebra_presentation(ring, cands)
    assert [str(g) for g in survivors] == ["y1", "x^2", "x^3"]
    assert relations.ring.names == ("yy1", "yy2", "yy3")
    assert [str(r) for r in relations.generators] == ["yy2^3 - yy3^2"]


def test_only_constants_and_no_candidates():
    ring = VarSet(("x",))
    survivors, relations = subalgebra_presentation(ring, [ring.const(3), ring.one()])
    assert survivors == [] and relations.ring.names == ()
    assert relations.generators == (relations.ring.zero(),)
    with pytest.raises(ValueError):
        subalgebra_presentation(ring, [])


def assert_lone_candidates_are_exact(monkeypatch, ring, candidates):
    """subalgebra_presentation agrees with membership-then-elimination,
    string for string, and its lone candidates, single terms c*x of
    degree 1 whose x occurs in no other candidate, cost no S-polynomial:
    the product criterion prunes their seeds' pairs, so the runs reduce
    as many in all as on the other candidates alone."""
    ordered = _sorted_gens(candidates)
    got = presented(ring, candidates)
    assert got == reference(ring, candidates)
    used = Counter(name for p in ordered for name in p.variables())
    rest = [p for p in ordered
            if len(p.terms) != 1 or p.total_degree() != 1 or used[p.variables()[0]] != 1]
    runs = spolynomials_per_run(monkeypatch, lambda: subalgebra_presentation(ring, ordered))
    rest_runs = spolynomials_per_run(monkeypatch, lambda: subalgebra_presentation(ring, rest)) \
        if rest else []
    assert sum(runs) == sum(rest_runs)
    return got


@pytest.mark.parametrize("texts, survivors, relations", [
    # x occurs in two candidates, so neither is lone
    (["x", "-2/3*x", "y*z + 1", "y^2"], ["-2/3*x", "y*z + 1", "y^2"], []),
    # e occurs in e*x + 1 as well
    (["e", "e*x + 1", "x^2", "e^2*x^2 + 2*e*x"], ["e", "e*x + 1", "x^2"],
     ["y1^2*y3 - y2^2 + 2*y2 - 1"]),
    # every candidate lone
    (["2*x", "-y", "1/3*z"], ["-y", "1/3*z", "2*x"], []),
    (["x"], ["x"], []),
    # lone e and y1 after the dropped 7 and b, and a relation to rename
    (["7", "2*b", "b", "e", "y1", "a^2", "a^3", "a^4", "a^2*b"],
     ["2*b", "e", "y1", "a^2", "a^3"], ["yy4^3 - yy5^2"]),
], ids=["scaled-twice", "in-another", "all-lone", "single", "lone-after-dropped"])
def test_lone_candidates_match_the_reference(monkeypatch, texts, survivors, relations):
    names = sorted({n for t in texts for n in scan_identifiers(t)})
    ring = VarSet(tuple(names))
    got = assert_lone_candidates_are_exact(monkeypatch, ring, [parse(t, ring) for t in texts])
    assert got[0] == survivors and got[2] == (relations or ["0"])


def test_lone_candidates_in_seeded_lists(monkeypatch):
    """Seeded inhomogeneous lists with single-term degree-1 candidates in
    fresh variables (one named y1, a tag name) at random places; some
    such variable also occurs in a second candidate, or twice scaled."""
    rng = random.Random("lone")
    lone_seen = 0
    for _ in range(25):
        extra = ["y1", "e1", "e2", "e3"][:rng.randint(1, 4)]
        ring = VarSet(("x", "y", "z") + tuple(extra))
        base = VarSet(("x", "y", "z"))
        cands = [p.embed(ring) for p in inhomogeneous_candidates(rng, base)]
        for name in extra:
            e = ring.var(name)
            cands.append(e * rng.choice((1, -2, Fraction(2, 3))))
            kind = rng.random()
            if kind < 0.2:
                cands.append(e * rng.choice((3, Fraction(-1, 2))))
            elif kind < 0.4:
                cands.append(e * rng.choice(cands[:3]) + 1)
            else:
                lone_seen += 1
        rng.shuffle(cands)
        assert_lone_candidates_are_exact(monkeypatch, ring, cands)
    assert lone_seen > 20


def signed_shape(rng, degree):
    """f with f + 1 = prod (1 +- k*s), k = 1..degree: distinct roots, so
    f + 1 is squarefree."""
    factors = "*".join(f"(1 {rng.choice('+-')} {k}*s)" for k in range(1, degree + 1))
    return f"{factors} - 1"


def rational_shape(rng, degree):
    """f with f + 1 = prod (1 - s/r) over the roots r = +-k/d, k =
    1..degree, for a seeded odd d: distinct roots, and for degree >= 2 a
    leading coefficient +-d**degree/degree! that is not an integer, so the
    leading coefficients of the minors' images and the denominators of f
    meet in the seeds."""
    d = rng.choice((3, 5, 7))
    factors = "*".join(f"(1 {rng.choice('+-')} {d}/{k}*s)" for k in range(1, degree + 1))
    return f"{factors} - 1"


_SHAPES = random.Random(12)
V3_CASES = ([(f"deg{d}", signed_shape(_SHAPES, d), 0) for d in range(1, 13)]
            + [(f"triv{t}", "-3/2*s", t) for t in range(11)]
            + [(f"signed-deg{d}-triv{t}", str(signed_roots_shape(d, 10 * d + t)), t)
               for d in range(1, 13) for t in range(3)]
            + [(f"rational-deg{d}-triv{d % 3}", rational_shape(_SHAPES, d), d % 3)
               for d in range(2, 10)])


def presentation_run(monkeypatch, compute):
    """(run, relations, value): the one run invariant_presentation
    completes while `compute` runs, the relations it reads off that run,
    and the value `compute` returns."""
    seen = []

    def recording(run, ring, count):
        relations = _relations(run, ring, count)
        seen.append((run, relations))
        return relations

    with monkeypatch.context() as patch:
        patch.setattr(families, "_relations", recording)
        value = compute()
    [(run, relations)] = seen
    return run, relations, value


def core_candidates(f):
    """The candidates over z1..z5 whose graph ideal the presentation's run
    eliminates: the survivors of f with no trivial summand, which join
    only afterwards."""
    return list(invariant_presentation(FamilySpec("v3", f))[0])


@pytest.mark.parametrize("label, shape, trivial", V3_CASES, ids=[c[0] for c in V3_CASES])
def test_v3_presentation_matches_membership_then_elimination(monkeypatch, label, shape, trivial):
    """Every candidate survives, and the one elimination of their packed
    seeds finds the relations of the reference on the candidates and of
    the filtering route, `subalgebra_presentation`, on them; the
    presentation equals the reference on every restricted W-invariant,
    trivial coordinates included."""
    spec = build_family(FamilySpec("v3", parse(shape, VarSet(("s",))), trivial))
    _, relations, presentation = presentation_run(monkeypatch,
                                                  lambda: invariant_presentation(spec))
    ring, candidates = families._CORE, core_candidates(spec.f)
    assert printed(candidates, relations) == reference(ring, candidates)
    assert printed(*subalgebra_presentation(ring, candidates)) == printed(candidates, relations)
    assert printed(*presentation) == reference(*restricted_w_invariants(spec.f, trivial))


def substituted_rows(expanded):
    """The rows of `expanded`, the graph run of the five candidates over
    z1..z5, after its two linear seed rows y1 - z2 and y2 - z4, repacked
    under `_graph_packing(3, 5)` with z2 read as y1 and z4 as y2: the
    rows of the run over z1, z3 and z5 that the substitution leaves."""
    packing, substituted = expanded.packing, _graph_packing(3, 5)
    assert [packing.unpack(lm)[:5] for lm, _, _ in expanded.basis[:2]] == \
        [(0, 1, 0, 0, 0), (0, 0, 0, 1, 0)]

    def repack(m):
        z1, z2, z3, z4, z5, y1, y2, *rest = packing.unpack(m)
        return substituted.pack((z1, z3, z5, y1 + z2, y2 + z4, *rest))

    return [(repack(lm), lc, tuple((repack(m), c) for m, c in tail))
            for lm, lc, tail in expanded.basis[2:]]


def assert_seeds_match_the_candidates(monkeypatch, spec, candidates, expanded):
    """The run invariant_presentation seeds with packed term dicts over z1,
    z3 and z5 adds the rows of `expanded`, the graph run of the candidates
    its seeds stand for, after its two linear seed rows and with z2 and z4
    read as their tags y1 and y2; it reduces as many S-polynomials and
    yields the same relations."""
    run, relations, _ = presentation_run(monkeypatch, lambda: invariant_presentation(spec))
    assert run.basis == substituted_rows(expanded)
    assert run.reductions == expanded.reductions
    assert relations == _relations(expanded, families._CORE, len(candidates))


PACKED_SHAPES = ([(f"signed-deg{d}-seed{seed}", signed_roots_shape(d, seed))
                  for d in range(1, 25) for seed in (1, 7)]
                 + [(label, parse(shape, VarSet(("s",))))
                    for label, shape, _ in V3_CASES if label.startswith("rational")])


@pytest.mark.parametrize("label, f", PACKED_SHAPES, ids=[c[0] for c in PACKED_SHAPES])
def test_packed_seeds_match_the_graph_run_of_the_candidates(monkeypatch, label, f):
    """The seeds invariant_presentation packs from the closed form, with
    q's tag in the minors' seeds and f's denominators cleared once, are
    positive multiples of the graph generators y_i - g_i of the
    candidates g_i, up to a multiple of q's, once y1 - z2 and y2 - z4
    have substituted z2 and z4 away: its run equals `_graph_run` of the
    expanded candidates row for row after those two rows, at t = 0, 1
    and 5, on signed-roots shapes of degree 1-24 and on the rational
    shapes of V3_CASES."""
    candidates = core_candidates(f)
    expanded = _graph_run(families._CORE, candidates, (), DEFAULT_CAPS)
    assert len(candidates) == 5 and expanded.reductions == 5
    for trivial in (0, 1, 5):
        spec = build_family(FamilySpec("v3", f, trivial))
        assert_seeds_match_the_candidates(monkeypatch, spec, candidates, expanded)


@pytest.mark.parametrize("trivial", [0, 1])
@pytest.mark.parametrize("shape", ["s + 1", "s - 1", "s^2 + 3"])
def test_v3_presentation_keeps_f_at_zero(shape, trivial):
    """Built without validation, a shape with f(0) != 0 restricts w1 to
    1 + f(q), with its constant 1 + f(0) (0 for s - 1), and its
    presentation equals the reference on the restricted W-invariants."""
    spec = FamilySpec("v3", parse(shape, VarSet(("s",))), trivial)
    presentation = invariant_presentation(spec)
    assert printed(*presentation) == reference(*restricted_w_invariants(spec.f, trivial))


@pytest.mark.parametrize("trivial", [0, 1])
@pytest.mark.parametrize("shape", ["0", "3", "-1"])
def test_v3_presentation_refuses_a_constant_one_plus_f(shape, trivial):
    """A constant 1 + f, here 1, 4 and 0, comes only from a spec that
    `build_family` rejects (f = 0, or f(0) != 0): the presentation
    raises ValueError on it before any run."""
    spec = FamilySpec("v3", parse(shape, VarSet(("s",))), trivial)
    with pytest.raises(ValueError, match="^the presentation needs a nonconstant 1 [+] f$"):
        invariant_presentation(spec)


def test_v3_battery_and_present_build_no_span(monkeypatch):
    """The v3 presentation is one elimination of its known survivors: a
    battery on every case of V3_CASES builds no `_GraphSpan`."""
    def refuse(*args, **kwargs):
        raise AssertionError("a subalgebra span was built")

    monkeypatch.setattr(groebner._GraphSpan, "__init__", refuse)
    for _, shape, trivial in V3_CASES:
        assert run_battery(FamilySpec("v3", parse(shape, VarSet(("s",))), trivial)).passed


TAGS = VarSet(tuple(f"y{i}" for i in range(1, 6)))  # the tags of the five survivors


@pytest.mark.parametrize("forced", [
    lambda survivors: Ideal(TAGS, (parse("y1 - y5", TAGS),)),  # z2 a polynomial in y5's
    lambda survivors: Ideal(TAGS, (TAGS.zero(),)),  # no relation at all
    # z2 twice: y1 - y6 and the closed-form r
    lambda survivors: _graph_relations(families._CORE, [*survivors, survivors[0]], (),
                                       DEFAULT_CAPS),
], ids=["linear-tag", "zero-ideal", "repeat-at-s"])
def test_the_minimality_check_fires_on_a_redundant_survivor(monkeypatch, forced):
    """invariant_presentation raises ValueError unless the relation ideal
    has one nonzero generator in which no survivor's tag occurs linearly
    with a constant coefficient, which would make that survivor a
    polynomial in the others.  At f = s each case stands in for the
    run's relations: one linear in y1 with a constant coefficient, the
    zero ideal, and the two relations of the survivors with a second
    z2."""
    spec = FamilySpec("v3", parse("s", VarSet(("s",))))
    survivors = list(invariant_presentation(spec)[0])
    monkeypatch.setattr(families, "_relations", lambda run, ring, count: forced(survivors))
    with pytest.raises(ValueError, match="not one relation among minimal generators"):
        invariant_presentation(spec)


@pytest.mark.parametrize("degree", [8, 9, 10, 98, 99, 100])
def test_v3_survivors_are_sorted_where_the_minors_flip(degree):
    """The two minors are ordered by their printed leading monomials,
    z3^(d+1)*z4^d and z3^d*z4^d*z5 for f = s^d + s: as text, the z3
    minor comes first only where d + 1 is a power of ten (d = 9, 99).
    On either side of each flip the survivors are `_sorted_gens`'s
    order."""
    caps = ResourceCaps(max_degree=500)
    f = parse(f"s^{degree} + s", VarSet(("s",)))
    survivors = list(invariant_presentation(build_family(FamilySpec("v3", f), caps), caps)[0])
    assert survivors == _sorted_gens(survivors)
    assert str(survivors[3]).startswith(f"z3^{degree + 1}*") == (degree in (9, 99))


CLOSED_FORM_SHAPES = (
    [(text, parse(text, VarSet(("s",)))) for text in
     ("s", "-s", "2*s", "s^2 + 3*s", "s^3 - 2*s", "1/2*s^2 - 1/2*s", "-3/2*s^3 + s", "s^2")]
    + [(f"signed-deg{d}", signed_roots_shape(d, 7)) for d in range(1, 13)])


@pytest.mark.parametrize("trivial", [0, 1, 2])
@pytest.mark.parametrize("label, f", CLOSED_FORM_SHAPES, ids=[c[0] for c in CLOSED_FORM_SHAPES])
def test_v3_relation_is_the_closed_form(label, f, trivial):
    """The relation ideal is (monic r) for r = (1 + f(y_q))*y_q -
    y_w3*y_d13 + y_w5*y_d12, the restriction to X of w1*q - w3*d13 +
    w5*d12 = 0 with d12 = w1*w4 - w2*w3 and d13 = w1*w6 - w2*w5, each
    y_g the tag of the survivor that is a scalar multiple c of g's
    restriction (w1 -> 1 + f(q)), scaled by 1/c.  The expected value is
    written from f alone, with no Groebner run; the trivial coordinates
    survive as themselves and join no relation."""
    gens, relations = invariant_presentation(build_family(FamilySpec("v3", f, trivial)))
    z_ring = VarSet(tuple(f"z{i}" for i in range(1, 6 + trivial)))
    z = [z_ring.var(n) for n in z_ring.names]  # z_i is w_(i+1) on X
    q = z[1] * z[4] - z[2] * z[3]
    w1 = 1 + f.substitute({f.ring.names[0]: q})
    restricted = {"w3": z[1], "w5": z[3], "q": q,
                  "d12": w1 * z[2] - z[0] * z[1], "d13": w1 * z[4] - z[0] * z[3]}
    scaled, trivial_tags = {}, []
    for tag, g in zip(relations.ring.names, gens):
        lead = next(iter(g.terms))  # any term of g fixes the scalar
        scales = {name: Fraction(g.terms[lead], h.terms[lead])
                  for name, h in restricted.items() if lead in h.terms}
        matches = [name for name, c in scales.items() if g == restricted[name] * c]
        if not matches:
            assert g in z[5:]
            trivial_tags.append(tag)
            continue
        [name] = matches
        scaled[name] = relations.ring.var(tag) * (1 / scales[name])
    assert set(scaled) == set(restricted) and len(trivial_tags) == trivial
    y_q = scaled["q"]
    r = ((1 + f.substitute({f.ring.names[0]: y_q})) * y_q
         - scaled["w3"] * scaled["d13"] + scaled["w5"] * scaled["d12"])
    assert relations.generators == (monic(r),)


# shape -> (p, trivial summands, point count) cases
@pytest.mark.parametrize("shape, counts", [
    ("s", ((2, 0, 20), (3, 0, 90), (5, 0, 650), (7, 0, 2450), (5, 1, 3250))),
    ("s^2 + 3*s", ((2, 0, 16), (3, 0, 81), (5, 0, 650), (7, 0, 2401), (5, 1, 3250))),
    ("s^3 - 2*s", ((2, 0, 20), (3, 0, 90), (5, 0, 675), (7, 0, 2450))),
    ("s^2", ((2, 0, 20), (3, 0, 81), (5, 0, 675), (7, 0, 2401))),
    ("2*s", ((3, 0, 90),)),
    ("1/2*s^2 - 1/2*s", ((3, 0, 81),)),
])
def test_v3_relations_count_points_over_finite_fields(shape, counts):
    """Over F_p the relations of a v3 presentation with t trivial summands
    cut out p^(4+t) + n_p*p^(2+t) points of F_p^(5+t), n_p the number of
    distinct roots of 1 + f in F_p: p^(4+t) points of Y (X is affine
    (5+t)-space, and each Ga-torsor over an F_p-point is trivial) and
    n_p*p^(2+t) off Y.  f = s^2 counts both roots of 1 + s^2 over F_5,
    none over F_3 and F_7, and one over F_2, where 1 + s^2 = (1 + s)^2.
    Counted by brute force, with no Groebner run, on the survivors' tags."""
    f = parse(shape, VarSet(("s",)))
    for p, trivial, count in counts:
        _, relations = invariant_presentation(build_family(FamilySpec("v3", f, trivial)))
        assert len(relations.ring) == 5 + trivial
        roots = points_mod_p([f + 1], p)
        assert points_mod_p(relations.generators, p) \
            == p ** (4 + trivial) + roots * p ** (2 + trivial) == count


def test_point_counts_refuse_what_is_not_2_integral():
    """There is no count over F_2 for 2s, whose relation has the
    coefficient -1/2, nor for 1/2*s^2 - 1/2*s, whose relation
    y3^3 + y3^2 + y1*y4 - y2*y5 + 2*y3 is 2-integral but whose 1 + f is
    not: `points_mod_p` raises ValueError on either."""
    def relations(shape):
        spec = FamilySpec("v3", parse(shape, VarSet(("s",))))
        return invariant_presentation(build_family(spec))[1].generators

    with pytest.raises(ValueError, match="-1/2 is not 2-integral"):
        points_mod_p(relations("2*s"), 2)
    half = parse("1/2*s^2 - 1/2*s", VarSet(("s",)))
    assert all(Fraction(c).denominator == 1
               for r in relations(str(half)) for c in r.terms.values())
    with pytest.raises(ValueError, match="is not 2-integral"):
        points_mod_p([half + 1], 2)


@pytest.mark.parametrize("trivial, degrees", [
    (0, range(1, 13)), (1, range(1, 13)), (2, range(1, 13)), (5, range(1, 13)),
    (10, range(1, 13)), (40, (3,)),
], ids=["t0", "t1", "t2", "t5", "t10", "t40"])
def test_v3_presentation_matches_the_unsplit_span(monkeypatch, trivial, degrees):
    """invariant_presentation eliminates only the candidates free of
    trivial coordinates and adjoins those coordinates after; it matches
    one span of every restricted W-invariant string for string, on seeded
    signed-roots shapes, with one run of 5 S-polynomials."""
    for degree in degrees:
        f = signed_roots_shape(degree, 100 * trivial + degree)
        art = build_family(FamilySpec("v3", f, trivial))
        got = []
        assert spolynomials_per_run(
            monkeypatch, lambda: got.append(invariant_presentation(art))) == [5]
        assert printed(*got[0]) == printed(*unsplit_v3_presentation(f, trivial))


def test_tag_only_rows_interreduce_among_themselves(monkeypatch):
    """The relations are the tag-only rows of the run, interreduced among
    themselves alone; they are the tag-only rows of the whole reduced
    basis, on graph ideals of shifted monomials, whose subalgebras have
    several relations, and on the v3 presentation's elimination of its
    seeds."""
    ring, lists = shifted_monomial_lists("tag-only", 8)
    runs = [(_graph_run(ring, candidates, (), DEFAULT_CAPS), len(ring)) for candidates in lists]
    for degree in (1, 3, 7, 12):
        spec = build_family(FamilySpec("v3", signed_roots_shape(degree, degree), 1))
        run = presentation_run(monkeypatch, lambda: invariant_presentation(spec))[0]
        runs.append((run, len(families._ELIMINATED)))
    relations = []
    for run, n in runs:
        whole = [row for row in run.reduced() if not row[0] & _first_fields(n)]
        assert run.reduced(_first_fields(n)) == whole
        relations.append(len(whole))
    assert max(relations) >= 4 and min(relations) >= 1


def test_present_degree_20_output_is_pinned():
    """The exact output of `present` for a degree-20 shape, as the
    membership-then-elimination route printed it."""
    shape = "*".join(f"(1 {'+' if k % 2 else '-'} {k}*s)" for k in range(1, 21)) + " - 1"
    out = io.StringIO()
    assert main(["present", f"--f={shape}"], out=out) == 0
    text = out.getvalue()
    assert text.endswith("round-trip: verified\n")
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "d3686c8f2a07d41e10020b90a06f277caf7b12fd8f848023657b20807682afef"


# -- packed seeds ----------------------------------------------------------------


@pytest.mark.parametrize("trivial", [0, 1, 2])
def test_v3_seeds_are_reduced_through_the_tag_of_q(monkeypatch, trivial):
    """At degree 12 the images of the two minors with w1 expand to 93
    terms each, which reduce to 15; the packed seeds name q's tag, so the
    reduction starts from those 15 terms, also with trivial summands,
    which are adjoined after the elimination.  The pins list each seed's
    size and its remainder's, in seed order; w1's own image, 1 + f(q)
    without its constant, is a polynomial in q and is never built, and
    z2 and z4 are their own tags y1 and y2, so the packed run has no
    seeds y1 - z2 and y2 - z4 (the first four sizes of the expanded
    run)."""
    spec = build_family(FamilySpec("v3", signed_roots_shape(12, 7), trivial))
    candidates = core_candidates(spec.f)
    sizes = []

    class Recorded(groebner._Run):
        def reduce(self, work):
            before = len(work)
            reduced = super().reduce(work)
            if not self.reductions:  # the seeds are reduced before any S-polynomial
                sizes.extend((before, len(reduced)))
            return reduced

    monkeypatch.setattr(groebner, "_Run", Recorded)
    invariant_presentation(spec)
    assert sizes == [3, 3, 15, 15, 15, 15]
    sizes.clear()
    _graph_run(families._CORE, candidates, (), DEFAULT_CAPS)
    assert sizes == [2, 2, 2, 2, 3, 3, 93, 15, 93, 15]


@pytest.mark.parametrize("degree", [1, 6, 12, 24])
def test_v3_run_work_counts_are_pinned(monkeypatch, degree):
    """The deterministic work of the presentation's one run, the bulk of a
    v3 battery: 8 exponent fields (z1, z3, z5 and the five tags), 3 seeds
    (q's and the two minors'), 5 rows and 5 S-polynomials reduced, at
    every degree of f and with t = 0, 1 and 5 trivial summands, which
    join after the run.  While the run eliminated z1..z5 it packed 10
    fields, seeded 5 and kept 7 rows, y1 - z2 and y2 - z4 among them."""
    seeded = []

    def recording(packing, seeds, caps):
        seeded.append(len(seeds))
        return groebner._completed_run(packing, seeds, caps)

    monkeypatch.setattr(families, "_completed_run", recording)
    for trivial in (0, 1, 5):
        spec = build_family(FamilySpec("v3", signed_roots_shape(degree, degree + trivial), trivial))
        run = presentation_run(monkeypatch, lambda: invariant_presentation(spec))[0]
        assert (len(run.packing.weights), len(run.basis), run.reductions) == (8, 5, 5)
    assert seeded == [3, 3, 3]


def test_graph_generators_over_another_ring_are_rejected():
    """`_graph_run` takes generators over its ring alone: one over the ring
    extended by tags, as many as the generators or more, or over another
    ring raises RingMismatchError."""
    ring = VarSet(("a", "b", "c"))
    cands = [parse("a", ring), parse("b", ring)]
    for other in (tag_ring(ring, 2), tag_ring(ring, 4), VarSet(("a", "b"))):
        with pytest.raises(RingMismatchError):
            _graph_run(ring, [cands[0], other.var("a")], (), DEFAULT_CAPS)


def test_the_public_presentation_takes_no_seed_forms():
    """No entry point takes seed forms: subalgebra_presentation takes
    (ring, candidates, caps) and rejects a fourth argument, which could
    drop a candidate that is no member, such as y from Q[x, y]; a span
    and subalgebra_membership reject a polynomial naming a tag as a
    candidate over another ring."""
    ring = VarSet(("x", "y"))
    x, y = ring.var("x"), ring.var("y")
    forms = [x, tag_ring(ring, 2).var("y1")]
    with pytest.raises(TypeError):
        subalgebra_presentation(ring, [x, y], forms=forms)
    with pytest.raises(TypeError):
        subalgebra_presentation(ring, [x, y], groebner.DEFAULT_CAPS, forms)
    assert subalgebra_presentation(ring, [x, y])[0] == [x, y]
    with pytest.raises(RingMismatchError):
        _GraphSpan(ring, forms)
    with pytest.raises(RingMismatchError):
        groebner.subalgebra_membership(x, forms)
