"""Construction and verification of the two quotient families.

A family instance is a hypersurface X inside a linear representation W of
the additive group (three or four two-dimensional blocks plus optional
trivial summands), cut out by w1 = 1 + f applied to the quadratic
invariants.  Each object is built once, in the coordinates it lives in:
the action is the lower triangular derivation of W, X and the boundary B
(the closure at u = v = 0) are hypersurfaces of W, and only the closure
Ybar adds the two coordinates (u, v).  The battery certifies, by exact
ideal computations:

  * the defining equation and the quadratic forms are invariant,
  * X is a coordinate graph, hence affine space,
  * X avoids the non-stable locus (unit ideal test),
  * the fundamental vector field has no zeros on X (free action),
  * the closure Ybar and the boundary B are smooth,
  * the boundary has codimension 2, with one component per root of f + 1,

and derives the forced ranks of the K-theory groups from the component
count, plus a presentation of the invariant ring by tag-variable
elimination, computed together with its minimal generators in one
Groebner run, whose seeds name the tag of the quadratic invariant
instead of expanding its powers.  The run spans only the generators
free of the trivial summands' coordinates, which Ga fixes; those join
the presentation afterwards as free generators.

Stability and freeness test one ideal, since the zeros of the action are
the non-stable locus, so the battery runs that unit-ideal test once; it
makes no Groebner run, as `is_unit_ideal` sets the non-stable
coordinates w1, w3, w5 (and w7) to zero, which leaves X's equation at
-1 - f(0) = -1.
Ybar's equation is u*w2 - v*w1 plus B's, which is free of u, v, w1 and
w2, so Ybar is the cone over B and smooth iff B is
(`_check_cone_over_boundary` checks the identity); smoothness is decided
on B alone.  That is the Jacobian criterion (`check_smooth`), except that
for v3 two polynomial identities certify it with no Groebner run
(`_jacobian_identities`): they put 1 + f(q) and q*f'(q) in the Jacobian
ideal, and these are coprime because f(0) = 0 and f + 1 is squarefree,
which the construction has validated.  The Euler operator of the second
scales each term by a weight, so each identity is one pass over B's
terms.  X, Ybar and B are hypersurfaces, whose dimensions
`krull_dimension` reads off their one equation.  The validation's
squarefree test of f + 1 is a modular certificate, with the gcd over Q
only as its fallback.  So the battery's Buchberger runs are the
presentation and, for v4, B's Jacobian criterion.  A ResourceCapError
raised by the battery names the stage, by its report key, in front of
the cap.

What depends on W alone is built once per process, in two bounded
caches: W's derivation, the ambient ring and the quadratic invariants
per (family, trivial summands) (`_representation`), and per family the
degree-<= 2 invariants of W without trivial summands, which the
presentation restricts to X (`_w_invariants`).  Everything that depends
on f or on the caps (f(q), X, Ybar, B, the checks, the presentation's
Groebner run) is built per call, so reports are byte-identical whether
the caches are cold or warm.  A long-lived caller that sweeps f over
one W gains; one `gaquot verify` per process builds W once either way.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from operator import add
from typing import Optional

from .derivations import (
    Derivation,
    _check_coefficient_space,
    _sorted_gens,
    fixed_point_ideal,
    kernel_linear,
    lower_triangular_derivation,
)
from .errors import (
    NonzeroConstantError,
    NotHypersurfaceError,
    RepeatedRootsError,
    ResourceCapError,
    UnitIdealError,
    UsageError,
)
from .groebner import (
    DEFAULT_CAPS,
    Ideal,
    ResourceCaps,
    _EXPONENT_BOUND,
    _tag_ring,
    is_squarefree,
    is_unit_ideal,
    krull_dimension,
    subalgebra_presentation,
)
from .poly import Polynomial, VarSet, _exact_quotient, _grevlex_descending, _product, fresh_names

# Family name -> (number of two-dimensional blocks, variables of f).  f has
# one variable per quadratic invariant, i.e. per pair of non-leading blocks.
FAMILIES = {"v3": (3, ("s",)), "v4": (4, ("a", "b", "c"))}

# Degree bound of the linear kernel solve behind the invariant presentation.
# Degree 2 is enough: the Weitzenboeck kernel of the two-dimensional blocks
# is generated in degree <= 2 (the leading block coordinates and the 2x2
# determinants pairing the blocks).
KERNEL_DEGREE = 2


@dataclass(frozen=True)
class FamilySpec:
    """Construction parameters: which family, the shape polynomial f
    (one variable for v3, three for v4), and extra trivial summands."""

    family: str
    f: Polynomial
    trivial_summands: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise UsageError(f"unknown family {self.family!r}")
        arity = len(FAMILIES[self.family][1])
        if len(self.f.ring) != arity:
            raise UsageError(
                f"family {self.family} needs f in {arity} variable(s), "
                f"got ring {self.f.ring.names}"
            )
        if self.trivial_summands < 0:
            raise UsageError("trivial summand count must be nonnegative")


@dataclass(frozen=True)
class ConstructionArtifacts:
    """Everything the checks consume.

    `derivation` is the action on W, `lower_triangular_derivation` of
    the blocks and trivial summands, and `w_ring` is its ring.  X
    (`x_ideal`) and the boundary B (`b_ideal`, the principal ideal of
    -1 - f(quads)) are hypersurfaces of W.  The closure Ybar
    (`ybar_ideal`) lives over `ambient_ring`, which is (u, v) followed by
    the coordinates of W.
    """

    spec: FamilySpec
    ambient_ring: VarSet
    w_ring: VarSet
    derivation: Derivation
    x_ideal: Ideal
    ybar_ideal: Ideal
    b_ideal: Ideal
    quad_invariants: tuple


def validate_family_spec(spec: FamilySpec):
    """Reject f with nonzero constant term, and for v3 a repeated root of
    f + 1 (that would make the boundary singular).  An exponent of f at
    or above the Groebner engine's bound 2**31 raises ResourceCapError
    first, before the squarefree test or f(q) can expand it."""
    if spec.f.constant_term() != 0:
        raise NonzeroConstantError("f must vanish at the origin")
    top = max((e for m in spec.f.terms for e in m), default=0)
    if top >= _EXPONENT_BOUND:
        raise ResourceCapError(f"exponent {top} is at or above the bound 2**31")
    if spec.family == "v3":
        if not is_squarefree(spec.f + 1):
            raise RepeatedRootsError("f + 1 has a repeated root")


def _quadratic_invariants(w_ring: VarSet, blocks: int):
    """Pairwise 2x2 determinants of the non-leading blocks."""
    def det(i: int, j: int) -> Polynomial:
        a, b = w_ring.var(f"w{2 * i - 1}"), w_ring.var(f"w{2 * i}")
        c, d = w_ring.var(f"w{2 * j - 1}"), w_ring.var(f"w{2 * j}")
        return a * d - b * c

    return tuple(det(i, j) for i, j in combinations(range(2, blocks + 1), 2))


def build_family(spec: FamilySpec) -> ConstructionArtifacts:
    """Assemble rings, derivation, and the defining ideals of a spec that
    validate_family_spec accepts."""
    validate_family_spec(spec)
    return _build_family(spec)


# One entry per representation W in use; kernel-width, the benchmark
# workload with the most, uses 11 (v3 with 0..10 trivial summands).
@lru_cache(maxsize=64)
def _representation(family: str, trivial: int):
    """(derivation, ambient ring, quadratic invariants) of the
    representation W of `family` with `trivial` trivial summands, built
    once per process: the action `lower_triangular_derivation(blocks,
    trivial)` (its ring is the ring of W), the ring (u, v) followed by
    the coordinates of W, and the quadratic invariants of W.  Nothing
    here depends on f, and every value is immutable, so one entry serves
    every instance on W, from any thread."""
    blocks = FAMILIES[family][0]
    derivation = lower_triangular_derivation(blocks, trivial)
    ambient = VarSet(("u", "v") + derivation.ring.names)
    return derivation, ambient, _quadratic_invariants(derivation.ring, blocks)


@lru_cache(maxsize=2)  # one entry per family
def _w_invariants(family: str) -> tuple:
    """The minimal generators of degree <= KERNEL_DEGREE of the invariants
    of W without trivial summands, `kernel_linear` of
    `lower_triangular_derivation(blocks)`, solved once per process and
    family.  Those of W with t trivial summands are these and the t
    trivial coordinates, since Ga fixes them (ker D = (ker D')[e]), so
    no count t is solved for.

    The key leaves out the caps: the derivation of W is linear, so
    `kernel_linear` spans its homogeneous kernel by graded linear
    algebra (`_GradedSpan`) and never reads them.
    """
    return tuple(kernel_linear(lower_triangular_derivation(FAMILIES[family][0]), KERNEL_DEGREE))


def _build_family(spec: FamilySpec) -> ConstructionArtifacts:
    """build_family without validation, so that tests can build the
    invalid specs the battery's failure paths are about.  Only f(q), X,
    Ybar and B are built here; the objects of W come from
    `_representation`."""
    derivation, ambient, quads = _representation(spec.family, spec.trivial_summands)
    w_ring = derivation.ring
    f_of_q = spec.f.substitute(dict(zip(spec.f.ring.names, quads))).terms

    def minus_one_minus_f(lead: Polynomial) -> Polynomial:
        """lead - 1 - f(q), summed in one term dict; lead's ring ends
        with the coordinates of W."""
        pad = (0,) * (len(lead.ring) - len(w_ring))
        terms = dict(lead.terms)
        for m, c in (((0,) * len(w_ring), 1), *f_of_q.items()):
            terms[pad + m] = terms.get(pad + m, 0) - c
        return Polynomial(lead.ring, terms)

    u, v, w1, w2 = map(ambient.var, ("u", "v", "w1", "w2"))
    x_ideal = Ideal(w_ring, (minus_one_minus_f(w_ring.var("w1")),))
    ybar_ideal = Ideal(ambient, (minus_one_minus_f(u * w2 - v * w1),))
    b_ideal = Ideal(w_ring, (minus_one_minus_f(w_ring.zero()),))  # Ybar's equation at u = v = 0

    return ConstructionArtifacts(
        spec=spec,
        ambient_ring=ambient,
        w_ring=w_ring,
        derivation=derivation,
        x_ideal=x_ideal,
        ybar_ideal=ybar_ideal,
        b_ideal=b_ideal,
        quad_invariants=quads,
    )


def nonstable_ideal(art: ConstructionArtifacts) -> Ideal:
    """Vanishing ideal of the non-stable locus: the odd block coordinates."""
    blocks = FAMILIES[art.spec.family][0]
    gens = tuple(art.w_ring.var(f"w{2 * i - 1}") for i in range(1, blocks + 1))
    return Ideal(art.w_ring, gens)


# -- the individual checks --------------------------------------------------------


def check_affine_space(art: ConstructionArtifacts) -> bool:
    """X is a graph over the remaining coordinates: its equation must be
    w1 minus a polynomial not involving w1."""
    gens = art.x_ideal.generators
    if len(gens) != 1:
        return False
    residual = art.w_ring.var("w1") - gens[0]
    return "w1" not in residual.variables()


def check_invariance(art: ConstructionArtifacts) -> bool:
    """The defining equation and every quadratic invariant must be killed
    by the derivation."""
    d = art.derivation
    if not all(d.apply(q).is_zero() for q in art.quad_invariants):
        return False
    return all(d.apply(g).is_zero() for g in art.x_ideal.generators)


def check_stability(art: ConstructionArtifacts,
                    caps: ResourceCaps = DEFAULT_CAPS) -> bool:
    """X misses the non-stable locus iff their combined ideal is the unit
    ideal (the equation forces 1 = 0 on the intersection)."""
    return is_unit_ideal(art.x_ideal + nonstable_ideal(art), caps=caps)


def check_freeness(art: ConstructionArtifacts,
                   caps: ResourceCaps = DEFAULT_CAPS) -> bool:
    """No zeros of the fundamental vector field on X.

    In characteristic zero unipotent stabilizers are connected, so an
    empty fixed locus on X certifies a scheme-theoretically free action.
    """
    fixed = fixed_point_ideal(art.derivation)
    if fixed.is_zero():
        return False  # everything is fixed; degenerate derivation
    return is_unit_ideal(art.x_ideal + fixed, caps=caps)


def check_smooth(ideal: Ideal, caps: ResourceCaps = DEFAULT_CAPS) -> bool:
    """Jacobian criterion for a hypersurface: smooth iff its one equation
    and the partials in every variable of `ideal.ring` generate the unit
    ideal, i.e. the singular locus is empty.  Raises NotHypersurfaceError
    unless the ideal has exactly one generator."""
    if len(ideal.generators) != 1:
        raise NotHypersurfaceError(
            f"{len(ideal.generators)} generators; a hypersurface has one equation"
        )
    (equation,) = ideal.generators
    gens = (equation,) + tuple(equation.partial(n) for n in ideal.ring.names)
    return is_unit_ideal(Ideal(ideal.ring, gens), caps=caps)


def _jacobian_identities(art: ConstructionArtifacts) -> bool:
    """Whether B's equation is certified smooth without a Groebner run;
    False for v4, which has no certificate.

    With q the quadratic invariant, B's equation h = -1 - f(q) satisfies

        -h = 1 + f(q),
        sum over i = 3..6 of w_i*dh/dw_i = -2*q*f'(q)   (Euler: q is a quadric).

    Both right-hand sides are polynomials in q, and gcd(1 + f, s*f') = 1
    in Q[s] because f(0) = 0 and f + 1 is squarefree, so Bezout and s -> q
    put 1 in the Jacobian ideal.  This only checks the two identities:
    coprimality is the premise that build_family's validation certifies,
    and an unvalidated spec with a repeated root passes the identities
    while being singular.

    The Euler operator is diagonal on monomials: it maps a term c*x^m to
    (m_3 + ... + m_6)*c*x^m.  So both identities are one pass over the
    equation's terms.  The right-hand sides are built from spec.f and one
    table of powers of q, not read off the equation, which would make the
    check circular.
    """
    if art.spec.family != "v3":
        return False
    (q,) = art.quad_invariants
    w_ring = art.w_ring
    euler_at = [w_ring.index(n) for n in q.variables()]  # w3..w6
    f = {k: c for (k,), c in art.spec.f.terms.items()}  # s^k -> its coefficient
    one_plus_f, minus_2q_f_prime = {}, {}
    power = {(0,) * len(w_ring): 1}  # q^k, of degree 2k: no two k share a term
    for k in range(max(f, default=0) + 1):
        if k:
            power = _product(power, q.terms)
        for target, c in ((one_plus_f, (k == 0) + f.get(k, 0)),
                          (minus_2q_f_prime, -2 * k * f.get(k, 0))):
            if c:
                target.update((m, c * d) for m, d in power.items())
    (h,) = art.b_ideal.generators
    euler = {w: e * c for w, c in h.terms.items() if (e := sum(w[i] for i in euler_at))}
    return {w: -c for w, c in h.terms.items()} == one_plus_f and euler == minus_2q_f_prime


def _check_cone_over_boundary(art: ConstructionArtifacts):
    """Raise ValueError (a bug of `_build_family`) unless Ybar's equation
    is g = u*w2 - v*w1 + h with h, B's equation, free of w1 and w2.  Then
    Ybar is smooth iff B is: h = g - u*dg/du - v*dg/dv and dg/dw_i =
    dh/dw_i for i >= 3, so B's Jacobian ideal lies in Ybar's; and a
    singular point w of B with w1 = w2 = 0 gives Ybar's singular point
    (0, 0, w)."""
    (g,), (h,) = art.ybar_ideal.generators, art.b_ideal.generators
    u, v, w1, w2 = map(g.ring.var, ("u", "v", "w1", "w2"))
    cone = (u * w2 - v * w1).terms | {(0, 0) + m: c for m, c in h.terms.items()}  # h lacks u, v
    if (g.ring.names != ("u", "v") + h.ring.names or {"w1", "w2"} & set(h.variables())
            or g.terms != cone):
        raise ValueError("Ybar's equation is not u*w2 - v*w1 plus B's equation")


def boundary_analysis(art: ConstructionArtifacts):
    """(dim Ybar, dim B, m): the boundary codimension inside the closure is
    dim Ybar - dim B, and for v3 the component count is m = deg f (valid
    over the algebraic closure because f + 1 is squarefree, so components
    biject with its roots); m is None for v4.  Ybar and B are
    hypersurfaces, so both dimensions are read off their one equation
    with no Groebner run, and the analysis takes no caps.  An empty
    boundary raises UnitIdealError."""
    dim_ybar = krull_dimension(art.ybar_ideal)
    try:
        dim_b = krull_dimension(art.b_ideal)
    except UnitIdealError:
        raise UnitIdealError(
            "empty boundary: the rank bookkeeping needs a nonempty complement"
        ) from None
    m = art.spec.f.total_degree() if art.spec.family == "v3" else None
    return dim_ybar, dim_b, m


@dataclass(frozen=True)
class KTheoryRanks:
    """Ranks forced by the split short exact localization sequence."""

    m: int
    rank_z: int
    rank_closure: int
    rank_quotient: int = 1


def k_theory_ranks(m: int) -> KTheoryRanks:
    """rank K0 = m on the boundary, m + 1 on the closure, 1 on the open
    part; the localization sequence of free abelian groups splits."""
    if m < 1:
        raise ValueError("the boundary must be nonempty (m >= 1)")
    return KTheoryRanks(m=m, rank_z=m, rank_closure=m + 1)


def invariant_presentation(art: ConstructionArtifacts,
                           caps: ResourceCaps = DEFAULT_CAPS):
    """Present the invariant ring of X by generators and relations.

    Takes the kernel up to KERNEL_DEGREE of the derivation of W without
    trivial summands, which `_w_invariants` solves once per family, and
    restricts each generator g to X, w1 -> 1 + f(q) with q the quadratic
    invariant; the image no longer involves w1, so w2, w3, ... are read
    as the affine coordinates z1, z2, ... of X (the closed immersion),
    constant terms are dropped and each image is made monic.  Ga fixes
    the trivial summands' coordinates e_i, W's columns 6..5+t, so the
    invariant ring is that of W without summands with them adjoined
    (ker D = (ker D')[e], Freudenburg, "Algebraic Theory of Locally
    Nilpotent Derivations", 2nd ed., 2017).  A solve on all of W would
    be capped (`derivations.KERNEL_DIMENSION_CAP`), and so is t, as the
    result lives in 5 + t variables.  One incremental Groebner run over
    the tag-variable graph ideal of the restricted generators, in z1..z5
    and in (degree, text) order, drops each lying in the subalgebra of
    those before it and eliminates the affine coordinates from the graph
    ideal of the rest (groebner.subalgebra_presentation, under one
    `caps` budget).  z6, z7, ... then join its survivors, in (degree,
    text) order, and each relation's tags are renamed by survivor
    position.  Returns
    (restricted generators, relation ideal in tags).

    q is free of w1, so its image is c times its monic candidate q' for
    a scalar c.  Each generator g is restricted through its seed form
    g(w1 -> 1 + f(c*y), w_k -> z_(k-1)), with y the tag of q': one term
    map over the cached powers of 1 + f(c*y).  Its image is the form at
    y -> q', expanded over the cached powers of q', and the form is
    scaled and stripped of its constant like the image, so it equals the
    candidate by construction.  Seeded through the forms, the run never
    reduces expanded powers of q back to powers of its tag: w1's own
    image has a tag-only form and is dropped at once, and the minors
    w1*w4 - w2*w3 and w1*w6 - w2*w5 are seeded with deg f + 3 terms
    each.  Duplicate candidates are dropped through a dict.
    """
    if art.spec.family != "v3":
        raise ValueError("presentation implemented for the v3 family only")
    _check_coefficient_space(len(art.w_ring), KERNEL_DEGREE)
    width = 2 * FAMILIES[art.spec.family][0]  # the coordinates of W without summands
    core = VarSet(tuple(f"z{i}" for i in range(1, width)))
    (q,) = art.quad_invariants
    q_image = {m[1:width]: a for m, a in q.terms.items()}  # q is free of w1
    c = q_image[min(q_image, key=_grevlex_descending)]
    q_monic = Polynomial(core, {m: _exact_quotient(a, c) for m, a in q_image.items()})  # q = c*q'
    # A form's terms are keyed by the exponents of z1..z5 and then of y.
    one = (0,) * width
    one_plus_f = {one[:-1] + (k,): a * c ** k for (k,), a in art.spec.f.terms.items()}
    one_plus_f[one] = 1  # f(0) = 0
    w1_powers = [{one: 1}]  # (1 + f(c*y))^e, the form of w1^e
    q_powers = [{one[:-1]: 1}]  # q'^k

    def expand(form: dict) -> dict:
        """The form at y -> q', over z1..z5."""
        out: dict = {}
        for m, a in form.items():
            while len(q_powers) <= m[-1]:
                q_powers.append(_product(q_powers[-1], q_monic.terms))
            for t, b in q_powers[m[-1]].items():
                key = tuple(map(add, m, t))  # map stops before y, at the end of t
                out[key] = out.get(key, 0) + a * b
        return out

    forms = {}  # candidate -> its form as a term dict, None for the candidate itself
    for g in _w_invariants(art.spec.family):
        form: dict = {}
        for m, a in g.terms.items():
            while len(w1_powers) <= m[0]:
                w1_powers.append(_product(w1_powers[-1], one_plus_f))
            rest = m[1:width] + (0,)
            for t, b in w1_powers[m[0]].items():
                key = tuple(map(add, rest, t))
                form[key] = form.get(key, 0) + a * b
        image = {m: a for m, a in expand(form).items() if a and any(m)}  # constants never matter
        if not image:
            continue
        lc = image[min(image, key=_grevlex_descending)]
        candidate = Polynomial(core, {m: _exact_quotient(a, lc) for m, a in image.items()})
        if any(m[0] for m in g.terms):
            forms.setdefault(candidate, {m: _exact_quotient(a, lc) for m, a in form.items()
                                         if a and any(m)})
        else:
            forms[candidate] = None  # its own form, which wins over a duplicate's
    ordered = _sorted_gens(list(forms))
    # q' is a kernel generator and not in the subalgebra of the linear ones
    at, tags = ordered.index(q_monic), len(ordered)
    big = _tag_ring(core, tags)
    seeds = [p if forms[p] is None else Polynomial(big, {
        m[:-1] + (0,) * at + m[-1:] + (0,) * (tags - at - 1): a for m, a in forms[p].items()})
        for p in ordered]
    survivors, relations = subalgebra_presentation(core, ordered, caps, seeds)
    z_ring = VarSet(tuple(f"z{i}" for i in range(1, len(art.w_ring))))
    spanned = [p.embed(z_ring) for p in survivors]
    merged = _sorted_gens(spanned + [z_ring.var(n) for n in z_ring.names[width - 1:]])
    y_ring = VarSet(fresh_names("y", len(merged), z_ring.names))
    position = {p: k for k, p in enumerate(merged)}
    renamed = VarSet(tuple(y_ring.names[position[p]] for p in spanned))  # each survivor's new tag
    return tuple(merged), Ideal(y_ring, tuple(Polynomial(renamed, r.terms).embed(y_ring)
                                              for r in relations.generators))


@dataclass(frozen=True)
class Dims:
    """Dimensions of X, the quotient, the closure, and the boundary."""

    x: int
    quotient: int
    ybar: int
    b: int


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of the full battery for one family instance."""

    spec: FamilySpec
    dims: Dims
    checks: dict
    boundary_codim: int
    m: Optional[int]
    ranks: Optional[KTheoryRanks]
    presentation: Optional[tuple]
    passed: bool


@contextmanager
def _stage(key: str):
    """Prefix a ResourceCapError raised in one battery stage with the
    stage's report key."""
    try:
        yield
    except ResourceCapError as exc:
        raise ResourceCapError(f"{key}: {exc}") from exc


def run_battery(spec: FamilySpec, caps: ResourceCaps = DEFAULT_CAPS) -> VerificationReport:
    """Build the instance and run every check; individual check failures
    are recorded in the report, construction errors propagate."""
    art = build_family(spec)  # validates f(0) = 0 and, for v3, f + 1 squarefree
    checks = {
        "invariant": check_invariance(art),
        "affineSpace": check_affine_space(art),
    }
    with _stage("stable"):
        checks["stable"] = check_stability(art, caps=caps)
    if fixed_point_ideal(art.derivation) == nonstable_ideal(art):
        checks["free"] = checks["stable"]  # the same unit-ideal test
    else:
        with _stage("free"):
            checks["free"] = check_freeness(art, caps=caps)
    _check_cone_over_boundary(art)
    with _stage("boundarySmooth"):
        b_smooth = _jacobian_identities(art) or check_smooth(art.b_ideal, caps=caps)
    checks["ybarSmooth"] = checks["boundarySmooth"] = b_smooth  # Ybar is the cone over B
    dim_x = krull_dimension(art.x_ideal)  # X, Ybar and B are principal: no Groebner run
    dim_ybar, dim_b, m = boundary_analysis(art)
    codim = dim_ybar - dim_b
    dims = Dims(
        x=dim_x,
        quotient=dim_x - 1,  # the group is one-dimensional and acts freely
        ybar=dim_ybar,
        b=dim_b,
    )
    if spec.family == "v3":
        ranks = k_theory_ranks(m)
        with _stage("presentation"):
            presentation = invariant_presentation(art, caps=caps)
    else:
        ranks = None
        presentation = None
    passed = all(checks.values()) and codim == 2
    return VerificationReport(
        spec=spec,
        dims=dims,
        checks=checks,
        boundary_codim=codim,
        m=m,
        ranks=ranks,
        presentation=presentation,
        passed=passed,
    )
