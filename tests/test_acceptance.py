"""Acceptance battery: one test per criterion, each printing a pass line.

All arithmetic is exact, so every comparison is equality; the stated time
budgets are asserted on wall-clock measurements.
"""

import io
import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import sympy as sp

from gaquot import (
    Derivation,
    FamilySpec,
    Ideal,
    Polynomial,
    TermOrder,
    VarSet,
    buchberger,
    build_family,
    check_freeness,
    check_smooth,
    check_stability,
    exp_action,
    is_squarefree,
    lower_triangular_derivation,
    normal_form,
    parse,
    run_battery,
    subalgebra_membership,
    subalgebra_presentation,
)
from gaquot.cli import main as cli_main
from helpers import assert_same_subalgebra, from_sympy, random_poly, reference_key

S = VarSet(("s",))
ABC = VarSet(("a", "b", "c"))
W6 = VarSet(("w1", "w2", "w3", "w4", "w5", "w6"))

_suite_times = {}


@contextmanager
def budget(criterion, seconds):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    _suite_times[criterion] = _suite_times.get(criterion, 0.0) + elapsed
    assert elapsed < seconds, f"criterion {criterion} took {elapsed:.1f}s"


def report(criterion, message):
    print(f"ACCEPTANCE {criterion} PASS: {message} ({_suite_times[criterion]:.2f}s)")


def run_cli(argv):
    out = io.StringIO()
    code = cli_main(argv, out=out)
    return code, out.getvalue()


# -- criterion 1: kernel reproduction ------------------------------------------------

V3_DERIVATION_FILE = """\
vars: w1 w2 w3 w4 w5 w6
w2 -> w1
w4 -> w3
w6 -> w5
"""

EXPECTED_KERNEL = (
    "w1", "w3", "w5", "w1*w4 - w2*w3", "w1*w6 - w2*w5", "w3*w6 - w4*w5",
)


def brute_force_kernel_basis():
    """Independent oracle: nullspace of the degree-<=2 action matrix,
    assembled and solved entirely in sympy."""
    from sympy.polys.monomials import itermonomials

    ws = sp.symbols("w1:7")
    monos = sorted(itermonomials(ws, 2), key=sp.default_sort_key)
    columns = []
    row_keys = set()
    for mono in monos:
        image = sp.expand(
            ws[0] * sp.diff(mono, ws[1])
            + ws[2] * sp.diff(mono, ws[3])
            + ws[4] * sp.diff(mono, ws[5])
        )
        terms = dict(sp.Poly(image, *ws).terms()) if image != 0 else {}
        columns.append(terms)
        row_keys.update(terms)
    rows = sorted(row_keys)
    matrix = sp.Matrix(
        [[col.get(r, sp.Integer(0)) for col in columns] for r in rows]
    )
    basis = []
    for vec in matrix.nullspace():
        expr = sp.expand(sum(c * m for c, m in zip(vec, monos)))
        basis.append(from_sympy(expr, W6))
    return basis


def test_criterion_1_kernel_reproduction(tmp_path):
    with budget(1, 30):
        path = tmp_path / "derivation.txt"
        path.write_text(V3_DERIVATION_FILE, encoding="utf-8")
        code, text = run_cli(
            ["kernel", "--derivation", str(path), "--max-degree", "2"]
        )
        assert code == 0
        got = [parse(line, W6) for line in text.splitlines() if line]
        expected = [parse(t, W6) for t in EXPECTED_KERNEL]
        assert_same_subalgebra(got, expected)

        oracle = brute_force_kernel_basis()
        assert len(oracle) == 13  # 1 constant + 3 linear + 9 quadratic solutions
        derivation = lower_triangular_derivation(3)
        for p in oracle:
            assert derivation.apply(p).is_zero()
        nonconstant = [p for p in oracle if not p.is_constant()]
        assert_same_subalgebra(got, nonconstant)
    report(1, "kernel generators match the brute-force nullspace oracle")


# -- criterion 2: the identity instance ----------------------------------------------


def test_criterion_2_identity_instance():
    with budget(2, 60):
        rep = run_battery(FamilySpec("v3", parse("s", S)))
        assert rep.passed
        assert (rep.dims.x, rep.dims.quotient, rep.dims.ybar, rep.dims.b) == (5, 4, 7, 5)
        assert rep.boundary_codim == 2
        assert rep.m == 1
        assert (rep.ranks.rank_z, rep.ranks.rank_closure,
                rep.ranks.rank_quotient) == (1, 2, 1)
        gens, relations = rep.presentation
        assert len(gens) == 5
        assert len(relations.generators) == 1
        relation = relations.generators[0]
        assert relation.total_degree() == 2
        assert len(relations.ring) == 5
        # substituting the generator expressions back in reduces to zero
        # modulo the graph ideal
        assignment = {f"y{i + 1}": g for i, g in enumerate(gens)}
        substituted = relation.substitute(
            {n: assignment[n] for n in relation.variables()}
        )
        assert substituted.is_zero()
        art = build_family(rep.spec)
        w_ring = art.w_ring
        back = {f"z{i}": w_ring.var(w_ring.names[i]) for i in range(1, len(w_ring))}
        in_w = substituted.substitute(back) if substituted.variables() else \
            w_ring.const(substituted.constant_term())
        assert normal_form(in_w, buchberger(art.x_ideal)).is_zero()
    report(2, "identity instance: dims (5,4,7,5), m=1, ranks (1,2,1), one quadric")


# -- criterion 3: component count from the degree ------------------------------------


def test_criterion_3_component_count():
    with budget(3, 60):
        f = parse("(1+s)*(1+2*s)*(1+3*s) - 1", S)
        rep = run_battery(FamilySpec("v3", f))
        assert rep.passed
        assert rep.m == 3
        assert (rep.ranks.rank_z, rep.ranks.rank_closure,
                rep.ranks.rank_quotient) == (3, 4, 1)
        # w1 = 1 + f(q) on X, so f(q) lies in the presented subalgebra; the
        # from-scratch membership engine confirms it and its witness
        gens, _ = rep.presentation
        z = gens[0].ring
        f_of_q = f.substitute({"s": parse("z2*z5 - z3*z4", z)})  # q = w3*w6 - w4*w5
        member, witness = subalgebra_membership(f_of_q, list(gens))
        assert member
        assert witness.substitute({f"y{i + 1}": g for i, g in enumerate(gens)}) == f_of_q
        # the battery's seed forms change its reduction work only: the
        # generators, spanned as themselves, give them back with the relations
        survivors, relations = subalgebra_presentation(z, list(gens))
        assert (tuple(survivors), relations) == rep.presentation
    report(3, "cubic instance: m = deg f = 3, ranks (3,4,1), f(q) in the presented subalgebra")


# -- criterion 4: rejection path -------------------------------------------------------


def test_criterion_4_rejection_path():
    with budget(4, 10):
        code, text = run_cli(["verify", "--family", "v3", "--f", "(1+s)^2 - 1"])
        assert code == 3
        assert text == ""  # no battery ran
        forced = FamilySpec("v3", parse("(1+s)^2 - 1", S))
        assert not check_smooth(forced.b_ideal)
    report(4, "repeated roots: exit 3 without a battery; forced check is singular")


# -- criterion 5: the moduli family instance -------------------------------------------


def test_criterion_5_moduli_instance():
    from gaquot.families import nonstable_ideal

    with budget(5, 120):
        art = build_family(FamilySpec("v4", parse("a", ABC)))
        assert tuple(map(str, nonstable_ideal(art).generators)) == (
            "w1", "w3", "w5", "w7",
        )
        rep = run_battery(FamilySpec("v4", parse("a", ABC)))
        assert rep.passed
        assert all(rep.checks.values())
        assert (rep.dims.x, rep.dims.quotient) == (7, 6)
        assert rep.boundary_codim == 2
        assert rep.m is None and rep.ranks is None and rep.presentation is None
        code, text = run_cli(["verify", "--family", "v4", "--f", "a"])
        assert code == 0
        doc = json.loads(text)
        assert doc["m"] is None and doc["k0Ranks"] is None
    report(5, "moduli instance f=a: all checks pass, ranks reported absent")


# -- criterion 6: trivial summand scaling ----------------------------------------------


def test_criterion_6_trivial_summands():
    with budget(6, 120):
        rep = run_battery(FamilySpec("v3", parse("s", S), trivial_summands=2))
        assert rep.passed
        assert (rep.dims.x, rep.dims.quotient, rep.dims.ybar, rep.dims.b) == (7, 6, 9, 7)
        assert (rep.ranks.rank_z, rep.ranks.rank_closure,
                rep.ranks.rank_quotient) == (1, 2, 1)
    report(6, "two trivial summands: dims (7,6,9,7), ranks unchanged")


# -- criterion 7: randomized property suites -------------------------------------------


def test_criterion_7a_ring_axioms():
    with budget("7a", 600):
        rng = random.Random(70001)
        ring = VarSet(("x", "y", "z", "t"))
        for _ in range(1000):
            p = random_poly(rng, ring, max_degree=4, max_terms=4)
            q = random_poly(rng, ring, max_degree=4, max_terms=4)
            r = random_poly(rng, ring, max_degree=4, max_terms=4)
            assert (p + q) + r == p + (q + r)
            assert p + q == q + p
            assert p * q == q * p
            assert p * (q + r) == p * q + p * r
            assert p + ring.zero() == p and p * ring.one() == p
    report("7a", "ring axioms, 1000 randomized cases")


def test_criterion_7b_leibniz():
    with budget("7b", 600):
        rng = random.Random(70002)
        ring = VarSet(("x", "y", "z"))
        for _ in range(1000):
            p = random_poly(rng, ring)
            q = random_poly(rng, ring)
            name = rng.choice(ring.names)
            assert (p * q).partial(name) == p * q.partial(name) + q * p.partial(name)
        for _ in range(1000):
            images = {
                n: random_poly(rng, ring, max_degree=2, max_terms=2)
                for n in ring.names
            }
            d = Derivation(ring, images)
            f = random_poly(rng, ring, max_degree=3, max_terms=3)
            g = random_poly(rng, ring, max_degree=3, max_terms=3)
            assert d.apply(f * g) == f * d.apply(g) + g * d.apply(f)
    report("7b", "Leibniz for partial and for the derivation, 1000 cases each")


def _random_triangular(rng, ring):
    images = {}
    for i, name in enumerate(ring.names):
        if i == 0 or rng.random() < 0.25:
            continue
        sub = VarSet(ring.names[:i])
        images[name] = random_poly(rng, sub, max_degree=2, max_terms=2).embed(ring)
    return Derivation(ring, images)


def test_criterion_7c_exponential_action():
    with budget("7c", 600):
        rng = random.Random(70003)
        ring = VarSet(("x", "y", "z"))
        for _ in range(1000):
            d = _random_triangular(rng, ring)
            f = random_poly(rng, ring, max_degree=2, max_terms=3)
            g = random_poly(rng, ring, max_degree=2, max_terms=3)
            assert exp_action(d, f * g) == exp_action(d, f) * exp_action(d, g)
        cases = 0
        while cases < 1000:
            d = _random_triangular(rng, ring)
            for name in ring.names:
                once = exp_action(d, ring.var(name), "t")
                extended = Derivation(
                    once.ring, {k: v.embed(once.ring) for k, v in d.images.items()}
                )
                twice = exp_action(extended, once, "t2")
                big = twice.ring
                flow = exp_action(d, ring.var(name), "t").embed(big)
                shift = {n: big.var(n) for n in flow.variables()}
                shift["t"] = big.var("t") + big.var("t2")
                assert twice == flow.substitute(shift)
                cases += 1
    report("7c", "exponential homomorphism and group law, 1000 cases each")


def _spoly(f, g, order):
    key = reference_key(order)
    lf = max(f.terms, key=key)
    lg = max(g.terms, key=key)
    lcm = tuple(max(a, b) for a, b in zip(lf, lg))
    mf = Polynomial(f.ring, {tuple(l - a for l, a in zip(lcm, lf)): Fraction(1) / f.terms[lf]})
    mg = Polynomial(g.ring, {tuple(l - a for l, a in zip(lcm, lg)): Fraction(1) / g.terms[lg]})
    return mf * f - mg * g


def test_criterion_7d_groebner_round_trips():
    with budget("7d", 600):
        rng = random.Random(70004)
        ring = VarSet(("x", "y", "z"))
        order = TermOrder.grevlex()
        for _ in range(1000):
            gens = [
                random_poly(rng, ring, max_degree=2, max_terms=3, coeff_bound=3,
                            allow_zero=False, nonconstant=True)
                for _ in range(rng.randint(2, 3))
            ]
            gb = buchberger(Ideal(ring, tuple(gens)))
            for g in gens:
                assert normal_form(g, gb).is_zero()
            shuffled = list(gens)
            rng.shuffle(shuffled)
            gb2 = buchberger(Ideal(ring, tuple(shuffled)))
            assert gb.basis == gb2.basis
            for i in range(len(gb.basis)):
                for j in range(i + 1, len(gb.basis)):
                    assert normal_form(_spoly(gb.basis[i], gb.basis[j], order),
                                       gb).is_zero()
    report("7d", "basis round-trips and permutation invariance, 1000 ideals")


def test_criterion_7e_normal_form_idempotence():
    with budget("7e", 600):
        rng = random.Random(70005)
        ring = VarSet(("x", "y", "z"))
        for _ in range(1000):
            gens = [
                random_poly(rng, ring, max_degree=2, max_terms=3, allow_zero=False,
                            nonconstant=True)
                for _ in range(2)
            ]
            gb = buchberger(Ideal(ring, tuple(gens)))
            f = random_poly(rng, ring, max_degree=3, max_terms=4)
            nf = normal_form(f, gb)
            assert normal_form(nf, gb) == nf
    report("7e", "normal-form idempotence, 1000 cases")


def test_criterion_7f_hypersurface_dimension_law():
    from gaquot import krull_dimension

    with budget("7f", 600):
        rng = random.Random(70006)
        cases = 0
        while cases < 1000:
            n = rng.randint(1, 4)
            ring = VarSet(tuple(f"x{i}" for i in range(n)))
            p = random_poly(rng, ring, max_degree=3, max_terms=3, allow_zero=False)
            if p.is_constant():
                continue
            assert krull_dimension(Ideal(ring, (p,))) == n - 1
            cases += 1
    report("7f", "hypersurface dimension law, 1000 cases")


def test_criterion_7_total_budget():
    total = sum(v for k, v in _suite_times.items() if str(k).startswith("7"))
    assert 0 < total < 600, "criterion 7 suites exceeded 10 minutes"
    _suite_times[7] = total
    report(7, "all property suites within the shared 10 minute budget")


# -- criterion 8: stability and freeness across the family ------------------------------


def _random_valid_f(rng):
    while True:
        degree = rng.randint(1, 4)
        terms = {(e,): rng.randint(-3, 3) for e in range(1, degree + 1)}
        terms[(degree,)] = rng.choice([1, 2, -1, -2, 3])
        f = Polynomial(S, terms)
        if f.total_degree() >= 1 and is_squarefree(f + 1):
            return f


def test_criterion_8_stability_and_freeness():
    with budget(8, 300):
        rng = random.Random(80001)
        for _ in range(20):
            spec = FamilySpec("v3", _random_valid_f(rng))
            art = build_family(spec)
            assert check_stability(art)
            assert check_freeness(art)
        # unvalidated: f(0) != 0 chosen so the equation's constant term is 0
        invalid = FamilySpec("v3", parse("s - 1", S))
        assert not check_stability(invalid)
    report(8, "20 randomized specs stable and free; invalid spec rejected")
