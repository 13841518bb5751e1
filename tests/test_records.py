"""The library's immutable records: frozen, compared and hashed by their
fields, printed in the Name(field=value, ...) format."""

import pytest

from gaquot import (
    ConstructionArtifacts,
    Derivation,
    Dims,
    FamilySpec,
    GroebnerBasis,
    Ideal,
    KTheoryRanks,
    ResourceCaps,
    SliceData,
    TermOrder,
    VarSet,
    VerificationReport,
    build_family,
    buchberger,
    k_theory_ranks,
    make_slice,
    parse,
    run_battery,
)

XY = VarSet(("x", "y"))
SPEC = FamilySpec("v3", parse("s^2 + s", VarSet(("s",))))

# record -> (a factory giving a new record with the same fields on every
# call, its fields in constructor order, whether it holds a mapping)
RECORDS = {
    VarSet: (lambda: VarSet(("x", "y")), ("names",), False),
    TermOrder: (lambda: TermOrder.block(1), ("kind", "block_size"), False),
    Ideal: (lambda: Ideal(XY, (parse("x*y - 1", XY), XY.zero())), ("ring", "generators"),
            False),
    GroebnerBasis: (lambda: buchberger(Ideal(XY, (parse("x^2 - y", XY), parse("x*y - 1", XY)))),
                    ("order", "basis", "source", "leading"), False),
    ResourceCaps: (lambda: ResourceCaps(max_pairs=7), ("max_pairs", "max_degree"), False),
    Derivation: (lambda: Derivation(XY, {"y": XY.var("x")}), ("ring", "images"), True),
    SliceData: (lambda: make_slice(Derivation(XY, {"y": XY.var("x")}), "y"), ("var", "value"),
                False),
    FamilySpec: (lambda: FamilySpec("v3", parse("s^2 + s", VarSet(("s",))), 1),
                 ("family", "f", "trivial_summands"), False),
    ConstructionArtifacts: (lambda: build_family(SPEC),
                            ("spec", "w_ring", "derivation", "quad_invariants"), True),
    KTheoryRanks: (lambda: k_theory_ranks(2), ("m", "rank_z", "rank_closure", "rank_quotient"),
                   False),
    Dims: (lambda: Dims(5, 4, 7, 5), ("x", "quotient", "ybar", "b"), False),
    VerificationReport: (lambda: run_battery(SPEC),
                         ("spec", "dims", "checks", "boundary_codim", "m", "ranks",
                          "presentation", "passed"), True),
}


@pytest.mark.parametrize("record", list(RECORDS), ids=lambda record: record.__name__)
def test_records_are_frozen_and_compared_by_their_fields(record):
    factory, fields, holds_mapping = RECORDS[record]
    first, second = factory(), factory()
    assert type(first) is record and first is not second
    for name in fields + ("unlisted",):
        with pytest.raises(AttributeError):
            setattr(first, name, None)
    for name in fields:
        with pytest.raises(AttributeError):
            delattr(first, name)
    assert first == second and not first != second
    assert first != tuple(getattr(first, name) for name in fields)
    if holds_mapping:
        with pytest.raises(TypeError):
            hash(first)
    else:
        assert hash(first) == hash(second)
    values = ", ".join(f"{name}={getattr(first, name)!r}" for name in fields)
    assert repr(first) == f"{record.__name__}({values})"


def test_polynomials_are_frozen():
    """A polynomial is no `_Record` but is as frozen: assigning or
    deleting an attribute raises, and so does writing to its terms."""
    p = parse("x^2 - y", XY)
    for name in ("ring", "terms", "unlisted"):
        with pytest.raises(AttributeError):
            setattr(p, name, None)
    for name in ("ring", "terms"):
        with pytest.raises(AttributeError):
            delattr(p, name)
    with pytest.raises(TypeError):
        p.terms[(0, 0)] = 1
    assert p == parse("x^2 - y", XY) and p.ring == XY


def test_record_constructors_keep_their_keywords_and_defaults():
    assert repr(VarSet(["u"])) == "VarSet(names=('u',))"
    assert repr(TermOrder("lex")) == "TermOrder(kind='lex', block_size=0)"
    assert repr(ResourceCaps()) == "ResourceCaps(max_pairs=100000, max_degree=60)"
    assert KTheoryRanks(m=3, rank_z=3, rank_closure=4) == k_theory_ranks(3)
    assert KTheoryRanks(3, 3, 4).rank_quotient == 1
    assert FamilySpec(family="v3", f=SPEC.f) == FamilySpec("v3", SPEC.f, 0)
    assert Dims(x=1, quotient=2, ybar=3, b=4) != Dims(1, 2, 3, 5)
    assert SliceData(var="y", value=XY.var("x")) == SliceData("y", XY.var("x"))
    report = run_battery(SPEC)
    assert VerificationReport(**{name: getattr(report, name)
                                 for name in RECORDS[VerificationReport][1]}) == report


def test_groebner_basis_equality_ignores_rows():
    gb = RECORDS[GroebnerBasis][0]()
    bare = GroebnerBasis(gb.order, gb.basis, gb.source, gb.leading, rows=())
    assert gb.rows and bare == gb and hash(bare) == hash(gb)
    assert "rows" not in repr(gb)
    assert GroebnerBasis(TermOrder.lex(), gb.basis, gb.source, gb.leading, gb.rows) != gb


def test_artifacts_keep_their_built_ideals_in_an_instance_dict():
    art = build_family(SPEC)
    # W's polarization table, and J' as the unit ideal the validation proved it is
    assert set(vars(art)) == {"_polarization", "polarization_ideal"}
    assert art.polarization_ideal == Ideal(SPEC.f.ring, (SPEC.f.ring.one(),))
    assert art.x_ideal is art.x_ideal
    assert set(vars(art)) == {"_polarization", "polarization_ideal", "b_ideal", "x_ideal"}
    assert art == build_family(SPEC)
