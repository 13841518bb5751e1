"""The library's immutable records: frozen, compared and hashed by their
fields, printed in the Name(field=value, ...) format, and built from
those fields alone; every other value a record exposes is derived from
them, so a record built by hand cannot contradict itself."""

import inspect
import random

import pytest

from gaquot import (
    Derivation,
    Dims,
    FamilySpec,
    GroebnerBasis,
    Ideal,
    KTheoryRanks,
    ResourceCaps,
    TermOrder,
    VarSet,
    VerificationReport,
    build_family,
    buchberger,
    normal_form,
    parse,
    run_battery,
)
from gaquot.poly import _Record
from helpers import composed_checks, leading_monomials, random_poly, smoothness_equation

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
                    ("order", "basis", "source"), False),
    ResourceCaps: (lambda: ResourceCaps(max_pairs=7), ("max_pairs", "max_degree"), False),
    Derivation: (lambda: Derivation(XY, {"y": XY.var("x")}), ("ring", "images"), True),
    FamilySpec: (lambda: FamilySpec("v3", parse("s^2 + s", VarSet(("s",))), 1),
                 ("family", "f", "trivial_summands"), False),
    KTheoryRanks: (lambda: KTheoryRanks(2), ("m",), False),
    Dims: (lambda: Dims(5, 7, 5), ("x", "ybar", "b"), False),
    VerificationReport: (lambda: run_battery(SPEC), ("spec", "smooth", "presentation"), False),
}

# record -> the values it derives from its fields, read-only like them
DERIVED = {
    FamilySpec: ("derivation", "quad_invariants", "w_ring", "x_ideal", "b_ideal"),
    KTheoryRanks: ("rank_z", "rank_closure", "rank_quotient"),
    Dims: ("quotient", "codim"),
    VerificationReport: ("checks", "dims", "ranks", "boundary_codim", "m", "passed"),
}


@pytest.mark.parametrize("record", list(RECORDS), ids=lambda record: record.__name__)
def test_records_are_frozen_and_compared_by_their_fields(record):
    factory, fields, holds_mapping = RECORDS[record]
    first, second = factory(), factory()
    assert type(first) is record and first is not second
    for name in DERIVED.get(record, ()):
        assert getattr(first, name) == getattr(second, name)
        with pytest.raises(AttributeError):
            delattr(first, name)
    for name in fields + DERIVED.get(record, ()) + ("unlisted",):
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


@pytest.mark.parametrize("record", list(RECORDS), ids=lambda record: record.__name__)
def test_records_keep_no_instance_dict(record):
    """A record holds its slots alone, so nothing is kept beside its
    fields: a derived value is computed on each read."""
    assert not hasattr(RECORDS[record][0](), "__dict__")


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
    assert KTheoryRanks(m=3) == KTheoryRanks(3)
    assert FamilySpec(family="v3", f=SPEC.f) == FamilySpec("v3", SPEC.f, 0)
    assert Dims(x=1, ybar=3, b=4) != Dims(1, 3, 5)
    report = run_battery(SPEC)
    assert VerificationReport(**{name: getattr(report, name)
                                 for name in RECORDS[VerificationReport][1]}) == report


def library_records() -> list:
    """Every `_Record` subclass the library defines."""
    found, stack = [], list(_Record.__subclasses__())
    while stack:
        record = stack.pop()
        stack += record.__subclasses__()
        if record.__module__.startswith("gaquot."):
            found.append(record)
    return found


def unlisted_parameters(record) -> list:
    """The parameters of the record's `__init__` that are not among its
    `_fields`: constructor arguments that equality would not see."""
    parameters = list(inspect.signature(record.__init__).parameters)[1:]  # after self
    return [name for name in parameters if name not in record._fields]


def test_every_constructor_argument_is_a_compared_field():
    """Two records with equal fields are built from equal arguments, so
    they behave alike: no record takes an argument outside its `_fields`."""
    records = library_records()
    assert set(records) == set(RECORDS)
    assert {record.__name__: unlisted_parameters(record) for record in records} \
        == {record.__name__: [] for record in records}


def unlisted_properties(record, listed) -> list:
    """The properties the record's class defines that are not `listed`."""
    return [name for name, value in vars(record).items()
            if isinstance(value, property) and name not in listed]


def test_every_property_is_a_listed_derived_value():
    """Each property of a record is in `DERIVED`, so the frozen test reads
    it on two equal records and checks it cannot be set or deleted."""
    records = library_records()
    assert {record.__name__: unlisted_properties(record, DERIVED.get(record, ()))
            for record in records} == {record.__name__: [] for record in records}


def test_detects_a_property_outside_the_derived_values():
    class Toy(_Record):
        __slots__ = _fields = ("kept",)

        def __init__(self, kept):
            object.__setattr__(self, "kept", kept)

        @property
        def double(self):
            return 2 * self.kept

        @property
        def triple(self):
            return 3 * self.kept

        plain = 4  # a class attribute, not a property

    assert unlisted_properties(Toy, ("double",)) == ["triple"]


def test_detects_a_constructor_argument_outside_the_fields():
    class Toy(_Record):
        __slots__ = ("kept", "rider")
        _fields = ("kept",)

        def __init__(self, kept, rider=None):
            object.__setattr__(self, "kept", kept)
            object.__setattr__(self, "rider", rider)

    assert unlisted_parameters(Toy) == ["rider"]
    assert Toy(1, rider=2) == Toy(1)


@pytest.mark.parametrize("order", [TermOrder.grevlex(), TermOrder.lex(), TermOrder.block(1)],
                         ids=lambda order: order.kind)
def test_a_basis_rebuilt_from_its_fields_reduces_alike(order):
    """normal_form reads the basis alone: a GroebnerBasis rebuilt from its
    three fields has the built one's leading monomials and gives every
    remainder the built one gives, also for a basis and inputs with
    fractional coefficients; x^3 - 1 lies in (x^2 - y, x*y - 1), so x^3
    reduces to 1 there."""
    rng = random.Random("rebuilt")
    for texts in (("x^2 - y", "x*y - 1"), ("2*x^2 - 3*y", "3*x*y - 1", "5*y^3 + 1/2*x")):
        gb = buchberger(Ideal(XY, tuple(parse(t, XY) for t in texts)), order)
        rebuilt = GroebnerBasis(gb.order, gb.basis, gb.source)
        assert rebuilt == gb and leading_monomials(rebuilt) == leading_monomials(gb)
        for f in [parse("x^3", XY)] + [random_poly(rng, XY, max_degree=5, denominator_bound=3)
                                       for _ in range(20)]:
            assert normal_form(f, rebuilt) == normal_form(f, gb)
        if len(texts) == 2:
            assert normal_form(parse("x^3", XY), rebuilt) == XY.one()


@pytest.mark.parametrize("text", ["a^2 + b*c", "a^2 - 2*a + b^2 + c^2"])
def test_artifacts_built_by_hand_have_the_built_smoothness_ideal(text):
    """A v4 spec built by hand equals the one `build_family` returns and
    has its ring and its smoothness equation 1 + f, and the battery's
    checks on it agree, smooth and singular."""
    hand = FamilySpec("v4", parse(text, VarSet(("a", "b", "c"))))
    built = build_family(FamilySpec("v4", parse(text, VarSet(("a", "b", "c")))))
    assert hand == built and hand.w_ring == built.w_ring
    assert smoothness_equation(hand) == smoothness_equation(built)
    assert composed_checks(hand) == composed_checks(built)


REBUILT_SPECS = [SPEC, FamilySpec("v3", parse("s", VarSet(("s",))), 2),
                 FamilySpec("v4", parse("a^2 + b*c", VarSet(("a", "b", "c"))))]


@pytest.mark.parametrize("spec", REBUILT_SPECS, ids=["v3", "v3-trivial", "v4"])
def test_a_report_rebuilt_from_its_fields_derives_the_rest_alike(spec):
    """A report rebuilt from its three fields equals the built one and has
    its checks, dimensions, verdict, codimension, component count and
    ranks; with B singular, the rebuilt report fails."""
    report = run_battery(spec)
    rebuilt = VerificationReport(report.spec, report.smooth, report.presentation)
    assert rebuilt == report
    derived = DERIVED[VerificationReport]
    assert [getattr(rebuilt, name) for name in derived] \
        == [getattr(report, name) for name in derived]
    assert (report.passed, report.boundary_codim) == (True, 2)
    assert report.m == (2 if spec is SPEC else 1 if spec.family == "v3" else None)
    failing = VerificationReport(report.spec, False, report.presentation)
    assert not failing.passed and failing != report
    assert not failing.checks["ybarSmooth"] and not failing.checks["boundarySmooth"]


@pytest.mark.parametrize("spec", REBUILT_SPECS, ids=["v3", "v3-trivial", "v4"])
def test_a_report_built_by_hand_cannot_contradict_its_spec(spec):
    """A report built by hand from its three fields is the battery's, and
    hashes as it does; its dimensions, ranks, m and checks are those the
    spec determines: X a hypersurface of W, the closure over (u, v) and
    W, the boundary of codimension 2, m = deg f for v3 and no ranks for
    v4.  The old five-argument call, which could pair s^2 + s with
    X of dimension 1, m = 9 and a stable action that is not free, is
    refused."""
    report = run_battery(spec)
    hand = VerificationReport(spec, True, report.presentation)
    assert hand == report and hash(hand) == hash(report)
    n = len(spec.w_ring)
    m = spec.f.total_degree() if spec.family == "v3" else None
    assert hand.dims == Dims(n - 1, n + 1, n - 1)
    assert (hand.m, hand.ranks) == (m, None if m is None else KTheoryRanks(m))
    assert hand.checks == composed_checks(spec) == dict.fromkeys(
        ("invariant", "affineSpace", "stable", "free", "ybarSmooth", "boundarySmooth"), True)
    with pytest.raises(TypeError):
        VerificationReport(SPEC, Dims(1, 1, 1), {**report.checks, "free": False},
                           KTheoryRanks(9), report.presentation)


def test_a_report_s_checks_are_read_only():
    """`checks` cannot be changed under a report's derived verdict."""
    report = run_battery(SPEC)
    with pytest.raises(TypeError):
        report.checks["stable"] = False
    assert report.passed and dict(report.checks)["stable"]
