"""Command-line driver: exit codes, file formats, deterministic reports."""

import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gaquot
from gaquot import VarSet, parse, subalgebra_membership
from gaquot import cli, derivations, families
from gaquot.cli import main
from helpers import signed_roots_shape, spolynomials_per_run

V3_DERIVATION = """\
# lower triangular action on three two-dimensional blocks
vars: w1 w2 w3 w4 w5 w6
w2 -> w1
w4 -> w3
w6 -> w5
"""

STABILITY_IDEAL = """\
vars: w1 w2 w3 w4 w5 w6
w1
w3
w5
w1 - 1 - (w3*w6 - w4*w5)
"""

PARABOLA_IDEAL = """\
vars: t x y
x - t
y - t^2
"""

MIXED_IDEAL = """\
vars: x y z
x^2 + y*z - 1
x*y - z^2
x + y + z - 2
"""

KATSURA3_IDEAL = """\
vars: x0 x1 x2 x3
x0 + 2*x1 + 2*x2 + 2*x3 - 1
x0^2 + 2*x1^2 + 2*x2^2 + 2*x3^2 - x0
2*x0*x1 + 2*x1*x2 + 2*x2*x3 - x1
2*x0*x2 + x1^2 + 2*x1*x3 - x2
"""


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


# -- verify ------------------------------------------------------------------------


def test_verify_identity_instance_passes():
    code, text = run(["verify", "--family", "v3", "--f", "s"])
    assert code == 0
    doc = json.loads(text)
    assert doc["schemaVersion"] == "1"
    assert doc["dims"] == {"X": 5, "quotient": 4, "Ybar": 7, "B": 5}
    assert all(doc["checks"].values())
    assert doc["boundaryCodim"] == 2
    assert doc["m"] == 1
    assert doc["k0Ranks"] == {"Z": 1, "closure": 2, "quotient": 1}
    assert len(doc["presentation"]["generators"]) == 5
    assert len(doc["presentation"]["relations"]) == 1


def test_verify_rejects_repeated_roots():
    code, text = run(["verify", "--family", "v3", "--f", "(1+s)^2 - 1"])
    assert code == 3
    assert text == ""  # no battery ran, no report emitted


def test_verify_rejects_bad_grammar():
    code, _ = run(["verify", "--family", "v3", "--f", "2s"])
    assert code == 1


def test_verify_rejects_wrong_arity():
    code, _ = run(["verify", "--family", "v3", "--f", "a + b"])
    assert code == 1


def test_verify_passes_with_forty_trivial_summands():
    code, text = run(["verify", "--family", "v3", "--f=s", "--trivial", "40"])
    assert code == 0
    doc = json.loads(text)
    assert doc["dims"] == {"X": 45, "quotient": 44, "Ybar": 47, "B": 45}
    assert len(doc["presentation"]["generators"]) == 45
    assert {f"z{i}" for i in range(6, 46)} <= set(doc["presentation"]["generators"])
    # the one relation, its tags placed among the 40 trivial ones
    assert doc["presentation"]["relations"] == ["y43^2 + y11*y44 - y32*y45 - y43"]


def test_verify_resource_cap_exit():
    code, _ = run(["verify", "--family", "v3", "--f", "s", "--max-pairs", "0"])
    assert code == 4


def test_resource_cap_names_the_stage(capsys):
    """A cap hit inside the battery is reported under the stage's report
    key: for f = s the first Groebner run above one pair is the
    presentation's."""
    code, text = run(["verify", "--family", "v3", "--f=s", "--max-pairs", "1"])
    assert (code, text) == (4, "")
    assert capsys.readouterr().err == "resource cap: presentation: pair budget 1 exhausted\n"


def test_v4_verify_with_no_pair_budget_makes_no_basis_computation(monkeypatch):
    """For f = a, the Jacobian criterion on 1 + a, the ideal (1 + a, 1),
    holds a constant, so `is_unit_ideal` settles it before any run and
    `--max-pairs 0` passes."""
    results = []
    runs = spolynomials_per_run(monkeypatch, lambda: results.append(
        run(["verify", "--family", "v4", "--f=a", "--max-pairs", "0"])))
    ((code, text),) = results
    assert (code, runs) == (0, [])
    assert json.loads(text)["checks"]["boundarySmooth"] is True


@pytest.mark.parametrize("f, code, err", [
    ("a^2 + b*c", 0, ""),
    ("a^5 + b*c^2 + a*b + c", 4, "resource cap: boundarySmooth: pair budget 1 exhausted\n"),
])
def test_v4_cap_hit_names_the_smoothness_stage(f, code, err, capsys):
    """A v4 battery's one Buchberger run is the Jacobian criterion on
    1 + f in f's variables, under the caps and named `boundarySmooth`;
    at one pair it passes for a^2 + b*c, whose run reduces one
    S-polynomial (B's Jacobian criterion needed 9), and stops at
    a^5 + b*c^2 + a*b + c, whose run reduces 16."""
    assert run(["verify", "--family", "v4", f"--f={f}", "--max-pairs", "1"])[0] == code
    assert capsys.readouterr().err == err


def test_v4_smoothness_runs_in_the_degree_of_f(capsys):
    """The criterion on 1 + f runs in f's ring, with the degree of f, so a
    shape of degree 31 passes under the default degree budget of 60,
    which B's Jacobian criterion, of degree 62, once exhausted: `verify`
    exited 4 with `resource cap: boundarySmooth: degree budget 60
    exhausted`."""
    code, text = run(["verify", "--family", "v4", "--f=a^31 + b*c^2 + a*b + c"])
    assert (code, capsys.readouterr().err) == (0, "")
    assert json.loads(text)["checks"] == dict.fromkeys(
        ("invariant", "affineSpace", "stable", "free", "ybarSmooth", "boundarySmooth"), True)


def test_cap_errors_are_not_cached_and_keep_their_stage(capsys):
    """W is cached per family and trivial summands, and the bound on the
    trivial summands is checked before W is built, so its cap error is
    raised again, with no stage, on every call and fills no entry; a cap
    the presentation's Groebner run reaches keeps its stage."""
    families._representation.cache_clear()
    for _ in range(2):
        code, text = run(["verify", "--family", "v3", "--f=s", "--trivial", "100"])
        assert (code, text) == (4, "")
        assert capsys.readouterr().err == (
            "resource cap: 100 trivial summands exceed the bound 92 for v3\n")
    assert families._representation.cache_info().currsize == 0
    for warm in (False, True):  # the first call fills the cache, before the pair budget runs out
        misses = families._representation.cache_info().misses
        code, text = run(["verify", "--family", "v3", "--f=s", "--max-pairs", "1"])
        assert (code, text) == (4, "")
        assert capsys.readouterr().err == "resource cap: presentation: pair budget 1 exhausted\n"
        assert families._representation.cache_info().misses == misses + (not warm)


def test_trivial_summands_are_bounded_by_w_coordinates(capsys):
    """The presentation takes t trivial summands while W's 6 + t
    coordinates stay within W_COORDINATE_BOUND, 98, which bounds the size
    of the t trivial survivors, O(t**2) exponent entries: t = 92 passes,
    and t = 93 exits 4, as does a far larger t, at once."""
    code, text = run(["present", "--f=s", "--trivial", "92"])
    assert code == 0 and text
    for trivial in ("93", "10000"):
        code, text = run(["verify", "--family", "v3", "--f=s", "--trivial", trivial])
        assert (code, text) == (4, "")
        assert capsys.readouterr().err == (
            f"resource cap: {trivial} trivial summands exceed the bound 92 for v3\n")


def test_trivial_summands_past_the_cap_build_no_representation(capsys):
    """verify checks the bound on t before W is built: a count past it
    leaves the representation cache as it was and prints the cap error,
    with no stage.  So do the library's paths to W: `build_family` and
    the first read of a spec's ring raise the same error and build no
    W."""
    families._representation.cache_clear()
    code, text = run(["verify", "--family", "v3", "--f=s", "--trivial", "100000"])
    assert (code, text) == (4, "")
    assert families._representation.cache_info().currsize == 0
    assert capsys.readouterr().err == (
        "resource cap: 100000 trivial summands exceed the bound 92 for v3\n")
    spec = families.FamilySpec("v3", parse("s", VarSet(("s",))), 100000)
    for path in (lambda: families.build_family(spec),
                 lambda: spec.w_ring):
        with pytest.raises(gaquot.ResourceCapError,
                           match="^100000 trivial summands exceed the bound 92 for v3$"):
            path()
        assert families._representation.cache_info().currsize == 0


def test_v4_trivial_summands_are_bounded_before_the_representation(capsys):
    """v4 checks the same bound before W is built, over its 8 + t
    coordinates: t = 90 passes, t = 91 exits 4, and so does t = 10**9, at
    once and with no W built.  The cap error names no
    stage, as on every path; f = 0 reports its empty boundary first, as
    for v3."""
    code, text = run(["verify", "--family", "v4", "--f=a", "--trivial", "90"])
    assert code == 0 and json.loads(text)["trivialSummands"] == 90
    families._representation.cache_clear()
    for trivial in ("91", "1000000000"):
        code, text = run(["verify", "--family", "v4", "--f=a", "--trivial", trivial])
        assert (code, text) == (4, "")
        assert capsys.readouterr().err == (
            f"resource cap: {trivial} trivial summands exceed the bound 90 for v4\n")
    assert families._representation.cache_info().currsize == 0
    code, text = run(["verify", "--family", "v4", "--f=0", "--trivial", "91"])
    assert (code, text) == (2, "")
    assert capsys.readouterr().err == (
        "check failed: empty boundary: the rank bookkeeping needs a nonempty complement\n")


def test_the_w_bound_does_not_follow_the_kernel_cap(monkeypatch, capsys):
    """The bound on trivial summands and kernel_linear's cap on its
    coefficient space are two bounds: with the cap lowered to 100, v3
    t = 92 and v4 t = 90 still pass, v3 t = 93 and v4 t = 91 still exit 4
    with the W bound's message, and kernel_linear meets the lowered cap."""
    monkeypatch.setattr(derivations, "KERNEL_DIMENSION_CAP", 100)
    families._representation.cache_clear()
    for family, f, bound in (("v3", "s", 92), ("v4", "a", 90)):
        code, text = run(["verify", "--family", family, f"--f={f}", "--trivial", str(bound)])
        assert (code, capsys.readouterr().err) == (0, "")
        assert json.loads(text)["trivialSummands"] == bound
        code, text = run(["verify", "--family", family, f"--f={f}",
                          "--trivial", str(bound + 1)])
        assert (code, text) == (4, "")
        assert capsys.readouterr().err == (
            f"resource cap: {bound + 1} trivial summands exceed the bound {bound} "
            f"for {family}\n")
    with pytest.raises(gaquot.ResourceCapError,
                       match="^coefficient space of dimension 153 exceeds 100$"):
        gaquot.kernel_linear(gaquot.lower_triangular_derivation(3, 10), 2)


@pytest.mark.parametrize("command", [
    pytest.param(["verify", "--family", "v3"], id="v3"),
    pytest.param(["verify", "--family", "v4"], id="v4"),
    pytest.param(["present"], id="present"),
])
def test_zero_shape_reports_its_empty_boundary_before_w_is_built(command, monkeypatch, capsys):
    """f = 0 leaves B empty whatever W is: verify, of either family, and
    present exit 2 with the empty boundary at any count of trivial
    summands, building no W."""
    def unbuilt(*args):
        raise AssertionError("W was built")

    monkeypatch.setattr(families, "_representation", unbuilt)
    code, text = run(command + ["--f=0", "--trivial", "1000000"])
    assert (code, text) == (2, "")
    assert capsys.readouterr().err == (
        "check failed: empty boundary: the rank bookkeeping needs a nonempty complement\n")


def test_present_past_the_cap_builds_no_representation(capsys):
    """present checks the same bound in the same place; its cap error
    names no stage."""
    families._representation.cache_clear()
    code, text = run(["present", "--f=s", "--trivial", "100000"])
    assert (code, text) == (4, "")
    assert families._representation.cache_info().currsize == 0
    assert capsys.readouterr().err == (
        "resource cap: 100000 trivial summands exceed the bound 92 for v3\n")


@pytest.mark.parametrize("options, code, err", [
    (["--f=0"], 2,
     "check failed: empty boundary: the rank bookkeeping needs a nonempty complement\n"),
    (["--f=3"], 3, "rejected: f must vanish at the origin\n"),
    (["--f=(1+s)^2 - 1"], 3, "rejected: f + 1 has a repeated root\n"),
    (["--f=s^61 + s"], 4, "resource cap: f has degree 61, above the degree budget 60\n"),
    (["--f=s", "--max-pairs", "4"], 4, "resource cap: presentation: pair budget 4 exhausted\n"),
    (["--f=s^60 + s"], 4, "resource cap: presentation: degree budget 60 exhausted\n"),
], ids=["zero", "constant", "repeated-root", "past-the-degree-budget",
        "presentation-pair-budget", "presentation-degree-budget"])
def test_verify_and_present_share_one_domain(options, code, err, capsys):
    """present and verify --family v3 run one `run_battery`: a shape its
    validation refuses, or whose presentation hits a cap, exits with the
    same code and the same stderr under either command, the stage named,
    and prints nothing."""
    for command in (["present"], ["verify", "--family", "v3"]):
        assert run(command + options) == (code, "")
        assert capsys.readouterr().err == err


def test_successive_calls_share_no_state(tmp_path, capsys):
    """main reuses one parser per process; options of one call do not
    carry into the next."""
    code, text = run(["verify", "--family", "v3", "--f=s", "--max-pairs", "1"])
    assert (code, text) == (4, "")
    code, text = run(["verify", "--family", "v3", "--f=s"])
    assert code == 0
    assert json.loads(text)["capsUsed"]["maxPairs"] == 100000
    path = tmp_path / "derivation.txt"
    path.write_text(V3_DERIVATION, encoding="utf-8")
    code, text = run(["kernel", "--derivation", str(path), "--method", "saturation",
                      "--max-degree", "3"])
    assert (code, text) == (1, "")
    capsys.readouterr()
    code, text = run(["kernel", "--derivation", str(path), "--method", "linear"])
    assert code == 0
    assert text.splitlines() == ["w1", "w3", "w5", "w2*w3 - w1*w4", "w2*w5 - w1*w6",
                                 "w4*w5 - w3*w6"]
    assert capsys.readouterr().err == ""
    assert cli._parser() is cli._parser()


def test_verify_above_degree_31_passes(tmp_path):
    """At deg 32 the Jacobian Groebner runs passed the default degree cap;
    the v3 smoothness identities need no Groebner run."""
    target = tmp_path / "report.json"
    f = signed_roots_shape(32, 7)
    code, text = run(["verify", "--family", "v3", f"--f={f}", "--out", str(target)])
    assert (code, text) == (0, f"pass: report written to {target}\n")
    doc = json.loads(target.read_text())
    assert all(doc["checks"].values())
    assert doc["m"] == 32 and doc["boundaryCodim"] == 2


def test_verify_reports_are_byte_identical():
    _, first = run(["verify", "--family", "v3", "--f", "s"])
    _, second = run(["verify", "--family", "v3", "--f", "s"])
    assert first == second


def test_verify_out_file(tmp_path):
    target = tmp_path / "report.json"
    code, text = run(["verify", "--family", "v3", "--f", "s", "--out", str(target)])
    assert code == 0
    assert "pass" in text
    doc = json.loads(target.read_text(encoding="utf-8"))
    assert doc["m"] == 1


def test_verify_moduli_instance():
    code, text = run(["verify", "--family", "v4", "--f", "a"])
    assert code == 0
    doc = json.loads(text)
    assert doc["m"] is None
    assert doc["k0Ranks"] is None
    assert doc["presentation"] is None
    assert all(doc["checks"].values())


def test_usage_errors_exit_one():
    assert run(["verify", "--family", "v9", "--f", "s"])[0] == 1
    assert run(["frobnicate"])[0] == 1
    assert run([])[0] == 1


# -- kernel ------------------------------------------------------------------------


def test_kernel_linear_output(tmp_path):
    path = tmp_path / "derivation.txt"
    path.write_text(V3_DERIVATION, encoding="utf-8")
    code, text = run(["kernel", "--derivation", str(path), "--max-degree", "2"])
    assert code == 0
    lines = [line for line in text.splitlines() if line]
    assert len(lines) == 6
    ring = VarSet(("w1", "w2", "w3", "w4", "w5", "w6"))
    got = [parse(line, ring) for line in lines]
    expected = [
        parse(t, ring)
        for t in ("w1", "w3", "w5", "w1*w4 - w2*w3", "w1*w6 - w2*w5",
                  "w3*w6 - w4*w5")
    ]
    for e in expected:
        member, _ = subalgebra_membership(e, got)
        assert member


def test_kernel_max_degree_defaults_to_two_and_is_linear_only(tmp_path, capsys):
    path = tmp_path / "derivation.txt"
    path.write_text(V3_DERIVATION, encoding="utf-8")
    default = run(["kernel", "--derivation", str(path)])
    assert default == run(["kernel", "--derivation", str(path), "--max-degree", "2"])
    assert default[0] == 0 and len(default[1].splitlines()) == 6
    for degree in ("1", "99"):
        code, text = run(["kernel", "--derivation", str(path), "--method", "saturation",
                          "--max-degree", degree])
        assert (code, text) == (1, "")
        assert "linear method only" in capsys.readouterr().err


def test_kernel_zero_derivation(tmp_path):
    path = tmp_path / "zero.txt"
    path.write_text("vars: x y z\n", encoding="utf-8")
    code, text = run(["kernel", "--derivation", str(path), "--max-degree", "1"])
    assert code == 0
    assert sorted(text.split()) == ["x", "y", "z"]


def test_kernel_saturation_zero_rounds(tmp_path, capsys):
    path = tmp_path / "derivation.txt"
    path.write_text(V3_DERIVATION, encoding="utf-8")
    code, text = run(["kernel", "--derivation", str(path), "--method", "saturation",
                      "--max-rounds", "0"])
    assert code == 0
    assert len(text.splitlines()) == 5  # projections only, one determinant missing
    assert "stabilization not verified" in capsys.readouterr().err


def test_kernel_saturation_slice_choice(tmp_path, capsys):
    chain = tmp_path / "chain.txt"  # z is no slice (D(D(z)) = x), y is
    chain.write_text("vars: z y x\nz -> y\ny -> x\n", encoding="utf-8")
    code, text = run(["kernel", "--derivation", str(chain), "--method", "saturation",
                      "--max-rounds", "4"])
    assert code == 0
    derivation = gaquot.load_derivation_file(chain)
    gens = gaquot.kernel_saturation(derivation, gaquot.make_slice(derivation, "y"), 4)
    assert text.splitlines() == [str(g) for g in gens]
    none = tmp_path / "none.txt"  # D(x) = x: D(D(x)) never vanishes
    none.write_text("x -> x\n", encoding="utf-8")
    code, text = run(["kernel", "--derivation", str(none), "--method", "saturation"])
    assert code == 1 and text == ""
    assert capsys.readouterr().err == (
        "error: no slice variable (need D(s) nonzero with D(D(s)) = 0)\n")


def test_kernel_rejects_a_variable_assigned_twice(tmp_path, capsys):
    """A derivation file that gives one variable two images is a usage
    error naming it; no line silently wins."""
    path = tmp_path / "twice.txt"
    path.write_text("x -> y\nx -> 1\n", encoding="utf-8")
    assert run(["kernel", "--derivation", str(path), "--method", "linear"]) == (1, "")
    assert "variable 'x' is assigned twice" in capsys.readouterr().err


def test_kernel_missing_file():
    assert run(["kernel", "--derivation", "/nonexistent/d.txt"])[0] == 1


@pytest.mark.parametrize("command", [["kernel", "--derivation"], ["gb", "--ideal"],
                                     ["verify", "--family", "v3", "--f", "s", "--out"]],
                         ids=["kernel", "gb", "verify"])
def test_directory_paths_are_usage_errors(command, tmp_path, capsys):
    """A path that cannot be read or written is a usage error, not a bug."""
    code, _ = run(command + [str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ")
    assert "Traceback" not in err


# -- gb ---------------------------------------------------------------------------


def test_gb_unit_basis(tmp_path):
    path = tmp_path / "stability.txt"
    path.write_text(STABILITY_IDEAL, encoding="utf-8")
    code, text = run(["gb", "--ideal", str(path)])
    assert code == 0
    assert text.strip() == "1"


def test_gb_single_generator_monic(tmp_path):
    path = tmp_path / "single.txt"
    path.write_text("2*x - 2*y\n", encoding="utf-8")
    code, text = run(["gb", "--ideal", str(path)])
    assert code == 0
    assert text.strip() == "x - y"


def test_gb_elimination_order(tmp_path):
    path = tmp_path / "parabola.txt"
    path.write_text(PARABOLA_IDEAL, encoding="utf-8")
    code, text = run(["gb", "--ideal", str(path), "--order", "elim:1"])
    assert code == 0
    assert "x^2 - y" in text.splitlines()


def test_gb_variable_inference(tmp_path):
    path = tmp_path / "inferred.txt"
    path.write_text("a*b - 1\nb - a\n", encoding="utf-8")
    code, text = run(["gb", "--ideal", str(path)])
    assert code == 0
    assert text.strip()


def test_gb_exponent_bound_is_a_resource_cap(tmp_path):
    """Exponents must stay below 2**31; the largest allowed one passes."""
    path = tmp_path / "huge.txt"
    path.write_text("x^2147483648 - 1\n", encoding="utf-8")
    assert run(["gb", "--ideal", str(path)])[0] == 4
    path.write_text("x^2147483647 - 1\n", encoding="utf-8")
    assert run(["gb", "--ideal", str(path)]) == (0, "x^2147483647 - 1\n")


@pytest.mark.parametrize("argv", [
    ["verify", "--family", "v3", "--f=s^99999999999"],
    ["verify", "--family", "v4", "--f=a^99999999999"],
    ["present", "--f=s^99999999999"],
], ids=["verify-v3", "verify-v4", "present"])
def test_shape_exponent_bound_is_a_resource_cap(argv, capsys):
    """An exponent of f at or above 2**31 exits 4 at validation, before
    the squarefree test or f(q) could expand it."""
    assert run(argv) == (4, "")
    assert capsys.readouterr().err == \
        "resource cap: exponent 99999999999 is at or above the bound 2**31\n"


@pytest.mark.parametrize("argv, degree, budget", [
    (["verify", "--family", "v3", "--f=s^2147483647+s"], 2147483647, 60),
    (["present", "--f=s^2147483647+s"], 2147483647, 60),
    (["verify", "--family", "v3", "--f=s^61+s"], 61, 60),
    (["verify", "--family", "v3", "--f=s^3+s", "--max-degree", "2"], 3, 2),
    (["present", "--f=s^3+s", "--max-degree", "2"], 3, 2),
    (["verify", "--family", "v4", "--f=a^40*b^21+c"], 61, 60),
], ids=["verify-huge", "present-huge", "verify-61", "verify-cap-2", "present-cap-2", "verify-v4"])
def test_shape_degree_is_capped_at_validation(argv, degree, budget, monkeypatch, capsys):
    """A shape of total degree above --max-degree exits 4 at validation,
    before the squarefree test builds its dense lists of deg f + 1
    coefficients: s^2147483647 + s once ran out of memory there (exit
    5).  The squarefree test is replaced by a failure, so a missing cap
    fails here instead of allocating."""
    def no_squarefree_test(p):
        raise AssertionError("the squarefree test ran on a shape past the degree cap")

    monkeypatch.setattr(families, "is_squarefree", no_squarefree_test)
    assert run(argv) == (4, "")
    assert capsys.readouterr().err == \
        f"resource cap: f has degree {degree}, above the degree budget {budget}\n"


def test_shape_degree_at_the_cap_passes_validation(capsys):
    """Degree 60 is within the default budget: validation passes, and the
    run exits 4 later, at the presentation, as it did before the cap."""
    assert run(["verify", "--family", "v3", "--f=s^60+s"]) == (4, "")
    assert capsys.readouterr().err == "resource cap: presentation: degree budget 60 exhausted\n"


@pytest.mark.parametrize("seed", [1, 7, 11])
def test_signed_roots_shapes_pass_up_to_degree_59(seed, capsys):
    """Under the default caps `verify` passes the signed-roots shapes up
    to deg f = 59; at deg 60 a remainder of the presentation's one
    elimination passes the degree budget."""
    assert run(["verify", "--family", "v3", f"--f={signed_roots_shape(59, seed)}"])[0] == 0
    capsys.readouterr()
    assert run(["verify", "--family", "v3", f"--f={signed_roots_shape(60, seed)}"]) == (4, "")
    assert capsys.readouterr().err == "resource cap: presentation: degree budget 60 exhausted\n"


def nested(depth: int, text: str) -> str:
    return "(" * depth + text + ")" * depth


def test_deeply_nested_input_is_a_parse_error(tmp_path, capsys):
    """Nesting past the interpreter's recursion limit is a usage error,
    exit 1 and no traceback, in a shape and in an ideal file alike; 100
    levels still parse."""
    path = tmp_path / "deep.txt"
    path.write_text(nested(400, "x") + "\n", encoding="utf-8")
    for argv in (["verify", "--family", "v3", f"--f={nested(400, 's')}"],
                 ["gb", "--ideal", str(path)]):
        assert run(argv) == (1, "")
        err = capsys.readouterr().err
        assert err.startswith("error: input nested too deeply") and "Traceback" not in err
    shallow = run(["verify", "--family", "v3", f"--f={nested(100, 's')}"])
    assert shallow == run(["verify", "--family", "v3", "--f=s"]) and shallow[0] == 0
    path.write_text(nested(100, "2*x") + "\n", encoding="utf-8")
    assert run(["gb", "--ideal", str(path)]) == (0, "x\n")


def test_gb_unknown_order(tmp_path):
    path = tmp_path / "single.txt"
    path.write_text("x\n", encoding="utf-8")
    assert run(["gb", "--ideal", str(path), "--order", "mystery"])[0] == 1


def test_gb_elimination_count_beyond_ring_size(tmp_path, capsys):
    """elim:K needs K <= the number of variables; K = the ring size is valid."""
    path = tmp_path / "mixed.txt"
    path.write_text(MIXED_IDEAL, encoding="utf-8")
    for order in ("elim:4", "elim:99"):
        assert run(["gb", "--ideal", str(path), "--order", order]) == (1, "")
        assert "elimination count out of range" in capsys.readouterr().err
    code, text = run(["gb", "--ideal", str(path), "--order", "elim:3"])
    assert code == 0
    assert text.strip()


def test_max_rounds_only_where_read(tmp_path, capsys):
    """--max-rounds belongs to kernel's saturation method, which spends
    it; verify, gb and present reject it, and so does the linear method,
    as saturation rejects --max-degree."""
    path = tmp_path / "single.txt"
    path.write_text("x\n", encoding="utf-8")
    assert run(["verify", "--family", "v3", "--f=s", "--max-rounds", "8"]) == (1, "")
    assert run(["gb", "--ideal", str(path), "--max-rounds", "5"])[0] == 1
    assert run(["present", "--f", "s", "--max-rounds", "0"])[0] == 1
    capsys.readouterr()
    derivation = tmp_path / "derivation.txt"
    derivation.write_text(V3_DERIVATION, encoding="utf-8")
    for method in ([], ["--method", "linear"]):
        for rounds in ("0", "8"):
            code, text = run(["kernel", "--derivation", str(derivation), *method,
                              "--max-rounds", rounds])
            assert (code, text) == (1, "")
            assert "saturation method only" in capsys.readouterr().err
    default = run(["kernel", "--derivation", str(derivation), "--method", "saturation"])
    assert default[0] == 0 and default == run(["kernel", "--derivation", str(derivation),
                                               "--method", "saturation", "--max-rounds", "8"])


@pytest.mark.parametrize("method, line", [
    ("linear", "(no nonconstant generators up to the requested degree)"),
    ("saturation", "(no nonconstant generators)"),
])
def test_kernel_with_no_invariants_says_so(method, line, tmp_path):
    """D(x) = 1 kills only the constants.  Only the linear method takes a
    degree bound, so only its message names one."""
    path = tmp_path / "translation.txt"
    path.write_text("vars: x\nx -> 1\n", encoding="utf-8")
    assert run(["kernel", "--derivation", str(path), "--method", method]) == (0, line + "\n")


def test_gb_of_the_zero_ideal_prints_zero(tmp_path):
    path = tmp_path / "zero.txt"
    path.write_text("x - x\n", encoding="utf-8")
    assert run(["gb", "--ideal", str(path)]) == (0, "0\n")


@pytest.mark.parametrize("argv, message", [
    (["kernel", "--method", "saturation", "--max-rounds", "-1"], "max_rounds"),
    (["kernel", "--max-rounds", "-5"], "max_rounds"),
    (["kernel", "--max-pairs", "-3"], "max_pairs"),
    (["verify", "--family", "v3", "--f=s", "--max-pairs", "-3"], "max_pairs"),
    (["verify", "--family", "v3", "--f=s", "--max-degree", "-2"], "max_degree"),
    (["gb", "--max-pairs", "-3"], "max_pairs"),
    (["gb", "--max-degree", "-2"], "max_degree"),
    (["present", "--f=s", "--max-pairs", "-3"], "max_pairs"),
    (["present", "--f=s", "--max-degree", "-2"], "max_degree"),
], ids=lambda case: " ".join(case) if isinstance(case, list) else case)
def test_negative_budgets_are_usage_errors(argv, message, tmp_path, capsys):
    """A negative budget exits 1 before any work, and verify writes no
    report that records it."""
    derivation = tmp_path / "derivation.txt"
    derivation.write_text(V3_DERIVATION, encoding="utf-8")
    ideal = tmp_path / "parabola.txt"
    ideal.write_text(PARABOLA_IDEAL, encoding="utf-8")
    inputs = {"kernel": ["--derivation", str(derivation)], "gb": ["--ideal", str(ideal)]}
    code, text = run(argv[:1] + inputs.get(argv[0], []) + argv[1:])
    assert (code, text) == (1, "")
    assert f"{message} must be nonnegative" in capsys.readouterr().err


def value_options() -> list:
    """(command, option, the command's required options) for each option
    of each subcommand that takes a value, read off the parser."""
    (commands,) = [action.choices for action in cli.build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    cases = []
    for command, sub in commands.items():
        actions = [action for action in sub._actions if action.nargs != 0]  # not --help
        required = [action.option_strings[0] for action in actions if action.required]
        cases += [pytest.param(command, option, required, id=f"{command} {option}")
                  for action in actions for option in action.option_strings]
    return cases


@pytest.mark.parametrize("command, option, required", value_options())
def test_a_lone_double_dash_value_is_a_usage_error(command, option, required, tmp_path,
                                                   capsys):
    """argparse reads `--opt=--` as an empty list, past `choices` and
    `type`: it exits 1 naming the option, before any handler runs, for
    every option the parser has, a required one given twice included (the
    last value counts).  Without it, the same argv exits 0."""
    derivation = tmp_path / "derivation.txt"
    derivation.write_text(V3_DERIVATION, encoding="utf-8")
    ideal = tmp_path / "parabola.txt"
    ideal.write_text(PARABOLA_IDEAL, encoding="utf-8")
    values = {"--family": "v3", "--f": "s", "--derivation": derivation, "--ideal": ideal}
    argv = [command] + [f"{o}={values[o]}" for o in required]
    assert run(argv + [f"{option}=--"]) == (1, "")
    assert capsys.readouterr().err == f"error: {option} expected one argument\n"
    assert run(argv)[0] == 0


# -- present ------------------------------------------------------------------------


def test_present_identity_instance():
    code, text = run(["present", "--f", "s"])
    assert code == 0
    lines = text.splitlines()
    assert sum(1 for l in lines if l.startswith("y")) == 5
    assert sum(1 for l in lines if l.startswith("relation:")) == 1
    assert lines[-1] == "round-trip: verified"


PRESENT_CUBIC_TRIVIAL_1 = """\
y1 = z2
y2 = z4
y3 = z6
y4 = z3*z4 - z2*z5
y5 = z3^3*z4^3*z5 - 3*z2*z3^2*z4^2*z5^2 + 3*z2^2*z3*z4*z5^3 - z2^3*z5^4 \
- 11/6*z3^2*z4^2*z5 + 11/3*z2*z3*z4*z5^2 - 11/6*z2^2*z5^3 + z3*z4*z5 - z2*z5^2 \
+ 1/6*z1*z4 - 1/6*z5
y6 = z3^4*z4^3 - 3*z2*z3^3*z4^2*z5 + 3*z2^2*z3^2*z4*z5^2 - z2^3*z3*z5^3 \
- 11/6*z3^3*z4^2 + 11/3*z2*z3^2*z4*z5 - 11/6*z2^2*z3*z5^2 + z3^2*z4 - z2*z3*z5 \
+ 1/6*z1*z2 - 1/6*z3
relation: y4^4 - 11/6*y4^3 + y4^2 + y1*y5 - y2*y6 - 1/6*y4
round-trip: verified
"""


def test_present_cubic_with_trivial_summand_output():
    """Exact output for a cubic shape next to one trivial coordinate (z6)."""
    code, text = run(["present", "--f", "(1+s)*(1+2*s)*(1+3*s) - 1", "--trivial", "1"])
    assert code == 0
    assert text == PRESENT_CUBIC_TRIVIAL_1


# -- rational pins: printing of int and Fraction coefficients, monic scaling ----------

PRESENT_RATIONAL_TRIVIAL_1 = """\
y1 = z2
y2 = z4
y3 = z6
y4 = z3*z4 - z2*z5
y5 = z3^2*z4^2*z5 - 2*z2*z3*z4*z5^2 + z2^2*z5^3 - 7/3*z3*z4*z5 + 7/3*z2*z5^2 - 7*z1*z4 + 7*z5
y6 = z3^3*z4^2 - 2*z2*z3^2*z4*z5 + z2^2*z3*z5^2 - 7/3*z3^2*z4 + 7/3*z2*z3*z5 - 7*z1*z2 + 7*z3
relation: y4^3 - 7/3*y4^2 + y1*y5 - y2*y6 + 7*y4
round-trip: verified
"""

VERIFY_V4_RATIONAL = """\
{
  "schemaVersion": "1",
  "family": "v4",
  "f": "1/2*a + 3*b - 1/5*c",
  "trivialSummands": 0,
  "dims": {
    "X": 7,
    "quotient": 6,
    "Ybar": 9,
    "B": 7
  },
  "checks": {
    "invariant": true,
    "affineSpace": true,
    "stable": true,
    "free": true,
    "ybarSmooth": true,
    "boundarySmooth": true
  },
  "boundaryCodim": 2,
  "m": null,
  "k0Ranks": null,
  "presentation": null,
  "capsUsed": {
    "maxPairs": 100000,
    "maxDegree": 60,
    "maxRounds": 8
  }
}
"""

GB_RATIONAL_LEX = """\
z^3 - 186691/102900*z^2 - 2263/2205*z + 19/27
5145/6709*z^2 + y - 139231/134180*z - 16023/13418
-735/6709*z^2 + x + 1078491/939260*z - 19969/40254
"""

GB_RATIONAL_ELIM_1 = """\
z^2 + 6709/5145*y - 139231/102900*z - 109/70
y*z - 113/245*y + 1051/14700*z + 1/90
y^2 - 151/105*y - 71/2100*z - 7/90
x + 1/7*y + z - 2/3
"""

FRACTION_IDEAL = """\
vars: x y z
1/2*x^2 + 2/3*y - 1
3*x*y - 1/5*z
x + 1/7*y + z - 2/3
"""


def test_present_rational_shape_output():
    assert run(["present", "--f", "1/3*s + 1/7*s^2", "--trivial", "1"]) == \
        (0, PRESENT_RATIONAL_TRIVIAL_1)


def test_verify_rational_moduli_output():
    assert run(["verify", "--family", "v4", "--f", "1/2*a + 3*b - 1/5*c"]) == \
        (0, VERIFY_V4_RATIONAL)


@pytest.mark.parametrize("order, expected", [("lex", GB_RATIONAL_LEX),
                                             ("elim:1", GB_RATIONAL_ELIM_1)])
def test_gb_rational_ideal_output(order, expected, tmp_path):
    path = tmp_path / "fractions.txt"
    path.write_text(FRACTION_IDEAL)
    assert run(["gb", "--ideal", str(path), "--order", order]) == (0, expected)


def test_present_rejects_moduli_family():
    assert run(["present", "--family", "v4", "--f", "a"])[0] == 1


def test_present_rejects_repeated_roots():
    assert run(["present", "--f", "(1+s)^2 - 1"])[0] == 3


def test_present_pair_budget_covers_the_elimination():
    """The invariant presentation is one basis computation under one
    --max-pairs budget: for f = s it reduces 5 S-polynomials, so a budget
    of 4 exits 4 and one of 5 passes, under `present` and `verify` alike."""
    assert run(["present", "--f=s", "--max-pairs", "1"])[0] == 4
    for argv in (["present", "--f=s"], ["verify", "--family", "v3", "--f=s"]):
        assert run(argv + ["--max-pairs", "4"])[0] == 4
        assert run(argv + ["--max-pairs", "5"])[0] == 0


def test_present_deterministic():
    assert run(["present", "--f", "s"]) == run(["present", "--f", "s"])


def test_verify_empty_boundary_is_math_failure():
    # f = 0 satisfies the spec invariants but leaves no boundary at all,
    # so the rank bookkeeping cannot run
    code, _ = run(["verify", "--family", "v3", "--f", "0"])
    assert code == 2


@pytest.mark.parametrize("argv, digest", [
    (["--family", "v3", "--f=s"],
     "b1f68df704cc86ab2055e269fac317fe779b384600f71b0b44878c829a8362f0"),
    (["--family", "v3", "--f=s", "--trivial", "2"],
     "7e8fa00f0f1976b9f17b19f8ad0fc97443e42c86228f4453f6ef0c1a7ce38886"),
    (["--family", "v3", "--f=(1+s)*(1+2*s)*(1+3*s) - 1"],
     "7a6ee02e6a57415b85aff525b03322b7d1920f0e360a597363fd9ad7d03d2e11"),
    (["--family", "v3", "--f=(1 - 5*s)*(1 + 5/2*s)*(1 - 5/3*s)*(1 + 5/4*s)*(1 - s) - 1"],
     "a7c0a370475d966376368b36e41b4f3ae14d556dfbbb61f256d8af0ed62c88e3"),
    (["--family", "v3", f"--f={signed_roots_shape(12, 7)}", "--trivial", "2"],
     "d03b43a8703524030d7c1fa41e1b9ce24effa9deea24a365602f855a6740d1fc"),
    (["--family", "v4", "--f=a"],
     "42afcc1fbadf23351f43c04985be06a96d6735ec2cf05c0e60687ae6610271b3"),
    (["--family", "v4", "--f=a+2*b-c"],
     "8eaad32ea7bd3083264f536cb85e76ff65ba7311c281d1b7822c3dae58830a68"),
], ids=["v3-s", "v3-s-trivial2", "v3-cubic", "v3-rational-deg5", "v3-signed-deg12-trivial2",
        "v4-a", "v4-linear"])
def test_verify_report_is_pinned(argv, digest):
    """The exact `verify` report of v3 and v4 instances, with and without
    trivial summands, a v3 shape with rational coefficients among them: a
    change in any byte is a change in the report."""
    code, text = run(["verify", *argv])
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_verify_with_trivial_summands():
    code, text = run(["verify", "--family", "v3", "--f", "s", "--trivial", "2"])
    assert code == 0
    doc = json.loads(text)
    assert doc["trivialSummands"] == 2
    assert doc["dims"] == {"X": 7, "quotient": 6, "Ybar": 9, "B": 7}


def test_help_exits_zero(capsys):
    assert run(["--help"])[0] == 0
    capsys.readouterr()


def test_kernel_saturation_round_cap_exit(tmp_path):
    path = tmp_path / "derivation.txt"
    path.write_text(V3_DERIVATION, encoding="utf-8")
    code, _ = run(["kernel", "--derivation", str(path), "--method", "saturation",
                   "--max-rounds", "1"])
    assert code == 4


def test_kernel_saturation_inexact_division_exits_internal(tmp_path, monkeypatch, capsys):
    """Negative control: a relation image the slice image does not divide
    is a bug, reported as an internal error (exit 5)."""
    monkeypatch.setattr(derivations, "divide_exact", lambda p, d: None)
    path = tmp_path / "derivation.txt"
    path.write_text(V3_DERIVATION, encoding="utf-8")
    assert run(["kernel", "--derivation", str(path), "--method", "saturation"]) == (5, "")
    assert capsys.readouterr().err.startswith(
        "internal error: ValueError: relation image ")


# -- determinism across processes -----------------------------------------------------


def test_reports_identical_across_hash_seeds(tmp_path):
    """Byte-identical output and exit codes of verify, present, gb and
    kernel under different hash seeds, v4, a singular v4 control (exit 2)
    and a deg-30 v3 shape decided from f composed with q included."""
    path = tmp_path / "mixed.txt"
    path.write_text(MIXED_IDEAL, encoding="utf-8")
    derivation = tmp_path / "derivation.txt"
    derivation.write_text(V3_DERIVATION, encoding="utf-8")
    katsura = tmp_path / "katsura3.txt"
    katsura.write_text(KATSURA3_IDEAL, encoding="utf-8")
    commands = [
        ["verify", "--family", "v3", "--f=(1+s)*(1+2*s)*(1+3*s) - 1"],
        ["gb", "--ideal", str(path)],
        ["gb", "--ideal", str(path), "--order", "elim:1"],
        ["gb", "--ideal", str(katsura), "--order", "lex"],
        ["kernel", "--derivation", str(derivation), "--method", "linear"],
        ["kernel", "--derivation", str(derivation), "--method", "saturation"],
        ["verify", "--family", "v3", "--f=(1+s)*(1+2*s)*(1+3*s) - 1", "--trivial", "3"],
        ["present", "--f=(1+s)*(1+2*s)*(1+3*s) - 1", "--trivial", "2"],
        ["verify", "--family", "v4", "--f=a^2 + b*c"],
        ["verify", "--family", "v4", "--f=a^2 - 2*a + b^2 + c^2"],
        ["verify", "--family", "v3", f"--f={signed_roots_shape(30, 7)}", "--trivial", "2"],
    ]
    src = str(Path(gaquot.__file__).resolve().parents[1])
    for argv in commands:
        digests = set()
        for seed in ("1", "2", "3"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            done = subprocess.run([sys.executable, "-m", "gaquot.cli", *argv], env=env,
                                  capture_output=True, timeout=120)
            assert done.returncode in (0, 2) and done.stdout.strip(), done.stderr
            digests.add((done.returncode, hashlib.sha256(done.stdout).hexdigest()))
        assert len(digests) == 1, argv


def test_internal_errors_exit_five(monkeypatch, capsys):
    """An exception outside gaquot's error families is a bug: it exits 5,
    not the usage code 1 that Python gives an escaping exception."""
    def broken(args, out):
        raise TypeError("coefficient 0.1 is not rational")

    monkeypatch.setitem(cli._HANDLERS, "verify", broken)
    assert run(["verify", "--family", "v3", "--f", "s"]) == (cli.EXIT_INTERNAL, "")
    assert cli.EXIT_INTERNAL == 5
    assert "internal error: TypeError: coefficient 0.1 is not rational" in capsys.readouterr().err


def test_plain_value_errors_exit_five(monkeypatch, capsys):
    """Bad input raises UsageError (exit 1); a plain ValueError is a bug."""
    def broken(args, out):
        raise ValueError("raised by a bug")

    monkeypatch.setitem(cli._HANDLERS, "verify", broken)
    assert run(["verify", "--family", "v3", "--f", "s"]) == (cli.EXIT_INTERNAL, "")
    assert "internal error: ValueError: raised by a bug" in capsys.readouterr().err
    assert issubclass(gaquot.UsageError, gaquot.GaquotError)
    assert issubclass(gaquot.UsageError, ValueError)


@pytest.mark.parametrize("order, message", [("elim:x", "unknown order 'elim:x'"),
                                            ("elim:-1", "elimination count out of range")])
def test_gb_malformed_elimination_count(order, message, tmp_path, capsys):
    path = tmp_path / "single.txt"
    path.write_text("x\n", encoding="utf-8")
    assert run(["gb", "--ideal", str(path), "--order", order]) == (1, "")
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["gb --ideal", "kernel --derivation"])
def test_input_files_that_are_not_utf8_are_usage_errors(command, tmp_path, capsys):
    path = tmp_path / "binary.txt"
    path.write_bytes(b"x -> y\n\xff\n")
    assert run(command.split() + [str(path)]) == (1, "")
    assert capsys.readouterr().err == "error: file is not UTF-8 text (at position 7)\n"


@pytest.mark.parametrize("error", [gaquot.RingMismatchError, gaquot.MissingAssignmentError])
def test_library_errors_outside_the_mapping_exit_five(error, monkeypatch, capsys):
    """Every input is parsed over one ring and every substitution is total,
    so these errors mean a bug: they exit 5, not 1 (usage) or 2 (a failed
    check)."""
    def broken(args, out):
        raise error("raised by a bug")

    monkeypatch.setitem(cli._HANDLERS, "verify", broken)
    assert run(["verify", "--family", "v3", "--f", "s"]) == (cli.EXIT_INTERNAL, "")
    assert f"internal error: {error.__name__}: raised by a bug" in capsys.readouterr().err


# -- golden outputs -------------------------------------------------------------------


def _ideal_text(names, equations) -> str:
    return "vars: " + " ".join(names) + "\n" + "\n".join(equations) + "\n"


def _cyclic(n: int) -> str:
    xs = [f"x{i}" for i in range(n)]
    eqs = [" + ".join("*".join(xs[(i + k) % n] for k in range(d)) for i in range(n))
           for d in range(1, n)]
    return _ideal_text(xs, eqs + ["*".join(xs) + " - 1"])


def _katsura(n: int) -> str:
    xs = [f"x{i}" for i in range(n + 1)]
    x = {k: xs[abs(k)] for k in range(-n, n + 1)}
    eqs = [" + ".join(x[k] for k in range(-n, n + 1)) + " - 1"]
    for m in range(n):
        terms = [f"{x[k]}*{x[m - k]}" for k in range(-n, n + 1) if abs(m - k) <= n]
        eqs.append(" + ".join(terms) + f" - {xs[m]}")
    return _ideal_text(xs, eqs)


GOLDEN_INPUTS = {"katsura3": _katsura(3), "katsura4": _katsura(4), "cyclic4": _cyclic(4),
                 "v3.deriv": V3_DERIVATION}

def _golden(argv, name, digest):
    return pytest.param(argv, digest, id=name)


GOLDEN = [
    _golden(["gb", "--ideal", "@katsura3", "--order", "grevlex"], "gb-katsura3-grevlex",
            "509fd07264d96f4d47bb3ab405f5de1e6bc0c21f252d8fcc847ddec4e0407767"),
    _golden(["gb", "--ideal", "@katsura3", "--order", "lex"], "gb-katsura3-lex",
            "193f7f4d5c87a20242ae4a17c78a3ade3724e8d3b33273e88c4058190d817fb0"),
    _golden(["gb", "--ideal", "@katsura3", "--order", "elim:1"], "gb-katsura3-elim:1",
            "05937ba031ce274541efa09c85935910757fea840efc57992d29bb26fde6ea8f"),
    _golden(["gb", "--ideal", "@katsura4", "--order", "grevlex"], "gb-katsura4-grevlex",
            "aafe1874d44c4a29f0d3861318c6c3a26864da854e17217f280ac3de53b8c59a"),
    _golden(["gb", "--ideal", "@katsura4", "--order", "elim:1"], "gb-katsura4-elim:1",
            "969539476c0b32156bd2925e6955f44861797cba64dd5e74e918de7df111fa57"),
    _golden(["gb", "--ideal", "@cyclic4", "--order", "grevlex"], "gb-cyclic4-grevlex",
            "fbc6ee04fd319db2fcc603412e94cfa5eb510ce6f7ff2ffc1cdc00e283ff8618"),
    _golden(["gb", "--ideal", "@cyclic4", "--order", "lex"], "gb-cyclic4-lex",
            "454427a9d355a1be4d1f8ace413b31ecfd7414739296c9ba785588e8181e4640"),
    _golden(["gb", "--ideal", "@cyclic4", "--order", "elim:1"], "gb-cyclic4-elim:1",
            "d4805f1083f9efd7f5f17840b4e042de6a885e9260b46c31c3b4f4bf53fbca73"),
    _golden(["kernel", "--derivation", "@v3.deriv", "--method", "linear"], "kernel-linear",
            "4435368fcf6ef2ba2c63e3227dfe17feb5dd2d9b32c63af36ec3269906cc09d9"),
    _golden(["kernel", "--derivation", "@v3.deriv", "--method", "saturation"], "kernel-saturation",
            "4435368fcf6ef2ba2c63e3227dfe17feb5dd2d9b32c63af36ec3269906cc09d9"),
    _golden(["present", "--f=s"], "present-s",
            "04af01361f173f8b1cafc9636f5f35ae2d1e1130d91c0d181ff27494c149b6ca"),
    _golden(["verify", "--family", "v3", f"--f={signed_roots_shape(1, 1)}"],
            "verify-v3-signed-deg1",
            "c3a5adef6fcafd6154ea89c42f253bddd7b53b28a3d4ed7bf5a8960ff06cf6ee"),
    _golden(["verify", "--family", "v3", f"--f={signed_roots_shape(2, 1)}"],
            "verify-v3-signed-deg2",
            "9a55b7453c994165dee046db59d3018995a8c735f44e27032e74cdf614705bf2"),
    _golden(["verify", "--family", "v3", f"--f={signed_roots_shape(3, 1)}"],
            "verify-v3-signed-deg3",
            "9cc4b3a36c27bc9ceae0bbf4f808d339653636b4f5033bbc096d84a6c27e3732"),
    _golden(["verify", "--family", "v3", f"--f={signed_roots_shape(30, 1)}"],
            "verify-v3-signed-deg30",
            "5de4686b9bf0562ceeec23ea110eec89bcbea9997c07728579cd9069a28ef48d"),
    _golden(["verify", "--family", "v3", f"--f={signed_roots_shape(58, 1)}"],
            "verify-v3-signed-deg58",
            "e9c3c80de9bfb6939bf2924dd3bf4a39d9b695770172b990bd539d1331dad792"),
    _golden(["verify", "--family", "v4", "--f=2*a - 1/3*b + 5/2*c"], "verify-v4-linear",
            "bbbe42f2dcc57cb84c1a1180a2b9f06802842d767bdf782ac5a3194c5e09cdcc"),
    _golden(["verify", "--family", "v3", "--f=s +* s"], "verify-v3-operator-pair",
            "f94cd79ff390e49d3f9403f1ba1edf605ebe950dfd8661090768984cf706126e"),
    _golden(["verify", "--family", "v3", "--f=2s"], "verify-v3-implicit-product",
            "bb4f14a232ec448fdbe73615fa4de46a2d9150e92909399d834fa95010445bb9"),
    _golden(["verify", "--family", "v3", "--f=s^"], "verify-v3-dangling-power",
            "198a6626cd6d7f9bd51c40ee1d8b8567d440acc1879de869ae5c31dca80e2793"),
    _golden(["verify", "--family", "v3", "--f=(s"], "verify-v3-open-parenthesis",
            "fa4116ac4aed2d4d398de4c530f7b3dadc6baf3d8089a30039df7d1ec95f96f0"),
    _golden(["verify", "--family", "v3", "--f=  s"], "verify-v3-leading-space",
            "492b9ccf86d1aeea7d07110b1b4fee6fe2b5f56f0b466f2387ab417e461076dc"),
    _golden(["verify", "--family", "v3", "--f=s\t"], "verify-v3-trailing-tab",
            "492b9ccf86d1aeea7d07110b1b4fee6fe2b5f56f0b466f2387ab417e461076dc"),
    _golden(["verify", "--family", "v3", "--f=s\u00a0+ s^2"], "verify-v3-no-break-space",
            "4258956ea863c07f138835c72dc61989419608f3f8d87f1cc2cd7fc413fd1894"),
    _golden(["verify", "--family", "v3", "--f=s^2\u2003- s"], "verify-v3-em-space",
            "71c40a62e0e1e1d693284dfa595a7d77299de8f8de1788dbe5de84d0af22e740"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN)
def test_cli_outputs_are_golden(argv, digest, tmp_path, capsys):
    """The exact exit code, stdout and stderr of `gb` on katsura-3/4 and
    cyclic-4, `kernel` under both methods, `present`, `verify` on v3
    signed-roots shapes up to deg 58 and a linear v4 shape, and `verify`
    on malformed shapes and on shapes with Unicode whitespace: every byte
    that parsing and printing polynomials reaches.  An argument "@name"
    is the path of the input file `name`."""
    for name, text in GOLDEN_INPUTS.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    argv = [str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv]
    capsys.readouterr()
    code, out = run(argv)
    got = hashlib.sha256(repr((code, out, capsys.readouterr().err)).encode()).hexdigest()
    assert got == digest
