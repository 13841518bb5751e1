"""Ideal and derivation files: comments, the vars: line, ring inference, errors."""

import pytest

from gaquot import ParseError, VarSet, load_derivation_file, load_ideal_file, parse

IDEAL_DECLARED = """\
# leading comment

# a second comment line
vars: z y x   # declared order wins
x^2 - y   # inline comment

y*z - 1
"""

IDEAL_INFERRED = """\
# comment before the first polynomial

y*x + z  # x appears after y
x - 1
"""

DERIVATION_DECLARED = """\
# leading comment

vars: b a c   # declared order wins
a -> b   # inline comment

"""

DERIVATION_INFERRED = """\
# left-hand sides are read before right-hand sides
q -> p*r

r -> q   # nothing new
"""


def write(tmp_path, text):
    path = tmp_path / "spec.txt"
    path.write_text(text, encoding="utf-8")
    return path


def test_ideal_file_declared_ring_after_comments(tmp_path):
    ideal = load_ideal_file(write(tmp_path, IDEAL_DECLARED))
    assert ideal.ring.names == ("z", "y", "x")
    assert ideal.generators == (parse("x^2 - y", ideal.ring),
                                parse("y*z - 1", ideal.ring))


def test_ideal_file_infers_ring_in_order_of_appearance(tmp_path):
    ideal = load_ideal_file(write(tmp_path, IDEAL_INFERRED))
    assert ideal.ring.names == ("y", "x", "z")
    assert ideal.generators == (parse("x*y + z", ideal.ring),
                                parse("x - 1", ideal.ring))


def test_derivation_file_declared_ring_after_comments(tmp_path):
    derivation = load_derivation_file(write(tmp_path, DERIVATION_DECLARED))
    ring = derivation.ring
    assert ring.names == ("b", "a", "c")
    assert derivation.images["a"] == ring.var("b")
    assert derivation.images["b"].is_zero() and derivation.images["c"].is_zero()


def test_derivation_file_infers_left_hand_side_first(tmp_path):
    derivation = load_derivation_file(write(tmp_path, DERIVATION_INFERRED))
    ring = derivation.ring
    assert ring.names == ("q", "p", "r")
    assert derivation.images["q"] == parse("p*r", ring)
    assert derivation.images["r"] == ring.var("q")
    assert derivation.images["p"].is_zero()
    assert load_derivation_file(write(tmp_path, "y -> x\n")).ring == VarSet(("y", "x"))


@pytest.mark.parametrize("text", ["", "# only a comment\n\n   # and another\n"])
def test_ideal_file_without_polynomials(tmp_path, text):
    with pytest.raises(ParseError, match="contains no polynomials"):
        load_ideal_file(write(tmp_path, text))


def test_ideal_file_with_only_declared_variables(tmp_path):
    with pytest.raises(ParseError, match="declares variables but no polynomials"):
        load_ideal_file(write(tmp_path, "# ring only\nvars: x y\n"))


def test_derivation_line_without_arrow(tmp_path):
    with pytest.raises(ParseError, match="expected 'x -> polynomial'"):
        load_derivation_file(write(tmp_path, "vars: x y\nx -> y\ny = x\n"))
