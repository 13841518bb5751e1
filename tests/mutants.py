"""A kept catalogue of mutants of the library, each with the tier-1 tests
that must fail on it.

    python tests/mutants.py [LABEL_SUBSTRING ...]

copies `src/`, `tests/` and `pyproject.toml` to a temporary directory
and there, never in the checkout, applies one mutant at a time: one
exact snippet of a library file replaced.  With arguments it runs only
the mutants whose labels contain one of them (`python tests/mutants.py
"seed" "sorted by text"`), so a change can rerun the mutants of the lines
it touched; with none, the whole catalogue.  It runs the mutant's node ids
in one sequential pytest process, restores the file, and prints a line
per mutant, its verdict, its own wall time and its label:

  killed    every listed test failed (a parametrized test fails when
            one of its cases does);
  PARTIAL   some listed test passed, so the table overstates what it
            catches;
  SURVIVED  every listed test passed;
  STALE     the snippet does not occur exactly once, or a node id is
            not collected: the table no longer matches the code.

It ends with the killed count and the wall time, and exits 1 unless
every mutant run is killed, or 2 if no label matches.  pytest does not
collect this file (no `test_` prefix), so it adds nothing to the tier-1
run.  A mutant's tests should fail fast: one that removes a resource
bound must list only tests that reach the bound with small inputs.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CLI = "src/gaquot/cli.py"
DERIVATIONS = "src/gaquot/derivations.py"
FAMILIES = "src/gaquot/families.py"
GROEBNER = "src/gaquot/groebner.py"
POLY = "src/gaquot/poly.py"
CLI_TESTS = "tests/test_cli.py::"
DERIVATION_TESTS = "tests/test_derivations.py::"
FAMILY_TESTS = "tests/test_families.py::"
GROEBNER_TESTS = "tests/test_groebner.py::"
POLY_TESTS = "tests/test_poly.py::"
PRESENTATION_TESTS = "tests/test_subalgebra_presentation.py::"
RECORD_TESTS = "tests/test_records.py::"

# (label, library file, exact snippet, replacement, node ids that must fail)
MUTANTS = [
    ("a round keeps a quotient its span contains", DERIVATIONS,
     "        if not span.contains(h):\n", "        if True:\n",
     (DERIVATION_TESTS + "test_kernel_saturation_generates_weitzenboeck",)),
    ("constant quotients reach monic", DERIVATIONS,
     "        if h.is_constant():\n            continue\n", "",
     (DERIVATION_TESTS + "test_kernel_saturation_generates_weitzenboeck",)),
    ("the slice's zero projection seeded", DERIVATIONS,
     " for c in cleared if not c.is_constant()]", " for c in cleared]",
     (DERIVATION_TESTS + "test_kernel_saturation_generates_weitzenboeck",)),
    ("W built past the bound", FAMILIES,
     "    if trivial > bound:\n"
     '        raise ResourceCapError(f"{trivial} trivial summands exceed the bound {bound} '
     'for {family}")\n', "",
     (CLI_TESTS + "test_cap_errors_are_not_cached_and_keep_their_stage",
      CLI_TESTS + "test_trivial_summands_are_bounded_by_w_coordinates",
      CLI_TESTS + "test_v4_trivial_summands_are_bounded_before_the_representation")),
    ("W bound one coordinate too high", FAMILIES,
     "W_COORDINATE_BOUND = 98  #", "W_COORDINATE_BOUND = 99  #",
     (CLI_TESTS + "test_trivial_summands_are_bounded_by_w_coordinates",
      CLI_TESTS + "test_v4_trivial_summands_are_bounded_before_the_representation",
      CLI_TESTS + "test_the_w_bound_does_not_follow_the_kernel_cap")),
    ("W whose action moves w1 or a quadric", FAMILIES,
     '        raise ValueError("the action does not kill w1 and every quadratic invariant")\n',
     "        pass\n",
     (FAMILY_TESTS + "test_invariance_check",)),
    ("W with a quadric that is not a homogeneous quadric", FAMILIES,
     '        raise ValueError("a quadratic invariant is not a homogeneous quadric")\n',
     "        pass\n",
     (FAMILY_TESTS + "test_smoothness_certificate_needs_a_quadric",)),
    ("W with a quadric in w1", FAMILIES,
     '        raise ValueError("a quadratic invariant involves w1")\n', "        pass\n",
     (FAMILY_TESTS + "test_affine_space_check",)),
    ("W with a quadric term off the non-stable coordinates", FAMILIES,
     '        raise ValueError("a quadratic invariant has a term free of the non-stable '
     'coordinates")\n', "        pass\n",
     (FAMILY_TESTS + "test_a_quadric_off_the_nonstable_coordinates_is_a_bug",)),
    ("W whose zeros are off the non-stable locus", FAMILIES,
     '        raise ValueError("the zeros of the action are not the non-stable locus")\n',
     "        pass\n",
     (FAMILY_TESTS + "test_a_fixed_locus_off_the_nonstable_locus_is_a_bug",)),
    ("W with a polarization image off the quadrics", FAMILIES,
     '            raise ValueError("a polarization operator maps a quadratic invariant "\n'
     '                             "to neither 0 nor a signed quadratic invariant")\n',
     "            pass\n",
     (FAMILY_TESTS + "test_a_polarization_image_off_the_quadrics_is_a_bug",)),
    ("minors left unsorted", FAMILIES,
     "    minors.sort(key=itemgetter(0))\n", "",
     (PRESENTATION_TESTS + "test_v3_survivors_are_sorted_where_the_minors_flip[8]",
      PRESENTATION_TESTS + "test_v3_presentation_matches_the_unsplit_span[t0]",
      CLI_TESTS + "test_cli_outputs_are_golden")),
    ("minors sorted in reverse", FAMILIES,
     "    minors.sort(key=itemgetter(0))\n", "    minors.sort(key=itemgetter(0), reverse=True)\n",
     (PRESENTATION_TESTS + "test_v3_survivors_are_sorted_where_the_minors_flip[9]",
      PRESENTATION_TESTS + "test_v3_presentation_matches_the_unsplit_span[t0]",
      CLI_TESTS + "test_cli_outputs_are_golden")),
    ("trivial survivors in numeric order", FAMILIES,
     '    linear = sorted(("z2", "z4") + z_ring.names[width - 1:])\n',
     '    linear = ("z2", "z4") + z_ring.names[width - 1:]\n',
     (PRESENTATION_TESTS + "test_v3_presentation_matches_the_unsplit_span[t10]",)),
    ("minor images without d^j", FAMILIES,
     "_exact_quotient(g * comb(e, j) * d ** j, lc)", "_exact_quotient(g * comb(e, j), lc)",
     (PRESENTATION_TESTS + "test_v3_presentation_matches_the_unsplit_span[t0]",
      CLI_TESTS + "test_cli_outputs_are_golden")),
    ("minor images without the z1*z2 and z1*z4 terms", FAMILIES,
     "        image[pair] = corner\n", "",
     (PRESENTATION_TESTS + "test_v3_presentation_matches_the_unsplit_span[t0]",
      CLI_TESTS + "test_cli_outputs_are_golden")),
    ("minor images without C(e, j)", FAMILIES,
     "_exact_quotient(g * comb(e, j) * d ** j, lc)", "_exact_quotient(g * d ** j, lc)",
     (PRESENTATION_TESTS + "test_v3_presentation_matches_the_unsplit_span[t0]",
      CLI_TESTS + "test_cli_outputs_are_golden")),
    ("deg f validated under the default caps", FAMILIES,
     "    if degree > caps.max_degree:\n", "    if degree > DEFAULT_CAPS.max_degree:\n",
     (FAMILY_TESTS + "test_build_validates_under_the_callers_caps",)),
    ("every spec stable", FAMILIES,
     '"stable": stable,', '"stable": True,',
     (FAMILY_TESTS + "test_composed_verdicts_match_the_expanded_objects",)),
    ("every action free", FAMILIES,
     '"free": stable,', '"free": True,',
     (FAMILY_TESTS + "test_composed_verdicts_match_the_expanded_objects",)),
    ("Ybar always smooth", FAMILIES,
     '"ybarSmooth": self.smooth,', '"ybarSmooth": True,',
     (FAMILY_TESTS + "test_singular_v4_controls_exit_two",
      FAMILY_TESTS + "test_composed_verdicts_match_the_expanded_objects")),
    ("B always smooth", FAMILIES,
     '"boundarySmooth": self.smooth}', '"boundarySmooth": True}',
     (FAMILY_TESTS + "test_singular_v4_controls_exit_two",
      FAMILY_TESTS + "test_composed_verdicts_match_the_expanded_objects")),
    ("Ybar of dimension n + 2", FAMILIES,
     "        return Dims(n - 1, n + 1, b)\n", "        return Dims(n - 1, n + 2, b)\n",
     (FAMILY_TESTS + "test_composed_verdicts_match_the_expanded_objects",
      FAMILY_TESTS + "test_boundary_identity_instance",
      RECORD_TESTS + "test_a_report_built_by_hand_cannot_contradict_its_spec",
      CLI_TESTS + "test_cli_outputs_are_golden")),
    ("B = W of dimension n - 1", FAMILIES,
     "            b = n\n", "            b = n - 1\n",
     (FAMILY_TESTS + "test_composed_verdicts_match_the_expanded_objects",)),
    ("m = deg f + 1", FAMILIES,
     '        return self.spec.f.total_degree() if self.spec.family == "v3" else None\n',
     '        return self.spec.f.total_degree() + 1 if self.spec.family == "v3" else None\n',
     (FAMILY_TESTS + "test_boundary_cubic_instance",
      RECORD_TESTS + "test_a_report_built_by_hand_cannot_contradict_its_spec",
      CLI_TESTS + "test_cli_outputs_are_golden")),
    ("ranks forced by m + 1", FAMILIES,
     "KTheoryRanks(self.m)\n", "KTheoryRanks(self.m + 1)\n",
     (RECORD_TESTS + "test_a_report_built_by_hand_cannot_contradict_its_spec",
      CLI_TESTS + "test_cli_outputs_are_golden")),
    ("build_family without its f = 0 check", FAMILIES,
     "    if spec.f.is_zero():\n        raise UnitIdealError(_EMPTY_BOUNDARY)\n", "",
     (FAMILY_TESTS + "test_boundary_empty_rejected",
      CLI_TESTS + "test_zero_shape_reports_its_empty_boundary_before_w_is_built",
      CLI_TESTS + "test_verify_and_present_share_one_domain[zero]")),
    ("q's tag field off by one", FAMILIES,
     "    y = tags[2]  # q's tag\n", "    y = tags[3]  # q's tag\n",
     (PRESENTATION_TESTS + "test_packed_seeds_match_the_graph_run_of_the_candidates",
      PRESENTATION_TESTS + "test_v3_presentation_matches_membership_then_elimination",
      CLI_TESTS + "test_cli_outputs_are_golden")),
    ("the sign of a minor seed's tag flipped", FAMILIES,
     "{tag: int(clear * lc), pair: clear,", "{tag: -int(clear * lc), pair: clear,",
     (PRESENTATION_TESTS + "test_packed_seeds_match_the_graph_run_of_the_candidates",
      PRESENTATION_TESTS + "test_v3_presentation_matches_membership_then_elimination")),
    ("a rational f's denominators left uncleared", FAMILIES,
     "    clear = lcm(*(g.denominator for g in shape.values())) * (1 if lc > 0 else -1)\n",
     "    clear = 1 if lc > 0 else -1\n",
     (PRESENTATION_TESTS + "test_packed_seeds_match_the_graph_run_of_the_candidates",
      PRESENTATION_TESTS + "test_v3_presentation_matches_membership_then_elimination")),
    ("z2 and z4 swapped in the seed field map", FAMILIES,
     "    fields = itemgetter(0, 2, 4, 1, 3)  #", "    fields = itemgetter(0, 2, 4, 3, 1)  #",
     (PRESENTATION_TESTS + "test_packed_seeds_match_the_graph_run_of_the_candidates",
      PRESENTATION_TESTS + "test_v3_presentation_matches_membership_then_elimination",
      CLI_TESTS + "test_cli_outputs_are_golden")),
    ("smoothness equation f instead of 1 + f", FAMILIES,
     "check_smooth(Ideal(spec.f.ring, (spec.f + 1,)), caps)",
     "check_smooth(Ideal(spec.f.ring, (spec.f,)), caps)",
     (FAMILY_TESTS + "test_singular_v4_controls_exit_two",
      FAMILY_TESTS + "test_the_gradient_ideal_is_the_polarization_ideal")),
    ("minimality read-off skipped", FAMILIES,
     "    if more or r.is_zero() or any(", "    if False and any(",
     (PRESENTATION_TESTS + "test_the_minimality_check_fires_on_a_redundant_survivor",)),
    ("a zero relation accepted", FAMILIES,
     "more or r.is_zero() or any(", "more or any(",
     (PRESENTATION_TESTS + "test_the_minimality_check_fires_on_a_redundant_survivor[zero-ideal]",)),
    ("rank certificate skipped", FAMILIES,
     "    if len(span.rows) != len(quads) ** 2:\n", "    if False:\n",
     (FAMILY_TESTS + "test_polarization_operators_short_of_full_rank_are_a_bug",)),
    ("read-out keeps the rows that meet the mask", GROEBNER,
     "        kept = sorted((row for row in self.rows if not row[0] & free_of),\n",
     "        kept = sorted((row for row in self.rows if row[0] & free_of),\n",
     (GROEBNER_TESTS + "test_eliminate_parabola",
      GROEBNER_TESTS + "test_eliminate_is_the_block_free_part_of_the_reduced_basis",
      PRESENTATION_TESTS + "test_tag_only_rows_interreduce_among_themselves")),
    ("first-fields mask one field short", GROEBNER,
     "    return (1 << _EXPONENT_BITS * k) - 1\n",
     "    return (1 << _EXPONENT_BITS * (k - 1)) - 1\n",
     (GROEBNER_TESTS + "test_eliminate_parabola",
      GROEBNER_TESTS + "test_eliminate_is_the_block_free_part_of_the_reduced_basis")),
    ("graph relations read off the whole reduced basis", GROEBNER,
     "run.reduced(_first_fields(len(ring)))", "run.reduced()",
     (GROEBNER_TESTS + "test_eliminate_is_the_block_free_part_of_the_reduced_basis",
      GROEBNER_TESTS + "test_no_verdict_builds_a_basis_record",
      PRESENTATION_TESTS + "test_lone_candidates_match_the_reference")),
    ("graph run without its extra generators", GROEBNER,
     "    seeds = [_integer_terms(e.terms, packing.pack)[0] for e in extra]\n",
     "    seeds = []\n",
     (GROEBNER_TESTS + "test_eliminate_is_the_block_free_part_of_the_reduced_basis",
      GROEBNER_TESTS + "test_graph_ideals_of_homogeneous_polynomials_select_pairs_by_sugar")),
    ("graph generator over the tag ring accepted", GROEBNER,
     "    if any(g.ring != ring for g in gens):\n", "    if False:\n",
     (PRESENTATION_TESTS + "test_graph_generators_over_another_ring_are_rejected",
      PRESENTATION_TESTS + "test_the_public_presentation_takes_no_seed_forms")),
    ("graph seed without the tag's denominator", GROEBNER,
     "    seed[tag] = d\n", "    seed[tag] = 1\n",
     (GROEBNER_TESTS + "test_subalgebra_membership_matches_the_basis_route",
      GROEBNER_TESTS + "test_eliminate_is_the_block_free_part_of_the_reduced_basis")),
    ("sugar test's second block one field short", GROEBNER,
     "    outside = packing.low ^ _first_fields(packing.order.block_size)",
     "    outside = packing.low ^ _first_fields(packing.order.block_size + 1)",
     (GROEBNER_TESTS + "test_packed_sugar_test_matches_the_polynomial_oracle",
      GROEBNER_TESTS + "test_sugar_needs_a_graph_of_homogeneous_polynomials")),
    ("unit ideal read off the first seed row", GROEBNER,
     "    return _completed_run(packing, seeds, caps).rows[0][0] == 0\n",
     "    return _completed_run(packing, seeds, caps).basis[0][0] == 0\n",
     (GROEBNER_TESTS + "test_unit_iff_one_is_member",
      GROEBNER_TESTS + "test_unit_ideal_shortcut_agrees_with_buchberger_on_seeded_ideals",
      FAMILY_TESTS + "test_smoothness_of_closure_and_boundary")),
    ("dimension read off the last tail monomial", GROEBNER,
     "    leading = [lm for lm, _, _ in run.rows]\n",
     "    leading = [(tail or ((lm, lc),))[-1][0] for lm, lc, tail in run.rows]\n",
     (GROEBNER_TESTS + "test_krull_dimension_matches_the_basis_route",
      GROEBNER_TESTS + "test_dimension_boundary_slice")),
    ("dimension with no unit check", GROEBNER,
     "    if 0 in leading:\n", "    if False:\n",
     (GROEBNER_TESTS + "test_dimension_of_unit_ideal_rejected",
      GROEBNER_TESTS + "test_krull_dimension_matches_the_basis_route",
      GROEBNER_TESTS + "test_no_verdict_builds_a_basis_record")),
    ("membership mask one field short", GROEBNER,
     "    if any(m & _first_fields(n) for m in remainder):\n",
     "    if any(m & _first_fields(n - 1) for m in remainder):\n",
     (GROEBNER_TESTS + "test_subalgebra_membership_matches_the_basis_route",)),
    ("membership witness not divided by the scale", GROEBNER,
     "run.packing, n, d * scale)", "run.packing, n, d)",
     (GROEBNER_TESTS + "test_subalgebra_membership_matches_the_basis_route",)),
    ("relations read one tag field late", GROEBNER,
     "run.packing, tags, len(ring))", "run.packing, tags, len(ring) + 1)",
     (GROEBNER_TESTS + "test_eliminate_is_the_block_free_part_of_the_reduced_basis",
      PRESENTATION_TESTS + "test_lone_candidates_match_the_reference")),
    ("a sum of ideals built over the right summand's ring", GROEBNER,
     "        return Ideal(self.ring, self.generators + other.generators)\n",
     "        return Ideal(other.ring, self.generators + other.generators)\n",
     (GROEBNER_TESTS + "test_branches_no_other_test_takes[ideal-sum-keeps-left-ring]",)),
    ("span keeps a candidate its kept generators contain", GROEBNER,
     "            if not self.contains(p):\n", "            if True:\n",
     (DERIVATION_TESTS + "test_spans_keep_no_constant",
      DERIVATION_TESTS + "test_filter_falls_back_to_groebner_on_inhomogeneous_input",
      PRESENTATION_TESTS + "test_lone_candidates_match_the_reference")),
    ("quotient read from t's field", GROEBNER,
     "remainder.items(), packing, 1, denominator * scale)",
     "remainder.items(), packing, 0, denominator * scale)",
     (GROEBNER_TESTS + "test_divide_exact",
      GROEBNER_TESTS + "test_divide_exact_matches_scan_reference")),
    ("squarefree fallback under the default caps", GROEBNER,
     "                         ResourceCaps(max_degree=p.total_degree()))\n",
     "                         DEFAULT_CAPS)\n",
     (POLY_TESTS + "test_squarefree_above_the_default_degree_cap",)),
    ("present under the default caps", CLI,
     "run_battery(spec, _caps(args)).presentation", "run_battery(spec).presentation",
     (CLI_TESTS + "test_verify_and_present_share_one_domain[presentation-pair-budget]",)),
    ("an option's lone -- passed to the handler", CLI,
     "    if empty:\n", "    if False:\n",
     (CLI_TESTS + "test_a_lone_double_dash_value_is_a_usage_error",)),
    ("generators sorted by text before degree", POLY,
     "    return sum(exps), _term_text(p.ring.names, exps, p.terms[exps], True)\n",
     "    return _term_text(p.ring.names, exps, p.terms[exps], True), sum(exps)\n",
     (DERIVATION_TESTS + "test_sorted_gens_orders_by_degree_then_printed_text",
      DERIVATION_TESTS + "test_filter_falls_back_to_groebner_on_inhomogeneous_input")),
    ("unit coefficient read off the numerator", POLY,
     '    elif mag == "1":\n', "    elif num == 1:\n",
     (POLY_TESTS + "test_printing_matches_the_fraction_arithmetic_printer",
      CLI_TESTS + "test_cli_outputs_are_golden")),
    ("a subtracted term parsed as added", POLY,
     "val = total.get(m, 0) + c if sign == \"+\" else total.get(m, 0) - c",
     "val = total.get(m, 0) + c if sign == \"+\" else total.get(m, 0) + c",
     (POLY_TESTS + "test_parse_matches_the_polynomial_arithmetic_parser",
      POLY_TESTS + "test_parse_rationals_and_signs")),
    ("tokens skip ASCII whitespace alone", POLY,
     'r"\\s*(?:(?P<num>', 'r"[ \\t\\n\\r\\f\\v]*(?:(?P<num>',
     (POLY_TESTS + "test_parse_matches_the_polynomial_arithmetic_parser",)),
    ("token positions before their whitespace", POLY,
     "        start = match.start(kind)\n", "        start = match.start()\n",
     (POLY_TESTS + "test_parse_matches_the_polynomial_arithmetic_parser",)),
    ("a zero denominator placed at its numerator", POLY,
     '                    raise ParseError("zero denominator", pos3)\n',
     '                    raise ParseError("zero denominator", pos)\n',
     (POLY_TESTS + "test_parse_matches_the_polynomial_arithmetic_parser",)),
]


def failed_tests(tree: Path, node_ids) -> "set | None":
    """The node ids, parameter cases included, that fail when pytest runs
    `node_ids` in `tree`, or None if pytest could not run them all (a node
    id not collected)."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")  # no stale bytecode across mutants
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
                           *node_ids], cwd=tree, env=env, capture_output=True, text=True)
    if done.returncode not in (0, 1):
        return None
    return {line[len("FAILED "):].partition(" - ")[0]
            for line in done.stdout.splitlines() if line.startswith("FAILED ")}


def verdict(tree: Path, file: str, snippet: str, replacement: str, node_ids) -> str:
    """Apply one mutant in `tree`, run its tests, restore the file."""
    path = tree / file
    original = path.read_text(encoding="utf-8")
    if original.count(snippet) != 1:
        return "STALE"
    path.write_text(original.replace(snippet, replacement), encoding="utf-8")
    try:
        failed = failed_tests(tree, node_ids)
    finally:
        path.write_text(original, encoding="utf-8")
    if failed is None:
        return "STALE"
    caught = sum(any(f == node or f.startswith(node + "[") for f in failed) for node in node_ids)
    return "killed" if caught == len(node_ids) else "PARTIAL" if caught else "SURVIVED"


def main(words) -> int:
    """Run the mutants whose labels contain one of `words`, every mutant
    if there are none."""
    chosen = [m for m in MUTANTS if not words or any(w in m[0] for w in words)]
    if not chosen:
        print(f"no mutant label contains any of {words}")
        return 2
    start = time.perf_counter()
    verdicts = []
    with tempfile.TemporaryDirectory() as scratch:
        tree = Path(scratch)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, tree / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tree)
        for label, file, snippet, replacement, node_ids in chosen:
            began = time.perf_counter()
            verdicts.append(verdict(tree, file, snippet, replacement, node_ids))
            print(f"{verdicts[-1]:<9} {time.perf_counter() - began:5.1f} s  {label}", flush=True)
    killed = verdicts.count("killed")
    print(f"{killed} of {len(chosen)} mutants killed in {time.perf_counter() - start:.0f} s")
    return 0 if killed == len(chosen) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
