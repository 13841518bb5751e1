"""Tests of the benchmark itself: generator, oracle and tracer.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import gaquot  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def test_generator_is_deterministic_per_seed():
    for name in workloads.WORKLOADS:
        cases = workloads.generate(name, 5)
        assert cases == workloads.generate(name, 5)
        assert json.loads(json.dumps(cases)) == cases
        labels = [c["label"] for c in cases]
        assert len(set(labels)) == len(labels)
        assert any(workloads.generate(name, seed) != cases for seed in range(6, 12))


def test_generated_shapes_have_the_stated_roots():
    s = gaquot.VarSet(("s",))
    for case in workloads.generate("battery-degree", 3):
        if case["family"] == "v3":
            f = gaquot.parse(case["f"], s)
            assert f.total_degree() == case["m"]
            assert f.constant_term() == 0
            assert gaquot.is_squarefree(f + 1)


def _battery_fields(text="s", trivial=0):
    spec = gaquot.FamilySpec("v3", gaquot.parse(text, gaquot.VarSet(("s",))), trivial)
    return run.library_fields(gaquot.run_battery(spec))


def test_oracle_accepts_a_correct_report():
    expected = oracle.expected_report("v3", 1, 1)
    assert oracle.report_problems(expected, _battery_fields(trivial=1)) == []


def test_oracle_catches_m_off_by_one():
    fields = _battery_fields()
    fields["m"] += 1
    problems = oracle.report_problems(oracle.expected_report("v3", 0, 1), fields)
    assert any(p.startswith("m:") for p in problems)


def test_oracle_catches_a_broken_presentation():
    fields = _battery_fields()
    gens, relations = fields["presentation"]
    width = len(next(iter(gens[0])))
    broken = gens[:-1] + [oracle.add(gens[-1], {(0,) * width: Fraction(1)})]
    fields["presentation"] = (broken, relations)
    assert oracle.report_problems(oracle.expected_report("v3", 0, 1), fields)


def test_oracle_checks_kernels_and_bases():
    derivation = gaquot.lower_triangular_derivation(3)
    gens = [run.terms(g) for g in gaquot.kernel_linear(derivation, 2)]
    assert oracle.weitzenboeck_problems(3, gens) == []
    assert oracle.weitzenboeck_problems(3, gens[1:])
    assert oracle.weitzenboeck_problems(3, gens[:-1] + [oracle.mul(gens[0], gens[0])])
    assert oracle.gb_problems(gens, list(reversed(gens))) == []
    assert oracle.gb_problems(gens, gens[:-1])


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        ["parent", -1, 0.0, 10.0, None],
        ["child", 0, 1.0, 3.0, None],
        ["grandchild", 1, 1.5, 2.5, None],
        ["child", 0, 2.0, 5.0, None],    # overlaps the first child
        ["child", 0, 9.0, 12.0, None],   # runs past the parent's end
    ]
    assert tracer.self_times(spans) == [5.0, 1.0, 1.0, 3.0, 3.0]
    stats = tracer.summarize(spans)
    assert stats["parent"]["self_s"] == 5.0
    assert stats["child"]["calls"] == 3
    assert stats["child"]["self_s"] == 7.0


def test_total_time_counts_recursion_once():
    spans = [["f", -1, 0.0, 4.0, None], ["f", 0, 1.0, 3.0, None]]
    stats = tracer.summarize(spans)
    assert stats["f"]["total_s"] == 4.0
    assert stats["f"]["self_s"] == 4.0


def test_tracer_wraps_every_binding_site_and_restores_them():
    original = gaquot.groebner.subalgebra_membership
    spans = tracer.Tracer()
    spans.install()
    try:
        wrapped = gaquot.groebner.subalgebra_membership
        assert wrapped is not original
        assert gaquot.families.subalgebra_membership is wrapped
        assert gaquot.derivations.subalgebra_membership is wrapped
        assert gaquot.subalgebra_membership is wrapped
        assert gaquot.cli.buchberger is gaquot.groebner.buchberger
        gaquot.kernel_linear(gaquot.lower_triangular_derivation(2), 2)
    finally:
        spans.uninstall()
    assert gaquot.families.subalgebra_membership is original
    stats = tracer.summarize(spans.take())
    assert stats["derivations.kernel_linear"]["calls"] == 1
    assert stats["groebner.subalgebra_membership"]["calls"] == \
        stats["derivations.kernel_linear"]["candidates"]
    assert "poly.grevlex_key" not in stats


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    listed = {(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]}
    assert listed == set(run.END_TO_END)
    listed = {(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]}
    assert listed == set(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
