"""gaquot benchmark: seeded workloads, known-answer checks, end-to-end and
per-layer metrics.

    python3 perfbench/run.py --workload battery-degree|kernel-width|cli-mix|all \
        [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --diff OLD.json NEW.json

Run from the repository root; gaquot is imported from src/ and driven
through its public API and gaquot.cli.main(argv, out).  The loop is closed
and single-threaded: one client, the next instance only after the previous
verdict.  Every output is checked against oracle.py; a wrong verdict, a
wrong exit code, a report that changes with the hash seed or an exception
counts as failed.  Times are corrected for contention from other tenants
of the machine (see Meter); the raw times are printed and kept as well.

With --trace 0 the run reports the end-to-end metrics, with --trace 1 the
per-layer metrics of tracer.py, from untraced and traced passes that
alternate (their difference is the tracing overhead).  Human-readable
lines come first; the last line of stdout is one JSON object.  The full
result (commit, Python, nproc, seed, samples, report digests) is written
to perfbench/results/<workload>-seed<N>-trace<0|1>.json; --diff compares two
such files: counts and ratios exactly, times with the quartiles of their
per-pass samples.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
WORKDIR = BENCH / "work"

sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

# Seconds one pass over a workload's cases takes at the seed commit on the
# reference machine.  A run makes ceil(seconds / nominal) whole passes, so
# the sample count, and with it the percentile that verdict_s_tail reports,
# does not depend on how fast the machine happens to be during the run.
NOMINAL_PASS_S = {"battery-degree": 6.5, "kernel-width": 6.5, "cli-mix": 0.5}

HASH_SEEDS = ("1", "2")
SETUP_SAMPLES = 8  # per call of setup_times
PROBE_STEPS = 400
# Seconds probe() takes on the reference machine (2-core Xeon, Python 3.11)
# with nothing competing for the core: about the 1st percentile of 20,000 runs.
PROBE_REFERENCE_S = 0.00115
PROBE_EVERY_S = 0.02

END_TO_END = (
    ("verdicts_per_s", "1/s", "higher"),
    ("verdict_s_p50", "s", "lower"),
    ("verdict_s_tail", "s", "lower"),
    ("correct_ratio", "ratio", "higher"),
    ("peak_rss_mib", "MiB", "lower"),
    ("setup_s", "s", "lower"),
)


def _layer(name, *fields):
    units = {"calls": "count", "in_terms": "count", "out_size": "count", "out_terms": "count",
             "cells": "count", "member_ratio": "ratio", "kept_ratio": "ratio"}
    better = {"kept_ratio": "higher"}
    return tuple((f"{name}.{f}", units.get(f, "s"), better.get(f, "lower")) for f in fields)


PER_LAYER = (
    _layer("groebner.normal_form", "calls", "self_s", "in_terms")
    + _layer("groebner.buchberger", "calls", "self_s", "out_size", "out_terms")
    + _layer("families.invariant_presentation", "self_s", "total_s")
    + _layer("groebner.subalgebra_membership", "calls", "self_s", "member_ratio",
             "under_kernel_s")
    + _layer("derivations.kernel_linear", "calls", "self_s", "kept_ratio", "total_s")
    + _layer("derivations.kernel_saturation", "calls", "self_s", "total_s")
    + _layer("linalg.nullspace", "calls", "self_s", "cells")
    + _layer("groebner.divide_exact", "calls", "self_s")
    + _layer("groebner.is_unit_ideal", "calls", "self_s")
    + _layer("groebner.krull_dimension", "calls", "self_s")
    + _layer("groebner.eliminate", "calls", "self_s")
    + sum((_layer(f"families.{name}", "self_s") for name in (
        "build_family", "check_invariance", "check_stability", "check_freeness",
        "check_smooth", "boundary_analysis")), ())
    + _layer("families.run_battery", "self_s", "total_s")
    + _layer("poly.parse", "calls", "self_s")
    + _layer("poly.Polynomial.__mul__", "calls", "self_s")
    + _layer("poly.Polynomial.substitute", "calls", "self_s")
    + _layer("derivations.Derivation.apply", "calls", "self_s")
    + _layer("cli.main", "calls", "self_s")
    + (("trace.pass_s", "s", "lower"), ("trace.overhead_s", "s", "lower"))
)


# -- cases ---------------------------------------------------------------------------


@dataclass
class Case:
    label: str
    call: Callable[[], object]
    check: Callable[[object], list]  # output -> problems
    digest: Callable[[object], Optional[str]]  # output -> report sha256, if a report
    argv: Optional[list] = None  # CLI call printing the same report


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def terms(poly) -> dict:
    return dict(poly.terms)


def library_fields(report) -> dict:
    """A VerificationReport in the layout oracle.report_problems reads."""
    ranks = report.ranks
    presentation = None
    if report.presentation is not None:
        gens, relations = report.presentation
        presentation = ([terms(g) for g in gens], [terms(r) for r in relations.generators])
    return {
        "dims": (report.dims.x, report.dims.quotient, report.dims.ybar, report.dims.b),
        "checks": dict(report.checks),
        "codim": report.boundary_codim,
        "m": report.m,
        "ranks": None if ranks is None else (ranks.rank_z, ranks.rank_closure,
                                             ranks.rank_quotient),
        "presentation": presentation,
        "passed": report.passed,
    }


def presentation_terms(gaquot, trivial, gen_texts, relation_texts):
    """Parse a v3 presentation: generators over z1..z(5+t), relations over tags."""
    z_ring = gaquot.VarSet(tuple(f"z{i}" for i in range(1, 6 + trivial)))
    tag_ring = gaquot.VarSet(tuple(f"y{i}" for i in range(1, len(gen_texts) + 1)))
    return ([terms(gaquot.parse(t, z_ring)) for t in gen_texts],
            [terms(gaquot.parse(t, tag_ring)) for t in relation_texts])


def json_fields(gaquot, case, code, text) -> dict:
    """A `gaquot verify` JSON report in the layout of library_fields."""
    doc = json.loads(text)
    presentation = None
    if doc["presentation"] is not None:
        presentation = presentation_terms(gaquot, case["trivial"],
                                          doc["presentation"]["generators"],
                                          doc["presentation"]["relations"])
    ranks = doc["k0Ranks"]
    return {
        "dims": tuple(doc["dims"][k] for k in ("X", "quotient", "Ybar", "B")),
        "checks": doc["checks"],
        "codim": doc["boundaryCodim"],
        "m": doc["m"],
        "ranks": None if ranks is None else (ranks["Z"], ranks["closure"], ranks["quotient"]),
        "presentation": presentation,
        "passed": code == 0,
    }


def present_problems(gaquot, case, text):
    lines = text.splitlines()
    if not lines or lines[-1] != "round-trip: verified":
        return ["present did not report a verified round trip"]
    gens = [line.split(" = ", 1)[1] for line in lines if " = " in line]
    relations = [line[len("relation: "):] for line in lines if line.startswith("relation: ")]
    return oracle.round_trip_problems(*presentation_terms(gaquot, case["trivial"], gens,
                                                          relations))


def cli_problems(gaquot, case, code, text, references):
    check = case["check"]
    if check == "exit":
        return oracle.exit_problems(case["exit"], code)
    problems = oracle.exit_problems(0, code)
    if problems:
        return problems
    if check == "report":
        expected = oracle.expected_report(case["family"], case["trivial"], case["m"])
        return oracle.report_problems(expected, json_fields(gaquot, case, code, text))
    if check == "present":
        return present_problems(gaquot, case, text)
    if check == "kernel":
        ring = gaquot.VarSet(tuple(f"w{i}" for i in range(1, 2 * case["n"] + 1)))
        return oracle.weitzenboeck_problems(
            case["n"], [terms(gaquot.parse(line, ring)) for line in text.splitlines()])
    names, _ = workloads.IDEALS[case["ideal"]]
    ring = gaquot.VarSet(tuple(names))
    got = [terms(gaquot.parse(line, ring)) for line in text.splitlines()]
    return oracle.gb_problems(got, references[(case["ideal"], case["order"])])


def verify_argv(case) -> list:
    argv = ["verify", "--family", case["family"], f"--f={case['f']}"]
    return argv + (["--trivial", str(case["trivial"])] if case["trivial"] else [])


def prepare(gaquot, case, references) -> Case:
    """Build the call and the check of one generated case.  Everything the
    call needs is parsed and constructed here, outside the timed region;
    calls go through module attributes so a traced run sees them."""
    kind, label = case["kind"], case["label"]
    cli = gaquot.cli
    if kind == "battery":
        ring = gaquot.VarSet(("s",) if case["family"] == "v3" else ("a", "b", "c"))
        spec = gaquot.FamilySpec(case["family"], gaquot.parse(case["f"], ring), case["trivial"])
        expected = oracle.expected_report(case["family"], case["trivial"], case["m"])
        return Case(
            label,
            call=lambda: gaquot.run_battery(spec),
            check=lambda report: oracle.report_problems(expected, library_fields(report)),
            digest=lambda report: sha256(cli.render_report(cli.report_document(
                report, gaquot.DEFAULT_CAPS, cli.DEFAULT_MAX_ROUNDS))),
            argv=verify_argv(case) if case.get("determinism") else None,
        )
    if kind in ("kernel_linear", "kernel_saturation"):
        n = case["n"]
        derivation = gaquot.lower_triangular_derivation(n)
        if kind == "kernel_linear":
            def call():
                return gaquot.kernel_linear(derivation, case["degree"])
        else:
            data = gaquot.make_slice(derivation, "w2")

            def call():
                return gaquot.kernel_saturation(derivation, data, cli.DEFAULT_MAX_ROUNDS)
        return Case(label, call,
                    check=lambda gens: oracle.weitzenboeck_problems(n, [terms(g) for g in gens]),
                    digest=lambda gens: None)
    argv = [a.replace(workloads.WORKDIR, str(WORKDIR)) for a in case["argv"]]

    def call():
        out = io.StringIO()
        return cli.main(argv, out), out.getvalue()

    is_report = case["check"] in ("report", "present")
    return Case(label, call,
                check=lambda output: cli_problems(gaquot, case, *output, references),
                digest=lambda output: sha256(output[1]) if is_report else None,
                argv=case["argv"] if case.get("determinism") else None)


def gb_references(cases):
    """sympy's reduced basis for every (ideal, order) the cases ask for,
    computed in a child process before anything is timed."""
    keys = sorted({(c["ideal"], c["order"]) for c in cases if c.get("check") == "gb"})
    if not keys:
        return {}
    jobs = [{"vars": workloads.IDEALS[i][0], "gens": workloads.IDEALS[i][1], "order": o}
            for i, o in keys]
    done = subprocess.run([sys.executable, str(BENCH / "sympy_ref.py")], input=json.dumps(jobs),
                          capture_output=True, text=True, check=True, timeout=120)
    bases = json.loads(done.stdout)
    return {key: [{tuple(exps): Fraction(c) for exps, c in poly} for poly in basis]
            for key, basis in zip(keys, bases)}


# -- measurement -------------------------------------------------------------------


class Tally:
    """Attempts, failed attempts and report digests of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digests = {}
        self._checked = {}

    def fail(self, label, problems):
        self.failed += 1
        self.problems += [f"{label}: {p}" for p in problems]

    def record(self, case: Case, output, error: Optional[str]):
        self.attempted += 1
        if error is not None:
            self.fail(case.label, [f"raised {error}"])
            return
        digest = case.digest(output)
        if digest is not None and self.digests.setdefault(case.label, digest) != digest:
            self.fail(case.label, ["report differs from an earlier pass"])
            return
        # Equal reports and equal CLI output pass or fail alike: check each once.
        key = digest or (output if isinstance(output, tuple) else None)
        problems = self._checked.get((case.label, key)) if key else None
        if problems is None:
            problems = case.check(output)
            if key:
                self._checked[(case.label, key)] = problems
        if problems:
            self.fail(case.label, problems)


def probe() -> float:
    """Seconds a fixed piece of pure-Python work (Fraction arithmetic and
    dict stores, like gaquot's inner loops) takes right now."""
    start = time.perf_counter()
    x, table = Fraction(1), {}
    for i in range(PROBE_STEPS):
        x = (x * 3 + 1) / 2 if i % 7 else Fraction(1)
        table[i % 97] = x
    return time.perf_counter() - start


class Meter:
    """Times calls together with the machine's speed during each call.

    A shared host can run this process at one speed for some seconds and
    up to twice as slow for the next (seen on the 2-core machine this
    benchmark was built on), which would swamp any change in gaquot.  So
    probe() runs after every call and, from a timer signal, every
    PROBE_EVERY_S inside it; the probe times are removed from the call's
    wall time, and factor() rescales that time by PROBE_REFERENCE_S over
    the mean probe time around and inside the call: the time the call
    takes when nothing competes for the core.  Results keep the raw times.
    """

    def __init__(self):
        self.last = probe()
        self.probes = [self.last]
        self._inside = None
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame):
        if self._inside is not None:
            self._inside.append(probe())

    def time(self, fn, sample=True):
        """(fn(), wall seconds without probes, mean probe seconds)."""
        inside = self._inside = []
        if sample:
            signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            seconds = time.perf_counter() - start
            self._inside = None
        speeds = [self.last] + inside
        self.last = probe()
        speeds.append(self.last)
        self.probes += speeds[1:]
        return result, seconds - sum(inside), statistics.fmean(speeds)

    @staticmethod
    def factor(speed: float) -> float:
        """Multiplier that corrects a time measured at mean probe time `speed`."""
        return PROBE_REFERENCE_S / speed


def run_case(case: Case, meter: Meter):
    """(output, error, wall seconds, probe seconds) of one closed-loop call."""
    def call():
        try:
            return case.call(), None
        except Exception as exc:  # a raising case is a failed verdict, not a crash
            return None, f"{type(exc).__name__}: {exc}"

    with contextlib.redirect_stderr(io.StringIO()):
        (output, error), seconds, speed = meter.time(call)
    return output, error, seconds, speed


def run_pass(cases, rng, meter, spans=()):
    """One pass over every case in seeded order.  Returns the outputs, as
    (case, output, error), and one record per call: (label, wall seconds,
    probe seconds, index of its first span)."""
    order = list(cases)
    rng.shuffle(order)
    outputs, calls = [], []
    for case in order:
        first = len(spans)
        output, error, seconds, speed = run_case(case, meter)
        outputs.append((case, output, error))
        calls.append((case.label, seconds, speed, first))
    return outputs, calls


def checked_pass(cases, rng, meter, tally, tracer=None):
    """run_pass, traced if a tracer is given; outputs are checked after
    the tracer is removed, so checking adds no spans.  Returns the call
    records and the spans."""
    if tracer is None:
        outputs, calls = run_pass(cases, rng, meter)
    else:
        tracer.install()
        try:
            outputs, calls = run_pass(cases, rng, meter, tracer.spans)
        finally:
            tracer.uninstall()
    for case, output, error in outputs:
        tally.record(case, output, error)
    return calls, tracer.take() if tracer else []


def determinism(cases, tally):
    """Run the report cases in two fresh interpreters with different hash
    seeds; the report digests must agree with each other and with this
    process.  Returns {argv: digest}."""
    argvs = [c.argv for c in cases if c.argv is not None]
    script = ("import hashlib, io, json, sys\n"
              "from gaquot.cli import main\n"
              "for argv in json.load(sys.stdin):\n"
              "    out = io.StringIO()\n"
              "    main(argv, out)\n"
              "    print(hashlib.sha256(out.getvalue().encode('utf-8')).hexdigest())\n")
    argv_json = json.dumps([[a.replace(workloads.WORKDIR, str(WORKDIR)) for a in argv]
                            for argv in argvs])
    runs = []
    for seed in HASH_SEEDS:
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(SRC))
        done = subprocess.run([sys.executable, "-c", script], input=argv_json, env=env,
                              cwd=ROOT, capture_output=True, text=True, check=True, timeout=170)
        runs.append(done.stdout.split())
    digests = {}
    for i, case in enumerate(c for c in cases if c.argv is not None):
        seen = {run[i] for run in runs}
        if case.label in tally.digests:
            seen.add(tally.digests[case.label])
        tally.attempted += 1
        if len(seen) != 1:
            tally.fail(case.label, ["report digest depends on the hash seed"])
        digests[" ".join(case.argv)] = runs[0][i]
    return digests


def setup_times(meter: Meter):
    """(seconds, probe) of fresh interpreters importing gaquot and building
    the CLI parser, timed inside the child; the first run, which may
    compile bytecode, is discarded.  Called before and after the timed
    loop, so a burst of load skews only some samples."""
    script = ("import time\n"
              "start = time.perf_counter()\n"
              "import gaquot.cli\n"
              "gaquot.cli.build_parser()\n"
              "print(repr(time.perf_counter() - start))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def child():
        return float(subprocess.run([sys.executable, "-c", script], env=env, cwd=ROOT,
                                    capture_output=True, text=True, check=True,
                                    timeout=60).stdout)

    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        # No probes inside: the timer would run them on the child's core.
        seconds, _, speed = meter.time(child, sample=False)
        samples.append((seconds, speed))
    return samples[1:]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail(latencies):
    """The highest percentile with at least ten samples beyond it (nearest
    rank), with that percentile and the sample count."""
    ordered = sorted(latencies)
    n = len(ordered)
    index = max(0, n - 11)
    return ordered[index], 100.0 * (index + 1) / n, n


def commit_id() -> str:
    """HEAD of the repository, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metric(value, unit, samples=None):
    entry = {"value": value, "unit": unit}
    if samples is not None:
        entry["samples"] = samples
    return entry


def end_to_end(passes, setup, tally, scale):
    """The end-to-end metrics; scale(probe) corrects a time (see Meter)."""
    latencies = [seconds * scale(speed) for calls in passes for _, seconds, speed, _ in calls]
    walls = [sum(seconds * scale(speed) for _, seconds, speed, _ in calls) for calls in passes]
    setup = [seconds * scale(speed) for seconds, speed in setup]
    tail_value, percentile, count = tail(latencies)
    metrics = {
        "verdicts_per_s": metric(len(latencies) / sum(walls), "1/s",
                                 [len(calls) / w for calls, w in zip(passes, walls)]),
        "verdict_s_p50": metric(statistics.median(latencies), "s",
                                [statistics.median(seconds * scale(speed)
                                                   for _, seconds, speed, _ in calls)
                                 for calls in passes]),
        "verdict_s_tail": metric(tail_value, "s"),
        "correct_ratio": metric(1 - tally.failed / tally.attempted, "ratio"),
        "peak_rss_mib": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "setup_s": metric(statistics.median(setup), "s", setup),
    }
    return metrics, {"percentile": round(percentile, 2), "samples": count}


def per_layer(untraced, traced, scale):
    """Per-layer metrics from alternating untraced and traced passes, each
    traced pass given as (calls, spans).  Counts come from the first traced
    pass (they repeat exactly), times are medians over the traced passes."""
    summaries = []
    for calls, spans in traced:
        factors = []
        for (_, seconds, speed, first), end in zip(calls, [c[3] for c in calls[1:]] + [len(spans)]):
            # The call's root spans also hold the probes run inside it;
            # scaling them to the call's probe-free time removes those.
            gross = sum(s[3] - s[2] for s in spans[first:end] if s[1] < 0)
            factors += [scale(speed) * (seconds / gross if gross else 1.0)] * (end - first)
        summaries.append(tracing.summarize(spans, factors))
    first = summaries[0]
    metrics = {}
    for name, unit, _ in PER_LAYER:
        layer, field = name.rsplit(".", 1)
        stats = first.get(layer, {})
        if layer == "trace":
            continue
        if field in ("member_ratio", "kept_ratio"):
            part, whole = ("member", "calls") if field == "member_ratio" else ("kept", "candidates")
            metrics[name] = metric(stats.get(part, 0) / stats[whole] if stats.get(whole) else 0.0,
                                   unit)
        elif unit == "count":
            metrics[name] = metric(int(stats.get(field, 0)), unit)
        else:
            samples = [s.get(layer, {}).get(field, 0.0) for s in summaries]
            metrics[name] = metric(statistics.median(samples), unit, samples)
    plain = [sum(t * scale(p) for _, t, p, _ in calls) for calls in untraced]
    walls = [sum(t * scale(p) for _, t, p, _ in calls) for calls, _ in traced]
    metrics["trace.pass_s"] = metric(statistics.median(walls), "s", walls)
    metrics["trace.overhead_s"] = metric(statistics.median(walls) - statistics.median(plain),
                                         "s", plain)
    return metrics, first


def run_workload(gaquot, name, seed, seconds, trace):
    generated = workloads.generate(name, seed)
    WORKDIR.mkdir(parents=True, exist_ok=True)
    for filename, text in workloads.input_files().items():
        (WORKDIR / filename).write_text(text, encoding="utf-8")
    references = gb_references(generated)
    cases = [prepare(gaquot, c, references) for c in generated]
    rng = random.Random(f"order:{name}:{seed}")
    meter = Meter()
    for case in cases[: max(1, len(cases) // 2)]:  # warm-up, unchecked
        run_case(case, meter)

    tally = Tally()
    passes = math.ceil(seconds / NOMINAL_PASS_S[name])
    result = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "commit": commit_id(), "python": platform.python_version(),
              "nproc": os.cpu_count()}
    if not trace:
        setup = setup_times(meter)
        calls = [checked_pass(cases, rng, meter, tally)[0] for _ in range(passes)]
        setup += setup_times(meter)
        result["digests"] = determinism(cases, tally)
        metrics, result["tail"] = end_to_end(calls, setup, tally, meter.factor)
        result["uncorrected"], _ = end_to_end(calls, setup, tally, lambda speed: 1.0)
        result["setup"] = setup
    else:
        tracer = tracing.Tracer()
        untraced, traced = [], []
        for index in range(max(2, passes - passes % 2)):
            if index % 2 == 0:
                untraced.append(checked_pass(cases, rng, meter, tally)[0])
            else:
                traced.append(checked_pass(cases, rng, meter, tally, tracer))
        result["digests"] = determinism(cases, tally)
        metrics, result["layers"] = per_layer(untraced, traced, meter.factor)
        calls = untraced + [c for c, _ in traced]
    result.update(passes=len(calls), attempted=tally.attempted, failed=tally.failed,
                  problems=tally.problems[:50], calls=calls, metrics=metrics,
                  probe_median_s=statistics.median(meter.probes))
    return result


# -- output --------------------------------------------------------------------------


def print_human(result):
    print(f"# {result['workload']} seed={result['seed']} passes={result['passes']} "
          f"attempted={result['attempted']} failed={result['failed']} "
          f"commit={result['commit'][:12]} python={result['python']} nproc={result['nproc']}")
    for failure in result["problems"][:10]:
        print(f"FAILED {failure}")
    metrics = result["metrics"]
    for name, entry in metrics.items():
        extra = ""
        if name in result.get("uncorrected", {}):
            extra = f"  (uncorrected {result['uncorrected'][name]['value']:.6g})"
        if name == "verdict_s_tail":
            extra += f"  (p{result['tail']['percentile']} of {result['tail']['samples']} samples)"
        print(f"{name:48s} {entry['value']:.6g} {entry['unit']}{extra}")
    if "correct_ratio" in metrics:
        print(f"{'failed_ratio':48s} {1 - metrics['correct_ratio']['value']:.6g} ratio")
    if "trace.pass_s" in metrics:
        whole = metrics["trace.pass_s"]["value"]
        for name in ("families.run_battery.total_s", "families.invariant_presentation.total_s",
                     "derivations.kernel_linear.total_s", "derivations.kernel_saturation.total_s",
                     "groebner.subalgebra_membership.under_kernel_s"):
            print(f"share of traced pass in {name}: {metrics[name]['value'] / whole:.1%}")


def summary_line(result):
    metrics = {k: {"value": v["value"], "unit": v["unit"]} for k, v in result["metrics"].items()}
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def diff(old_path, new_path):
    old = json.loads(Path(old_path).read_text())
    new = json.loads(Path(new_path).read_text())
    print(f"old: {old['workload']} seed={old['seed']} commit={old['commit'][:12]}")
    print(f"new: {new['workload']} seed={new['seed']} commit={new['commit'][:12]}")
    for name in sorted(set(old["metrics"]) | set(new["metrics"])):
        a, b = old["metrics"].get(name), new["metrics"].get(name)
        if a is None or b is None:
            print(f"{name:48s} only in {'new' if a is None else 'old'}")
        elif a["unit"] in ("count", "ratio"):
            mark = "same" if a["value"] == b["value"] else "CHANGED"
            print(f"{name:48s} {a['value']} -> {b['value']} {mark}")
        else:
            def spread(entry):
                q1, _, q3 = quartiles(entry.get("samples") or [entry["value"]])
                return f"{entry['value']:.6g} [{q1:.4g}, {q3:.4g}]"
            ratio = b["value"] / a["value"] if a["value"] else float("nan")
            print(f"{name:48s} {spread(a)} -> {spread(b)} {a['unit']}  x{ratio:.3f}")
    for label in sorted(set(old.get("digests", {})) & set(new.get("digests", {}))):
        if old["digests"][label] != new["digests"][label]:
            print(f"report CHANGED: {label}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--diff", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)
    if args.diff:
        diff(*args.diff)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "gaquot" / "__init__.py").is_file():
        print(f"error: no gaquot sources under {SRC}", file=sys.stderr)
        return 2
    # Calls, probes and the setup children share one core, so the probes
    # see the contention the calls see.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    import gaquot
    import gaquot.cli  # noqa: F401  (module attribute used by the cases)

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        result = run_workload(gaquot, name, args.seed, args.seconds, args.trace)
        out = RESULTS / f"{name}-seed{args.seed}-trace{args.trace}.json"
        RESULTS.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(result, indent=1, default=str) + "\n", encoding="utf-8")
        print_human(result)
        print(f"results: {out}")
        results.append(result)
    if len(results) == 1:
        line = summary_line(results[0])
    else:
        lines = [summary_line(r) for r in results]
        line = {"correct": all(x["correct"] for x in lines),
                "attempted": sum(x["attempted"] for x in lines),
                "failed": sum(x["failed"] for x in lines),
                "metrics": {f"{r['workload']}.{k}": v for r, x in zip(results, lines)
                            for k, v in x["metrics"].items()}}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
