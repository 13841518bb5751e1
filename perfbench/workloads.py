"""Seeded instance generators for the three benchmark workloads.

A workload is a list of plain, JSON-serialisable case dicts; the same
seed always gives the same list.  Cases are built here without importing
gaquot, so the program under test sees only the generated inputs.

Every case has a "label" (unique within the workload) and a "kind":

  battery            run_battery on (family, f, trivial); m is deg f for v3
  kernel_linear      kernel_linear on V_n up to "degree"
  kernel_saturation  kernel_saturation on V_n with slice variable w2
  cli                gaquot.cli.main(argv); "check" says how to judge it

Cases with "determinism" set are rerun after the timed loop in two fresh
interpreters with different hash seeds; their reports must not change.

Cases are listed roughly cheapest first; the runner warms up on the first half.
"""

from __future__ import annotations

import random
from fractions import Fraction

WORKLOADS = ("battery-degree", "kernel-width", "cli-mix")

# Small nonzero rationals for seeded scale factors.
SCALES = tuple(Fraction(p, q) * sign for p, q in ((1, 1), (2, 1), (3, 1), (1, 2), (1, 3), (3, 2))
               for sign in (1, -1))

# argv placeholder for the directory holding the generated input files.
WORKDIR = "{workdir}"


def render(coeffs, names) -> str:
    """Text of sum(c * monomial) in the gaquot grammar; coeffs maps an
    exponent tuple over `names` to a Fraction, printed highest degree first."""
    chunks = []
    for exps in sorted(coeffs, key=lambda e: (sum(e), e), reverse=True):
        c = coeffs[exps]
        if c == 0:
            continue
        factors = [n if e == 1 else f"{n}^{e}" for n, e in zip(names, exps) if e]
        mag = abs(c)
        body = "*".join(([] if mag == 1 and factors else [str(mag)]) + factors)
        sign = "-" if c < 0 else "+"
        chunks.append((f"-{body}" if c < 0 else body) if not chunks else f" {sign} {body}")
    return "".join(chunks) or "0"


def shape_from_roots(roots) -> str:
    """f in s with f(0) = 0 and f + 1 = prod(1 - s/r): f + 1 is squarefree
    exactly when the roots are distinct, and deg f = len(roots)."""
    coeffs = [Fraction(1)]  # ascending powers of s
    for r in roots:
        step = -1 / Fraction(r)
        coeffs = [a + step * b for a, b in zip(coeffs + [Fraction(0)], [Fraction(0)] + coeffs)]
    coeffs[0] -= 1
    return render({(k,): c for k, c in enumerate(coeffs)}, ("s",))


def signed_roots(rng: random.Random, degree: int):
    """Distinct roots +-1/1, ..., +-1/degree with seeded signs, so f has
    integer coefficients.  Fixed magnitudes keep coefficient heights, hence
    cost, within a few percent across seeds."""
    return [Fraction(rng.choice((1, -1)), k) for k in range(1, degree + 1)]


def linear_v4_shape(rng: random.Random) -> str:
    """f = alpha*a + beta*b + gamma*c: 1 + f(quads) is 1 plus a quadratic
    form, which is smooth wherever it vanishes."""
    return render({exps: rng.choice(SCALES) for exps in ((1, 0, 0), (0, 1, 0), (0, 0, 1))},
                  ("a", "b", "c"))


def _battery(label, family, f, trivial=0, m=None, determinism=False):
    return {"kind": "battery", "label": label, "family": family, "f": f,
            "trivial": trivial, "m": m, "determinism": determinism}


def battery_degree(rng: random.Random):
    """v3 with deg f = 1..12 plus three linear v4 instances."""
    cases = [_battery(f"v4-lin{i}", "v4", linear_v4_shape(rng), determinism=True)
             for i in range(3)]
    for degree in range(1, 13):
        cases.append(_battery(f"v3-deg{degree}", "v3",
                              shape_from_roots(signed_roots(rng, degree)), m=degree,
                              determinism=degree <= 6))
    return cases


def kernel_width(rng: random.Random):
    """v3 f = c*s with 0..10 trivial summands, kernel_linear on V3 at degrees
    2 and 3 and on V4 at degrees 2 and 3, and kernel_saturation on V3 and V4
    (V_n is the Weitzenboeck derivation on n copies of the 2-dim block)."""
    scale = rng.choice(SCALES)
    f = render({(1,): scale}, ("s",))
    battery = [_battery(f"v3-triv{t}", "v3", f, trivial=t, m=1, determinism=t <= 4)
               for t in range(11)]
    # 17 cases: an odd count puts the median of a three-pass run on the
    # middle call of one case rather than between two cases.
    return ([{"kind": "kernel_saturation", "label": "sat-V3", "n": 3},
             {"kind": "kernel_linear", "label": "lin-V3-d2", "n": 3, "degree": 2},
             {"kind": "kernel_linear", "label": "lin-V3-d3", "n": 3, "degree": 3}]
            + battery[:5]
            + [{"kind": "kernel_linear", "label": "lin-V4-d2", "n": 4, "degree": 2}]
            + battery[5:7]
            + [{"kind": "kernel_saturation", "label": "sat-V4", "n": 4}]
            + battery[7:]
            + [{"kind": "kernel_linear", "label": "lin-V4-d3", "n": 4, "degree": 3}])


def _cli(label, argv, check, **expect):
    return {"kind": "cli", "label": label, "argv": argv, "check": check, **expect}


def _verify(label, family, f, trivial=0, m=None):
    argv = ["verify", "--family", family, f"--f={f}"]
    if trivial:
        argv += ["--trivial", str(trivial)]
    return _cli(label, argv, "report", family=family, trivial=trivial, m=m, determinism=True)


def cli_mix(rng: random.Random):
    """Short CLI calls where per-call fixed cost dominates."""
    root = rng.randint(1, 4) * rng.choice((1, -1))
    cases = [
        _cli("ctl-repeated-root",
             ["verify", "--family", "v3", f"--f={shape_from_roots([root, root])}"],
             "exit", exit=3),
        _cli("ctl-constant", ["verify", "--family", "v3",
                              f"--f=s + {rng.randint(1, 9)}"], "exit", exit=3),
        _cli("ctl-max-pairs", ["verify", "--family", "v3", "--f=s", "--max-pairs", "1"],
             "exit", exit=4),
        _cli("ctl-malformed", ["verify", "--family", "v3",
                               f"--f={rng.choice(['s +* s', '2s', 's^', '(s'])}"],
             "exit", exit=1),
    ]
    cases += [_verify(f"verify-v4-{i}", "v4", linear_v4_shape(rng)) for i in range(2)]
    cases += [_gb("cyclic4", order) for order in ("grevlex", "lex", "elim:1")]
    cases += [_cli(f"kernel-V3-{method}",
                   ["kernel", "--derivation", f"{WORKDIR}/v3.deriv", "--method", method],
                   "kernel", n=3)
              for method in ("linear", "saturation")]
    cases.append(_cli("present-s", ["present", "--f=s"], "present", trivial=0,
                      determinism=True))
    for degree in (1, 2, 3):
        cases.append(_verify(f"verify-v3-deg{degree}", "v3",
                             shape_from_roots(signed_roots(rng, degree)),
                             trivial=rng.randint(0, 1), m=degree))
    cases += [_gb("katsura3", order) for order in ("grevlex", "lex", "elim:1")]
    # Under lex, katsura-4 exceeds the default degree cap (exit 4 after ~1 s).
    cases += [_gb("katsura4", order) for order in ("grevlex", "elim:1")]
    return cases


def _gb(ideal, order):
    return _cli(f"gb-{ideal}-{order}",
                ["gb", "--ideal", f"{WORKDIR}/{ideal}.txt", "--order", order],
                "gb", ideal=ideal, order=order)


GENERATORS = {"battery-degree": battery_degree, "kernel-width": kernel_width,
              "cli-mix": cli_mix}


def generate(workload: str, seed: int):
    """The case list of one workload for one seed."""
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"))


# -- input files for the CLI cases ------------------------------------------------


def cyclic(n: int):
    xs = [f"x{i}" for i in range(n)]
    eqs = [" + ".join("*".join(xs[(i + k) % n] for k in range(d)) for i in range(n))
           for d in range(1, n)]
    eqs.append("*".join(xs) + " - 1")
    return xs, eqs


def katsura(n: int):
    xs = [f"x{i}" for i in range(n + 1)]

    def x(k):
        return xs[abs(k)] if abs(k) <= n else None

    eqs = [" + ".join(x(l) for l in range(-n, n + 1)) + " - 1"]
    for m in range(n):
        terms = [f"{x(l)}*{x(m - l)}" for l in range(-n, n + 1) if x(l) and x(m - l)]
        eqs.append(" + ".join(terms) + f" - {xs[m]}")
    return xs, eqs


IDEALS = {"cyclic4": cyclic(4), "katsura3": katsura(3), "katsura4": katsura(4)}


def input_files():
    """File name -> text of every file the CLI cases read."""
    files = {f"{name}.txt": "vars: " + " ".join(xs) + "\n" + "\n".join(eqs) + "\n"
             for name, (xs, eqs) in IDEALS.items()}
    files["v3.deriv"] = "vars: w1 w2 w3 w4 w5 w6\nw2 -> w1\nw4 -> w3\nw6 -> w5\n"
    return files
