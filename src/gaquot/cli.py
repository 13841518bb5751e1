"""Batch command-line driver.

Commands: verify (full battery for a family instance), kernel (invariant
generators of a derivation file), gb (reduced basis of an ideal file),
present (invariant-ring presentation).  Exit codes partition outcomes:

  0  success / all checks passed
  1  usage or parse error, or an input or output path that cannot be
     read or written
  2  a mathematical check failed (a failed battery check, or the empty
     boundary of f = 0, which verify and present both report)
  3  spec rejected (repeated roots, nonzero constant term)
  4  resource cap exceeded
  5  internal error (any other exception, gaquot's own included: a bug,
     not a usage error)

Reports serialize deterministically: identical inputs give byte-identical
output.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from pathlib import Path
from typing import Optional

from .derivations import (
    find_slice,
    kernel_linear,
    kernel_saturation,
    load_derivation_file,
)
from .errors import (
    NonzeroConstantError,
    NotLocallyNilpotentError,
    ParseError,
    RepeatedRootsError,
    ResourceCapError,
    RoundCapError,
    UnitIdealError,
    UnknownVariableError,
    UsageError,
)
from .families import (
    FAMILIES,
    FamilySpec,
    VerificationReport,
    max_trivial_summands,
    run_battery,
)
from .groebner import DEFAULT_CAPS, ResourceCaps, TermOrder, buchberger, load_ideal_file
from .poly import VarSet, parse

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CHECK_FAILED = 2
EXIT_REJECTED = 3
EXIT_RESOURCE = 4
EXIT_INTERNAL = 5

_USAGE_ERRORS = (
    ParseError,
    UnknownVariableError,
    OSError,  # the only I/O: reading the input files and writing --out
    UsageError,
)
_REJECTION_ERRORS = (RepeatedRootsError, NonzeroConstantError)
_RESOURCE_ERRORS = (ResourceCapError, RoundCapError, NotLocallyNilpotentError)

DEFAULT_MAX_ROUNDS = 8
DEFAULT_KERNEL_DEGREE = 2  # degree bound of `kernel --method linear`


def _add_cap_flags(sub: argparse.ArgumentParser,
                   max_degree_default: Optional[int] = DEFAULT_CAPS.max_degree,
                   max_degree_help: str = "total degree cap for basis computations, "
                                          "and for deg f when f is validated"):
    sub.add_argument("--max-pairs", type=int, default=DEFAULT_CAPS.max_pairs,
                     help="S-polynomials each basis computation may reduce, save "
                          "the squarefreeness fallback of f's validation; the "
                          "invariant presentation is one basis computation under "
                          "this budget")
    sub.add_argument("--max-degree", type=int, default=max_degree_default,
                     help=max_degree_help)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaquot",
        description="exact verification of additive-group quotient families",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run the full check battery")
    verify.add_argument("--family", choices=tuple(FAMILIES), required=True)
    verify.add_argument("--f", required=True, metavar="POLY",
                        help="shape polynomial (in s for v3; in a,b,c for v4)")
    verify.add_argument("--trivial", type=int, default=0,
                        help="number of trivial summands, at most " + " and ".join(
                            f"{max_trivial_summands(f)} for {f}" for f in FAMILIES))
    verify.add_argument("--out", type=Path, default=None,
                        help="write the JSON report here instead of stdout")
    _add_cap_flags(verify)

    kernel = sub.add_parser("kernel", help="invariant generators of a derivation")
    kernel.add_argument("--derivation", type=Path, required=True,
                        help="derivation file (lines 'x -> polynomial')")
    kernel.add_argument("--method", choices=("linear", "saturation"),
                        default="linear")
    _add_cap_flags(kernel, None, f"degree bound of the linear method (default "
                                 f"{DEFAULT_KERNEL_DEGREE}); the saturation method rejects it")

    gb = sub.add_parser("gb", help="reduced basis of an ideal file")
    gb.add_argument("--ideal", type=Path, required=True)
    gb.add_argument("--order", default="grevlex",
                    help="grevlex, lex, or elim:K (eliminate the first K variables)")
    _add_cap_flags(gb, max_degree_help="total degree cap for basis computations")

    present = sub.add_parser("present", help="invariant-ring presentation (v3 family)")
    present.add_argument("--f", required=True, metavar="POLY", help="shape polynomial in s")
    present.add_argument("--trivial", type=int, default=0,
                         help=f"number of trivial summands, at most {max_trivial_summands('v3')}")
    _add_cap_flags(present)

    kernel.add_argument("--max-rounds", type=int, help=f"round budget of the saturation "
                        f"method (default {DEFAULT_MAX_ROUNDS}); the linear method rejects it")
    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser of `main`, built once per process: parsing leaves it
    unchanged, and building it takes far longer than a parse."""
    return build_parser()


def _caps(args) -> ResourceCaps:
    return ResourceCaps(max_pairs=args.max_pairs, max_degree=args.max_degree)


def _parse_shape(family: str, text: str):
    return parse(text, VarSet(FAMILIES[family][1]))


def report_document(report: VerificationReport, caps: ResourceCaps,
                    max_rounds: int) -> dict:
    """Schema-ordered plain dict for JSON serialization.  `m` and
    `k0Ranks` count the boundary's components over the algebraic closure
    of Q, one per root of 1 + f: f = s^2 gives m = 2, though 1 + s^2 is
    irreducible over Q."""
    dims, ranks = report.dims, report.ranks  # each built on every read: read once
    doc = {
        "schemaVersion": SCHEMA_VERSION,
        "family": report.spec.family,
        "f": str(report.spec.f),
        "trivialSummands": report.spec.trivial_summands,
        "dims": {
            "X": dims.x,
            "quotient": dims.quotient,
            "Ybar": dims.ybar,
            "B": dims.b,
        },
        "checks": dict(report.checks),
        "boundaryCodim": dims.codim,
        "m": report.m,
        "k0Ranks": None,
        "presentation": None,
        "capsUsed": {
            "maxPairs": caps.max_pairs,
            "maxDegree": caps.max_degree,
            "maxRounds": max_rounds,
        },
    }
    if ranks is not None:
        doc["k0Ranks"] = {
            "Z": ranks.rank_z,
            "closure": ranks.rank_closure,
            "quotient": ranks.rank_quotient,
        }
    if report.presentation is not None:
        gens, relations = report.presentation
        doc["presentation"] = {
            "generators": [str(g) for g in gens],
            "relations": [str(r) for r in relations.generators],
        }
    return doc


def render_report(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _cmd_verify(args, out) -> int:
    f = _parse_shape(args.family, args.f)
    spec = FamilySpec(args.family, f, args.trivial)
    caps = _caps(args)
    report = run_battery(spec, caps=caps)
    doc = report_document(report, caps, DEFAULT_MAX_ROUNDS)  # no battery stage spends rounds
    text = render_report(doc)
    passed = report.passed  # derived on each read: read once
    if args.out is not None:
        args.out.write_text(text, encoding="utf-8")
        print(f"{'pass' if passed else 'FAIL'}: report written to {args.out}", file=out)
    else:
        out.write(text)
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def _cmd_kernel(args, out) -> int:
    if args.max_rounds is not None and args.max_rounds < 0:
        raise UsageError("max_rounds must be nonnegative")
    if args.method == "saturation" and args.max_degree is not None:
        raise UsageError("--max-degree is the degree bound of the linear method only")
    if args.method == "linear" and args.max_rounds is not None:
        raise UsageError("--max-rounds is the round budget of the saturation method only")
    derivation = load_derivation_file(args.derivation)
    caps = ResourceCaps(max_pairs=args.max_pairs)
    if args.method == "linear":
        degree = DEFAULT_KERNEL_DEGREE if args.max_degree is None else args.max_degree
        gens = kernel_linear(derivation, degree, caps=caps)
    else:
        var = find_slice(derivation)
        if var is None:
            raise UsageError("no slice variable (need D(s) nonzero with D(D(s)) = 0)")
        rounds = DEFAULT_MAX_ROUNDS if args.max_rounds is None else args.max_rounds
        gens = kernel_saturation(derivation, var, rounds, caps=caps)
        if rounds == 0:
            print("warning: 0 rounds requested; stabilization not verified",
                  file=sys.stderr)
    if not gens:
        bound = " up to the requested degree" if args.method == "linear" else ""
        print(f"(no nonconstant generators{bound})", file=out)
    for g in gens:
        print(g, file=out)
    return EXIT_OK


def _parse_order(text: str, width: int) -> TermOrder:
    """grevlex, lex, or elim:K with 0 <= K <= width (the ring size)."""
    if text == "grevlex":
        return TermOrder.grevlex()
    if text == "lex":
        return TermOrder.lex()
    if text.startswith("elim:"):
        try:
            k = int(text[len("elim:"):])
        except ValueError:
            raise UsageError(f"unknown order {text!r}") from None
        if not 0 <= k <= width:
            raise UsageError("elimination count out of range")
        return TermOrder.block(k)
    raise UsageError(f"unknown order {text!r}")


def _cmd_gb(args, out) -> int:
    ideal = load_ideal_file(args.ideal)
    order = _parse_order(args.order, len(ideal.ring))
    gb = buchberger(ideal, order, caps=_caps(args))
    if not gb.basis:
        print("0", file=out)
    for g in gb.basis:
        print(g, file=out)
    return EXIT_OK


def _cmd_present(args, out) -> int:
    spec = FamilySpec("v3", _parse_shape("v3", args.f), args.trivial)
    gens, relations = run_battery(spec, _caps(args)).presentation
    tags = relations.ring.names
    for tag, g in zip(tags, gens):
        print(f"{tag} = {g}", file=out)
    for r in relations.generators:
        print(f"relation: {r}", file=out)
    # Round trip: plugging the generators back into each relation must give
    # zero on X (here identically zero in the affine coordinates).
    assignment = dict(zip(tags, gens))
    ok = all(r.substitute(assignment).is_zero() for r in relations.generators)
    print("round-trip: " + ("verified" if ok else "FAILED"), file=out)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


_HANDLERS = {
    "verify": _cmd_verify,
    "kernel": _cmd_kernel,
    "gb": _cmd_gb,
    "present": _cmd_present,
}


def main(argv: Optional[list] = None, out=None) -> int:
    out = out or sys.stdout
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage problems; fold the
        # latter into the documented usage code.
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    # argparse reads a lone "--" joined by "=" (--f=--) as [], past `choices` and `type`
    empty = [dest for dest, value in vars(args).items() if value == []]
    if empty:
        print(f"error: --{empty[0].replace('_', '-')} expected one argument", file=sys.stderr)
        return EXIT_USAGE
    handler = _HANDLERS[args.command]
    try:
        return handler(args, out)
    except _REJECTION_ERRORS as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return EXIT_REJECTED
    except _RESOURCE_ERRORS as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except UnitIdealError as exc:  # the empty boundary at f = 0
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except Exception as exc:  # a bug, not a usage error: keep its traceback
        import traceback  # only on this path, off the import time of every run

        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return EXIT_INTERNAL


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
