"""Known answers for every benchmark case, independent of gaquot.

Polynomials here are plain term dicts {exponent tuple: Fraction}; the
arithmetic and linear algebra below are this module's own, so a defect in
gaquot's Polynomial, Groebner or linalg code cannot hide itself.  Every
check returns a list of problems; an empty list means the output matches.

The answers come from the paper's constructions:
  * v3 dims are X = 5+t, quotient = 4+t, Ybar = 7+t, B = 5+t; v4 dims are
    7+t, 6+t, 9+t, 7+t (t trivial summands); every check passes;
  * the boundary has codimension 2, m = deg f, and the K0 ranks are
    (m, m+1, 1); v4 reports carry no m, ranks or presentation;
  * a presentation round-trips: the relations vanish on the generators;
  * the kernel of the Weitzenboeck derivation on n copies of the 2-dim
    block is generated by the n linear forms w1, w3, ... and the C(n, 2)
    2x2 minors (first fundamental theorem).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

CHECKS = ("invariant", "affineSpace", "stable", "free", "ybarSmooth", "boundarySmooth")
BASE_DIMS = {"v3": (5, 4, 7, 5), "v4": (7, 6, 9, 7)}


# -- term-dict arithmetic -------------------------------------------------------


def add(a, b, scale=Fraction(1)):
    """a + scale*b."""
    out = dict(a)
    for m, c in b.items():
        v = out.get(m, 0) + scale * c
        if v:
            out[m] = v
        else:
            out.pop(m, None)
    return out


def mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            v = out.get(m, 0) + c1 * c2
            if v:
                out[m] = v
            else:
                out.pop(m, None)
    return out


def substitute(poly, images, width):
    """poly(images[0], images[1], ...) for term dicts over `width` variables."""
    one = {(0,) * width: Fraction(1)}
    powers = [[one] for _ in images]
    result = {}
    for exps, c in poly.items():
        term = {(0,) * width: Fraction(c)}
        for i, e in enumerate(exps):
            while len(powers[i]) <= e:
                powers[i].append(mul(powers[i][-1], images[i]))
            term = mul(term, powers[i][e])
        result = add(result, term)
    return result


def rank(polys) -> int:
    """Dimension of the rational span of the polynomials."""
    basis = {}  # pivot monomial -> row; no row holds another row's pivot
    for p in polys:
        row = {m: Fraction(c) for m, c in p.items() if c}
        for pivot, prow in basis.items():
            if row.get(pivot):
                row = add(row, prow, -row[pivot])
        if not row:
            continue
        pivot = max(row)
        row = {m: c / row[pivot] for m, c in row.items()}
        for q, qrow in basis.items():
            if qrow.get(pivot):
                basis[q] = add(qrow, row, -qrow[pivot])
        basis[pivot] = row
    return len(basis)


def _canonical(polys):
    return sorted(sorted(p.items()) for p in polys)


# -- battery reports -------------------------------------------------------------


def expected_report(family: str, trivial: int, m=None) -> dict:
    """The report every family instance must produce."""
    v3 = family == "v3"
    return {
        "dims": tuple(d + trivial for d in BASE_DIMS[family]),
        "checks": {name: True for name in CHECKS},
        "codim": 2,
        "m": m if v3 else None,
        "ranks": (m, m + 1, 1) if v3 else None,
        "presentation": v3,
        "passed": True,
    }


def report_problems(expected: dict, got: dict):
    """Compare a report (see run.py for the field layout) with the answer.

    got["presentation"] is None or (generators over z, relations over tags).
    """
    problems = [f"{key}: expected {expected[key]!r}, got {got[key]!r}"
                for key in ("dims", "checks", "codim", "m", "ranks", "passed")
                if got[key] != expected[key]]
    presentation = got["presentation"]
    if not expected["presentation"]:
        if presentation is not None:
            problems.append("unexpected presentation")
        return problems
    if presentation is None:
        return problems + ["presentation missing"]
    return problems + round_trip_problems(*presentation)


def round_trip_problems(generators, relations):
    """Substituting the generators into each relation must give zero."""
    if not generators:
        return ["presentation has no generators"]
    nonzero = [r for r in relations if r]
    if not nonzero:
        return ["presentation has no nonzero relation"]
    width = len(next(iter(generators[0])))
    return [f"relation {i} does not vanish on the generators"
            for i, r in enumerate(nonzero) if substitute(r, generators, width)]


# -- kernels -----------------------------------------------------------------------


def weitzenboeck_problems(n: int, generators):
    """The generators must be n + C(n, 2) polynomials of degree <= 2 spanning
    the linear forms and the minors modulo products of linear forms."""
    width = 2 * n

    def var(i):
        exps = [0] * width
        exps[i] = 1
        return {tuple(exps): Fraction(1)}

    odd = [var(2 * i) for i in range(n)]  # w1, w3, ...
    minors = [add(mul(var(2 * i), var(2 * j + 1)), mul(var(2 * i + 1), var(2 * j)), Fraction(-1))
              for i, j in combinations(range(n), 2)]
    products = [{(0,) * width: Fraction(1)}]
    products += [mul(odd[i], odd[j]) for i in range(n) for j in range(i, n)]
    problems = []
    if len(generators) != n + len(minors):
        problems.append(f"expected {n + len(minors)} generators, got {len(generators)}")
    if any(sum(m) > 2 for g in generators for m in g):
        problems.append("a generator has degree above 2")
    target = rank(products + odd + minors)
    if rank(products + list(generators)) != target \
            or rank(products + odd + minors + list(generators)) != target:
        problems.append("generators do not span the linear forms and 2x2 minors")
    return problems


# -- Groebner bases and exit codes --------------------------------------------------


def gb_problems(got, reference):
    """Reduced bases are unique: equal as sets of monic polynomials."""
    if _canonical(got) != _canonical(reference):
        return [f"reduced basis differs from the reference "
                f"({len(got)} vs {len(reference)} elements)"]
    return []


def exit_problems(expected: int, got: int):
    return [] if expected == got else [f"exit code {got}, expected {expected}"]
