"""Reference reduced Groebner bases computed by sympy.

Reads a JSON list of jobs {"vars": [...], "gens": [...], "order": ...} on
stdin and writes a JSON list of bases; each basis is a list of
polynomials, each polynomial a list of [exponents, "p/q"] terms.  Orders
are "grevlex", "lex" and "elim:K" (grevlex on the first K variables,
ties broken by grevlex on the rest, as in gaquot's block order).

Run as a child process so sympy's import never counts toward the
benchmark's own memory or time.
"""

import json
import sys

import sympy
from sympy.polys.orderings import ProductOrder, grevlex


def order_of(text: str):
    if text in ("grevlex", "lex"):
        return text
    k = int(text[len("elim:"):])
    return ProductOrder((grevlex, lambda m: m[:k]), (grevlex, lambda m: m[k:]))


def reduced_basis(names, gens, order):
    syms = sympy.symbols(names)
    scope = dict(zip(names, syms))
    exprs = [sympy.parse_expr(g.replace("^", "**"), local_dict=scope) for g in gens]
    basis = sympy.groebner(exprs, *syms, order=order_of(order), domain="QQ")
    return [[[list(exps), str(coeff)] for exps, coeff in sympy.Poly(b, *syms, domain="QQ").terms()]
            for b in basis.exprs]


def main():
    jobs = json.load(sys.stdin)
    json.dump([reduced_basis(job["vars"], job["gens"], job["order"]) for job in jobs], sys.stdout)


if __name__ == "__main__":
    main()
