"""Exact sparse linear algebra: one row echelon form over the rationals.

A vector is a term dict {exponent tuple: rational coefficient}, with
monomials as coordinates; row coefficients are in the canonical form of
`poly` (an int when integral, else a Fraction), which division by
`poly._exact_quotient` keeps.  The echelon keeps monic rows with distinct
grevlex leading monomials and reduces a vector on a heap of its monomials,
so the pivot is popped rather than found by a scan; F4 (Faugere, J. Pure
Appl. Algebra 139, 1999) likewise runs polynomial reduction and linear
algebra on one sparse echelon.  It serves both the kernel solve of a
derivation, whose rows carry the polynomial they are the image of, and
graded subalgebra membership, and both read its rows as tuple-keyed term
dicts, so it keeps exponent tuples rather than the packed monomials of
the Groebner engine.  Every step is exact and pivots are leading
monomials, so results are reproducible bit for bit.
"""

from __future__ import annotations

import heapq
from typing import Optional

from .poly import _exact_quotient, _grevlex_descending


class Echelon:
    """Monic rows keyed by their distinct grevlex leading monomials.

    Each row may carry a term dict that undergoes the same row
    operations as the row itself.
    """

    def __init__(self):
        self.rows: dict = {}
        self.carried: dict = {}

    def reduce(self, terms: dict, carried: Optional[dict] = None):
        """Subtract multiples of the rows from `terms` while its leading
        monomial is a row's, and the same multiples of their carried dicts
        from `carried`.

        Returns None when nothing is left, otherwise the leading monomial
        of what is left, which no row has.  Updates both dicts in place;
        either may keep zero coefficients.  A monomial enters the heap
        when it first enters `terms` and stays in `terms`, with coefficient
        zero if it cancels, until it is popped; so the heap holds each
        monomial once and a zero pop is a cancelled term."""
        heap = [(_grevlex_descending(m), m) for m in terms]
        heapq.heapify(heap)
        while heap:
            m = heapq.heappop(heap)[1]
            c = terms[m]
            if not c:
                del terms[m]
                continue
            row = self.rows.get(m)
            if row is None:
                return m
            del terms[m]
            for t, v in row.items():
                if t == m:
                    continue
                old = terms.get(t)
                if old is None:
                    terms[t] = -c * v
                    heapq.heappush(heap, (_grevlex_descending(t), t))
                else:
                    terms[t] = old - c * v
            if carried is not None:
                for t, v in self.carried[m].items():
                    carried[t] = carried.get(t, 0) - c * v
        return None

    def insert(self, terms: dict, carried: Optional[dict] = None):
        """Reduce `terms` and append what is left, made monic, as a new row
        (with `carried` scaled alike); return that row, or None when
        nothing is left."""
        lead = self.reduce(terms, carried)
        if lead is None:
            return None
        lc = terms[lead]
        row = self.rows[lead] = {m: _exact_quotient(c, lc) for m, c in terms.items() if c}
        if carried is not None:
            self.carried[lead] = {m: _exact_quotient(c, lc) for m, c in carried.items() if c}
        return row
