"""linalg.Echelon against sympy's rank on seeded sparse rational vectors."""

import random
from fractions import Fraction
from itertools import product

import sympy as sp

from gaquot import TermOrder
from gaquot.linalg import Echelon
from helpers import reference_key

# the ten monomials of degree at most 2 in three variables
MONOMIALS = [e for e in product(range(3), repeat=3) if sum(e) <= 2]
GREVLEX = reference_key(TermOrder.grevlex())


def rank(vectors) -> int:
    if not vectors:
        return 0
    return sp.Matrix([[sp.Rational(v.get(m, 0).numerator, v.get(m, 0).denominator)
                       for m in MONOMIALS] for v in vectors]).rank()


def random_vector(rng, vectors) -> dict:
    """A sparse vector with up to four nonzero entries (now and then none);
    a third of the time a combination of earlier vectors instead."""
    if vectors and rng.random() < 0.35:
        combination: dict = {}
        for v in rng.sample(vectors, min(len(vectors), rng.randint(1, 3))):
            scale = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            for m, c in v.items():
                combination[m] = combination.get(m, 0) + scale * c
        return {m: c for m, c in combination.items() if c}
    return {m: Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 4))
            for m in rng.sample(MONOMIALS, rng.randint(0, 4))}


def test_echelon_against_sympy_rank():
    """insert returns None exactly when the rank does not grow; the rows
    are monic with distinct leading monomials; each row is the
    combination of the inserted vectors that it carries."""
    rng = random.Random(20261023)
    outcomes = []
    for _ in range(8):
        echelon, vectors, current = Echelon(), [], 0
        for k in range(14):
            v = random_vector(rng, vectors)
            vectors.append(v)
            row = echelon.insert(dict(v), {k: Fraction(1)})
            grew = rank(vectors) > current
            current += grew
            outcomes.append(grew)
            assert (row is None) == (not grew)
        assert len(echelon.rows) == current
        for lead, row in echelon.rows.items():
            assert lead == max(row, key=GREVLEX) and row[lead] == 1
            assert all(row.values())
            combination: dict = {}
            for k, c in echelon.carried[lead].items():
                for m, value in vectors[k].items():
                    combination[m] = combination.get(m, 0) + c * value
            assert {m: c for m, c in combination.items() if c} == row
    assert 0.3 < sum(outcomes) / len(outcomes) < 0.9
