"""Exact sparse multivariate polynomials over the rationals.

A polynomial is a map from exponent tuples to nonzero rational
coefficients, tied to an ordered variable set.  All arithmetic is exact;
no floating point appears anywhere, and a float or any other
non-rational coefficient raises TypeError.  Values are immutable after
construction and safe to share between threads.

Canonical form: zero coefficients are never stored, a coefficient is a
Python int when its value is integral and a Fraction with denominator
above 1 otherwise, the zero polynomial has an empty term map, and
printing lists terms in descending graded-reverse-lexicographic order,
so equal polynomials print equally.  An int and the Fraction of the same
value compare, hash and print alike, so the form is invisible outside;
it keeps the integral coefficients of the common case off `Fraction`
arithmetic.  Every division of coefficients goes through
`_exact_quotient`, which keeps that form.  Division of polynomials,
and the coprimality of p and p' behind the squarefreeness test, belong
to the one reduction engine in `groebner`.

Text is read in one recursive-descent pass whose rules return term
dicts: a sum accumulates into one dict, products and powers go through
`_product` and `_power`, the loops behind `*` and `**`, and `parse`
builds one Polynomial at the end.  `str` prints each coefficient from
the int, or from the Fraction's numerator and denominator, with no
Fraction arithmetic.
"""

from __future__ import annotations

import re
from fractions import Fraction
from numbers import Rational
from operator import add, attrgetter
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence, Union

from .errors import (
    MissingAssignmentError,
    ParseError,
    RingMismatchError,
    UnknownVariableError,
    UsageError,
    ZeroPolynomialError,
)

# Exponent tuple, one entry per ring variable.  The abstract contract is
# "variable index -> positive exponent, absent = 0"; a dense tuple is the
# canonical realization of that map for the small rings used here.
Exponents = tuple

Scalar = Union[int, Fraction]

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


def _grevlex_descending(exps: Exponents):
    """The one definition of grevlex, as an injective sort key under which
    smaller means grevlex-greater."""
    return (-sum(exps),) + exps[::-1]


def _coefficient(value) -> Scalar:
    """The canonical form of a rational coefficient: an int when it is
    integral, else a Fraction; TypeError for anything not rational."""
    if type(value) is int:
        return value
    if type(value) is not Fraction:
        if not isinstance(value, Rational):
            raise TypeError(f"coefficient {value!r} is not rational")
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def _exact_quotient(a: Scalar, b: Scalar) -> Scalar:
    """a / b in canonical form; the one division of coefficients."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return _coefficient(a / b)


def _product(f: Mapping, g: Mapping) -> dict:
    """Term dict of the product of two term dicts without zero coefficients;
    the one product loop behind `*`, `substitute` and graded subalgebra
    spans."""
    out: dict = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            key = tuple(map(add, e1, e2))
            val = out.get(key, 0) + c1 * c2
            if val:
                out[key] = val
            else:
                del out[key]
    return out


def _power(f: Mapping, n: int, one: Exponents) -> dict:
    """Term dict of f**n by square-and-multiply, `one` being the exponent
    tuple of the constant term; the one power loop behind `**` and `^`
    in parsed text."""
    result = {one: 1}
    while n:
        if n & 1:
            result = _product(result, f)
        if n > 1:
            f = _product(f, f)
        n >>= 1
    return result


def _term_text(names, exps: Exponents, coeff: Scalar, first: bool) -> str:
    """One term as `str` prints it: signed if it leads, else joined to
    the text before it by " + " or " - ".  The coefficient is canonical,
    so its magnitude is printed from an int, or from a Fraction's
    numerator and denominator, with no Fraction arithmetic."""
    factors = "*".join([name if e == 1 else f"{name}^{e}" for name, e in zip(names, exps) if e])
    num = coeff.numerator
    negative = num < 0
    mag = str(-num if negative else num)
    if type(coeff) is not int:
        mag = f"{mag}/{coeff.denominator}"
    if not factors:
        body = mag
    elif mag == "1":
        body = factors
    else:
        body = f"{mag}*{factors}"
    if first:
        return f"-{body}" if negative else body
    return f" - {body}" if negative else f" + {body}"


def _degree_and_leading_text(p: "Polynomial") -> tuple:
    """(total degree of p, the text str(p) starts with): the leading term
    under grevlex, with its sign, whose degree is the total degree;
    (-1, "0") for the zero polynomial.  The rest of str(p) is empty or
    starts with a space, which sorts below every character of a term."""
    if not p.terms:
        return -1, "0"
    exps = min(p.terms, key=_grevlex_descending) if len(p.terms) > 1 else next(iter(p.terms))
    return sum(exps), _term_text(p.ring.names, exps, p.terms[exps], True)


class _Record:
    """Base of the library's immutable records, plain `__slots__` classes.
    `__init__` sets the slots with `object.__setattr__`; after that,
    assigning or deleting an attribute raises AttributeError.  Two
    records are equal when they are of one class and their `_fields` are
    equal, and a record hashes as its fields do, so one holding a mapping
    raises TypeError from `hash`.  `repr` prints Name(field=value, ...)
    over the same fields."""

    __slots__ = ()
    _fields = ()  # the slots compared, hashed and printed

    def __init_subclass__(cls):
        super().__init_subclass__()
        # _key(record): the value of a lone field, else the tuple of the fields' values
        cls._key = staticmethod(attrgetter(*cls._fields))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other) -> bool:
        if other is self:  # the common case of `ring != ring`
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class VarSet(_Record):
    """Ordered, immutable collection of distinct variable names."""

    __slots__ = ("names", "_index")
    _fields = ("names",)

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise UsageError(f"duplicate variable names in {names}")
        for name in names:
            if not _IDENT_RE.match(name):
                raise UsageError(f"invalid variable name {name!r}")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "_index", {n: i for i, n in enumerate(names)})

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __iter__(self):
        return iter(self.names)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownVariableError(f"variable {name!r} not in ring {self.names}") from None

    def var(self, name: str) -> "Polynomial":
        exps = [0] * len(self.names)
        exps[self.index(name)] = 1
        return Polynomial(self, {tuple(exps): 1})

    def const(self, value: Scalar) -> "Polynomial":
        return Polynomial(self, {(0,) * len(self.names): value})

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.const(1)

    def extend(self, extra: Iterable[str]) -> "VarSet":
        return VarSet(self.names + tuple(extra))


def fresh_names(base: str, count: int, taken: Iterable[str]) -> tuple:
    """Deterministic batch of identifiers base1..baseN avoiding `taken`."""
    taken = set(taken)
    stem = base
    while True:
        names = tuple(f"{stem}{i}" for i in range(1, count + 1))
        if not any(n in taken for n in names):
            return names
        stem += base


class Polynomial:
    """Immutable sparse polynomial over a fixed VarSet."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: VarSet, terms: Mapping[Exponents, Scalar]):
        clean = {}
        width = len(ring)
        for exps, coeff in terms.items():
            if len(exps) != width:
                raise ValueError(f"exponent tuple {exps} has wrong arity for ring {ring.names}")
            if type(coeff) is int:
                if coeff:
                    clean[exps] = coeff
            elif type(coeff) is Fraction and coeff.denominator != 1:
                clean[exps] = coeff  # canonical and nonzero already
            else:
                coeff = _coefficient(coeff)
                if coeff:
                    clean[exps] = coeff
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", MappingProxyType(clean))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    def __delattr__(self, name):
        raise AttributeError("Polynomial is immutable")

    # -- basic queries ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_term(self) -> Scalar:
        return self.terms.get((0,) * len(self.ring), 0)

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def variables(self) -> tuple:
        """Names of the variables actually occurring, in ring order."""
        used = set()
        for exps in self.terms:
            for i, e in enumerate(exps):
                if e:
                    used.add(i)
        return tuple(self.ring.names[i] for i in sorted(used))

    # -- ring arithmetic --------------------------------------------------

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if other.ring != self.ring:
                raise RingMismatchError(
                    f"rings differ: {self.ring.names} vs {other.ring.names}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.const(other)
        return NotImplemented

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            val = terms.get(exps, 0) + coeff
            if val:
                terms[exps] = val
            else:
                terms.pop(exps, None)
        return Polynomial(self.ring, terms)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        return (-self) + other

    def __mul__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Polynomial(self.ring, _product(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a natural number")
        return Polynomial(self.ring, _power(self.terms, n, (0,) * len(self.ring)))

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        # A constant equals the number it is, so it hashes as that number (the
        # zero polynomial as 0).  Other equal polynomials have equal supports,
        # and the support's tuples of ints hash without the modular inverse
        # that a Fraction's hash takes.
        if len(self.terms) < 2 and self.is_constant():
            return hash(self.constant_term())
        return hash((self.ring.names, frozenset(self.terms)))

    # -- calculus and substitution ----------------------------------------

    def partial(self, name: str) -> "Polynomial":
        """Formal partial derivative with respect to one ring variable."""
        i = self.ring.index(name)
        terms = {}
        for exps, coeff in self.terms.items():
            e = exps[i]
            if e == 0:
                continue
            key = exps[:i] + (e - 1,) + exps[i + 1 :]
            terms[key] = terms.get(key, 0) + coeff * e
        return Polynomial(self.ring, terms)

    def substitute(self, assignment: Mapping[str, "Polynomial"]) -> "Polynomial":
        """Ring-homomorphism image under variable -> polynomial.

        Every variable occurring in self must be assigned; all images must
        share one target ring.  Works on term dicts: each term's image is
        the product of the cached powers of its variables' images, all
        terms are summed into one dict, and one Polynomial is built.
        """
        target = None
        for name in sorted(assignment, key=self.ring.index):  # rejects unknown keys
            image = assignment[name]
            if target is None:
                target = image.ring
            elif image.ring != target:
                raise RingMismatchError("substitution images live over different rings")
        for name in self.variables():
            if name not in assignment:
                raise MissingAssignmentError(f"no image for variable {name!r}")
        if target is None:
            target = self.ring  # empty assignment on a constant
        one = (0,) * len(target)
        names = self.ring.names
        powers: dict = {}  # variable index -> [image^0, image^1, ...] as term dicts

        def power(i: int, e: int) -> dict:
            cache = powers.setdefault(i, [{one: 1}])
            while len(cache) <= e:
                cache.append(_product(cache[-1], assignment[names[i]].terms))
            return cache[e]

        total: dict = {}
        for exps, coeff in self.terms.items():
            term = {one: coeff}
            for i, e in enumerate(exps):
                if e:
                    term = _product(term, power(i, e))
            for m, c in term.items():
                total[m] = total.get(m, 0) + c
        return Polynomial(target, total)

    def embed(self, target: VarSet) -> "Polynomial":
        """Image in a larger (or reordered) ring, matching variables by name."""
        if target == self.ring:
            return self
        missing = [n for n in self.variables() if n not in target]
        if missing:
            raise UnknownVariableError(f"target ring lacks variables {missing}")
        lookup = {}
        for i, name in enumerate(self.ring.names):
            if name in target:
                lookup[i] = target.index(name)
        width = len(target)
        terms = {}
        for exps, coeff in self.terms.items():
            out = [0] * width
            for i, e in enumerate(exps):
                if e:
                    out[lookup[i]] = e
            terms[tuple(out)] = coeff
        return Polynomial(target, terms)

    # -- printing ----------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        names, terms = self.ring.names, self.terms
        return "".join([_term_text(names, exps, terms[exps], pos == 0)
                        for pos, exps in enumerate(sorted(terms, key=_grevlex_descending))])

    def __repr__(self) -> str:
        return f"Polynomial({str(self)!r}, ring={self.ring.names})"


# -- parsing ---------------------------------------------------------------
#
# expr     := ("-")? term (("+"|"-") term)*
# term     := factor ("*" factor)*
# factor   := base ("^" natural)?
# base     := rational | identifier | "(" expr ")"
# rational := digits ("/" nonzero-digits)?
#
# No implicit multiplication: "2s" is a syntax error, write "2*s".

# One match per token, the whitespace before it included (`\s` matches
# exactly the characters `str.isspace` accepts): "end" matches once, at
# the end of the text, and "bad" matches any other character.
_TOKEN_RE = re.compile(r"\s*(?:(?P<num>\d+)|(?P<ident>[A-Za-z][A-Za-z0-9_]*)"
                       r"|(?P<op>[-+*^()/])|(?P<end>\Z)|(?P<bad>.))", re.DOTALL)


def _tokenize(text: str):
    """Tokens (kind, value, position), the last ("end", "", len(text))."""
    tokens = []
    pos = 0
    while True:
        match = _TOKEN_RE.match(text, pos)  # every position matches
        kind = match.lastgroup
        start = match.start(kind)
        if kind == "bad":
            raise ParseError(f"unexpected character {text[start]!r}", start)
        tokens.append((kind, match[kind], start))
        if kind == "end":
            return tokens
        pos = match.end()


class _Parser:
    """Recursive descent whose rules return term dicts without zero
    coefficients; `parse` builds the one Polynomial."""

    def __init__(self, tokens, ring: VarSet):
        self.tokens = tokens[::-1]  # a stack: the next token is the last
        self.ring = ring
        self.one = (0,) * len(ring)

    def expr(self) -> dict:
        total: dict = {}
        kind, sign, _ = self.tokens[-1]
        if kind == "op" and sign == "-":
            self.tokens.pop()
        else:
            sign = "+"
        while True:
            for m, c in self.term().items():
                val = total.get(m, 0) + c if sign == "+" else total.get(m, 0) - c
                if val:
                    total[m] = val
                else:
                    del total[m]
            kind, sign, _ = self.tokens[-1]
            if kind != "op" or sign not in "+-":
                return total
            self.tokens.pop()

    def term(self) -> dict:
        result = self.factor()
        while True:
            kind, value, _ = self.tokens[-1]
            if kind == "op" and value == "*":
                self.tokens.pop()
                result = _product(result, self.factor())
            else:
                return result

    def factor(self) -> dict:
        base = self.base()
        kind, value, _ = self.tokens[-1]
        if kind != "op" or value != "^":
            return base
        self.tokens.pop()
        kind, value, pos = self.tokens.pop()
        if kind != "num":
            raise ParseError("expected natural number after '^'", pos)
        return _power(base, int(value), self.one)

    def base(self) -> dict:
        kind, value, pos = self.tokens.pop()
        if kind == "num":
            coeff = int(value)
            kind2, value2, _ = self.tokens[-1]
            if kind2 == "op" and value2 == "/":
                self.tokens.pop()
                kind3, value3, pos3 = self.tokens.pop()
                if kind3 != "num":
                    raise ParseError("expected digits after '/'", pos3)
                if int(value3) == 0:
                    raise ParseError("zero denominator", pos3)
                coeff = _exact_quotient(coeff, int(value3))
            return {self.one: coeff} if coeff else {}
        if kind == "ident":
            exps = [0] * len(self.one)
            exps[self.ring.index(value)] = 1  # UnknownVariableError for a name not in the ring
            return {tuple(exps): 1}
        if kind == "op" and value == "(":
            inner = self.expr()
            kind, value, pos = self.tokens.pop()
            if kind != "op" or value != ")":
                raise ParseError("expected ')'", pos)
            return inner
        raise ParseError(f"unexpected token {value!r}" if value else "unexpected end of input", pos)


def parse(text: str, ring: VarSet) -> Polynomial:
    """Parse polynomial text over the given ring into canonical form: the
    parser's term dict becomes the one Polynomial built.  Nesting deeper
    than the interpreter's recursion limit allows raises ParseError at
    the token reached."""
    parser = _Parser(_tokenize(text), ring)
    try:
        terms = parser.expr()
    except RecursionError:
        raise ParseError("input nested too deeply", parser.tokens[-1][2]) from None
    kind, value, pos = parser.tokens[-1]
    if kind != "end":
        raise ParseError(f"trailing input {value!r}", pos)
    return Polynomial(ring, terms)


def scan_identifiers(text: str) -> list:
    """All identifiers in the text, in order of first appearance."""
    seen = []
    for kind, value, _ in _tokenize(text):
        if kind == "ident" and value not in seen:
            seen.append(value)
    return seen


def read_spec_file(path: Union[str, Path]) -> tuple:
    """(declared names or None, lines) of an ideal or derivation file.

    '#' starts a comment; blank lines are dropped; a first line
    "vars: x y ..." declares the ring and is split off from the rest.
    A file that is not UTF-8 text raises ParseError at its first bad byte.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError("file is not UTF-8 text", exc.start) from None
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if lines and lines[0].startswith("vars:"):
        return tuple(lines[0][len("vars:"):].split()), lines[1:]
    return None, lines


def monic(p: Polynomial) -> Polynomial:
    """Rescale so the grevlex-leading coefficient is 1."""
    if p.is_zero():
        raise ZeroPolynomialError("the zero polynomial has no leading coefficient")
    lead = min(p.terms, key=_grevlex_descending)
    lc = p.terms[lead]
    return Polynomial(p.ring, {m: _exact_quotient(c, lc) for m, c in p.terms.items()})


# -- matrix of partials ------------------------------------------------------


def jacobian(polys: Sequence[Polynomial], names: Sequence[str]) -> list:
    """Matrix with entry (i, j) = partial of polys[i] by names[j]."""
    if not polys:
        return []
    ring = polys[0].ring
    for p in polys[1:]:
        if p.ring != ring:
            raise RingMismatchError("jacobian rows live over different rings")
    return [[p.partial(name) for name in names] for p in polys]
