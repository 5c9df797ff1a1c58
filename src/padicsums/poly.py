"""Sparse integer polynomials: parser, renderer, gradients and face restrictions.

A polynomial is a finite map from exponent vectors to nonzero arbitrary-precision
integer coefficients in a fixed ambient dimension ``n``.  Instances are immutable
after construction and safe to share read-only across worker processes.  The
f(0) = 0 convention is enforced by the parser and by the polyhedral entry points,
not by the type itself: gradients legitimately produce constant terms.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import ConstantTermNonzero, PolyParseError, ZeroPolynomial

ExponentVector = Tuple[int, ...]

#: Single-letter variable names, aliases for x1..x6 in this order.
NAMED_VARS = "xyzuvw"

#: One token of polynomial text with the whitespace removed: an indexed
#: variable, an integer, a named variable, an operator or, last, any other
#: character.  ``\d`` is a Unicode decimal digit, the kind ``int`` reads.
_TOKEN = re.compile(rf"x(\d+)|(\d+)|([{NAMED_VARS}])|([-+*^])|(.)")

#: Largest variable index the parser reads: every exponent vector is built at
#: the largest index in the text, so a larger one is refused before any is.
#: It is far above newton.DIMENSION_CAP = 8 and the n <= 27 of a complete sum
#: at p = 2 within the default work budget.
_INDEX_CAP = 1024


@dataclass(frozen=True)
class Polynomial:
    """Sparse polynomial over Z in ``n`` variables.

    ``terms`` maps exponent vectors (length ``n``, entries >= 0) to nonzero
    coefficients.  The empty polynomial is never represented: operations that
    can produce zero (gradients, face restrictions) signal it with ``None``.
    """

    n: int
    terms: Dict[ExponentVector, int]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("ambient dimension must be >= 1")
        clean: Dict[ExponentVector, int] = {}
        for exp, coef in self.terms.items():
            exp = tuple(int(e) for e in exp)
            if len(exp) != self.n:
                raise ValueError(f"exponent vector {exp} has length != {self.n}")
            if any(e < 0 for e in exp):
                raise ValueError(f"negative exponent in {exp}")
            coef = int(coef)
            if coef == 0:
                raise ValueError("zero coefficient stored in terms")
            clean[exp] = coef
        if not clean:
            raise ValueError("empty term map; zero polynomials are signalled with None")
        object.__setattr__(self, "terms", clean)

    def __hash__(self) -> int:
        # consistent with ==, which compares the term maps regardless of order;
        # computed on first use and kept, since the polynomial never changes
        h = self.__dict__.get("_hash")
        if h is None:
            h = self.__dict__["_hash"] = hash((self.n, frozenset(self.terms.items())))
        return h

    @property
    def support(self) -> Tuple[ExponentVector, ...]:
        """Exponent vectors with nonzero coefficient, in sorted order."""
        return tuple(sorted(self.terms))

    @property
    def has_constant_term(self) -> bool:
        return (0,) * self.n in self.terms

    def __str__(self) -> str:
        return render(self)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def _lex(text: str) -> List[Tuple[str, object, int]]:
    """Tokenize with all whitespace removed; positions index the original text."""
    at = [i for i, c in enumerate(text) if not c.isspace()]
    tokens: List[Tuple[str, object, int]] = []
    for m in _TOKEN.finditer("".join(text[i] for i in at)):
        index, digits, name, op, other = m.groups()
        pos = at[m.start()]
        if other is not None:
            raise PolyParseError(f"unexpected character {other!r}", pos)
        if index is not None:
            # digits counted before int(), which is slow on, or refuses, thousands of them
            index = index.lstrip("0") or "0"
            if len(index) > len(str(_INDEX_CAP)) or int(index) > _INDEX_CAP:
                raise PolyParseError(f"variable index must be at most {_INDEX_CAP}", pos)
            if int(index) < 1:
                raise PolyParseError("variable index must be >= 1", pos)
            tokens.append(("var", int(index), pos))
        elif digits is not None:
            tokens.append(("int", int(digits), pos))
        elif name is not None:
            tokens.append(("var", NAMED_VARS.index(name) + 1, pos))
        else:
            tokens.append(("op", op, pos))
    return tokens


def parse_polynomial(text: str, dimension_hint: Optional[int] = None) -> Polynomial:
    """Parse sparse integer polynomial text into canonical form.

    Grammar (whitespace ignored everywhere, so ``x 2`` means ``x2``)::

        poly   := term (('+'|'-') term)*
        term   := [sign] [integer] ('*'? factor)*
        factor := var ('^' natural)?
        var    := 'x' natural | 'x'|'y'|'z'|'u'|'v'|'w'

    ``integer`` and ``natural`` are runs of decimal digits; a superscript
    digit (``x²``) is rejected as an unexpected character at its position.
    Named variables alias x1..x6; variables beyond the sixth must use the
    indexed form, whose index is at most _INDEX_CAP (1024; a larger one is a
    PolyParseError at its variable).  Like terms are combined and zero
    coefficients dropped.
    The dimension is ``dimension_hint`` when given, else the highest variable
    index appearing anywhere in the text (including cancelled terms).

    Raises PolyParseError (with position) on bad syntax, ConstantTermNonzero
    when f(0) != 0 survives cancellation, and ZeroPolynomial when nothing does.
    """
    tokens = _lex(text)
    if not tokens:
        raise PolyParseError("empty polynomial text", 0)
    max_var = max((value for kind, value, _ in tokens if kind == "var"), default=0)
    tokens.append(("end", None, len(text)))  # carries the position of a truncated text

    raw_terms: List[Tuple[int, Dict[int, int]]] = []
    sign = 1
    i = 0
    while True:
        if tokens[i][1] in ("+", "-"):
            sign *= -1 if tokens[i][1] == "-" else 1
            i += 1
        coeff = None
        if tokens[i][0] == "int":
            coeff = tokens[i][1]
            i += 1
        factors: Dict[int, int] = {}
        while True:
            if tokens[i][1] == "*":
                i += 1
                if tokens[i][0] != "var":
                    raise PolyParseError("expected a variable after '*'", tokens[i][2])
            if tokens[i][0] != "var":
                break
            var_idx = tokens[i][1]
            i += 1
            exp = 1
            if tokens[i][1] == "^":
                i += 1
                if tokens[i][0] != "int":
                    raise PolyParseError("expected an exponent after '^'", tokens[i][2])
                exp = tokens[i][1]
                i += 1
            factors[var_idx] = factors.get(var_idx, 0) + exp
        if coeff is None and not factors:
            raise PolyParseError("expected a coefficient or variable", tokens[i][2])
        raw_terms.append((sign * (1 if coeff is None else coeff), factors))
        kind, value, pos = tokens[i]
        if kind == "end":
            break
        if value not in ("+", "-"):
            raise PolyParseError(f"expected '+' or '-', found {value!r}", pos)
        sign = -1 if value == "-" else 1
        i += 1

    if dimension_hint is not None:
        if dimension_hint < 1:
            raise ValueError("dimension_hint must be >= 1")
        if max_var > dimension_hint:
            raise PolyParseError(
                f"variable x{max_var} exceeds dimension hint {dimension_hint}", 0
            )
        n = dimension_hint
    else:
        n = max(max_var, 1)

    combined: Dict[ExponentVector, int] = {}
    for coef, factors in raw_terms:
        key = tuple(factors.get(v, 0) for v in range(1, n + 1))
        combined[key] = combined.get(key, 0) + coef
    combined = {e: c for e, c in combined.items() if c != 0}

    zero_key = (0,) * n
    if zero_key in combined:
        raise ConstantTermNonzero(
            f"constant term {combined[zero_key]} violates f(0) = 0; subtract it explicitly"
        )
    if not combined:
        raise ZeroPolynomial("all terms cancelled")
    return Polynomial(n, combined)


def render(f: Polynomial) -> str:
    """Text form re-parsable by parse_polynomial (given f.n as dimension hint)."""
    if f.n <= len(NAMED_VARS):
        names = [NAMED_VARS[j] for j in range(f.n)]
    else:
        names = [f"x{j + 1}" for j in range(f.n)]
    parts: List[str] = []
    for exp in sorted(f.terms):
        coef = f.terms[exp]
        factors = [
            names[j] + (f"^{e}" if e >= 2 else "") for j, e in enumerate(exp) if e
        ]
        mag = abs(coef)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        if not parts:
            parts.append(body if coef > 0 else "-" + body)
        else:
            parts.append((" + " if coef > 0 else " - ") + body)
    return "".join(parts)


# ---------------------------------------------------------------------------
# algebraic operations
# ---------------------------------------------------------------------------

def face_restriction(
    f: Polynomial, exponents: Iterable[Sequence[int]]
) -> Optional[Polynomial]:
    """Subpolynomial with support Supp(f) intersected with the given set.

    Returns None for an empty intersection: the zero polynomial is signalled
    distinctly and must never be fed to analysis entry points.
    """
    wanted = {tuple(int(x) for x in e) for e in exponents}
    keep = {e: c for e, c in f.terms.items() if e in wanted}
    return Polynomial(f.n, keep) if keep else None


def gradient(f: Polynomial) -> List[Optional[Polynomial]]:
    """Partial derivatives (df/dx_1, ..., df/dx_n); None marks a zero component.

    Constant terms are permitted here (d(x)/dx = 1).
    """
    comps: List[Optional[Polynomial]] = []
    for j in range(f.n):
        acc: Dict[ExponentVector, int] = {}
        for exp, coef in f.terms.items():
            if exp[j]:
                shifted = exp[:j] + (exp[j] - 1,) + exp[j + 1 :]
                acc[shifted] = acc.get(shifted, 0) + coef * exp[j]
        acc = {e: c for e, c in acc.items() if c}
        comps.append(Polynomial(f.n, acc) if acc else None)
    return comps


def homogeneity(f: Polynomial) -> Optional[int]:
    """The common total degree of all terms, or None if f is not homogeneous."""
    degrees = {sum(exp) for exp in f.terms}
    return degrees.pop() if len(degrees) == 1 else None
