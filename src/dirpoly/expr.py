"""Textual notation for Dirichlet polynomials: parser and printer.

Grammar (whitespace insignificant, no implicit multiplication):

    expr := term ('+' term)*
    term := atom ('*' atom)*
    atom := NAT | NAT '^' 'y' | '(' expr ')'

NAT is a run of ASCII decimal digits; any other digit character is
rejected.  A bare natural k denotes the constant k * 1^y, so "0" is the
zero polynomial while "0^y" is not.  The exponent variable is the literal
character 'y'; anything else after '^' is rejected, as are numeric
exponents.

``format_poly`` writes the canonical form back out: bases descending, each
term as "a*n^y", dropping a coefficient of 1, printing base-1 terms as the
bare coefficient, and the zero polynomial as "0".  All of dirpoly writes
naturals with ``_decimal``, up to MAX_OUTPUT_DIGITS digits, and reads them with
``_natural``, only up to the int/str digit limit (4300 digits by default): a
printed polynomial parses back only while its numbers are that short.
"""

from __future__ import annotations

import itertools
import re

from .core import DirPoly, _mul_terms


#: Deepest parenthesis nesting ``parse`` accepts; each level costs three
#: stack frames, so this keeps well inside Python's recursion limit.
MAX_NESTING = 100

#: Term pairs the products of one ``parse`` may multiply out, plus one per
#: character: a product of sums names exponentially many terms.  In a
#: product of two or more pairs each pair also costs one per full 64 bits of
#: each number it multiplies.  Canonical text (one pair per '*') always fits.
MAX_TERM_PAIRS = 2**16

#: Most decimal digits of an integer written as text; longer output is refused.
MAX_OUTPUT_DIGITS = 100_000
_TOO_LONG = f"an integer of more than {MAX_OUTPUT_DIGITS} digits is past the output limit"
_CAP_BITS = 33 * MAX_OUTPUT_DIGITS // 10  # 2**(3.3*D) < 10**D: an integer this short is within the cap
# Pieces below 10**512 convert under any int-to-str limit (the least allowed is 640).
_PIECE_DIGITS = 512
_PIECE = 10**_PIECE_DIGITS


class ParseError(ValueError):
    """Syntax error in a polynomial expression, with its 0-based position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# Tokens are ASCII naturals and single characters; whitespace separates.
# Any other character is rejected before parsing starts, so it is reported
# ahead of any syntax error.
_TOKEN = re.compile(r"[0-9]+|\S")
_BAD_CHAR = re.compile(r"[^0-9+*^()y\s]")


class _Parser:
    """Recursive descent; each rule returns a fresh canonical term dict."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _TOKEN.findall(text) + [""]  # "" ends the input
        self.pos = 0
        self.depth = 0
        self.pairs_left = MAX_TERM_PAIRS + len(text)

    def error(self, message: str, index: int) -> ParseError:
        """A ParseError at the position of token ``index``."""
        token = next(itertools.islice(_TOKEN.finditer(self.text), index, None), None)
        return ParseError(message, token.start() if token else len(self.text))

    def expr(self) -> dict[int, int]:
        result = self.term()
        while self.tokens[self.pos] == "+":
            self.pos += 1
            for base, coeff in self.term().items():
                result[base] = result.get(base, 0) + coeff
        return result

    def term(self) -> dict[int, int]:
        result = self.atom()
        while self.tokens[self.pos] == "*":
            index = self.pos
            self.pos += 1
            factor = self.atom()
            pairs = len(result) * len(factor)
            if pairs > 1:  # one pair makes one term, as long as its operands together
                pairs += len(factor) * _limbs(result) + len(result) * _limbs(factor)
            self.pairs_left -= pairs
            if self.pairs_left < 0:
                raise self.error(f"products expand past {MAX_TERM_PAIRS + len(self.text)} term pairs", index)
            result = _mul_terms(result, factor)
        return result

    def atom(self) -> dict[int, int]:
        index = self.pos
        value = self.tokens[index]
        self.pos += 1
        if value.isdigit():
            try:
                n = _natural(value)
            except ValueError as exc:
                raise self.error(str(exc), index) from None
            if self.tokens[self.pos] != "^":
                return {1: n} if n else {}
            if self.tokens[self.pos + 1] != "y":
                raise self.error("exponent must be the literal 'y'", self.pos + 1)
            self.pos += 2
            return {n: 1}
        if value == "(":
            if self.depth == MAX_NESTING:
                raise self.error(f"parentheses nested deeper than {MAX_NESTING}", index)
            self.depth += 1
            inner = self.expr()
            self.depth -= 1
            if self.tokens[self.pos] != ")":
                raise self.error("expected ')'", self.pos)
            self.pos += 1
            return inner
        if not value:
            raise self.error("unexpected end of input", index)
        raise self.error(f"expected a number or '(', got {value!r}", index)


def _limbs(terms: dict[int, int]) -> int:
    """Full 64-bit limbs of every base and coefficient of a term dict."""
    return sum([(base.bit_length() >> 6) + (coeff.bit_length() >> 6) for base, coeff in terms.items()])


def parse(text: str) -> DirPoly:
    """Parse an expression to its canonical polynomial."""
    bad = _BAD_CHAR.search(text)
    if bad:
        raise ParseError(f"unexpected character {bad.group()!r}", bad.start())
    parser = _Parser(text)
    result = parser.expr()
    value = parser.tokens[parser.pos]
    if value:
        raise parser.error(f"unexpected trailing input {value!r}", parser.pos)
    return DirPoly._wrap(result)


def _natural(text: str, where: str = "", field: str = "") -> int:
    """The natural of a checked run of ASCII digits, one part of ``field`` if given (a ``p/q``).
    Past the int/str digit limit it is the ValueError ``<where>number too long (N digits)``,
    N the length of the field's longest part, so a ``p/q`` names its longer part."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{where}number too long ({max(map(len, (field or text).split('/')))} digits)") from None


def _decimal(n: int) -> str:
    """Decimal text of a natural of at most MAX_OUTPUT_DIGITS digits, in 512-digit pieces past the int-to-str limit."""
    if n.bit_length() > _CAP_BITS and n >= 10**MAX_OUTPUT_DIGITS:
        raise ValueError(_TOO_LONG)
    try:
        return str(n)
    except ValueError:
        pieces = []
        while n >= _PIECE:
            n, low = divmod(n, _PIECE)
            pieces.append(str(low).zfill(_PIECE_DIGITS))
        return str(n) + "".join(reversed(pieces))


def _ratio(p) -> str:
    """``str(p)`` of a Fraction, past the int-to-str limit too."""
    text = "-" * (p < 0) + _decimal(abs(p.numerator))
    return text + (f"/{_decimal(p.denominator)}" if p.denominator > 1 else "")


def format_poly(d: DirPoly) -> str:
    """Canonical text of a polynomial, which ``parse`` reads back (see the module docstring)."""
    terms = d.terms
    parts = []
    for base in sorted(terms, reverse=True):
        coeff = terms[base]
        if base == 1:
            parts.append(_decimal(coeff))
        elif coeff == 1:
            parts.append(f"{_decimal(base)}^y")
        else:
            parts.append(f"{_decimal(coeff)}*{_decimal(base)}^y")
    return " + ".join(parts) or "0"
