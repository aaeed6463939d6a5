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
bare coefficient, and the zero polynomial as "0".  It writes numbers of up
to MAX_OUTPUT_DIGITS digits, but ``parse`` (like every file reader) reads
literals only up to the interpreter's int/str digit limit (4300 digits by
default): a printed polynomial parses back only while its numbers are that short.
"""

from __future__ import annotations

import re

from .core import DirPoly, _mul_terms


#: Deepest parenthesis nesting ``parse`` accepts; each level costs three
#: stack frames, so this keeps well inside Python's recursion limit.
MAX_NESTING = 100

#: Most decimal digits of an integer written as text; longer output is refused.
MAX_OUTPUT_DIGITS = 100_000
_TOO_LONG = f"an integer of more than {MAX_OUTPUT_DIGITS} digits is past the output limit"
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

    def error(self, message: str, index: int) -> ParseError:
        """A ParseError at the position of token ``index``."""
        starts = [m.start() for m in _TOKEN.finditer(self.text)] + [len(self.text)]
        return ParseError(message, starts[index])

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
            self.pos += 1
            result = _mul_terms(result, self.atom())
        return result

    def atom(self) -> dict[int, int]:
        index = self.pos
        value = self.tokens[index]
        self.pos += 1
        if value.isdigit():
            try:
                n = int(value)
            except ValueError:  # past the interpreter's int/str digit limit
                raise self.error(f"number too long ({len(value)} digits)", index) from None
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


def _decimal(n: int) -> str:
    """Decimal text of a natural number of at most MAX_OUTPUT_DIGITS digits,
    converted in 512-digit pieces past the interpreter's int-to-str limit."""
    try:
        return str(n)
    except ValueError:
        pass
    if 3 * n.bit_length() > 10 * MAX_OUTPUT_DIGITS:  # 2**10 > 10**3: too long, skip the peel
        raise ValueError(_TOO_LONG)
    pieces = []
    while n >= _PIECE:
        n, low = divmod(n, _PIECE)
        pieces.append(str(low).zfill(_PIECE_DIGITS))
    text = str(n) + "".join(reversed(pieces))
    if len(text) > MAX_OUTPUT_DIGITS:
        raise ValueError(_TOO_LONG)
    return text


def _ratio(p) -> str:
    """``str(p)`` of a Fraction, past the int-to-str limit too."""
    text = "-" * (p < 0) + _decimal(abs(p.numerator))
    return text + (f"/{_decimal(p.denominator)}" if p.denominator > 1 else "")


def format_poly(d: DirPoly) -> str:
    """Canonical text of a polynomial; inverse of ``parse`` while every number
    is within the interpreter's int/str digit limit."""
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
