"""Textual notation for Dirichlet polynomials: parser and printer.

Grammar (whitespace insignificant, no implicit multiplication):

    expr := term ('+' term)*
    term := atom ('*' atom)*
    atom := NAT | NAT '^' 'y' | '(' expr ')'

NAT is a decimal natural.  A bare natural k denotes the constant k * 1^y,
so "0" is the zero polynomial while "0^y" is not.  The exponent variable is
the literal character 'y'; anything else after '^' is rejected, as are
numeric exponents.

``format_poly`` writes the canonical form back out: bases descending, each
term as "a*n^y", dropping a coefficient of 1, printing base-1 terms as the
bare coefficient, and the zero polynomial as "0".  Parsing a printed
polynomial gives the polynomial back.
"""

from __future__ import annotations

from .core import DirPoly


#: Deepest parenthesis nesting ``parse`` accepts; each level costs three
#: stack frames, so this keeps well inside Python's recursion limit.
MAX_NESTING = 100


class ParseError(ValueError):
    """Syntax error in a polynomial expression, with its 0-based position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_TOKEN_CHARS = {"+": "PLUS", "*": "STAR", "^": "CARET", "(": "LPAREN", ")": "RPAREN"}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c.isdigit():
            start = i
            while i < len(text) and text[i].isdigit():
                i += 1
            tokens.append(("NAT", text[start:i], start))
        elif c in _TOKEN_CHARS:
            tokens.append((_TOKEN_CHARS[c], c, i))
            i += 1
        elif c == "y":
            tokens.append(("Y", c, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("END", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def take(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expr(self) -> DirPoly:
        result = self.term()
        while self.peek()[0] == "PLUS":
            self.take()
            result = result + self.term()
        return result

    def term(self) -> DirPoly:
        result = self.atom()
        while self.peek()[0] == "STAR":
            self.take()
            result = result * self.atom()
        return result

    def atom(self) -> DirPoly:
        kind, value, position = self.take()
        if kind == "NAT":
            n = int(value)
            if self.peek()[0] == "CARET":
                self.take()
                kind, _, pos = self.take()
                if kind != "Y":
                    raise ParseError("exponent must be the literal 'y'", pos)
                return DirPoly.exponential(n)
            return DirPoly.constant(n)
        if kind == "LPAREN":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", position)
            self.depth += 1
            inner = self.expr()
            self.depth -= 1
            kind, _, pos = self.take()
            if kind != "RPAREN":
                raise ParseError("expected ')'", pos)
            return inner
        if kind == "END":
            raise ParseError("unexpected end of input", position)
        raise ParseError(f"expected a number or '(', got {value!r}", position)


def parse(text: str) -> DirPoly:
    """Parse an expression to its canonical polynomial."""
    parser = _Parser(_tokenize(text))
    result = parser.expr()
    kind, value, position = parser.peek()
    if kind != "END":
        raise ParseError(f"unexpected trailing input {value!r}", position)
    return result


def format_poly(d: DirPoly) -> str:
    """Canonical text of a polynomial; inverse of ``parse``."""
    terms = d.terms
    if not terms:
        return "0"
    parts = []
    for base in sorted(terms, reverse=True):
        coeff = terms[base]
        if base == 1:
            parts.append(str(coeff))
        elif coeff == 1:
            parts.append(f"{base}^y")
        else:
            parts.append(f"{coeff}*{base}^y")
    return " + ".join(parts)
