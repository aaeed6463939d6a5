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

``parse`` reads a sum of monomials (text without parentheses whose terms are
'*'-products of NAT and NAT '^' 'y') in one pass over its terms, each literal
by one ``int()``; any other text, every invalid one included, goes to the
general one-pass token loop, so each ParseError message and position comes
from that loop alone.

``format_poly`` writes the canonical form back out: bases descending, each
term as "a*n^y", dropping a coefficient of 1, printing base-1 terms as the
bare coefficient, and the zero polynomial as "0".  All of dirpoly writes
naturals with ``_decimal``, up to MAX_OUTPUT_DIGITS digits, except that
``format_poly`` tests the size once per polynomial: while its largest base and
largest coefficient have at most _STR_BITS = 2000 bits (603 digits), it writes
every number with plain ``str()``, which no int/str digit limit Python allows
(640 digits at least) refuses, so the bound does not depend on the current
limit.  dirpoly reads naturals only up to that limit (4300 digits by default),
naming a longer one with ``_natural``: a printed polynomial parses back only
while its numbers are that short.
"""

from __future__ import annotations

import re

from .core import DirPoly, _mul_terms


#: Deepest parenthesis nesting ``parse`` accepts: a limit of the language, as
#: the parser saves one (sum, product) per open parenthesis, not a stack frame.
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
# 2**2000 < 10**603: a natural of at most this many bits has at most 603 digits, so ``str()``
# writes it under any int-to-str limit (the least allowed is 640) and within the output cap.
_STR_BITS = 2000


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


def _limbs(terms: dict[int, int]) -> int:
    """Full 64-bit limbs of every base and coefficient of a term dict."""
    return sum([(base.bit_length() >> 6) + (coeff.bit_length() >> 6) for base, coeff in terms.items()])


def parse(text: str) -> DirPoly:
    """Parse an expression to its canonical polynomial: a sum of monomials in
    one pass over its terms, anything else by ``_parse_loop``."""
    terms = _sum_of_monomials(text)
    return _parse_loop(text) if terms is None else DirPoly._wrap(terms)


def _sum_of_monomials(text: str) -> dict[int, int] | None:
    """The terms of a '+'-separated sum of '*'-separated factors, each an ASCII
    natural k or k '^' 'y', whitespace around any token: one running
    (coefficient, base) per term, added straight into the result, each
    literal read by one ``int()``.  None for any other text, such as
    parentheses, an odd token, an empty term, a non-ASCII digit or a literal
    ``int()`` refuses, which ``_parse_loop`` then reads or rejects with its
    message and position.  Such a text charges at most one term pair per
    '*', within the ``MAX_TERM_PAIRS + len(text)`` budget, so no budget is
    checked here."""
    total = {}
    try:
        for term in text.split("+"):
            coeff = base = 1
            for factor in term.split("*"):
                number, caret, power = factor.partition("^")
                number = number.strip()
                if not (number.isdigit() and number.isascii()) or caret and power.strip() != "y":
                    return None
                if caret:
                    base *= int(number)
                else:
                    coeff *= int(number)
            if coeff:
                total[base] = total.get(base, 0) + coeff
    except ValueError:
        return None
    return total


def _parse_loop(text: str) -> DirPoly:
    """Parse any expression in one pass over its tokens, without recursion:
    each operator closes the product ('*'), sum ('+') or parenthesis (')')
    before it, and ')' multiplies the inner sum into the product saved at its
    '(' as one factor.  Every ParseError comes from here."""
    bad = _BAD_CHAR.search(text)
    if bad:
        raise ParseError(f"unexpected character {bad.group()!r}", bad.start())
    matches = [*_TOKEN.finditer(text)]
    tokens = [match.group() for match in matches] + [""]  # "" ends the input
    starts = [match.start() for match in matches] + [len(text)]
    pairs_left = MAX_TERM_PAIRS + len(text)
    saved = []  # (sum, product, index of its last '*') around each open parenthesis
    total = product = None  # the sum and the product so far; None before their first term
    star = i = 0
    while True:
        token = tokens[i]
        if token == "(":
            if len(saved) == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", starts[i])
            saved.append((total, product, star))
            total = product = None
            i += 1
            continue
        if not token.isdigit():
            raise ParseError(f"expected a number or '(', got {token!r}" if token else "unexpected end of input",
                             starts[i])
        try:
            n = _natural(token)
        except ValueError as exc:
            raise ParseError(str(exc), starts[i]) from None
        if tokens[i + 1] == "^":
            if tokens[i + 2] != "y":
                raise ParseError("exponent must be the literal 'y'", starts[i + 2])
            factor = {n: 1}
            i += 4
        else:
            factor = {1: n} if n else {}
            i += 2
        op = tokens[i - 1]
        while True:  # one factor is complete and op follows it
            if product is None:
                product = factor
            else:
                pairs = len(product) * len(factor)
                if pairs > 1:  # one pair makes one term, as long as its operands together
                    pairs += len(factor) * _limbs(product) + len(product) * _limbs(factor)
                pairs_left -= pairs
                if pairs_left < 0:
                    raise ParseError(f"products expand past {MAX_TERM_PAIRS + len(text)} term pairs", starts[star])
                product = _mul_terms(product, factor)
            if op == "*":
                star = i - 1
                break
            if total is None:
                total = product
            else:
                for base, coeff in product.items():
                    total[base] = total.get(base, 0) + coeff
            product = None
            if op == "+":
                break
            if op != ")" or not saved:
                if saved:
                    raise ParseError("expected ')'", starts[i - 1])
                if op:
                    raise ParseError(f"unexpected trailing input {op!r}", starts[i - 1])
                return DirPoly._wrap(total)
            factor = total
            total, product, star = saved.pop()
            op = tokens[i]
            i += 1


def _natural(text: str, where: str = "", field: str = "") -> int:
    """The natural of a checked run of ASCII digits, one part of ``field`` if given (a ``p/q``).
    Past the int/str digit limit it is the ValueError ``<where>number too long (N digits)``,
    N the length of the field's longest part, so a ``p/q`` names its longer part."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{where}number too long ({max(map(len, (field or text).split('/')))} digits)") from None


def _past_cap(n: int) -> bool:
    """Whether a natural has more than MAX_OUTPUT_DIGITS digits; ``_decimal`` tests it inline, once per number."""
    return n.bit_length() > _CAP_BITS and n >= 10**MAX_OUTPUT_DIGITS


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
    """Canonical text of a polynomial, which ``parse`` reads back (see the module docstring).
    One size test per polynomial: while its largest base and largest coefficient have at most
    _STR_BITS bits (603 digits, under the least int/str digit limit of 640), every number is
    written by ``str()``; past that, each by ``_decimal``, which also holds the output cap."""
    terms = d._terms
    if not terms:
        return "0"
    bases = sorted(terms, reverse=True)
    text = str if bases[0].bit_length() <= _STR_BITS and max(terms.values()).bit_length() <= _STR_BITS else _decimal
    parts = []
    for base in bases:
        coeff = terms[base]
        if base == 1:
            parts.append(text(coeff))
        elif coeff == 1:
            parts.append(f"{text(base)}^y")
        else:
            parts.append(f"{text(coeff)}*{text(base)}^y")
    return " + ".join(parts)
