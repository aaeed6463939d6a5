"""Expression parsing and canonical printing."""

import json
import os
import random
import subprocess
import sys
import time
from decimal import Decimal
from functools import reduce
from operator import add, mul
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from dirpoly import DirPoly, ParseError, expr, format_poly, parse
from dirpoly.expr import MAX_NESTING, MAX_TERM_PAIRS

from helpers import polys


def test_parse_examples():
    assert parse("4^y + 4") == DirPoly({4: 1, 1: 4})
    assert parse("2^y + 1") == DirPoly({2: 1, 1: 1})
    assert parse("3*2^y + 1^y + 3*0^y") == DirPoly({2: 3, 1: 1, 0: 3})
    assert parse("15^y + 6^y + 5^y + 4^y") == DirPoly({15: 1, 6: 1, 5: 1, 4: 1})


def test_parse_constants_and_zero():
    assert parse("0") == DirPoly.zero()
    assert parse("0^y") == DirPoly({0: 1})
    assert parse("7") == DirPoly({1: 7})
    assert parse("1") == DirPoly.one()


def test_parse_products_and_parentheses():
    assert parse("(2^y + 1) * (2^y + 1)") == DirPoly({4: 1, 2: 2, 1: 1})
    assert parse("2 * 3^y") == DirPoly({3: 2})
    assert parse("2^y * 3^y") == DirPoly({6: 1})
    assert parse("(1 + 1) * (3^y + 0^y)") == DirPoly({3: 2, 0: 2})
    assert parse("(3*2^y + 5^y + 7)") == parse("3*2^y + 5^y + 7") == DirPoly({2: 3, 5: 1, 1: 7})


def test_parse_merges_repeated_bases():
    assert parse("2^y + 2^y + 2^y") == DirPoly({2: 3})
    assert parse("4 + 3") == DirPoly({1: 7})


def test_whitespace_is_insignificant():
    assert parse("4^y+4") == parse("  4^y\t+ 4 ") == parse("4 ^ y + 4")


def test_multidigit_bases():
    assert parse("12^y + 10") == DirPoly({12: 1, 1: 10})


def test_format_examples():
    assert format_poly(DirPoly({4: 1, 2: 4, 1: 1, 0: 3})) == "4^y + 4*2^y + 1 + 3*0^y"
    assert format_poly(DirPoly({8: 3, 4: 4, 2: 1, 0: 12})) == "3*8^y + 4*4^y + 2^y + 12*0^y"
    assert format_poly(DirPoly.zero()) == "0"
    assert format_poly(DirPoly({0: 1})) == "0^y"
    assert format_poly(DirPoly({1: 5})) == "5"
    assert format_poly(DirPoly({15: 1, 6: 1, 5: 1, 4: 1})) == "15^y + 6^y + 5^y + 4^y"


def test_bad_character():
    with pytest.raises(ParseError) as e:
        parse("2^y + q")
    assert e.value.position == 6
    assert "at position 6" in str(e.value)


def test_bad_exponent():
    with pytest.raises(ParseError) as e:
        parse("2^3")
    assert e.value.position == 2
    # 'y' alone is only valid directly after '^'
    with pytest.raises(ParseError):
        parse("y")
    with pytest.raises(ParseError):
        parse("2^(3)")


def test_trailing_garbage():
    with pytest.raises(ParseError) as e:
        parse("2^y 3")
    assert e.value.position == 4
    assert "trailing" in str(e.value)
    with pytest.raises(ParseError):
        parse("(2^y))")


def test_incomplete_input():
    for text in ("", "2^y +", "2 *", "(2^y", "2^"):
        with pytest.raises(ParseError):
            parse(text)


def test_no_implicit_multiplication():
    with pytest.raises(ParseError):
        parse("2(3^y)")
    with pytest.raises(ParseError):
        parse("(2)(3)")


def test_parse_error_is_a_value_error():
    assert issubclass(ParseError, ValueError)


@given(polys)
def test_round_trip(d):
    assert parse(format_poly(d)) == d


@given(polys)
def test_format_is_canonical(d):
    text = format_poly(d)
    assert format_poly(parse(text)) == text


@given(polys, polys)
def test_parse_respects_arithmetic(d, e):
    left = format_poly(d)
    right = format_poly(e)
    assert parse(f"({left}) + ({right})") == d + e
    assert parse(f"({left}) * ({right})") == d * e


def test_nesting_limit():
    deepest = "(" * MAX_NESTING + "2^y + 1" + ")" * MAX_NESTING
    assert parse(deepest) == DirPoly({2: 1, 1: 1})
    with pytest.raises(ParseError, match="nested deeper"):
        parse("(" + deepest + ")")


PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71]
# Sums over distinct primes, so that few products of their terms coincide.
sums = st.dictionaries(st.sampled_from([0, 1, *PRIMES]), st.integers(1, 3), min_size=1,
                       max_size=8).map(DirPoly)


@settings(max_examples=60, deadline=None)
@given(st.lists(sums, min_size=1, max_size=10))
@example([DirPoly({p: 1, 1: 1}) for p in PRIMES])  # 2**20 terms
@example([DirPoly({p: 1, 1: 1}) for p in PRIMES[:15]] + [DirPoly.one()] * 200)
def test_product_expansion_is_bounded_per_parse(factors):
    text = " * ".join(f"({format_poly(f)})" for f in factors)
    pairs, mul_terms = [], expr._mul_terms
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(expr, "_mul_terms", lambda a, b: pairs.append(len(a) * len(b)) or mul_terms(a, b))
        try:
            result = parse(text)
        except ParseError as e:
            assert "term pairs" in str(e) and text[e.position] == "*"
        else:
            assert result == reduce(mul, factors)
    assert sum(pairs) <= MAX_TERM_PAIRS + len(text)


def _large_binomials(k):
    rng = random.Random(k)
    return "*".join(f"({rng.randrange(10**4299, 10**4300)}^y+1)" for _ in range(k))


def test_products_of_large_numbers_are_bounded_by_their_size():
    # Each product also pays for the 64-bit limbs it multiplies: 16 factors
    # over 4300-digit bases fit the bare pair count but would take about a
    # minute and 1 GB; six still parse.
    assert len(parse(_large_binomials(6)).terms) == 64
    text, times = _large_binomials(16), []
    for _ in range(3):
        start = time.perf_counter()
        with pytest.raises(ParseError, match="term pairs") as e:
            parse(text)
        times.append(time.perf_counter() - start)
        assert text[e.value.position] == "*"
    assert min(times) < 0.25


# Naturals of up to 4298 digits, drawn from a few bytes each.
large_naturals = st.builds(lambda digits, lead: lead * 10**digits + digits,
                           st.integers(0, 4290), st.integers(1, 10**8 - 1))


@settings(max_examples=40, deadline=None)
@given(st.dictionaries(st.one_of(st.integers(0, 9), large_naturals),
                       st.one_of(st.integers(1, 9), large_naturals), max_size=30).map(DirPoly))
@example(DirPoly({10**4299 + k: 10**4299 - k for k in range(30)}))
def test_canonical_text_of_large_numbers_parses_back(d):
    assert parse(format_poly(d)) == d


@given(polys)
def test_parse_gives_a_canonical_poly(d):
    r = parse(format_poly(d))
    assert DirPoly(r.terms) == r
    assert all(c > 0 for c in r.terms.values())


def test_long_sum_matches_fold_of_add():
    bases = [(k * 37) % 503 for k in range(2000)]
    text = " + ".join(f"{k % 9 + 1}*{b}^y" for k, b in enumerate(bases))
    expected = reduce(add, (DirPoly({b: k % 9 + 1}) for k, b in enumerate(bases)))
    assert parse(text) == expected


@pytest.mark.parametrize("text, position", [
    ("\u0663^y", 0),          # ARABIC-INDIC DIGIT THREE: a decimal digit, not ASCII
    ("2^y + 1\u0663", 7),     # glued to an ASCII literal
    ("\u00b2^y", 0),          # SUPERSCRIPT TWO: isdigit() but not a decimal
    ("2^y + \uff13", 6),      # FULLWIDTH DIGIT THREE
])
def test_non_ascii_digits_are_rejected(text, position):
    with pytest.raises(ParseError, match="unexpected character") as e:
        parse(text)
    assert e.value.position == position


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="no int/str digit limit on this interpreter")
def test_literal_past_digit_limit_is_a_parse_error():
    limit = sys.get_int_max_str_digits()
    assert parse("2^y + " + "1" * limit) == DirPoly({2: 1, 1: int("1" * limit)})
    with pytest.raises(ParseError, match="digits") as e:
        parse("2^y + " + "1" * (limit + 1))
    assert e.value.position == 6


@pytest.mark.skipif(not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 4301,
                    reason="needs an int/str digit limit below 4301 digits")
def test_parser_names_the_length_and_position_of_a_long_literal():
    with pytest.raises(ParseError) as e:
        parse("2^y + " + "7" * 4301)
    assert str(e.value) == "number too long (4301 digits) (at position 6)"


_SUM_300 = "(" + "+".join(f"{b}^y" for b in range(2, 302)) + ")"  # 1,695 characters


@pytest.mark.parametrize("text, message, position", [
    pytest.param("2^y + q", "unexpected character 'q'", 6, id="bad-char"),
    pytest.param("2^x", "unexpected character 'x'", 2, id="exponent-x"),
    pytest.param("2^", "exponent must be the literal 'y'", 2, id="exponent-missing"),
    pytest.param("2^3", "exponent must be the literal 'y'", 2, id="exponent-number"),
    pytest.param("2^(3)", "exponent must be the literal 'y'", 2, id="exponent-paren"),
    pytest.param("", "unexpected end of input", 0, id="empty"),
    pytest.param("2+", "unexpected end of input", 2, id="end-after-plus"),
    pytest.param(" \t\u3000", "unexpected end of input", 3, id="only-whitespace"),
    pytest.param("+2", "expected a number or '(', got '+'", 0, id="leading-plus"),
    pytest.param("2*)", "expected a number or '(', got ')'", 2, id="star-paren"),
    pytest.param("y", "expected a number or '(', got 'y'", 0, id="y-alone"),
    pytest.param("(2", "expected ')'", 2, id="unclosed"),
    pytest.param("(2 3", "expected ')'", 3, id="unclosed-two"),
    pytest.param("2)", "unexpected trailing input ')'", 1, id="trailing-paren"),
    pytest.param("1 2", "unexpected trailing input '2'", 2, id="trailing-number"),
    pytest.param("(" * (MAX_NESTING + 1) + "1" + ")" * (MAX_NESTING + 1),
                 "parentheses nested deeper than 100", 100, id="nesting"),
    pytest.param(_SUM_300 + "*" + _SUM_300, "products expand past 68927 term pairs", 1695, id="budget"),
    pytest.param(_SUM_300 + "*" + _SUM_300 + ")", "products expand past 68928 term pairs", 1695,
                 id="budget-before-trailing"),
    pytest.param("((" + _SUM_300 + "*" + _SUM_300 + " q", "unexpected character 'q'", 3394,
                 id="bad-char-before-budget"),
    pytest.param("2^y\x1c+\x1c)", "expected a number or '(', got ')'", 6, id="sep-x1c"),
    pytest.param("\xa02\xa0^\xa0y\xa0)", "unexpected trailing input ')'", 7, id="sep-nbsp"),
    pytest.param("\u3000(2\u3000+\u30003\u3000", "expected ')'", 8, id="sep-ideographic"),
])
def test_parse_error_messages_and_positions(text, message, position):
    with pytest.raises(ParseError) as e:
        parse(text)
    assert (str(e.value), e.value.position) == (f"{message} (at position {position})", position)


@pytest.mark.skipif(not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 4301,
                    reason="needs an int/str digit limit below 4301 digits")
def test_long_literal_error_comes_before_later_syntax_errors():
    with pytest.raises(ParseError) as e:
        parse("3*(" + "9" * 4301 + "^y))")
    assert (str(e.value), e.value.position) == ("number too long (4301 digits) (at position 3)", 3)


def test_unicode_whitespace_separates_tokens():
    assert parse("2^y\x1c+\xa01\u3000* (3^y\x1f+\x85 0^y)") == parse("2^y + 1 * (3^y + 0^y)")


# Text over the parser's alphabet and its edges: ASCII and Unicode
# whitespace, non-ASCII digits, leading zeros, zero bases and coefficients,
# and literals on either side of the 4300-digit int/str limit.
_spaces = st.sampled_from(["", " ", "  ", "\t", "\n", "\xa0", "\x1c", "\u3000"])
_literals = st.one_of(
    st.sampled_from(["0", "1", "2", "00", "007", "10", "\u0663", "\uff13", "\u00b2", "9" * 4300, "9" * 4301]),
    st.integers(0, 10**40).map(str),
)
_factors = st.builds(lambda a, n, b, power, c: a + n + b + ("^" + c + "y" + c if power else ""),
                     _spaces, _literals, _spaces, st.booleans(), _spaces)
_monomial_sums = st.lists(st.lists(_factors, min_size=1, max_size=3).map("*".join),
                          min_size=1, max_size=6).map("+".join)
_grouped = st.lists(st.one_of(_monomial_sums.map("({})".format), _factors), min_size=1, max_size=3).map("*".join)
_scraps = st.lists(st.one_of(_spaces, _literals, st.sampled_from(list("+*^()y") + ["0^y", "0*5^y", "3*0^y"])),
                   max_size=12).map("".join)


def _outcome(parser, text):
    """The terms in insertion order, or the ParseError's message and position."""
    try:
        return list(parser(text)._terms.items())
    except ParseError as e:
        return str(e), e.position


@settings(max_examples=400, deadline=None)
@given(st.one_of(_monomial_sums, st.lists(_grouped, min_size=1, max_size=3).map("+".join), _scraps,
                 st.tuples(_monomial_sums, _scraps, _monomial_sums).map("".join)))
@example("3*2^y + 5^y + 7")
@example("0*5^y + 0^y*3 + 007 + 2 ^ y*2^y")
@example("(3*2^y + 5^y + 7)")
@example("3*2^y + 5^y +")
@example("2^y + " + "9" * 4301)
def test_parse_matches_the_general_loop(text):
    assert _outcome(parse, text) == _outcome(expr._parse_loop, text)


def test_sum_of_monomials_skips_the_general_loop(monkeypatch):
    def not_called(text):
        raise AssertionError("the general loop ran")

    monkeypatch.setattr(expr, "_parse_loop", not_called)
    assert parse("3*2^y + 5^y*1 + 7\t+\xa00^y * 2") == DirPoly({2: 3, 5: 1, 1: 7, 0: 2})
    assert parse("3*2^y\u3000+\u30005^y*1\u3000+\u30007") == DirPoly({2: 3, 5: 1, 1: 7})


def test_the_sum_of_monomials_pass_reads_each_literal_with_int(monkeypatch):
    def not_called(*args):
        raise AssertionError("_natural ran")

    monkeypatch.setattr(expr, "_natural", not_called)
    assert parse("3*2^y + 5^y*1 + 007\t+\xa00^y * 2") == DirPoly({2: 3, 5: 1, 1: 7, 0: 2})
    assert parse("9" * 600 + "^y") == DirPoly({10**600 - 1: 1})


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int/str digit limit to lower")
def test_format_poly_under_the_least_str_limit():
    # 640 digits is the least int/str digit limit Python accepts.  format_poly writes with plain
    # str() only below its fixed size bound, so under that limit every text must still match
    # str(Decimal(n)), which converts without the limit.  The numbers go to the subprocess in hex,
    # which the limit does not apply to.
    rng = random.Random(640)
    numbers = [2**bits - 1 for bits in (expr._STR_BITS - 1, expr._STR_BITS, expr._STR_BITS + 1)]
    for k in (639, 640, 641, 4300, 4301):
        numbers += [10 ** (k - 1), rng.randrange(10 ** (k - 1), 10**k), 10**k - 1]
    # 5,000 digits whose second 512-digit piece from the low end is all zeros
    numbers.append(rng.randrange(10**3975, 10**3976) * 10**1024 + rng.randrange(10**511, 10**512))
    cases = []
    for n in numbers:
        text = str(Decimal(n))
        cases.append(({n: 3, 5: 7, 1: 2}, f"3*{text}^y + 7*5^y + 2"))  # the largest base
        cases.append(({7: n, 2: 1, 1: 5}, f"{text}*7^y + 2^y + 5"))  # the largest coefficient
        cases.append(({n: n}, f"{text}*{text}^y"))
    cases.append(({2: 10**100000, 1: 1}, f"error: {expr._TOO_LONG}"))
    script = ("import json, sys\n"
              "from dirpoly import DirPoly, format_poly\n"
              "texts = [sys.get_int_max_str_digits()]\n"
              "for terms in json.load(sys.stdin):\n"
              "    try:\n"
              "        texts.append(format_poly(DirPoly({int(b, 16): int(c, 16) for b, c in terms})))\n"
              "    except ValueError as exc:\n"
              "        texts.append(f'error: {exc}')\n"
              "print(json.dumps(texts))\n")
    src = str(Path(expr.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    terms = json.dumps([[[hex(b), hex(c)] for b, c in poly.items()] for poly, _ in cases])
    proc = subprocess.run([sys.executable, "-X", "int_max_str_digits=640", "-c", script], input=terms,
                          env=env, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    limit, *texts = json.loads(proc.stdout)
    assert limit == 640
    for (poly, expected), text in zip(cases, texts, strict=True):
        assert text == expected, max(poly).bit_length()
