"""Rectangle values: exact arithmetic, widths, and the polynomial map."""

import functools
import math
import operator

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from dirpoly import ONE, ZERO, DirPoly, RectValue, rect_of
from dirpoly import rect
from dirpoly.rect import CHAIN_MIN_BITS, WIDTH_REL_ERROR

from helpers import polys

# 2 * 2**(1/7), frozen from a 40-digit computation of (7, 256).width().
WIDTH_4Y3 = 2.2081790273476245

rects = st.builds(
    RectValue,
    st.integers(min_value=0, max_value=30),
    st.integers(min_value=0, max_value=10_000),
)


def test_add_examples():
    assert RectValue(4, 256) + RectValue(4, 1) == RectValue(8, 256)
    assert RectValue(3, 1) + RectValue(4, 256) == RectValue(7, 256)


def test_add_matches_weighted_geometric_mean_of_widths():
    r = RectValue(4, 256) + RectValue(4, 1)
    # widths 4 and 1 with equal areas combine to width 2.
    assert r.width().value == pytest.approx(2.0, abs=1e-15)


def test_mul_examples():
    assert RectValue(2, 4) * RectValue(3, 27) == RectValue(6, 4**3 * 27**2)
    assert RectValue(1, 5) * RectValue(1, 7) == RectValue(1, 35)


def test_mul_on_single_term_images():
    for m in range(9):
        for n in range(9):
            d = DirPoly.exponential(m)
            e = DirPoly.exponential(n)
            assert rect_of(d) * rect_of(e) == rect_of(d * e)


def test_units():
    r = RectValue(5, 125)
    assert r + ZERO == r
    assert r * ONE == r
    assert ZERO == RectValue(0, 1)
    assert ONE == RectValue(1, 1)


def test_zero_area_collapses_power():
    # the quotient identifies every zero-area value.
    assert RectValue(0, 99) == RectValue(0, 1)
    assert RectValue(0, 99).power_product == 1


def test_rejects_negatives():
    with pytest.raises(ValueError):
        RectValue(-1, 1)
    with pytest.raises(ValueError):
        RectValue(1, -1)


def test_width_examples():
    assert RectValue(8, 256).width().value == 2.0
    assert RectValue(5, 1).width().value == 1.0
    assert float(RectValue(7, 256).width()) == pytest.approx(WIDTH_4Y3, rel=1e-12)
    assert RectValue(3, 0).width().value == 0.0


def test_width_error_bound_is_advertised():
    w = RectValue(7, 256).width()
    assert w.relative_error_bound == 1e-12
    assert abs(w.value - WIDTH_4Y3) <= w.relative_error_bound * WIDTH_4Y3


def test_width_rejects_zero_area():
    with pytest.raises(ValueError):
        RectValue(0, 1).width()


def test_width_handles_huge_power_products():
    # an integer power product far beyond float range still yields a width.
    r = RectValue(1000, 8**8000)
    assert r.width().value == pytest.approx(8.0**8, rel=1e-12)


def test_width_is_exact_for_power_products_up_to_1_at_any_area():
    assert RectValue(10**400, 1).width().value == 1.0
    assert RectValue(10**400, 0).width().value == 0.0
    assert RectValue(3, 1).width().value == 1.0


def test_width_past_the_float_range_of_the_area():
    # W = 4**(1/10**400) and (10**1000)**(1/10**400) are 1.0 to double precision.
    assert RectValue(10**400, 4).width().value == 1.0
    assert RectValue(10**400, 10**1000).width().value == 1.0


@given(st.integers(10**300, 10**400), st.integers(2, 10**1000))
@example(10**300, 10**1000)
@example(10**400, 2)
@example(2**1024 - 1, 3)  # just past the largest float: float() of it overflows
def test_width_of_areas_from_1e300_to_1e400_against_mpmath(area, power):
    with mpmath.workdps(60):
        expected = mpmath.power(power, mpmath.mpf(1) / area)
    assert RectValue(area, power).width().value == pytest.approx(
        float(expected), rel=WIDTH_REL_ERROR, abs=0)


@given(st.integers(2**1000, int(2.0**1023 * (2 - 2.0**-52))), st.integers(2, 10**1000))
@example(int(2.0**1023 * (2 - 2.0**-52)), 10**1000)  # the largest float
def test_width_is_unchanged_for_areas_in_the_float_range(area, power):
    assert RectValue(area, power).width().value == 2.0 ** (math.log2(power) / area)


def test_rect_of_examples():
    assert rect_of(DirPoly({4: 1, 1: 4})) == RectValue(8, 256)
    assert rect_of(DirPoly({4: 1, 1: 3})) == RectValue(7, 256)
    assert rect_of(DirPoly({1: 6})) == RectValue(6, 1)
    assert rect_of(DirPoly({0: 5})) == RectValue(0, 1)
    assert rect_of(DirPoly.zero()) == RectValue(0, 1)
    assert rect_of(DirPoly.exponential(3)) == RectValue(3, 27)


@given(rects, rects)
def test_rect_add_commutes(r, s):
    assert r + s == s + r


@given(rects, rects, rects)
def test_rect_add_associates(r, s, t):
    assert (r + s) + t == r + (s + t)


@given(rects, rects)
def test_rect_mul_commutes(r, s):
    assert r * s == s * r


@given(rects, rects, rects)
def test_rect_mul_associates(r, s, t):
    assert (r * s) * t == r * (s * t)


@given(rects, rects, rects)
def test_rect_mul_distributes(r, s, t):
    assert r * (s + t) == r * s + r * t


@given(rects)
def test_rect_units(r):
    assert r + ZERO == r
    assert r * ONE == r
    assert r * ZERO == ZERO


@given(polys, polys)
def test_rect_of_is_a_rig_map(d, e):
    assert rect_of(d + e) == rect_of(d) + rect_of(e)
    assert rect_of(d * e) == rect_of(d) * rect_of(e)


@given(polys, st.integers(min_value=0, max_value=6))
def test_rect_of_scalar_laws(d, a):
    scaled = rect_of(a * d)
    assert scaled.area == a * rect_of(d).area
    if scaled.area > 0:
        assert scaled.power_product == rect_of(d).power_product ** a


@given(polys)
def test_area_is_draw_count(d):
    assert rect_of(d).area == d(1)


@given(polys, polys)
# W^A past the float range (about 1.8e308): the oracle must not overflow.
@example(DirPoly({0: 1, 1: 1, 6: 8, 7: 8, 8: 8}), DirPoly({0: 1, 5: 7, 6: 8, 7: 8, 8: 8}))
def test_add_width_is_weighted_geometric_mean(d, e):
    # the float (A, W) model of addition must agree with the exact route.
    r, s = rect_of(d), rect_of(e)
    if r.area == 0 or s.area == 0:
        return
    combined = (r + s).width().value
    wr, ws = r.width().value, s.width().value
    a, b = r.area, s.area
    direct = 2 ** ((a * math.log2(wr) + b * math.log2(ws)) / (a + b))
    assert combined == pytest.approx(direct, rel=1e-9)


def test_power_product_is_the_left_fold():
    # 38 factors base**(coeff*base), some of thousands of bits.
    d = DirPoly({base: base % 5 + 1 for base in range(0, 40)})
    power = 1
    for base, coeff in d.terms.items():
        power *= base ** (coeff * base) if base >= 2 else 1
    assert rect_of(d).power_product == power


def fold_power_product(terms):
    return functools.reduce(operator.mul, (n ** (a * n) for n, a in terms.items()), 1)


def _all_ones(pairs):
    # base 2**m - 1 divides 2**(m*j) - 1: an exponent a*n with every bit set.
    return {2**m - 1: (2 ** (m * j) - 1) // (2**m - 1) for m, j in pairs}


power_terms = st.one_of(
    st.dictionaries(st.integers(0, 24), st.integers(1, 24), max_size=8),
    st.dictionaries(st.integers(0, 63), st.integers(1, 63), min_size=34, max_size=40),
    st.dictionaries(st.integers(0, 3000), st.integers(1, 3), max_size=4),
    st.lists(st.tuples(st.integers(2, 7), st.integers(1, 2)), max_size=6).map(_all_ones),
)


@settings(deadline=None)
@given(power_terms)
@example({})
@example({0: 3, 1: 5})
@example({5000: 2})  # a single term past the cutoff is one power
@example({3: 1365, 5: 819, 7: 585, 9: 455, 13: 315, 15: 273, 21: 195, 35: 117, 39: 105,
          45: 91, 63: 65})  # every exponent is 4095, twelve bits set
def test_power_product_is_the_fold_on_both_sides_of_the_cutoff(terms):
    assert rect_of(DirPoly(terms)).power_product == fold_power_product(terms)


@pytest.mark.parametrize("terms, chained", [
    ({2: 11, 5: 397}, False),  # estimate 2*11*2 + 5*397*3 = 5999 bits
    ({2: 15, 5: 396}, True),  # 2*15*2 + 5*396*3 = 6000 bits
])
def test_power_product_at_the_cutoff(monkeypatch, terms, chained):
    assert sum(a * n * n.bit_length() for n, a in terms.items()) == CHAIN_MIN_BITS - 1 + chained
    calls = []
    chain = rect._power_chain
    monkeypatch.setattr(rect, "_power_chain", lambda pairs: calls.append(pairs) or chain(pairs))
    assert rect_of(DirPoly(terms)).power_product == fold_power_product(terms)
    assert len(calls) == chained
