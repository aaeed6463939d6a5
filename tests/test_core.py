"""Polynomial arithmetic, evaluation, and the bundle round trip."""

import functools
import operator

import pytest
from hypothesis import example, given, settings, strategies as st

from dirpoly import DirPoly, LabelledBundle, check_rectangle_area, format_poly, hom_count, measures, rect_of
from dirpoly.core import _power_product, _product

from helpers import nonempty_polys, polys


def test_add_merges_coefficients_per_base():
    d = DirPoly({2: 3, 1: 1})
    e = DirPoly({4: 1, 2: 1, 0: 3})
    assert d + e == DirPoly({4: 1, 2: 4, 1: 1, 0: 3})


def test_add_unit():
    d = DirPoly({5: 2, 0: 1})
    assert d + DirPoly.zero() == d
    assert DirPoly.zero() + d == d


def test_add_same_base():
    two = DirPoly.exponential(2)
    assert two + two == DirPoly({2: 2})


def test_mul_distributes_and_multiplies_bases():
    d = DirPoly({2: 3, 1: 1})
    e = DirPoly({4: 1, 2: 1, 0: 3})
    assert d * e == DirPoly({8: 3, 4: 4, 2: 1, 0: 12})


def test_mul_square():
    f = DirPoly({2: 1, 1: 1})
    assert f * f == DirPoly({4: 1, 2: 2, 1: 1})


def test_mul_unit():
    d = DirPoly({7: 2, 3: 1, 0: 4})
    assert d * DirPoly.one() == d


def test_eval_small_points():
    d = DirPoly({4: 1, 1: 4})
    assert d(0) == 5
    assert d(1) == 8
    assert d(2) == 20


def test_eval_zero_base_convention():
    # 0**0 == 1, so 0^y contributes only at the point 0.
    d = DirPoly({0: 2})
    assert d(0) == 2
    assert d(1) == 0
    assert d(7) == 0


def test_eval_rejects_negative_point():
    with pytest.raises(ValueError):
        DirPoly({2: 1})(-1)


def test_cardinalities():
    assert DirPoly({4: 1, 1: 4}).cardinalities() == (5, 8)
    assert DirPoly.zero().cardinalities() == (0, 0)
    assert DirPoly({15: 1, 6: 1, 5: 1, 4: 1}).cardinalities() == (4, 30)


def test_int_embedding():
    d = DirPoly({4: 1})
    assert d + 4 == DirPoly({4: 1, 1: 4})
    assert 3 * d == DirPoly({4: 3})
    assert d + 0 == d
    assert d * 1 == d
    assert DirPoly.constant(2) == 2


def test_canonical_form():
    assert DirPoly({2: 0, 3: 1}) == DirPoly({3: 1})
    assert DirPoly({0: 1}) != DirPoly.zero()
    assert not DirPoly.zero()
    assert DirPoly({0: 1})


def test_rejects_negatives():
    with pytest.raises(ValueError):
        DirPoly({-1: 2})
    with pytest.raises(ValueError):
        DirPoly({2: -1})


def test_hashable():
    assert hash(DirPoly({2: 1, 0: 3})) == hash(DirPoly({0: 3, 2: 1}))
    assert len({DirPoly({2: 1}), DirPoly({2: 1}), DirPoly({3: 1})}) == 2


def test_equality_with_a_negative_int_is_false():
    d = DirPoly({2: 1})
    assert not d == -1
    assert d != -1
    assert -1 not in [d]
    assert not DirPoly.zero() == -1


def test_a_constant_hashes_as_the_int_it_equals():
    for d, n in ((DirPoly({1: 3}), 3), (DirPoly.zero(), 0), (DirPoly({1: 10**40}), 10**40)):
        assert d == n and hash(d) == hash(n)
    assert len({DirPoly({1: 3}), 3}) == 1
    assert {DirPoly.zero(): "zero"}[0] == "zero"
    assert DirPoly({1: 3, 2: 1}) != 3 and DirPoly({0: 3}) != 3


def test_bad_operands_raise_type_errors():
    with pytest.raises(TypeError, match="bases and coefficients must be int"):
        DirPoly({2: 1.0})
    with pytest.raises(TypeError, match="bases and coefficients must be int"):
        DirPoly({"2": 1})
    with pytest.raises(ValueError, match="cannot embed a negative integer"):
        DirPoly({2: 1}) + (-1)
    with pytest.raises(ValueError, match="cannot embed a negative integer"):
        -1 * DirPoly({2: 1})
    for op in (operator.add, operator.mul):
        for other in ("2", 2.0, None):
            with pytest.raises(TypeError):
                op(DirPoly({2: 1}), other)
            with pytest.raises(TypeError):
                op(other, DirPoly({2: 1}))


def test_to_bundle_default_labels_descend_by_base():
    b = DirPoly({4: 1, 1: 4}).to_bundle()
    assert b.fibres == (("x1", 4), ("x2", 1), ("x3", 1), ("x4", 1), ("x5", 1))
    assert b.num_draws == 8
    assert b.num_outcomes == 5


def test_to_bundle_edge_cases():
    assert DirPoly({1: 1}).to_bundle().sizes == (1,)
    assert DirPoly({0: 3}).to_bundle().sizes == (0, 0, 0)


def test_to_bundle_custom_labels():
    b = DirPoly({2: 1, 1: 1}).to_bundle(["heads", "tails"])
    assert b.fibres == (("heads", 2), ("tails", 1))
    with pytest.raises(ValueError):
        DirPoly({2: 1, 1: 1}).to_bundle(["only-one"])


def test_from_bundle():
    assert LabelledBundle.from_sizes([4, 1, 1, 1, 1]).to_poly() == DirPoly({4: 1, 1: 4})
    assert LabelledBundle.from_sizes([2, 2, 2]).to_poly() == DirPoly({2: 3})
    assert LabelledBundle.from_sizes([0, 5]).to_poly() == DirPoly({5: 1, 0: 1})


def test_bundle_validation():
    with pytest.raises(ValueError):
        LabelledBundle((("a", 1), ("a", 2)))
    with pytest.raises(ValueError):
        LabelledBundle((("a", -1),))


@given(polys)
def test_bundle_round_trip(d):
    assert d.to_bundle().to_poly() == d


@given(polys, polys)
def test_add_commutes(d, e):
    assert d + e == e + d


@given(polys, polys, polys)
def test_add_associates(d, e, f):
    assert (d + e) + f == d + (e + f)


@given(polys, polys)
def test_mul_commutes(d, e):
    assert d * e == e * d


@given(polys, polys, polys)
def test_mul_associates(d, e, f):
    assert (d * e) * f == d * (e * f)


@given(polys, polys, polys)
def test_mul_distributes_over_add(d, e, f):
    assert d * (e + f) == d * e + d * f


@given(polys)
def test_units(d):
    assert d + DirPoly.zero() == d
    assert d * DirPoly.one() == d


@given(polys)
def test_mul_by_zero_exponential(d):
    # d * 0^y collapses to |d(0)| copies of 0^y.
    assert d * DirPoly({0: 1}) == DirPoly({0: d.num_outcomes})


@given(polys, polys)
def test_eval_is_a_rig_map_per_argument(d, e):
    for n in range(4):
        assert (d + e)(n) == d(n) + e(n)
        assert (d * e)(n) == d(n) * e(n)


@given(polys)
def test_cardinalities_match_eval(d):
    assert d.num_outcomes == d(0)
    assert d.num_draws == d(1)


def _is_canonical(d):
    terms = d.terms
    return DirPoly(terms) == d and all(
        type(b) is int and b >= 0 and type(c) is int and c > 0 for b, c in terms.items()
    )


@given(polys, polys)
def test_sum_and_product_are_canonical(d, e):
    for r in (d + e, d * e, d + 3, 0 * d):
        assert _is_canonical(r)


factors = st.one_of(st.integers(0, 3), st.integers(0, 2**70), st.integers(10**1000, 10**1001))


@given(st.lists(factors, max_size=40))
@example([])
@example([0] + [10**1000 + k for k in range(39)])
@example([1] * 17 + [10**1001 + 7] * 23)
def test_product_is_the_left_fold(fs):
    assert _product(fs) == functools.reduce(operator.mul, fs, 1)


# Bases 2**s * m with mixed 2-adic valuations: pure powers of two (m = 1),
# small and large odd parts, and the bases 0 and 1.
two_adic_bases = st.one_of(
    st.sampled_from([0, 1]),
    st.builds(lambda s, m: m << s, st.integers(0, 12), st.sampled_from([1, 1, 3, 5, 15, 2**61 - 1])),
)


@settings(deadline=None)
@given(st.lists(st.tuples(st.one_of(st.integers(0, 3), st.integers(0, 4000)), two_adic_bases), max_size=6))
@example([])
@example([(1, 2), (1999, 4)])  # 5999 bits: below the cutoff, CHAIN_MIN_BITS
@example([(3000, 2), (1000, 4)])  # only powers of two: no odd part is left
@example([(3000, 2), (1000, 12)])  # one odd part is left, 3**1000
@example([(5000, 6)])  # a single power past the cutoff
@example([(3000, 1024), (0, 0), (7, 1), (0, 3)])  # zero exponents, a zero base and base 1
@example([(3000, 5), (1, 0)])  # a zero base past the cutoff gives 0
@example([(4000, 3 << 12), (4000, 5 << 7), (4000, (2**61 - 1) << 3)])  # three odd parts
def test_power_product_is_the_fold_over_2_adic_bases(pairs):
    assert _power_product(pairs) == functools.reduce(operator.mul, [base**exp for exp, base in pairs], 1)


@given(nonempty_polys, polys, st.integers(0, 4))
def test_no_reader_changes_the_terms_it_reads_in_place(d, e, n):
    # format_poly, evaluation (hom_count evaluates e), rect_of and the
    # measures read a polynomial's own term dict, not a copy of it.
    before = d.terms, e.terms
    format_poly(d)
    hom_count(d, e)
    d(n)
    rect_of(d)
    measures(d)
    check_rectangle_area(d)
    assert (d.terms, e.terms) == before
