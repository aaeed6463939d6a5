"""Entropy, length, rectangle-area identity, and the cross measures."""

import dataclasses
import math

import mpmath
import pytest
from hypothesis import given, strategies as st

from dirpoly import (
    DirPoly,
    LabelledBundle,
    RectValue,
    check_cross_rectangle_area,
    check_rectangle_area,
    cross_measures,
    entropy,
    measures,
    rect_of,
)
from dirpoly.measures import DEFAULT_TOL

from helpers import nonempty_bundles, nonempty_polys, polys

# Values for 4^y + 3, frozen from a 40-digit computation:
#     H = log2(7) - 8/7,  W = 2 * 2**(1/7),  L = 7 / W.
H_4Y3 = 1.6644977792004612
W_4Y3 = 2.2081790273476245
L_4Y3 = 3.1700328249236733

# Data fibres (1, 1) against model fibres (3, 1):
#     H = 2 - log2(3)/2,  W = sqrt(3),  L = 4/W,  KL = H - 1.
H_CROSS = 1.207518749639422
W_CROSS = 1.7320508075688772
L_CROSS = 2.309401076758503
KL_CROSS = 0.2075187496394219

# Aligned pairs (data size, model size) with the model everywhere positive.
aligned_sizes = st.lists(
    st.tuples(st.integers(0, 5), st.integers(1, 5)), min_size=1, max_size=5
).filter(lambda ps: any(d for d, _ in ps))


def _pair(ps):
    bd = LabelledBundle(tuple((f"x{i}", d) for i, (d, _) in enumerate(ps, 1)))
    be = LabelledBundle(tuple((f"x{i}", e) for i, (_, e) in enumerate(ps, 1)))
    return bd, be


def test_entropy_examples():
    assert entropy(DirPoly.exponential(5).to_bundle()) == 0.0
    assert entropy(DirPoly({1: 8}).to_bundle()) == 3.0
    assert entropy(DirPoly({4: 1, 1: 4}).to_bundle()) == 2.0
    assert entropy(DirPoly({4: 1, 1: 3}).to_bundle()) == pytest.approx(
        H_4Y3, rel=1e-12
    )


def test_entropy_ignores_empty_fibres():
    assert entropy(LabelledBundle.from_sizes([2, 0, 2])) == 1.0


def test_entropy_rejects_zero_draws():
    with pytest.raises(ValueError):
        entropy(LabelledBundle.from_sizes([0, 0]))


def test_measures_uniform_example():
    m = measures(DirPoly({4: 1, 1: 4}))
    assert (m.area, m.power_product) == (8, 256)
    assert m.width == 2.0
    assert m.entropy == 2.0
    assert m.length == 4.0


def test_measures_frozen_example():
    m = measures(DirPoly({4: 1, 1: 3}))
    assert (m.area, m.power_product) == (7, 256)
    assert m.width == pytest.approx(W_4Y3, rel=1e-12)
    assert m.entropy == pytest.approx(H_4Y3, rel=1e-12)
    assert m.length == pytest.approx(L_4Y3, rel=1e-12)


def test_measures_scalar_times_exponential():
    # a * n^y has width n and length a.
    for a in range(1, 7):
        for n in range(1, 7):
            m = measures(DirPoly({n: a}))
            assert m.area == a * n
            assert m.width == pytest.approx(n, rel=1e-12)
            assert m.entropy == pytest.approx(math.log2(a), abs=1e-12)
            assert m.length == pytest.approx(a, rel=1e-12)


def test_measures_rejects_zero_draws():
    with pytest.raises(ValueError):
        measures(DirPoly.zero())
    with pytest.raises(ValueError):
        measures(DirPoly({0: 4}))


def test_check_rectangle_area_examples():
    for d in (DirPoly({4: 1, 1: 4}), DirPoly({4: 1, 1: 3}), DirPoly({1: 1})):
        check = check_rectangle_area(d)
        assert check.passed
        assert check.tol == 1e-9
        assert check.float_error <= check.float_bound
        assert check.log_error <= check.log_bound


@given(nonempty_polys)
def test_rectangle_area_identity(d):
    check = check_rectangle_area(d)
    assert check.passed, (d, check)


@given(nonempty_polys)
def test_entropy_and_width_against_high_precision(d):
    mpmath.mp.dps = 50
    b = d.to_bundle()
    total = b.num_draws
    h = mpmath.mpf(0)
    for size in b.sizes:
        if size:
            p = mpmath.mpf(size) / total
            h -= p * mpmath.log(p, 2)
    assert entropy(b) == pytest.approx(float(h), abs=1e-12)
    m = measures(d)
    power = m.power_product
    if power:
        w = mpmath.power(power, mpmath.mpf(1) / total)
        assert m.width == pytest.approx(float(w), rel=1e-12)
    else:
        assert m.width == 0.0


@given(nonempty_polys, nonempty_polys)
def test_entropy_is_additive_under_product(d, e):
    hd = entropy(d.to_bundle())
    he = entropy(e.to_bundle())
    assert entropy((d * e).to_bundle()) == pytest.approx(hd + he, abs=1e-9)


def test_cross_measures_frozen_example():
    bd = LabelledBundle((("a", 1), ("b", 1)))
    be = LabelledBundle((("a", 3), ("b", 1)))
    cm = cross_measures(bd, be)
    assert cm.cross_entropy == pytest.approx(H_CROSS, rel=1e-12)
    assert cm.cross_area == 4
    assert cm.cross_width == pytest.approx(W_CROSS, rel=1e-12)
    assert cm.cross_length == pytest.approx(L_CROSS, rel=1e-12)
    assert cm.kl == pytest.approx(KL_CROSS, rel=1e-9)


def test_cross_measures_align_by_label_not_position():
    bd = LabelledBundle((("a", 3), ("b", 1)))
    be = LabelledBundle((("b", 1), ("a", 3)))
    cm = cross_measures(bd, be)
    # the model equals the data up to listing order, so KL vanishes.
    assert cm.kl == 0.0
    assert cm.cross_entropy == entropy(bd)


def test_cross_measures_of_a_bundle_with_itself():
    b = LabelledBundle((("x", 4), ("y", 1), ("z", 2)))
    cm = cross_measures(b, b)
    m = measures(b.to_poly())
    assert cm.cross_entropy == pytest.approx(m.entropy, rel=1e-12)
    assert cm.cross_width == pytest.approx(m.width, rel=1e-12)
    assert cm.cross_length == pytest.approx(m.length, rel=1e-12)
    assert cm.cross_area == m.area
    assert cm.kl == 0.0


def test_cross_measures_degenerate():
    bd = LabelledBundle((("a", 2), ("b", 1)))
    be = LabelledBundle((("a", 3), ("b", 0)))
    cm = cross_measures(bd, be)
    assert math.isinf(cm.cross_entropy)
    assert math.isinf(cm.cross_length)
    assert math.isinf(cm.kl)
    assert cm.cross_width == 0.0
    assert cm.cross_area == 3


def test_cross_measures_empty_model_fibre_off_support():
    # a model zero is harmless where the data has no mass.
    bd = LabelledBundle((("a", 2), ("b", 0)))
    be = LabelledBundle((("a", 1), ("b", 0)))
    cm = cross_measures(bd, be)
    assert cm.cross_entropy == 0.0
    assert cm.cross_width == 1.0
    assert cm.cross_area == 1


def test_cross_measures_validation():
    with pytest.raises(ValueError):
        cross_measures(
            LabelledBundle((("a", 1),)), LabelledBundle((("b", 1),))
        )
    with pytest.raises(ValueError):
        cross_measures(
            LabelledBundle((("a", 0),)), LabelledBundle((("a", 1),))
        )
    with pytest.raises(ValueError):
        cross_measures(
            LabelledBundle((("a", 1),)), LabelledBundle((("a", 0),))
        )


def test_check_cross_rectangle_area_statuses():
    bd = LabelledBundle((("a", 1), ("b", 1)))
    be = LabelledBundle((("a", 3), ("b", 1)))
    assert check_cross_rectangle_area(bd, be).status == "pass"
    degenerate = check_cross_rectangle_area(
        bd, LabelledBundle((("a", 2), ("b", 0)))
    )
    assert degenerate.status == "degenerate"
    assert degenerate.product is None
    assert degenerate.float_error is None


@given(aligned_sizes)
def test_cross_rectangle_area_identity(ps):
    bd, be = _pair(ps)
    check = check_cross_rectangle_area(bd, be)
    assert check.status == "pass", (bd, be, check)


@given(aligned_sizes)
def test_kl_is_nonnegative(ps):
    bd, be = _pair(ps)
    assert cross_measures(bd, be).kl >= -1e-9


@given(nonempty_bundles)
def test_kl_of_bundle_with_itself_is_zero(b):
    assert cross_measures(b, b).kl == 0.0


def _mp_entropy(sizes):
    total = sum(sizes)
    return -mpmath.fsum(
        mpmath.mpf(s) / total * mpmath.log(mpmath.mpf(s) / total, 2) for s in sizes if s
    )


@pytest.mark.parametrize("n", [10**9, 10**12, 10**15])
def test_entropy_of_one_dominant_fibre_against_mpmath(n):
    with mpmath.workdps(60):
        h = _mp_entropy([n - 1, 1])
    assert entropy(LabelledBundle.from_sizes([n - 1, 1])) == pytest.approx(
        float(h), rel=DEFAULT_TOL, abs=0
    )


# The data (N, N) against the model (N+1, N-1), where KL is about
# 1/(2 N^2 ln 2).  At N = 10^6 the data is written (1, 1), the same
# distribution, because the cross width of (N, N) builds a 4*10^7-bit
# exact product.
@pytest.mark.parametrize("d, e", [
    ([10**4, 10**4], [10**4 + 1, 10**4 - 1]),
    ([1, 1], [10**6 + 1, 10**6 - 1]),
])
def test_kl_near_zero_against_mpmath(d, e):
    with mpmath.workdps(60):
        kl = mpmath.fsum(
            mpmath.mpf(di) / sum(d) * mpmath.log(mpmath.mpf(di) * sum(e) / (sum(d) * ei), 2)
            for di, ei in zip(d, e)
        )
    cm = cross_measures(LabelledBundle.from_sizes(d), LabelledBundle.from_sizes(e))
    assert cm.kl == pytest.approx(float(kl), rel=DEFAULT_TOL, abs=0)


def _checked(result):
    """The same result through its class's public constructor."""
    fields = {f.name: getattr(result, f.name) for f in dataclasses.fields(result)}
    return type(result)(**{k: _checked(v) if dataclasses.is_dataclass(v) else v for k, v in fields.items()})


@given(polys)
def test_rectangle_and_measures_equal_the_checked_ones(d):
    r = rect_of(d)
    assert r == RectValue(r.area, r.power_product)  # the public constructor sets P = 1 at area 0
    if d.num_draws:
        for result in (measures(d), check_rectangle_area(d)):
            assert result == _checked(result) and hash(result) == hash(_checked(result))
            assert repr(result) == repr(_checked(result))


@given(nonempty_bundles, st.data())
def test_cross_results_equal_the_checked_ones(bd, data):
    sizes = data.draw(st.lists(st.integers(0, 6), min_size=len(bd.fibres), max_size=len(bd.fibres)))
    be = LabelledBundle.from_sizes(sizes, bd.labels)
    if be.num_draws:
        for result in (cross_measures(bd, be), check_cross_rectangle_area(bd, be)):
            assert result == _checked(result) and repr(result) == repr(_checked(result))


@pytest.mark.parametrize("tol", [math.nan, -1.0, -math.inf, math.inf])
def test_area_checks_refuse_a_tolerance_that_is_not_finite_and_nonnegative(tol):
    bd = LabelledBundle((("a", 1), ("b", 1)))
    be = LabelledBundle((("a", 3), ("b", 1)))
    for check, args in ((check_rectangle_area, (DirPoly({2: 3, 1: 5}),)), (check_cross_rectangle_area, (bd, be))):
        with pytest.raises(ValueError) as e:
            check(*args, tol)
        assert str(e.value) == f"the tolerance must be a finite number >= 0, got {tol!r}"
    # Zero is a tolerance: the one-ulp residue of 2^y + 1 fails it.
    assert not check_rectangle_area(DirPoly({2: 1, 1: 1}), 0.0).passed
    assert check_cross_rectangle_area(bd, be, 0.0).tol == 0.0
