"""Hom-set counting against the brute-force enumeration oracle."""

import functools
import itertools
import operator
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from dirpoly import (
    BundleMorphism,
    DirPoly,
    LabelledBundle,
    enumerate_bundle_morphisms,
    hom_count,
    hom_count_over_base,
    morphism_is_valid,
    rect_of,
)
from dirpoly import core, homs
from dirpoly.core import CHAIN_MIN_BITS

from helpers import polys

small_polys = st.dictionaries(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=1, max_value=2),
    max_size=2,
).map(DirPoly).filter(lambda d: d.num_draws <= 4)


def test_hom_count_worked_example():
    d = DirPoly.exponential(2)
    e = DirPoly({2: 1, 1: 1})
    assert hom_count(d, e) == 5
    assert len(enumerate_bundle_morphisms(d.to_bundle(), e.to_bundle())) == 5


def test_hom_count_into_singleton():
    for d in (DirPoly({4: 1, 1: 4}), DirPoly({0: 3}), DirPoly.zero()):
        assert hom_count(d, DirPoly.one()) == 1


def test_hom_count_from_empty_polynomial():
    # the empty bundle admits exactly the empty morphism.
    assert hom_count(DirPoly.zero(), DirPoly({3: 2})) == 1
    out = enumerate_bundle_morphisms(
        DirPoly.zero().to_bundle(), DirPoly({3: 2}).to_bundle()
    )
    assert out == [BundleMorphism((), ())]


def test_hom_count_into_empty_polynomial():
    assert hom_count(DirPoly({2: 1}), DirPoly.zero()) == 0
    assert enumerate_bundle_morphisms(
        DirPoly({2: 1}).to_bundle(), DirPoly.zero().to_bundle()
    ) == []


def test_hom_count_from_zero_base_term():
    # an empty source fibre maps anywhere: one base choice per outcome of e.
    d = DirPoly({0: 1})
    e = DirPoly({3: 1, 2: 1, 0: 1})
    assert hom_count(d, e) == 3
    assert len(enumerate_bundle_morphisms(d.to_bundle(), e.to_bundle())) == 3


def test_yoneda_evaluation():
    for d in (DirPoly({4: 1, 1: 4}), DirPoly({2: 3, 0: 1}), DirPoly({3: 2, 1: 1})):
        for n in range(4):
            assert hom_count(DirPoly.exponential(n), d) == d(n)


def test_hom_count_over_base_examples():
    b = DirPoly({4: 1, 1: 4}).to_bundle()
    assert hom_count_over_base(b, b) == 256
    single = DirPoly.exponential(3).to_bundle()
    assert hom_count_over_base(single, single) == 27
    d = LabelledBundle((("a", 1), ("b", 0)))
    e = LabelledBundle((("a", 3), ("b", 7)))
    assert hom_count_over_base(d, e) == 3


def test_hom_count_over_base_aligns_by_label():
    d = LabelledBundle((("a", 2), ("b", 1)))
    e = LabelledBundle((("b", 5), ("a", 3)))
    assert hom_count_over_base(d, e) == 3**2 * 5


def test_hom_count_over_base_rejects_label_mismatch():
    d = LabelledBundle((("a", 1),))
    e = LabelledBundle((("b", 1),))
    with pytest.raises(ValueError):
        hom_count_over_base(d, e)


def test_power_product_counts_base_fixing_endomorphisms():
    for d in (
        DirPoly({4: 1, 1: 4}),
        DirPoly({4: 1, 1: 3}),
        DirPoly({5: 2, 3: 1, 2: 1, 0: 2}),
        DirPoly({1: 6}),
        DirPoly({8: 2, 2: 2}),
    ):
        assert d.num_draws <= 20
        b = d.to_bundle()
        assert rect_of(d).power_product == hom_count_over_base(b, b)


def test_enumerate_fix_base():
    b = DirPoly({2: 1, 1: 1}).to_bundle()
    fixed = enumerate_bundle_morphisms(b, b, fix_base=True)
    assert len(fixed) == hom_count_over_base(b, b) == 4
    assert all(all(s == t for s, t in m.base_map) for m in fixed)


def test_enumerate_fix_base_rejects_label_mismatch():
    d = LabelledBundle((("a", 1),))
    e = LabelledBundle((("b", 1),))
    with pytest.raises(ValueError):
        enumerate_bundle_morphisms(d, e, fix_base=True)


def test_enumerate_guard():
    big = DirPoly({3: 3}).to_bundle()
    small = DirPoly({2: 1}).to_bundle()
    with pytest.raises(ValueError):
        enumerate_bundle_morphisms(big, small)
    with pytest.raises(ValueError):
        enumerate_bundle_morphisms(small, big)


def test_enumerate_caps_morphisms_before_building():
    # 8^8 morphisms within the draw cap, and 8^20 from fibres with no draws.
    singletons = DirPoly({1: 8}).to_bundle()
    with pytest.raises(ValueError, match="morphisms"):
        enumerate_bundle_morphisms(singletons, singletons)
    with pytest.raises(ValueError, match="morphisms"):
        enumerate_bundle_morphisms(DirPoly({0: 20}).to_bundle(), DirPoly({0: 8}).to_bundle())


def test_enumerated_morphisms_are_valid_and_distinct():
    bd = DirPoly({2: 1, 0: 1}).to_bundle()
    be = DirPoly({3: 1, 1: 1}).to_bundle()
    out = enumerate_bundle_morphisms(bd, be)
    assert len(out) == hom_count(DirPoly({2: 1, 0: 1}), DirPoly({3: 1, 1: 1}))
    assert len(set(out)) == len(out)
    assert all(morphism_is_valid(bd, be, m) for m in out)


def test_morphism_validity_rejects_bad_squares():
    bd = DirPoly({2: 1}).to_bundle()
    be = DirPoly({3: 1, 1: 1}).to_bundle()
    good = enumerate_bundle_morphisms(bd, be)[0]
    assert morphism_is_valid(bd, be, good)
    # unknown target label
    assert not morphism_is_valid(
        bd, be, BundleMorphism((("x1", "zz"),), good.total_maps)
    )
    # draw sent outside the target fibre
    assert not morphism_is_valid(bd, be, BundleMorphism(good.base_map, ((0, 9),)))
    # wrong number of draws in the fibre map
    assert not morphism_is_valid(bd, be, BundleMorphism(good.base_map, ((0,),)))
    # wrong number of fibres
    assert not morphism_is_valid(bd, be, BundleMorphism((), ()))


def test_enumeration_order_is_deterministic():
    bd = DirPoly({2: 1, 1: 1}).to_bundle()
    be = DirPoly({2: 1, 1: 1}).to_bundle()
    assert enumerate_bundle_morphisms(bd, be) == enumerate_bundle_morphisms(bd, be)


@given(small_polys, small_polys)
def test_hom_count_matches_enumeration(d, e):
    count = hom_count(d, e)
    assert count == len(enumerate_bundle_morphisms(d.to_bundle(), e.to_bundle()))


@given(polys, polys, polys)
def test_hom_count_turns_sums_into_products(d, e, f):
    # Hom(d + e, f) factors over the coproduct decomposition of the source.
    assert hom_count(d + e, f) == hom_count(d, f) * hom_count(e, f)


def test_hom_counts_are_the_left_fold():
    d = DirPoly({base: base % 4 + 1 for base in range(0, 34)})
    e = DirPoly({0: 2, 1: 3, 5: 1, 9: 2})
    count = 1
    for base, coeff in d.terms.items():
        count *= e(base) ** coeff
    assert hom_count(d, e) == count
    # An e without positive bases has e(m) == 0 for m >= 1.
    assert hom_count(d, DirPoly({0: 3})) == 0

    bd = LabelledBundle.from_sizes([40 * k % 97 for k in range(35)])
    be = LabelledBundle.from_sizes([k % 13 + 1 for k in range(35)])
    count = 1
    for (_, d_size), (_, e_size) in zip(bd.fibres, be.fibres):
        count *= e_size**d_size
    assert hom_count_over_base(bd, be) == count
    # x1 is empty on both sides (0**0 == 1); x2 is a positive data fibre
    # over an empty model fibre, which admits no morphism.
    assert bd.sizes[:2] == (0, 40)
    assert hom_count_over_base(bd, LabelledBundle.from_sizes([0, *be.sizes[1:]])) == count
    assert hom_count_over_base(bd, LabelledBundle.from_sizes([1, 0, *be.sizes[2:]])) == 0


def fold(pairs):
    return functools.reduce(operator.mul, (base**exp for exp, base in pairs), 1)


# (exponent, base) pairs: exponents up to 3000 with bases up to 40 reach
# estimates of 10^5 bits; short lists stay below the cutoff.
power_pairs = st.lists(st.tuples(st.integers(0, 3000), st.integers(0, 40)), max_size=8)
targets = st.dictionaries(st.integers(0, 5), st.integers(1, 4), max_size=3)


@settings(deadline=None)
@given(power_pairs, targets)
@example([], {})
@example([(0, 0), (0, 7), (5, 1)], {1: 1})  # zero exponents, 0**0 and base 1 are factors 1
@example([(7000, 3)], {0: 3})  # a single power past the cutoff
@example([(3000, 5), (3000, 7), (1, 0)], {0: 2})  # a zero base past the cutoff gives 0
@example([(2999, 40), (3000, 0), (0, 0)], {2: 1, 1: 1})  # a zero base after a large power; e(0) = 2, e(1) = 3
def test_hom_counts_are_the_fold_on_both_sides_of_the_cutoff(pairs, e_terms):
    bd = LabelledBundle.from_sizes([exp for exp, _ in pairs])
    be = LabelledBundle.from_sizes([base for _, base in pairs])
    assert hom_count_over_base(bd, be) == fold(pairs)
    # d has the term exp * m^y for the m-th pair, so its count is the fold of e(m)**exp.
    d = DirPoly({m: exp for m, (exp, _) in enumerate(pairs)})
    e = DirPoly(e_terms)
    assert hom_count(d, e) == fold([(exp, e(m)) for m, (exp, _) in enumerate(pairs)])


@pytest.mark.parametrize("a1, a2, chained", [
    (1, 1999, False),  # e = 2^y: e(1) = 2 and e(2) = 4, an estimate of 2*1 + 3*1999 = 5999 bits
    (3, 1998, True),  # 2*3 + 3*1998 = 6000 bits
])
def test_hom_counts_at_the_cutoff(monkeypatch, a1, a2, chained):
    assert 2 * a1 + 3 * a2 == CHAIN_MIN_BITS - 1 + chained
    calls = []
    chain = core._power_chain
    monkeypatch.setattr(core, "_power_chain", lambda pairs: calls.append(pairs) or chain(pairs))
    count = 2**a1 * 4**a2
    assert hom_count(DirPoly({1: a1, 2: a2}), DirPoly.exponential(2)) == count
    assert hom_count_over_base(LabelledBundle.from_sizes([a1, a2]),
                               LabelledBundle.from_sizes([2, 4])) == count
    assert len(calls) == 2 * chained


@pytest.mark.parametrize("a1, a2", [(3, 1998), (3000, 1000), (1, 100_000)])
def test_hom_counts_over_powers_of_two_past_the_cutoff(a1, a2):
    # e(1) = 2 and e(2) = 4: the chain is left no odd part, only the shift.
    assert 2 * a1 + 3 * a2 >= CHAIN_MIN_BITS
    count = 2**a1 * 4**a2
    assert hom_count(DirPoly({1: a1, 2: a2}), DirPoly.exponential(2)) == count
    assert hom_count_over_base(LabelledBundle.from_sizes([a1, a2]),
                               LabelledBundle.from_sizes([2, 4])) == count


def test_zero_over_base_count_takes_no_power():
    class NoPower(int):
        def __pow__(self, exponent):
            raise AssertionError("power taken")

    data = LabelledBundle.from_sizes([10**9, 1])
    model = LabelledBundle.from_sizes([NoPower(3), 0])
    assert hom_count_over_base(data, model) == 0


def test_enumerator_visits_only_base_maps_with_a_morphism(monkeypatch):
    # Eight singletons into one singleton and 30 empty fibres: one morphism,
    # out of 31**8 base maps when positive fibres are offered empty ones too.
    # Each visited base map builds one function space per source fibre.
    spaces = []

    def product(*iterables, repeat=None):
        if repeat is not None:
            spaces.append(repeat)
            assert len(spaces) <= 8, "visited a base map without a morphism"
            return itertools.product(*iterables, repeat=repeat)
        return itertools.product(*iterables)

    monkeypatch.setattr(homs, "itertools", SimpleNamespace(product=product))
    bd = LabelledBundle.from_sizes([1] * 8)
    be = LabelledBundle.from_sizes([1] + [0] * 30)
    assert len(enumerate_bundle_morphisms(bd, be)) == 1
    assert spaces == [1] * 8
