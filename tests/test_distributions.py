"""Rational distributions and the minimal bundles that realise them."""

import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from dirpoly import (
    DirPoly,
    LabelledBundle,
    RationalDistribution,
    from_rational_distribution,
    product_bundle,
    to_distribution,
)

from helpers import nonempty_bundles

F = Fraction


def dist(*pairs):
    return RationalDistribution(tuple((l, F(p)) for l, p in pairs))


# lists of positive numerators, turned into an exact distribution over
# their total, so hypothesis can explore arbitrary rational points.
rational_dists = st.lists(
    st.integers(min_value=1, max_value=60), min_size=1, max_size=6
).map(
    lambda ws: RationalDistribution(
        tuple((f"x{i}", F(w, sum(ws))) for i, w in enumerate(ws, 1))
    )
)


def test_worked_example():
    d = dist(("a", "1/5"), ("b", "1/6"), ("c", "1/2"), ("d", "2/15"))
    b = from_rational_distribution(d)
    assert b.num_draws == 30
    assert b.fibres == (("a", 6), ("b", 5), ("c", 15), ("d", 4))
    assert b.to_poly() == DirPoly({15: 1, 6: 1, 5: 1, 4: 1})


def test_small_examples():
    assert from_rational_distribution(dist(("h", "1/2"), ("t", "1/2"))).sizes == (1, 1)
    assert from_rational_distribution(dist(("a", "1/3"), ("b", "2/3"))).sizes == (1, 2)
    assert from_rational_distribution(dist(("only", 1))).sizes == (1,)


def test_zero_probability_outcome_keeps_its_label():
    b = from_rational_distribution(dist(("a", 1), ("b", 0)))
    assert b.fibres == (("a", 1), ("b", 0))


def test_to_distribution_examples():
    b = LabelledBundle((("a", 6), ("b", 5), ("c", 15), ("d", 4)))
    assert to_distribution(b).entries == (
        ("a", F(1, 5)), ("b", F(1, 6)), ("c", F(1, 2)), ("d", F(2, 15))
    )
    assert to_distribution(LabelledBundle.from_sizes([2, 2])).probabilities == (
        F(1, 2), F(1, 2)
    )


def test_to_distribution_rejects_zero_draws():
    with pytest.raises(ValueError):
        to_distribution(LabelledBundle.from_sizes([0]))


@given(rational_dists)
def test_round_trip_is_exact(d):
    assert to_distribution(from_rational_distribution(d)) == d


@given(rational_dists)
def test_realising_bundle_is_minimal(d):
    # any bundle inducing the distribution has a draw count that is a
    # multiple of the minimal one.
    n = from_rational_distribution(d).num_draws
    for p in d.probabilities:
        assert p.denominator and n % p.denominator == 0
        assert (p * n).denominator == 1
    assert n == math.lcm(*(p.denominator for p in d.probabilities))


@given(rational_dists, st.integers(min_value=1, max_value=5))
def test_scaled_bundles_induce_the_same_distribution(d, m):
    b = from_rational_distribution(d)
    scaled = LabelledBundle(tuple((l, m * s) for l, s in b.fibres))
    assert to_distribution(scaled) == d


def test_product_bundle_example():
    coin = LabelledBundle((("h", 1), ("t", 1)))
    die = LabelledBundle((("1", 2), ("2", 1)))
    p = product_bundle(coin, die)
    assert p.fibres == (
        ("(h,1)", 2), ("(h,2)", 1), ("(t,1)", 2), ("(t,2)", 1)
    )
    assert p.num_draws == coin.num_draws * die.num_draws


@given(nonempty_bundles, nonempty_bundles)
def test_product_bundle_distribution_is_independent(b1, b2):
    p = to_distribution(product_bundle(b1, b2))
    d1 = dict(to_distribution(b1).entries)
    d2 = dict(to_distribution(b2).entries)
    for label, prob in p.entries:
        l1, l2 = label[1:-1].split(",")
        assert prob == d1[l1] * d2[l2]


@given(nonempty_bundles, nonempty_bundles)
def test_product_bundle_matches_polynomial_product(b1, b2):
    assert product_bundle(b1, b2).to_poly() == b1.to_poly() * b2.to_poly()


def test_validation():
    with pytest.raises(ValueError):
        dist(("a", "1/2"), ("b", "1/3"))
    with pytest.raises(ValueError):
        dist(("a", "1/2"), ("a", "1/2"))
    with pytest.raises(ValueError):
        dist(("a", "3/2"), ("b", "-1/2"))
    with pytest.raises(TypeError):
        RationalDistribution(((1, F(1)),))


# Inputs for the check, against an oracle that adds Fractions: reduced and
# unreduced denominators, coprime ones and ones sharing factors, zeros, and
# each probability given as an int, a "p/q" string or a Fraction.
DENOMINATORS = [1, 2, 3, 4, 6, 7, 12, 30, 97, 2**61 - 1, 10**30]


@st.composite
def probability_entries(draw):
    raw = draw(st.lists(st.tuples(st.integers(0, 40), st.sampled_from(DENOMINATORS)),
                        min_size=1, max_size=8))
    ps = [F(a, q) for a, q in raw]
    if draw(st.booleans()) and sum(ps):
        ps = [p / sum(ps) for p in ps]  # sums to 1
    i = draw(st.integers(0, len(ps) - 1))
    ps[i] += draw(st.sampled_from([0, 0, 0, -1, F(1, 97), F(-1, 6), -2 * ps[i]]))
    entries = []
    for i, p in enumerate(ps):
        form = draw(st.sampled_from(["int", "str", "Fraction"]))
        if form == "int" and p.denominator == 1:
            p = int(p)
        elif form == "str":
            m = draw(st.sampled_from([1, 3]))
            p = f"{p.numerator * m}/{p.denominator * m}"
        entries.append((f"x{i}", p))
    return tuple(entries)


def check_by_fraction_sum(entries):
    """The error message for these entries, or None where they are a distribution."""
    for label, p in entries:
        if F(p) < 0:
            return f"negative probability {F(p)} for {label!r}"
    total = sum((F(p) for _, p in entries), start=F(0))
    return None if total == 1 else f"probabilities must sum to 1 exactly, got {total}"


@given(probability_entries())
def test_check_matches_a_fraction_sum(entries):
    message = check_by_fraction_sum(entries)
    if message is None:
        d = RationalDistribution(entries)
        assert d.entries == tuple((label, F(p)) for label, p in entries)
        assert all(type(p) is F for p in d.probabilities)
    else:
        with pytest.raises(ValueError) as info:
            RationalDistribution(entries)
        assert str(info.value) == message


valid_entries = probability_entries().filter(lambda e: check_by_fraction_sum(e) is None)


@given(valid_entries)
def test_fibres_are_probability_times_lcm(entries):
    d = RationalDistribution(entries)
    n = math.lcm(*(F(p).denominator for _, p in entries))
    expected = tuple((label, F(p) * n) for label, p in entries)
    assert from_rational_distribution(d).fibres == expected
    assert all(type(size) is int for size in from_rational_distribution(d).sizes)


@given(valid_entries)
def test_round_trip_over_mixed_denominators(entries):
    d = RationalDistribution(entries)
    assert to_distribution(from_rational_distribution(d)) == d


@given(nonempty_bundles)
def test_distribution_equals_the_checked_one(b):
    d = to_distribution(b)
    assert d == RationalDistribution(d.entries)
    assert all(type(p) is F for p in d.probabilities)


@given(valid_entries)
def test_realising_bundle_equals_the_checked_one(entries):
    b = from_rational_distribution(RationalDistribution(entries))
    assert b == LabelledBundle(b.fibres)
    assert to_distribution(b) == RationalDistribution(to_distribution(b).entries)


def test_negative_probability_message_past_the_str_limit():
    q = 10**4400 + 3  # past the interpreter's default 4300-digit int-to-str limit
    p = F(-1, q)
    with pytest.raises(ValueError) as info:
        RationalDistribution((("a", 1 - p), ("b", p)))
    assert str(info.value) == f"negative probability -1/{Decimal(q)} for 'b'"
