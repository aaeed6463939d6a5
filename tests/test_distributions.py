"""Rational distributions and the minimal bundles that realise them."""

import dataclasses
import gc
import math
import random
import sys
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from dirpoly import (
    DirPoly,
    LabelledBundle,
    RationalDistribution,
    cross_measures,
    from_rational_distribution,
    product_bundle,
    to_distribution,
)

from dirpoly.distributions import MAX_DENOMINATOR_DIGITS

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


def test_product_bundle_escapes_commas_in_labels():
    left = LabelledBundle((("a", 1), ("a,b", 1)))
    right = LabelledBundle((("b,c", 1), ("c", 1)))
    assert product_bundle(left, right).labels == (
        r"(a,b\,c)", "(a,c)", r"(a\,b,b\,c)", r"(a\,b,c)"
    )


def split_product_label(label):
    """Undo the product encoding: the first unescaped comma splits the pair."""
    parts, current, chars = [], [], iter(label[1:-1])
    for ch in chars:
        if ch == "\\":
            current.append(next(chars))
        elif ch == "," and not parts:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    return parts[0], "".join(current)


labels = st.text(alphabet="ab,\\()", max_size=5)
labelled_bundles = st.dictionaries(labels, st.integers(1, 4), min_size=1, max_size=4).map(
    lambda fibres: LabelledBundle(tuple(fibres.items()))
)


@given(labelled_bundles, labelled_bundles)
def test_product_bundle_labels_stay_distinct_and_decode(b1, b2):
    p = product_bundle(b1, b2)
    assert len(set(p.labels)) == b1.num_outcomes * b2.num_outcomes
    assert p == LabelledBundle(p.fibres)
    d1 = dict(to_distribution(b1).entries)
    d2 = dict(to_distribution(b2).entries)
    pairs = [split_product_label(label) for label in p.labels]
    assert pairs == [(l1, l2) for l1 in b1.labels for l2 in b2.labels]
    for (l1, l2), prob in zip(pairs, to_distribution(p).probabilities):
        assert prob == d1[l1] * d2[l2]


def test_bundles_leave_no_tuples_in_the_free_lists():
    # A tuple built from a generator starts at 10 slots and is shrunk, then
    # freed into the free list of its true size, which such tuples never
    # draw from: each of the sizes 1 to 19 keeps up to 2,000 of them until
    # a full collection.  Built from a list, a tuple is allocated at its
    # true size and so reuses the free list it is freed into.
    gc.collect()
    gc.disable()
    try:
        before = sys.getallocatedblocks()
        for i in range(300):
            b = LabelledBundle.from_sizes([j + 1 for j in range(2 + i % 18)])
            e = LabelledBundle(b.fibres[::-1])
            cross_measures(b, e)
            from_rational_distribution(to_distribution(b))
            b.labels, b.sizes, to_distribution(e).probabilities
        grown = sys.getallocatedblocks() - before
    finally:
        gc.enable()
    assert grown < 2000


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


@given(valid_entries)
def test_round_trip_through_a_checked_bundle(entries):
    # A bundle checked afresh carries no distribution, so this one is built from its fibres.
    d = RationalDistribution(entries)
    assert to_distribution(LabelledBundle(from_rational_distribution(d).fibres)) == d


def test_a_realised_bundle_gives_its_distribution_without_a_fraction(monkeypatch):
    d = dist(("a", F(1, 3)), ("b", 0), ("c", F(2, 3)))
    realised = from_rational_distribution(d)
    made = []
    new = F.__new__

    def spy(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", staticmethod(spy))
    assert to_distribution(realised).entries == d.entries
    assert made == []
    assert to_distribution(LabelledBundle(realised.fibres)).entries == d.entries
    assert made == [(1, 3), (0, 3), (2, 3)]


def test_only_the_realised_bundle_carries_its_distribution():
    realised = from_rational_distribution(dist(("a", F(1, 3)), ("b", F(2, 3))))
    replaced = dataclasses.replace(realised, fibres=(("a", 1), ("b", 1)))
    assert to_distribution(replaced).entries == (("a", F(1, 2)), ("b", F(1, 2)))
    assert to_distribution(product_bundle(realised, replaced)).probabilities == (F(1, 6),) * 2 + (F(1, 3),) * 2
    assert to_distribution(realised).entries == (("a", F(1, 3)), ("b", F(2, 3)))


class CountedFraction(F):
    """A Fraction that counts the reads of its numerator and denominator."""

    reads = 0

    @property
    def numerator(self):
        CountedFraction.reads += 1
        return super().numerator

    @property
    def denominator(self):
        CountedFraction.reads += 1
        return super().denominator


def realised_fibres(entries) -> tuple[tuple, int]:
    """The fibres realising a distribution of CountedFractions, and the reads that took."""
    d = RationalDistribution(entries)
    assert all(kept is given for (_, kept), (_, given) in zip(d.entries, entries))
    CountedFraction.reads = 0
    return from_rational_distribution(d).fibres, CountedFraction.reads


def test_a_checked_distribution_is_realised_without_reading_its_fractions():
    entries = [("a", CountedFraction(1, 6)), ("b", CountedFraction(0)), ("c", CountedFraction(5, 6))]
    assert realised_fibres(entries) == ((("a", 1), ("b", 0), ("c", 5)), 0)


def test_the_realised_fibres_agree_on_both_sides_of_the_64_bit_switch():
    q = 2**64 - 1  # odd: 3 * 5 * 17 * 257 * 641 * 65537 * 6700417
    below = [("a", CountedFraction(1, 3)), ("b", CountedFraction(1, q)), ("c", CountedFraction(2 * q // 3 - 1, q))]
    above = [("a", CountedFraction(1, 2)), ("b", CountedFraction(1, q)), ("c", CountedFraction(q - 2, 2 * q))]
    # N = q: the check keeps the fibres.  N = 2q, past 64 bits: they are realised from the entries.
    assert realised_fibres(below) == ((("a", q // 3), ("b", 1), ("c", 2 * q // 3 - 1)), 0)
    assert realised_fibres(above)[0] == (("a", q), ("b", 2), ("c", q - 2))
    for entries in (below, above):
        fibres = from_rational_distribution(RationalDistribution(entries)).fibres
        adopted = to_distribution(LabelledBundle(fibres))  # keeps no fibres
        assert from_rational_distribution(adopted).fibres == fibres


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


def test_messages_name_a_number_past_the_output_limit():
    # The sum 2/q and the probability -1/q have a 100,001-digit denominator,
    # past the output limit: the message still says what is wrong, on one short line.
    q = 10**100000 + 1
    note = "a fraction with a part of more than 100000 digits"
    with pytest.raises(ValueError) as info:
        RationalDistribution((("a", F(1, q)), ("b", F(1, q))))
    assert str(info.value) == f"probabilities must sum to 1 exactly, got {note}"
    with pytest.raises(ValueError) as info:
        RationalDistribution((("a", 1 + F(1, q)), ("b", F(-1, q))))
    assert str(info.value) == f"negative probability {note} for 'b'"


def test_distinct_denominators_past_the_budget_are_refused():
    # 48 distinct 4200-digit denominators, 201,600 digits in all, are refused
    # before any lcm; 100 rows over one such denominator are within the budget.
    budget = "the distinct denominators have more than 200000 digits in all"
    q = [10**4199 + 2 * i + 1 for i in range(48)]
    with pytest.raises(ValueError) as info:
        RationalDistribution(tuple((f"x{i}", F(1, d)) for i, d in enumerate(q)))
    assert str(info.value) == budget
    share = q[0] // 100
    entries = [(f"x{i}", F(share, q[0])) for i in range(99)] + [("last", F(q[0] - 99 * share, q[0]))]
    dist = RationalDistribution(entries)
    assert to_distribution(from_rational_distribution(dist)) == dist


def test_the_budget_refuses_only_what_is_past_it():
    # 2**664386 passes: a lower bound from its bit length puts it at no more
    # than 200,000 digits.  2**664387 is refused, and has 200,001 digits.
    for k, refused in ((664_386, False), (664_387, True)):
        q = 2**k
        entries = [("a", F(1, q)), ("b", F(q - 1, q))]
        if refused:
            assert q >= 10**MAX_DENOMINATOR_DIGITS
            with pytest.raises(ValueError, match="the distinct denominators have more than 200000 digits"):
                RationalDistribution(entries)
        else:
            assert from_rational_distribution(RationalDistribution(entries)).num_draws == q
    # Thousands of small 5-smooth denominators with at least 10/3 bits a digit:
    # more than 666,666 bits, but fewer than 200,000 digits, so not refused.
    dens, limit = [], 10**39
    p2 = 1
    while p2 < limit:
        p3 = p2
        while p3 < limit:
            n = p3
            while n < limit:
                if 3 * n.bit_length() >= 10 * len(str(n)):
                    dens.append(n)
                n *= 5
            p3 *= 3
        p2 *= 2
    chosen, digits = [], 0
    for n in sorted(dens):
        if digits + len(str(n)) <= MAX_DENOMINATOR_DIGITS - 200:  # room for the last row's
            chosen.append(n)
            digits += len(str(n))
    entries = [(f"x{i}", F(1, n)) for i, n in enumerate(chosen)]
    entries.append(("rest", 1 - sum(p for _, p in entries)))
    distinct = {p.denominator for _, p in entries}
    assert sum(len(str(n)) for n in distinct) <= MAX_DENOMINATOR_DIGITS
    assert 3 * sum(n.bit_length() for n in distinct) > 10 * MAX_DENOMINATOR_DIGITS
    d = RationalDistribution(entries)
    assert to_distribution(from_rational_distribution(d)) == d


def test_a_failing_sum_check_holds_one_draw_count_at_a_time():
    # 1,000 distinct 100-digit denominators: an lcm N of about 100,000 digits
    # (41 KB).  The check sums the 1,000 numerators num * (N // den) one at a
    # time; keeping them all would take about 41 MB.
    rng = random.Random(16)
    entries = [(f"x{i}", F(1, rng.randrange(10**99, 10**100))) for i in range(1000)]
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="probabilities must sum to 1 exactly"):
            RationalDistribution(entries)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000
