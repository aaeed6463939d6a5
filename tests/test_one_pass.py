"""The one-pass checks and the one cross walk against row-by-row reference code.

``LabelledBundle`` and ``RationalDistribution`` check their rows in one
loop that also sums the draws or reads each probability's numerator and
denominator once; ``homs._aligned`` compares label sets through one dict;
``measures._cross_sums`` sums the cross entropy and KL in one walk.  The
references below are the plain per-row loops and the two separate sums
those replace: the new code must raise the same exception type with the
same message, and give the same floats bit for bit.
"""

from __future__ import annotations

import dataclasses
import math
import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from dirpoly import LabelledBundle, RationalDistribution, cross_measures, from_rational_distribution, to_distribution
from dirpoly.core import _power_product
from dirpoly.distributions import _shown
from dirpoly.homs import _aligned
from dirpoly.measures import _cross_pairs, _cross_sums, _log2_ratio
from dirpoly.rect import _width


# -- reference code -----------------------------------------------------------

def reference_bundle(fibres):
    fibres = tuple([(label, size) for label, size in fibres])
    seen = set()
    for label, size in fibres:
        if not isinstance(label, str):
            raise TypeError("labels must be strings")
        if not isinstance(size, int) or size < 0:
            raise ValueError(f"fibre size must be a natural number, got {size!r}")
        if label in seen:
            raise ValueError(f"duplicate outcome label {label!r}")
        seen.add(label)
    return fibres, sum(size for _, size in fibres)


def reference_distribution(entries):
    entries = tuple([(label, p if isinstance(p, Fraction) else Fraction(p)) for label, p in entries])
    seen = set()
    for label, p in entries:
        if not isinstance(label, str):
            raise TypeError("labels must be strings")
        if p.numerator < 0:
            raise ValueError(f"negative probability {_shown(p)} for {label!r}")
        if label in seen:
            raise ValueError(f"duplicate outcome label {label!r}")
        seen.add(label)
    n = math.lcm(*[p.denominator for _, p in entries])
    total = sum(p.numerator * (n // p.denominator) for _, p in entries)
    if total != n:
        raise ValueError(f"probabilities must sum to 1 exactly, got {_shown(Fraction(total, n))}")
    realised = tuple([(label, p.numerator * (n // p.denominator)) for label, p in entries])
    return entries, realised, n


def reference_aligned(bd, be):
    e_sizes = be.sizes_by_label
    if e_sizes.keys() != bd.sizes_by_label.keys():
        raise ValueError("bundles must have identical label sets")
    return [(d_size, e_sizes[label]) for label, d_size in bd.fibres]


def reference_entropy(triples, d_total, e_total):
    return math.fsum(c * d / d_total * _log2_ratio(e_total, e) for d, e, c in triples if d)


def reference_kl(pairs, d_total, e_total):
    for d, e in pairs:
        if d and not e:
            return math.inf
    return math.fsum(d / d_total * _log2_ratio(d * e_total, d_total * e) for d, e in pairs if d)


def reference_cross(bd, be):
    pairs = reference_aligned(bd, be)
    d_total, e_total = bd.num_draws, be.num_draws
    if d_total == 0 or e_total == 0:
        raise ValueError("cross measures are undefined for a bundle with no draws")
    power = _power_product(pairs)
    if power == 0:
        return (math.inf, e_total, 0.0, math.inf, math.inf)
    h = reference_entropy(((d, e, 1) for d, e in pairs), d_total, e_total)
    return (h, e_total, _width(d_total, power), 2.0**h, reference_kl(pairs, d_total, e_total))


def outcome(f, *args):
    """What f(*args) returns, or the type and message of what it raises."""
    try:
        return "ok", f(*args)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


def bits(values):
    return [x.hex() if isinstance(x, float) else x for x in values]


# -- inputs -------------------------------------------------------------------

class Label(str):
    """A str subclass: a valid label."""


class Size(int):
    """An int subclass: a valid size, which the draw count must not keep."""


label_values = st.one_of(
    st.sampled_from(["a", "b", "c", "d", "e"]),
    st.sampled_from(["a", "b"]).map(Label),
    st.integers(-2, 3),
    st.none(),
    st.booleans(),
    st.tuples(st.just("a")),
    st.lists(st.just("a"), max_size=1),  # unhashable
)
size_values = st.one_of(
    st.integers(-3, 9),
    st.booleans(),
    st.integers(0, 9).map(Size),
    st.floats(-1, 3, allow_nan=False),
    st.just("3"),
    st.none(),
    st.just(Fraction(1, 2)),
)
probability_values = st.one_of(
    st.fractions(min_value=-1, max_value=2, max_denominator=12),
    st.integers(-1, 2),
    st.booleans(),
    st.sampled_from(["1/2", "-1/3", "x", "0.25"]),
    st.floats(-1, 2, allow_nan=False, width=16),
    st.none(),
)
small_labels = st.sampled_from(["a", "b", "c", "d", "e", "f"])
# Rows of string labels, often repeated, over sizes that are rarely negative.
bundle_rows = st.lists(st.tuples(small_labels, st.integers(-1, 9)), max_size=6)
# Rows of string labels, often repeated, that sum to 1 exactly, some with a negative probability.
distribution_rows = st.lists(st.tuples(small_labels, st.integers(-3, 9)), min_size=1, max_size=6).filter(
    lambda rows: sum(s for _, s in rows) > 0).map(
    lambda rows: [(label, Fraction(s, sum(s for _, s in rows))) for label, s in rows])


def mixed(values, base):
    """Base rows, base rows with one row changed or added, or arbitrary pairs."""
    pair = st.tuples(label_values, values)
    not_pair = st.one_of(st.tuples(label_values), st.tuples(label_values, values, values))

    def tweaked(row):
        return st.tuples(base, st.integers(0, 6), row).map(lambda t: t[0][:t[1]] + [t[2]] + t[0][t[1] + 1:])

    return st.one_of(base, tweaked(pair), tweaked(not_pair), st.lists(pair, max_size=6))


@settings(max_examples=600, deadline=None)
@given(mixed(size_values, bundle_rows))
def test_bundle_check_matches_the_row_loop(rows):
    def build(r):
        bundle = LabelledBundle(r)
        return bundle.fibres, bundle.num_draws

    got = outcome(build, rows)
    assert got == outcome(reference_bundle, rows)
    if got[0] == "ok":
        assert type(got[1][1]) is int


@settings(max_examples=600, deadline=None)
@given(mixed(probability_values, distribution_rows))
def test_distribution_check_matches_the_row_loop(rows):
    want = outcome(reference_distribution, rows)

    def build(r):
        dist = RationalDistribution(r)
        bundle = from_rational_distribution(dist)
        # The distribution to_distribution adopts realises on first use, without a check.
        again = from_rational_distribution(to_distribution(bundle))
        assert (again.fibres, again.num_draws) == (bundle.fibres, bundle.num_draws)
        return dist.entries, bundle.fibres, bundle.num_draws

    assert outcome(build, rows) == want


label_sets = st.lists(st.sampled_from(["a", "b", "c", "d", "e"]), unique=True, max_size=5)


@settings(max_examples=400, deadline=None)
@given(label_sets, label_sets, st.randoms(use_true_random=False))
def test_alignment_matches_the_key_comparison(data_labels, model_labels, rng):
    bd = LabelledBundle([(label, rng.randint(0, 5)) for label in data_labels])
    be = LabelledBundle([(label, rng.randint(0, 5)) for label in model_labels])
    assert outcome(_aligned, bd, be) == outcome(reference_aligned, bd, be)


def test_cross_walk_is_bit_identical_to_the_two_sums():
    rng = random.Random(16)
    degenerate = near_zero = 0
    for i in range(3000):
        k = rng.randint(1, 8)
        labels = [f"o{j}" for j in range(k)]
        top = rng.choice([3, 50, 400])  # the exact cross-width product stays small
        d = [rng.randint(0, top) for _ in range(k)]
        if i % 3 == 0:  # KL near 0: a model close to the data
            e = [max(0, s + rng.randint(-1, 1)) for s in d]
        else:
            e = [rng.randint(0, top) for _ in range(k)]
        if not any(d) or not any(e):
            d[0] += 1
            e[0] += 1
        order = rng.sample(range(k), k)
        bd = LabelledBundle(list(zip(labels, d)))
        be = LabelledBundle([(labels[j], e[j]) for j in order])
        want = reference_cross(bd, be)
        assert bits(dataclasses.astuple(cross_measures(bd, be))) == bits(want)
        pairs, d_total, e_total = _cross_pairs(bd, be)
        assert _cross_sums(pairs, d_total, e_total)[1].hex() == reference_kl(pairs, d_total, e_total).hex()
        degenerate += math.isinf(want[0])
        near_zero += 0 < want[4] < 1e-3
    assert degenerate > 100 and near_zero > 100
