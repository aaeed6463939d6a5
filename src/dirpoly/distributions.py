"""Exact rational distributions and their realisation as bundles.

Any finite distribution with rational probabilities arises from a bundle:
with N the lcm of the reduced denominators, outcome x gets prob(x) * N
draws, the smallest bundle inducing it.  ``Fraction`` appears only at the
API boundary, floats nowhere: checking and realising cost one lcm N, then
integer numerators num * (N // den), which must sum to N, and
``to_distribution`` one gcd per fibre to reduce size / draw count.  The two
conversions adopt what they build without checking it again: a valid
distribution realises as a valid bundle (distinct string labels, natural
sizes), and a bundle with draws has a valid distribution (exact fractions
summing to 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .core import LabelledBundle
from .expr import _ratio


@dataclass(frozen=True)
class RationalDistribution:
    """Ordered (label, probability) pairs with exact probabilities summing to 1."""

    entries: tuple[tuple[str, Fraction], ...]

    def __post_init__(self):
        entries = tuple((label, p if isinstance(p, Fraction) else Fraction(p))
                        for label, p in self.entries)
        object.__setattr__(self, "entries", entries)
        seen = set()
        for label, p in entries:
            if not isinstance(label, str):
                raise TypeError("labels must be strings")
            if p.numerator < 0:
                raise ValueError(f"negative probability {_ratio(p)} for {label!r}")
            if label in seen:
                raise ValueError(f"duplicate outcome label {label!r}")
            seen.add(label)
        n = math.lcm(*(p.denominator for _, p in entries))
        total = sum(p.numerator * (n // p.denominator) for _, p in entries)
        if total != n:
            raise ValueError(f"probabilities must sum to 1 exactly, got {_ratio(Fraction(total, n))}")

    @classmethod
    def _wrap(cls, entries: tuple[tuple[str, Fraction], ...]) -> RationalDistribution:
        """Adopt entries already known to be valid, such as a bundle's distribution."""
        d = object.__new__(cls)
        object.__setattr__(d, "entries", entries)
        return d

    @property
    def probabilities(self) -> tuple[Fraction, ...]:
        return tuple(p for _, p in self.entries)


def from_rational_distribution(dist: RationalDistribution) -> LabelledBundle:
    """The minimal bundle realising the distribution.

    The draw count N is the lcm of the reduced denominators, so every fibre
    size prob(x) * N is the exact integer num * (N // den).
    """
    n = math.lcm(*(p.denominator for _, p in dist.entries))
    return LabelledBundle._wrap(tuple((label, p.numerator * (n // p.denominator))
                                      for label, p in dist.entries))


def to_distribution(bundle: LabelledBundle) -> RationalDistribution:
    """The empirical distribution of a bundle, as exact reduced fractions."""
    total = bundle.num_draws
    if total == 0:
        raise ValueError("a bundle with no draws has no distribution")
    return RationalDistribution._wrap(tuple((label, Fraction(size, total))
                                            for label, size in bundle.fibres))


def product_bundle(b1: LabelledBundle, b2: LabelledBundle) -> LabelledBundle:
    """The product bundle: paired labels, multiplied fibre sizes.

    Its empirical distribution is the independent product of the two
    marginals, and its polynomial is the product of theirs.
    """
    fibres = tuple(
        (f"({l1},{l2})", s1 * s2)
        for l1, s1 in b1.fibres
        for l2, s2 in b2.fibres
    )
    return LabelledBundle(fibres)
