"""Exact rational distributions and their realisation as bundles.

Any finite distribution with rational probabilities arises from a bundle:
with N the lcm of the reduced denominators, outcome x gets prob(x) * N
draws, the smallest bundle inducing it.  ``Fraction`` appears only at the
API boundary, floats nowhere: checking and realising cost one lcm N, then
integer numerators num * (N // den), which must sum to N, and
``to_distribution`` one gcd per fibre to reduce size / draw count.  The two
conversions and ``product_bundle`` adopt what they build without checking
it again: a valid distribution realises as a valid bundle (distinct string
labels, natural sizes), a bundle with draws has a valid distribution (exact
fractions summing to 1), and two valid bundles have a valid product (its
labels are distinct because their encoding can be undone).

``fractions`` (and with it ``decimal`` and ``numbers``) is imported only by
the functions that make Fractions, to keep it out of the CLI's start-up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .core import LabelledBundle, _adopt
from .expr import MAX_OUTPUT_DIGITS, _ratio

if TYPE_CHECKING:
    from fractions import Fraction


def _shown(p: Fraction) -> str:
    """``_ratio(p)`` for an error message, which a number past the output limit must not replace."""
    try:
        return _ratio(p)
    except ValueError:
        return f"a fraction with a part of more than {MAX_OUTPUT_DIGITS} digits"


@dataclass(frozen=True)
class RationalDistribution:
    """Ordered (label, probability) pairs with exact probabilities summing to 1."""

    entries: tuple[tuple[str, Fraction], ...]

    def __post_init__(self):
        import fractions
        entries = tuple([(label, p if isinstance(p, fractions.Fraction) else fractions.Fraction(p))
                         for label, p in self.entries])
        object.__setattr__(self, "entries", entries)
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
            raise ValueError(f"probabilities must sum to 1 exactly, got {_shown(fractions.Fraction(total, n))}")

    @property
    def probabilities(self) -> tuple[Fraction, ...]:
        return tuple([p for _, p in self.entries])


def from_rational_distribution(dist: RationalDistribution) -> LabelledBundle:
    """The minimal bundle realising the distribution.

    The draw count N is the lcm of the reduced denominators, so every fibre
    size prob(x) * N is the exact integer num * (N // den).
    """
    n = math.lcm(*[p.denominator for _, p in dist.entries])
    return _adopt(LabelledBundle, {"fibres": tuple([(label, p.numerator * (n // p.denominator))
                                                   for label, p in dist.entries])})


def to_distribution(bundle: LabelledBundle) -> RationalDistribution:
    """The empirical distribution of a bundle, as exact reduced fractions."""
    import fractions
    total = bundle.num_draws
    if total == 0:
        raise ValueError("a bundle with no draws has no distribution")
    return _adopt(RationalDistribution, {"entries": tuple([(label, fractions.Fraction(size, total))
                                                          for label, size in bundle.fibres])})


def _escape(label: str) -> str:
    return label.replace("\\", "\\\\").replace(",", "\\,")


def product_bundle(b1: LabelledBundle, b2: LabelledBundle) -> LabelledBundle:
    """The product bundle: paired labels, multiplied fibre sizes.

    Outcome (l1, l2) is labelled ``(l1,l2)`` with a backslash before each
    ``\\`` and ``,`` inside l1 and l2, so that the first unescaped comma
    separates them and distinct label pairs give distinct labels; labels
    with neither character appear as they are.  Its empirical distribution
    is the independent product of the two marginals, and its polynomial is
    the product of theirs.
    """
    right = [(_escape(l2), s2) for l2, s2 in b2.fibres]
    return _adopt(LabelledBundle, {"fibres": tuple([(f"({_escape(l1)},{l2})", s1 * s2)
                                                   for l1, s1 in b1.fibres for l2, s2 in right])})
