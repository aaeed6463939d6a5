"""Exact rational distributions and their realisation as bundles.

Any finite distribution with rational probabilities arises from a bundle:
with N the lcm of the reduced denominators, outcome x gets prob(x) * N
draws, the smallest bundle inducing it.  ``Fraction`` appears only at the
API boundary, floats nowhere.  A ``RationalDistribution`` is checked in
one pass over its rows, which reads each numerator and denominator once
and raises at the first bad row.  Before any lcm or gcd, it is refused
once a lower bound on the digits of its distinct denominators, taken from
their bit lengths, passes MAX_DENOMINATOR_DIGITS: the lcm and the
divisions by it take time quadratic in those digits.  One lcm N then
gives the integer numerators num * (N // den), which must sum to N.  N is
kept and, when it fits in 64 bits, so are those counts as the realised
fibres, which ``from_rational_distribution`` adopts with no second pass; a
longer N is summed one count at a time.  The bundle it builds carries the
distribution, which ``to_distribution`` returns with no work; any other
bundle starts without one and costs one gcd per fibre, to reduce size /
draw count.  The two conversions adopt what they build, with its draw
count, without checking it again: a valid distribution realises as a valid
bundle (distinct string labels, natural sizes), and a bundle with draws
has a valid distribution (exact fractions summing to 1).

``fractions`` (and with it ``decimal`` and ``numbers``) is imported only by
the functions that make Fractions, to keep it out of the CLI's start-up.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import TYPE_CHECKING, Iterable

from .core import LabelledBundle, _adopt, _Record
from .expr import MAX_OUTPUT_DIGITS, _ratio

if TYPE_CHECKING:
    from fractions import Fraction

#: Most decimal digits the distinct denominators of a distribution may have
#: in all.  A realised draw count past MAX_OUTPUT_DIGITS is not printed anyway;
#: twice that leaves room for denominators that share factors.
MAX_DENOMINATOR_DIGITS = 2 * MAX_OUTPUT_DIGITS
#: A number of b bits has more than (b - 1) * log10(2) digits, so distinct
#: denominators whose bit lengths, less one each, sum past this have more than
#: MAX_DENOMINATOR_DIGITS digits in all.
_DENOMINATOR_BITS = math.ceil(MAX_DENOMINATOR_DIGITS * math.log2(10))


def _shown(p: Fraction) -> str:
    """``_ratio(p)`` for an error message, which a number past the output limit must not replace."""
    try:
        return _ratio(p)
    except ValueError:
        return f"a fraction with a part of more than {MAX_OUTPUT_DIGITS} digits"


class RationalDistribution(_Record):
    """Ordered (label, probability) pairs with exact probabilities summing to 1."""

    entries: tuple[tuple[str, Fraction], ...]
    #: The realised fibres, kept by the check when N fits in 64 bits.
    _fibres = None

    def __init__(self, entries: Iterable[tuple[str, Fraction | int]]):
        import fractions
        fraction = fractions.Fraction
        entries = tuple([(label, p if isinstance(p, fraction) else fraction(p)) for label, p in entries])
        seen = set()
        nums, dens = [], []
        for label, p in entries:
            if not isinstance(label, str):
                raise TypeError("labels must be strings")
            num, den = p.as_integer_ratio()
            if num < 0:
                raise ValueError(f"negative probability {_shown(p)} for {label!r}")
            if label in seen:
                raise ValueError(f"duplicate outcome label {label!r}")
            seen.add(label)
            nums.append(num)
            dens.append(den)
        if sum(map(int.bit_length, dens)) - len(dens) > _DENOMINATOR_BITS:  # before any lcm or gcd
            distinct = {*dens}
            if sum(map(int.bit_length, distinct)) - len(distinct) > _DENOMINATOR_BITS:
                raise ValueError(f"the distinct denominators have more than {MAX_DENOMINATOR_DIGITS} digits in all")
        n = math.lcm(*dens)
        if n >> 64:  # past 64 bits the counts could far outweigh the entries: keep none
            fibres = None
            total = sum(num * (n // den) for num, den in zip(nums, dens))
        else:
            fibres = tuple([(label, num * (n // den)) for (label, _), num, den in zip(entries, nums, dens)])
            total = sum([size for _, size in fibres])
        if total != n:
            raise ValueError(f"probabilities must sum to 1 exactly, got {_shown(fraction(total, n))}")
        object.__setattr__(self, "__dict__", {"entries": entries, "_lcm": n, "_fibres": fibres})

    @cached_property
    def _lcm(self) -> int:
        """N, the lcm of the denominators: set by the check, computed on first
        use by a distribution adopted without one."""
        return math.lcm(*[p.denominator for _, p in self.entries])

    @property
    def probabilities(self) -> tuple[Fraction, ...]:
        return tuple([p for _, p in self.entries])


def from_rational_distribution(dist: RationalDistribution) -> LabelledBundle:
    """The minimal bundle realising the distribution: N draws, N the lcm of the
    reduced denominators, and the exact integer num * (N // den) of them over
    the outcome of probability num/den."""
    n = dist._lcm
    fibres = dist._fibres or tuple([(label, p.numerator * (n // p.denominator)) for label, p in dist.entries])
    return _adopt(LabelledBundle, {"fibres": fibres, "num_draws": n, "_distribution": dist})


def to_distribution(bundle: LabelledBundle) -> RationalDistribution:
    """The empirical distribution of a bundle, as exact reduced fractions:
    for a realised bundle, the one it was realised from."""
    if bundle._distribution is not None:
        return bundle._distribution
    import fractions
    total = bundle.num_draws
    if total == 0:
        raise ValueError("a bundle with no draws has no distribution")
    fraction = fractions.Fraction
    return _adopt(RationalDistribution, {"entries": tuple([(label, fraction(size, total))
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
    return LabelledBundle([(f"({_escape(l1)},{l2})", s1 * s2) for l1, s1 in b1.fibres for l2, s2 in right])
