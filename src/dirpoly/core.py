"""Exact arithmetic for Dirichlet polynomials and their bundle view.

A Dirichlet polynomial in one variable y is a finite sum

    a_n * n^y + ... + a_2 * 2^y + a_1 * 1^y + a_0 * 0^y

with natural-number bases and coefficients.  It is stored canonically as a
mapping {base: coefficient} with no zero coefficients.  Base-0 terms are
kept: 0^y is not the zero polynomial (it evaluates to 1 at 0 and to 0 at
every n >= 1), so dropping it would change evaluation and hom counts.

The same data can be read as a set-theoretic bundle: a map from a finite
set of "draws" onto a finite set of "outcomes".  Each copy of a term n^y
contributes one outcome whose fibre holds n draws.  ``LabelledBundle``
carries that view with named outcomes, which matters once two bundles have
to be compared outcome-by-outcome (cross entropy, fibrewise hom counts).

Everything here is exact; Python integers are arbitrary precision.
Exact products of many factors go through ``_product``, which multiplies
the two halves of its list recursively: at each level of that tree the big
operands have about the same total size, so the cost is about one
multiplication of the result's size per level, not one per factor as in a
left fold, where every step multiplies the growing result by one more
factor.  A product of powers of small bases, the power product P of
``rect``, is cheaper as one squaring chain over the exponent bits
(``_power_chain``): one squaring per bit of the largest exponent, each
level's set bases multiplied in as one small ``_product``, with no separate
power per term and no tree of large factors.  The chain's Python loop costs
more than it saves on small results, so ``rect`` uses it only past a size
cutoff.  The hom counts of ``homs`` still take each power b**e on its own
and multiply them through the tree (``_power_product``): their main caller,
the cross width, is meant to become a sum of logs and build no product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping


class DirPoly:
    """A Dirichlet polynomial in canonical form.

    Supports ``+`` and ``*`` (with another DirPoly or an int; an int a
    embeds as the constant a * 1^y) and evaluation by calling: ``d(n)``
    is the exact natural number sum of a_j * j**n, with 0**0 == 1.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, int] | None = None):
        canonical: dict[int, int] = {}
        for base, coeff in (terms or {}).items():
            if not isinstance(base, int) or not isinstance(coeff, int):
                raise TypeError("bases and coefficients must be int")
            if base < 0:
                raise ValueError(f"negative base {base}")
            if coeff < 0:
                raise ValueError(f"negative coefficient {coeff} for base {base}")
            if coeff == 0:
                continue
            canonical[base] = canonical.get(base, 0) + coeff
        self._terms = canonical

    @classmethod
    def _wrap(cls, terms: dict[int, int]) -> DirPoly:
        """Adopt an already canonical dict, such as a sum or product of canonical terms."""
        d = object.__new__(cls)
        d._terms = terms
        return d

    @classmethod
    def zero(cls) -> DirPoly:
        return cls()

    @classmethod
    def one(cls) -> DirPoly:
        return cls({1: 1})

    @classmethod
    def exponential(cls, base: int) -> DirPoly:
        """The single-term polynomial n^y."""
        return cls({base: 1})

    @classmethod
    def constant(cls, a: int) -> DirPoly:
        """The natural number a, embedded as a * 1^y."""
        return cls({1: a})

    @property
    def terms(self) -> dict[int, int]:
        """Copy of the canonical {base: coefficient} mapping."""
        return dict(self._terms)

    @property
    def num_outcomes(self) -> int:
        """|d(0)|: the sum of the coefficients."""
        return sum(self._terms.values())

    @property
    def num_draws(self) -> int:
        """|d(1)|: the sum of coefficient * base, computed without powers."""
        return sum(coeff * base for base, coeff in self._terms.items())

    def cardinalities(self) -> tuple[int, int]:
        """(num_outcomes, num_draws) as a pair."""
        return (self.num_outcomes, self.num_draws)

    def __call__(self, n: int) -> int:
        """Evaluate at a natural number: sum of coeff * base**n, 0**0 == 1."""
        if not isinstance(n, int) or n < 0:
            raise ValueError("evaluation point must be a natural number")
        return sum(coeff * base**n for base, coeff in self._terms.items())

    def __add__(self, other: DirPoly | int) -> DirPoly:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._terms)
        for base, coeff in other._terms.items():
            out[base] = out.get(base, 0) + coeff
        return DirPoly._wrap(out)

    __radd__ = __add__

    def __mul__(self, other: DirPoly | int) -> DirPoly:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return DirPoly._wrap(_mul_terms(self._terms, other._terms))

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = DirPoly.constant(other)
        if not isinstance(other, DirPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __repr__(self) -> str:
        items = ", ".join(f"{b}: {c}" for b, c in sorted(self._terms.items(), reverse=True))
        return f"DirPoly({{{items}}})"

    def to_bundle(self, labels: Iterable[str] | None = None) -> LabelledBundle:
        """The bundle view: one fibre of size n per copy of a term n^y.

        Fibres are listed in descending base order.  Default labels are
        "x1".."xk" in that order; supplied labels must match the outcome
        count.
        """
        sizes: list[int] = []
        for base in sorted(self._terms, reverse=True):
            sizes.extend([base] * self._terms[base])
        return LabelledBundle.from_sizes(sizes, labels)


def _mul_terms(a: Mapping[int, int], b: Mapping[int, int]) -> dict[int, int]:
    """Product of term dicts: m^y * n^y == (m*n)^y, coefficients multiply."""
    out: dict[int, int] = {}
    for b1, c1 in a.items():
        for b2, c2 in b.items():
            base = b1 * b2
            out[base] = out.get(base, 0) + c1 * c2
    return out


def _product(factors: list[int]) -> int:
    """Exact product of the factors, multiplying the two halves recursively;
    short lists go to ``math.prod``."""
    if len(factors) <= 8:
        return math.prod(factors)
    half = len(factors) // 2
    return _product(factors[:half]) * _product(factors[half:])


def _power_chain(pairs: list[tuple[int, int]]) -> int:
    """Exact product of base**exp over (exp, base) pairs with positive
    exponents, by one left-to-right squaring chain over the exponent bits:
    at bit j the result so far is squared and multiplied by the ``_product``
    of the bases whose exponent has bit j set (Straus's simultaneous
    exponentiation; Knuth, TAOCP vol. 2, 4.6.3)."""
    acc = 1
    for j in reversed(range(max(exp for exp, _ in pairs).bit_length())):
        acc = acc * acc * _product([base for exp, base in pairs if exp >> j & 1])
    return acc


def _power_product(pairs: list[tuple[int, int]]) -> int:
    """Exact product of base**exp over (exp, base) pairs, with 0**0 == 1; 0,
    before any power is taken, when a zero base has a positive exponent."""
    for exp, base in pairs:
        if exp and not base:
            return 0
    return _product([base**exp for exp, base in pairs])


def _coerce(value: object) -> DirPoly:
    if isinstance(value, DirPoly):
        return value
    if isinstance(value, int):
        if value < 0:
            raise ValueError("cannot embed a negative integer")
        return DirPoly.constant(value)
    return NotImplemented


@dataclass(frozen=True)
class LabelledBundle:
    """An ordered list of (outcome label, fibre size) with distinct labels.

    Forgetting labels and order leaves a multiset of fibre sizes, which is
    exactly a Dirichlet polynomial; ``to_poly`` performs that conversion.
    """

    fibres: tuple[tuple[str, int], ...]

    def __post_init__(self):
        fibres = tuple((label, size) for label, size in self.fibres)
        object.__setattr__(self, "fibres", fibres)
        seen = set()
        for label, size in fibres:
            if not isinstance(label, str):
                raise TypeError("labels must be strings")
            if not isinstance(size, int) or size < 0:
                raise ValueError(f"fibre size must be a natural number, got {size!r}")
            if label in seen:
                raise ValueError(f"duplicate outcome label {label!r}")
            seen.add(label)

    @classmethod
    def _wrap(cls, fibres: tuple[tuple[str, int], ...]) -> LabelledBundle:
        """Adopt fibres already known to be valid, such as a realised distribution's."""
        b = object.__new__(cls)
        object.__setattr__(b, "fibres", fibres)
        return b

    @classmethod
    def from_sizes(cls, sizes: Iterable[int], labels: Iterable[str] | None = None) -> LabelledBundle:
        """Build a bundle from fibre sizes, defaulting labels to x1..xk."""
        sizes = list(sizes)
        if labels is None:
            labels = [f"x{i}" for i in range(1, len(sizes) + 1)]
        else:
            labels = list(labels)
            if len(labels) != len(sizes):
                raise ValueError(f"{len(labels)} labels supplied for {len(sizes)} fibres")
        return cls(tuple(zip(labels, sizes)))

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.fibres)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(size for _, size in self.fibres)

    @property
    def sizes_by_label(self) -> dict[str, int]:
        return dict(self.fibres)

    @property
    def num_outcomes(self) -> int:
        return len(self.fibres)

    @property
    def num_draws(self) -> int:
        return sum(size for _, size in self.fibres)

    def to_poly(self) -> DirPoly:
        """Forget labels and order; inverse of ``DirPoly.to_bundle``."""
        terms: dict[int, int] = {}
        for _, size in self.fibres:
            terms[size] = terms.get(size, 0) + 1
        return DirPoly(terms)
