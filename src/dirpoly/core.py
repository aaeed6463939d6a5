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
factor.  Every product of powers goes through ``_power_product``: the
power product P of ``rect``, the hom counts of ``homs`` and the cross
width's product in ``measures``.  A large one goes to ``_power_chain``,
which writes each base as 2**s * m with m odd: the powers of two cost one
final shift by the sum of e*s, and the odd parts are raised by one power
m**e when one is left, or else by one squaring chain over the exponent
bits, one squaring per bit of the largest exponent with each level's set
odd parts multiplied in as one small ``_product``: no power per term and
no tree of large factors.  That loop costs more than it saves on small
results, so it runs only past a size cutoff over the original bases,
``CHAIN_MIN_BITS``; below it the powers b**e are multiplied as a tree.

Tuples built on a per-call path come from a list (a list comprehension, a
list, or ``*`` over a list), never from a generator, a ``zip`` or ``*``
over a generator, so that CPython's tuple free lists are reused (README,
Library, says why).
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Iterable, Mapping

#: Size of a power product, the sum of exp*bit_length(base) over its powers,
#: from which they go to ``_power_chain`` (README gives its measurement).
CHAIN_MIN_BITS = 6_000


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
        if isinstance(other, int):  # no polynomial embeds a negative integer
            return other >= 0 and self._terms == _coerce(other)._terms
        if not isinstance(other, DirPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        if self._terms.keys() <= {1}:  # a constant hashes as the int it equals
            return hash(self._terms.get(1, 0))
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
            if base in out:
                out[base] += c1 * c2
            else:
                out[base] = c1 * c2
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
    exponents and bases >= 2: the odd parts m of the bases 2**s * m by one
    power or one squaring chain (Straus's simultaneous exponentiation; Knuth,
    TAOCP vol. 2, 4.6.3), then one shift by the sum of exp*s."""
    shift, odd = 0, []
    for exp, base in pairs:
        s = (base & -base).bit_length() - 1
        shift += exp * s
        if base >> s > 1:
            odd.append((exp, base >> s))
    if len(odd) == 1:
        return odd[0][1] ** odd[0][0] << shift
    acc = 1
    for j in reversed(range(max([exp for exp, _ in odd], default=0).bit_length())):
        acc = acc * acc * _product([m for exp, m in odd if exp >> j & 1])
    return acc << shift


def _power_product(pairs: list[tuple[int, int]]) -> int:
    """Exact product of base**exp over (exp, base) pairs, with 0**0 == 1; 0,
    before any power is taken, when a zero base has a positive exponent.
    Past ``CHAIN_MIN_BITS`` all powers of bases >= 2 go to ``_power_chain``;
    the other pairs are factors 1.  Those powers are picked out only past
    the cutoff, which is cheaper below it (README gives the timing)."""
    bits = 0
    for exp, base in pairs:
        if exp:
            if base > 1:
                bits += exp * base.bit_length()
            elif not base:
                return 0
    if bits >= CHAIN_MIN_BITS:
        return _power_chain([(exp, base) for exp, base in pairs if exp and base > 1])
    return _product([base**exp for exp, base in pairs])


def _adopt(cls, fields: dict):
    """``cls(**fields)`` of a ``_Record``, given every field, already known
    to be valid, and any cached or carried value already known: set at once,
    not by one object.__setattr__ call per field."""
    obj = object.__new__(cls)
    object.__setattr__(obj, "__dict__", fields)
    return obj


def _coerce(value: object) -> DirPoly:
    if isinstance(value, DirPoly):
        return value
    if isinstance(value, int):
        if value < 0:
            raise ValueError("cannot embed a negative integer")
        return DirPoly.constant(value)
    return NotImplemented


class _FromDataclasses:
    """``__dataclass_fields__``, ``__dataclass_params__`` or ``__signature__`` of a record class, made
    by ``dataclasses.make_dataclass`` on first use, for a caller that imported ``dataclasses`` or ``inspect``."""

    def __set_name__(self, owner, name: str):
        self.name = name

    def __get__(self, obj, cls):
        if cls is _Record:  # not a record class itself: it keeps its descriptors for its subclasses
            raise AttributeError(self.name)
        import dataclasses, inspect
        types = {}
        for base in reversed(cls.__mro__):
            types.update(getattr(base, "__annotations__", {}))
        made = dataclasses.make_dataclass(cls.__name__, [(name, types[name]) for name in cls._fields], frozen=True)
        cls.__dataclass_fields__, cls.__dataclass_params__ = made.__dataclass_fields__, made.__dataclass_params__
        cls.__signature__ = inspect.signature(made)
        return getattr(cls, self.name)


class _Record:
    """What ``@dataclass(frozen=True)`` makes of a class, without importing ``dataclasses``
    (and ``inspect``, ``ast``, ``dis``) at start-up: its fields, its bases' then its own annotations,
    are taken by position or keyword, compared and hashed as a tuple within one class and
    printed as ``Name(field=value, ...)``; setting or deleting an attribute raises
    AttributeError.  ``dataclasses.replace``, ``fields``, ``astuple`` and ``is_dataclass`` take it."""

    __dataclass_fields__ = _FromDataclasses()
    __dataclass_params__ = _FromDataclasses()
    __signature__ = _FromDataclasses()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # From Python 3.10 a class's __annotations__ are only its own.
        cls._fields = cls.__match_args__ = tuple({**dict.fromkeys(getattr(cls, "_fields", ())), **cls.__annotations__})

    def __init__(self, *args, **kwargs):
        names = self._fields
        values = dict(zip(names, args), **kwargs)
        if len(args) + len(kwargs) != len(names) or values.keys() != {*names}:
            raise TypeError(f"{type(self).__name__}() takes each of {', '.join(names)} once, by position or keyword")
        object.__setattr__(self, "__dict__", values)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join([f'{n}={getattr(self, n)!r}' for n in self._fields])})"

    def __setattr__(self, name: str, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


class LabelledBundle(_Record):
    """An ordered list of (outcome label, fibre size) with distinct labels.

    Forgetting labels and order leaves a multiset of fibre sizes, which is
    exactly a Dirichlet polynomial; ``to_poly`` performs that conversion.
    """

    fibres: tuple[tuple[str, int], ...]
    #: The distribution the bundle realises; only ``from_rational_distribution`` sets it.
    _distribution = None

    def __init__(self, fibres: Iterable[tuple[str, int]]):
        fibres = tuple([(label, size) for label, size in fibres])
        seen = set()
        total = 0
        for label, size in fibres:
            if not isinstance(label, str):
                raise TypeError("labels must be strings")
            if not isinstance(size, int) or size < 0:
                raise ValueError(f"fibre size must be a natural number, got {size!r}")
            if label in seen:
                raise ValueError(f"duplicate outcome label {label!r}")
            seen.add(label)
            total += size
        object.__setattr__(self, "__dict__", {"fibres": fibres, "num_draws": total})

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
        return cls(list(zip(labels, sizes)))

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple([label for label, _ in self.fibres])

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple([size for _, size in self.fibres])

    @property
    def sizes_by_label(self) -> dict[str, int]:
        return dict(self.fibres)

    @property
    def num_outcomes(self) -> int:
        return len(self.fibres)

    @cached_property
    def num_draws(self) -> int:
        """|d(1)|, the sum of the fibre sizes: set by the check, or by whatever
        adopts a bundle it already knows the total of."""
        return sum([size for _, size in self.fibres])

    def to_poly(self) -> DirPoly:
        """Forget labels and order; inverse of ``DirPoly.to_bundle``."""
        terms: dict[int, int] = {}
        for _, size in self.fibres:
            terms[size] = terms.get(size, 0) + 1
        return DirPoly(terms)
