"""The rectangle rig and the canonical map into it.

A rectangle is a pair (area A, width W) of nonnegative reals.  Multiplication
is componentwise; addition adds areas and takes the weighted geometric mean
of the widths:

    (A1, W1) + (A2, W2) = (A1 + A2, (W1**A1 * W2**A2) ** (1/(A1+A2)))

Widths of polynomial images are usually irrational, so an element is stored
exactly as (A, P) with P = W**A, both arbitrary-precision naturals.  In that
encoding addition is integer multiplication of the P parts and
multiplication is an integer power combination, so all rig arithmetic stays
exact; the only approximation happens in ``width()``, the final root
extraction, which also gives the cross width of ``measures``.

The encoding quotients out the width of zero-area elements: every (0, W)
collapses to area 0, P = 1.  No rig operation lets the width of a zero-area
element influence a positive-area result, so nothing is lost.

``rect_of`` maps a Dirichlet polynomial to its rectangle by sending each
n^y to (n, n) and extending along sums and products; it lands on
(total draws, product of size**size over the fibres), with 0**0 == 1.  That
product P = prod n**(a*n) over the terms a*n^y is the costly step for large
polynomials.  Past ``CHAIN_MIN_BITS`` it is one squaring chain over the bits
of the exponents a*n (``core._power_chain``), whose last squaring, of half
P's size, dominates the cost; below it, and for a single term, it is the
powers n**(a*n) multiplied through ``core._product``, whose few large
multiplications cost less than the chain's Python loop of one step per
exponent bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import DirPoly, _power_chain, _product

#: Guaranteed relative error bound of the float width (conservative; the
#: log2-based extraction is accurate to a few ulps at any realistic size).
WIDTH_REL_ERROR = 1e-12
#: Size of P, estimated as the sum of a*n*bit_length(n) over the terms, from
#: which ``rect_of`` builds it with the squaring chain.  The chain's median
#: time matched the powers-and-tree path's near 4,500 bits, both on 3 to 34
#: small bases and on 2 to 4 large ones (40 polynomials per size, Python
#: 3.11); from 6,000 bits it was faster on at least three in four of them.
CHAIN_MIN_BITS = 6_000


@dataclass(frozen=True)
class RectValue:
    """Exact rectangle (area, power_product) with power_product = W**area."""

    area: int
    power_product: int

    def __post_init__(self):
        if not isinstance(self.area, int) or self.area < 0:
            raise ValueError("area must be a natural number")
        if not isinstance(self.power_product, int) or self.power_product < 0:
            raise ValueError("power product must be a natural number")
        if self.area == 0 and self.power_product != 1:
            # Zero-area elements form a single class; 0**0 == 1.
            object.__setattr__(self, "power_product", 1)

    def __add__(self, other: RectValue) -> RectValue:
        if not isinstance(other, RectValue):
            return NotImplemented
        # W**(A1+A2) == W1**A1 * W2**A2, so the P parts just multiply.
        return RectValue(self.area + other.area, self.power_product * other.power_product)

    def __mul__(self, other: RectValue) -> RectValue:
        if not isinstance(other, RectValue):
            return NotImplemented
        # (W1*W2)**(A1*A2) == P1**A2 * P2**A1.
        return RectValue(
            self.area * other.area,
            self.power_product**other.area * other.power_product**self.area,
        )

    def width(self) -> WidthApprox:
        """The width P**(1/A) as a float; undefined at zero area."""
        if self.area == 0:
            raise ValueError("width is undefined at zero area")
        if self.power_product <= 1:  # exact at any area, even past the float range
            return WidthApprox(float(self.power_product), WIDTH_REL_ERROR)
        # math.log2 handles ints beyond float range, so huge P is fine.
        log_p = math.log2(self.power_product)
        try:
            exponent = log_p / self.area
        except OverflowError:  # an area past the float range: divide by its top 64 bits, then scale
            shift = self.area.bit_length() - 64
            exponent = math.ldexp(log_p / (self.area >> shift), -shift)
        return WidthApprox(2.0**exponent, WIDTH_REL_ERROR)


ZERO = RectValue(0, 1)
ONE = RectValue(1, 1)


@dataclass(frozen=True)
class WidthApprox:
    """A float width together with its guaranteed relative error bound."""

    value: float
    relative_error_bound: float

    def __float__(self) -> float:
        return self.value


def rect_of(d: DirPoly) -> RectValue:
    """Map a polynomial to its exact rectangle (total draws, size**size product)."""
    area = bits = 0
    pairs = []
    for base, coeff in d.terms.items():
        exp = coeff * base
        area += exp
        if base >= 2:  # bases 0 and 1 contribute factor 1
            pairs.append((exp, base))
            bits += exp * base.bit_length()
    if len(pairs) > 1 and bits >= CHAIN_MIN_BITS:
        return RectValue(area, _power_chain(pairs))
    return RectValue(area, _product([base**exp for exp, base in pairs]))
