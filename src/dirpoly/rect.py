"""The rectangle rig and the canonical map into it.

A rectangle is a pair (area A, width W) of nonnegative reals.  Multiplication
is componentwise; addition adds areas and takes the weighted geometric mean
of the widths:

    (A1, W1) + (A2, W2) = (A1 + A2, (W1**A1 * W2**A2) ** (1/(A1+A2)))

Widths of polynomial images are usually irrational, so an element is stored
exactly as (A, P) with P = W**A, both arbitrary-precision naturals.  In that
encoding addition is integer multiplication of the P parts and
multiplication is an integer power combination, so all rig arithmetic stays
exact; the only approximation is the one width root ``_width_of_log`` of
log2 P, which ``RectValue.width`` takes through ``_width``, and ``measures``
directly for both its widths.

The encoding quotients out the width of zero-area elements: every (0, W)
collapses to area 0, P = 1.  No rig operation lets the width of a zero-area
element influence a positive-area result, so nothing is lost.

``rect_of`` maps a Dirichlet polynomial to its rectangle by sending each
n^y to (n, n) and extending along sums and products; it lands on
(total draws, product of size**size over the fibres), with 0**0 == 1.  That
product P = prod n**(a*n) over the terms a*n^y goes through
``core._power_product``; the ``core`` docstring states its cost model.
"""

from __future__ import annotations

import math

from .core import CHAIN_MIN_BITS, DirPoly, _adopt, _power_product, _Record  # noqa: F401 (CHAIN_MIN_BITS re-exported)

#: Guaranteed relative error bound of the float width (conservative; the
#: log2-based extraction is accurate to a few ulps at any realistic size).
WIDTH_REL_ERROR = 1e-12


class RectValue(_Record):
    """Exact rectangle (area, power_product) with power_product = W**area."""

    area: int
    power_product: int

    def __init__(self, area: int, power_product: int):
        if not isinstance(area, int) or area < 0:
            raise ValueError("area must be a natural number")
        if not isinstance(power_product, int) or power_product < 0:
            raise ValueError("power product must be a natural number")
        # Zero-area elements form a single class; 0**0 == 1.
        object.__setattr__(self, "__dict__", {"area": area, "power_product": power_product if area else 1})

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
        return WidthApprox(_width(self.area, self.power_product), WIDTH_REL_ERROR)


def _width(area: int, power_product: int) -> float:
    """The width P**(1/A) of a positive area A as a float, within WIDTH_REL_ERROR."""
    if power_product <= 1:  # exact at any area, even past the float range
        return float(power_product)
    # math.log2 handles ints beyond float range, so huge P is fine.
    return _width_of_log(area, math.log2(power_product))


def _width_of_log(area: int, log_p: float) -> float:
    """The width 2**(log_p/A) of a positive area A, given log_p = log2 P; 1.0 at log_p = 0."""
    try:
        exponent = log_p / area
    except OverflowError:  # an area past the float range: divide by its top 64 bits, then scale
        shift = area.bit_length() - 64
        exponent = math.ldexp(log_p / (area >> shift), -shift)
    return 2.0**exponent


ZERO = RectValue(0, 1)
ONE = RectValue(1, 1)


class WidthApprox(_Record):
    """A float width together with its guaranteed relative error bound."""

    value: float
    relative_error_bound: float

    def __float__(self) -> float:
        return self.value


def rect_of(d: DirPoly) -> RectValue:
    """Map a polynomial to its exact rectangle (total draws, size**size product)."""
    # Both are naturals, and P is the empty product 1 at area 0: nothing to check.
    pairs = []
    area = 0
    for base, coeff in d._terms.items():
        draws = coeff * base
        area += draws
        pairs.append((draws, base))
    return _adopt(RectValue, {"area": area, "power_product": _power_product(pairs)})
