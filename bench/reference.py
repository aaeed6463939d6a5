"""Reference results computed without dirpoly, along routes the library does not take.

Polynomials are plain ``{base: coefficient}`` dicts.  Logarithms are taken
of exact integer ratios (``log1p`` near 1, so nothing cancels) and summed
with ``math.fsum``; probabilities stay ``Fraction`` until the last step.
Decimal rendering splits an integer into chunks, so results beyond
CPython's int-to-str digit limit can be rendered without raising it.
"""

from __future__ import annotations

import math
from fractions import Fraction

_LN2 = math.log(2)
_HALF = Fraction(1, 2)


def log2_ratio(num: int, den: int) -> float:
    """log2(num/den) for positive integers, accurate when the ratio is near 1."""
    r = Fraction(num, den)
    if _HALF < r < 2:
        return math.log1p(float(r - 1)) / _LN2
    return math.log2(num) - math.log2(den)


def poly_text(terms: dict[int, int]) -> str:
    """The canonical text the README documents: bases descending, base 1 bare."""
    parts = []
    for base in sorted((b for b, c in terms.items() if c), reverse=True):
        coeff = terms[base]
        if base == 1:
            parts.append(str(coeff))
        elif coeff == 1:
            parts.append(f"{base}^y")
        else:
            parts.append(f"{coeff}*{base}^y")
    return " + ".join(parts) or "0"


def poly_add(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out = dict(a)
    for base, coeff in b.items():
        out[base] = out.get(base, 0) + coeff
    return out


def poly_mul(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for b1, c1 in a.items():
        for b2, c2 in b.items():
            out[b1 * b2] = out.get(b1 * b2, 0) + c1 * c2
    return out


def poly_eval(terms: dict[int, int], n: int) -> int:
    return sum(coeff * pow(base, n) for base, coeff in terms.items())


def draws(terms: dict[int, int]) -> int:
    return sum(base * coeff for base, coeff in terms.items())


def outcomes(terms: dict[int, int]) -> int:
    return sum(terms.values())


def entropy(terms: dict[int, int]) -> float:
    """Shannon entropy in bits of the fibre multiset {size: count}."""
    total = draws(terms)
    return math.fsum(
        coeff * base / total * log2_ratio(total, base)
        for base, coeff in terms.items() if base
    )


def width(terms: dict[int, int]) -> float:
    """P**(1/A) from log2 W = (sum a*n*log2 n) / A, never forming P."""
    total = draws(terms)
    return 2.0 ** (math.fsum(coeff * base * math.log2(base)
                             for base, coeff in terms.items() if base > 1) / total)


def power_product_bits(terms: dict[int, int]) -> int:
    """Bit length of P = prod n**(a*n), estimated from logarithms."""
    return int(math.fsum(c * b * math.log2(b) for b, c in terms.items() if b > 1)) + 1


def cross(d_sizes: list[int], e_sizes: list[int]) -> dict:
    """Cross entropy, KL, cross width and degeneracy for fibres matched by position."""
    d_total, e_total = sum(d_sizes), sum(e_sizes)
    pairs = [(d, e) for d, e in zip(d_sizes, e_sizes) if d]
    if any(e == 0 for _, e in pairs):
        return {"degenerate": True, "cross_entropy": math.inf, "kl": math.inf,
                "cross_width": 0.0, "cross_area": e_total}
    h = math.fsum(d / d_total * log2_ratio(e_total, e) for d, e in pairs)
    kl = math.fsum(d / d_total * log2_ratio(d * e_total, d_total * e) for d, e in pairs)
    w = 2.0 ** (math.fsum(d * math.log2(e) for d, e in pairs) / d_total)
    return {"degenerate": False, "cross_entropy": h, "kl": kl,
            "cross_width": w, "cross_area": e_total, "cross_length": 2.0 ** h}


def over_base_bits(d_sizes: list[int], e_sizes: list[int]) -> int:
    """Bit length of prod |e_i|**|d_i|, estimated from logarithms (0 when the product is 0)."""
    if any(d and not e for d, e in zip(d_sizes, e_sizes)):
        return 0
    return int(math.fsum(d * math.log2(e) for d, e in zip(d_sizes, e_sizes) if d)) + 1


def over_base_count(d_sizes: list[int], e_sizes: list[int]) -> int:
    """Outcome-fixing morphisms: one factor |e_i| per draw of d_i, by repeated squaring."""
    result = 1
    for d, e in zip(d_sizes, e_sizes):
        result *= pow(e, d)
    return result


def hom_count(d: dict[int, int], e: dict[int, int]) -> int:
    """|Hom(d, e)| as a product over d's fibres of (sum over e's fibres of |e_j|**|d_i|)."""
    result = 1
    for base, coeff in d.items():
        inner = sum(pow(size, base) * count for size, count in e.items())
        for _ in range(coeff):
            result *= inner
    return result


def realise(probabilities: list[Fraction]) -> list[int]:
    """Fibre sizes of the minimal bundle inducing the distribution."""
    n = 1
    for p in probabilities:
        n = n * p.denominator // math.gcd(n, p.denominator)
    return [int(p * n) for p in probabilities]


_CHUNK = 1000  # digits; far below any int-to-str limit


def decimal(n: int) -> str:
    """Decimal digits of a natural number of any size."""
    if n < 10**_CHUNK:
        return str(n)
    k = _CHUNK
    while 10 ** (2 * k) <= n:
        k *= 2
    hi, lo = divmod(n, 10**k)
    return decimal(hi) + decimal(lo).zfill(k)


def close(value: float, ref: float, rel: float) -> bool:
    """value within rel of ref; infinities and zeros must match exactly."""
    if math.isinf(ref) or ref == 0:
        return value == ref
    return abs(value - ref) <= rel * abs(ref)
