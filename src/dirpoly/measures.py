"""Entropy, length, and the rectangle-area identity, plus the cross versions.

A bundle with at least one draw is an empirical distribution: outcome i has
probability |d[i]| / |d(1)|.  Its entropy H is the base-2 Shannon entropy of
that distribution, and its length L = 2**H is the perplexity.  Together with
the area A (total draws) and width W from the rectangle rig, these satisfy

    A = L * W

exactly, which ``check_rectangle_area`` verifies two ways: as a float
identity and in exact-logarithmic form 2**(A*H) * P == A**A, where P is the
integer W**A.

The cross versions compare a data bundle d against a model bundle e over
the same outcome labels.  H(d, e) is the expected surprisal of the model
under the data; it is +inf as soon as the model gives an impossible outcome
positive data mass, in which case the cross width is 0 and the cross
rectangle-area check is reported as degenerate rather than pass/fail.
Kullback-Leibler divergence is the data mean of log2(p/q), not H(d, e) - H(d).

Fibre sizes of 0 follow the limit convention 0 * log 0 == 0 throughout.
Every logarithm is of an exact integer ratio, through log1p near 1, and
every sum is a math.fsum, so nothing cancels.  H(d) is H(d, d): one sum,
``_entropy``, gives both, and ``RectValue.width`` gives both widths.  KL
has its own sum, ``_kl``, so that it needs neither the cross width's exact
product nor the cross length 2**H, which can pass the float range while
KL is finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import DirPoly, LabelledBundle, _power_product
from .homs import _aligned
from .rect import RectValue, rect_of

#: Default relative tolerance of the rectangle-area checks.
DEFAULT_TOL = 1e-9
_LN2 = math.log(2)


@dataclass(frozen=True)
class Measures:
    """Area, power product, width, entropy (bits), and length of one polynomial."""

    area: int
    power_product: int
    width: float
    entropy: float
    length: float


@dataclass(frozen=True)
class CrossMeasures:
    """Cross entropy/area/width/length and KL divergence; +inf is math.inf."""

    cross_entropy: float
    cross_area: int
    cross_width: float
    cross_length: float
    kl: float


def _log2_ratio(num: int, den: int) -> float:
    """log2(num/den) of positive integers; log1p of the exact ratio minus 1
    when the ratio lies in (1/2, 2), where log2(num) - log2(den) cancels."""
    if num < 2 * den and den < 2 * num:
        return math.log1p((num - den) / den) / _LN2
    return math.log2(num) - math.log2(den)


def _entropy(triples, d_total: int, e_total: int) -> float:
    """Cross entropy of (data size d, model size e, count c) triples over d_total
    and e_total draws: the fsum of c*d/d_total * log2(e_total/e), empty data
    fibres adding nothing; the entropy where every e is its d."""
    return math.fsum(c * d / d_total * _log2_ratio(e_total, e) for d, e, c in triples if d)


def entropy(bundle: LabelledBundle) -> float:
    """Base-2 Shannon entropy of the bundle's empirical distribution."""
    total = bundle.num_draws
    if total == 0:
        raise ValueError("entropy is undefined for a bundle with no draws")
    return _entropy(((size, size, 1) for _, size in bundle.fibres), total, total)


def measures(d: DirPoly) -> Measures:
    """All five measures of a polynomial with at least one draw."""
    r = rect_of(d)
    if r.area == 0:
        raise ValueError("measures are undefined for a polynomial with no draws")
    terms = d.terms
    h = _entropy(zip(terms, terms, terms.values()), r.area, r.area)
    return Measures(
        area=r.area,
        power_product=r.power_product,
        width=r.width().value,
        entropy=h,
        length=2.0**h,
    )


@dataclass(frozen=True)
class AreaCheck:
    """Result of the rectangle-area verification for one polynomial.

    ``float_error`` is |A - L*W| against the bound tol*A; ``log_error`` is
    |A*H + log2(P) - A*log2(A)| against tol*A*log2(A), the exact-log form.
    """

    measures: Measures
    product: float
    float_error: float
    float_bound: float
    log_error: float
    log_bound: float
    tol: float
    passed: bool


def check_rectangle_area(d: DirPoly, tol: float = DEFAULT_TOL) -> AreaCheck:
    """Verify A == L*W for one polynomial, both in floats and in log form."""
    m = measures(d)
    product = m.length * m.width
    float_error = abs(m.area - product)
    float_bound = tol * m.area
    log_area = math.log2(m.area)
    log_error = abs(m.area * m.entropy + math.log2(m.power_product) - m.area * log_area)
    log_bound = tol * m.area * log_area
    return AreaCheck(
        measures=m,
        product=product,
        float_error=float_error,
        float_bound=float_bound,
        log_error=log_error,
        log_bound=log_bound,
        tol=tol,
        passed=float_error <= float_bound and log_error <= log_bound,
    )


def _cross_pairs(bd: LabelledBundle, be: LabelledBundle) -> tuple[list[tuple[int, int]], int, int]:
    """The ``homs._aligned`` pairs of data bd and model be, and both draw counts."""
    pairs = _aligned(bd, be)
    d_total = bd.num_draws
    e_total = be.num_draws
    if d_total == 0 or e_total == 0:
        raise ValueError("cross measures are undefined for a bundle with no draws")
    return pairs, d_total, e_total


def _kl(pairs: list[tuple[int, int]], d_total: int, e_total: int) -> float:
    """KL divergence over (data size, model size) pairs: the data mean of
    log2(p/q), from p/q = (d*E)/(D*e) itself, where H(d,e) - H(d) cancels
    near 0; +inf when a positive data fibre has an empty model fibre."""
    for d, e in pairs:
        if d and not e:
            return math.inf
    return math.fsum(d / d_total * _log2_ratio(d * e_total, d_total * e) for d, e in pairs if d)


def cross_measures(bd: LabelledBundle, be: LabelledBundle) -> CrossMeasures:
    """Cross measures of data bundle bd against model bundle be.

    Fibres are matched by label, as ``homs._aligned`` pairs them; the cross
    width is the |d(1)|-th root of the exact product of |e[i]|**|d[i]|.
    """
    pairs, d_total, e_total = _cross_pairs(bd, be)
    power = _power_product(pairs)
    if power == 0:  # positive data mass on an empty model fibre
        return CrossMeasures(cross_entropy=math.inf, cross_area=e_total, cross_width=0.0,
                             cross_length=math.inf, kl=math.inf)
    h = _entropy(((d, e, 1) for d, e in pairs), d_total, e_total)
    return CrossMeasures(
        cross_entropy=h,
        cross_area=e_total,
        cross_width=RectValue(d_total, power).width().value,
        cross_length=2.0**h,
        kl=_kl(pairs, d_total, e_total),
    )


@dataclass(frozen=True)
class CrossAreaCheck:
    """Result of the cross rectangle-area verification.

    ``status`` is "pass", "fail", or "degenerate"; the latter means some
    outcome has positive data mass but an empty model fibre, where inf * 0
    leaves the identity undefined and no verdict is given.
    """

    status: str
    cross: CrossMeasures
    product: float | None
    float_error: float | None
    float_bound: float | None
    tol: float


def check_cross_rectangle_area(
    bd: LabelledBundle, be: LabelledBundle, tol: float = DEFAULT_TOL
) -> CrossAreaCheck:
    """Verify A(d,e) == L(d,e) * W(d,e), or report the pair as degenerate."""
    cm = cross_measures(bd, be)
    if math.isinf(cm.cross_entropy):
        return CrossAreaCheck(
            status="degenerate", cross=cm, product=None,
            float_error=None, float_bound=None, tol=tol,
        )
    product = cm.cross_length * cm.cross_width
    float_error = abs(cm.cross_area - product)
    float_bound = tol * cm.cross_area
    status = "pass" if float_error <= float_bound else "fail"
    return CrossAreaCheck(
        status=status, cross=cm, product=product,
        float_error=float_error, float_bound=float_bound, tol=tol,
    )
