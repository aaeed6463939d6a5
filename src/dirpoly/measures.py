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
Every logarithm is of an exact integer ratio, through log1p near 1, by the
one rule of ``_log2_ratio``, and every sum is a math.fsum, so nothing
cancels.  ``_entropy`` sums H(d) over fibre sizes and their counts;
``_cross_sums`` walks the aligned pairs once for both H(d, e) and KL, so
that ``dirpoly kl`` needs neither the cross width's exact product nor the
cross length 2**H, which can pass the float range while KL is finite.  One
width root, ``rect._width_of_log``, gives both widths.
"""

from __future__ import annotations

import math

from .core import DirPoly, LabelledBundle, _adopt, _power_product, _Record
from .homs import _aligned
from .rect import _width_of_log, rect_of

#: Default relative tolerance of the rectangle-area checks.
DEFAULT_TOL = 1e-9
_LN2 = math.log(2)


class Measures(_Record):
    """Area, power product, width, entropy (bits), and length of one polynomial."""

    area: int
    power_product: int
    width: float
    entropy: float
    length: float


class CrossMeasures(_Record):
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


def _entropy(counts, total: int) -> float:
    """Entropy of (fibre size s, count c) pairs over total draws: the fsum of
    c*s/total * log2(total/s), empty fibres adding nothing."""
    return math.fsum([c * s / total * _log2_ratio(total, s) for s, c in counts if s])


def entropy(bundle: LabelledBundle) -> float:
    """Base-2 Shannon entropy of the bundle's empirical distribution."""
    total = bundle.num_draws
    if total == 0:
        raise ValueError("entropy is undefined for a bundle with no draws")
    return _entropy(((size, 1) for _, size in bundle.fibres), total)


def measures(d: DirPoly) -> Measures:
    """All five measures of a polynomial with at least one draw."""
    r = rect_of(d)
    area, power = r.area, r.power_product
    if area == 0:
        raise ValueError("measures are undefined for a polynomial with no draws")
    h = _entropy(d._terms.items(), area)
    log_power = math.log2(power)  # P >= 1: its draws are coeff*base, so a base 0 has exponent 0
    return _adopt(Measures, {"area": area, "power_product": power, "width": _width_of_log(area, log_power),
                             "entropy": h, "length": 2.0**h})


class AreaCheck(_Record):
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


def _check_tol(tol: float) -> float:
    """The tolerance, -0.0 read as 0.0 so that no bound is -0; refuse one that is
    not a finite number >= 0 (NaN fails every comparison)."""
    if not 0 <= tol < math.inf:
        raise ValueError(f"the tolerance must be a finite number >= 0, got {tol!r}")
    return abs(tol)


def check_rectangle_area(d: DirPoly, tol: float = DEFAULT_TOL) -> AreaCheck:
    """Verify A == L*W for one polynomial, both in floats and in log form."""
    tol = _check_tol(tol)
    m = measures(d)
    area = m.area
    product = m.length * m.width
    float_error = abs(area - product)
    float_bound = tol * area
    log_area = math.log2(area)
    log_error = abs(area * m.entropy + math.log2(m.power_product) - area * log_area)
    log_bound = float_bound * log_area
    return _adopt(AreaCheck, {"measures": m, "product": product, "float_error": float_error,
                              "float_bound": float_bound, "log_error": log_error, "log_bound": log_bound,
                              "tol": tol, "passed": float_error <= float_bound and log_error <= log_bound})


def _cross_pairs(bd: LabelledBundle, be: LabelledBundle) -> tuple[list[tuple[int, int]], int, int]:
    """The ``homs._aligned`` pairs of data bd and model be, and both draw counts."""
    pairs = _aligned(bd, be)
    d_total = bd.num_draws
    e_total = be.num_draws
    if d_total == 0 or e_total == 0:
        raise ValueError("cross measures are undefined for a bundle with no draws")
    return pairs, d_total, e_total


def _cross_sums(pairs: list[tuple[int, int]], d_total: int, e_total: int) -> tuple[float, float]:
    """(H(d, e), KL) over (data size d, model size e) pairs in one walk: each
    positive d adds d/d_total * log2(e_total/e) to the cross entropy and
    d/d_total * log2(p/q) to KL, from p/q = (d*e_total)/(d_total*e) itself,
    where H(d,e) - H(d) cancels near 0; (inf, inf) once a positive d has an
    empty model fibre."""
    h, kl = [], []
    for d, e in pairs:
        if d:
            if not e:
                return math.inf, math.inf
            weight = d / d_total
            h.append(weight * _log2_ratio(e_total, e))
            kl.append(weight * _log2_ratio(d * e_total, d_total * e))
    return math.fsum(h), math.fsum(kl)


def cross_measures(bd: LabelledBundle, be: LabelledBundle) -> CrossMeasures:
    """Cross measures of data bundle bd against model bundle be.

    Fibres are matched by label, as ``homs._aligned`` pairs them; the cross
    width is the |d(1)|-th root of the exact product of |e[i]|**|d[i]|,
    taken only when no positive data fibre has an empty model fibre.
    """
    return _cross_measures(*_cross_pairs(bd, be))


def _cross_measures(pairs: list[tuple[int, int]], d_total: int, e_total: int) -> CrossMeasures:
    """``cross_measures`` of the ``_cross_pairs`` of two bundles."""
    h, kl = _cross_sums(pairs, d_total, e_total)
    if h == math.inf:
        return _adopt(CrossMeasures, {"cross_entropy": math.inf, "cross_area": e_total, "cross_width": 0.0,
                                      "cross_length": math.inf, "kl": math.inf})
    return _adopt(CrossMeasures, {"cross_entropy": h, "cross_area": e_total,
                                  "cross_width": _width_of_log(d_total, math.log2(_power_product(pairs))),
                                  "cross_length": 2.0**h, "kl": kl})


class CrossAreaCheck(_Record):
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
    return _check_cross(cross_measures(bd, be), tol)


def _check_cross(cm: CrossMeasures, tol: float) -> CrossAreaCheck:
    """The cross rectangle-area check of cross measures already taken."""
    tol = _check_tol(tol)
    if math.isinf(cm.cross_entropy):
        return _adopt(CrossAreaCheck, {"status": "degenerate", "cross": cm, "product": None,
                                       "float_error": None, "float_bound": None, "tol": tol})
    product = cm.cross_length * cm.cross_width
    float_error = abs(cm.cross_area - product)
    float_bound = tol * cm.cross_area
    return _adopt(CrossAreaCheck, {"status": "pass" if float_error <= float_bound else "fail", "cross": cm,
                                   "product": product, "float_error": float_error, "float_bound": float_bound,
                                   "tol": tol})
