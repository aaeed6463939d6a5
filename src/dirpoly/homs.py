"""Hom-set counting for Dirichlet polynomials, with a brute-force oracle.

A morphism between the bundles of two polynomials is a pair of maps
(outcomes to outcomes, draws to draws) making the evident square commute:
every draw in a fibre d[i] must land in the fibre over the image outcome.
Counting them factors per source fibre:

    |Hom(d, e)| = product over fibres d[i] of (sum over fibres e[j] of |e[j]|**|d[i]|)

with 0**0 == 1: an empty source fibre maps into any fibre in exactly one
way (the empty function).  Both counts multiply through
``core._power_product``, the over-base one over the pairs of ``_aligned``;
its cost model is stated in the ``core`` docstring.
``enumerate_bundle_morphisms`` actually constructs every morphism and is
the independent check for it, guarded to small sizes.
"""

from __future__ import annotations

import itertools

from .core import DirPoly, LabelledBundle, _power_product, _Record

#: Per-side draw limit for the brute-force enumerator.
ENUMERATION_MAX_DRAWS = 8
#: Largest hom-set the brute-force enumerator builds.
ENUMERATION_MAX_MORPHISMS = 100_000


def hom_count(d: DirPoly, e: DirPoly) -> int:
    """|Hom(d, e)| as an exact natural number.

    The inner sum over e's fibres of |e[j]|**m is e evaluated at m, so the
    count is the product of e(m)**a over the terms a * m^y of d.
    """
    return _power_product([(coeff, e(base)) for base, coeff in d.terms.items()])


def _aligned(bd: LabelledBundle, be: LabelledBundle) -> list[tuple[int, int]]:
    """[(|d[i]|, |e[i]|)] in bd's order, matched by label; the bundles must share their labels.

    A bundle's labels are distinct, so the sets are equal when they are as
    many and each of bd's labels is one of be's: one dict, not two."""
    e_sizes = be.sizes_by_label
    if len(e_sizes) == len(bd.fibres):
        try:
            return [(d_size, e_sizes[label]) for label, d_size in bd.fibres]
        except KeyError:
            pass
    raise ValueError("bundles must have identical label sets")


def hom_count_over_base(bd: LabelledBundle, be: LabelledBundle) -> int:
    """Morphisms that fix every outcome: product of |e[i]|**|d[i]|, 0**0 == 1.

    Requires the two bundles to share their label set; fibres are matched
    by label, not position.
    """
    return _power_product(_aligned(bd, be))


class BundleMorphism(_Record):
    """One commuting square between two labelled bundles.

    ``base_map`` pairs each source label with its target label, in source
    order.  ``total_maps[k]`` sends each draw index of the k-th source
    fibre to a draw index inside the fibre over the mapped label.
    """

    base_map: tuple[tuple[str, str], ...]
    total_maps: tuple[tuple[int, ...], ...]


def morphism_is_valid(bd: LabelledBundle, be: LabelledBundle, m: BundleMorphism) -> bool:
    """Check the commuting-square condition against the two bundles."""
    e_sizes = be.sizes_by_label
    if len(m.base_map) != bd.num_outcomes or len(m.total_maps) != bd.num_outcomes:
        return False
    for (src, dst), total, (label, d_size) in zip(m.base_map, m.total_maps, bd.fibres):
        if src != label or dst not in e_sizes:
            return False
        if len(total) != d_size:
            return False
        if any(not 0 <= t < e_sizes[dst] for t in total):
            return False
    return True


def enumerate_bundle_morphisms(
    bd: LabelledBundle, be: LabelledBundle, fix_base: bool = False
) -> list[BundleMorphism]:
    """All bundle morphisms bd -> be, in a deterministic order.

    With ``fix_base`` only identity-on-outcomes morphisms are produced,
    which requires identical label sets.  Both sides are capped at
    ENUMERATION_MAX_DRAWS draws, and the closed-form count at
    ENUMERATION_MAX_MORPHISMS before anything is built; every base map visited
    carries a morphism, so that cap bounds the loop too, however many empty
    fibres slip past the draw cap.  This is an oracle, not a production path.
    """
    if bd.num_draws > ENUMERATION_MAX_DRAWS or be.num_draws > ENUMERATION_MAX_DRAWS:
        raise ValueError(
            f"enumeration is limited to {ENUMERATION_MAX_DRAWS} draws per side"
        )
    # hom_count_over_base also rejects mismatched label sets.
    count = hom_count_over_base(bd, be) if fix_base else hom_count(bd.to_poly(), be.to_poly())
    if count > ENUMERATION_MAX_MORPHISMS:
        raise ValueError(
            f"enumeration is limited to {ENUMERATION_MAX_MORPHISMS} morphisms"
        )
    e_sizes = be.sizes_by_label
    if fix_base:
        base_choices = [(label,) for label, _ in bd.fibres]
    else:
        # A positive fibre has no map into an empty one: offer it the others only.
        nonempty = tuple([label for label, size in be.fibres if size])
        base_choices = [nonempty if d_size else be.labels for _, d_size in bd.fibres]

    out: list[BundleMorphism] = []
    for targets in itertools.product(*base_choices):
        base_map = tuple(list(zip(bd.labels, targets)))
        # Per source fibre, every function into the chosen target fibre.
        fibre_spaces = [itertools.product(range(e_sizes[dst]), repeat=d_size)
                        for (_, d_size), dst in zip(bd.fibres, targets)]
        for total_maps in itertools.product(*fibre_spaces):
            out.append(BundleMorphism(base_map, tuple(total_maps)))
    return out
