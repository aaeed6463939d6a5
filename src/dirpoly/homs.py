"""Hom-set counting for Dirichlet polynomials, with a brute-force oracle.

A morphism between the bundles of two polynomials is a pair of maps
(outcomes to outcomes, draws to draws) making the evident square commute:
every draw in a fibre d[i] must land in the fibre over the image outcome.
Counting them factors per source fibre:

    |Hom(d, e)| = product over fibres d[i] of (sum over fibres e[j] of |e[j]|**|d[i]|)

with 0**0 == 1: an empty source fibre maps into any fibre in exactly one
way (the empty function).  ``hom_count`` evaluates that closed form,
multiplying its factors with ``core._product``'s balanced tree;
``enumerate_bundle_morphisms`` actually constructs every morphism and is
the independent check for it, guarded to small sizes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import DirPoly, LabelledBundle, _product

#: Per-side draw limit for the brute-force enumerator.
ENUMERATION_MAX_DRAWS = 8
#: Largest hom-set the brute-force enumerator builds.
ENUMERATION_MAX_MORPHISMS = 100_000


def hom_count(d: DirPoly, e: DirPoly) -> int:
    """|Hom(d, e)| as an exact natural number.

    The inner sum over e's fibres of |e[j]|**m is e evaluated at m, so the
    count is the product of e(m)**a over the terms a * m^y of d.
    """
    terms = d.terms.items()
    values = [e(base) for base, _ in terms]
    if 0 in values:  # coefficients are positive: the count is 0 whatever the other powers
        return 0
    return _product([value ** coeff for value, (_, coeff) in zip(values, terms)])


def hom_count_over_base(bd: LabelledBundle, be: LabelledBundle) -> int:
    """Morphisms that fix every outcome: product of |e[i]|**|d[i]|, 0**0 == 1.

    Requires the two bundles to share their label set; fibres are matched
    by label, not position.
    """
    d_sizes = bd.sizes_by_label
    e_sizes = be.sizes_by_label
    if set(d_sizes) != set(e_sizes):
        raise ValueError("bundles must have identical label sets")
    if any(d_size and not e_sizes[label] for label, d_size in d_sizes.items()):
        return 0  # a positive fibre has no map into an empty one; skip the other powers
    return _product([e_sizes[label] ** d_size for label, d_size in d_sizes.items()])


@dataclass(frozen=True)
class BundleMorphism:
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
    ENUMERATION_MAX_MORPHISMS before anything is built, so empty fibres
    cannot slip past the draw cap; this is an oracle, not a production path.
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
        base_choices = [be.labels for _ in bd.fibres]

    out: list[BundleMorphism] = []
    for targets in itertools.product(*base_choices):
        base_map = tuple(zip(bd.labels, targets))
        # Per source fibre, every function into the chosen target fibre;
        # a positive fibre into an empty one admits none.
        fibre_spaces = []
        for (label, d_size), dst in zip(bd.fibres, targets):
            fibre_spaces.append(
                list(itertools.product(range(e_sizes[dst]), repeat=d_size))
            )
        for total_maps in itertools.product(*fibre_spaces):
            out.append(BundleMorphism(base_map, tuple(total_maps)))
    return out
