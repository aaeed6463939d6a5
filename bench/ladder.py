"""measures-ladder: parse -> check_rectangle_area -> format_poly over a size ladder.

Draw counts span from 10 to about 7*10^4 in two shapes.  "many" puts many
outcomes on small fibres, so ``DirPoly.to_bundle`` and the entropy loop
dominate; "few" puts a handful of outcomes on huge fibres, so the exact
power product P = prod n**(a*n) in ``rect_of`` dominates.  No hom count
and no CLI is involved.
"""

from __future__ import annotations

import random

import reference as ref
from common import Item, Probe, ladder, render_poly

NAME = "measures-ladder"
WHY = ("parse, rect_of (P = W^A), to_bundle and entropy over 10 to 7*10^4 draws in two shapes;"
       " bypasses homs and cli")
POOL = 250
# The largest items share one size, so that p99 falls among several items'
# latencies instead of on the boundary between two.
PLATEAU = 8


def _many(draws: int, rng: random.Random, index: int) -> dict[int, int]:
    count = max(1, min(34, round(draws**0.5 / 2)))
    top = max(count + 1, min(64, draws // (2 * count)))
    bases = rng.sample(range(2, top + 1), count)
    weights = [rng.uniform(0.8, 1.2) for _ in bases]
    total = sum(weights)
    terms = {b: max(1, round(draws * w / (total * b))) for b, w in zip(bases, weights)}
    if index % 6 == 0:
        terms[1] = rng.randint(1, 9)
    if index % 10 == 0:
        terms[0] = rng.randint(1, 3)
    return terms


def _few(draws: int, rng: random.Random, index: int) -> dict[int, int]:
    terms: dict[int, int] = {}
    count = 1 + (index // 2) % 4
    weights = [rng.uniform(0.9, 1.1) for _ in range(count)]
    total = sum(weights)
    for j, w in enumerate(weights):
        coeff = 1 + (index + j) % 3
        base = max(2, round(draws * w / (total * coeff)))
        while base in terms:
            base += 1
        terms[base] = coeff
    return terms


class Workload:
    name = NAME
    why = WHY

    def generate(self, dp, rng: random.Random, workdir) -> list[Item]:
        items = []
        for i in range(POOL):
            draws = ladder(min(i, POOL - PLATEAU), POOL, 1.0, 5.0, 1.6, rng)
            terms = (_many if i % 2 == 0 else _few)(draws, rng, i)
            items.append(Item(render_poly(terms, rng), terms, {
                "terms": len(terms),
                "outcomes": ref.outcomes(terms),
                "draws": ref.draws(terms),
                "p_bits": ref.power_product_bits(terms),
            }))
        return items

    def reference(self, item: Item, tol) -> dict:
        terms = item.spec
        return {
            "terms": terms,
            "text": ref.poly_text(terms),
            "outcomes": ref.outcomes(terms),
            "draws": ref.draws(terms),
            "entropy": ref.entropy(terms),
            "width": ref.width(terms),
        }

    def call(self, dp, text: str):
        d = dp.parse(text)
        report = dp.check_rectangle_area(d)
        return d, report, dp.format_poly(d)

    def check(self, dp, expected: dict, result, tol) -> bool:
        d, report, text = result
        m = report.measures
        return (
            d.terms == expected["terms"]
            and d.num_outcomes == expected["outcomes"]
            and m.area == expected["draws"]
            and ref.close(m.entropy, expected["entropy"], tol.default)
            and ref.close(m.width, expected["width"], tol.width)
            and report.passed
            and text == expected["text"]
            and dp.parse(text) == d
        )

    def probes(self, workdir) -> list[Probe]:
        """Entropy of fibres [N-1, 1] loses digits to cancellation at large N."""
        def entropy_probe(n):
            def run(dp, tol):
                h = dp.entropy(dp.LabelledBundle.from_sizes([n - 1, 1]))
                return ref.close(h, ref.entropy({n - 1: 1, 1: 1}), tol.default)
            return Probe(f"entropy [N-1, 1] at N=10^{len(str(n)) - 1}", run)
        return [entropy_probe(10**9), entropy_probe(10**12), entropy_probe(10**15)]
