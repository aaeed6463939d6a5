"""cross-kl: check_cross_rectangle_area plus to_distribution on label-aligned pairs.

Each pair is a data bundle and a model bundle over the same labels, the
model listing them in a shuffled order.  Some pairs arrive as exact
rational distributions and are realised through
``from_rational_distribution``; some give an outcome with data mass an
empty model fibre, which takes the degenerate +inf path.  The exact
integer prod |e_i|**|d_i| of ``hom_count_over_base`` dominates the large
pairs.  No expression is parsed and no rectangle is built.
"""

from __future__ import annotations

import random
from fractions import Fraction

import reference as ref
from common import MIN_KL, Item, Probe, ladder, split

NAME = "cross-kl"
WHY = ("label-aligned cross entropy/KL over 10 to 6*10^4 draws, some pairs realised from"
       " rational distributions, some degenerate; bypasses expr and rect")
POOL = 160


def _pair(i: int, rng: random.Random):
    draws = ladder(i, POOL, 1.0, 4.8, 1.5, rng)
    k = min(2 + (i * 7) % 31, max(2, draws // 3))
    degenerate = i % 20 in (0, 1, 2)
    model_draws = max(k, round(draws * (0.5 + (i % 4) * 0.5)))
    for _ in range(1000):
        d = split(draws, k, rng)
        e = split(model_draws, k, rng)
        if k >= 3 and i % 6 == 5:
            d[0], e[1] = 0, 0   # empty data fibre, and an empty model fibre with no data on it
            d[1] += 1
            e[0] += 1
        if degenerate:
            e[-1], e[0] = 0, e[0] + e[-1]
        if degenerate or ref.cross(d, e)["kl"] >= MIN_KL:
            return d, e
    raise RuntimeError(f"no pair with KL >= {MIN_KL} for item {i}")


class Workload:
    name = NAME
    why = WHY

    def generate(self, dp, rng: random.Random, workdir) -> list[Item]:
        items = []
        for i in range(POOL):
            d, e = _pair(i, rng)
            if as_dist := i % 20 in (2, 3, 4, 5, 6, 7, 8, 9):
                d = ref.realise([Fraction(s, sum(d)) for s in d])
                e = ref.realise([Fraction(s, sum(e)) for s in e])
            labels = [f"c{n}" for n in rng.sample(range(10 * len(d)), len(d))]
            order = rng.sample(range(len(d)), len(d))
            if as_dist:
                dt, et = sum(d), sum(e)
                d_in = tuple((lab, Fraction(s, dt)) for lab, s in zip(labels, d))
                e_in = tuple((labels[j], Fraction(e[j], et)) for j in order)
            else:
                d_in = tuple(zip(labels, d))
                e_in = tuple((labels[j], e[j]) for j in order)
            items.append(Item((as_dist, d_in, e_in), (labels, d, e), {
                "outcomes": len(d),
                "draws": sum(d),
                "p_bits": ref.over_base_bits(d, e),
            }))
        return items

    def reference(self, item: Item, tol) -> dict:
        labels, d, e = item.spec
        total = sum(d)
        return {
            "fibres": tuple(zip(labels, d)),
            "distribution": tuple((lab, Fraction(s, total)) for lab, s in zip(labels, d)),
            **ref.cross(d, e),
        }

    def call(self, dp, inputs):
        as_dist, d_in, e_in = inputs
        if as_dist:
            bd = dp.from_rational_distribution(dp.RationalDistribution(d_in))
            be = dp.from_rational_distribution(dp.RationalDistribution(e_in))
        else:
            bd, be = dp.LabelledBundle(d_in), dp.LabelledBundle(e_in)
        return bd, dp.check_cross_rectangle_area(bd, be), dp.to_distribution(bd)

    def check(self, dp, expected: dict, result, tol) -> bool:
        bd, report, dist = result
        cm = report.cross
        status = "degenerate" if expected["degenerate"] else "pass"
        return (
            bd.fibres == expected["fibres"]
            and report.status == status
            and cm.cross_area == expected["cross_area"]
            and ref.close(cm.cross_entropy, expected["cross_entropy"], tol.default)
            and ref.close(cm.kl, expected["kl"], tol.default)
            and ref.close(cm.cross_width, expected["cross_width"], tol.default)
            and dist.entries == expected["distribution"]
        )

    def probes(self, workdir) -> list[Probe]:
        """KL of (N, N) against (N+1, N-1) is computed as H(d,e) - H(d) and cancels."""
        n = 10**4

        def run(dp, tol):
            kl = dp.cross_measures(dp.LabelledBundle.from_sizes([n, n]),
                                   dp.LabelledBundle.from_sizes([n + 1, n - 1])).kl
            return ref.close(kl, ref.cross([n, n], [n + 1, n - 1])["kl"], tol.default)
        return [Probe("kl (N,N) vs (N+1,N-1) at N=10^4", run)]
