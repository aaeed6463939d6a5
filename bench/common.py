"""Pieces shared by the three workloads."""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass, field


# Generated cross pairs keep KL at least this far from 0: KL near 0 has a
# known precision defect, which a probe reports on its own.
MIN_KL = 1e-3


@dataclass
class Item:
    """One request of a workload's pool.

    ``inputs`` is all the program receives; ``spec`` is what the generator
    knows about how the inputs were made, from which the reference is
    computed; ``sizes`` feeds the size statistics of the run record.
    """

    inputs: object
    spec: object
    sizes: dict = field(default_factory=dict)


@dataclass
class Probe:
    """A fixed input whose result the library got wrong when the probe was written; run untimed."""

    name: str
    run: object  # callable(dp, tol) -> bool, True when the result is right


def ladder(index: int, count: int, lo: float, hi: float, gamma: float,
           rng: random.Random, jitter: float = 0.005) -> int:
    """Size of pool item ``index`` on a log10 ladder from 10**lo to 10**hi.

    Items sit at fixed quantiles, skewed towards small sizes by ``gamma``,
    so every seed gets the same cost profile; the seed only nudges each
    size by up to ``jitter`` decades.
    """
    q = (index + 0.5) / count
    return max(1, round(10 ** (lo + (hi - lo) * q**gamma + rng.uniform(-jitter, jitter))))


def split(total: int, parts: int, rng: random.Random) -> list[int]:
    """Random composition of ``total`` into ``parts`` positive sizes (total >= parts)."""
    weights = [rng.uniform(0.2, 1.8) for _ in range(parts)]
    scale = (total - parts) / sum(weights)
    sizes = [1 + int(w * scale) for w in weights]
    for j in range(total - sum(sizes)):
        sizes[j % parts] += 1
    return sizes


def render_poly(terms: dict[int, int], rng: random.Random) -> str:
    """A non-canonical spelling: shuffled terms, either factor order, split coefficients."""
    parts = []
    for base, coeff in terms.items():
        pieces = [coeff]
        if coeff > 1 and rng.random() < 0.2:
            first = rng.randint(1, coeff - 1)
            pieces = [first, coeff - first]
        for c in pieces:
            if base == 1:
                parts.append(str(c))
            elif c == 1:
                parts.append(f"{base}^y")
            else:
                parts.append(f"{c}*{base}^y" if rng.random() < 0.5 else f"{base}^y*{c}")
    rng.shuffle(parts)
    return " + ".join(parts)


def size_stats(items: list[Item]) -> dict:
    """min / median / max of each size key over the pool."""
    keys = sorted({key for item in items for key in item.sizes})
    out = {}
    for key in keys:
        values = [item.sizes[key] for item in items if key in item.sizes]
        out[key] = {"min": min(values), "median": statistics.median(values), "max": max(values)}
    return out
