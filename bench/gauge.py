"""Host speed gauge: expresses measured times at a fixed reference speed.

On a shared host the same code can run up to twice as slowly for minutes
at a time while neighbours compete for the cores, and that drift swamps
the differences the benchmark exists to show.  The gauge times a fixed
kernel at short intervals between measurements: an argparse parser built
and used (many small Python calls, as in the CLI and the parser) and two
big-integer powers multiplied (as in ``rect_of`` and the hom counts).  A
time measured at position p is multiplied by REF_NS over the median
kernel time of the samples around p, i.e. expressed at the speed where the
kernel takes REF_NS.  On a quiet host that factor is close to 1.  The
kernel is the benchmark's own code, so a change to dirpoly cannot move it.
"""

from __future__ import annotations

import argparse
from bisect import bisect_right
from time import perf_counter_ns

REF_NS = 1_000_000  # kernel time that defines the reference speed
WINDOW = 3          # samples on each side that set the local speed


def kernel():
    parser = argparse.ArgumentParser(prog="gauge")
    sub = parser.add_subparsers(dest="command")
    for n in range(4):
        p = sub.add_parser(f"c{n}", help="subcommand")
        p.add_argument("a")
        p.add_argument("--f", choices=["x", "y"], default="x")
    parser.parse_args(["c3", "v", "--f", "y"])
    return pow(1237, 2000) * pow(977, 4000)


class Gauge:
    """Kernel timings keyed by the position (request or repetition index) they precede."""

    def __init__(self):
        self.positions: list[int] = []
        self.times_ns: list[int] = []
        for _ in range(10):  # warm the kernel's code and memory
            kernel()

    def sample(self, position: int) -> None:
        t0 = perf_counter_ns()
        kernel()
        self.times_ns.append(perf_counter_ns() - t0)
        self.positions.append(position)

    def scale(self, position: int) -> float:
        """REF_NS over the median kernel time of the samples around ``position``."""
        at = max(0, bisect_right(self.positions, position) - 1)
        local = sorted(self.times_ns[max(0, at - WINDOW): at + WINDOW + 1])
        return REF_NS / local[len(local) // 2]
