"""Spans around the public functions of each dirpoly module, recorded from outside.

``Tracer.install`` replaces each traced function or method by a wrapper
wherever the name is bound: in its own module, in every module that
imported it (``dirpoly.measures.rect_of`` as well as ``dirpoly.rect.rect_of``)
and on the package.  Every call appends one span (name, parent span,
request, start, end) to flat in-memory arrays; ``uninstall`` puts the
original objects back.  Self time is a span's duration minus the durations
of its direct children, which never overlap because there is one thread.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from collections import defaultdict
from time import perf_counter_ns

# (span name, module, attribute, size counter, counter of (args, result)).
# An attribute "Class.method" wraps the method on the class.
SPECS = [
    ("expr.parse", "expr", "parse", "expr.parse.chars", lambda a, r: len(a[0])),
    ("expr.format", "expr", "format_poly", "expr.format.chars", lambda a, r: len(r)),
    ("core.arith", "core", "DirPoly.__add__", None, None),
    ("core.arith", "core", "DirPoly.__mul__", "core.mul.term_pairs",
     lambda a, r: len(a[0].terms) * (len(a[1].terms) if hasattr(a[1], "terms") else 1)),
    ("core.eval", "core", "DirPoly.__call__", "core.eval.result_bits", lambda a, r: r.bit_length()),
    ("core.to_bundle", "core", "DirPoly.to_bundle", "core.to_bundle.fibres", lambda a, r: len(r.fibres)),
    ("rect.rect_of", "rect", "rect_of", "rect.power_product.bits",
     lambda a, r: r.power_product.bit_length()),
    ("rect.width", "rect", "RectValue.width", None, None),
    ("measures.entropy", "measures", "entropy", "measures.entropy.fibres", lambda a, r: len(a[0].fibres)),
    ("measures.measures", "measures", "measures", None, None),
    ("measures.check", "measures", "check_rectangle_area", None, None),
    ("measures.cross", "measures", "cross_measures", None, None),
    ("measures.check_cross", "measures", "check_cross_rectangle_area", None, None),
    ("homs.over_base", "homs", "hom_count_over_base", "homs.over_base.bits", lambda a, r: r.bit_length()),
    ("homs.hom_count", "homs", "hom_count", "homs.hom_count.bits", lambda a, r: r.bit_length()),
    ("distributions.from_dist", "distributions", "from_rational_distribution",
     "distributions.draws", lambda a, r: r.num_draws),
    ("distributions.to_dist", "distributions", "to_distribution",
     "distributions.draws", lambda a, r: a[0].num_draws),
    ("cli.main", "cli", "main", None, None),
    ("cli.read", "cli", "read_bundle", None, None),
    ("cli.read", "cli", "read_distribution", None, None),
]

LAYERS = ("expr", "core", "rect", "measures", "homs", "distributions", "cli")
SPAN_NAMES = sorted({spec[0] for spec in SPECS})
COUNTERS = sorted({spec[3] for spec in SPECS if spec[3]})
# Method aliases bound to the same function object (``__radd__ = __add__``).
_ALIASES = {"__add__": ("__radd__",), "__mul__": ("__rmul__",)}


class Tracer:
    """Span recorder; one instance per traced phase."""

    REQUEST = "request"

    def __init__(self):
        self.names = [self.REQUEST] + SPAN_NAMES
        self._index = {name: i for i, name in enumerate(self.names)}
        self.name = array("H")
        self.parent = array("q")
        self.request = array("q")
        self.start = array("q")
        self.end = array("q")
        self.counters: dict[str, int] = defaultdict(int)
        self._stack = [-1]
        self._request_id = -1
        self._recording = False
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------
    def _open(self, name_index: int) -> int:
        span = len(self.start)
        self.name.append(name_index)
        self.parent.append(self._stack[-1])
        self.request.append(self._request_id)
        self.start.append(0)
        self.end.append(0)
        self._stack.append(span)
        self.start[span] = perf_counter_ns()
        return span

    def _close(self, span: int) -> None:
        self.end[span] = perf_counter_ns()
        self._stack.pop()

    def run_request(self, fn, *args):
        """Call fn(*args) under a root span of its own request id; spans record only here."""
        self._request_id += 1
        self._recording = True
        span = self._open(0)
        try:
            return fn(*args)
        finally:
            self._close(span)
            self._recording = False

    def _wrap(self, span_name: str, counter: str | None, count, fn):
        index = self._index[span_name]
        layer = span_name.split(".")[0]
        counters = self.counters
        names = self.names

        def traced(*args, **kwargs):
            if not self._recording:
                return fn(*args, **kwargs)
            span = self._open(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(span)
                parent = self.parent[span]
                if parent < 0 or not names[self.name[parent]].startswith(layer + "."):
                    counters[layer + ".errors"] += 1
                raise
            self._close(span)
            if counter:
                counters[counter] += count(args, result)
            if span_name == "cli.main" and result != 0 and result != 1:
                counters["cli.errors"] += 1
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation --------------------------------------------------------
    def install(self, package) -> None:
        """Wrap every traced callable wherever dirpoly binds it."""
        modules = [package] + [
            mod for name, mod in sorted(sys.modules.items())
            if name.startswith(package.__name__ + ".") and mod is not None
        ]
        for span_name, module_name, attr, counter, count in SPECS:
            module = sys.modules[f"{package.__name__}.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                wrapper = self._wrap(span_name, counter, count, original)
                for name in (method,) + _ALIASES.get(method, ()):
                    if cls.__dict__.get(name) is original:
                        self._patch(cls, name, wrapper)
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(span_name, counter, count, original)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, wrapper)

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- analysis ------------------------------------------------------------
    def self_ns(self, weights=None) -> dict[str, float]:
        """Total self time per span name (ns), each span times ``weights[its request]``."""
        child = array("q", bytes(8 * len(self.start)))
        for span in range(len(self.start)):
            parent = self.parent[span]
            if parent >= 0:
                child[parent] += self.end[span] - self.start[span]
        totals = dict.fromkeys(self.names, 0)
        for span in range(len(self.start)):
            own = self.end[span] - self.start[span] - child[span]
            totals[self.names[self.name[span]]] += own * weights[self.request[span]] if weights else own
        return totals

    def calls(self) -> dict[str, int]:
        totals = dict.fromkeys(self.names, 0)
        for index in self.name:
            totals[self.names[index]] += 1
        return totals

    def write(self, path) -> None:
        """All spans as gzip'd tab-separated text, one span per line."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("span\tparent\trequest\tname\tstart_ns\tend_ns\n")
            for span in range(len(self.start)):
                f.write(f"{span}\t{self.parent[span]}\t{self.request[span]}\t"
                        f"{self.names[self.name[span]]}\t{self.start[span]}\t{self.end[span]}\n")


def layer_metrics(tracer: Tracer, scales: list[float]) -> dict[str, float]:
    """Per-request averages of self times (ms, times each request's gauge scale), calls and sizes."""
    requests = len(scales)
    self_ns = tracer.self_ns(scales)
    calls = tracer.calls()
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.self_ms"] = self_ns[name] / 1e6 / requests
        out[f"{name}.calls"] = calls[name] / requests
    for name in COUNTERS:
        out[name] = tracer.counters[name] / requests
    for layer in LAYERS:
        out[f"{layer}.errors"] = tracer.counters[layer + ".errors"] / requests
    out["cli.stdout.bytes"] = tracer.counters["cli.stdout.bytes"] / requests
    return out
