"""Seeded, closed-loop benchmark of dirpoly; one workload per process.

    python3 bench/run.py --workload measures-ladder --seed 1 --seconds 20 --trace 0

Run from the repository root; the program under test is imported from
./src.  One caller sends each request as soon as the previous one
returns.  A run builds its inputs from the seed, times set-up (a fresh
import of dirpoly plus input generation, repeated), computes every
expected result along a route that does not use dirpoly, then runs whole
passes over the request pool in seeded orders until the time spent inside
dirpoly reaches ``--seconds`` and at least MIN_REQUESTS requests ran.
Every result is checked; a wrong result or an escaping exception counts as
failed.  Fixed inputs with known defects ("probes") run once afterwards,
outside the timed loop, and are reported separately.

Reported times are expressed at a reference host speed (gauge.py): a
fixed kernel is timed after every GAUGE_EVERY_NS spent inside dirpoly and
before every set-up repetition, and each time is scaled by the kernel
times around it.  A CLI process start is scaled by the bare interpreter
start next to it.  The unscaled figures are printed and kept in the run
record.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics
named in BENCHMARK.json; with ``--trace 1`` it holds the per-layer ones,
from a pass of the same requests with spans recorded around each
module's public functions.  A run record and, when tracing, the spans go
to .bench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

import climix
import crosskl
import ladder
import tracing
from common import size_stats
from gauge import Gauge

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = {w.NAME: w.Workload for w in (ladder, crosskl, climix)}
SETUP_REPEATS = 11
MIN_REQUESTS = 1100      # so that p99 leaves at least ten requests beyond it
MAX_SECONDS_FACTOR = 4   # hard stop for a very slow program
COLD_STARTS = 41         # pairs of process starts, spread over the passes
GAUGE_EVERY_NS = 5_000_000  # time inside dirpoly between two gauge samples
BARE_REF_MS = 40.0       # bare interpreter start that defines the reference speed of cold starts


def fresh_import():
    """Import dirpoly from ./src, discarding any copy already imported."""
    for name in [n for n in sys.modules if n == "dirpoly" or n.startswith("dirpoly.")]:
        del sys.modules[name]
    dp = importlib.import_module("dirpoly")
    importlib.import_module("dirpoly.cli")
    return dp


def setup(workload, seed: int, workdir: Path):
    """SETUP_REPEATS fresh imports plus input generations; keep the last.

    Returns the package, the pool and each repetition's seconds, raw and
    at the gauge's reference speed.
    """
    gauge, times = Gauge(), []
    for rep in range(SETUP_REPEATS):
        inputs_dir = workdir / f"inputs{rep}"
        gauge.sample(rep)
        t0 = time.perf_counter()
        dp = fresh_import()
        inputs_dir.mkdir()
        items = workload.generate(dp, random.Random(f"{seed}:inputs"), inputs_dir)
        times.append(time.perf_counter() - t0)
        if rep < SETUP_REPEATS - 1:
            shutil.rmtree(inputs_dir)
    if not Path(dp.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"dirpoly was imported from {dp.__file__}, not from {SRC}")
    return dp, items, times, [t * gauge.scale(rep) for rep, t in enumerate(times)]


class Server:
    """Sends one request at a time to the program and checks each result."""

    def __init__(self, workload, dp, items, expected, tol):
        self.workload, self.dp, self.items, self.expected, self.tol = (
            workload, dp, items, expected, tol)

    def plain(self, inputs):
        return self.workload.call(self.dp, inputs)

    def serve(self, i: int, call) -> tuple[int, bool]:
        """Latency (ns) of request i through ``call`` and whether its result is right."""
        t0 = time.perf_counter_ns()
        try:
            result = call(self.items[i].inputs)
        except Exception as exc:  # an exception escaping the program is a failed request
            result = exc
        elapsed = time.perf_counter_ns() - t0
        if isinstance(result, Exception):
            return elapsed, False
        try:
            return elapsed, bool(self.workload.check(self.dp, self.expected[i], result, self.tol))
        except Exception:  # a result the oracle cannot even read is wrong
            return elapsed, False

    def measure(self, rng: random.Random, seconds: float, between_passes):
        """Whole passes in fresh seeded orders until ``seconds`` inside dirpoly and MIN_REQUESTS.

        ``between_passes()`` runs after each pass, outside the clock.  The
        gauge is sampled after every GAUGE_EVERY_NS spent inside dirpoly.
        Returns the orders, the latencies (ns), their gauge scales and the failures.
        """
        gauge = Gauge()
        orders, latencies, failed = [], [], 0
        busy = since_sample = 0
        while not (busy >= seconds * 1e9 and len(latencies) >= MIN_REQUESTS
                   or busy >= MAX_SECONDS_FACTOR * seconds * 1e9):
            orders.append(rng.sample(range(len(self.items)), len(self.items)))
            for i in orders[-1]:
                if since_sample >= GAUGE_EVERY_NS or not gauge.positions:
                    gauge.sample(len(latencies))
                    since_sample = 0
                elapsed, ok = self.serve(i, self.plain)
                latencies.append(elapsed)
                failed += not ok
                busy += elapsed
                since_sample += elapsed
            between_passes()
        return orders, latencies, [gauge.scale(j) for j in range(len(latencies))], failed

    def traced(self, orders, tracer):
        """Each request of the given passes twice, untraced then traced, both checked.

        Pairing the two calls keeps drift in host speed out of the overhead
        ratio.  Returns both latency lists (ns), the gauge scale of each
        pair and the failures.
        """
        counts = getattr(self.workload, "counts", lambda result: {})

        def traced_call(inputs):
            result = tracer.run_request(self.workload.call, self.dp, inputs)
            for name, value in counts(result).items():
                tracer.counters[name] += value
            return result

        gauge = Gauge()
        plain_ns, traced_ns, failed = [], [], 0
        since_sample = 0
        for i in (i for order in orders for i in order):
            if since_sample >= GAUGE_EVERY_NS or not gauge.positions:
                gauge.sample(len(traced_ns))
                since_sample = 0
            for call, out in ((self.plain, plain_ns), (traced_call, traced_ns)):
                elapsed, ok = self.serve(i, call)
                out.append(elapsed)
                failed += not ok
                since_sample += elapsed
        return plain_ns, traced_ns, [gauge.scale(k) for k in range(len(traced_ns))], failed


def percentile(sorted_values, q: float):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def run_probes(workload, dp, tol, workdir: Path) -> dict[str, bool]:
    results = {}
    for probe in workload.probes(workdir):
        try:
            results[probe.name] = bool(probe.run(dp, tol))
        except Exception:  # an escaping exception is the defect being probed
            results[probe.name] = False
    return results


class ColdStarts:
    """Wall ms of ``python -m dirpoly.cli`` on a tiny request, next to ``python -c pass``.

    Each ``pair()`` starts the two one after the other, alternating which
    goes first; the run calls it between passes so that the starts sample
    the whole run.  The bare start is the gauge for the CLI start: both are
    process starts and slow down together, so the ratio within a pair is
    steady where either alone drifts with the host.
    """

    def __init__(self):
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.cli_cmd = [sys.executable, "-m", "dirpoly.cli", "eval", "4^y + 4", "2"]
        self.bare_cmd = [sys.executable, "-c", "pass"]
        self.cli: list[float] = []
        self.bare: list[float] = []
        self._start(self.cli_cmd)  # writes the bytecode cache, as any installed copy would have it

    def _start(self, cmd) -> float:
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=60)
        elapsed = (time.perf_counter() - t0) * 1e3
        if proc.returncode != 0 or (cmd is self.cli_cmd and proc.stdout != "20\n"):
            raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stdout!r} {proc.stderr!r}")
        return elapsed

    def pair(self) -> None:
        if len(self.cli) >= COLD_STARTS:
            return
        pair = [(self.cli_cmd, self.cli), (self.bare_cmd, self.bare)]
        for cmd, out in pair if len(self.cli) % 2 else pair[::-1]:
            out.append(self._start(cmd))

    def finish(self) -> None:
        while len(self.cli) < COLD_STARTS:
            self.pair()

    def cold_start_ms(self) -> float:
        """Median CLI start at the speed where a bare interpreter starts in BARE_REF_MS."""
        return BARE_REF_MS * statistics.median(c / b for c, b in zip(self.cli, self.bare))


def commit() -> str | None:
    """HEAD of the checkout's git repository, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref_name = text[5:]
    loose = ROOT / ".git" / ref_name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref_name):
                return line.split()[0]
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "dirpoly").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dirpoly" / "__init__.py").is_file():
        print(f"error: no dirpoly package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        return _run(args, workload, wanted, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workload, wanted, workdir: Path) -> int:
    dp, items, setup_times, setup_scaled = setup(workload, args.seed, workdir)
    tol = SimpleNamespace(default=sys.modules["dirpoly.measures"].DEFAULT_TOL,
                          width=sys.modules["dirpoly.rect"].WIDTH_REL_ERROR)
    t0 = time.perf_counter()
    expected = [workload.reference(item, tol) for item in items]
    reference_s = time.perf_counter() - t0
    server = Server(workload, dp, items, expected, tol)
    starts = ColdStarts()

    metrics: dict[str, float] = {}
    seconds = args.seconds / 2 if args.trace else args.seconds
    orders, latencies, scales, failed = server.measure(
        random.Random(f"{args.seed}:order"), seconds, starts.pair)
    starts.finish()
    attempted, correct = len(latencies), len(latencies) - failed
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(dp)
        try:
            plain_ns, traced_ns, traced_scales, traced_failed = server.traced(orders, tracer)
        finally:
            tracer.uninstall()
        attempted += 2 * len(traced_ns)
        failed += traced_failed
        metrics.update(tracing.layer_metrics(tracer, traced_scales))
        metrics["trace.overhead_ratio"] = sum(traced_ns) / sum(plain_ns)

    probes = run_probes(workload, dp, tol, workdir)
    scaled = sorted(ns * f for ns, f in zip(latencies, scales))
    cold_ms = starts.cold_start_ms()
    metrics.update({
        "goodput_rps": correct / (sum(scaled) / 1e9),
        "p50_ms": statistics.median(scaled) / 1e6,
        "p99_ms": percentile(scaled, 99) / 1e6,
        "setup_s": statistics.median(setup_scaled),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "cold_start_ms": cold_ms,
        "cli.import_ms": cold_ms - BARE_REF_MS,
        "probe.known_defects": sum(not ok for ok in probes.values()),
    })
    raw = sorted(latencies)
    unscaled = {
        "goodput_rps": correct / (sum(raw) / 1e9),
        "p50_ms": statistics.median(raw) / 1e6,
        "p99_ms": percentile(raw, 99) / 1e6,
        "setup_s": statistics.median(setup_times),
        "cold_start_ms": statistics.median(starts.cli),
        "mean_scale": statistics.fmean(scales),
    }

    error_rate = failed / attempted
    record = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "commit": commit(),
        "source_digest": source_digest(),
        "sizes": size_stats(items),
        "pool": len(items),
        "passes": len(orders),
        "attempted": attempted,
        "failed": failed,
        "error_rate": error_rate,
        "setup_s": setup_times,
        "reference_s": reference_s,
        "cold_start_ms": starts.cli,
        "bare_start_ms": starts.bare,
        "probes": probes,
        "metrics": metrics,
        "unscaled": unscaled,
    }
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write(OUT / f"{stem}.spans.tsv.gz")

    print(f"workload {workload.name}: {attempted} requests in {len(orders)} passes over"
          f" {len(items)}, {failed} failed, error_rate {error_rate:.6g}")
    print(f"python {record['python']}, commit {record['commit']}, source {record['source_digest']}")
    for key, stats in record["sizes"].items():
        print(f"size {key}: min {stats['min']} median {stats['median']} max {stats['max']}")
    for name, ok in probes.items():
        print(f"probe {'ok' if ok else 'KNOWN DEFECT'}: {name}")
    print("unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in unscaled.items()))
    result = {}
    for entry in wanted:
        value = metrics[entry["name"]]
        print(f"{entry['name']} {value:.6g} {entry['unit']}")
        result[entry["name"]] = {"value": value, "unit": entry["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
