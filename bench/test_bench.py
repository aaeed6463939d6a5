"""Self-tests of the benchmark: the oracles reject wrong results, and every run emits its metrics.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

import climix
import crosskl
import ladder
import run
import tracing

sys.path.insert(0, str(run.SRC))
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TOL = SimpleNamespace(default=1e-9, width=1e-12)


@pytest.fixture(scope="module")
def dp():
    return run.fresh_import()


def pool(workload, dp, tmp_path):
    items = workload.generate(dp, random.Random("1:inputs"), tmp_path)
    return items, [workload.reference(item, TOL) for item in items]


def test_tolerances_match_the_library(dp):
    assert TOL.default == sys.modules["dirpoly.measures"].DEFAULT_TOL
    assert TOL.width == sys.modules["dirpoly.rect"].WIDTH_REL_ERROR


def test_ladder_oracle_flags_perturbed_results(dp, tmp_path):
    w = ladder.Workload()
    items, expected = pool(w, dp, tmp_path)
    for item, exp in list(zip(items, expected))[::25]:
        d, report, text = w.call(dp, item.inputs)
        assert w.check(dp, exp, (d, report, text), TOL)
        m = report.measures
        wrong_entropy = dataclasses.replace(
            report, measures=dataclasses.replace(m, entropy=m.entropy * (1 + 1e-7) + 1e-12))
        wrong_area = dataclasses.replace(report, measures=dataclasses.replace(m, area=m.area + 1))
        wrong_width = dataclasses.replace(report, measures=dataclasses.replace(m, width=m.width * (1 + 1e-9)))
        for bad in [
            (d, wrong_entropy, text),
            (d, wrong_area, text),
            (d, wrong_width, text),
            (d, dataclasses.replace(report, passed=False), text),
            (d, report, text + " + 1"),
            (d + 1, report, text),
        ]:
            assert not w.check(dp, exp, bad, TOL)


def test_crosskl_oracle_flags_perturbed_results(dp, tmp_path):
    w = crosskl.Workload()
    items, expected = pool(w, dp, tmp_path)
    degenerate = 0
    for item, exp in list(zip(items, expected))[::9]:
        bd, report, dist = w.call(dp, item.inputs)
        assert w.check(dp, exp, (bd, report, dist), TOL)
        cm = report.cross
        degenerate += exp["degenerate"]
        flipped = "pass" if report.status == "degenerate" else "degenerate"
        bad_entry = (("relabelled", dist.entries[0][1]),) + dist.entries[1:]
        for bad in [
            (bd, dataclasses.replace(report, status=flipped), dist),
            (bd, dataclasses.replace(report, cross=dataclasses.replace(cm, cross_area=cm.cross_area + 1)), dist),
            (dp.LabelledBundle(bd.fibres[::-1]), report, dist),
            (bd, report, dataclasses.replace(dist, entries=bad_entry)),
        ]:
            assert not w.check(dp, exp, bad, TOL)
        if not exp["degenerate"]:
            for field in ("cross_entropy", "kl", "cross_width"):
                value = getattr(cm, field) * (1 + 1e-7)
                bad = dataclasses.replace(report, cross=dataclasses.replace(cm, **{field: value}))
                assert not w.check(dp, exp, (bd, bad, dist), TOL)
    assert degenerate, "the sample must include a degenerate pair"


def accepted(w, dp, exp, result) -> bool:
    """The verdict the benchmark gives: an oracle that cannot read a result rejects it."""
    try:
        return w.check(dp, exp, result, TOL)
    except Exception:
        return False


def test_climix_oracle_flags_perturbed_results(dp, tmp_path):
    w = climix.Workload()
    items, expected = pool(w, dp, tmp_path)
    for item, exp in zip(items, expected):
        code, out, err = w.call(dp, item.inputs)
        assert accepted(w, dp, exp, (code, out, err)), item.inputs
        assert not accepted(w, dp, exp, (3 - code, out, err))
        if exp.get("error"):
            assert not accepted(w, dp, exp, (code, "0\n", err))
            continue
        digit = next((i for i, c in enumerate(out) if c.isdigit()), None)
        changed = (out.replace("inf", "0").replace("Infinity", "0") if digit is None
                   else out[:digit] + str((int(out[digit]) + 1) % 10) + out[digit + 1:])
        assert not accepted(w, dp, exp, (code, changed, err)), item.inputs
        assert not accepted(w, dp, exp, (code, out + "extra\n", err))


def test_probes_report_the_known_defects(dp, tmp_path):
    """Every probe yields a verdict, even where the library raises instead of answering."""
    for module in (ladder, crosskl, climix):
        results = run.run_probes(module.Workload(), dp, TOL, tmp_path)
        assert results and all(isinstance(ok, bool) for ok in results.values())


def test_self_times_partition_the_request_time(dp, tmp_path):
    w = ladder.Workload()
    items, _ = pool(w, dp, tmp_path)
    tracer = tracing.Tracer()
    tracer.install(dp)
    try:
        for item in items[:40]:
            tracer.run_request(w.call, dp, item.inputs)
    finally:
        tracer.uninstall()
    assert not hasattr(dp.parse, "__wrapped__")  # originals restored
    roots = sum(tracer.end[s] - tracer.start[s] for s in range(len(tracer.start)) if tracer.parent[s] < 0)
    assert sum(tracer.self_ns().values()) == roots
    calls = tracer.calls()
    assert calls["expr.parse"] == calls["measures.check"] == calls["rect.rect_of"] == 40


def bench(*args, cwd=run.ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_named_metric_is_emitted(workload, trace):
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "0.2", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for entry in wanted:
        metric = result["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"] and math.isfinite(metric["value"])
        if not trace:
            assert metric["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "cli-mix", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
