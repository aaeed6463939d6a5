"""Replay tests/data/golden.json, results pinned when the corpus was written.

The corpus (written by tests/make_golden.py) holds the cross-kl pools of
benchmark seeds 1-3, run through the library, and every cli-mix request of
the same seeds, run through ``main()``: the ``from-dist``, ``to-dist``,
``cross`` and ``kl`` requests, the other commands' requests, and the usage
errors, kept as their last stderr line beside each ``--help``'s first line;
and about 2,000 texts through ``parse``, each with its canonical text or its
ParseError message and position, replayed under the 4,300-digit int/str
limit they were written under.
Integers and strings must match exactly, floats within the bound the corpus
names for each (``DEFAULT_TOL``); an infinity must match exactly.  Human
output prints a float to 12 significant digits, less any trailing zeros, so
a float there must also keep its count of digits; a structured float is
Python's shortest repr, whose length a last-ulp difference changes.  The
bound ``ANY`` (the residues of ``check``) asks only for a float.  A failure
lists the cases that differ.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from dirpoly import LabelledBundle, ParseError, RationalDistribution, check_cross_rectangle_area, format_poly
from dirpoly import from_rational_distribution, parse, to_distribution
from dirpoly.cli import main
from dirpoly.measures import DEFAULT_TOL

CORPUS = Path(__file__).parent / "data" / "golden.json"
BOUNDS = {"DEFAULT_TOL": DEFAULT_TOL, "ANY": None}
#: The int/str digit limit of the ``parse`` section; where an interpreter has
#: none, its texts holding a longer literal are not replayed, as they parse.
DIGIT_LIMIT = 4300
PAST_LIMIT = re.compile("[0-9]{%d}" % (DIGIT_LIMIT + 1))


@pytest.fixture(scope="module")
def corpus() -> dict:
    corpus = json.loads(CORPUS.read_text(encoding="utf-8"))
    assert corpus["format"] == 1
    return corpus


def close(value: float, expected: float, rel: float) -> bool:
    if math.isinf(expected) or expected == 0:
        return value == expected
    return abs(value - expected) <= rel * abs(expected)


def differences(case: dict) -> list[str]:
    """What a cross-kl case now gives that differs from the corpus."""
    as_dist = case["as_dist"]
    d_in, e_in = ([(label, Fraction(v) if as_dist else v) for label, v in case[side]] for side in ("data", "model"))
    if as_dist:
        bd = from_rational_distribution(RationalDistribution(d_in))
        be = from_rational_distribution(RationalDistribution(e_in))
    else:
        bd, be = LabelledBundle(d_in), LabelledBundle(e_in)
    check = check_cross_rectangle_area(bd, be)
    got = {
        "data_sizes": list(bd.sizes),
        "model_sizes": list(be.sizes),
        "labels": [bd.labels, be.labels],
        "num_draws": [bd.num_draws, be.num_draws],
        "distribution": [f"{p.numerator}/{p.denominator}" for p in to_distribution(bd).probabilities],
        "status": check.status,
        "cross_area": check.cross.cross_area,
    }
    expected = {**case, "labels": [tuple([label for label, _ in case[side]]) for side in ("data", "model")]}
    diffs = [key for key, value in got.items() if value != expected[key]]
    diffs += [name for name, text in case["floats"].items()
              if not close(getattr(check.cross, name), float(text), DEFAULT_TOL)]
    return diffs


def test_the_cross_kl_pools_give_their_recorded_results(corpus):
    failed = {case["case"]: diffs for case in corpus["cross"] if (diffs := differences(case))}
    assert corpus["cross"] and not failed, f"{len(failed)} cross-kl cases differ: {failed}"


def digits(text: str) -> int:
    """Significant digits of a float's text."""
    return len(text.split("e")[0].replace(".", "").lstrip("-0"))


def replay(case: dict, corpus: dict, directory: Path) -> list[str]:
    """What a cli-mix case now gives that differs from the corpus."""
    mark, where = corpus["dir_mark"], str(directory)
    for name, text in case["files"].items():
        (directory / name).write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([arg.replace(mark, where) for arg in case["argv"]])
    floats = re.compile(corpus["float_pattern"])
    stdout = out.getvalue().replace(where, mark)
    template, texts = floats.sub(corpus["float_mark"], stdout), floats.findall(stdout)
    diffs = [key for key, same in (
        ("exit", code == case["exit"]),
        ("stderr", err.getvalue().replace(where, mark) == case["stderr"]),
        ("stdout", template == case["stdout"] if "stdout" in case
         else hashlib.sha256(template.encode()).hexdigest() == case["stdout_sha256"]),
        ("float count", len(texts) == len(case["floats"])),
    ) if not same]
    human = "structured" not in case["argv"]
    diffs += [f"float {i}: {text} for {expected}" for i, (text, (expected, bound)) in enumerate(zip(texts, case["floats"]))
              if BOUNDS[bound] is not None and (not close(float(text), float(expected), BOUNDS[bound])
                                                or human and digits(text) != digits(expected))]
    for name, text in case.get("written", {}).items():
        if (directory / name).read_text(encoding="utf-8") != text:
            diffs.append(f"written {name}")
    return diffs


def test_the_cli_mix_file_commands_print_their_recorded_output(corpus, tmp_path):
    failed = {}
    for i, case in enumerate(corpus["cli"]):
        directory = tmp_path / str(i)  # each case in its own directory, as no file may leak into the next
        directory.mkdir()
        if diffs := replay(case, corpus, directory):
            failed[case["case"]] = diffs
    assert corpus["cli"] and not failed, f"{len(failed)} cli-mix cases differ: {failed}"


def test_every_other_cli_mix_request_prints_its_recorded_output(corpus, tmp_path):
    failed = {}
    for i, case in enumerate(corpus["cli_other"]):
        (directory := tmp_path / str(i)).mkdir()
        if diffs := replay(case, corpus, directory):
            failed[case["case"]] = diffs
    assert corpus["cli_other"] and not failed, f"{len(failed)} cli-mix cases differ: {failed}"


def test_each_help_and_usage_error_prints_its_recorded_line(corpus, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage lines to the terminal's width
    failed = []
    for case in corpus["usage"]:
        code = main(case["argv"])
        out, err = capsys.readouterr()
        if case["exit"] == 0:
            same = (code, out.splitlines()[:1], err) == (0, [case["stdout_first"]], "")
        else:
            same = (code, out, err.splitlines()[-1:]) == (case["exit"], "", [case["stderr_last"]])
        if not same:
            failed.append(case["case"])
    assert corpus["usage"] and not failed, f"{len(failed)} usage cases differ: {failed}"


def parse_outcome(text: str) -> list:
    try:
        return [text, format_poly(parse(text))]
    except ParseError as e:
        return [text, str(e), e.position]


def test_each_parse_text_gives_its_recorded_text_or_error(corpus):
    get_limit, cases = getattr(sys, "get_int_max_str_digits", None), corpus["parse"]
    if get_limit is None:
        cases = [case for case in cases if not PAST_LIMIT.search(case[0])]
    else:
        limit = get_limit()
        sys.set_int_max_str_digits(DIGIT_LIMIT)
    try:
        failed = [f"{i}: {case[0][:40]!r}" for i, case in enumerate(cases) if parse_outcome(case[0]) != case]
    finally:
        if get_limit is not None:
            sys.set_int_max_str_digits(limit)
    assert len(cases) > 1900 and not failed, f"{len(failed)} parse cases differ: {failed}"
