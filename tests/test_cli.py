"""End-to-end command-line behaviour: output, file formats, exit codes."""

import argparse
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import event, given, settings, strategies as st

import dirpoly
from dirpoly import DirPoly, LabelledBundle, cross_measures, measures
from dirpoly import cli, homs
from dirpoly.cli import MAX_OUTPUT_DIGITS, main, read_bundle, read_distribution
from dirpoly.expr import MAX_TERM_PAIRS, _decimal, parse


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_bundle_file(path, fibres):
    lines = ["label,fibre"] + [f"{l},{s}" for l, s in fibres]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def write_dist_file(path, entries):
    lines = ["label,probability"] + [f"{l},{p}" for l, p in entries]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def test_eval(capsys):
    code, out, _ = run(capsys, "eval", "4^y + 4", "2")
    assert code == 0
    assert out == "20\n"
    code, out, _ = run(capsys, "eval", "--format", "structured", "4^y + 4", "0")
    assert code == 0
    assert json.loads(out) == {"value": 5}


def test_eval_rejects_bad_point(capsys):
    code, _, err = run(capsys, "eval", "4^y", "1.5")
    assert code == 2
    assert err.startswith("error:")
    # "-1" is swallowed by option parsing; still a usage error.
    assert run(capsys, "eval", "4^y", "-1")[0] == 2


def test_measures_structured_matches_library_exactly(capsys):
    code, out, _ = run(capsys, "measures", "--format", "structured", "4^y + 3")
    assert code == 0
    doc = json.loads(out)
    m = measures(DirPoly({4: 1, 1: 3}))
    assert doc == {
        "polynomial": "4^y + 3",
        "area": m.area,
        "powerProduct": m.power_product,
        "width": m.width,
        "entropy": m.entropy,
        "length": m.length,
    }
    assert isinstance(doc["area"], int)
    assert out.count("\n") == 1


def test_measures_human(capsys):
    code, out, _ = run(capsys, "measures", "4^y + 4")
    assert code == 0
    assert out.splitlines() == [
        "polynomial: 4^y + 4",
        "area: 8",
        "powerProduct: 256",
        "width: 2",
        "entropy: 2",
        "length: 4",
    ]


def test_check_pass(capsys):
    code, out, _ = run(capsys, "check", "--format", "structured", "4^y + 4")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "pass"
    assert doc["floatError"] == 0.0
    assert doc["tol"] == 1e-9


def test_check_fail_exit_code(capsys):
    # at zero tolerance the one-ulp float residue of 2^y + 1 must fail.
    code, out, _ = run(capsys, "check", "--format", "structured", "--tol", "0", "2^y + 1")
    assert code == 1
    assert json.loads(out)["status"] == "fail"
    # -0 is that tolerance too, and is shown as 0.
    code, out, _ = run(capsys, "check", "--format", "structured", "--tol", "-0.0", "2^y + 1")
    assert code == 1 and '"tol": 0.0,' in out
    code, out, _ = run(capsys, "check", "--tol", "-0.0", "2^y + 1")
    assert code == 1 and out.count(" (bound 0)\n") == 2


def test_cross(capsys, tmp_path):
    data = write_bundle_file(tmp_path / "d.csv", [("a", 1), ("b", 1)])
    model = write_bundle_file(tmp_path / "m.csv", [("a", 3), ("b", 1)])
    code, out, _ = run(capsys, "cross", "--format", "structured", data, model)
    assert code == 0
    doc = json.loads(out)
    cm = cross_measures(
        LabelledBundle((("a", 1), ("b", 1))), LabelledBundle((("a", 3), ("b", 1)))
    )
    assert doc == {
        "crossEntropy": cm.cross_entropy,
        "crossArea": 4,
        "crossWidth": cm.cross_width,
        "crossLength": cm.cross_length,
        "kl": cm.kl,
        "tol": 1e-9,
        "status": "pass",
    }
    code, _, _ = run(capsys, "cross", "--tol", "0", data, model)
    assert code == 1
    code, out, _ = run(capsys, "cross", "--format", "structured", "--tol", "-0", data, model)
    assert code == 1 and '"tol": 0.0,' in out


def test_cross_degenerate(capsys, tmp_path):
    data = write_bundle_file(tmp_path / "d.csv", [("a", 2), ("b", 1)])
    model = write_bundle_file(tmp_path / "m.csv", [("a", 3), ("b", 0)])
    code, out, _ = run(capsys, "cross", "--format", "structured", data, model)
    # a degenerate pair is reported, not failed.
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "degenerate"
    assert doc["crossEntropy"] == math.inf
    assert doc["kl"] == math.inf
    assert doc["crossWidth"] == 0.0
    assert "Infinity" in out


def test_cross_human(capsys, tmp_path):
    data = write_bundle_file(tmp_path / "d.csv", [("a", 1), ("b", 1)])
    model = write_bundle_file(tmp_path / "m.csv", [("a", 3), ("b", 1)])
    code, out, _ = run(capsys, "cross", data, model)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("crossEntropy: 1.20751874964")
    assert lines[-1] == "status: pass"


def test_kl(capsys, tmp_path):
    data = write_bundle_file(tmp_path / "d.csv", [("a", 1), ("b", 1)])
    model = write_bundle_file(tmp_path / "m.csv", [("a", 3), ("b", 1)])
    code, out, _ = run(capsys, "kl", "--format", "structured", data, model)
    assert code == 0
    cm = cross_measures(
        LabelledBundle((("a", 1), ("b", 1))), LabelledBundle((("a", 3), ("b", 1)))
    )
    assert json.loads(out) == {"kl": cm.kl}
    code, out, _ = run(capsys, "kl", data, model)
    assert out == "kl: 0.207518749639\n"


def test_hom_count_expressions(capsys):
    code, out, _ = run(capsys, "hom-count", "2^y", "2^y + 1")
    assert code == 0
    assert out == "5\n"
    code, out, _ = run(capsys, "hom-count", "--format", "structured", "2^y", "2^y + 1")
    assert json.loads(out) == {"count": 5}


def test_hom_count_over_base(capsys, tmp_path):
    b = write_bundle_file(
        tmp_path / "b.csv", [("a", 4), ("b", 1), ("c", 1), ("d", 1), ("e", 1)]
    )
    code, out, _ = run(capsys, "hom-count", "--over-base", b, b)
    assert code == 0
    assert out == "256\n"
    # 3000 and 1000 draws over fibres of 2 and 4: a count of 5000 bits, past the chain cutoff.
    data = write_bundle_file(tmp_path / "d.csv", [("a", 3000), ("b", 1000)])
    model = write_bundle_file(tmp_path / "m.csv", [("a", 2), ("b", 4)])
    assert run(capsys, "hom-count", "--over-base", data, model) == (0, f"{2**5000}\n", "")


def test_from_dist_stdout_is_a_bundle_file(capsys, tmp_path):
    csv = write_dist_file(
        tmp_path / "dist.csv",
        [("a", "1/5"), ("b", "1/6"), ("c", "1/2"), ("d", "2/15")],
    )
    code, out, _ = run(capsys, "from-dist", csv)
    assert code == 0
    echo = tmp_path / "echo.csv"
    echo.write_text(out, encoding="utf-8")
    assert read_bundle(str(echo)).fibres == (("a", 6), ("b", 5), ("c", 15), ("d", 4))
    assert "# polynomial: 15^y + 6^y + 5^y + 4^y" in out
    assert "# total: 30" in out


def test_from_dist_output_file_and_structured(capsys, tmp_path):
    csv = write_dist_file(tmp_path / "dist.csv", [("h", "1/2"), ("t", "1/2")])
    out_path = tmp_path / "bundle.csv"
    code, out, _ = run(
        capsys, "from-dist", "--format", "structured", "-o", str(out_path), csv
    )
    assert code == 0
    assert json.loads(out) == {
        "bundle": [{"label": "h", "fibre": 1}, {"label": "t", "fibre": 1}],
        "total": 2,
        "polynomial": "2",
    }
    assert read_bundle(str(out_path)).fibres == (("h", 1), ("t", 1))


def test_structured_from_dist_without_a_file_builds_no_human_lines(capsys, tmp_path, monkeypatch):
    def not_called(*args, **kwargs):
        raise AssertionError("built human text that nothing prints")

    csv = write_dist_file(tmp_path / "dist.csv", [("h", "1/3"), ("t", "2/3")])
    monkeypatch.setattr(cli, "_human", not_called)
    code, out, err = run(capsys, "from-dist", "--format", "structured", csv)
    assert (code, err) == (0, "")
    assert json.loads(out) == {
        "bundle": [{"label": "h", "fibre": 1}, {"label": "t", "fibre": 2}],
        "total": 3,
        "polynomial": "2^y + 1",
    }


@pytest.mark.skipif(
    not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 8_000,
    reason="needs an int-to-str digit limit below the 8597 digits of the total",
)
def test_from_dist_writes_its_file_only_once_the_output_renders(capsys, tmp_path):
    # N = 2*q1*q2 and the sizes have about 8,600 digits: past the structured
    # output limit, not the human one.
    q1, q2 = 10**4298 + 1, 10**4298 + 3
    csv = write_dist_file(tmp_path / "d.csv", [("a", f"1/{2 * q1}"), ("b", f"{q1 - 1}/{2 * q1}"),
                                               ("c", f"1/{2 * q2}"), ("d", f"{q2 - 1}/{2 * q2}")])
    out_path = tmp_path / "out.csv"
    message = f"an integer of more than {sys.get_int_max_str_digits()} digits is past the structured output limit"
    for existing in (None, "label,fibre\nkept,1\n"):
        if existing is not None:
            out_path.write_text(existing, encoding="utf-8")
        code, out, err = run(capsys, "from-dist", "--format", "structured", "-o", str(out_path), csv)
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": message}
        if existing is None:
            assert not out_path.exists()
        else:
            assert out_path.read_text(encoding="utf-8") == existing
    code, out, _ = run(capsys, "from-dist", csv)
    assert code == 0
    code, _, _ = run(capsys, "from-dist", "-o", str(out_path), csv)
    assert code == 0
    assert out_path.read_text(encoding="utf-8") == "".join(line + "\n" for line in out.splitlines()[:5])


def test_to_dist_round_trip(capsys, tmp_path):
    csv = write_dist_file(
        tmp_path / "dist.csv",
        [("a", "1/5"), ("b", "1/6"), ("c", "1/2"), ("d", "2/15")],
    )
    code, out, _ = run(capsys, "from-dist", csv, "-o", str(tmp_path / "b.csv"))
    assert code == 0
    code, out, _ = run(capsys, "to-dist", str(tmp_path / "b.csv"))
    assert code == 0
    echo = tmp_path / "echo.csv"
    echo.write_text(out, encoding="utf-8")
    assert read_distribution(str(echo)) == read_distribution(csv)


def test_to_dist_structured(capsys, tmp_path):
    b = write_bundle_file(tmp_path / "b.csv", [("a", 1), ("b", 2)])
    code, out, _ = run(capsys, "to-dist", "--format", "structured", b)
    assert code == 0
    assert json.loads(out) == {
        "distribution": [
            {"label": "a", "probability": "1/3"},
            {"label": "b", "probability": "2/3"},
        ]
    }


def test_arith(capsys):
    code, out, _ = run(capsys, "arith", "add", "3*2^y + 1", "4^y + 2^y + 3*0^y")
    assert code == 0
    assert out == "4^y + 4*2^y + 1 + 3*0^y\n"
    code, out, _ = run(capsys, "arith", "mul", "3*2^y + 1", "4^y + 2^y + 3*0^y")
    assert out == "3*8^y + 4*4^y + 2^y + 12*0^y\n"
    code, out, _ = run(capsys, "arith", "mul", "--format", "structured", "2^y", "0")
    assert json.loads(out) == {"polynomial": "0"}


def test_expression_errors_exit_2(capsys):
    for expr in ("2^y + q", "2^3", "2^y 3"):
        code, out, err = run(capsys, "measures", expr)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert "at position" in err


def test_missing_file_exits_2(capsys, tmp_path):
    code, _, err = run(capsys, "to-dist", str(tmp_path / "absent.csv"))
    assert code == 2
    assert err.startswith("error:")


def test_bad_bundle_file_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("label,fibre\na,-1\n", encoding="utf-8")
    code, _, err = run(capsys, "to-dist", str(path))
    assert code == 2
    path.write_text("wrong,header\na,1\n", encoding="utf-8")
    code, _, err = run(capsys, "to-dist", str(path))
    assert code == 2
    assert "header" in err


def test_malformed_rows_exit_2_in_both_formats(capsys, tmp_path):
    path = tmp_path / "rows.csv"
    for text, message in (
        ("label,fibre\na,1,2\n", f"{path}:2: expected 2 comma-separated fields"),
        ("label,fibre\na\n", f"{path}:2: expected 2 comma-separated fields"),
        ("label,fibre\na,1\n ,2\n", f"{path}:3: empty label"),
        ("label,probability\n,1\n", f"{path}:2: empty label"),
        # a repeated label is named at its second row, before a bad value on a later row
        ("label,fibre\n# comment\na,1\na,2\nb,x\n", f"{path}:4: duplicate outcome label 'a'"),
        ("label,probability\nh,1/2\nh,1/2\nt,0.5\n", f"{path}:3: duplicate outcome label 'h'"),
    ):
        path.write_text(text, encoding="utf-8")
        command = "to-dist" if text.startswith("label,fibre") else "from-dist"
        code, out, err = run(capsys, command, str(path))
        assert (code, out, err) == (2, "", f"error: {message}\n"), text
        code, out, err = run(capsys, command, "--format", "structured", str(path))
        assert (code, out) == (2, "") and err.count("\n") == 1, text
        assert json.loads(err) == {"error": message}, text


def test_bad_distribution_file_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.csv"
    # float probabilities are rejected; this format is exact.
    path.write_text("label,probability\na,0.5\nb,0.5\n", encoding="utf-8")
    code, _, err = run(capsys, "from-dist", str(path))
    assert code == 2
    path.write_text("label,probability\na,1/2\nb,1/3\n", encoding="utf-8")
    code, _, err = run(capsys, "from-dist", str(path))
    assert code == 2
    assert "sum to 1" in err


def test_bundle_file_comments_and_blank_lines(capsys, tmp_path):
    path = tmp_path / "b.csv"
    path.write_text(
        "# a comment\n\nlabel,fibre\n# another\na, 2\n\nb, 1\n", encoding="utf-8"
    )
    code, out, _ = run(capsys, "to-dist", str(path))
    assert code == 0
    assert out.splitlines() == ["label,probability", "a,2/3", "b,1/3"]


def test_files_starting_with_a_utf8_bom(capsys, tmp_path):
    # Excel's "CSV UTF-8" writes a byte order mark before the header.
    bundle = tmp_path / "b.csv"
    bundle.write_bytes(b"\xef\xbb\xbflabel,fibre\na,3\nb,2\n")
    code, out, _ = run(capsys, "to-dist", str(bundle))
    assert code == 0
    assert out.splitlines() == ["label,probability", "a,3/5", "b,2/5"]
    dist = tmp_path / "d.csv"
    dist.write_bytes(b"\xef\xbb\xbflabel,probability\nh,1/3\nt,2/3\n")
    code, out, _ = run(capsys, "from-dist", str(dist))
    assert code == 0
    assert out.splitlines()[:3] == ["label,fibre", "h,1", "t,2"]


@pytest.mark.parametrize("position", [0, 1])
def test_a_file_that_is_not_utf8_is_named_in_cross(capsys, tmp_path, position):
    good = write_bundle_file(tmp_path / "b.csv", [("a", 1), ("b", 2)])
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"label,fibre\na,1\n\xff,2\n")
    files = [good, good]
    files[position] = str(bad)
    assert run(capsys, "cross", *files) == (2, "", f"error: {bad}: not UTF-8 text\n")
    assert run(capsys, "cross", "--format", "structured", *files) == (
        2, "", json.dumps({"error": f"{bad}: not UTF-8 text"}) + "\n")


def test_a_file_that_is_not_utf8_is_named_in_from_dist(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"label,probability\nh,1/3\nt,2/3\n\xc3(\n")
    assert run(capsys, "from-dist", str(bad)) == (2, "", f"error: {bad}: not UTF-8 text\n")


@pytest.mark.parametrize("position", [0, 1])
def test_a_duplicate_label_is_named_with_its_file_and_line_in_cross(capsys, tmp_path, position):
    good = write_bundle_file(tmp_path / "b.csv", [("a", 1), ("b", 2)])
    dup = write_bundle_file(tmp_path / "dup.csv", [("a", 1), ("b", 2), ("a", 3)])
    files = [good, good]
    files[position] = dup
    message = f"{dup}:4: duplicate outcome label 'a'"
    assert run(capsys, "cross", *files) == (2, "", f"error: {message}\n")
    assert run(capsys, "cross", "--format", "structured", *files) == (2, "", json.dumps({"error": message}) + "\n")


def test_usage_errors_exit_2(capsys):
    assert run(capsys, "no-such-command")[0] == 2
    assert run(capsys)[0] == 2
    assert run(capsys, "eval", "2^y")[0] == 2
    assert run(capsys, "measures", "--format", "yaml", "2^y")[0] == 2


def test_help_exits_0(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "measures", "--help")[0] == 0


def test_measures_of_empty_polynomial_exits_2(capsys):
    code, _, err = run(capsys, "measures", "0")
    assert code == 2
    assert err.startswith("error:")


def test_zero_denominator_probability_exits_2(capsys, tmp_path):
    path = write_dist_file(tmp_path / "dist.csv", [("a", "1/0"), ("b", "1")])
    with pytest.raises(ValueError, match=r"dist\.csv:2: .*'1/0'"):
        read_distribution(path)
    code, out, err = run(capsys, "from-dist", path)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_deep_nesting_exits_2(capsys):
    nested = "(" * 400 + "2^y + 1" + ")" * 400
    code, out, err = run(capsys, "measures", nested)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert err.count("\n") == 1


BINOMIALS = [f"({p}^y + 1)" for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                                      59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113)]


@pytest.mark.parametrize("text", [
    "*".join(BINOMIALS[:20]),  # 175 characters, 2**20 terms
    "*".join(BINOMIALS),  # 2**30 terms
    "(" + "*".join(BINOMIALS[:15]) + ")" + "*1" * 2000,  # 2**15 pairs per '*1'
], ids=["20-factors", "30-factors", "repeated-*1"])
def test_product_expansion_past_the_limit_exits_2_at_once(capsys, text):
    seconds = []
    for _ in range(3):  # the least of three, so that host load does not decide
        start = time.perf_counter()
        code, out, err = run(capsys, "eval", text, "0")
        seconds.append(time.perf_counter() - start)
        assert code == 2
        assert out == ""
        assert err.startswith("error: products expand past") and err.count("\n") == 1
    assert min(seconds) < 0.1


def test_arith_mul_refuses_a_product_past_the_limit(capsys):
    side = [" + ".join(f"{n}^y" for n in range(2, 2 + k)) for k in (256, 257)]
    code, out, err = run(capsys, "arith", "mul", side[1], side[0])
    assert code == 2
    assert out == ""
    assert err == f"error: the product expands past {MAX_TERM_PAIRS} term pairs\n"
    code, out, _ = run(capsys, "arith", "mul", side[0], side[0])
    assert code == 0
    assert parse(out) == parse(side[0]) * parse(side[0])


def test_structured_errors_are_json_on_stderr(capsys, tmp_path):
    for argv in (
        ["measures", "--format", "structured", "2^y + q"],
        ["to-dist", "--format", "structured", str(tmp_path / "absent.csv")],
        ["eval", "--format", "structured", "4^y", "1.5"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert list(json.loads(err)) == ["error"]
    code, _, err = run(capsys, "measures", "--format", "structured", "2^y + q")
    assert json.loads(err) == {"error": "unexpected character 'q' (at position 6)"}


@pytest.mark.skipif(
    not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 10_000,
    reason="needs an int-to-str digit limit below the 10001 digits of powerProduct",
)
def test_rendering_error_leaves_stdout_empty(capsys):
    # The polynomial and area render first.  powerProduct of 10000*10^y has
    # 100001 digits, one past the human output limit; that of 1000*10^y, 10001
    # digits, is past the int-to-str limit that structured output keeps.
    for argv in (["measures", "10000*10^y"], ["measures", "--format", "structured", "1000*10^y"]):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1


def from_decimal(text):
    """int(text) for any number of digits, without the int/str digit limit."""
    value = 0
    for i in range(0, len(text), 1000):
        value = value * 10 ** len(text[i:i + 1000]) + int(text[i:i + 1000])
    return value


def test_human_output_prints_integers_past_the_str_limit(capsys):
    for argv, value in (
        (["eval", "2^y + 3", "20000"], 2**20000 + 3),
        (["hom-count", "5000*2^y", "3^y + 1"], 10**5000),
        (["eval", "7^y", "118329"], 7**118329),  # 100000 digits, the most printed
        (["eval", "10^y", "99999"], 10**99999),
    ):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out[0] != "0" and out.endswith("\n") and out.count("\n") == 1
        assert from_decimal(out[:-1]) == value
    code, out, _ = run(capsys, "measures", "1000*10^y")
    assert code == 0
    assert out.splitlines()[2] == "powerProduct: 1" + "0" * 10000
    code, out, _ = run(capsys, "measures", "3*4096^y + 6^y")  # P = 4096**12288 * 6**6, 44,394 digits
    assert code == 0
    assert from_decimal(out.splitlines()[2].removeprefix("powerProduct: ")) == 4096**12288 * 6**6
    # One digit past the limit: computed, then refused at rendering.
    code, out, err = run(capsys, "eval", "10^y", str(MAX_OUTPUT_DIGITS))
    assert (code, out) == (2, "")
    assert err == f"error: an integer of more than {MAX_OUTPUT_DIGITS} digits is past the output limit\n"


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int/str digit limit to turn off")
def test_output_limit_holds_with_the_str_limit_off():
    # With no int-to-str limit str() writes any integer; the cap must not rely on it failing.
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for argv in (["measures", "10000*10^y"], ["eval", "10^y", "100000"],
                 ["measures", "--format", "structured", "10000*10^y"],
                 ["eval", "--format", "structured", "10^y", "100000"]):
        proc = subprocess.run([sys.executable, "-X", "int_max_str_digits=0", "-m", "dirpoly.cli", *argv],
                              env=env, capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout) == (2, ""), argv
        assert proc.stderr.count("\n") == 1 and "output limit" in proc.stderr, argv


def test_structured_limit_message_without_the_int_str_limit_api():
    # Python 3.10.0-3.10.6 have no sys.get_int_max_str_digits; the limit is then the output cap.
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys; vars(sys).pop('get_int_max_str_digits', None); from dirpoly.cli import main;"
            " sys.exit(main(['eval', '--format', 'structured', '10^y', '100000']))")
    proc = subprocess.run([sys.executable, "-X", "int_max_str_digits=0", "-c", code],
                          env=env, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.count("\n") == 1
    assert json.loads(proc.stderr) == {
        "error": f"an integer of more than {MAX_OUTPUT_DIGITS} digits is past the structured output limit"}


def test_size_guard_refuses_before_computing(capsys, tmp_path, monkeypatch):
    def not_called(*args, **kwargs):
        raise AssertionError("computed past the size guard")

    for name in ("hom_count", "_power_product", "measures", "check_rectangle_area"):
        monkeypatch.setattr(cli, name, not_called)
    monkeypatch.setattr(DirPoly, "__call__", not_called)
    data = write_bundle_file(tmp_path / "d.csv", [("a", 30_000_000), ("b", 1)])
    model = write_bundle_file(tmp_path / "m.csv", [("a", 3), ("b", 1)])
    for argv in (
        ["eval", "3^y", "30000000"],
        ["eval", "2^y + 1", "9" * 400],  # an evaluation point past the float range
        ["hom-count", "5000000*2^y", "3^y + 1"],
        ["hom-count", "1000000000^y", "2^y"],
        ["hom-count", "--over-base", data, model],
        ["measures", "100000*10^y"],
        ["measures", "--format", "structured", "100000*10^y"],
        ["check", "100000*10^y"],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.count("\n") == 1 and "output limit" in err, argv


def test_cross_width_product_is_bounded(capsys, tmp_path, monkeypatch):
    def not_called(*args, **kwargs):
        raise AssertionError("computed past the size guard")

    sizes = [("a", 123456789012345678901234567890), ("b", 987654321098765432109876543210)]
    big = write_bundle_file(tmp_path / "big.csv", sizes)
    empty_b = write_bundle_file(tmp_path / "m.csv", [sizes[0], ("b", 0)])
    # kl needs no product, and a positive data fibre over an empty model fibre makes it 0.
    assert run(capsys, "kl", big, big) == (0, "kl: 0\n", "")
    code, out, _ = run(capsys, "cross", big, empty_b)
    assert (code, out.splitlines()[-1]) == (0, "status: degenerate")
    monkeypatch.setattr(cli, "_cross_measures", not_called)
    message = "the cross width needs an exact product of more than 100000 digits"
    assert run(capsys, "cross", big, big) == (2, "", f"error: {message}\n")
    assert run(capsys, "cross", "--format", "structured", big, big) == (2, "", json.dumps({"error": message}) + "\n")


def test_cross_aligns_the_bundles_once(capsys, tmp_path, monkeypatch):
    calls = []
    aligned = homs._aligned
    for module in (homs, sys.modules["dirpoly.measures"], cli):
        monkeypatch.setattr(module, "_aligned", lambda bd, be: calls.append(1) or aligned(bd, be))
    data = write_bundle_file(tmp_path / "d.csv", [("a", 1), ("b", 1)])
    model = write_bundle_file(tmp_path / "m.csv", [("b", 1), ("a", 3)])
    for argv in (["cross", data, model], ["cross", "--format", "structured", data, model]):
        calls.clear()
        assert run(capsys, *argv)[0] == 0
        assert len(calls) == 1, argv

    def not_called(*args, **kwargs):
        raise AssertionError("computed past the size guard")

    monkeypatch.setattr(cli, "_cross_measures", not_called)
    big = write_bundle_file(tmp_path / "big.csv", [("a", 123456789012345678901234567890), ("b", 10**30)])
    message = "the cross width needs an exact product of more than 100000 digits"
    assert run(capsys, "cross", big, big) == (2, "", f"error: {message}\n")


def test_hom_count_over_base_aligns_the_bundles_once(capsys, tmp_path, monkeypatch):
    calls = []
    aligned = homs._aligned
    for module in (homs, sys.modules["dirpoly.measures"], cli):
        monkeypatch.setattr(module, "_aligned", lambda bd, be: calls.append(1) or aligned(bd, be))
    data = write_bundle_file(tmp_path / "d.csv", [("a", 3), ("b", 2)])
    model = write_bundle_file(tmp_path / "m.csv", [("b", 5), ("a", 2)])
    for argv, out in ((["hom-count", "--over-base", data, model], "200\n"),
                      (["hom-count", "--over-base", "--format", "structured", data, model], '{"count": 200}\n')):
        calls.clear()
        assert run(capsys, *argv) == (0, out, "")
        assert len(calls) == 1, argv
    other = write_bundle_file(tmp_path / "o.csv", [("a", 2), ("c", 5)])
    calls.clear()
    assert run(capsys, "hom-count", "--over-base", data, other) == (
        2, "", "error: bundles must have identical label sets\n")
    assert len(calls) == 1


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_bad_tolerance_exits_2(capsys, tmp_path, tol):
    data = write_bundle_file(tmp_path / "d.csv", [("a", 1), ("b", 1)])
    model = write_bundle_file(tmp_path / "m.csv", [("a", 3), ("b", 1)])
    message = f"the tolerance must be a finite number >= 0, got {float(tol)!r}"
    for argv in (["check", "--tol", tol, "3*2^y + 5"], ["cross", "--tol", tol, data, model]):
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")
        assert run(capsys, argv[0], "--format", "structured", *argv[1:]) == (2, "", json.dumps({"error": message}) + "\n")


def test_non_ascii_digits_exit_2(capsys, tmp_path):
    code, out, err = run(capsys, "measures", "\u0663^y")
    assert (code, out) == (2, "")
    assert err == "error: unexpected character '\u0663' (at position 0)\n"
    assert run(capsys, "eval", "2^y", "\u0663")[:2] == (2, "")
    bundle = write_bundle_file(tmp_path / "b.csv", [("a", "\u0663")])
    assert run(capsys, "to-dist", bundle)[:2] == (2, "")
    dist = write_dist_file(tmp_path / "d.csv", [("a", "\u0661/2"), ("b", "1/2")])
    assert run(capsys, "from-dist", dist)[:2] == (2, "")


def test_decimal_converter_edges():
    # str(Decimal(n)) converts without the int/str digit limit, by libmpdec
    # rather than by pieces of 10**512; from_decimal reads 1000-digit chunks.
    rng = random.Random(4301)
    piece = 10**512
    numbers = [10**4300, rng.randrange(10**4300, 10**4301), 10**99999 + 1,
               rng.randrange(10**99999, 10**100000), 10**100000 - 1]
    for k in (9, 10, 16):  # 512*k digits, and the neighbours of such numbers
        numbers += [piece**k - 2, piece**k - 1, piece**k, 10 ** (512 * k - 1) - 1, 10 ** (512 * k - 1)]
    numbers += [10**k + 1 for k in (4300, 5120, 10000, 30000)]  # every inner piece zero
    for n in numbers:
        text = _decimal(n)
        assert text == str(Decimal(n)), len(text)
        assert from_decimal(text) == n
    for n in (10**100000, rng.randrange(10**100000, 10**100001), 10**120000):
        with pytest.raises(ValueError, match="output limit"):
            _decimal(n)


def test_polynomial_text_past_the_str_limit(capsys):
    nines = "9" * 3000
    value = (10**3000 - 1) ** 2
    code, out, _ = run(capsys, "arith", "mul", nines, nines)
    assert code == 0 and len(out) == 6001
    assert from_decimal(out[:-1]) == value
    code, out, _ = run(capsys, "arith", "mul", "--format", "structured", nines, nines)
    assert code == 0
    assert from_decimal(json.loads(out)["polynomial"]) == value


def test_to_dist_probabilities_past_the_str_limit(capsys, tmp_path):
    rng = random.Random(20)
    sizes = [rng.randrange(10**4299, 10**4300) for _ in range(20)]
    bundle = write_bundle_file(tmp_path / "b.csv", [(f"x{i}", s) for i, s in enumerate(sizes)])
    expected = [(p.numerator, p.denominator) for p in (Fraction(s, sum(sizes)) for s in sizes)]
    assert max(q for _, q in expected) >= 10**4300
    code, out, _ = run(capsys, "to-dist", bundle)
    assert code == 0
    rows = [line.split(",")[1].split("/") for line in out.splitlines()[1:]]
    assert [(from_decimal(p), from_decimal(q)) for p, q in rows] == expected
    code, out, _ = run(capsys, "to-dist", "--format", "structured", bundle)
    assert code == 0
    rows = [entry["probability"].split("/") for entry in json.loads(out)["distribution"]]
    assert [(from_decimal(p), from_decimal(q)) for p, q in rows] == expected


def test_from_dist_polynomial_past_the_str_limit(capsys, tmp_path):
    q1, q2 = 10**2999 + 3, 10**2999 + 9  # odd and coprime: the lcm 2*q1*q2 has 6000 digits
    assert math.gcd(q1, q2) == 1
    dist = write_dist_file(tmp_path / "d.csv", [
        ("a", f"1/{2 * q1}"), ("b", f"{q1 - 1}/{2 * q1}"),
        ("c", f"1/{2 * q2}"), ("d", f"{q2 - 1}/{2 * q2}"),
    ])
    code, out, _ = run(capsys, "from-dist", dist)
    assert code == 0
    *_, poly, total = out.splitlines()
    assert total.startswith("# total: ") and from_decimal(total[9:]) == 2 * q1 * q2
    assert poly.startswith("# polynomial: ")
    bases = [from_decimal(term.removesuffix("^y")) for term in poly[14:].split(" + ")]
    assert bases == sorted([q2, (q1 - 1) * q2, q1, (q2 - 1) * q1], reverse=True)


def test_from_dist_sum_message_past_the_str_limit(capsys, tmp_path):
    # The sum (q1 + q2) / (2*q1*q2) has a 6000-digit denominator; the message
    # writes it out instead of failing to.
    q1, q2 = 10**2999 + 3, 10**2999 + 9
    dist = write_dist_file(tmp_path / "d.csv", [("a", f"1/{2 * q1}"), ("b", f"1/{2 * q2}")])
    total = Fraction(1, 2 * q1) + Fraction(1, 2 * q2)
    code, out, err = run(capsys, "from-dist", dist)
    assert (code, out) == (2, "")
    assert err == (f"error: probabilities must sum to 1 exactly, got "
                   f"{Decimal(total.numerator)}/{Decimal(total.denominator)}\n")


def test_from_dist_sum_message_past_the_output_limit(capsys, tmp_path):
    # 25 random 4200-digit denominators share few factors: the sum's denominator passes 100,000 digits.
    rng = random.Random(1)
    dist = write_dist_file(tmp_path / "d.csv", [(f"x{i}", f"1/{rng.randrange(10**4199, 10**4200)}")
                                                for i in range(25)])
    message = "probabilities must sum to 1 exactly, got a fraction with a part of more than 100000 digits"
    assert run(capsys, "from-dist", dist) == (2, "", f"error: {message}\n")
    code, out, err = run(capsys, "from-dist", "--format", "structured", dist)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": message}


@pytest.mark.skipif(
    not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 4401,
    reason="needs an int-to-str digit limit below 4401 digits",
)
def test_numbers_past_the_str_limit_in_files_exit_2(capsys, tmp_path):
    long = "7" * 4401
    bundle = write_bundle_file(tmp_path / "b.csv", [("a", 1), ("b", long)])
    code, out, err = run(capsys, "to-dist", bundle)
    assert (code, out) == (2, "")
    assert err == f"error: {bundle}:3: number too long (4401 digits)\n"
    dist = write_dist_file(tmp_path / "d.csv", [("a", f"{long}/{long}9"), ("b", "0")])
    code, out, err = run(capsys, "from-dist", dist)
    assert (code, out) == (2, "")
    assert err == f"error: {dist}:2: number too long (4402 digits)\n"
    dist = write_dist_file(tmp_path / "d.csv", [("a", f"{long}/3"), ("b", "0")])
    code, out, err = run(capsys, "from-dist", "--format", "structured", dist)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": f"{dist}:2: number too long (4401 digits)"}


def test_file_readers_read_each_number_with_int(monkeypatch, tmp_path):
    def not_called(*args):
        raise AssertionError("_natural ran")

    monkeypatch.setattr(cli, "_natural", not_called)
    bundle = write_bundle_file(tmp_path / "b.csv", [("a", "007"), ("b", 0), ("c", "9" * 600)])
    assert read_bundle(bundle).fibres == (("a", 7), ("b", 0), ("c", 10**600 - 1))
    dist = write_dist_file(tmp_path / "d.csv", [("a", "1/0003"), ("b", "4/6"), ("c", 0)])
    assert read_distribution(dist).entries == (("a", Fraction(1, 3)), ("b", Fraction(2, 3)), ("c", 0))


@pytest.mark.skipif(
    not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 4401,
    reason="needs an int-to-str digit limit below 4401 digits",
)
def test_a_denominator_past_the_str_limit_is_named_after_a_short_numerator(capsys, tmp_path):
    dist = write_dist_file(tmp_path / "d.csv", [("a", "0"), ("b", "3/" + "7" * 4401)])
    assert run(capsys, "from-dist", dist) == (2, "", f"error: {dist}:3: number too long (4401 digits)\n")


def test_results_past_the_float_range_exit_2(capsys, tmp_path):
    big = "1" + "0" * 400
    one = write_bundle_file(tmp_path / "one.csv", [("a", 1)])
    huge = write_bundle_file(tmp_path / "huge.csv", [("a", big)])
    pair = write_bundle_file(tmp_path / "pair.csv", [("a", 1), ("b", 0)])
    pair_huge = write_bundle_file(tmp_path / "pair_huge.csv", [("a", 1), ("b", big)])
    for argv in (["measures", big], ["check", big], ["cross", one, huge],
                 ["cross", pair, pair_huge]):
        assert run(capsys, *argv) == (2, "", "error: a result is past the float range\n"), argv
    code, out, err = run(capsys, "cross", "--format", "structured", one, huge)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "a result is past the float range"}


def test_kl_is_finite_where_the_cross_length_is_not(capsys, tmp_path):
    # KL takes neither the cross width nor the cross length 2**H, whose
    # overflow makes `cross` exit 2 on the same pairs.
    big = 10**400
    one = write_bundle_file(tmp_path / "one.csv", [("a", 1)])
    huge = write_bundle_file(tmp_path / "huge.csv", [("a", big)])
    pair = write_bundle_file(tmp_path / "pair.csv", [("a", 1), ("b", 0)])
    pair_huge = write_bundle_file(tmp_path / "pair_huge.csv", [("a", 1), ("b", big)])
    assert run(capsys, "kl", one, huge) == (0, "kl: 0\n", "")
    # p = (1, 0) against q = (1, 10^400)/(10^400 + 1): KL = log2(10^400 + 1).
    assert run(capsys, "kl", pair, pair_huge) == (0, "kl: 1328.77123795\n", "")
    code, out, err = run(capsys, "kl", "--format", "structured", pair, pair_huge)
    assert (code, err) == (0, "")
    assert json.loads(out)["kl"] == pytest.approx(400 * math.log2(10), rel=1e-15)


@pytest.mark.skipif(
    not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 4401,
    reason="needs an int-to-str digit limit below 4401 digits",
)
def test_int_str_limit_errors_name_the_limit(capsys):
    code, out, err = run(capsys, "eval", "2^y", "9" * 4401)
    assert (code, out, err) == (2, "", "error: evaluation point: number too long (4401 digits)\n")
    message = (f"an integer of more than {sys.get_int_max_str_digits()} digits"
               " is past the structured output limit")
    for argv in (["eval", "10^y", "5000"], ["measures", "1000*10^y"],
                 ["hom-count", "5000*10^y", "10^y"]):
        code, out, err = run(capsys, argv[0], "--format", "structured", *argv[1:])
        assert (code, out) == (2, ""), argv
        assert json.loads(err) == {"error": message}, argv


# Numbers as text: small ones, zeros, and the edges of the float range and of
# the interpreter's 4300-digit int-to-str limit.
_small = st.integers(0, 12).map(str)
_numbers = st.one_of(
    _small,
    st.sampled_from(["0", "1" + "0" * 308, "2" + "0" * 308, "1" + "0" * 400, "9" * 4300, "1" + "0" * 4300]),
    st.integers(0, 10**400).map(str),
)
_exprs = st.lists(st.tuples(_numbers, st.one_of(_small, _numbers), st.booleans()), min_size=1, max_size=3).map(
    lambda terms: " + ".join(f"{c}*{b}^y" if power else c for c, b, power in terms))
_tols = st.sampled_from([[], ["--tol", "0"], ["--tol", "1e-3"], ["--tol", "1e400"], ["--tol", "nan"]])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_main_keeps_the_exit_contract(tmp_path_factory, data):
    # Data fibres stay small in cross and kl: their exact product is unbounded.
    workdir = tmp_path_factory.mktemp("argv")

    def bundle(sizes):
        labels = data.draw(st.sampled_from(["abc", "abd", "ab"]))
        return write_bundle_file(workdir / f"b{len(list(workdir.iterdir()))}.csv",
                                 list(zip(labels, data.draw(st.lists(sizes, min_size=3, max_size=3)))))

    command = data.draw(st.sampled_from(sorted(cli._COMMANDS)))
    args = {
        "eval": lambda: [data.draw(_exprs), data.draw(_numbers)],
        "measures": lambda: [data.draw(_exprs)],
        "check": lambda: [data.draw(_exprs), *data.draw(_tols)],
        "cross": lambda: [bundle(_small), bundle(_numbers), *data.draw(_tols)],
        "kl": lambda: [bundle(_small), bundle(_numbers)],
        "hom-count": lambda: (["--over-base", bundle(_small), bundle(_numbers)] if data.draw(st.booleans())
                              else [data.draw(_exprs), data.draw(_exprs)]),
        "from-dist": lambda: [write_dist_file(workdir / "d.csv", data.draw(st.lists(
            st.tuples(st.sampled_from("ab"), st.sampled_from(["0", "1", "1/2", "1/3", "2/3"])
                      | st.tuples(_numbers, _numbers).map("/".join)), min_size=1, max_size=3)))],
        "to-dist": lambda: [bundle(_numbers)],
        "arith": lambda: [data.draw(st.sampled_from(["add", "mul"])), data.draw(_exprs), data.draw(_exprs)],
    }[command]()
    argv = [command, *data.draw(st.sampled_from([[], ["--format", "structured"]])), *args]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    event(f"{command}: exit {code}")
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().count("\n") == 1, argv
    else:
        assert err.getvalue() == "", argv


# Each command with placeholder values for its positional arguments.
_POSITIONALS = {"eval": ["4^y", "2"], "measures": ["2^y"], "check": ["2^y"], "cross": ["d.csv", "m.csv"],
                "kl": ["d.csv", "m.csv"], "hom-count": ["2^y", "3^y"], "from-dist": ["p.csv"],
                "to-dist": ["b.csv"], "arith": ["add", "1", "2"]}


def test_one_command_parser_prints_what_the_full_parser_prints(capsys):
    assert list(_POSITIONALS) == list(cli._COMMANDS)
    cases = [["arith", "pow", "1", "2"], [], ["--help"], ["nope", "1"], ["--format", "structured", "eval", "1", "2"]]
    for name, positionals in _POSITIONALS.items():
        cases += [[name, "--help"], [name], [name, *positionals, "extra"], [name, "--format", "xml", *positionals]]
    for argv in cases:
        with pytest.raises(SystemExit) as exc:
            cli._build_parser().parse_args(argv)
        captured = capsys.readouterr()
        full = (0 if exc.value.code in (0, None) else 2, captured.out, captured.err)
        assert full[1] or full[2], argv
        assert run(capsys, *argv) == full, argv
        assert run(capsys, *argv) == full, argv  # the same again in one process


def _argv_corpus():
    """Argument lists for every command: help, ``--``, abbreviated, ``=``-joined, repeated and
    unknown options before, between and after the positionals, ``-1``, ``--version``, missing or
    extra positionals, and each command's own options on every command."""
    cases = []
    for name, positionals in _POSITIONALS.items():
        *head, last = positionals
        for options in (["-h"], ["--help"], ["--he"], [], ["--form", "structured"], ["--f", "human"],
                        ["--format=structured"], ["--fo=xml"], ["--format", "human", "--format", "structured"],
                        ["--format"], ["-x"], ["--version"], ["-o", "out.csv"], ["--output=out.csv"], ["--over-base"],
                        ["--over"], ["--tol", "0.5"], ["--tol=1e-3"], ["--tol", "x"], ["--tol"], ["-hx"], ["-"]):
            cases += [[name, *options, *positionals], [name, *head, *options, last], [name, *positionals, *options]]
        cases += [[name], [name, *head], [name, *positionals, "extra"], [name, *positionals, "a", "b"],
                  [name, "--", *positionals], [name, *head, "--", last], [name, *positionals, "--"],
                  [name, "--", "--", *positionals], [name, *positionals, "--", "extra"],
                  [name, "--", *positionals, "--format", "structured"],
                  [name, "--format", "structured", "--", *positionals], [name, "--", "-1", *positionals[1:]],
                  [name, "--", "-x", *positionals[1:]], [name, "-1", *positionals[1:]], [name, *head, "-1"],
                  [name, *positionals, "-1"], ["--", name, *positionals],
                  ["--format", "structured", name, *positionals]]
    return cases


def test_a_named_command_parses_as_the_full_parser_does(capsys, monkeypatch):
    parsed = []
    for name, (_, text, arguments) in cli._COMMANDS.items():
        monkeypatch.setitem(cli._COMMANDS, name, (lambda args: parsed.append(vars(args)) or ({}, []), text, arguments))
    outcomes, parser = set(), cli._build_parser()
    for argv in _argv_corpus():
        try:
            full = vars(parser.parse_args(argv))
            del full["command"]
        except SystemExit as exc:
            full = (0 if exc.code in (0, None) else 2, *capsys.readouterr())
        code = main(argv)
        out, err = capsys.readouterr()
        if isinstance(full, dict):
            assert (code, err, parsed.pop()) == (0, "", full), argv
        else:
            assert (code, out, err) == full and not parsed, argv
        outcomes.add(type(full))
    assert outcomes == {dict, tuple}


def test_a_named_command_builds_only_its_own_parser(capsys, monkeypatch):
    progs = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *args, **kwargs: progs.append(kwargs.get("prog")) or init(self, *args, **kwargs))
    assert run(capsys, "eval", "4^y", "2")[:2] == (0, "16\n")
    assert progs == ["dirpoly eval"]
    progs.clear()
    assert run(capsys, "--help")[0] == 0
    assert progs == ["dirpoly", *(f"dirpoly {name}" for name in cli._COMMANDS)]


def test_version_prints_the_package_version(capsys):
    assert run(capsys, "--version") == (0, f"dirpoly {dirpoly.__version__}\n", "")
    assert run(capsys, "--version") == (0, "dirpoly 0.1.0\n", "")


def test_the_package_version_is_the_project_version():
    text = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r'^version = "([^"]+)"$', text, re.MULTILINE)[1] == dirpoly.__version__
