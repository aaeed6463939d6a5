"""End-to-end command-line behaviour: output, file formats, exit codes."""

import io
import json
import math
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import event, given, settings, strategies as st

from dirpoly import DirPoly, LabelledBundle, cross_measures, measures
from dirpoly import cli
from dirpoly.cli import MAX_OUTPUT_DIGITS, main, read_bundle, read_distribution
from dirpoly.expr import _decimal


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
    # One digit past the limit: computed, then refused at rendering.
    code, out, err = run(capsys, "eval", "10^y", str(MAX_OUTPUT_DIGITS))
    assert (code, out) == (2, "")
    assert err == f"error: an integer of more than {MAX_OUTPUT_DIGITS} digits is past the output limit\n"


def test_size_guard_refuses_before_computing(capsys, tmp_path, monkeypatch):
    def not_called(*args, **kwargs):
        raise AssertionError("computed past the size guard")

    for name in ("hom_count", "hom_count_over_base", "measures", "check_rectangle_area"):
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
