"""Command-line front end.

Subcommands operate on polynomial expressions ("4^y + 4") and on two small
file formats:

  bundle file        header "label,fibre", one outcome per row, '#' comments
                     and blank lines ignored
  distribution file  header "label,probability", probabilities written as
                     exact fractions "p/q" or integers (floats are rejected)

Output is human-readable by default; ``--format structured`` emits a single
JSON document (floats round-trip exactly; +infinity is emitted as the JSON
token Infinity).  Exit codes: 0 success or passed check, 1 failed check,
2 parse, validation, file, rendering or float-range error, reported on
stderr as ``error: <message>`` or, structured, as ``{"error": "<message>"}``
with stdout left empty.

Integers are written up to MAX_OUTPUT_DIGITS digits by ``expr._decimal``:
human integer fields, and polynomial text and probabilities in both formats.
``eval``, ``hom-count``, ``measures`` and ``check`` estimate their big
integer's size from logarithms and refuse one past that cap before computing
it.  Structured integer fields keep the int-to-str limit, named when hit.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from fractions import Fraction

from .core import LabelledBundle
from .distributions import (
    RationalDistribution,
    from_rational_distribution,
    to_distribution,
)
from .expr import MAX_OUTPUT_DIGITS, _TOO_LONG, _decimal, _ratio, format_poly, parse
from .homs import _aligned, hom_count, hom_count_over_base
from .measures import (
    DEFAULT_TOL,
    _cross_pairs,
    _kl,
    check_cross_rectangle_area,
    check_rectangle_area,
    measures,
)

# ASCII digits only, as in expressions.  A zero denominator is rejected
# here, not left to raise ZeroDivisionError.
_NAT_RE = re.compile(r"[0-9]+")
_FRACTION_RE = re.compile(r"[0-9]+(/0*[1-9][0-9]*)?")

# Counts and exponents are clamped to this before they meet a float; times a
# log10 of at least log10(2) the clamp is still far past the output limit.
_COUNT_CLAMP = 10**300


def _data_rows(path: str, column: str, value_re: re.Pattern, value_rule: str, convert) -> tuple:
    """(label, value) rows of a comma-separated file with header ``label,<column>``,
    each value ``convert`` applied to the integers of its text ``p`` or ``p/q``."""
    rows = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = [field.strip() for field in line.split(",")]
            if len(fields) != 2:
                raise ValueError(f"{path}:{lineno}: expected 2 comma-separated fields")
            rows.append((fields[0], fields[1], lineno))
    if not rows or rows[0][:2] != ("label", column):
        raise ValueError(f"{path}: first row must be the header 'label,{column}'")
    values = []
    for label, text, lineno in rows[1:]:
        if not label:
            raise ValueError(f"{path}:{lineno}: empty label")
        if not value_re.fullmatch(text):
            raise ValueError(f"{path}:{lineno}: {value_rule}, got {text!r}")
        values.append((label, convert(*_naturals(text, f"{path}:{lineno}: "))))
    return tuple(values)


def _naturals(text: str, where: str) -> list[int]:
    """The naturals of a validated ``p`` or ``p/q``; an error names ``where``."""
    parts = text.split("/")
    try:
        return [int(part) for part in parts]
    except ValueError:  # past the interpreter's int/str digit limit
        raise ValueError(f"{where}number too long ({max(map(len, parts))} digits)") from None


def read_bundle(path: str) -> LabelledBundle:
    return LabelledBundle(_data_rows(path, "fibre", _NAT_RE, "fibre size must be a natural number", int))


def read_distribution(path: str) -> RationalDistribution:
    rule = "probability must be an integer or a fraction p/q with q > 0"
    return RationalDistribution(_data_rows(path, "probability", _FRACTION_RE, rule, Fraction))


def _human(value) -> str:
    """Human text of one value: floats to 12 significant digits, integers in full."""
    if isinstance(value, float):
        return f"{value:.12g}"
    return _decimal(value) if isinstance(value, int) else str(value)


def _log10_eval(terms: dict[int, int], n: int) -> float:
    """log10 of the sum of c * b**n over the terms {b: c}, to a small
    fraction of a digit, without the powers; -inf where the sum is 0."""
    logs = [math.log10(c) + (min(n, _COUNT_CLAMP) * math.log10(b) if b > 1 else 0.0)
            for b, c in terms.items() if b or not n]
    if not logs:
        return -math.inf
    top = max(logs)
    return top + math.log10(math.fsum(10.0 ** (x - top) for x in logs))


def _check_size(factors) -> None:
    """Refuse a product of base**exp over (log10(base), exp) factors whose
    estimated size is past MAX_OUTPUT_DIGITS, before it is computed.  The
    estimate is off by far less than a digit; a result within one digit of
    the limit is computed and left to the exact check in ``_decimal``."""
    logs = [min(exp, _COUNT_CLAMP) * log for log, exp in factors if exp]
    if -math.inf not in logs and sum(logs) >= MAX_OUTPUT_DIGITS + 1:
        raise ValueError(_TOO_LONG)


def _check_power_product(d) -> None:
    """Size guard for P, the product of b**(c*b) over the terms c * b^y."""
    _check_size((math.log10(b), c * b) for b, c in d.terms.items() if b > 1)


def _render(document: dict, human, structured: bool) -> str:
    """The whole stdout of a command.

    ``human`` is None to print the document as ``key: value`` lines, a dict
    to print other ``key: value`` lines, or a list of lines.
    """
    if structured:
        try:
            return json.dumps(document) + "\n"
        except ValueError:  # an integer past the interpreter's int/str digit limit
            limit = sys.get_int_max_str_digits()
            raise ValueError(f"an integer of more than {limit} digits is past the structured output limit") from None
    if human is None:
        human = document
    if isinstance(human, dict):
        human = [f"{key}: {_human(value)}" for key, value in human.items()]
    return "".join(_human(line) + "\n" for line in human)


# Each handler makes its library calls and returns (document, human) for
# ``_render``; a document whose "status" is "fail" makes the command exit 1.

def _cmd_eval(args):
    d = parse(args.expr)
    if not _NAT_RE.fullmatch(args.n):
        raise ValueError(f"the evaluation point must be a natural number, got {args.n!r}")
    (n,) = _naturals(args.n, "evaluation point: ")
    _check_size([(_log10_eval(d.terms, n), 1)])
    value = d(n)
    return {"value": value}, [value]


def _measures_document(d, m) -> dict:
    return {
        "polynomial": format_poly(d),
        "area": m.area,
        "powerProduct": m.power_product,
        "width": m.width,
        "entropy": m.entropy,
        "length": m.length,
    }


def _cmd_measures(args):
    d = parse(args.expr)
    _check_power_product(d)
    return _measures_document(d, measures(d)), None


def _cmd_check(args):
    d = parse(args.expr)
    _check_power_product(d)
    report = check_rectangle_area(d, tol=args.tol)
    status = "pass" if report.passed else "fail"
    document = {
        **_measures_document(d, report.measures),
        "lengthTimesWidth": report.product,
        "floatError": report.float_error,
        "logError": report.log_error,
        "tol": report.tol,
        "status": status,
    }
    return document, {
        "polynomial": document["polynomial"],
        "area": document["area"],
        "length*width": report.product,
        "floatError": f"{_human(report.float_error)} (bound {_human(report.float_bound)})",
        "logError": f"{_human(report.log_error)} (bound {_human(report.log_bound)})",
        "status": status,
    }


def _cmd_cross(args):
    bd, be = read_bundle(args.data), read_bundle(args.model)
    report = check_cross_rectangle_area(bd, be, tol=args.tol)
    cm = report.cross
    document = {
        "crossEntropy": cm.cross_entropy,
        "crossArea": cm.cross_area,
        "crossWidth": cm.cross_width,
        "crossLength": cm.cross_length,
        "kl": cm.kl,
        "tol": report.tol,
        "status": report.status,
    }
    return document, {key: value for key, value in document.items() if key != "tol"}


def _cmd_kl(args):
    bd, be = read_bundle(args.data), read_bundle(args.model)
    return {"kl": _kl(*_cross_pairs(bd, be))}, None


def _cmd_hom_count(args):
    if args.over_base:
        bd, be = read_bundle(args.a), read_bundle(args.b)
        _check_size((math.log10(e) if e else -math.inf, d) for d, e in _aligned(bd, be))
        count = hom_count_over_base(bd, be)
    else:
        d, e = parse(args.a), parse(args.b)
        e_terms = e.terms
        _check_size((_log10_eval(e_terms, m), a) for m, a in d.terms.items())
        count = hom_count(d, e)
    return {"count": count}, [count]


def _cmd_from_dist(args):
    bundle = from_rational_distribution(read_distribution(args.csv))
    poly_text = format_poly(bundle.to_poly())
    document = {
        "bundle": [{"label": label, "fibre": size} for label, size in bundle.fibres],
        "total": bundle.num_draws,
        "polynomial": poly_text,
    }
    bundle_lines = ["label,fibre", *(f"{label},{_human(size)}" for label, size in bundle.fibres)]
    total = _human(bundle.num_draws)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as f:
            f.write("\n".join(bundle_lines) + "\n")
        return document, [f"wrote {args.output}", f"polynomial: {poly_text}", f"total: {total}"]
    # Stdout stays a valid bundle file; the extras ride along as comments.
    return document, [*bundle_lines, f"# polynomial: {poly_text}", f"# total: {total}"]


def _cmd_to_dist(args):
    entries = [(label, _ratio(p)) for label, p in to_distribution(read_bundle(args.bundle)).entries]
    document = {"distribution": [{"label": label, "probability": p} for label, p in entries]}
    return document, ["label,probability", *(f"{label},{p}" for label, p in entries)]


def _cmd_arith(args):
    a, b = parse(args.a), parse(args.b)
    text = format_poly(a + b if args.op == "add" else a * b)
    return {"polynomial": text}, [text]


def _arg(*flags, **options):
    return flags, options


_TOL = _arg("--tol", type=float, default=DEFAULT_TOL)

# Subcommand name -> (handler, help, arguments after --format).
_COMMANDS = {
    "eval": (_cmd_eval, "evaluate an expression at a natural number", [_arg("expr"), _arg("n")]),
    "measures": (_cmd_measures, "area, power product, width, entropy, length", [_arg("expr")]),
    "check": (_cmd_check, "verify area == length * width", [_arg("expr"), _TOL]),
    "cross": (_cmd_cross, "cross measures of two bundle files and the cross rectangle-area check", [
        _arg("data", help="bundle file of the data polynomial"),
        _arg("model", help="bundle file of the model polynomial"), _TOL]),
    "kl": (_cmd_kl, "Kullback-Leibler divergence of two bundle files", [_arg("data"), _arg("model")]),
    "hom-count": (_cmd_hom_count, "number of morphisms between two polynomials", [
        _arg("--over-base", action="store_true",
             help="count outcome-fixing morphisms between two bundle files instead"),
        _arg("a", help="expression, or bundle file with --over-base"),
        _arg("b", help="expression, or bundle file with --over-base")]),
    "from-dist": (_cmd_from_dist, "realise a distribution file as a minimal bundle", [
        _arg("csv", help="distribution file (label,probability)"),
        _arg("-o", "--output", help="write the bundle file here instead of stdout")]),
    "to-dist": (_cmd_to_dist, "empirical distribution of a bundle file", [_arg("bundle")]),
    "arith": (_cmd_arith, "add or multiply two expressions",
              [_arg("op", choices=["add", "mul"]), _arg("a"), _arg("b")]),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dirpoly",
        description="Exact Dirichlet polynomial calculator: rig arithmetic,"
        " entropy/length/width measures, hom counts, and distributions.",
    )
    # One shared --format action: add_argument is costly, and runs on every call.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["human", "structured"], default="human",
                        help="output style (structured = one JSON document)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=help_text)
        for flags, options in arguments:
            p.add_argument(*flags, **options)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage errors; keep the contract.
        return 0 if exc.code in (0, None) else 2
    structured = args.format == "structured"
    try:
        document, human = _COMMANDS[args.command][0](args)
        # Rendered in full first, so a failure leaves stdout empty.
        sys.stdout.write(_render(document, human, structured))
    except (ValueError, OSError, OverflowError) as exc:  # ParseError is a ValueError
        # An OverflowError's text names the float operation, not the result.
        message = "a result is past the float range" if isinstance(exc, OverflowError) else str(exc)
        print(json.dumps({"error": message}) if structured else f"error: {message}", file=sys.stderr)
        return 2
    return 1 if document.get("status") == "fail" else 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
