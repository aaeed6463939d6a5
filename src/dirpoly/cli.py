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

``json`` and ``fractions`` (with ``decimal`` and ``numbers``) are imported
inside the functions that use them, not at the top: every process start pays
for a top-level import, and most commands need neither.
"""

from __future__ import annotations

import argparse
import math
import re
import sys

from . import __version__
from .core import LabelledBundle, _power_product
from .distributions import (
    RationalDistribution,
    from_rational_distribution,
    to_distribution,
)
from .expr import (MAX_OUTPUT_DIGITS, MAX_TERM_PAIRS, _TOO_LONG, _decimal, _natural, _past_cap, _ratio, format_poly,
                   parse)
from .homs import _aligned, hom_count
from .measures import (
    DEFAULT_TOL,
    _check_cross,
    _cross_measures,
    _cross_pairs,
    _cross_sums,
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
    with open(path, encoding="utf-8-sig") as f:
        try:
            for lineno, line in enumerate(f, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                fields = [field.strip() for field in line.split(",")]
                if len(fields) != 2:
                    raise ValueError(f"{path}:{lineno}: expected 2 comma-separated fields")
                rows.append((fields[0], fields[1], lineno))
        except UnicodeDecodeError:  # its text names a byte and a position, not the file
            raise ValueError(f"{path}: not UTF-8 text") from None
    if not rows or rows[0][:2] != ("label", column):
        raise ValueError(f"{path}: first row must be the header 'label,{column}'")
    values, seen = [], set()
    for label, text, lineno in rows[1:]:
        if not label:
            raise ValueError(f"{path}:{lineno}: empty label")
        if label in seen:  # the constructors would name the label, not the file and line
            raise ValueError(f"{path}:{lineno}: duplicate outcome label {label!r}")
        seen.add(label)
        if not value_re.fullmatch(text):
            raise ValueError(f"{path}:{lineno}: {value_rule}, got {text!r}")
        try:
            parts = [*map(int, text.split("/"))]
        except ValueError:  # past the int/str digit limit: ``_natural`` words the message
            parts = [_natural(part, f"{path}:{lineno}: ", text) for part in text.split("/")]
        values.append((label, convert(*parts)))
    return tuple(values)


def read_bundle(path: str) -> LabelledBundle:
    return LabelledBundle(_data_rows(path, "fibre", _NAT_RE, "fibre size must be a natural number", int))


def read_distribution(path: str) -> RationalDistribution:
    import fractions
    rule = "probability must be an integer or a fraction p/q with q > 0"
    return RationalDistribution(_data_rows(path, "probability", _FRACTION_RE, rule, fractions.Fraction))


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


def _check_size(factors, message: str = _TOO_LONG) -> None:
    """Refuse a product of base**exp over (log10(base), exp) factors whose
    estimated size is past MAX_OUTPUT_DIGITS, before it is computed.  The
    estimate is off by far less than a digit; a result within one digit of
    the limit is computed and left to the exact check in ``_decimal``."""
    logs = [min(exp, _COUNT_CLAMP) * log for log, exp in factors if exp]
    if -math.inf not in logs and sum(logs) >= MAX_OUTPUT_DIGITS + 1:
        raise ValueError(message)


def _check_power_product(d) -> None:
    """Size guard for P, the product of b**(c*b) over the terms c * b^y."""
    _check_size((math.log10(b), c * b) for b, c in d.terms.items() if b > 1)


def _check_over_base(pairs, message: str = _TOO_LONG) -> None:
    """Size guard for the product of |e_i|**|d_i| over the aligned (|d_i|, |e_i|) pairs
    of the over-base hom count and the cross width."""
    _check_size(((math.log10(e) if e else -math.inf, d) for d, e in pairs), message)


def _render(document: dict, human, structured: bool) -> str:
    """The whole stdout of a command.

    ``human`` is None to print the document as ``key: value`` lines, a dict
    to print other ``key: value`` lines, or a list of lines.
    """
    if structured:
        import json
        values = [*document.values()]
        values += [value for rows in values if isinstance(rows, list) for row in rows for value in row.values()]
        try:  # json.dumps applies the interpreter's int/str digit limit, which may be off, but not the cap
            if any(isinstance(value, int) and _past_cap(value) for value in values):
                raise ValueError
            return json.dumps(document) + "\n"
        except ValueError:
            limit = min(getattr(sys, "get_int_max_str_digits", lambda: 0)() or MAX_OUTPUT_DIGITS, MAX_OUTPUT_DIGITS)
            raise ValueError(f"an integer of more than {limit} digits is past the structured output limit") from None
    if human is None:
        human = document
    if isinstance(human, dict):
        human = [f"{key}: {_human(value)}" for key, value in human.items()]
    return "".join(_human(line) + "\n" for line in human)


# Each handler makes its library calls and returns (document, human) for
# ``_render``; a document whose "status" is "fail" makes the command exit 1.
# ``from-dist -o`` adds its file's text, which ``main`` writes once the output has rendered.

def _cmd_eval(args):
    d = parse(args.expr)
    if not _NAT_RE.fullmatch(args.n):
        raise ValueError(f"the evaluation point must be a natural number, got {args.n!r}")
    n = _natural(args.n, "evaluation point: ")
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
    pairs, d_total, e_total = _cross_pairs(read_bundle(args.data), read_bundle(args.model))  # the one alignment
    _check_over_base(pairs, f"the cross width needs an exact product of more than {MAX_OUTPUT_DIGITS} digits")
    report = _check_cross(_cross_measures(pairs, d_total, e_total), args.tol)
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
    return {"kl": _cross_sums(*_cross_pairs(bd, be))[1]}, None


def _cmd_hom_count(args):
    if args.over_base:
        pairs = _aligned(read_bundle(args.a), read_bundle(args.b))  # the one alignment
        _check_over_base(pairs)
        count = _power_product(pairs)  # hom_count_over_base of the two bundles
    else:
        d, e = parse(args.a), parse(args.b)
        e_terms = e.terms
        _check_size((_log10_eval(e_terms, m), a) for m, a in d.terms.items())
        count = hom_count(d, e)
    return {"count": count}, [count]


def _cmd_from_dist(args):
    bundle = from_rational_distribution(read_distribution(args.csv))
    poly_text = format_poly(bundle.to_poly())
    document = {"bundle": [{"label": label, "fibre": size} for label, size in bundle.fibres],
                "total": bundle.num_draws, "polynomial": poly_text}
    if args.format == "structured" and not args.output:
        return document, None  # nothing prints the bundle lines
    bundle_lines = ["label,fibre", *(f"{label},{_human(size)}" for label, size in bundle.fibres)]
    total = _human(bundle.num_draws)
    if args.output:
        file_text = "\n".join(bundle_lines) + "\n"
        return document, [f"wrote {args.output}", f"polynomial: {poly_text}", f"total: {total}"], file_text
    # Stdout stays a valid bundle file; the extras ride along as comments.
    return document, [*bundle_lines, f"# polynomial: {poly_text}", f"# total: {total}"]


def _cmd_to_dist(args):
    entries = [(label, _ratio(p)) for label, p in to_distribution(read_bundle(args.bundle)).entries]
    document = {"distribution": [{"label": label, "probability": p} for label, p in entries]}
    return document, ["label,probability", *(f"{label},{p}" for label, p in entries)]


def _cmd_arith(args):
    a, b = parse(args.a), parse(args.b)
    if args.op == "mul" and len(a.terms) * len(b.terms) > MAX_TERM_PAIRS:
        raise ValueError(f"the product expands past {MAX_TERM_PAIRS} term pairs")
    text = format_poly(a + b if args.op == "add" else a * b)
    return {"polynomial": text}, [text]


def _arg(*flags, **options):
    return flags, options


_TOL = _arg("--tol", type=float, default=DEFAULT_TOL)
_FORMAT = _arg("--format", choices=["human", "structured"], default="human",
               help="output style (structured = one JSON document)")

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


def _build_parser(name: str | None = None) -> argparse.ArgumentParser:
    """The parser of all nine commands, or the standalone parser of the one command ``name``."""
    if name:  # prog as a subparser's, so its help and errors read the same
        parser = argparse.ArgumentParser(prog=f"dirpoly {name}")
        parsers = {name: parser}
    else:
        parser = argparse.ArgumentParser(prog="dirpoly", description="Exact Dirichlet polynomial calculator: rig"
                                         " arithmetic, entropy/length/width measures, hom counts, and distributions.")
        parser.add_argument("--version", action="version", version=f"dirpoly {__version__}", help=argparse.SUPPRESS)
        sub = parser.add_subparsers(dest="command", required=True)
        parsers = {command: sub.add_parser(command, help=_COMMANDS[command][1]) for command in _COMMANDS}
    for command, p in parsers.items():
        for flags, options in [_FORMAT, *_COMMANDS[command][2]]:
            p.add_argument(*flags, **options)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    name = argv[0] if argv and argv[0] in _COMMANDS else None
    try:  # a command named first needs only its own parser
        if name:
            args, rest = _build_parser(name).parse_known_args(argv[1:])
        if not name or rest:  # the full parser words a main-level error, such as an argument left over
            args = _build_parser().parse_args(argv)
            name = args.command
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage errors; keep the contract.
        return 0 if exc.code in (0, None) else 2
    structured = args.format == "structured"
    try:
        document, human, *output_file = _COMMANDS[name][0](args)
        # Rendered in full first, so a failure leaves stdout empty and writes no file.
        text = _render(document, human, structured)
        if output_file:
            with open(args.output, "w", encoding="utf-8") as f:
                f.write(output_file[0])
        sys.stdout.write(text)
    except (ValueError, OSError, OverflowError) as exc:  # ParseError is a ValueError
        # An OverflowError's text names the float operation, not the result.
        message = "a result is past the float range" if isinstance(exc, OverflowError) else str(exc)
        if structured:
            import json
            print(json.dumps({"error": message}), file=sys.stderr)
        else:
            print(f"error: {message}", file=sys.stderr)
        return 2
    return 1 if document.get("status") == "fail" else 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
