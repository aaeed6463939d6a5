"""Write tests/data/golden.json, the corpus that tests/test_golden.py replays.

    PYTHONPATH=src python tests/make_golden.py

Run it from the repository root on the commit whose results the corpus
should pin; dirpoly is imported from ``PYTHONPATH``.  The inputs are the
benchmark's own pools (``bench/``), built as ``bench/run.py`` builds them
for seeds 1-3, so that tier-1 replays them without importing ``bench/``:

- ``cross``: every cross-kl item through the library: the two bundles,
  realised from rational distributions where the item gives them, their
  cross check and the data bundle's distribution.
- ``cli``: every cli-mix request whose command is ``from-dist``,
  ``to-dist``, ``cross`` or ``kl``, through ``cli.main``: argv, input file
  texts, exit code, stderr, stdout with each float replaced by
  ``FLOAT_MARK`` (hashed when long) and the floats' texts with their bounds,
  and any file written with ``-o``.  The directory of the files is written
  as ``DIR_MARK``.
- ``cli_other``: every other cli-mix request (``eval``, ``measures``,
  ``check``, ``hom-count`` in both forms, ``arith`` and the remaining
  invalid requests) but the usage errors, recorded as ``cli`` is.  The
  residues ``floatError`` and ``logError`` of ``check`` move with the last
  bit of a float, so their bound is ``ANY``: the text must be a float,
  nothing more.  A residue of 0 prints as ``0`` in human output and stays
  in the text, as every integral float does.
- ``usage``: the first stdout line of each ``--help`` and the last stderr
  line of each usage error, cli-mix's unknown command among them, with its
  exit code, at 80 columns.  Whole help texts are not kept: Python 3.13
  wraps the main usage line differently.
- ``parse``: about 2,000 seeded texts through ``parse``, each stored as
  ``[text, canonical]``, its ``format_poly`` text, or as ``[text, message,
  position]``, its ParseError: sums of monomials, texts with parentheses,
  invalid texts, Unicode whitespace (U+00A0, U+3000, U+001C), literals of
  4,300 and 4,301 digits under the 4,300-digit int/str limit, 100 and 101
  levels of nesting, and a product at its term-pair budget and one pair
  past it.

A later change may add sections; one that alters output on purpose writes
the file again and names the cases that changed.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import re
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import climix  # noqa: E402
import crosskl  # noqa: E402

import dirpoly  # noqa: E402
from dirpoly.cli import main  # noqa: E402
from dirpoly.expr import MAX_NESTING, MAX_TERM_PAIRS  # noqa: E402

SEEDS = (1, 2, 3)
COMMANDS = ("from-dist", "to-dist", "cross", "kl")  # the ``cli`` section; the rest go to ``cli_other``
FORMAT = 1
DIR_MARK = "{dir}"
FLOAT_MARK = "<float>"
#: A float as the CLI prints it: a decimal point or an exponent.  An integral
#: float printed without either (``.12g`` of 2.0) stays in the text, exactly.
FLOAT_RE = re.compile(r"(?<![\w.])-?(?:\d+\.\d+(?:e[-+]\d+)?|\d+e[-+]\d+)(?![\w.])")
#: The text before a float that makes it a residue of ``check``, bound ``ANY``.
RESIDUES = ("floatError: ", "logError: ", '"floatError": ', '"logError": ')
#: Each command with placeholder values for its positional arguments.
POSITIONALS = {"eval": ["4^y", "2"], "measures": ["2^y"], "check": ["2^y"], "cross": ["d.csv", "m.csv"],
               "kl": ["d.csv", "m.csv"], "hom-count": ["2^y", "3^y"], "from-dist": ["p.csv"],
               "to-dist": ["b.csv"], "arith": ["add", "1", "2"]}
#: Longer stdout templates are stored as their sha256.
HASH_OVER = 600
OUT = ROOT / "tests" / "data" / "golden.json"


def split_floats(text: str) -> tuple[str, list[list[str]]]:
    """The text with each float replaced by FLOAT_MARK, and each float's text with its bound."""
    floats = [[m[0], "ANY" if text[:m.start()].endswith(RESIDUES) else "DEFAULT_TOL"] for m in FLOAT_RE.finditer(text)]
    return FLOAT_RE.sub(FLOAT_MARK, text), floats


def stdout_key(template: str) -> dict:
    if len(template) > HASH_OVER:
        return {"stdout_sha256": hashlib.sha256(template.encode()).hexdigest()}
    return {"stdout": template}


def ratio(p) -> str:
    return f"{p.numerator}/{p.denominator}"


def cross_cases() -> list[dict]:
    cases, workload = [], crosskl.Workload()
    for seed in SEEDS:
        items = workload.generate(dirpoly, random.Random(f"{seed}:inputs"), None)
        for i, item in enumerate(items):
            as_dist, d_in, e_in = item.inputs
            value = ratio if as_dist else int
            bd, check, dist = workload.call(dirpoly, item.inputs)
            be = (dirpoly.from_rational_distribution(dirpoly.RationalDistribution(e_in)) if as_dist
                  else dirpoly.LabelledBundle(e_in))
            cm = check.cross
            cases.append({
                "case": f"cross-kl seed {seed} item {i}",
                "as_dist": as_dist,
                "data": [[label, value(v)] for label, v in d_in],
                "model": [[label, value(v)] for label, v in e_in],
                "data_sizes": list(bd.sizes),
                "model_sizes": list(be.sizes),
                "num_draws": [bd.num_draws, be.num_draws],
                "distribution": [ratio(p) for p in dist.probabilities],
                "status": check.status,
                "cross_area": cm.cross_area,
                "floats": {name: repr(getattr(cm, name))
                           for name in ("cross_entropy", "cross_width", "cross_length", "kl")},
            })
    return cases


def cli_cases() -> tuple[list[dict], list[dict], list[dict]]:
    """The cli-mix cases of the ``cli``, ``cli_other`` and ``usage`` sections."""
    cases, other, usage = [], [], []
    for seed in SEEDS:
        with tempfile.TemporaryDirectory() as tmp:
            workdir = Path(tmp)
            items = climix.Workload().generate(dirpoly, random.Random(f"{seed}:inputs"), workdir)
            texts = {path.name: path.read_text(encoding="utf-8") for path in workdir.iterdir()}
            for i, item in enumerate(items):
                argv = [arg.replace(str(workdir), DIR_MARK) for arg in item.inputs]
                if argv[0] not in POSITIONALS:  # not one of the nine commands: a usage error
                    usage.append(usage_case(argv, f"cli-mix seed {seed} item {i}"))
                    continue
                names = [arg[len(DIR_MARK) + 1:] for arg in argv if arg.startswith(DIR_MARK)]
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    code = main(item.inputs)
                template, floats = split_floats(out.getvalue().replace(str(workdir), DIR_MARK))
                case = {
                    "case": f"cli-mix seed {seed} item {i}",
                    "argv": argv,
                    "files": {name: texts[name] for name in names if name in texts},
                    "exit": code,
                    "stderr": err.getvalue().replace(str(workdir), DIR_MARK),
                    **stdout_key(template),
                    "floats": floats,
                }
                written = [name for name in names if name not in texts and (workdir / name).exists()]
                if written:
                    case["written"] = {name: (workdir / name).read_text(encoding="utf-8") for name in written}
                (cases if argv[0] in COMMANDS else other).append(case)
    return cases, other, usage


def usage_case(argv: list[str], name: str) -> dict:
    """Exit code and the first stdout line of a ``--help``, or the last stderr line of a usage error."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    kept = {"stdout_first": out.getvalue().splitlines()[0]} if code == 0 else {
        "stderr_last": err.getvalue().splitlines()[-1]}
    return {"case": name, "argv": argv, "exit": code, **kept}


def usage_cases() -> list[dict]:
    """Each ``--help`` and each usage error of the one-command and the full parser."""
    argvs = [["--help"], [], ["nope", "1"], ["--format", "structured", "eval", "1", "2"],
             ["arith", "pow", "1", "2"], ["kl", "a", "b", "c"]]
    for name, positionals in POSITIONALS.items():
        argvs += [[name, "--help"], [name], [name, *positionals, "extra"], [name, "--format", "xml", *positionals]]
    return [usage_case(argv, " ".join(["dirpoly", *argv])) for argv in argvs]


#: Texts of the ``parse`` section drawn from each generator, and the int/str
#: digit limit they are parsed under.
PARSE_COUNTS = {"sum": 700, "grouped": 500, "invalid": 450, "spaces": 300}
DIGIT_LIMIT = 4300
SPACES = ["", "", "", "", " ", " ", " ", "  ", "\t", "\n"]
UNICODE_SPACES = ["\xa0", "\u3000", "\x1c"]
#: Characters an invalid text gets: foreign characters, non-ASCII digits
#: (ARABIC-INDIC THREE, FULLWIDTH ZERO, SUPERSCRIPT TWO) and misplaced operators.
BAD = ["q", "x", "-", ".", "/", "\u0663", "\uff10", "\u00b2", "+", "*", "^", "(", ")", "y", "^2"]


def parse_outcome(text: str) -> list:
    """``[text, canonical]`` or ``[text, message, position]``."""
    try:
        return [text, dirpoly.format_poly(dirpoly.parse(text))]
    except dirpoly.ParseError as e:
        return [text, str(e), e.position]


def literal(rng: random.Random) -> str:
    r = rng.random()
    if r < 0.85:
        return str(rng.randrange(13))
    if r < 0.95:
        return "0" * rng.randrange(1, 3) + str(rng.randrange(100))  # leading zeros
    return str(rng.randrange(10**rng.randrange(2, 21)))


def factor(rng: random.Random, space) -> str:
    number = literal(rng)
    return number + (space() + "^" + space() + "y" if rng.random() < 0.6 else "")


def joined(parts: list[str], op: str, space) -> str:
    return (space() + op + space()).join(parts)


def monomial_sum(rng: random.Random, space) -> str:
    return joined([joined([factor(rng, space) for _ in range(rng.choice([1, 1, 2, 2, 3]))], "*", space)
                   for _ in range(rng.randrange(1, 5))], "+", space)


def grouped(rng: random.Random, space, depth: int = 2) -> str:
    """A sum of products whose atoms are factors or parenthesised sums; few terms, so products stay small."""
    def atom():
        if depth and rng.random() < 0.3:
            return "(" + space() + grouped(rng, space, depth - 1) + space() + ")"
        return factor(rng, space)
    return joined([joined([atom() for _ in range(rng.randrange(1, 3))], "*", space)
                   for _ in range(rng.randrange(1, depth + 2))], "+", space)


def invalid(rng: random.Random, space) -> str:
    """A valid text with one fault: a bad character, a non-ASCII digit, an empty term, ``^2``, a trailing '+'."""
    text = (monomial_sum if rng.random() < 0.7 else grouped)(rng, space)
    fault = rng.randrange(4)
    if fault == 0:
        at = rng.randrange(len(text) + 1)
        return text[:at] + rng.choice(BAD) + text[at:]
    if fault == 1:
        digits = [i for i, c in enumerate(text) if c.isdigit()]
        at = rng.choice(digits)
        return text[:at] + rng.choice(["\u0663", "\uff10"]) + text[at + 1:]
    if fault == 2:
        return text.replace("+", "+" + space() + "+", 1) if "+" in text else "+" + space() + text
    return text + space() + "+"


def with_unicode_spaces(rng: random.Random, space) -> str:
    """A valid or near-valid text whose whitespace is partly U+00A0, U+3000 or U+001C."""
    def unicode_space():
        return rng.choice(UNICODE_SPACES + SPACES)
    return (monomial_sum, grouped, invalid)[rng.randrange(3)](rng, unicode_space)


def budget_product(pairs_past: int) -> str:
    """A product of (a*0^y + b) factors whose 10-digit coefficients grow, padded
    with trailing spaces so that its pairs are ``pairs_past`` past the
    ``MAX_TERM_PAIRS + len(text)`` budget: its output stays two terms."""
    rng = random.Random("parse budget")
    text = "*".join(f"({rng.randrange(10**9, 10**10)}*0^y+{rng.randrange(10**9, 10**10)})" for _ in range(270))
    low, high = 0, MAX_TERM_PAIRS  # the least padding that parses
    while low < high:
        mid = (low + high) // 2
        try:
            dirpoly.parse(text + " " * mid)
            high = mid
        except dirpoly.ParseError:
            low = mid + 1
    assert 0 < low < MAX_TERM_PAIRS
    return text + " " * (low - pairs_past)


def fixed_parse_texts() -> list[str]:
    """The edge texts of the ``parse`` section."""
    rng = random.Random("parse edges")
    at_limit = str(rng.randrange(10**(DIGIT_LIMIT - 1), 10**DIGIT_LIMIT))
    past_limit = at_limit + str(rng.randrange(10))  # str() of it would pass the limit
    nested = "(2^y + 1) * 3"
    return [
        "", "0", "0^y", "1", "+", "^2", "2^y +", "2^y + + 3", "2^y + q", "\u0663^y", "\uff10", "2^y + 1\u0663",
        "\xa02\xa0^\xa0y\xa0+\xa01\xa0", "\u30002\u3000^\u3000y\u3000+\u30001", "2^y\x1c+\x1c1\x1c",
        "2^y + " + at_limit, "(" + at_limit + "^y + 1) * 2", "2^y + " + past_limit, "3*(" + past_limit + "^y))",
        "(" * MAX_NESTING + nested + ")" * MAX_NESTING,
        "(" * (MAX_NESTING + 1) + nested + ")" * (MAX_NESTING + 1),
        "(" * MAX_NESTING + "1" + ")" * (MAX_NESTING - 1),
        budget_product(0), budget_product(1),
    ]


def parse_cases() -> list[list]:
    """The ``parse`` section: the edge texts, then the seeded texts of each
    generator, parsed under the ``DIGIT_LIMIT`` int/str limit."""
    if not hasattr(sys, "set_int_max_str_digits"):
        raise SystemExit("the parse section needs an interpreter with an int/str digit limit (Python 3.11+)")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(DIGIT_LIMIT)
    try:
        texts = fixed_parse_texts()
        generators = {"sum": monomial_sum, "grouped": grouped, "invalid": invalid, "spaces": with_unicode_spaces}
        for name, count in PARSE_COUNTS.items():
            rng = random.Random(f"parse {name}")
            texts += [generators[name](rng, lambda: rng.choice(SPACES)) for _ in range(count)]
        return [parse_outcome(text) for text in texts]
    finally:
        sys.set_int_max_str_digits(limit)


def main_() -> None:
    os.environ["COLUMNS"] = "80"  # argparse wraps its usage lines to the terminal's width
    cli, cli_other, cli_usage = cli_cases()
    corpus = {
        "format": FORMAT,
        "written_by": "tests/make_golden.py",
        "dir_mark": DIR_MARK,
        "float_mark": FLOAT_MARK,
        "float_pattern": FLOAT_RE.pattern,
        "cross": cross_cases(),
        "cli": cli,
        "cli_other": cli_other,
        "usage": usage_cases() + cli_usage,
        "parse": parse_cases(),
    }
    OUT.parent.mkdir(exist_ok=True)
    OUT.write_text(json.dumps(corpus, separators=(",", ":")) + "\n", encoding="utf-8")
    print(f"{OUT}: {len(corpus['cross'])} cross cases, {len(cli)} cli cases, {len(cli_other)} other cli cases,"
          f" {len(corpus['usage'])} usage cases, {len(corpus['parse'])} parse cases, {OUT.stat().st_size} bytes")


if __name__ == "__main__":
    main_()
