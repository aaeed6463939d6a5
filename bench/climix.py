"""cli-mix: in-process ``dirpoly.cli.main(argv)`` over all nine subcommands.

Every slot of the mix appears equally often in human and in structured
format.  Bundle and distribution files are written during set-up.  Sizes
climb to integers just under CPython's 4300-digit int-to-str limit and to
``arith mul`` on dozens of terms, so argparse, rendering and the
expression layer dominate while the big-integer kernels stay light.  A
share of invalid inputs must each exit 2 with nothing on stdout.

Expected documents are built from ``reference`` alone and compared field
by field: integers and strings exactly, floats within ``DEFAULT_TOL``.
"""

from __future__ import annotations

import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import reference as ref
from common import MIN_KL, Item, Probe, ladder, render_poly, split

NAME = "cli-mix"
WHY = ("all nine CLI subcommands in-process, half structured, integers up to 4300 digits,"
       " arith mul on dozens of terms, some invalid inputs; argparse and rendering dominate")
SLOTS = ("eval", "eval", "measures", "measures", "check", "check", "cross", "cross", "kl", "kl",
         "hom", "hom", "homfile", "fromdist", "fromdist", "todist", "todist",
         "add", "add", "mul", "mul", "mul", "invalid", "invalid")
ROUNDS = 10  # each slot appears ROUNDS times, alternating the format


def _write(path: Path, header: str, rows, rng: random.Random) -> str:
    lines = [header] + [f"{a},{b}" for a, b in rows]
    if rng.random() < 0.3:
        lines.insert(1, "# written by the benchmark")
        lines.append("")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def _labels(k: int, rng: random.Random) -> list[str]:
    return [f"o{n}" for n in rng.sample(range(10 * k), k)]


class _PoolMaker:
    """Makes one pool item per call; ``j`` is the item's rank within its slot."""

    def __init__(self, rng: random.Random, workdir: Path):
        self.rng = rng
        self.workdir = workdir
        self.files = 0
        self.invalid_cases = []

    def path(self, stem: str) -> Path:
        self.files += 1
        return self.workdir / f"{stem}{self.files}.csv"

    def bundle_file(self, labels, sizes) -> str:
        return _write(self.path("bundle"), "label,fibre", zip(labels, sizes), self.rng)

    def poly(self, digits: float, count: int, top: int) -> dict[int, int]:
        """Terms whose power product P has about ``digits`` decimal digits."""
        bases = self.rng.sample(range(2, top), count)
        return {b: max(1, round(digits / count / (b * math.log10(b)))) for b in bases}

    def eval(self, j):
        top = self.rng.randint(3, 9)
        terms = {b: self.rng.randint(1, 5) for b in self.rng.sample(range(1, top + 1), 2)}
        n = int(ladder(j, ROUNDS, 0.5, 3.55, 1.0, self.rng) / math.log10(top))
        return ["eval", render_poly(terms, self.rng), str(n)], ("eval", terms, n)

    def measures(self, j):
        terms = self.poly(ladder(j, ROUNDS, 1.0, 3.45, 1.0, self.rng), 1 + j % 4, 120)
        if j % 3 == 0:
            terms[1] = self.rng.randint(1, 4)
        return ["measures", render_poly(terms, self.rng)], ("measures", terms)

    def check(self, j):
        argv, (_, terms) = self.measures(j)
        return ["check"] + argv[1:], ("check", terms)

    def _pair(self, j, degenerate):
        k = 3 + (j * 3) % 20
        while True:
            d = split(ladder(j, ROUNDS, 1.5, 3.3, 1.0, self.rng), k, self.rng)
            e = split(ladder(j, ROUNDS, 1.5, 3.3, 1.0, self.rng), k, self.rng)
            if degenerate:
                e[0], e[1] = 0, e[0] + e[1]
            if degenerate or ref.cross(d, e)["kl"] >= MIN_KL:
                break
        labels = _labels(k, self.rng)
        order = self.rng.sample(range(k), k)
        files = [self.bundle_file(labels, d),
                 self.bundle_file([labels[i] for i in order], [e[i] for i in order])]
        return files, d, e

    def cross(self, j):
        files, d, e = self._pair(j, degenerate=j == 3)
        return ["cross"] + files, ("cross", d, e)

    def kl(self, j):
        files, d, e = self._pair(j, degenerate=j == 4)
        return ["kl"] + files, ("kl", d, e)

    def hom(self, j):
        e = {b: self.rng.randint(1, 3) for b in self.rng.sample(range(1, 10), self.rng.randint(1, 4))}
        digits = ladder(j, ROUNDS, 0.5, 3.5, 1.0, self.rng)
        bases = self.rng.sample(range(1, 7), self.rng.randint(1, 3))
        d = {b: max(1, round(digits / len(bases) / math.log10(max(2, ref.poly_eval(e, b)))))
             for b in bases}
        return ["hom-count", render_poly(d, self.rng), render_poly(e, self.rng)], ("hom", d, e)

    def homfile(self, j):
        k = 2 + j % 8
        e = [self.rng.randint(1, 40) for _ in range(k)]
        digits = ladder(j, ROUNDS, 0.5, 3.5, 1.0, self.rng)
        d = [max(0, round(digits / k / math.log10(max(2, s)))) for s in e]
        labels = _labels(k, self.rng)
        files = [self.bundle_file(labels, d), self.bundle_file(labels[::-1], e[::-1])]
        return ["hom-count", "--over-base"] + files, ("homfile", d, e)

    def fromdist(self, j):
        k = 3 + (j * 5) % 23
        weights = split(max(k, ladder(j, ROUNDS, 1.0, 4.0, 1.0, self.rng)), k, self.rng)
        if j % 4 == 1:
            weights[0] = 0
        total = sum(weights)
        labels = _labels(k, self.rng)
        probs = [Fraction(w, total) for w in weights]
        path = _write(self.path("dist"), "label,probability", zip(labels, probs), self.rng)
        argv = ["from-dist", path]
        out = None
        if j % 5 == 2:
            out = str(self.path("written"))
            argv += ["-o", out]
        return argv, ("fromdist", labels, probs, out)

    def todist(self, j):
        k = 2 + (j * 7) % 30
        sizes = split(ladder(j, ROUNDS, 0.5, 4.0, 1.0, self.rng) + k, k, self.rng)
        if j % 3 == 0:
            sizes[-1] = 0
        labels = _labels(k, self.rng)
        return ["to-dist", self.bundle_file(labels, sizes)], ("todist", labels, sizes)

    def _arith(self, op, j):
        count = 8 + (j * 4) % 33
        a = {b: self.rng.randint(1, 10**6) for b in self.rng.sample(range(0, 500), count)}
        b = {b: self.rng.randint(1, 10**6) for b in self.rng.sample(range(0, 500), count)}
        return (["arith", op, render_poly(a, self.rng), render_poly(b, self.rng)],
                (op, a, b))

    def add(self, j):
        return self._arith("add", j)

    def mul(self, j):
        return self._arith("mul", j)

    def invalid(self, j):
        """Inputs the README says must exit 2; the library already rejects each of them cleanly."""
        if not self.invalid_cases:
            self.invalid_cases = self._invalid_cases()
        cases = self.invalid_cases
        return cases[(j * 7 + self.rng.randrange(3)) % len(cases)], ("invalid",)

    def _invalid_cases(self):
        rng = self.rng
        good = self.bundle_file(["a", "b"], [1, 2])
        return [
            ["measures", "2^y + x"],
            ["eval", "2^3", "2"],
            ["check", "(2^y + 1"],
            ["arith", "mul", "2^y +", "3"],
            ["eval", "2^y", "1.5"],
            ["measures", "0"],
            ["cross", good, str(self.workdir / "missing.csv")],
            ["to-dist", _write(self.path("bad"), "name,size", [("a", 1)], rng)],
            ["to-dist", _write(self.path("bad"), "label,fibre", [("a", "-3")], rng)],
            ["from-dist", _write(self.path("bad"), "label,probability", [("a", "0.5"), ("b", "1/2")], rng)],
            ["from-dist", _write(self.path("bad"), "label,probability", [("a", "1/2"), ("b", "1/3")], rng)],
            ["kl", good, self.bundle_file(["a", "c"], [1, 2])],
            ["to-dist", self.bundle_file(["a", "a"], [1, 2])],
            ["frobnicate", "2^y"],
            ["to-dist", self.bundle_file(["a", "b"], [0, 0])],
        ]


def _float_fields(pairs):
    return [(key, "float", value) for key, value in pairs]


def _expected(spec, structured: bool, tol) -> dict:
    """The expected exit code and stdout document of one request."""
    kind = spec[0]
    if kind == "invalid":
        return {"code": 2, "error": True}
    if kind == "eval":
        value = ref.poly_eval(spec[1], spec[2])
        return _scalar("value", value, structured)
    if kind in ("hom", "homfile"):
        count = ref.hom_count(spec[1], spec[2]) if kind == "hom" else ref.over_base_count(spec[1], spec[2])
        return _scalar("count", count, structured)
    if kind in ("add", "mul"):
        result = (ref.poly_add if kind == "add" else ref.poly_mul)(spec[1], spec[2])
        text = ref.poly_text(result)
        if structured:
            return {"code": 0, "fields": [("polynomial", "exact", text)]}
        return {"code": 0, "text": text + "\n"}
    if kind in ("measures", "check"):
        terms = spec[1]
        area = ref.draws(terms)
        h, w = ref.entropy(terms), ref.width(terms)
        p = 1
        for base, coeff in terms.items():
            p *= pow(base, base * coeff)
        fields = [("polynomial", "exact", ref.poly_text(terms)), ("area", "exact", area)]
        if kind == "measures":
            fields += [("powerProduct", "exact", p)]
            fields += _float_fields([("width", w), ("entropy", h), ("length", 2.0**h)])
        elif structured:
            fields += [("powerProduct", "exact", p)]
            fields += _float_fields([("width", w), ("entropy", h), ("length", 2.0**h),
                                     ("lengthTimesWidth", float(area))])
            fields += [("floatError", "any", None), ("logError", "any", None),
                       ("tol", "exact", tol.default), ("status", "exact", "pass")]
        else:
            fields += [("length*width", "float", float(area)),
                       ("floatError", "any", None), ("logError", "any", None),
                       ("status", "exact", "pass")]
        return {"code": 0, "fields": fields}
    if kind in ("cross", "kl"):
        c = ref.cross(spec[1], spec[2])
        if kind == "kl":
            return {"code": 0, "fields": _float_fields([("kl", c["kl"])])}
        status = "degenerate" if c["degenerate"] else "pass"
        length = math.inf if c["degenerate"] else c["cross_length"]
        fields = [("crossEntropy", "float", c["cross_entropy"]), ("crossArea", "exact", c["cross_area"]),
                  ("crossWidth", "float", c["cross_width"]), ("crossLength", "float", length),
                  ("kl", "float", c["kl"])]
        if structured:
            fields.append(("tol", "exact", tol.default))
        fields.append(("status", "exact", status))
        return {"code": 0, "fields": fields}
    if kind == "fromdist":
        _, labels, probs, out = spec
        sizes = ref.realise(probs)
        poly = {}
        for s in sizes:
            poly[s] = poly.get(s, 0) + 1
        poly_text, total = ref.poly_text(poly), sum(sizes)
        document = "label,fibre\n" + "".join(f"{lab},{s}\n" for lab, s in zip(labels, sizes))
        file = {"file": (out, document)} if out else {}
        if structured:
            bundle = [{"label": lab, "fibre": s} for lab, s in zip(labels, sizes)]
            return {"code": 0, "fields": [("bundle", "exact", bundle), ("total", "exact", total),
                                          ("polynomial", "exact", poly_text)], **file}
        if out:
            return {"code": 0, "text": f"wrote {out}\npolynomial: {poly_text}\ntotal: {total}\n", **file}
        return {"code": 0, "text": f"{document}# polynomial: {poly_text}\n# total: {total}\n"}
    if kind == "todist":
        _, labels, sizes = spec
        probs = [Fraction(s, sum(sizes)) for s in sizes]
        if structured:
            rows = [{"label": lab, "probability": str(p)} for lab, p in zip(labels, probs)]
            return {"code": 0, "fields": [("distribution", "exact", rows)]}
        return {"code": 0, "text": "label,probability\n" + "".join(
            f"{lab},{p}\n" for lab, p in zip(labels, probs))}
    raise ValueError(f"unknown request kind {kind!r}")


def _scalar(key: str, value: int, structured: bool) -> dict:
    if structured:
        return {"code": 0, "fields": [(key, "exact", value)]}
    return {"code": 0, "text": ref.decimal(value) + "\n"}


def _fields_match(out: str, fields, structured: bool, tol) -> bool:
    if structured:
        if out.count("\n") != 1:
            return False
        document = json.loads(out)
        if list(document) != [key for key, _, _ in fields]:
            return False
        values = [document[key] for key, _, _ in fields]
    else:
        lines = out.splitlines()
        if len(lines) != len(fields):
            return False
        values = []
        for line, (key, _, _) in zip(lines, fields):
            name, sep, text = line.partition(": ")
            if name != key or not sep:
                return False
            values.append(text)
    for value, (_, mode, expected) in zip(values, fields):
        if mode == "float":
            if not ref.close(float(value), expected, tol.default):
                return False
        elif mode == "exact":
            if structured and value != expected:
                return False
            if not structured and value != (ref.decimal(expected) if isinstance(expected, int)
                                            else str(expected)):
                return False
    return True


class Workload:
    name = NAME
    why = WHY

    def generate(self, dp, rng: random.Random, workdir: Path) -> list[Item]:
        maker = _PoolMaker(rng, workdir)
        items = []
        for j in range(ROUNDS):
            for slot in SLOTS:
                argv, spec = getattr(maker, slot)(j)
                structured = j % 2 == 1
                if structured:
                    argv = argv[:1] + ["--format", "structured"] + argv[1:]
                items.append(Item(argv, (spec, structured), _sizes(spec)))
        return items

    def reference(self, item: Item, tol) -> dict:
        spec, structured = item.spec
        return {"structured": structured, **_expected(spec, structured, tol)}

    def call(self, dp, argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = dp.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def counts(self, result) -> dict[str, int]:
        """Size counters of one request for the traced run."""
        return {"cli.stdout.bytes": len(result[1].encode())}

    def check(self, dp, expected: dict, result, tol) -> bool:
        code, out, err = result
        if code != expected["code"]:
            return False
        if expected.get("error"):
            return out == "" and err.strip() != ""
        if "text" in expected:
            ok = out == expected["text"]
        else:
            ok = _fields_match(out, expected["fields"], expected["structured"], tol)
        if ok and "file" in expected:
            path, content = expected["file"]
            ok = Path(path).read_text(encoding="utf-8") == content
        return ok

    def probes(self, workdir: Path) -> list[Probe]:
        """Inputs the README promises an answer or exit 2 for, got wrong when this was written."""
        zero_den = _write(workdir / "probe-dist.csv", "label,probability",
                          [("a", "1/0"), ("b", "1")], random.Random(0))
        nested = "(" * 400 + "2^y + 1" + ")" * 400
        # (name, argv, spec of the right answer, whether a clean exit 2 also counts as right)
        cases = [
            ("eval past 4300 digits", ["eval", "2^y", "20000"], ("eval", {2: 1}, 20000), False),
            ("measures with powerProduct past 4300 digits", ["measures", "1000*10^y"],
             ("measures", {10: 1000}), False),
            ("hom-count past 4300 digits", ["hom-count", "5000*2^y", "3^y + 1"],
             ("hom", {2: 5000}, {3: 1, 1: 1}), False),
            ("probability 1/0 in a distribution file", ["from-dist", zero_den], ("invalid",), False),
            ("400 nested parentheses", ["measures", nested], ("measures", {2: 1, 1: 1}), True),
        ]

        def probe(argv, spec, accept_exit_2):
            def run(dp, tol):
                result = self.call(dp, argv)
                code, out, err = result
                if accept_exit_2 and code == 2:
                    return out == "" and err.count("\n") == 1
                return self.check(dp, {"structured": False, **_expected(spec, False, tol)}, result, tol)
            return run
        return [Probe(name, probe(argv, spec, exit_2)) for name, argv, spec, exit_2 in cases]


def _sizes(spec) -> dict:
    kind = spec[0]
    if kind in ("measures", "check"):
        terms = spec[1]
        return {"terms": len(terms), "outcomes": ref.outcomes(terms), "draws": ref.draws(terms),
                "p_bits": ref.power_product_bits(terms)}
    if kind in ("add", "mul"):
        return {"terms": len(spec[1]) + len(spec[2])}
    if kind in ("cross", "kl", "homfile"):
        return {"outcomes": len(spec[1]), "draws": sum(spec[1])}
    return {}
