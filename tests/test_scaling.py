"""Time against input size, one family of inputs per command and dimension.

Each linear family runs one command through ``main()`` on k and on 4k
bundle rows, terms or nested parentheses and compares the minimum of 3 runs
at each size: a ratio of minima within one process holds up on a shared
host far better than a time.  Reading the files, aligning the labels, the
entropy and KL walk, ``parse`` and the rendering are each linear in their
input (the canonical form's sort adds a log factor), so such a path reads
about x4 (less, as ``main()`` has a fixed cost too), and a quadratic one
about x16.  Literal length has no family: below the int/str limit ``int()``
itself is quadratic.
The bound is x8, the geometric mean of the two: a factor 2 of room for
noise on either side.  A bounded family instead exits 2 at both sizes.

Three families are quadratic by their cost model, and their bound is x32,
the geometric mean of a quadratic x16 and a cubic x64:
- ``eval`` along the exponent n: b**n has n * log2(b) bits.  The power takes
  Karatsuba multiplications (x4**1.58, about x9), and printing it is
  quadratic in its digits (``str`` of an int, and ``_decimal``'s 512-digit
  pieces past the int/str limit): x16.
- ``hom-count`` along the exponent m of its source's term m^y and along
  the term's coefficient a: the count e(m)**a has about a * m * log2(b)
  bits, b the target's largest base, so both are the same power and the
  same printing: x16.
- ``arith mul`` along the term count k of each factor: k * k term pairs,
  each added into the product's terms and rendered by ``format_poly``:
  x16, and the canonical form's sort of up to k * k terms adds a log
  factor (log(16 k^2) / log(k^2), x1.4 at k = 32).
"""

from __future__ import annotations

import io
import random
import time
from contextlib import redirect_stderr, redirect_stdout

from dirpoly.cli import main

K = 1000
LINEAR_BOUND = 8.0  # sqrt(4 * 16): between a linear x4 and a quadratic x16
QUADRATIC_BOUND = 32.0  # sqrt(16 * 64): between a quadratic x16 and a cubic x64


def timed(argv: list[str]) -> tuple[int, float]:
    """Exit code and the minimum wall time of 3 runs of ``main(argv)``."""
    best = float("inf")
    for _ in range(3):
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            t0 = time.perf_counter()
            code = main(argv)
            best = min(best, time.perf_counter() - t0)
    return code, best


def write_rows(path, header: str, rows) -> str:
    path.write_text("\n".join([header, *[f"{label},{value}" for label, value in rows]]) + "\n", encoding="utf-8")
    return str(path)


def bundle_pair(tmp_path, rows: int) -> tuple[str, str]:
    """A data and a model bundle file over one label set, the model's rows shuffled.

    Model sizes are powers of two, so the cross width's exact product is one
    shift and the rows, not the product's digits, set the cost."""
    rng = random.Random(rows)
    labels = [f"o{i}" for i in range(rows)]
    data = [(label, rng.randint(1, 9)) for label in labels]
    model = [(label, 2 ** rng.randint(0, 3)) for label in labels]
    rng.shuffle(model)
    return (write_rows(tmp_path / f"d{rows}.csv", "label,fibre", data),
            write_rows(tmp_path / f"e{rows}.csv", "label,fibre", model))


def ratio(tmp_path, command: str, *options: str) -> float:
    times = []
    for rows in (K, 4 * K):
        data, model = bundle_pair(tmp_path, rows)
        code, seconds = timed([command, *options, data] if command == "to-dist" else [command, *options, data, model])
        assert code == 0
        times.append(seconds)
    return times[1] / times[0]


def test_to_dist_is_linear_in_rows(tmp_path):
    assert ratio(tmp_path, "to-dist") < LINEAR_BOUND


def test_kl_is_linear_in_rows(tmp_path):
    assert ratio(tmp_path, "kl") < LINEAR_BOUND


def test_cross_is_linear_in_rows(tmp_path):
    assert ratio(tmp_path, "cross") < LINEAR_BOUND


def test_hom_count_over_base_is_linear_in_rows(tmp_path):
    assert ratio(tmp_path, "hom-count", "--over-base") < LINEAR_BOUND


def test_arith_add_is_linear_in_terms():
    times = []
    for terms in (K, 4 * K):
        rng = random.Random(terms)
        a, b = (" + ".join(f"{rng.randint(1, 99)}*{base}^y" for base in rng.sample(range(2, 10**6), terms))
                for _ in range(2))
        code, seconds = timed(["arith", "add", a, b])
        assert code == 0
        times.append(seconds)
    assert times[1] / times[0] < LINEAR_BOUND


def test_measures_is_linear_in_nesting():
    times = []
    for depth in (25, 100):
        text = "1"
        for level in range(depth):  # one more base and one more pair of parentheses per level
            text = f"({text} + {level + 2}^y)"
        code, seconds = timed(["measures", text])
        assert code == 0
        times.append(seconds)
    assert times[1] / times[0] < LINEAR_BOUND


def size_ratio(argv_of, k: int) -> float:
    """Time of ``main(argv_of(4k))`` over that of ``main(argv_of(k))``, both exiting 0."""
    times = []
    for size in (k, 4 * k):
        code, seconds = timed(argv_of(size))
        assert code == 0
        times.append(seconds)
    return times[1] / times[0]


def test_eval_is_quadratic_in_the_exponent():
    assert size_ratio(lambda n: ["eval", "3^y + 2^y + 5", str(n)], 12_000) < QUADRATIC_BOUND


def test_hom_count_is_quadratic_in_the_exponent_of_its_source():
    assert size_ratio(lambda m: ["hom-count", f"{m}^y", "3^y + 1"], 12_000) < QUADRATIC_BOUND


def test_hom_count_is_quadratic_in_the_coefficient_of_its_source():
    assert size_ratio(lambda a: ["hom-count", f"{a}*2^y", "3^y + 1"], 12_000) < QUADRATIC_BOUND


def test_arith_mul_is_quadratic_in_terms():
    def argv(terms):
        rng = random.Random(terms)
        a, b = (" + ".join(f"{rng.randint(1, 99)}*{base}^y" for base in rng.sample(range(2, 10**6), terms))
                for _ in range(2))
        return ["arith", "mul", a, b]
    assert size_ratio(argv, 32) < QUADRATIC_BOUND


def test_from_dist_on_long_denominators_is_bounded(tmp_path):
    # 25 rows of 4200-digit denominators, 105,000 digits, are within the
    # budget: the sum is taken, and its message names a fraction past the
    # output limit.  100 rows, 420,000 digits, are refused before any lcm,
    # so the larger input is the faster one.
    rng = random.Random(1)
    denominators = [rng.randrange(10**4199, 10**4200) for _ in range(100)]
    seconds = []
    for rows in (25, 100):
        path = write_rows(tmp_path / f"p{rows}.csv", "label,probability",
                          [(f"x{i}", f"1/{q}") for i, q in enumerate(denominators[:rows])])
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            t0 = time.perf_counter()
            code = main(["from-dist", path])
            seconds.append(time.perf_counter() - t0)
        assert (code, out.getvalue()) == (2, "")
        assert err.getvalue().startswith("error: ")
    assert seconds[1] < seconds[0]
