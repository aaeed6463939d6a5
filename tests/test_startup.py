"""Start-up of the command line, each case in a fresh interpreter.

A command pays at every process start for the modules it imports, so
``json`` and ``fractions`` (which brings ``decimal`` and ``numbers``) load
only for the commands and formats that use them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import dirpoly

SRC = str(Path(dirpoly.__file__).resolve().parent.parent)
PRINT_MODULES = "import sys; print(' '.join(sorted(sys.modules)))"
ON_DEMAND = {"json", "fractions", "decimal", "numbers"}
LIBRARY = {"dirpoly", *(f"dirpoly.{name}" for name in
                        ("core", "distributions", "expr", "homs", "measures", "rect"))}


def python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=60)


def modules_after(code: str) -> set[str]:
    """The modules loaded once ``code`` has run in a fresh interpreter."""
    proc = python("-c", f"{code}\n{PRINT_MODULES}")
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def cli(*argv: str) -> subprocess.CompletedProcess:
    return python("-m", "dirpoly.cli", *argv)


def test_eval_loads_neither_json_nor_fractions():
    bare = modules_after("pass")
    added = modules_after("from dirpoly.cli import main; main(['eval', '4^y + 4', '2'])") - bare
    assert "dirpoly.cli" in added
    assert not added & ON_DEMAND


def test_import_dirpoly_loads_the_whole_library():
    loaded = modules_after("import dirpoly")
    assert {m for m in loaded if m == "dirpoly" or m.startswith("dirpoly.")} == LIBRARY


def test_on_demand_paths_from_a_cold_process(tmp_path):
    proc = cli("eval", "--format", "structured", "4^y", "2")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, '{"value": 16}\n', "")

    proc = cli("measures", "--format", "structured", "2^y + q")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert json.loads(proc.stderr) == {"error": "unexpected character 'q' (at position 6)"}

    dist = tmp_path / "d.csv"
    dist.write_text("label,probability\nh,1/3\nt,2/3\n", encoding="utf-8")
    bundle = tmp_path / "b.csv"
    proc = cli("from-dist", "-o", str(bundle), str(dist))
    assert proc.returncode == 0, proc.stderr
    assert bundle.read_text(encoding="utf-8") == "label,fibre\nh,1\nt,2\n"
    proc = cli("to-dist", str(bundle))
    assert (proc.returncode, proc.stdout) == (0, "label,probability\nh,1/3\nt,2/3\n")
