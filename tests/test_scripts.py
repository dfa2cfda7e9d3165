"""Smoke tests: the example scripts and the benchmark tracer fit the library."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


# per script, the weights line it documents under each fit's name
CLAIMS = {
    "scripts/quasimodular_fits.py": {
        "triangle": "weights [6, 8] (mixed)",
        "middle": "weights [8] (homogeneous)",
        "tri+right": "weights [8] (homogeneous)",
    },
}


def verdicts(stdout):
    """name -> the weights line printed under that name's fit."""
    lines = stdout.splitlines()
    return {
        line.split(":")[0].strip(): lines[i + 1].strip()
        for i, line in enumerate(lines[:-1])
        if not line.startswith(" " * 9)
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["scripts/quasimodular_fits.py"],
        ["scripts/descendant_table.py", "--dmax", "2"],
    ],
)
def test_script_exits_cleanly(argv):
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    printed = verdicts(proc.stdout)
    for name, verdict in CLAIMS.get(argv[0], {}).items():
        assert printed.get(name) == verdict, (name, proc.stdout)


def test_tracer_names_resolve():
    # perfbench/spans.py patches these names at run time; a renamed or removed
    # library function would otherwise only break `perfbench/run.py --trace 1`.
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py"
    )
    spans = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # read-only load
    try:
        spec.loader.exec_module(spans)
    finally:
        sys.dont_write_bytecode = saved
    traced = set()
    for layer, funcs in spans.TRACED.items():
        module = importlib.import_module(f"trofey.{layer}")
        for func in funcs:
            assert callable(getattr(module, func, None)), f"trofey.{layer}.{func}"
            traced.add(f"{layer}.{func}")
    assert set(spans.OBSERVERS) <= traced
    assert callable(importlib.import_module("trofey.cli")._run_tasks)


# Runs one CLI query under the benchmark tracer, as perfbench/child.py
# does with TRACE=1, and prints its exit code and the spans' raw sums.
TRACED_QUERY = """
import contextlib, io, json, sys
from spans import Tracer, analyse
import trofey.cli

tracer = Tracer()
tracer.install()
with contextlib.redirect_stdout(io.StringIO()):
    code = tracer.run_root(lambda: trofey.cli.main(sys.argv[1:]))
raw, _ = analyse(tracer.dump())
print(json.dumps({"code": code, "raw": raw}))
"""


@pytest.mark.parametrize(
    "argv, rows, bases",
    [
        # --coeffs alone: the CLI builds the basis once for the least
        # accepted q-order (6), the fit once more
        (["fit", "--coeffs", "1", "--max-weight", "0"], 7, 2),
        # --from: the file's last q-exponent (7) is the q-order
        (["fit", "--from", "SERIES", "--max-weight", "2"], 8, 1),
    ],
    ids=["coeffs", "from"],
)
def test_tracer_observes_the_fit_cli(tmp_path, argv, rows, bases):
    # spans.OBSERVERS reads the fit's q-order as args[2]: the CLI must pass
    # it an int, positionally, on every path, or `run.py --trace 1` breaks
    e2 = [1, -24, -72, -96, -168, -144, -288, -192]
    series = tmp_path / "series.json"
    series.write_text(
        json.dumps({"results": [{"labels": {"d": d}, "value": str(c)} for d, c in enumerate(e2)]})
    )
    argv = [str(series) if arg == "SERIES" else arg for arg in argv]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run(
        [sys.executable, "-S", "-B", "-c", TRACED_QUERY, *argv],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    done = json.loads(proc.stdout)
    assert done["code"] == 0
    raw = done["raw"]
    assert raw["quasimodular.errors"] == 0
    assert raw["quasimodular.fit.calls"] == 1
    assert raw["quasimodular.fit.rows"] == rows
    assert raw["quasimodular.basis.calls"] == bases
