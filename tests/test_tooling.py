"""Source checks over ``src/trofey``, and the names ``perfbench`` reads from it,
that need only the standard library."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "trofey"
PERFBENCH = ROOT / "perfbench"


def _referenced_names(node: ast.AST) -> set[str]:
    """Names loaded, attributes read and names imported anywhere in node."""
    names: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def test_every_private_def_is_used_in_the_package():
    # a private helper that only the tests call is a leftover: its test
    # oracle belongs under tests/, not in the package
    tops = [
        (path.name, node)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.parse(path.read_text()).body
    ]
    names = [_referenced_names(node) for _, node in tops]
    private = [
        (i, module, node.name)
        for i, (module, node) in enumerate(tops)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
    ]
    # the scan is not vacuous: it sees the package's private helpers
    assert len(private) >= 48
    # a reference from the def's own body (recursion) does not count
    unused = [
        f"{module}:{name}"
        for i, module, name in private
        if not any(name in used for j, used in enumerate(names) if j != i)
    ]
    assert unused == []


def test_no_module_reads_the_environment():
    # every setting is a flag or a parameter: nothing reads os.environ or
    # os.getenv, by attribute or by import
    env_names = {"environ", "environb", "getenv", "getenvb"}
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) >= 9
    reads = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in env_names:
                reads.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                reads += [f"{path.name}:{node.lineno}" for a in node.names if a.name in env_names]
    assert reads == []


def _loaded_by_cli_import() -> set[str]:
    """The modules a fresh ``import trofey.cli`` loads (-S: no site .pth files)."""
    probe = "import sys, trofey.cli; print(' '.join(sorted(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    return set(done.stdout.split())


def test_cli_import_stays_light():
    # every trofey command pays for what importing the CLI pulls in:
    # dataclasses drags in inspect (and ast, dis, tokenize), and csv serves
    # one output format only
    loaded = _loaded_by_cli_import()
    assert "trofey.cli" in loaded
    assert loaded & {"dataclasses", "inspect", "csv"} == set()


def test_benchmark_tracer_finds_every_name_it_patches():
    # perfbench/spans.py wraps each TRACED name in its module after
    # ``import trofey.cli``, and patches cli._run_tasks; perfbench/child.py
    # imports library names for its product query.  Read both by ast, so
    # that no simplification of trofey can break ``run.py --trace 1``.
    spans = ast.parse((PERFBENCH / "spans.py").read_text())
    [traced] = [
        node.value
        for node in spans.body
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "TRACED"
    ]
    traced = ast.literal_eval(traced)
    assert len(traced) >= 7
    loaded = _loaded_by_cli_import()
    missing = []
    for layer, funcs in traced.items():
        assert f"trofey.{layer}" in loaded, layer
        module = importlib.import_module(f"trofey.{layer}")
        missing += [
            f"{layer}.{name}" for name in funcs if not inspect.isfunction(getattr(module, name, None))
        ]
    imported = [
        (node.module, alias.name)
        for node in ast.walk(ast.parse((PERFBENCH / "child.py").read_text()))
        if isinstance(node, ast.ImportFrom) and node.module.startswith("trofey")
        for alias in node.names
    ]
    assert imported
    missing += [
        f"{module}.{name}"
        for module, name in imported + [("trofey.cli", "_run_tasks")]
        if not callable(getattr(importlib.import_module(module), name, None))
    ]
    assert missing == []


def test_cli_imports_no_private_name():
    # the CLI reads each route through its public interface
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(ast.parse((SRC / "cli.py").read_text()))
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("trofey"))
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__")
    ]
    assert private == []
