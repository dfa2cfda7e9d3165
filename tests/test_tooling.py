"""Source checks over ``src/trofey``, and the names ``perfbench`` reads from it,
that need only the standard library."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path
from typing import Iterator

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "trofey"
PERFBENCH = ROOT / "perfbench"

# Public defs that no root reaches and that stay, with the reason.  Empty: a
# def that only tests read lives in their oracle (the connected Hurwitz
# count is in tests/fock_oracle.py).
UNREACHED_ON_PURPOSE: dict[str, str] = {}


def _referenced_names(node: ast.AST) -> set[str]:
    """Names loaded, attributes read and names imported anywhere in node; an
    attribute read also enters as ``.attr``, the one way to read a member."""
    names: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.update((sub.attr, f".{sub.attr}"))
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
    assert len(private) >= 38
    # a reference from the def's own body (recursion) does not count
    unused = [
        f"{module}:{name}"
        for i, module, name in private
        if not any(name in used for j, used in enumerate(names) if j != i)
    ]
    assert unused == []


def test_only_graphs_says_what_a_valid_query_is():
    # graphs.check_query is the one check of a query's multidegree, leaks
    # and genus function; no route words those messages again
    messages = ("multidegree must be", "leak vector must have length", "genus function must be")
    found = {
        (path.name, message)
        for path in sorted(SRC.glob("*.py"))
        for message in messages
        if message in path.read_text()
    }
    assert found == {("graphs.py", message) for message in messages}


def test_only_the_fit_says_that_no_polynomial_matches():
    # quasimodular.fit owns a fit's outcome: it returns the matching
    # polynomial or raises, and the CLI passes its message on
    message = "no polynomial of weight"
    found = {path.name for path in sorted(SRC.glob("*.py")) if message in path.read_text()}
    assert found == {"quasimodular.py"}


def _guards(node: ast.AST) -> set[str]:
    """Which of the two table-pass guards a def holds: "cap" for a raise
    whose message says the q-order must be >= 0, "leaks" for a comparison
    of a ``sum(...)`` call with 0."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Raise):
            texts = [c.value for c in ast.walk(sub) if isinstance(c, ast.Constant)]
            if any(isinstance(t, str) and "q-order must be >= 0" in t for t in texts):
                found.add("cap")
        elif isinstance(sub, ast.Compare):
            sides = [sub.left, *sub.comparators]
            summed = any(
                isinstance(side, ast.Call) and getattr(side.func, "id", None) == "sum"
                for side in sides
            )
            if summed and any(getattr(side, "value", None) == 0 for side in sides):
                found.add("leaks")
    return found


def test_each_table_pass_owns_its_guards():
    # a negative q-order cap and a leak vector with nonzero sum are decided
    # once per route, by the pass every entry point reads; only the CLI,
    # which checks its own flags, words the q-order message again
    found = {
        f"{path.stem}.{node.name}": _guards(node)
        for path in sorted(SRC.glob("*.py"))
        if path.name != "cli.py"
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _guards(node)
    }
    assert found == {
        "covers._cover_pass": {"cap", "leaks"},
        "integrals._graded_pass": {"cap", "leaks"},
    }


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
    # dataclasses drags in inspect (and ast, dis, tokenize), csv serves one
    # output format only, and json only the queries that read or write it
    loaded = _loaded_by_cli_import()
    assert "trofey.cli" in loaded
    assert loaded & {"dataclasses", "inspect", "csv", "json"} == set()


def _spans_value(name: str) -> ast.expr:
    """The value of the top-level annotated assignment ``name`` in
    ``perfbench/spans.py``, read by ast."""
    spans = ast.parse((PERFBENCH / "spans.py").read_text())
    [value] = [
        node.value
        for node in spans.body
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == name
    ]
    return value


def _traced() -> dict[str, tuple[str, ...]]:
    """``perfbench/spans.TRACED``: the names the tracer wraps, per module."""
    return ast.literal_eval(_spans_value("TRACED"))


def _trofey_imports(path: Path) -> list[tuple[str, str]]:
    """(module, name) of every ``from trofey... import name`` in a file."""
    return [
        (node.module, alias.name)
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.module.startswith("trofey")
        for alias in node.names
    ]


def test_benchmark_tracer_finds_every_name_it_patches():
    # perfbench/spans.py wraps each TRACED name in its module after
    # ``import trofey.cli``, and patches cli._run_tasks; perfbench/child.py
    # imports library names for its product query.  Read both by ast, so
    # that no simplification of trofey can break ``run.py --trace 1``.
    traced = _traced()
    assert len(traced) >= 7
    loaded = _loaded_by_cli_import()
    missing = []
    for layer, funcs in traced.items():
        assert f"trofey.{layer}" in loaded, layer
        module = importlib.import_module(f"trofey.{layer}")
        missing += [
            f"{layer}.{name}" for name in funcs if not inspect.isfunction(getattr(module, name, None))
        ]
    imported = _trofey_imports(PERFBENCH / "child.py")
    assert imported
    missing += [
        f"{module}.{name}"
        for module, name in imported + [("trofey.cli", "_run_tasks")]
        if not callable(getattr(importlib.import_module(module), name, None))
    ]
    assert missing == []


def _observed_arguments() -> dict[str, int]:
    """``perfbench/spans.OBSERVERS``: for each observer that reads the traced
    call's positional arguments, how many it needs (one past the largest i
    of its ``args[i]``), keyed by the observed "layer.name"."""
    spans = ast.parse((PERFBENCH / "spans.py").read_text())
    helpers = {node.name: node for node in spans.body if isinstance(node, ast.FunctionDef)}
    observers = _spans_value("OBSERVERS")
    needed = {}
    for key, value in zip(observers.keys, observers.values):
        observer = helpers[value.id] if isinstance(value, ast.Name) else value
        args = observer.args.args[0].arg
        read = [
            sub.slice.value
            for sub in ast.walk(observer)
            if isinstance(sub, ast.Subscript) and getattr(sub.value, "id", None) == args
        ]
        if read:
            needed[key.value] = max(read) + 1
    return needed


def _observed_calls(path: Path, observed: set[str]) -> Iterator[tuple[str, ast.Call]]:
    """(observed "layer.name", call) for every call in a module of
    ``src/trofey`` to an observed function: by its own name in its module,
    or through any import of it or of its module, aliases included."""
    tree = ast.parse(path.read_text())
    functions = {name.split(".")[1]: name for name in observed if name.startswith(f"{path.stem}.")}
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("trofey")):
            layer = (node.module or "").split(".")[-1]
            for alias in node.names:
                local = alias.asname or alias.name
                if f"{layer}.{alias.name}" in observed:
                    functions[local] = f"{layer}.{alias.name}"
                elif layer in ("", "trofey"):
                    modules[local] = alias.name
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in functions:
            yield functions[func.id], node
        elif isinstance(func, ast.Attribute) and getattr(func.value, "id", None) in modules:
            name = f"{modules[func.value.id]}.{func.attr}"
            if name in observed:
                yield name, node


def test_benchmark_observers_find_their_positional_arguments():
    # perfbench/spans.OBSERVERS reads some traced calls' positional
    # arguments (args[i]), so a signature that loses them, or a call that
    # passes them by keyword, breaks ``run.py --trace 1`` without failing
    # any other test.  Read the observers by ast, like _traced().
    needed = _observed_arguments()
    assert len(needed) >= 2
    for name, count in needed.items():
        layer, func = name.split(".")
        parameters = inspect.signature(getattr(importlib.import_module(f"trofey.{layer}"), func))
        positional = [
            p
            for p in parameters.parameters.values()
            if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
        ]
        assert len(positional) >= count, name
    called, short = set(), []
    for path in sorted(SRC.glob("*.py")):
        for name, call in _observed_calls(path, set(needed)):
            called.add(name)
            passed = [arg for arg in call.args if not isinstance(arg, ast.Starred)]
            if len(passed) < needed[name]:
                short.append(f"{path.name}:{call.lineno} {name}")
    # the scan is not vacuous: it finds a call of every observed function
    assert called == needed.keys()
    assert short == []


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


def _defs_and_members(path: Path) -> dict[tuple[str, str], set[str]]:
    """Names referenced by each top-level def of a module, and by each public
    method or property of its public classes, keyed (module, "Class.member").

    A class keeps the references of its bases, decorators and private or
    special methods; a public member's own references count only once the
    member is reached.
    """
    defs: dict[tuple[str, str], set[str]] = {}
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defs[path.stem, node.name] = _referenced_names(node)
        elif isinstance(node, ast.ClassDef):
            members = [
                sub
                for sub in node.body
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not (node.name.startswith("_") or sub.name.startswith("_"))
            ]
            for sub in members:
                defs[path.stem, f"{node.name}.{sub.name}"] = _referenced_names(sub)
            rest = [*node.bases, *node.keywords, *node.decorator_list]
            rest += [sub for sub in node.body if sub not in members]
            defs[path.stem, node.name] = set().union(*map(_referenced_names, rest))
    return defs


def _reference(name: str) -> str:
    """The referenced name that reaches a def: ``.member`` for a class member."""
    return f".{name.rsplit('.', 1)[1]}" if "." in name else name


def test_every_public_def_is_reachable():
    # the package keeps what its users reach: cli.main, the names scripts/
    # import, and the names perfbench wraps, imports or patches.  A public
    # def, or a public method or property of a public class, reached from
    # none of them is a leftover; a test that needs it as a reference keeps
    # it in its oracle.  References are followed by name, as in the
    # private-def check above: a def is reached when a reached def names
    # it, and a member ("Class.member") only when one reads it as an
    # attribute, so that a local variable of the same name does not count.
    defs = {}
    for path in sorted(SRC.glob("*.py")):
        defs.update(_defs_and_members(path))
    # the scan is not vacuous: it sees the public classes' members
    assert sum("." in name for _, name in defs) >= 8
    roots = {("cli", "main"), ("cli", "_run_tasks")}
    roots |= {(layer, name) for layer, names in _traced().items() for name in names}
    for path in [PERFBENCH / "child.py", *sorted((ROOT / "scripts").glob("*.py"))]:
        roots |= {(module.split(".")[-1], name) for module, name in _trofey_imports(path)}
    assert len(roots) >= 30 and roots <= defs.keys()
    reached, todo = set(), list(roots)
    while todo:
        node = todo.pop()
        if node not in reached:
            reached.add(node)
            todo += [other for other in defs if _reference(other[1]) in defs[node]]
    unreached = {
        f"{module}.{name}" for module, name in defs.keys() - reached if not name.startswith("_")
    }
    assert sorted(unreached - UNREACHED_ON_PURPOSE.keys()) == []
    # every listed exception is still unreached, so the list cannot go stale
    assert sorted(UNREACHED_ON_PURPOSE.keys() - unreached) == []
