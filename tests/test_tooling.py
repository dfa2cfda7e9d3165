"""Source checks over ``src/trofey`` that need only the standard library."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "trofey"


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
    assert len(private) >= 50
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
