"""Every public function and class in the package has a caller.

A module-level def or class whose name does not start with "_" counts as
used when its name appears as an ast.Name, the attr of an ast.Attribute
or an imported name anywhere in the package, the scripts, the benchmark
or the acceptance tests. Unit tests do not count: a public name that only
they call is dead code.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CALLERS = [
    *sorted((ROOT / "src" / "cvnet").glob("*.py")),
    *sorted((ROOT / "scripts").glob("*.py")),
    *sorted((ROOT / "perfbench").glob("*.py")),
    ROOT / "tests" / "test_acceptance.py",
]


def public_names(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    return {node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


def used_names(path):
    used = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.rpartition(".")[2])
    return used


def test_every_public_name_has_a_caller():
    used = set().union(*(used_names(path) for path in CALLERS))
    unused = [f"{path.stem}.{name}"
              for path in sorted((ROOT / "src" / "cvnet").glob("*.py"))
              for name in sorted(public_names(path) - used)]
    assert not unused, f"public names with no caller outside the unit tests: {unused}"
