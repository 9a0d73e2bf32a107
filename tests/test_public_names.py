"""Every public function, class, method and property in the package has a caller.

A module-level def or class whose name does not start with "_" counts as
used when its name appears as an ast.Name, the attr of an ast.Attribute
or an imported name anywhere in the package, the scripts, the benchmark
or the acceptance tests. So does a public method or property of a public
class, by its own name (Field.cast by any ".cast"). Unit tests do not
count: a public name that only they call is dead code.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CALLERS = [
    *sorted((ROOT / "src" / "cvnet").glob("*.py")),
    *sorted((ROOT / "scripts").glob("*.py")),
    *sorted((ROOT / "perfbench").glob("*.py")),
    ROOT / "tests" / "test_acceptance.py",
]
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def public_names(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    return {node.name for node in tree.body
            if isinstance(node, (*DEFS, ast.ClassDef)) and not node.name.startswith("_")}


def public_members(path):
    """{"method": {"Class.name", ...}, "property": {...}} of the module's public classes."""
    members = {"method": set(), "property": set()}
    for cls in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
            for node in cls.body:
                if isinstance(node, DEFS) and not node.name.startswith("_"):
                    prop = any(isinstance(d, ast.Name) and d.id == "property"
                               for d in node.decorator_list)
                    members["property" if prop else "method"].add(f"{cls.name}.{node.name}")
    return members


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


@pytest.mark.parametrize("kind", ["method", "property"])
def test_every_public_member_has_a_caller(kind):
    used = set().union(*(used_names(path) for path in CALLERS))
    unused = [f"{path.stem}.{member}"
              for path in sorted((ROOT / "src" / "cvnet").glob("*.py"))
              for member in sorted(public_members(path)[kind])
              if member.rpartition(".")[2] not in used]
    assert not unused, f"public {kind}s with no caller outside the unit tests: {unused}"


def test_public_members_sorts_methods_from_properties(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("class A:\n"
                    "    @property\n    def size(self): ...\n"
                    "    def run(self): ...\n"
                    "    def _hidden(self): ...\n"
                    "    def __len__(self): ...\n"
                    "class _Private:\n    def run_private(self): ...\n")
    assert public_members(path) == {"method": {"A.run"}, "property": {"A.size"}}
