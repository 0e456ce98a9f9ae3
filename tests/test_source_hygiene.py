"""Static checks on the gcfkit sources, with the stdlib ast.

No module imports a name it does not use, every function, class and
method defined in the package is referenced somewhere in the package other
than the re-exports of __init__, and every dataclass field is read there:
code that only the tests use is deleted, not kept.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "gcfkit"
MODULES = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py"))}


def used_names(tree):
    """Every name the module loads, and every attribute it reads."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def imported_names(tree):
    """(bound name, line) of every import of the module but from __future__."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


@pytest.mark.parametrize("module", sorted(set(MODULES) - {"__init__"}))
def test_no_unused_import(module):
    tree = MODULES[module]
    used = used_names(tree)
    unused = [(name, line) for name, line in imported_names(tree) if name not in used]
    assert not unused, f"{module}.py imports names it does not use: {unused}"


def definitions(tree):
    """(name, line) of every function, class and method, dunder methods left out."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield node.name, node.lineno


def test_every_definition_is_used_in_the_package():
    # __init__ only re-exports, so its imports are not uses
    used = set().union(*(used_names(tree) for name, tree in MODULES.items() if name != "__init__"))
    unused = [(module, name, line) for module, tree in MODULES.items()
              for name, line in definitions(tree) if name not in used]
    assert not unused, f"defined but used only outside src/gcfkit (or nowhere): {unused}"


def dataclass_fields(tree):
    """(class, field, line) of every field of every @dataclass class."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(
                ast.unparse(d.func if isinstance(d, ast.Call) else d).split(".")[-1] == "dataclass"
                for d in node.decorator_list):
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    yield node.name, stmt.target.id, stmt.lineno


def read_attributes(tree):
    """Every attribute the module reads (loads, not stores)."""
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_every_dataclass_field_is_read_in_the_package():
    # a field only the tests read (or nobody) is an echo of its constructor's
    # arguments; passing a value at construction is not a read
    read = set().union(*(read_attributes(tree) for name, tree in MODULES.items() if name != "__init__"))
    unread = [(module, cls, field, line) for module, tree in MODULES.items()
              for cls, field, line in dataclass_fields(tree) if field not in read]
    assert not unread, f"dataclass fields never read in src/gcfkit: {unread}"
