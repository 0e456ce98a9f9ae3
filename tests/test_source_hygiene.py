"""Static checks on the gcfkit sources and on the test modules, with the stdlib ast.

No module imports a name it does not use, every function, class and
method defined in the package is referenced somewhere in the package other
than the re-exports of __init__, and every dataclass field and every
module constant is read there: code that only the tests use is deleted, not
kept.  No test helper is defined in two test modules, and without mpmath
only the tests that need it skip.  Only filters.py opens a file for
writing, and it does so without newline translation.
"""

import ast
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gcfkit"
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


def module_constants(tree):
    """(name, line) of every name that an assignment at the module's top level binds."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name):
                    yield name.id, node.lineno


def loaded_names(tree):
    """Every name the module loads and every attribute it reads: a store is not a read."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return names | read_attributes(tree)


def test_every_module_constant_is_read_in_the_package():
    # a constant whose last reader moved away is left behind; __version__ is
    # package metadata, read from outside
    read = set().union(*(loaded_names(tree) for name, tree in MODULES.items() if name != "__init__"))
    unread = [(module, name, line) for module, tree in MODULES.items()
              for name, line in module_constants(tree) if name not in read and name != "__version__"]
    assert not unread, f"module constants never read in src/gcfkit: {unread}"


def writing_opens(tree):
    """(line, passes newline="") of every open(...) that writes; a mode that is not a literal counts."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "open":
            keywords = {kw.arg: kw.value for kw in node.keywords}
            mode = node.args[1] if len(node.args) > 1 else keywords.get("mode", ast.Constant("r"))
            if not isinstance(mode, ast.Constant) or set(str(mode.value)) & set("wax+"):
                newline = keywords.get("newline")
                yield node.lineno, isinstance(newline, ast.Constant) and newline.value == ""


def test_only_filters_opens_files_for_writing_and_without_newline_translation():
    # every artifact goes through the writers of filters.py, whose bytes do not
    # depend on the platform's newline translation
    found = {module: list(writing_opens(tree)) for module, tree in MODULES.items()}
    elsewhere = [(module, line) for module, opens in found.items() if module != "filters" for line, _ in opens]
    assert not elsewhere, f"open(...) for writing outside filters.py: {elsewhere}"
    translated = [line for line, plain in found["filters"] if not plain]
    assert found["filters"] and not translated, f'filters.py opens for writing without newline="": {translated}'


def test_no_test_helper_is_defined_in_two_modules():
    # a helper that two test modules need is kept once, in gcf_helpers.py or mp_gcf.py
    modules = {}
    for path in sorted((ROOT / "tests").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith(("test_", "Test")):
                modules.setdefault(node.name, []).append(path.name)
    twice = {name: found for name, found in modules.items() if len(found) > 1}
    assert not twice, f"defined in more than one test module: {twice}"


def test_without_mpmath_only_the_mpmath_tests_skip():
    # tests/mp_gcf.py skips whatever imports it: test_filters.py imports it
    # inside its one 40-digit test, the two accuracy modules at the top
    code = "import sys; sys.modules['mpmath'] = None; import pytest; sys.exit(pytest.main(sys.argv[1:]))"
    paths = ["tests/test_filters.py", "tests/test_mc_kernel_accuracy.py", "tests/test_error_bounds.py"]
    out = subprocess.run([sys.executable, "-c", code, "--collect-only", "-q", "-rs", "-p", "no:cacheprovider", *paths],
                         cwd=ROOT, capture_output=True, text=True, timeout=300).stdout
    tree = ast.parse((ROOT / "tests" / "test_filters.py").read_text())
    defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name.startswith("test_")}
    ids = [line for line in out.splitlines() if "::" in line]
    assert all(line.startswith("tests/test_filters.py::") for line in ids), out
    assert {line.split("::")[-1].split("[")[0] for line in ids} == defined, out
    assert "SKIPPED [2] tests/mp_gcf.py" in out, out
