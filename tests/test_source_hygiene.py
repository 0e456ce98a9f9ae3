"""Static checks on the gcfkit sources and on the test modules, with the stdlib ast.

No module imports a name it does not use, every function, class and
method defined in the package is referenced somewhere in the package other
than the re-exports of __init__, and every dataclass field and every
module constant is read there: code that only the tests use is deleted, not
kept.  No test helper is defined in two test modules, and without mpmath
only the tests that need it skip.  Only filters.py opens a file for
writing, and it does so without newline translation.  Only filters.py
computes a stage multiplier, and spectral.py builds no GcfSpec of its own.
Every function that
README.md names is defined, and every gcfkit call it writes out names the
function's leading parameters (read from the imported package).
"""

import ast
import importlib
import inspect
import pathlib
import re
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


def called_names(tree):
    """(name, line) of every call, by the last name of what it calls: f(...) and x.f(...) are both f."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield ast.unparse(node.func).split(".")[-1], node.lineno


def test_only_filters_computes_the_stage_multipliers():
    # GcfSpec.multipliers is the one source of r_0 .. r_{p-1}; every other module reads it
    elsewhere = [(module, line) for module, tree in MODULES.items() if module != "filters"
                 for name, line in called_names(tree) if name == "stage_multiplier"]
    assert not elsewhere, f"stage_multiplier called outside filters.py: {elsewhere}"


def test_spectral_builds_no_spec_of_its_own():
    # every spectral function evaluates the spec it is given, at its own split
    built = [(name, line) for name, line in called_names(MODULES["spectral"])
             if name in ("GcfSpec", "from_oversampling", "replace")]
    assert not built, f"spectral.py builds a GcfSpec: {built}"


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


# functions of README's formulas, not of the program
README_MATH = {"H", "erf", "exp", "prod", "rint"}


def readme_spans():
    """Every backticked span of README.md outside its fenced blocks, its whitespace runs made one space."""
    text = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(), flags=re.S)
    return [" ".join(span.split()) for span in re.findall(r"`([^`]+)`", text)]


def test_every_function_that_readme_names_is_defined():
    # a backticked `name(` in README.md, outside its fenced blocks, is a
    # function or class of src/gcfkit, tests or bench, so no renamed or
    # deleted one stays behind in the text
    calls = (re.match(r"([A-Za-z_]\w*)\(", span) for span in readme_spans())
    named = {m.group(1) for m in calls if m}
    paths = [*SRC.glob("*.py"), *(ROOT / "tests").glob("*.py"), *(ROOT / "bench").glob("*.py")]
    defined = {name for path in paths for name, _ in definitions(ast.parse(path.read_text()))}
    assert README_MATH <= named, f"README no longer uses {sorted(README_MATH - named)}"
    undefined = named - defined - README_MATH
    assert not undefined, f"README names undefined functions: {sorted(undefined)}"


def gcfkit_parameters():
    """The parameters of every function, class and method that src/gcfkit defines, by name; self left out."""
    found = {}
    for stem in sorted(set(MODULES) - {"__init__"}):
        module = importlib.import_module(f"gcfkit.{stem}")
        for name, obj in vars(module).items():
            if not (inspect.isfunction(obj) or inspect.isclass(obj)) or obj.__module__ != module.__name__:
                continue
            callables = [(name, obj, 0)]
            if inspect.isclass(obj):
                callables += [(attr, fn, 1) for attr, fn in vars(obj).items() if inspect.isfunction(fn)]
            for attr, fn, skip in callables:
                try:
                    params = list(inspect.signature(fn).parameters.values())[skip:]
                except ValueError:  # a class with no signature of its own, such as an exception
                    continue
                found.setdefault(attr, []).append(
                    [p for p in params if p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)])
    return found


def test_readme_calls_name_the_leading_parameters():
    # a call written out in README.md as `name(a, b)` for a gcfkit function
    # lists its leading parameters by name and in order, and every parameter
    # it leaves out has a default, so a changed signature does not leave the
    # text behind
    found = gcfkit_parameters()
    wrong = []
    for span in readme_spans():
        call = re.fullmatch(r"([A-Za-z_]\w*)\((.*)\)", span)
        if not call or call.group(1) not in found:
            continue
        args = [arg.strip() for arg in call.group(2).split(",") if arg.strip()]
        if not any([p.name for p in params[:len(args)]] == args
                   and all(p.default is not p.empty for p in params[len(args):])
                   for params in found[call.group(1)]):
            wrong.append(span)
    assert not wrong, f"README calls that do not match their gcfkit signatures: {wrong}"
