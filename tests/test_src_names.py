"""``src/cwkms`` keeps only what the program runs.  Every name a test imports
from cwkms must be part of the package's public surface, run by the package
itself, or reached by the benchmark; a helper only the tests call belongs in
the tests (reference weights live in ``conftest.py``).  Every name of that
public surface is run by a golden CLI case or listed under the README's
"Library" heading."""

import ast
import inspect
import re
import sys
from pathlib import Path

import cwkms

from .test_golden import CASES, run_case

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cwkms"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), str(path))


def _exported() -> set[str]:
    return {a.asname or a.name for node in ast.walk(_parse(SRC / "__init__.py"))
            if isinstance(node, ast.ImportFrom) for a in node.names}


def _uses_outside_own_definition(tree: ast.AST, out: set[str], inside: tuple = ()) -> None:
    """Add to ``out`` every identifier the tree reads (a name or an
    attribute) at a place that is not inside a definition of that name."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            _uses_outside_own_definition(node, out, inside + (node.name,))
            continue
        name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
        if name is not None and name not in inside:
            out.add(name)
        _uses_outside_own_definition(node, out, inside)


def _imported_from_cwkms(tree: ast.Module) -> set[tuple[str, str]]:
    return {(node.module, a.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "cwkms"
            for a in node.names}


def test_every_name_the_tests_import_is_used_outside_them():
    exported = _exported()
    used_in_src: set[str] = set()
    for path in SRC.glob("*.py"):
        _uses_outside_own_definition(_parse(path), used_in_src)
    used_by_bench: set[str] = set()
    for path in (ROOT / "perfbench").rglob("*.py"):
        tree = _parse(path)
        _uses_outside_own_definition(tree, used_by_bench)
        used_by_bench |= {name for _, name in _imported_from_cwkms(tree)}
    modules = {path.stem for path in SRC.glob("*.py")}
    imported: set[tuple[str, str]] = set()
    for path in Path(__file__).resolve().parent.glob("*.py"):
        imported |= _imported_from_cwkms(_parse(path))
    test_only = sorted(
        f"{module}.{name}" for module, name in imported
        if name not in exported | used_in_src | used_by_bench | modules
    )
    assert test_only == [], f"names only the tests use; move them to the tests: {test_only}"


def _reached(obj, codes: set) -> bool:
    """Whether a function, or a method of a cwkms class, ran one of ``codes``."""
    if inspect.isclass(obj):
        return any(_reached(v, codes) for c in obj.__mro__ if c.__module__.startswith("cwkms")
                   for v in vars(c).values())
    if isinstance(obj, property):
        return _reached(obj.fget, codes)
    return getattr(obj, "__code__", None) in codes


def test_every_export_is_run_by_a_golden_or_listed_in_the_readme():
    codes: set = set()

    def called(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(called)
    try:
        for case in CASES:
            run_case(case)
    finally:
        sys.setprofile(None)
    readme = (ROOT / "README.md").read_text()
    library = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    listed = set(re.findall(r"^- `(\w+)", library, re.M))
    exported = _exported()
    unreached = {name for name in exported if not _reached(getattr(cwkms, name), codes)}
    assert sorted(unreached - listed) == [], "exports neither a golden runs nor the README lists"
    assert sorted(listed - exported) == [], "README Library names that cwkms does not export"


def test_every_error_class_is_caught_somewhere():
    """An exception class is worth its own type only where the package tells
    it apart: each class in ``errors.py`` is named by an ``except`` clause or
    an ``isinstance`` check in ``src/cwkms``."""
    classes = {node.name for node in _parse(SRC / "errors.py").body if isinstance(node, ast.ClassDef)}
    caught: set[str] = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                checked = node.type
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance" and len(node.args) == 2:
                checked = node.args[1]
            else:
                continue
            caught |= {n.id if isinstance(n, ast.Name) else n.attr
                       for n in ast.walk(checked) if isinstance(n, (ast.Name, ast.Attribute))}
    assert sorted(classes - caught) == [], "error classes nothing catches; raise InputError instead"
