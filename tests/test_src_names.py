"""``src/cwkms`` keeps only what the program runs.  Every name a test imports
from cwkms must be part of the package's public surface, run by the package
itself, or reached by the benchmark; a helper only the tests call belongs in
the tests (reference weights live in ``conftest.py``)."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cwkms"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), str(path))


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
    exported = {a.asname or a.name for node in ast.walk(_parse(SRC / "__init__.py"))
                if isinstance(node, ast.ImportFrom) for a in node.names}
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
