"""The benchmark reaches cwkms by name: its traced mode wraps the functions
``spans.TARGETS`` lists, and its workloads call ``cw.<name>`` attributes.
Each name must resolve, or a traced run fails at installation and a workload
at set-up."""

import ast
import importlib
import importlib.util
from pathlib import Path

import cwkms

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_wrapped_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for target in spans.TARGETS:
        modname, *path = target.split(".")
        obj = importlib.import_module(f"cwkms.{modname}")
        for name in path:
            assert hasattr(obj, name), f"cwkms.{target} does not resolve"
            obj = getattr(obj, name)
        assert callable(obj), f"cwkms.{target} is not callable"


def _cwkms_names(tree: ast.Module) -> set[str]:
    """Every dotted attribute chain rooted at a name the module binds with
    ``import cwkms`` or ``import cwkms as ...``, without that name."""
    aliases = {a.asname or a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for a in node.names if a.name == "cwkms"}
    names = set()
    for node in ast.walk(tree):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if parts and isinstance(node, ast.Name) and node.id in aliases:
            names.add(".".join(reversed(parts)))
    return names


def test_every_name_the_workloads_call_resolves():
    names = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        names |= _cwkms_names(ast.parse(path.read_text(), str(path)))
    assert {"solver.parse_scalar", "solver.format_scalar", "complexes.complex_to_dict", "build_complex"} <= names
    for name in sorted(names):
        obj = cwkms
        for part in name.split("."):
            assert hasattr(obj, part), f"cwkms.{name} does not resolve"
            obj = getattr(obj, part)
