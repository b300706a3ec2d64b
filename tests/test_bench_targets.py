"""The benchmark's traced mode wraps cwkms functions by name; each name it
lists must exist, or a traced run fails at installation."""

import importlib
import importlib.util
from pathlib import Path

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
