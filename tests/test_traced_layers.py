"""The benchmark's layer tracer wraps the functions named in
perfbench/tracer.py's LAYERS by name, so each name must keep resolving."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(mod, name) for mod, names in module.LAYERS.items() for name in names]


@pytest.mark.parametrize("mod, name", _layers(), ids=lambda v: v)
def test_traced_name_resolves(mod, name):
    module = importlib.import_module(f"liebend.{mod}")
    if "." in name:
        cls_name, meth = name.split(".")
        assert callable(vars(getattr(module, cls_name))[meth])
    else:
        assert callable(getattr(module, name))
