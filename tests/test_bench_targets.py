"""The benchmark's tracer (perfbench/layertrace.py) wraps package functions
and methods by name, with getattr and the class __dict__; a rename or a
removal in the package breaks every traced benchmark run.  Every listed
target must still resolve."""

import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERTRACE = Path(__file__).resolve().parent.parent / "perfbench" / "layertrace.py"


def _load_layertrace():
    spec = importlib.util.spec_from_file_location("perfbench_layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # definitions only; nothing is wrapped
    return module


layertrace = _load_layertrace()


@pytest.mark.parametrize("module,attr,layer,kind", layertrace.TARGETS,
                         ids=[f"{m}.{a}" for m, a, _l, _k in layertrace.TARGETS])
def test_target_resolves(module, attr, layer, kind):
    owner = importlib.import_module(f"knotsig.{module}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        target = getattr(owner, cls_name).__dict__[meth]
    else:
        target = getattr(owner, attr)
    assert callable(target)
    assert layer in layertrace.LAYERS
    assert kind in ("span", "count")


def test_hooks_name_targets():
    names = {f"{m}.{a}" for m, a, _l, _k in layertrace.TARGETS}
    assert set(layertrace.HOOKS) <= names
