"""The benchmark's tracer patches names in vwpstory from the outside
(``perfbench/tracing.py``). These tests hold the program to every name the
tracer binds, so deleting or renaming one fails here rather than in a
``--trace 1`` run. The tracer file is read and executed, never changed."""

import importlib
import types
from pathlib import Path

import pytest

TRACING_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
MODULE_NAMES = ("analytics", "corpus", "decoding", "metrics", "model", "numerics", "training")


def _load_tracing() -> types.ModuleType:
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING_PATH)
    exec(compile(TRACING_PATH.read_text(), str(TRACING_PATH), "exec"), module.__dict__)
    return module


tracing = _load_tracing()
MODULES = {name: importlib.import_module(f"vwpstory.{name}") for name in MODULE_NAMES}


@pytest.mark.parametrize("module_name, attr, metric", tracing.SPAN_TARGETS)
def test_every_span_target_resolves(module_name, attr, metric):
    owner = tracing._resolve(MODULES, module_name)
    assert callable(getattr(owner, attr, None)), f"{module_name}.{attr} ({metric})"


def test_stem_counter_binding_resolves():
    assert callable(getattr(MODULES["metrics"], "stem", None))


def _bindings() -> dict:
    bound = {(module_name, attr): getattr(tracing._resolve(MODULES, module_name), attr)
             for module_name, attr, _ in tracing.SPAN_TARGETS}
    bound[("metrics", "stem")] = MODULES["metrics"].stem
    bound[("numerics.Tensor", "__init__")] = MODULES["numerics"].Tensor.__init__
    return bound


def test_installed_patches_every_binding_and_restores_them_on_exit():
    before = _bindings()
    with tracing.Tracer().installed(MODULES):
        during = _bindings()
        assert all(during[key] is not original for key, original in before.items())
    assert all(_bindings()[key] is original for key, original in before.items())
    with pytest.raises(RuntimeError):
        with tracing.Tracer().installed(MODULES):
            raise RuntimeError("the block fails")
    assert all(_bindings()[key] is original for key, original in before.items())
