"""The benchmark tracer's hold on the package: every name it patches exists and comes back.

`benchmark/tracing.py` is read here, never edited. It wraps the public
functions of each layer module and the methods listed in its `METHODS`, which
it reads from each class's own `__dict__`; a method that moved to a base class
or was deleted makes `Tracer.install` raise, and `--trace 1` runs with it.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    name = "_benchmark_tracing"
    spec = importlib.util.spec_from_file_location(name, TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # its dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[name]


def _classes(tracing) -> list:
    """Each class named in `METHODS`, with the names of its traced methods."""
    return [
        (getattr(importlib.import_module(f"{tracing.PACKAGE}.{layer}"), cls_name), methods)
        for layer, by_class in tracing.METHODS.items()
        for cls_name, methods in by_class.items()
    ]


def test_every_traced_method_is_defined_on_its_own_class(tracing):
    for cls, methods in _classes(tracing):
        missing = [meth for meth in methods if meth not in cls.__dict__]
        assert not missing, f"{cls.__qualname__} lacks {missing}"


def test_install_then_uninstall_restores_every_patched_attribute(tracing):
    for name in (*tracing.LAYERS, "cli"):  # what install imports, so it adds no module
        importlib.import_module(f"{tracing.PACKAGE}.{name}")
    package = tracing.PACKAGE
    modules = [m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")]
    classes = _classes(tracing)
    holders = modules + [cls for cls, _ in classes]
    before = [dict(vars(holder)) for holder in holders]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        patched = {
            (holder, key)
            for holder, snapshot in zip(holders, before)
            for key, value in snapshot.items()
            if vars(holder).get(key) is not value
        }
        assert all((cls, meth) in patched for cls, methods in classes for meth in methods)
        assert any(holder in modules for holder, _ in patched), "no function was wrapped"
    finally:
        tracer.uninstall()
    for holder, snapshot in zip(holders, before):
        assert dict(vars(holder)).keys() == snapshot.keys(), holder
        assert all(vars(holder)[key] is value for key, value in snapshot.items()), holder
