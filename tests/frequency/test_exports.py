"""The package re-exports exactly its submodules' public names."""

import importlib
import pkgutil

import repro.frequency


def _submodules():
    return [importlib.import_module(f"repro.frequency.{info.name}")
            for info in pkgutil.iter_modules(repro.frequency.__path__)]


def test_all_is_union_of_submodule_all():
    union = set()
    for module in _submodules():
        union |= set(module.__all__)
    assert sorted(repro.frequency.__all__) == sorted(union)
    assert len(repro.frequency.__all__) == len(set(repro.frequency.__all__))


def test_every_exported_name_resolves():
    for name in repro.frequency.__all__:
        assert hasattr(repro.frequency, name), name
    for module in _submodules():
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name}"
