"""The package's public names."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import flowfit

MODULES = ["flowfit"] + [
    f"flowfit.{info.name}" for info in pkgutil.iter_modules(flowfit.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", None)
    assert exported, f"{name} declares no __all__"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names undefined {missing}"
