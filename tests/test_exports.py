"""Every name a package exports in ``__all__`` must resolve."""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.core",
    "repro.storage",
    "repro.workload",
    "repro.experiments",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert module.__all__ and not missing
