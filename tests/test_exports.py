"""The package export table against the submodules it points into."""

import pkgutil
from importlib import import_module

import pytest

import wproc

SUBMODULES = [import_module(f"wproc.{m.name}")
              for m in pkgutil.iter_modules(wproc.__path__)]

# Library functions whose only callers were tests; the oracles among
# them now live in tests/oracles.py or inline in the tests.
REMOVED = ("cosine_scores", "csls_scores", "isf_scores", "estimate_objective",
           "plan_to_matching", "transport_cost", "residual")


def test_every_export_resolves():
    for name in wproc.__all__:
        getattr(wproc, name)


def test_every_export_is_in_its_module_all():
    for name, module in wproc._EXPORTS.items():
        mod = import_module(f"wproc.{module}")
        assert name in mod.__all__, f"{name} missing from wproc.{module}.__all__"


def test_every_submodule_all_name_exists():
    for mod in SUBMODULES:
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"{mod.__name__}.__all__ names missing {name}"


def test_removed_names_are_not_exported():
    for name in REMOVED:
        assert name not in wproc.__all__
        with pytest.raises(AttributeError):
            getattr(wproc, name)
        for mod in SUBMODULES:
            assert not hasattr(mod, name), f"{mod.__name__} still has {name}"
