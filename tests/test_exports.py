"""The package surface: one import path per name, and removed names stay gone."""

import os
import pkgutil
import subprocess
import sys
from importlib import import_module

import pytest

import wproc

SUBMODULES = [import_module(f"wproc.{m.name}")
              for m in pkgutil.iter_modules(wproc.__path__)]

# Library names with no caller left outside the tests; the oracles among
# them now live in tests/oracles.py or inline in the tests.
REMOVED = ("cosine_scores", "csls_scores", "isf_scores", "estimate_objective",
           "plan_to_matching", "transport_cost", "residual", "SinkhornConfig",
           "default_refine_config", "fw_objective", "fw_gradient")


def test_every_submodule_all_name_exists():
    for mod in SUBMODULES:
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"{mod.__name__}.__all__ names missing {name}"


def test_removed_names_are_not_exported():
    for name in REMOVED:
        with pytest.raises(AttributeError):
            getattr(wproc, name)
        for mod in SUBMODULES:
            assert not hasattr(mod, name), f"{mod.__name__} still has {name}"


def test_package_names_are_the_submodules():
    # `from wproc import refine` must give the submodule in a fresh
    # interpreter, before and after `import wproc.refine`, never the
    # function of the same name.
    env = dict(os.environ)
    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(wproc.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (pkg_root, env.get("PYTHONPATH")) if p)
    code = ("from wproc import preprocess, refine\n"
            "first = [type(preprocess).__name__, type(refine).__name__]\n"
            "import wproc.refine\n"
            "from wproc import preprocess, refine\n"
            "print(first + [type(preprocess).__name__, type(refine).__name__])")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == str(["module"] * 4)
