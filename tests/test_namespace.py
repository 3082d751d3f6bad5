import importlib

import pytest

import symguide
from symguide import adjoint, estimator

MODULES = ["schedule", "models", "estimator", "adjoint", "guidance", "harness"]


@pytest.mark.parametrize("name", MODULES)
def test_each_public_name_is_declared_once(name):
    module = importlib.import_module(f"symguide.{name}")
    others = {n for m in MODULES if m != name for n in importlib.import_module(f"symguide.{m}").__all__}
    for public in module.__all__:
        obj = getattr(module, public)
        assert obj.__module__ == module.__name__, public
        assert public not in others, public
        assert getattr(symguide, public) is obj, public


def test_package_exports_exactly_the_module_lists():
    names = [n for m in MODULES for n in importlib.import_module(f"symguide.{m}").__all__]
    assert symguide.__all__ == ["__version__", *names]


def test_adjoint_still_resolves_estimator_names():
    # perfbench reads these two through the adjoint module.
    assert adjoint.ButcherTableau is estimator.ButcherTableau
    assert adjoint.estimate_clean_rk is estimator.estimate_clean_rk
