"""Run the examples in every coxfold module docstring."""

import doctest
import importlib
import pkgutil

import pytest

import coxfold

MODULES = ["coxfold"] + sorted(
    info.name for info in pkgutil.iter_modules(coxfold.__path__, "coxfold.")
)


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0


def test_doctests_are_collected():
    attempted = sum(
        doctest.testmod(importlib.import_module(name)).attempted for name in MODULES
    )
    assert attempted >= 18
