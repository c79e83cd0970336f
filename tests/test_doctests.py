from __future__ import annotations

import doctest
import importlib
import pkgutil

import qsymk


def test_docstring_examples_pass():
    # the `>>>` examples in the module docstrings are part of the suite
    modules = [qsymk] + [
        importlib.import_module(f"qsymk.{info.name}") for info in pkgutil.iter_modules(qsymk.__path__)
    ]
    attempted = 0
    for module in modules:
        result = doctest.testmod(module)
        assert result.failed == 0, module.__name__
        attempted += result.attempted
    assert attempted >= 9
