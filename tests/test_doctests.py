from __future__ import annotations

import doctest
import importlib
import pathlib
import pkgutil
import re

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


def test_readme_library_example_prints_what_its_comments_say(capsys):
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    (example,) = re.findall(r"## Library example\n\n```python\n(.*?)```", readme, re.DOTALL)
    exec(compile(example, "README.md", "exec"), {})
    product, dim, spans = capsys.readouterr().out.splitlines()
    assert len(product.split(" + ")) == 6 and all(term.startswith("1*F(") for term in product.split(" + "))
    assert (dim, spans) == ("11", "True")
