"""The traced benchmark wraps the functions named in `perfbench/tracer.py`
`LAYERS`, and `Tracer.install()` raises when one is missing; this keeps
an API change from silently breaking traced runs."""

from __future__ import annotations

import importlib
import importlib.util
import pathlib

TRACER = pathlib.Path(__file__).parent.parent / "perfbench" / "tracer.py"


def _layers() -> dict[str, tuple[str, ...]]:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # defines the tracer, installs nothing
    return module.LAYERS


def test_every_traced_name_is_a_callable_of_its_module():
    layers = _layers()
    assert layers
    missing = [
        f"qsymk.{module_name}.{fn_name}"
        for module_name, fn_names in layers.items()
        for fn_name in fn_names
        if not callable(getattr(importlib.import_module(f"qsymk.{module_name}"), fn_name, None))
    ]
    assert not missing, missing
