"""The benchmark's trace hooks name functions that exist in stslab.

`perfbench/tracing.py` wraps each name in its SPANS table by class or
module dict.  A library refactor that renames or deletes one of them
would otherwise only show up as a crash of `perfbench/run.py --trace 1`.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _spans() -> tuple:
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


def test_traced_names_exist():
    missing = []
    for module, attr, *_ in _spans():
        owner = importlib.import_module(f"stslab.{module}")
        *classes, name = attr.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        if not callable(vars(owner).get(name)):
            missing.append(f"{module}.{attr}")
    assert not missing, missing
