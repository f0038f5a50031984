"""The traced benchmark wraps package functions by name; every name must resolve.

``perfbench/run.py --trace 1`` rebinds each entry of ``perfbench/spans.py``
``FUNCTIONS`` and exits 1 when a wrapped layer never runs, so a rename in the
package would first show up as a failed benchmark run.  This test fails first.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _traced_functions() -> list[str]:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return list(module.FUNCTIONS)


@pytest.mark.parametrize("name", _traced_functions())
def test_traced_function_resolves(name):
    module_name, _, attr = name.partition(".")
    module = importlib.import_module(f"sewcells.{module_name}")
    owner, _, method = attr.rpartition(".")
    if owner:
        target = vars(getattr(module, owner)).get(method)
    else:
        target = getattr(module, attr, None)
    assert callable(target), f"{name} does not name a function in sewcells"
