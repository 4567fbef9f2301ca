"""The benchmark's traced spans still name functions of the program.

`perfbench/spans.py` wraps public msolv functions by name, and a span whose
function was renamed or made private is silently never recorded, so its
per-layer metric reads zero.  Every span the metrics read must resolve to
what the tracer wraps: a public function defined in its own msolv module,
or a method listed in `METHODS`.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()
SPAN_NAMES = sorted(
    {*spans.TOTALS.values(), *spans.SELF.values(), *spans.CALLS.values(), spans.INSTANCE}
)


@pytest.mark.parametrize("name", SPAN_NAMES)
def test_span_names_a_wrapped_function(name):
    layer, *path = name.split(".")
    assert layer in spans.LAYERS
    module = importlib.import_module(f"msolv.{layer}")
    if len(path) == 1:
        (attr,) = path
        func = getattr(module, attr, None)
        assert inspect.isfunction(func), f"{name} is not a function of msolv.{layer}"
        assert func.__module__ == module.__name__, f"{name} is defined elsewhere"
        assert not attr.startswith("_"), f"{name} is private and not wrapped"
    else:
        cls, meth = path
        assert (layer, cls, meth) in spans.METHODS, f"{name} is not a wrapped method"
        assert inspect.isfunction(getattr(getattr(module, cls), meth, None))
