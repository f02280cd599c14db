"""The benchmark's tracer wraps package functions by qualified name
(`LAYERS` in perfbench/spans.py). A refactor that deletes or renames one of
them breaks every traced benchmark run; this guard fails in tier-1 instead.
spans.py is loaded from its file and not modified."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


_SPANS = _spans_module()


@pytest.mark.parametrize("layer, qualname", [
    (layer, qualname) for layer, names in _SPANS.LAYERS.items() for qualname in names])
def test_traced_qualname_resolves(layer, qualname):
    home = importlib.import_module(f"fuzzychip.{layer}")
    if "." in qualname:  # a class attribute, looked up as the tracer does
        cls_name, attr = qualname.split(".")
        fn = vars(getattr(home, cls_name))[attr]
    else:
        fn = getattr(home, qualname)
    assert callable(fn)


def test_skipped_sites_exist():
    for module, attr in _SPANS.SKIP_SITES:
        assert callable(getattr(importlib.import_module(module), attr))
