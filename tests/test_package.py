"""The package's exports load lazily (PEP 562 module __getattr__): each name
resolves to its home module's object on every lookup and is never stored in
the package, so a binding the benchmark's tracer wraps and then restores is
seen restored through the package too."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import fuzzychip
from fuzzychip import flc

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

EXPORTS = [name for name in fuzzychip.__all__ if name != "__version__"]


@pytest.mark.parametrize("name", EXPORTS)
def test_export_is_its_home_object(name):
    value = getattr(fuzzychip, name)
    home = importlib.import_module(f"fuzzychip.{fuzzychip._HOMES[name]}")
    assert value is getattr(home, name)
    assert name in dir(fuzzychip)
    assert name not in vars(fuzzychip)  # not cached in the package


def test_dir_lists_every_export():
    assert set(fuzzychip.__all__) <= set(dir(fuzzychip))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
        fuzzychip.nonesuch  # noqa: B018
    assert not hasattr(fuzzychip, "numpy")


def test_star_import():
    namespace = {}
    exec("from fuzzychip import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == set(fuzzychip.__all__)
    assert namespace["infer"] is flc.infer


def test_submodule_attribute_imports_it():
    assert fuzzychip.tracksim is importlib.import_module("fuzzychip.tracksim")


def test_tracer_round_trip_leaves_no_wrapper():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    original = flc.infer
    tracer = spans.Tracer()
    tracer.install()
    try:
        wrapped = fuzzychip.infer  # fetched while tracing
        assert wrapped is flc.infer and wrapped.__wrapped__ is original
    finally:
        tracer.uninstall()
    assert fuzzychip.infer is flc.infer is original
    assert "infer" not in vars(fuzzychip)
