"""Each public object has one import path, its home submodule: the package
itself holds only `__version__` and the submodules already imported, so
`from fuzzychip import X` names a submodule or `__version__`."""

import importlib
import types

import pytest

import fuzzychip

# public name -> the submodule that defines it
HOME_MODULES = {
    "fixedq": ("DomainMap", "FixedWord", "quantize"),
    "flc": ("FlcSpec", "MembershipFunction", "TimingReport", "default_core_spec",
            "estimate_timing", "infer", "infer_full_rulebase", "load_spec", "validate_spec"),
    "flcref": ("infer_real", "lift", "quantization_bound"),
    "ga": ("GaConfig", "GaResult", "Lfsr16", "Population", "run"),
    "problems": ("BenchmarkFitness", "TspFitness", "TspInstance", "load_builtin",
                 "load_tsplib", "parse_tsplib"),
    "tracksim": ("Pose", "TraceLog", "TrackerParams", "simulate"),
}
HOME_OF = {name: module for module, names in HOME_MODULES.items() for name in names}


@pytest.mark.parametrize("name", sorted(HOME_OF))
def test_export_is_its_home_object(name):
    home = importlib.import_module(f"fuzzychip.{HOME_OF[name]}")
    assert getattr(home, name).__module__ == home.__name__
    assert not hasattr(fuzzychip, name)  # no second path through the package


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
        fuzzychip.nonesuch  # noqa: B018
    assert not hasattr(fuzzychip, "numpy")


def test_star_import():
    importlib.import_module("fuzzychip.flc")
    namespace = {}
    exec("from fuzzychip import *", namespace)
    del namespace["__builtins__"]
    assert "flc" in namespace
    assert all(isinstance(value, types.ModuleType) for value in namespace.values())
