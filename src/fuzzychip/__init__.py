"""Bit-exact software models of a fixed-point fuzzy inference core, a
hardware-style genetic algorithm engine, and a fuzzy path-tracking simulator.

The exports below load on first access (PEP 562), so `import fuzzychip`
loads no submodule and a command pays only for the modules it runs."""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the submodule that defines it
_HOMES = {
    "DomainMap": "fixedq",
    "FixedWord": "fixedq",
    "quantize": "fixedq",
    "FlcSpec": "flc",
    "MembershipFunction": "flc",
    "TimingReport": "flc",
    "default_core_spec": "flc",
    "estimate_timing": "flc",
    "infer": "flc",
    "infer_full_rulebase": "flc",
    "load_spec": "flc",
    "validate_spec": "flc",
    "infer_real": "flcref",
    "lift": "flcref",
    "quantization_bound": "flcref",
    "GaConfig": "ga",
    "GaResult": "ga",
    "Lfsr16": "ga",
    "Population": "ga",
    "run": "ga",
    "BenchmarkFitness": "problems",
    "TspFitness": "problems",
    "TspInstance": "problems",
    "load_builtin": "problems",
    "load_tsplib": "problems",
    "parse_tsplib": "problems",
    "Pose": "tracksim",
    "TraceLog": "tracksim",
    "TrackerParams": "tracksim",
    "simulate": "tracksim",
}
_SUBMODULES = frozenset(_HOMES.values())

__all__ = [*_HOMES, "__version__"]


def __getattr__(name: str):
    """An export, read from its home module on every lookup and never stored
    here, so a later rebinding there (a patch, a tracing wrapper) shows
    through; or a submodule not yet imported."""
    if name in _HOMES:
        return getattr(import_module(f"{__name__}.{_HOMES[name]}"), name)
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
