"""Bit-exact software models of a fixed-point fuzzy inference core, a
hardware-style genetic algorithm engine, and a fuzzy path-tracking simulator."""

from .fixedq import DomainMap, FixedWord, quantize
from .flc import (
    FlcSpec,
    MembershipFunction,
    TimingReport,
    default_core_spec,
    estimate_timing,
    infer,
    infer_full_rulebase,
    load_spec,
    validate_spec,
)
from .flcref import infer_real, lift, quantization_bound
from .ga import GaConfig, GaResult, Lfsr16, Population, run
from .problems import (
    BenchmarkFitness,
    TspFitness,
    TspInstance,
    load_builtin,
    load_tsplib,
    parse_tsplib,
)
from .tracksim import Pose, TraceLog, TrackerParams, simulate

__version__ = "0.1.0"

__all__ = [
    "DomainMap",
    "FixedWord",
    "quantize",
    "FlcSpec",
    "MembershipFunction",
    "TimingReport",
    "default_core_spec",
    "estimate_timing",
    "infer",
    "infer_full_rulebase",
    "load_spec",
    "validate_spec",
    "infer_real",
    "lift",
    "quantization_bound",
    "GaConfig",
    "GaResult",
    "Lfsr16",
    "Population",
    "run",
    "BenchmarkFitness",
    "TspFitness",
    "TspInstance",
    "load_builtin",
    "load_tsplib",
    "parse_tsplib",
    "Pose",
    "TraceLog",
    "TrackerParams",
    "simulate",
    "__version__",
]
