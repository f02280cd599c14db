"""Locating the package under test and describing the host.

Kept free of fuzzychip imports so that probe.py can time the first import.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / "work"
# the one list of workloads; workloads.py binds a class to each name
WORKLOAD_NAMES = ("tsp-burma14", "track-s-course", "flc-sweep", "flc-eval")


class BenchError(Exception):
    """The benchmark cannot run here; reported as one line, exit code 2."""


def bootstrap() -> None:
    """Put the checkout's src/ first on sys.path and import fuzzychip from it,
    never from an installed copy."""
    if not (SRC / "fuzzychip" / "__init__.py").is_file():
        raise BenchError(f"no fuzzychip sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import fuzzychip
    import fuzzychip.cli  # noqa: F401  (the entry point every operation uses)

    if not Path(fuzzychip.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"fuzzychip imported from {fuzzychip.__file__}, not {SRC}")


def _git_commit() -> str:
    """HEAD read from .git without running git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "commit": _git_commit(),
    }
