"""Smoke test of the demos: each runs as a script, from a copy in a temporary
directory (demo 00 writes its inputs beside itself), and exits 0 with
nothing on stderr. Demo 05 is left out: it takes about 3 s, and the
`simulate` tests cover the API it uses."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import fuzzychip

DEMOS = Path(__file__).resolve().parents[1] / "demos"
SRC = Path(fuzzychip.__file__).resolve().parents[1]


@pytest.mark.parametrize("name", [
    "00_make_sample_inputs.py",
    "01_fixed_point_inference.py",
    "02_pipeline_timing.py",
    "03_ga_benchmarks.py",
    "04_tsp_burma14.py",
])
def test_demo_runs(name, tmp_path):
    script = shutil.copy(DEMOS / name, tmp_path)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout
