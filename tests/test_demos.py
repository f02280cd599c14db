"""Smoke test of the demos: each runs as a script, from a copy in a temporary
directory (demo 00 writes its inputs beside itself), and exits 0 with
nothing on stderr. Demo 05 is left out: it takes about 3 s, and the
`simulate` tests cover the API it uses."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import subprocess_env

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", [
    "00_make_sample_inputs.py",
    "01_fixed_point_inference.py",
    "02_pipeline_timing.py",
    "03_ga_benchmarks.py",
    "04_tsp_burma14.py",
])
def test_demo_runs(name, tmp_path):
    script = shutil.copy(DEMOS / name, tmp_path)
    proc = subprocess.run([sys.executable, script], cwd=tmp_path, env=subprocess_env(),
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout
