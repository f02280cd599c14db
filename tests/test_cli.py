import concurrent.futures
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import pickle
import random
import re
import subprocess
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import random_knot_spec, subprocess_env
from fuzzychip import __version__, cli, flc, flcref, ga, problems, tracksim
from fuzzychip.cells import fixed_cells, int_cells, rows_text, sci_cells
from fuzzychip.cli import SWEEP_MAX_ROWS, CliError, _runs, _sweep_rows, main
from fuzzychip.flcref import infer_real, lift, quantization_bound
from fuzzychip.tracksim import (
    TRACE_HEADER,
    s_curve_waypoints,
    save_waypoints,
    straight_waypoints,
)

# ---- fixtures ----


@pytest.fixture()
def core_spec_file(tmp_path):
    path = tmp_path / "core.json"
    flc.dump_spec(flc.default_core_spec(), path)
    return str(path)


@pytest.fixture()
def small_spec_file(tmp_path):
    # single-input two-triangle controller; cheap to sweep exhaustively
    spec = flc.FlcSpec(
        in_bits=9,
        out_bits=12,
        alpha_bits=8,
        cons_bits=8,
        partitions=(
            (
                flc.MembershipFunction(0, 0, 0, 320),
                flc.MembershipFunction(0, 316, 511, 511),
            ),
        ),
        singletons=(35, 175),
    )
    path = tmp_path / "small.json"
    flc.dump_spec(spec, path)
    return str(path)


@pytest.fixture()
def gapped_spec_file(tmp_path):
    spec = flc.FlcSpec(
        in_bits=8,
        out_bits=10,
        alpha_bits=8,
        cons_bits=8,
        partitions=(
            (
                flc.MembershipFunction(0, 0, 0, 40),
                flc.MembershipFunction(200, 255, 255, 255),
            ),
        ),
        singletons=(0, 255),
    )
    path = tmp_path / "gapped.json"
    flc.dump_spec(spec, path)
    return str(path)


@pytest.fixture()
def ga_config_file(tmp_path):
    path = tmp_path / "ga.json"
    ga.dump_config(ga.GaConfig(max_gen=3), path)
    return str(path)


@pytest.fixture()
def tsp_config_file(tmp_path):
    path = tmp_path / "tsp.json"
    ga.dump_config(
        ga.GaConfig(genom_lngt=40, max_gen=2, mut_method=ga.BIT_FLIP), path
    )
    return str(path)


@pytest.fixture()
def burma_file(tmp_path):
    path = tmp_path / "burma14.tsp"
    path.write_text(problems.format_tsplib(problems.load_builtin("burma14")))
    return str(path)


@pytest.fixture()
def waypoint_file(tmp_path):
    path = tmp_path / "straight.txt"
    save_waypoints(straight_waypoints(3000.0), path)
    return str(path)


def _hash_tree(out_dir, skip=("manifest.json",)):
    digests = {}
    for p in sorted(out_dir.iterdir()):
        if p.name in skip:
            continue
        digests[p.name] = hashlib.md5(p.read_bytes()).hexdigest()
    return digests


# ---- version and argument plumbing ----


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == __version__


def test_module_entry_point():
    out = subprocess.run(
        [sys.executable, "-m", "fuzzychip.cli", "--version"],
        capture_output=True,
        text=True,
        env=subprocess_env(),
    )
    assert out.returncode == 0
    assert out.stdout.strip() == __version__


# A fresh interpreter imports the package and runs each argv, and reports which
# of the modules a cold start must not pay for it holds after each step,
# with main's exit code for the argvs.
COLD_START = r"""
import contextlib, io, json, sys

HEAVY = ("numpy", "fuzzychip.cells", "fuzzychip.tracksim", "concurrent.futures.process",
         "fuzzychip.ga", "fuzzychip.problems")


def loaded():
    return [m for m in HEAVY if m in sys.modules]


import fuzzychip
report = {"import fuzzychip": loaded()}
import fuzzychip.cli
report["import fuzzychip.cli"] = loaded()

for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            code = fuzzychip.cli.main(argv)
        except SystemExit as exc:  # --version
            code = exc.code
    report[" ".join(argv[:2])] = [code, loaded()]
print(json.dumps(report))
"""


def _cold_start(argvs: list[list[str]]) -> dict:
    proc = subprocess.run([sys.executable, "-c", COLD_START, json.dumps(argvs)],
                          capture_output=True, text=True, check=True, env=subprocess_env())
    return json.loads(proc.stdout)


def test_cold_start_loads_no_numpy_tracker_or_pool(core_spec_file):
    report = _cold_start([
        ["flc", "validate", "--spec", core_spec_file],
        ["flc", "eval", "--spec", core_spec_file, "--input", "2048,1024,0,4095"],
        ["flc", "timing", "--spec", core_spec_file],
        ["--version"],
    ])
    assert report == {"import fuzzychip": [], "import fuzzychip.cli": [],
                      "flc validate": [0, []], "flc eval": [0, []],
                      "flc timing": [0, []], "--version": [0, []]}


def test_cold_start_sweep_loads_numpy(tmp_path):
    spec = tmp_path / "spec.json"
    flc.dump_spec(_frozen_sweep_specs()["n1_prod"], spec)
    out = tmp_path / "o"
    report = _cold_start([["flc", "sweep", "--spec", str(spec), "--out", str(out)]])
    assert report["import fuzzychip.cli"] == []
    assert report["flc sweep"] == [0, ["numpy", "fuzzychip.cells"]]
    digest = hashlib.sha256((out / "sweep.csv").read_bytes()).hexdigest()
    assert digest == FROZEN_SWEEP_SHA256["n1_prod"]


def test_cold_start_loads_no_importlib_resources():
    # without site (-S) nothing else imports it; load_builtin alone needs it
    code = "import sys, fuzzychip.cli; print('importlib.resources' in sys.modules)"
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True, check=True, env=subprocess_env())
    assert proc.stdout == "False\n"


def test_fn_and_instance_are_exclusive(ga_config_file, burma_file, tmp_path, capsys):
    argv = ["ga", "--config", ga_config_file, "--fn", "sphere",
            "--instance", burma_file, "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "not allowed with" in err
    assert err.count("\n") == 1  # one line, no usage block
    assert not (tmp_path / "o").exists()


def test_usage_errors_return_two(capsys):
    for argv in ([], ["bogus"], ["flc"], ["ga", "--out", "o"]):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ga", "--help"])
    assert exc.value.code == 0
    assert "--instance" in capsys.readouterr().out


_EMPTY_SHA256 = hashlib.sha256(b"").hexdigest()

# command line -> (exit code, sha256 of stdout, stderr) at 80 columns; the
# parser builds only the subtree a command line names, and these hold it to
# the bytes of the full tree
FROZEN_HELP_AND_USAGE = {
    "--help": (0, "cbf425bf68bfb548cf50c84777b34fed3dcc2530d1f73165383f79c686fcaa50", ""),
    "flc --help": (0, "68165098033438ff080357840c0819e0062b7a3021f14e7774d2731dc7dd910b", ""),
    "flc validate --help": (
        0, "51b1a95e09788c3644d8b5349cd4817602815f320a9df5061fb855e2c5d8b8df", ""),
    "flc eval --help": (
        0, "0083b0c02ef914239942e1e52480ee6cad85a5d5eb0f392cb7a20cd0eb2e9b45", ""),
    "flc timing --help": (
        0, "e64ebb6bf2d984022969904ad42ffd01cde145ee9714833e060f0d8cfb6aafa2", ""),
    "flc sweep --help": (
        0, "f6a6456853bac65a1200ce392cb112d46d60ab98a8f0f9eb77c07610e977073c", ""),
    "ga --help": (0, "99986608592a9a053d5f0ed4b21c212c1b98d6357644e9e98505f35a3cb47c34", ""),
    "track --help": (0, "edb0568ce17d3122c068bfef32a6ad9e2202e6ccdee3b94dc8fd3960f85a3b9b", ""),
    "rerun --help": (0, "40e0f1ef83bdda4a13c342d4d9ee8142fe57a03360c0632c22d3b7c910171af5", ""),
    "--version": (0, "e9dd8507f4bf0c6f42458e41aea833ad0bd3f6127272335eee9bf4d58541ed67", ""),
    "-h flc": (0, "cbf425bf68bfb548cf50c84777b34fed3dcc2530d1f73165383f79c686fcaa50", ""),
    "": (2, _EMPTY_SHA256, "error: fuzzychip: the following arguments are required: command\n"),
    "foo": (2, _EMPTY_SHA256, "error: fuzzychip: argument command: invalid choice: 'foo' "
                              "(choose from 'flc', 'ga', 'track', 'rerun')\n"),
    "flc": (2, _EMPTY_SHA256,
            "error: fuzzychip flc: the following arguments are required: flc_command\n"),
    "flc bogus": (2, _EMPTY_SHA256,
                  "error: fuzzychip flc: argument flc_command: invalid choice: 'bogus' "
                  "(choose from 'validate', 'eval', 'timing', 'sweep')\n"),
    "flc eval": (2, _EMPTY_SHA256,
                 "error: fuzzychip flc eval: the following arguments are required: --spec\n"),
    "ga --config c.json --fn sphere --instance i.tsp --out o": (
        2, _EMPTY_SHA256, "error: fuzzychip ga: argument --instance: not allowed with "
                          "argument --fn\n"),
    "ga --fn nosuch": (2, _EMPTY_SHA256,
                       "error: fuzzychip ga: argument --fn: invalid choice: 'nosuch' "
                       "(choose from 'rastrigin', 'rosenbrock', 'sphere', 'step')\n"),
    "track --jobs 0": (2, _EMPTY_SHA256, "error: fuzzychip track: argument --jobs: "
                                         "expected a job count of at least 1\n"),
    "flc eval --spec s.json --input a": (
        2, _EMPTY_SHA256, "error: fuzzychip flc eval: argument --input: "
                          "expected comma-separated integer codes\n"),
    "rerun m.json extra": (2, _EMPTY_SHA256, "error: fuzzychip: unrecognized arguments: extra\n"),
    "-- flc": (2, _EMPTY_SHA256, "error: fuzzychip: argument command: invalid choice: '--' "
                                 "(choose from 'flc', 'ga', 'track', 'rerun')\n"),
    "flc --spec s.json": (2, _EMPTY_SHA256,
                          "error: fuzzychip flc: argument flc_command: invalid choice: "
                          "'s.json' (choose from 'validate', 'eval', 'timing', 'sweep')\n"),
}


@pytest.mark.parametrize("line", list(FROZEN_HELP_AND_USAGE))
def test_help_and_usage_bytes_frozen(line, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    try:
        code = main(line.split())
    except SystemExit as exc:  # --help and --version
        code = exc.code
    out, err = capsys.readouterr()
    assert (code, hashlib.sha256(out.encode()).hexdigest(), err) == FROZEN_HELP_AND_USAGE[line]


# ---- flc validate ----


def test_validate_ok(core_spec_file, capsys):
    assert main(["flc", "validate", "--spec", core_spec_file]) == 0
    assert capsys.readouterr().out.strip() == "ok"


def test_validate_reports_problems(gapped_spec_file, small_spec_file, tmp_path, capsys):
    assert main(["flc", "validate", "--spec", gapped_spec_file]) == 1
    out = capsys.readouterr().out
    assert out.startswith("problem: ")

    # one bad field in a valid spec; each once ended in a traceback or "ok"
    with open(small_spec_file, encoding="utf-8") as fh:
        doc = json.load(fh)
    for key, value, expect in (
        ("in_bits", -1, "in_bits=-1"),
        ("cons_bits", -1, "cons_bits=-1"),
        ("partitions", [[]], "at least 2 MFs"),
        ("clock_ns", float("nan"), "clock_ns=nan"),
    ):
        bad = tmp_path / f"bad_{key}.json"
        bad.write_text(json.dumps(doc | {key: value}))
        assert main(["flc", "validate", "--spec", str(bad)]) == 1, key
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines and all(line.startswith("problem: ") for line in lines), key
        assert any(expect in line for line in lines), key
        assert captured.err == "", key


def test_validate_missing_file(tmp_path, capsys):
    rc = main(["flc", "validate", "--spec", str(tmp_path / "nope.json")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_validate_malformed_json(core_spec_file, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["flc", "validate", "--spec", str(bad)]) == 2
    with open(core_spec_file, encoding="utf-8") as fh:
        doc = json.load(fh)
    bad.write_text(json.dumps(doc | {"in_bits": 1e999}))  # int(inf) overflows
    assert main(["flc", "validate", "--spec", str(bad)]) == 2


# ---- flc eval / timing ----


def test_eval_frozen_output(core_spec_file, capsys):
    rc = main(["flc", "eval", "--spec", core_spec_file, "--input", "2048,1024,0,4095"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "fixed_code=1776"
    assert lines[1] == "fixed_value=0.433593750"
    assert lines[2].startswith("real_value=")
    assert lines[3].startswith("abs_error=")
    assert lines[4].startswith("bound=")


def test_eval_wrong_arity(core_spec_file, capsys):
    assert main(["flc", "eval", "--spec", core_spec_file, "--input", "1,2"]) == 1


def test_eval_requires_input(core_spec_file):
    assert main(["flc", "eval", "--spec", core_spec_file]) == 2


def test_eval_rejects_invalid_spec(gapped_spec_file):
    assert main(["flc", "eval", "--spec", gapped_spec_file, "--input", "10"]) == 1


def test_eval_32_bit_widths_finish(tmp_path, monkeypatch, capsys):
    # a 2^32-code scan of each input's degree envelope would run for hours;
    # a budget on the bound's membership calls fails it deterministically
    calls = 0

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        if calls > 100_000:
            raise RuntimeError("more than 100,000 membership calls in flcref")
        return flc.membership(*args, **kwargs)

    monkeypatch.setattr(flcref, "membership", counted)
    rnd = random.Random(64)
    spec = flc.FlcSpec(
        in_bits=32, out_bits=32, alpha_bits=32, cons_bits=32,
        partitions=(flc.uniform_partition(32, 7),) * 2,
        singletons=tuple(rnd.randrange(1 << 32) for _ in range(49)))
    assert flc.validate_spec(spec).ok
    path = tmp_path / "wide.json"
    flc.dump_spec(spec, path)
    rc = main(["flc", "eval", "--spec", str(path), "--input", "123456789,4000000000"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == f"bound={quantization_bound(spec):.3e}"
    assert quantization_bound(spec) < 1.0


def test_timing_frozen_output(core_spec_file, capsys):
    assert main(["flc", "timing", "--spec", core_spec_file]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "stages=11 clock_ns=10 mode=standard"
    assert lines[1] == "latency_ns=110.000"
    assert lines[2] == "cycles_per_sample=16"
    assert lines[3] == "sample_rate_hz=6250000.000"


# ---- flc sweep ----


def test_sweep_writes_grid_and_manifest(small_spec_file, tmp_path, capsys):
    out = tmp_path / "sweep_out"
    rc = main(["flc", "sweep", "--spec", small_spec_file, "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "sweep.csv: 512 rows"

    lines = (out / "sweep.csv").read_text().strip().split("\n")
    assert lines[0] == "x0,fixed_code,real_value,abs_error"
    assert len(lines) == 513
    bound = quantization_bound(flc.load_spec(small_spec_file))
    for line in lines[1:]:
        x0, code, real, err = line.split(",")
        assert 0 <= int(x0) < 512
        assert float(err) <= bound + 1e-9

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["tool_version"] == __version__
    assert manifest["command"] == "flc sweep"
    assert manifest["outputs"] == ["sweep.csv"]
    assert manifest["argv"][0] == "flc"


def test_sweep_rejects_many_inputs(core_spec_file, tmp_path):
    rc = main(["flc", "sweep", "--spec", core_spec_file, "--out", str(tmp_path / "o")])
    assert rc == 1  # four inputs cannot be swept


def _two_mf_spec(n: int, in_bits: int) -> flc.FlcSpec:
    return flc.FlcSpec(
        in_bits=in_bits, out_bits=8, alpha_bits=8, cons_bits=8,
        partitions=(flc.uniform_partition(in_bits, 2),) * n,
        singletons=tuple(range(2**n)))


def test_sweep_rejects_grid_over_limit(tmp_path, capsys):
    spec = _two_mf_spec(2, 11)
    assert flc.validate_spec(spec).ok
    path = tmp_path / "big.json"
    flc.dump_spec(spec, path)
    out = tmp_path / "o"
    assert main(["flc", "sweep", "--spec", str(path), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: sweep grid has 4194304 rows, more than the 1048576 allowed\n")
    assert not out.exists()


@pytest.mark.parametrize("n, in_bits", [(1, 20), (1, 21), (2, 10), (2, 11)])
def test_sweep_row_limit_boundary(n, in_bits):
    spec = _two_mf_spec(n, in_bits)
    rows = (1 << in_bits) ** n
    assert SWEEP_MAX_ROWS == 1 << 20
    if rows <= SWEEP_MAX_ROWS:
        assert _sweep_rows(spec) == rows
    else:
        with pytest.raises(CliError) as exc:
            _sweep_rows(spec)
        assert exc.value.code == 1


def _frozen_sweep_specs() -> dict[str, flc.FlcSpec]:
    MF = flc.MembershipFunction
    return {
        # one input, PROD, a c == d / a == b step at code 150
        "n1_prod": flc.FlcSpec(
            in_bits=8, out_bits=10, alpha_bits=5, cons_bits=6,
            partitions=((MF(0, 0, 0, 90), MF(0, 90, 150, 150), MF(150, 150, 255, 255)),),
            singletons=(5, 40, 63), and_method=flc.PROD),
        # the benchmark's sweep shape: 2 inputs, 9 MFs, MIN, 7-bit grid
        "n2_min_9mf": flc.FlcSpec(
            in_bits=7, out_bits=12, alpha_bits=8, cons_bits=8,
            partitions=(flc.uniform_partition(7, 9),) * 2,
            singletons=tuple((37 * i + 11) % 256 for i in range(81))),
        # 2 bits of degree: edges floor to zero inside the supports
        "n2_alpha2": flc.FlcSpec(
            in_bits=6, out_bits=6, alpha_bits=2, cons_bits=4,
            partitions=(flc.uniform_partition(6, 4),) * 2,
            singletons=tuple((5 * i + 3) % 16 for i in range(16))),
    }


# sha256 of sweep.csv from the scalar per-point sweep the batched one replaced
FROZEN_SWEEP_SHA256 = {
    "n1_prod": "60f46d8a242004b28092a5a93d6d34afedb00ee3a7fab0e46b4d9c48b5604fb8",
    "n2_min_9mf": "d8e63f0a7511f42a51925b1849cb2f12e75caeeb58666110f487ce2b3b9a9529",
    "n2_alpha2": "b607cef62bc42339efeaa3142e257c3e90313a93f8988dbb8b0e60c53a52a053",
}


@pytest.mark.parametrize("name", sorted(FROZEN_SWEEP_SHA256))
def test_sweep_bytes_frozen(name, tmp_path, capsys):
    spec = _frozen_sweep_specs()[name]
    path = tmp_path / "spec.json"
    flc.dump_spec(spec, path)
    out = tmp_path / "o"
    assert main(["flc", "sweep", "--spec", str(path), "--out", str(out)]) == 0
    rows = (1 << spec.in_bits) ** spec.n
    assert capsys.readouterr().out == f"sweep.csv: {rows} rows\n"
    digest = hashlib.sha256((out / "sweep.csv").read_bytes()).hexdigest()
    assert digest == FROZEN_SWEEP_SHA256[name]
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "sweep.csv"]


def test_frozen_alpha2_spec_floors_edges_to_zero():
    spec = _frozen_sweep_specs()["n2_alpha2"]
    mf = spec.partitions[0][1]
    assert mf.a < 5 < mf.b and flc.membership(mf, 5, spec.alpha_bits) == 0


@pytest.mark.parametrize("and_method", [flc.MIN, flc.PROD])
def test_sweep_32_bit_widths_match_scalar(and_method, tmp_path):
    # int64 would overflow in w * y and in the PROD fold: object arrays
    rnd = random.Random(32)
    spec = flc.FlcSpec(
        in_bits=4, out_bits=32, alpha_bits=32, cons_bits=32,
        partitions=(flc.uniform_partition(4, 3),) * 2,
        singletons=tuple(rnd.randrange(1 << 32) for _ in range(9)),
        and_method=and_method)
    assert flc.batch_dtype(spec) is object
    path = tmp_path / "wide.json"
    flc.dump_spec(spec, path)
    assert main(["flc", "sweep", "--spec", str(path), "--out", str(tmp_path / "o")]) == 0
    lines = (tmp_path / "o" / "sweep.csv").read_text().splitlines()
    rspec = lift(spec)
    want = ["x0,x1,fixed_code,real_value,abs_error"]
    for x0 in range(16):
        for x1 in range(16):
            code = flc.infer(spec, (x0, x1)).value
            real = infer_real(rspec, [x0 / 16, x1 / 16])
            want.append(f"{x0},{x1},{code},{real:.9f},{abs(code / 2**32 - real):.3e}")
    assert lines == want


def test_sweep_one_input_14_bits_matches_scalar(tmp_path):
    # four full blocks of one input, each row against scalar inference and
    # the f-strings sweep.csv was once written with
    spec = flc.FlcSpec(
        in_bits=14, out_bits=16, alpha_bits=10, cons_bits=10,
        partitions=(flc.uniform_partition(14, 5),),
        singletons=(3, 517, 1000, 64, 1023))
    path = tmp_path / "n1.json"
    flc.dump_spec(spec, path)
    assert main(["flc", "sweep", "--spec", str(path), "--out", str(tmp_path / "o")]) == 0
    lines = (tmp_path / "o" / "sweep.csv").read_text().splitlines()
    rspec = lift(spec)
    want = ["x0,fixed_code,real_value,abs_error"]
    for x0 in range(1 << 14):
        code = flc.infer(spec, (x0,)).value
        real = infer_real(rspec, [x0 / 2**14])
        want.append(f"{x0},{code},{real:.9f},{abs(code / 2**16 - real):.3e}")
    assert lines == want


def _scalar_sweep_rows(spec: flc.FlcSpec) -> list[str]:
    """The lines of sweep.csv by per-row scalar inference and f-strings;
    raises flc.DenominatorZero at the first row with a zero denominator."""
    rspec, size = lift(spec), 1 << spec.in_bits
    rows = ["x0,fixed_code,real_value,abs_error\n" if spec.n == 1
            else "x0,x1,fixed_code,real_value,abs_error\n"]
    for xs in itertools.product(range(size), repeat=spec.n):
        code = flc.infer(spec, xs).value
        real = infer_real(rspec, [x / size for x in xs])
        err = abs(code / 2**spec.out_bits - real)
        rows.append(f"{','.join(map(str, xs))},{code},{real:.9f},{err:.3e}\n")
    return rows


@st.composite
def _sweep_specs(draw):
    # knots give plateaus and a == b, c == d steps, and 1-3 alpha bits floor
    # the slopes to a few degrees, so codes share runs; 32 alpha bits run on
    # object arrays; triangles at 12 alpha bits have next to no runs
    n = draw(st.integers(1, 2))
    in_bits = draw(st.integers(2, 6 if n == 1 else 4))
    and_method = draw(st.sampled_from([flc.MIN, flc.PROD]))
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["knots", "knots", "wide knots", "triangles"]))
    if kind == "triangles":
        m = draw(st.integers(2, min(4, 1 << in_bits)))
        spec = flc.FlcSpec(
            in_bits=in_bits, out_bits=12, alpha_bits=12, cons_bits=8,
            partitions=(flc.uniform_partition(in_bits, m),) * n,
            singletons=tuple(rnd.randrange(256) for _ in range(m**n)), and_method=and_method)
    elif kind == "wide knots":
        spec = random_knot_spec(rnd, n, in_bits, 32, and_method, cons_bits=28)
    else:
        spec = random_knot_spec(rnd, n, in_bits, draw(st.integers(1, 3)), and_method)
    assume(flc.validate_spec(spec).ok)
    return spec


@settings(max_examples=60)
@given(_sweep_specs())
@example(flc.FlcSpec(  # zero_den_spec at 4 bits: a zero fixed denominator mid-edge
    in_bits=4, out_bits=8, alpha_bits=1, cons_bits=8,
    partitions=((flc.MembershipFunction(0, 0, 0, 15),
                 flc.MembershipFunction(0, 15, 15, 15)),) * 2,
    singletons=(10, 200, 30, 90)))
@example(flc.FlcSpec(  # object arrays, MIN
    in_bits=3, out_bits=32, alpha_bits=32, cons_bits=32,
    partitions=(flc.uniform_partition(3, 3),) * 2,
    singletons=tuple((2**32 - 1) * i // 8 for i in range(9))))
@example(flc.FlcSpec(  # two blocks of one input; the plateau on 3000..5000 crosses 4096
    in_bits=13, out_bits=12, alpha_bits=3, cons_bits=8,
    partitions=((flc.MembershipFunction(0, 0, 2000, 3000),
                 flc.MembershipFunction(2000, 3000, 5000, 6100),
                 flc.MembershipFunction(5000, 6100, 8191, 8191)),),
    singletons=(7, 200, 90)))
@example(flc.FlcSpec(  # four blocks of 32 x0 codes; the plateau on 50..80 crosses 64
    in_bits=7, out_bits=12, alpha_bits=3, cons_bits=8,
    partitions=((flc.MembershipFunction(0, 0, 30, 50), flc.MembershipFunction(30, 50, 80, 99),
                 flc.MembershipFunction(80, 99, 127, 127)),) * 2,
    singletons=tuple((37 * i + 11) % 256 for i in range(9)), and_method=flc.PROD))
def test_sweep_matches_scalar_on_specs_with_runs(spec):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "spec.json"), os.path.join(tmp, "o")
        flc.dump_spec(spec, path)
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            rc = main(["flc", "sweep", "--spec", path, "--out", out])
        try:
            want = "".join(_scalar_sweep_rows(spec))
        except flc.DenominatorZero as exc:
            assert (rc, stderr.getvalue()) == (1, f"error: {exc}\n")
            assert os.listdir(out) == ["manifest.json"]
        else:
            assert (rc, stderr.getvalue()) == (0, "")
            with open(os.path.join(out, "sweep.csv"), encoding="utf-8") as fh:
                assert fh.read() == want


def test_sweep_runs_split_on_any_entry_sign_bit_and_nan():
    left = np.array([0, 0, 0, 0, 0, 0, 1, 1])
    real = np.array([0.0, -0.0, np.nan, np.nan, 0.5, 0.5, 0.5, 0.5])
    wide = np.array([3, 3, 3, 3, 3, 3, 3, 2**40], dtype=object)
    rid, rep = _runs(left, real, wide)
    assert rid.tolist() == [0, 1, 2, 3, 4, 4, 5, 6]
    assert rep.tolist() == [0, 1, 2, 3, 4, 6, 7]
    assert [a.tolist() for a in _runs(np.array([5]), np.array([-0.0]))] == [[0], [0]]


# ---- sweep.csv cells ----


def _csv_rows(ints, real, err) -> str:
    """The rows `i0,...,ik,real,err` of sweep.csv's cell writers."""
    return rows_text([*map(int_cells, ints), fixed_cells(real, 9), sci_cells(err)])


def _csv_cells(ints, real, err) -> list[list[str]]:
    text = _csv_rows(ints, np.array(real, np.float64), np.array(err, np.float64))
    assert text.endswith("\n")
    return [line.split(",") for line in text[:-1].split("\n")]


def _formatted(real, err) -> list[list[str]]:
    return [[str(i), format(r, ".9f"), format(e, ".3e")]
            for i, (r, e) in enumerate(zip(real, err))]


# values on and beside every rounding and range edge of the integer paths,
# and values only Python's format writes
_EDGE_VALUES = st.one_of(
    st.floats(),  # nan, infinities, negatives, huge and tiny values
    st.floats(0, 10),
    st.builds(lambda m, k: m / 2**k, st.integers(0, 10**10), st.integers(0, 60)),  # ties
    st.integers(-330, 120).map(lambda k: float(f"1e{k}")),
    st.builds(lambda k, d: float(f"9.999{d}e{k}"), st.integers(-25, 101), st.integers(0, 9)),
    st.builds(lambda d, f: d + float(f"0.{f}"), st.integers(0, 10),
              st.sampled_from(["9999999994", "9999999995", "9999999996", "0000000005"])),
    st.sampled_from([1e-19, math.nextafter(1e-19, 0), math.nextafter(1e-19, 1), 1e100,
                     math.nextafter(1e100, 0), 9.9995e99, 1 / 1024, 0.0, -0.0, 1.0]),
    st.floats(0, 2.2250738585072014e-308),  # subnormals
    st.integers(0, 10 * 1024).map(lambda k: k / 1024),  # dyadic .9f ties
    st.integers(0, 10**10).map(lambda k: (k + 0.5) / 1e9),  # beside a half-integer
    # .3e half-way points (m + 0.5) * 10^(k - 3), scaled back by up to 10^22,
    # and their neighbours
    st.builds(lambda m, k, d: math.nextafter(v := float(f"{10 * m + 5}e{k - 4}"), v * d),
              st.integers(1000, 9999), st.integers(-19, 3), st.sampled_from([0, 1, 2])),
)


@settings(max_examples=300)
@given(st.lists(st.tuples(_EDGE_VALUES, _EDGE_VALUES), min_size=1, max_size=40))
def test_csv_rows_match_python_format(pairs):
    real, err = zip(*pairs)
    assert _csv_cells([np.arange(len(real))], real, err) == _formatted(real, err)


def test_csv_rows_fallback_shares_a_block_with_the_integer_path():
    # ties, a 310-character .9f and a 10-character .3e widen their slots for
    # the whole block; the rows beside them take the integer path
    real = [0.25, 1 / 1024, 1e300, -0.0, 9.9999999995, 0.123456789, math.nan]
    err = [0.25, 1e-300, 1e-320, 0.0, 9.9995e-3, math.inf, 1.5e-5]
    assert _csv_cells([np.arange(7)], real, err) == _formatted(real, err)


def test_sweep_abs_error_cells_never_reach_format(tmp_path, monkeypatch):
    # the benchmark's sweep shape: every cell is rounded exactly, where 2.6%
    # of such abs_error cells, near a .3e rounding tie but none on one, once
    # went to Python's format
    rnd = random.Random(7)
    spec = flc.FlcSpec(
        in_bits=7, out_bits=12, alpha_bits=8, cons_bits=8,
        partitions=(flc.uniform_partition(7, 9),) * 2,
        singletons=tuple(rnd.randrange(256) for _ in range(81)), and_method=flc.MIN)
    path = tmp_path / "sweep.json"
    flc.dump_spec(spec, path)
    formatted = []

    def fallback(value, fmt):
        formatted.append((value, fmt))
        return format(value, fmt)

    monkeypatch.setattr("fuzzychip.cells.format", fallback, raising=False)
    assert main(["flc", "sweep", "--spec", str(path), "--out", str(tmp_path / "o")]) == 0
    assert formatted == []
    want = _scalar_sweep_rows(spec)
    assert (tmp_path / "o" / "sweep.csv").read_text() == "".join(want)
    assert len(want) == 1 + 2**14


@pytest.mark.parametrize("dtype", [np.int64, np.uint32, object])
def test_csv_rows_integer_columns(dtype):
    values = [0, 9, 10, 99, 100, 2**20 - 1, 2**32 - 1]
    ints = [np.array(values, dtype), np.array(values[::-1], dtype)]
    rows = _csv_cells(ints, [0.5] * 7, [0.25] * 7)
    assert rows == [[str(a), str(b), "0.500000000", "2.500e-01"]
                    for a, b in zip(values, values[::-1])]


# the per-row format trace_NNN.csv was once written with
_ROW_FORMAT = ",".join(["%.6f"] * 10) + "\n"
# .6f ties: odd multiples of 1/128 are exact, their neighbours one ulp off
_TIES = [s * (2 * j + 1) / 128 for j in (0, 1, 63, 64, 12345, 2**40 + 7) for s in (1, -1)]
_TRACE_EDGES = (_TIES + [math.nextafter(v, d) for v in _TIES for d in (-math.inf, math.inf)]
                + [5e-7, -5e-7, 4.9999999e-7, 1.5e-6, 2.5e-6, 0.0, -0.0, -1e-9, -4e-7, -5e-324,
                   1e9, -1e9, 999999999.9999995, 2**53 / 1e6, -(2**53) / 1e6,
                   math.nextafter(2**53 / 1e6, 0), 838860.75, 2**24 * 0.05, 1e300, -1e17,
                   math.inf, -math.inf, math.nan])


@settings(max_examples=200)
@given(st.lists(st.sampled_from(_TRACE_EDGES) | st.floats(allow_nan=False, width=64)
                | st.floats(-2e9, 2e9), min_size=10, max_size=300))
def test_fixed_cells_match_trace_row_format(values):
    block = np.array(values[:len(values) // 10 * 10]).reshape(-1, 10)
    cells = fixed_cells(block, 6)
    cells[..., -1] = ord(",")
    cells[:, -1, -1] = ord("\n")
    want = "".join(_ROW_FORMAT % tuple(row) for row in block.tolist())
    assert cells[cells != 0].tobytes().decode() == want


def test_track_summary_rounds_e_d_as_numpy_and_kappa_as_python(tmp_path, monkeypatch):
    # the two roundings differ on these values: numpy 97.954096 and
    # 0.001286378, Python 97.954097 and 0.001286377; e_d was a numpy float64
    # and kappa a float before the trace went through a float64 matrix
    row = (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 97.9540965, 0.0, -0.0012863775)
    monkeypatch.setattr(tracksim, "trace_rows", lambda *args: iter([row]))
    path = tracksim.interpolate_path(straight_waypoints(1000.0), 100.0)
    summary = cli._track_payload(path, (0.0, 0.0), 0, 1, None, str(tmp_path / "t.csv"))
    assert (summary["final_e_d_mm"], summary["max_abs_e_d_mm"]) == (97.954096, 97.954096)
    assert summary["max_abs_kappa"] == 0.001286377
    assert (tmp_path / "t.csv").read_text() == TRACE_HEADER + "\n" + _ROW_FORMAT % row


@pytest.fixture()
def zero_den_spec():
    # valid, but 1 alpha bit floors both degrees to zero mid-edge (fixed
    # denominator 0) while the real degrees stay positive there; codes 0
    # and 63 sit on plateaus
    return flc.FlcSpec(
        in_bits=6, out_bits=8, alpha_bits=1, cons_bits=8,
        partitions=((flc.MembershipFunction(0, 0, 0, 63),
                     flc.MembershipFunction(0, 63, 63, 63)),) * 2,
        singletons=(10, 200, 30, 90))


def test_sweep_zero_denominator_leaves_manifest_only(zero_den_spec, tmp_path, capsys):
    path = tmp_path / "zero.json"
    flc.dump_spec(zero_den_spec, path)
    out = tmp_path / "o"
    rc = main(["flc", "sweep", "--spec", str(path), "--out", str(out)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: all rule weights are zero for this input vector\n"
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]


def test_zero_real_denominator_implies_zero_fixed_one():
    # why the fixed check decides the sweep's error message: wherever the
    # real denominator is zero, the fixed one is zero too
    rnd = random.Random(50)
    real_zero = 0
    for _ in range(60):
        spec = random_knot_spec(rnd, rnd.randint(1, 2), rnd.randint(2, 5),
                                rnd.randint(1, 12), rnd.choice((flc.MIN, flc.PROD)))
        if not flc.validate_spec(spec).ok:
            continue
        rspec, scale = lift(spec), 1 << spec.in_bits
        for xs in itertools.product(range(scale), repeat=spec.n):
            try:
                infer_real(rspec, [x / scale for x in xs])
            except flc.DenominatorZero:
                real_zero += 1
                with pytest.raises(flc.DenominatorZero):
                    flc.infer(spec, xs)
    assert real_zero > 0


# ---- ga ----


def test_ga_benchmark_run(ga_config_file, tmp_path, capsys):
    out = tmp_path / "ga_out"
    rc = main(["ga", "--config", ga_config_file, "--fn", "sphere", "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().out.startswith("run 000: best_f=")

    gens = (out / "generations_000.csv").read_text().strip().split("\n")
    assert gens[0] == "generation,best_score,mean_score,best_genome"
    assert len(gens) == 5  # generations 0..3 plus header
    assert gens[1].startswith("0,")

    doc = json.loads((out / "result_000.json").read_text())
    assert doc["fn"] == "sphere"
    assert doc["stop_reason"] == "max_gen"
    assert doc["generations_run"] == 3
    assert doc["best_genome"].startswith("0x")
    assert len(doc["best_x"]) == 2
    assert doc["seeds"] == [0xACE1, 0x1234, 0x5EED, 0x0F0F]


def test_ga_max_gen_override(ga_config_file, tmp_path):
    out = tmp_path / "ga0"
    rc = main(
        ["ga", "--config", ga_config_file, "--fn", "rastrigin",
         "--max-gen", "0", "--out", str(out)]
    )
    assert rc == 0
    gens = (out / "generations_000.csv").read_text().strip().split("\n")
    assert len(gens) == 2  # header plus generation 0 only
    doc = json.loads((out / "result_000.json").read_text())
    assert doc["generations_run"] == 0


def test_ga_multiple_seed_sets(ga_config_file, tmp_path):
    out = tmp_path / "multi"
    rc = main(
        ["ga", "--config", ga_config_file, "--fn", "sphere",
         "--seeds", "0x1111,0x2222,0x3333,0x4444",
         "--seeds", "0x5555,0x6666,0x7777,0x8888",
         "--out", str(out)]
    )
    assert rc == 0
    for i in (0, 1):
        assert (out / f"generations_{i:03d}.csv").exists()
        assert (out / f"result_{i:03d}.json").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seeds"] == [
        [0x1111, 0x2222, 0x3333, 0x4444],
        [0x5555, 0x6666, 0x7777, 0x8888],
    ]
    a = json.loads((out / "result_000.json").read_text())
    b = json.loads((out / "result_001.json").read_text())
    assert a["seeds"] != b["seeds"]


def test_ga_rejects_invalid_config(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"pop_sz": 7}))
    rc = main(["ga", "--config", str(cfg), "--fn", "sphere", "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "pop_sz" in capsys.readouterr().err


def test_ga_rejects_zero_seed(ga_config_file, tmp_path):
    rc = main(
        ["ga", "--config", ga_config_file, "--fn", "sphere",
         "--seeds", "0,1,2,3", "--out", str(tmp_path / "o")]
    )
    assert rc == 1


def test_ga_config_file_errors(tmp_path):
    missing = str(tmp_path / "nope.json")
    rc = main(["ga", "--config", missing, "--fn", "sphere", "--out", str(tmp_path / "o")])
    assert rc == 2
    malformed = tmp_path / "broken.json"
    malformed.write_text("[1, 2")
    rc = main(
        ["ga", "--config", str(malformed), "--fn", "sphere", "--out", str(tmp_path / "o")]
    )
    assert rc == 2
    for text in ("[]", "null", '{"pop_sz": 1e999}',  # JSON, not a config
                 # non-integers were once truncated: 32.5 ran as 32
                 '{"pop_sz": 32.5}', '{"max_gen": true}', '{"fitness_limit": 5.5}',
                 '{"seeds": [1.9, "16", true, 7]}', '{"seeds": [1, 2, 3, "16"]}'):
        malformed.write_text(text)
        rc = main(
            ["ga", "--config", str(malformed), "--fn", "sphere",
             "--out", str(tmp_path / "o")]
        )
        assert rc == 2


def test_ga_rejects_wide_benchmark_genome(tmp_path, capsys):
    # benchmark genomes are 16 bits; a wider one used to be silently truncated
    cfg = tmp_path / "wide.json"
    ga.dump_config(ga.GaConfig(genom_lngt=20, max_gen=1), cfg)
    out = tmp_path / "o"
    rc = main(["ga", "--config", str(cfg), "--fn", "sphere", "--out", str(out)])
    assert rc == 1
    assert "16 bits" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_ga_rejects_huge_genome(tmp_path, capsys):
    # bit_flip draws one word per bit; a 10^9-bit genome once validated
    cfg = tmp_path / "huge.json"
    cfg.write_text(json.dumps({"genom_lngt": 10**9}))
    out = tmp_path / "o"
    rc = main(["ga", "--config", str(cfg), "--fn", "sphere", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == "error: genom_lngt must be 2..4096\n"
    assert not out.exists()


@pytest.mark.parametrize("source", ["config", "flag"])
def test_ga_rejects_unbounded_max_gen(source, ga_config_file, tmp_path, capsys):
    # a run logs one row per generation until it ends; --max-gen 10^9 once
    # validated and grew without bound while its fitness limit went unmet
    cfg = tmp_path / "long.json"
    cfg.write_text(json.dumps({"max_gen": ga.GA_MAX_GEN + 1}))
    args = (["--config", str(cfg)] if source == "config"
            else ["--config", ga_config_file, "--max-gen", str(10**9)])
    out = tmp_path / "o"
    rc = main(["ga", *args, "--fn", "sphere", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: max_gen must be 0..{ga.GA_MAX_GEN}\n"
    assert not out.exists()


def test_ga_rejects_work_over_cap(ga_config_file, tmp_path, capsys, monkeypatch):
    # the default profile reads 32 selection, 16 crossover and 64 mutation
    # words a generation; the cap on max_gen times that is inclusive
    monkeypatch.setattr(ga, "GA_MAX_WORK", 112 * 5)
    argv = ["ga", "--config", ga_config_file, "--fn", "sphere", "--out"]
    assert main([*argv, str(tmp_path / "ok"), "--max-gen", "5"]) == 0
    capsys.readouterr()
    out = tmp_path / "o"
    assert main([*argv, str(out), "--max-gen", "6"]) == 1
    assert capsys.readouterr().err == ("error: max_gen 6 times 112 LFSR words a generation "
                                       "is more than 560\n")
    assert not out.exists()


def test_ga_tsp_dimension_bound_is_inclusive(tmp_path, capsys, monkeypatch):
    # a TSP fitness call grows with the dimension, so pop_sz times max_gen times
    # dimension is capped at GA_MAX_CHILDREN times 14, burma14's dimension
    monkeypatch.setattr(ga, "GA_MAX_CHILDREN", 64)
    inst = problems.TspInstance("grid28", 28, problems.EUC_2D,
                                tuple((float(i % 7), float(i // 7)) for i in range(28)))
    tsp = tmp_path / "grid28.tsp"
    tsp.write_text(problems.format_tsplib(inst))
    cfg = tmp_path / "tsp.json"
    ga.dump_config(ga.GaConfig(genom_lngt=100, pop_sz=4, max_gen=8), cfg)
    argv = ["ga", "--config", str(cfg), "--instance", str(tsp), "--out"]
    assert main([*argv, str(tmp_path / "ok")]) == 0  # 4 * 8 * 28 = 64 * 14
    capsys.readouterr()
    out = tmp_path / "o"
    assert main([*argv, str(out), "--max-gen", "9"]) == 1
    assert capsys.readouterr().err == ("error: pop_sz 4 times max_gen 9 times dimension 28 "
                                       "is more than 896\n")
    assert not out.exists()


@pytest.mark.parametrize("field", ["cross_method", "mut_method"])
def test_ga_rejects_empty_schedule(field, tmp_path):
    # an empty schedule used to pass validation and crash in method_for
    cfg = tmp_path / "empty.json"
    cfg.write_text(json.dumps({field: []}))
    out = tmp_path / "o"
    proc = subprocess.run(
        [sys.executable, "-m", "fuzzychip.cli", "ga", "--config", str(cfg),
         "--fn", "sphere", "--out", str(out)],
        capture_output=True,
        text=True,
        env=subprocess_env(),
    )
    assert proc.returncode == 1
    assert proc.stderr == f"error: {field} schedule is empty\n"
    assert proc.stdout == ""
    assert not out.exists() or not any(out.iterdir())


# sha256 over generations_*.csv, result_*.json and stdout; computed before the
# whole-generation GA step and frozen, never updated
GA_FROZEN = {
    "burma14": "912a155e49367a549cb49332a5c19e27905d93f8fd4c9f18f6a26917678d9956",
    "rastrigin": "81cb064da7ad19b4902c48a1fa64bf780acfa3c01429928266a1905b061bbd23",
}


@pytest.mark.parametrize("name", sorted(GA_FROZEN))
def test_ga_bytes_frozen(name, burma_file, tmp_path, capsys):
    if name == "burma14":
        # acceptance-6 profile: uniform crossover, bit_flip mutation, elite 26,
        # fitness-limit stop at tour length 4200; two seed sets
        l_max = problems.TspFitness(problems.load_builtin("burma14"), 40).l_max
        cfg = ga.GaConfig(genom_lngt=40, scaling_factor_res=16, elite=26,
                          cross_method=ga.UNIFORM, mut_method=ga.BIT_FLIP,
                          max_gen=400, fitness_limit=l_max - 4200)
        source = ["--instance", burma_file,
                  "--seeds", "0x2468,0xACE1,0x5EED,0x0F0F",
                  "--seeds", "0x1357,0x9BDF,0x0246,0x8ACE"]
    else:
        # single_point then two_point crossover, single_bit mutation, and an
        # odd parent count (29), so the last parent skips crossover
        cfg = ga.GaConfig(elite=3, cross_method=(ga.SINGLE_POINT, ga.TWO_POINT),
                          mut_method=ga.SINGLE_BIT, max_gen=120)
        source = ["--fn", name]
    cfg_path = tmp_path / "cfg.json"
    ga.dump_config(cfg, cfg_path)
    out = tmp_path / "o"
    assert main(["ga", "--config", str(cfg_path), *source, "--out", str(out)]) == 0
    h = hashlib.sha256()
    for path in sorted(out.glob("generations_*.csv")) + sorted(out.glob("result_*.json")):
        h.update(path.read_bytes())
    h.update(capsys.readouterr().out.encode())
    assert h.hexdigest() == GA_FROZEN[name]


def test_tsp_run(tsp_config_file, burma_file, tmp_path, capsys):
    out = tmp_path / "tsp_out"
    rc = main(
        ["ga", "--config", tsp_config_file, "--instance", burma_file,
         "--out", str(out)]
    )
    assert rc == 0
    assert capsys.readouterr().out.startswith("run 000: length=")
    doc = json.loads((out / "result_000.json").read_text())
    assert doc["instance"] == "burma14"
    assert doc["dimension"] == 14
    assert sorted(doc["tour"]) == list(range(14))
    assert doc["tour_length"] > 3000
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "ga"


def test_ga_log_memory_flat_in_max_gen(burma_file, tmp_path):
    # 1024-bit genomes make each log row about 280 bytes; a fitness limit
    # above every 16-bit score runs the whole max_gen. Keeping the rows
    # cost 2.7 MB between 1024 and 4096 generations
    cfg = tmp_path / "wide.json"
    ga.dump_config(ga.GaConfig(genom_lngt=1024, pop_sz=2, elite=0,
                               fitness_limit=1 << 16), cfg)
    argv = ["ga", "--config", str(cfg), "--instance", burma_file, "--jobs", "1", "--out"]
    assert main(argv + [str(tmp_path / "warm"), "--max-gen", "0"]) == 0  # orbit, imports
    peaks = []
    for max_gen in (1024, 4096):
        out = tmp_path / str(max_gen)
        tracemalloc.start()
        try:
            assert main(argv + [str(out), "--max-gen", str(max_gen)]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        rows = (out / "generations_000.csv").read_text().split("\n")
        assert len(rows) == max_gen + 3  # header, generations 0..max_gen, final newline
    assert peaks[1] - peaks[0] < 256 * 2**10, peaks


def test_ga_failed_run_leaves_no_log(ga_config_file, tmp_path, monkeypatch):
    # the log streams to its temp file; a run that dies past the first
    # written block must remove it
    run = ga.run

    def dying_run(cfg, fit, on_generation):
        def observe(gen, pop):
            if gen == 3 * cli.GA_LOG_BLOCK:
                raise RuntimeError("stop")
            on_generation(gen, pop)
        return run(cfg, fit, on_generation=observe)

    monkeypatch.setattr(ga, "run", dying_run)
    out = tmp_path / "o"
    with pytest.raises(RuntimeError):
        main(["ga", "--config", ga_config_file, "--fn", "sphere", "--max-gen", "5000",
              "--jobs", "1", "--out", str(out)])
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]


def test_tsp_rejects_narrow_genome(ga_config_file, burma_file, tmp_path, capsys):
    # 16-bit genomes cannot index 14! tours
    out = tmp_path / "o"
    rc = main(
        ["ga", "--config", ga_config_file, "--instance", burma_file, "--out", str(out)]
    )
    assert rc == 1
    assert "need at least 37 bits" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_tsp_instance_parse_error(tsp_config_file, tmp_path, capsys):
    bad = tmp_path / "bad.tsp"
    bad.write_text("DIMENSION: nope\n")
    rc = main(
        ["ga", "--config", tsp_config_file, "--instance", str(bad),
         "--out", str(tmp_path / "o")]
    )
    assert rc == 2
    assert capsys.readouterr().err == f"error: {bad}: line 1: bad DIMENSION 'nope'\n"


@pytest.mark.parametrize("edge_type", [problems.EUC_2D, problems.GEO])
@pytest.mark.parametrize("line, expect", [
    ("1 inf 0", "line 6: non-finite coordinate"),  # once an OverflowError traceback
    ("1 nan 0", "line 6: non-finite coordinate"),  # once a late exit 1
    ("1 -inf 0", "line 6: non-finite coordinate"),
])
def test_tsp_instance_rejects_non_finite_coordinates(
        edge_type, line, expect, tsp_config_file, tmp_path, capsys):
    inst = problems.load_builtin("burma14")
    text = problems.format_tsplib(problems.TspInstance("x", 14, edge_type, inst.coords))
    bad = tmp_path / "bad.tsp"
    bad.write_text(text.replace(f"1 {inst.coords[0][0]:.10g} {inst.coords[0][1]:.10g}", line))
    rc = main(["ga", "--config", tsp_config_file, "--instance", str(bad),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {bad}: {expect}\n"


@pytest.mark.parametrize("edge_type", [problems.EUC_2D, problems.GEO])
def test_tsp_instance_rejects_overflowing_edges(edge_type, tsp_config_file, tmp_path, capsys):
    # finite coordinates whose edge is inf: once an OverflowError traceback
    coords = ((1e308, 0.0), (-1e308, 0.0)) + problems.load_builtin("burma14").coords[2:]
    bad = tmp_path / "far.tsp"
    bad.write_text(problems.format_tsplib(problems.TspInstance("far", 14, edge_type, coords)))
    rc = main(["ga", "--config", tsp_config_file, "--instance", str(bad),
               "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: edge 1-2 length is not finite") and err.count("\n") == 1


def test_tsp_instance_huge_dimension_ends_early(tsp_config_file, tmp_path, capsys):
    # the parser once allocated DIMENSION slots first: a MemoryError traceback
    bad = tmp_path / "huge.tsp"
    bad.write_text("DIMENSION: 100000000000\nEDGE_WEIGHT_TYPE: EUC_2D\n"
                   "NODE_COORD_SECTION\n1 0 0\nEOF\n")
    rc = main(["ga", "--config", tsp_config_file, "--instance", str(bad),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: {bad}: line 5: expected 100000000000 coordinate lines, file ended early\n")


def test_ga_rejects_wide_score(tmp_path, capsys):
    # score_sz 10^6 once validated and died in BenchmarkFitness
    cfg = tmp_path / "wide.json"
    cfg.write_text(json.dumps({"score_sz": 10**6}))
    rc = main(["ga", "--config", str(cfg), "--fn", "sphere", "--out", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err == "error: score_sz must be 1..32\n"


@pytest.mark.parametrize("key, value, expect", [
    ("stages", 10**400, "outside 1..65535"),  # once an OverflowError traceback
    ("clock_ns", math.inf, "clock_ns=inf must be positive and finite"),  # once latency_ns=inf
    ("clock_ns", 5e-324, "sample_rate_hz=inf"),  # once printed sample_rate_hz=inf
], ids=["stages-1e400", "clock_ns-inf", "clock_ns-5e-324"])
def test_timing_rejects_unbounded_fields(key, value, expect, core_spec_file, tmp_path, capsys):
    with open(core_spec_file, encoding="utf-8") as fh:
        doc = json.load(fh)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc | {key: value}))
    assert main(["flc", "timing", "--spec", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and expect in err[0]


# ---- track ----


def test_track_run(waypoint_file, tmp_path, capsys):
    out = tmp_path / "track_out"
    rc = main(["track", "--path", waypoint_file, "--out", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert stdout.startswith("seed 0: rows=")
    assert "final_path_distance=" in stdout

    trace = (out / "trace_000.csv").read_text().strip().split("\n")
    assert trace[0] == TRACE_HEADER
    assert len(trace) > 100
    summaries = json.loads((out / "summary.json").read_text())
    assert len(summaries) == 1
    assert summaries[0]["seed"] == 0
    assert summaries[0]["rows"] == len(trace) - 1
    assert summaries[0]["max_abs_e_d_mm"] < 5.0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == ["trace_000.csv", "summary.json"]


def test_track_multiple_seeds_with_noise(waypoint_file, tmp_path):
    out = tmp_path / "noisy"
    rc = main(
        ["track", "--path", waypoint_file, "--noise", "0.05,0.001",
         "--seeds", "1,2", "--out", str(out)]
    )
    assert rc == 0
    a = (out / "trace_000.csv").read_bytes()
    b = (out / "trace_001.csv").read_bytes()
    assert a != b
    summaries = json.loads((out / "summary.json").read_text())
    assert [s["seed"] for s in summaries] == [1, 2]


def test_track_compiles_one_controller_for_all_seeds(waypoint_file, tmp_path, monkeypatch):
    built = []

    class Counted(flc.Controller):
        def __init__(self, spec):
            built.append(spec)
            super().__init__(spec)

    monkeypatch.setattr(flc, "Controller", Counted)
    tracksim.tracker_controller.cache_clear()
    try:
        assert main(["track", "--path", waypoint_file, "--seeds", "1,2,3", "--steps", "40",
                     "--jobs", "1", "--out", str(tmp_path / "o")]) == 0
    finally:
        tracksim.tracker_controller.cache_clear()
    assert len(built) == 1


def test_track_bytes_frozen(tmp_path, capsys):
    # sha256 over both traces, summary.json and stdout; frozen, never updated
    path = tmp_path / "s_course.txt"
    save_waypoints(s_curve_waypoints(), path)
    out = tmp_path / "o"
    rc = main(["track", "--path", str(path), "--seeds", "1,2", "--noise", "0.1,0.001",
               "--start", "0,300,0.1", "--out", str(out)])
    assert rc == 0
    h = hashlib.sha256()
    for name in ("trace_000.csv", "trace_001.csv", "summary.json"):
        h.update((out / name).read_bytes())
    h.update(capsys.readouterr().out.encode())
    assert h.hexdigest() == "2c1a74f21cdcb6c28d4b6348c2c3763c16862af36a58279013527c1d54d52b50"


def test_track_start_beside_final_sample_writes_header_only(waypoint_file, tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["track", "--path", waypoint_file, "--start", "3100,40,1",
                 "--out", str(out)]) == 0
    assert capsys.readouterr().out == "seed 0: rows=0 final_path_distance=n/a\n"
    assert (out / "trace_000.csv").read_text() == TRACE_HEADER + "\n"
    assert json.loads((out / "summary.json").read_text()) == [{"seed": 0, "rows": 0}]


def test_track_bad_waypoints(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    # 1e300 once overflowed the squared distances: nan in summary.json and
    # numpy warnings on stderr
    for text in ("1 2 3\n", "0 0\n1000 nan\n", "0 0\n1e300 0\n", "0 0\n5 -1.5e9\n"):
        bad.write_text(text)
        rc = main(["track", "--path", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 2, text
        assert capsys.readouterr().err.startswith(f"error: {bad}: line "), text


def test_track_rejects_bad_numbers(waypoint_file, tmp_path):
    rc = main(
        ["track", "--path", waypoint_file, "--spacing", "-5",
         "--out", str(tmp_path / "o")]
    )
    assert rc == 1


# nan and inf spacings once ran on a two-point path and exited 0; nan noise
# or start poses died in quantize, inf noise printed numpy warnings, and a
# negative sigma surfaced numpy's "scale < 0", a sigma of 1e308 a NaN pose,
# and a negative seed numpy's "expected non-negative integer" after the
# manifest was written
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("args, flag", [
    (["--spacing", "nan"], "--spacing"),
    (["--spacing", "inf"], "--spacing"),
    (["--spacing", "0.0005"], "--spacing"),  # 6M samples on the 3 m line
    (["--noise", "nan,0"], "--noise"),
    (["--noise", "0,inf"], "--noise"),
    (["--noise=-1,0"], "--noise"),
    (["--start", "nan,0,0"], "--start"),
    (["--start", "0,0,inf"], "--start"),
    (["--start", "1e300,0,0"], "--start"),  # once summary.json held Infinity
    (["--seeds", "3,-1"], "--seeds"),
    (["--noise", "1e308,0"], "--noise"),  # once a NaN pose after the manifest
    (["--noise", "0,1e308"], "--noise"),
])
def test_track_rejects_non_finite_inputs(args, flag, waypoint_file, tmp_path, capsys):
    out = tmp_path / "o"
    rc = main(["track", "--path", waypoint_file, *args, "--out", str(out)])
    assert rc in (1, 2)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert flag in captured.err
    assert not out.exists()


def test_track_sample_cap_boundary(waypoint_file, tmp_path, monkeypatch, capsys):
    # the 3 m line at 100 mm spacing is 30 spacings long
    monkeypatch.setattr(cli, "TRACK_MAX_SAMPLES", 30)
    argv = ["track", "--path", waypoint_file, "--steps", "3", "--out"]
    assert main(argv + [str(tmp_path / "a"), "--spacing", "100"]) == 0
    assert main(argv + [str(tmp_path / "b"), "--spacing", "99.9"]) == 1
    assert capsys.readouterr().err == (
        "error: --spacing 99.9 resamples the path to more than 30 samples\n")


def test_track_steps_cap_boundary(waypoint_file, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "TRACK_MAX_STEPS", 3)
    argv = ["track", "--path", waypoint_file, "--out"]
    assert main(argv + [str(tmp_path / "a"), "--steps", "3"]) == 0
    capsys.readouterr()
    assert main(argv + [str(tmp_path / "b"), "--steps", "4"]) == 1
    assert capsys.readouterr().err == (
        "error: --spacing must be finite and positive, --steps 1 to 3\n")
    assert not (tmp_path / "b").exists()


def test_track_work_cap_boundary(waypoint_file, tmp_path, monkeypatch, capsys):
    # the 3 m line at 100 mm spacing resamples to 31 samples
    monkeypatch.setattr(cli, "TRACK_MAX_WORK", 31 * 3)
    argv = ["track", "--path", waypoint_file, "--out"]
    assert main(argv + [str(tmp_path / "a"), "--steps", "3"]) == 0
    capsys.readouterr()
    assert main(argv + [str(tmp_path / "b"), "--steps", "4"]) == 1
    assert capsys.readouterr().err == (
        "error: --steps 4 on 31 path samples is more than 93 steps times samples\n")
    assert not (tmp_path / "b").exists()


@pytest.mark.parametrize("text", ["", "5 5\n", "5 5\n5 5\n"])
def test_track_rejects_degenerate_path_before_manifest(text, tmp_path, capsys):
    path = tmp_path / "dot.txt"
    path.write_text(text)
    out = tmp_path / "o"
    assert main(["track", "--path", str(path), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: need at least two distinct waypoints\n"
    assert not out.exists()


# A fresh interpreter runs one track argv and prints its peak RSS in bytes.
TRACK_RSS = r"""
import resource, sys
from fuzzychip.cli import main
assert main(sys.argv[1:]) == 0
unit = 1 if sys.platform == "darwin" else 1024  # ru_maxrss is in KiB on Linux
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * unit)
"""


def test_track_memory_flat_in_steps(tmp_path):
    # starting 100 km off a 25 m line, every step of the budget is a trace
    # row; keeping the rows cost about 1.1 KB per step (44 MB between these)
    path = tmp_path / "line.txt"
    save_waypoints(straight_waypoints(25000.0), path)
    peaks = []
    for steps in (1000, 40000):
        argv = ["track", "--path", str(path), "--start", "12500,100000000,1.5708",
                "--steps", str(steps), "--out", str(tmp_path / str(steps))]
        proc = subprocess.run([sys.executable, "-c", TRACK_RSS, *argv], capture_output=True,
                              text=True, check=True, env=subprocess_env())
        assert f"rows={steps} " in proc.stdout
        peaks.append(int(proc.stdout.split()[-1]))
    assert peaks[1] - peaks[0] < 8 * 2**20, peaks


# ---- write failures ----


def test_cli_error_survives_pickling():
    exc = pickle.loads(pickle.dumps(CliError(2, "x")))
    assert (type(exc), exc.code, str(exc)) == (CliError, 2, "x")


def _assert_write_error(rc, out, blocked, capsys):
    # `blocked` is a directory, so the rename onto it fails
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out / blocked}: ") and err.count("\n") == 1
    assert not list(out.glob("*.tmp"))


@pytest.mark.parametrize("blocked", ["manifest.json", "sweep.csv"])
def test_sweep_write_failure_exits_two(blocked, small_spec_file, tmp_path, capsys):
    out = tmp_path / "o"
    (out / blocked).mkdir(parents=True)
    rc = main(["flc", "sweep", "--spec", small_spec_file, "--out", str(out)])
    _assert_write_error(rc, out, blocked, capsys)


@pytest.mark.parametrize("blocked", ["generations_000.csv", "result_000.json"])
def test_ga_write_failure_exits_two(blocked, ga_config_file, tmp_path, capsys):
    out = tmp_path / "o"
    (out / blocked).mkdir(parents=True)
    rc = main(["ga", "--config", ga_config_file, "--fn", "sphere", "--max-gen", "3",
               "--out", str(out), "--jobs", "1"])
    _assert_write_error(rc, out, blocked, capsys)


@pytest.mark.parametrize("blocked, args", [
    ("trace_000.csv", ["--jobs", "1"]),
    ("summary.json", ["--jobs", "1"]),
    ("trace_001.csv", ["--seeds", "1,2", "--jobs", "2"]),  # raised in a worker
])
def test_track_write_failure_exits_two(blocked, args, waypoint_file, tmp_path, capsys):
    out = tmp_path / "o"
    (out / blocked).mkdir(parents=True)
    rc = main(["track", "--path", waypoint_file, "--steps", "50", *args, "--out", str(out)])
    _assert_write_error(rc, out, blocked, capsys)


# ---- rerun and parallel determinism ----


def test_rerun_reproduces_bytes(ga_config_file, tmp_path, capsys):
    out = tmp_path / "orig"
    argv = ["ga", "--config", ga_config_file, "--fn", "step", "--out", str(out)]
    assert main(argv) == 0
    before = _hash_tree(out)
    for name in before:
        (out / name).unlink()
    assert main(["rerun", str(out / "manifest.json")]) == 0
    assert _hash_tree(out) == before


def test_rerun_missing_manifest(tmp_path):
    assert main(["rerun", str(tmp_path / "nope.json")]) == 2


def test_rerun_rejects_manifest_without_argv(tmp_path, capsys):
    doc = tmp_path / "manifest.json"
    doc.write_text(json.dumps({"outputs": []}))
    assert main(["rerun", str(doc)]) == 2
    doc.write_text(json.dumps(["ga", "--fn", "sphere"]))  # not a manifest object
    assert main(["rerun", str(doc)]) == 2
    capsys.readouterr()
    # a manifest that replays a rerun once recursed until RecursionError
    other = tmp_path / "other.json"
    other.write_text(json.dumps({"argv": ["rerun", str(doc)]}))
    for target in (doc, other):  # itself, then a two-manifest cycle
        doc.write_text(json.dumps({"argv": ["rerun", str(target)]}))
        assert main(["rerun", str(doc)]) == 2
        assert capsys.readouterr().err == f"error: {doc}: a manifest cannot replay rerun\n"


def test_rerun_old_tsp_manifest_is_a_usage_error(tsp_config_file, burma_file, tmp_path, capsys):
    # `tsp` was folded into `ga --instance`; its manifests no longer parse.
    doc = tmp_path / "manifest.json"
    doc.write_text(json.dumps({"argv": ["tsp", "--config", tsp_config_file,
                                        "--instance", burma_file,
                                        "--out", str(tmp_path / "o")]}))
    assert main(["rerun", str(doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "invalid choice: 'tsp'" in err
    assert err.count("\n") == 1


def test_parallel_jobs_byte_identical(
    ga_config_file, tsp_config_file, burma_file, waypoint_file, tmp_path
):
    seeds = ["--seeds", "0x1111,0x2222,0x3333,0x4444",
             "--seeds", "0x5555,0x6666,0x7777,0x8888",
             "--seeds", "0x0AAA,0x0BBB,0x0CCC,0x0DDD"]
    for name, argv, jobs in (
        ("rosenbrock", ["ga", "--config", ga_config_file, "--fn", "rosenbrock"] + seeds,
         "3"),
        ("burma14", ["ga", "--config", tsp_config_file, "--instance", burma_file]
         + seeds[:4], "2"),
        ("track", ["track", "--path", waypoint_file, "--noise", "0.05,0.001",
                   "--seeds", "1,2,3"], "3"),
    ):
        serial = tmp_path / f"{name}_serial"
        parallel = tmp_path / f"{name}_parallel"
        assert main(argv + ["--out", str(serial), "--jobs", "1"]) == 0
        assert main(argv + ["--out", str(parallel), "--jobs", jobs]) == 0
        assert _hash_tree(serial) == _hash_tree(parallel), name


class _InlinePool:
    """ProcessPoolExecutor stand-in: records max_workers, runs the calls inline."""

    started: list[int] = []

    def __init__(self, max_workers):
        self.started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.mark.parametrize("affinity, cpu_count, workers", [
    ({0, 1}, 64, [2]),  # affinity mask wins over the machine's CPU count
    (None, 3, [3]),  # no affinity API: os.cpu_count()
    (None, None, []),  # unknown CPU count: one, so no pool at all
])
def test_jobs_clamped_to_usable_cpus(affinity, cpu_count, workers, ga_config_file,
                                     tmp_path, monkeypatch, capsys):
    argv = ["ga", "--config", ga_config_file, "--fn", "sphere"]
    for seed in range(1, 7):
        argv += ["--seeds", f"{seed},{seed + 10},{seed + 20},{seed + 30}"]
    assert main(argv + ["--out", str(tmp_path / "serial"), "--jobs", "1"]) == 0
    serial = capsys.readouterr().out

    monkeypatch.setattr(_InlinePool, "started", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    if affinity is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity)
    monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
    assert main(argv + ["--out", str(tmp_path / "wide"), "--jobs", "64"]) == 0
    assert _InlinePool.started == workers
    assert capsys.readouterr().out == serial
    assert _hash_tree(tmp_path / "serial") == _hash_tree(tmp_path / "wide")


# --jobs 0 and --jobs -3 once ran serially and exited 0
@pytest.mark.parametrize("command", ["ga", "track"])
def test_jobs_below_one_is_a_usage_error(command, ga_config_file, waypoint_file,
                                         tmp_path, capsys):
    out = tmp_path / "o"
    argv = {"ga": ["ga", "--config", ga_config_file, "--fn", "sphere", "--jobs", "0"],
            "track": ["track", "--path", waypoint_file, "--jobs=-3"]}[command]
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "--jobs" in err
    assert not out.exists()


# argparse names a type= hook in the message of a ValueError from it: these
# once printed e.g. `argument --input: invalid _int_list value: 'a'`
@pytest.mark.parametrize("argv", [
    ["flc", "eval", "--spec", "spec.json", "--input", "a"],
    ["ga", "--seeds", "1,2,x,4"],
    ["track", "--seeds", "a"],
    ["track", "--noise", "a"],
    ["track", "--start", "a,b,c"],
    ["ga", "--jobs", "x"],
], ids=["_int_list", "_seed_set", "_seed_list", "_noise_pair", "_pose_triple", "_job_count"])
def test_bad_flag_value_names_no_hook(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"argument {argv[-2]}: expected " in err
    assert re.search(r"\b_\w", err) is None, err


# 200,000 nested arrays once overflowed the JSON decoder's recursion limit
# and escaped as a RecursionError traceback
@pytest.mark.parametrize("command", ["flc validate", "ga", "rerun"])
def test_deeply_nested_json_is_one_error_line(command, tmp_path, capsys):
    deep = "[" * 200_000 + "]" * 200_000
    doc = tmp_path / "deep.json"
    doc.write_text('{"argv": ' + deep + "}" if command == "rerun" else deep)
    argv = {
        "flc validate": ["flc", "validate", "--spec", str(doc)],
        "ga": ["ga", "--config", str(doc), "--fn", "sphere", "--out", str(tmp_path / "o")],
        "rerun": ["rerun", str(doc)],
    }[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {doc}: ") and captured.err.count("\n") == 1
