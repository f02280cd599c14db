import hashlib
import itertools
import json
import random
import subprocess
import sys

import pytest

from conftest import random_knot_spec
from fuzzychip import __version__, cli, flc, flcref, ga, problems
from fuzzychip.cli import SWEEP_MAX_ROWS, CliError, _sweep_rows, main
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
    )
    assert out.returncode == 0
    assert out.stdout.strip() == __version__


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
    for text in ("[]", "null", '{"pop_sz": 1e999}'):  # JSON, not a config
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
    ("clock_ns", "inf", "clock_ns=inf must be positive and finite"),  # once latency_ns=inf
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
# negative sigma surfaced numpy's "scale < 0"
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


def test_rerun_rejects_manifest_without_argv(tmp_path):
    doc = tmp_path / "manifest.json"
    doc.write_text(json.dumps({"outputs": []}))
    assert main(["rerun", str(doc)]) == 2
    doc.write_text(json.dumps(["ga", "--fn", "sphere"]))  # not a manifest object
    assert main(["rerun", str(doc)]) == 2


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
