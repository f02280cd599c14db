"""Fuzzing of the TSPLIB, GA-config, spec and waypoint loaders through
`cli.main`.

Inputs are hypothesis mutations of the bundled burma14 text, of a valid GA
config, of a small valid controller spec and of a waypoint file. Whatever
the input, the command exits 0, 1 or 2, a nonzero exit prints exactly one
`error:` line on stderr (`flc validate` instead lists its problems on
stdout), and no exception escapes. GA runs are capped at two generations
and tracker runs at five steps, so valid inputs finish quickly.
"""

import contextlib
import io
import json
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzychip import flc, ga, tracksim
from fuzzychip.cli import main

BURMA14 = resources.files("fuzzychip.data").joinpath("burma14.tsp").read_text()
BURMA_LINES = BURMA14.splitlines()
COORD_ROWS = range(BURMA_LINES.index("NODE_COORD_SECTION") + 1, BURMA_LINES.index("EOF"))

NUMBERS = ("nan", "inf", "-inf", "1e400", "-1e400", "1e308", "-1e308", "0", "-1",
           "x", "")
DIMENSIONS = ("0", "-1", "3", "13", "15", "100000000000", "-100000000000",
              "9" * 400, "nan", "")
EDGE_TYPES = ("EUC_2D", "GEO", "ATT", "")
JSON_VALUES = (10**6, 10**30, 2**64, -1, 0, 33, 4097, None, True, 0.5, float("inf"),
               float("nan"), "x", "16", "", [], [1, 2], ["single_bit"], {})


def _run(argv) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def _run_ga(args) -> tuple[int, str]:
    """(exit code, stderr) of one in-process `ga` run."""
    rc, _, err = _run(["ga", "--max-gen", "2", *args])
    return rc, err


def _check_exit(rc: int, err: str) -> None:
    assert rc in (0, 1, 2)
    if rc:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    else:
        assert err == ""


_set_key = st.one_of(
    st.tuples(st.just("key"), st.just("DIMENSION"), st.sampled_from(DIMENSIONS)),
    st.tuples(st.just("key"), st.just("EDGE_WEIGHT_TYPE"), st.sampled_from(EDGE_TYPES)))
_set_coord = st.tuples(st.just("coord"), st.sampled_from(COORD_ROWS),
                       st.tuples(st.integers(1, 2), st.sampled_from(NUMBERS)))
_drop_line = st.tuples(st.just("drop"), st.integers(0, len(BURMA_LINES) - 1), st.none())
_copy_line = st.tuples(st.just("copy"), st.integers(0, len(BURMA_LINES) - 1), st.none())


def _mutate_tsplib(edits) -> str:
    lines = list(BURMA_LINES)
    for kind, where, what in edits:
        if kind == "key":
            lines = [f"{where}: {what}" if line.startswith(where + ":") else line
                     for line in lines]
        elif kind == "coord" and where < len(lines):
            fields = lines[where].split() or ["1", "0", "0"]
            field, token = what
            fields[min(field, len(fields) - 1)] = token
            lines[where] = " ".join(fields)
        elif kind == "drop" and where < len(lines):
            del lines[where]
        elif kind == "copy" and where < len(lines):
            lines.insert(where, lines[where])
    return "\n".join(lines) + "\n"


@settings(max_examples=150)
@given(edits=st.lists(st.one_of(_set_key, _set_coord, _drop_line, _copy_line),
                      min_size=1, max_size=4))
def test_fuzz_tsplib_loader(edits, tmp_path_factory):
    tmp = tmp_path_factory.getbasetemp()
    config, instance = tmp / "tsp_fuzz.json", tmp / "fuzz.tsp"
    ga.dump_config(ga.GaConfig(genom_lngt=40), config)
    instance.write_text(_mutate_tsplib(edits))
    _check_exit(*_run_ga(["--config", str(config), "--instance", str(instance),
                          "--out", str(tmp / "tsp_fuzz_out")]))


@settings(max_examples=150)
@given(
    fields=st.dictionaries(
        st.sampled_from(tuple(ga.config_to_dict(ga.GaConfig())) + ("unknown",)),
        st.sampled_from(JSON_VALUES), min_size=1, max_size=3),
    tour=st.booleans(),
)
def test_fuzz_ga_config_loader(fields, tour, tmp_path_factory):
    tmp = tmp_path_factory.getbasetemp()
    base = ga.config_to_dict(ga.GaConfig(genom_lngt=40 if tour else 16))
    config = tmp / "ga_fuzz.json"
    config.write_text(json.dumps(base | fields))
    instance = tmp / "burma14_fuzz.tsp"
    instance.write_text(BURMA14)
    problem = ["--instance", str(instance)] if tour else ["--fn", "sphere"]
    _check_exit(*_run_ga(["--config", str(config), *problem,
                          "--out", str(tmp / "ga_fuzz_out")]))


# ---- controller specs ----

SPEC_BASE = flc.spec_to_dict(flc.FlcSpec(
    in_bits=6, out_bits=8, alpha_bits=6, cons_bits=6,
    partitions=(flc.uniform_partition(6, 3),) * 2,
    singletons=tuple(range(0, 63, 7)), stages=4, clock_ns=10.0))
SPEC_VALUES = JSON_VALUES + (1, 2, 6, 32, 5e-324, 1e308, -1e308, "prod", "odd_even",
                             [[0, 0, 0, 63]], [[[0, 0, 0, 63]]])
INPUTS = ("0,0", "63,63", "31,7", "64,0", "-1,5", "5", "1,2,3", "0,99999999999")

_set_field = st.tuples(st.just("field"), st.sampled_from(tuple(SPEC_BASE) + ("unknown",)),
                       st.sampled_from(SPEC_VALUES))
_drop_field = st.tuples(st.just("drop"), st.sampled_from(tuple(SPEC_BASE)), st.none())
_set_mf = st.tuples(st.just("mf"), st.tuples(st.integers(0, 2), st.integers(0, 3),
                                            st.integers(0, 3)),
                    st.sampled_from((0, 1, 31, 32, 62, 63, 64, -1, 2**40, 1.5, "x", None)))
_set_singleton = st.tuples(st.just("singleton"), st.integers(0, 9),
                           st.sampled_from((0, 63, 64, -1, 2**64, 0.5, "1", None)))


def _mutate_spec(edits) -> dict:
    doc = json.loads(json.dumps(SPEC_BASE))
    for kind, where, what in edits:
        if kind == "field":
            doc[where] = what
        elif kind == "drop":
            doc.pop(where, None)
        elif kind == "mf":
            part, mf, corner = where
            try:
                doc["partitions"][part][mf][corner] = what
            except (KeyError, IndexError, TypeError):
                pass
        elif kind == "singleton":
            try:
                doc["singletons"][where] = what
            except (KeyError, IndexError, TypeError):
                pass
    return doc


def _check_validate(rc: int, out: str, err: str) -> None:
    if rc == 1 and not err:  # flc validate lists what it found
        lines = out.splitlines()
        assert lines and all(line.startswith("problem: ") for line in lines), out
    else:
        _check_exit(rc, err)


@pytest.mark.filterwarnings("error")  # a numpy warning is a defect, not noise
@settings(max_examples=200)
@given(edits=st.lists(st.one_of(_set_field, _drop_field, _set_mf, _set_singleton),
                      min_size=1, max_size=4),
       point=st.sampled_from(INPUTS))
def test_fuzz_spec_loader(edits, point, tmp_path_factory):
    spec = tmp_path_factory.getbasetemp() / "spec_fuzz.json"
    spec.write_text(json.dumps(_mutate_spec(edits)))
    _check_validate(*_run(["flc", "validate", "--spec", str(spec)]))
    rc, _, err = _run(["flc", "eval", "--spec", str(spec), "--input", point])
    _check_exit(rc, err)


# ---- waypoint files ----

WAYPOINT_LINES = [f"{x:.3f} {y:.3f}" for x, y in tracksim.s_curve_waypoints()]
WAYPOINT_TOKENS = NUMBERS + ("1e300", "-1e300", "5e-324", "0x10", "1_000", "# c")


def _mutate_waypoints(edits) -> str:
    lines = list(WAYPOINT_LINES)
    for kind, where, what in edits:
        if not lines:
            break
        where %= len(lines)
        if kind == "coord":
            fields = lines[where].split() or ["0", "0"]
            field, token = what
            fields[min(field, len(fields) - 1)] = token
            lines[where] = " ".join(fields)
        elif kind == "drop":
            del lines[where:where + what]
        elif kind == "copy":
            lines.insert(where, lines[where])
        elif kind == "line":
            lines.insert(where, what)
    return "\n".join(lines) + "\n"


_wp_coord = st.tuples(st.just("coord"), st.integers(0, 10**6),
                      st.tuples(st.integers(0, 2), st.sampled_from(WAYPOINT_TOKENS)))
_wp_drop = st.tuples(st.just("drop"), st.integers(0, 10**6),
                     st.sampled_from((1, 10, len(WAYPOINT_LINES))))
_wp_copy = st.tuples(st.just("copy"), st.integers(0, 10**6), st.none())
_wp_line = st.tuples(st.just("line"), st.integers(0, 10**6),
                     st.sampled_from(("", "#", "1", "1 2 3", "x y", "\t", "0 0", "1e308 1e308")))


def _reject_constant(name):
    raise ValueError(f"summary.json holds {name}")


@pytest.mark.filterwarnings("error")  # a numpy warning is a defect, not noise
@settings(max_examples=150)
@given(edits=st.lists(st.one_of(_wp_coord, _wp_drop, _wp_copy, _wp_line),
                      min_size=1, max_size=4),
       spacing=st.sampled_from(("100", "0.5", "1e-300", "1e300")),
       start=st.sampled_from(((), ("--start", "0,0,0"), ("--start", "1e300,0,0"),
                              ("--start", "-1e10,5,1"))))
def test_fuzz_waypoint_loader(edits, spacing, start, tmp_path_factory):
    tmp = tmp_path_factory.getbasetemp()
    path = tmp / "waypoints_fuzz.txt"
    path.write_text(_mutate_waypoints(edits))
    out = tmp / "track_fuzz_out"
    rc, _, err = _run(["track", "--path", str(path), "--steps", "5", "--spacing", spacing,
                       *start, "--out", str(out)])
    _check_exit(rc, err)
    if rc == 0:  # strict JSON: no NaN or Infinity
        json.loads((out / "summary.json").read_text(), parse_constant=_reject_constant)
