"""Fuzzing of the TSPLIB and GA-config loaders through `cli.main`.

Inputs are hypothesis mutations of the bundled burma14 text and of a valid
GA config. Whatever the input, `ga` exits 0, 1 or 2, a nonzero exit prints
exactly one `error:` line on stderr, and no exception escapes. Every run is
capped at two generations, so valid inputs finish quickly.
"""

import contextlib
import io
import json
from importlib import resources

from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzychip import ga
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


def _run_ga(args) -> tuple[int, str]:
    """(exit code, stderr) of one in-process `ga` run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["ga", "--max-gen", "2", *args])
    return rc, err.getvalue()


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
