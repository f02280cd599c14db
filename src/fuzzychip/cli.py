"""Command-line front end over the inference, GA, TSP, and tracking engines.

Every run is driven entirely by explicit seeds and config files; there is no
ambient entropy, so identical invocations produce identical bytes. Commands
that write files first write a manifest.json capturing the invocation
(version, argv, seeds, planned outputs), then each result file atomically
(temp + rename), so an interrupted run leaves the manifest but no partial
results. `rerun manifest.json` replays the stored argv.

Exit codes: 0 success, 1 validation failure, 2 I/O, parse or usage error
(a bad command line prints one `error:` line, without the usage block). Set
FUZZYCHIP_LOG=debug|info|warning for progress logging on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import math
import os
import sys
from dataclasses import replace
from typing import TYPE_CHECKING, Sequence

from . import __version__, flc
from .flcref import (
    infer_real,
    infer_real_batch,
    lift,
    pair_tables_real,
    quantization_bound,
)

if TYPE_CHECKING:  # the GA modules load only for the ga command
    from . import ga

log = logging.getLogger("fuzzychip")

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_IO = 2


class CliError(Exception):
    """Carries the exit code, also out of a worker process; main() prints
    the message as one line."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code

    def __reduce__(self):
        return type(self), (self.code, str(self))


def _setup_logging() -> None:
    level = os.environ.get("FUZZYCHIP_LOG", "warning").upper()
    logging.basicConfig(
        level=getattr(logging, level, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )


# ---- deterministic file plumbing ----


@contextlib.contextmanager
def _atomic_file(path: str):
    """A text file opened for writing whose content appears at path only
    when the block ends: a reader never observes a half-written result, and
    a write that fails (also inside the block) leaves no temp file. An
    OSError exits 2."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
            size = fh.tell()
        os.replace(tmp, path)
    except OSError as exc:
        raise CliError(EXIT_IO, f"cannot write {path}: {exc}") from exc
    finally:
        if os.path.isfile(tmp):
            os.remove(tmp)
    log.info("wrote %s (%d bytes)", path, size)


def _write_text(path: str, text: str) -> None:
    with _atomic_file(path) as fh:
        fh.write(text)


def _json_text(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _write_manifest(out_dir, command, argv, config, seeds, outputs) -> None:
    doc = {
        "tool_version": __version__,
        "command": command,
        "argv": list(argv),
        "config": config,
        "seeds": seeds,
        "outputs": list(outputs),
    }
    _write_text(os.path.join(out_dir, "manifest.json"), _json_text(doc))


def _prepare_out_dir(args) -> str:
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        raise CliError(EXIT_IO, f"cannot create {args.out}: {exc}") from exc
    return args.out


def _load(path: str, loader):
    """loader(path); a missing, unreadable or malformed file exits 2, also
    one nested too deep for the JSON decoder."""
    try:
        return loader(path)
    except (OSError, ValueError, RecursionError) as exc:
        raise CliError(EXIT_IO, f"{path}: {exc}") from exc


def _require_valid(spec: flc.FlcSpec) -> None:
    report = flc.validate_spec(spec)
    if not report.ok:
        raise CliError(EXIT_INVALID, "; ".join(report.problems))


# ---- flag value parsers (argparse type= hooks; errors exit 2) ----


def _usage(expected: str):
    """Decorates an argparse type= hook: its ValueError, from a malformed
    number or a value out of range, becomes the usage error `expected ...`
    (argparse would print the hook's name in its own message)."""
    def wrap(parse):
        def hook(text: str):
            try:
                return parse(text)
            except ValueError:
                raise argparse.ArgumentTypeError(f"expected {expected}") from None
        return hook
    return wrap


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(p, 0) for p in text.split(","))


@_usage("4 comma-separated integer seeds")
def _seed_set(text: str) -> tuple[int, ...]:
    seeds = _ints(text)
    if len(seeds) != 4:
        raise ValueError(text)
    return seeds


@_usage("comma-separated integer codes")
def _int_list(text: str) -> tuple[int, ...]:
    return _ints(text)


@_usage("comma-separated non-negative integer seeds")
def _seed_list(text: str) -> tuple[int, ...]:
    seeds = _ints(text)
    if min(seeds) < 0:
        raise ValueError(text)
    return seeds


@_usage("a job count of at least 1")
def _job_count(text: str) -> int:
    jobs = int(text)
    if jobs < 1:
        raise ValueError(text)
    return jobs


@_usage("sigma_d,sigma_theta with sigma_d in 0..1 and sigma_theta in 0..pi")
def _noise_pair(text: str) -> tuple[float, float]:
    # sigma_d 1 is an error as large as the distance travelled, sigma_theta
    # pi half a turn; far larger ones overflow the estimated pose
    sigma_d, sigma_theta = map(float, text.split(","))
    if not (0 <= sigma_d <= 1 and 0 <= sigma_theta <= math.pi):
        raise ValueError(text)
    return sigma_d, sigma_theta


def _pose_triple(text: str) -> tuple[float, float, float]:
    from . import tracksim
    try:
        pose = tuple(map(float, text.split(",")))
    except ValueError:
        pose = ()
    if (len(pose) != 3 or not all(map(math.isfinite, pose))
            or max(map(abs, pose[:2])) > tracksim.MAX_COORD_MM):
        raise argparse.ArgumentTypeError(
            f"expected finite x,y,theta with |x|, |y| <= {tracksim.MAX_COORD_MM:g} mm")
    return pose


# ---- flc subcommands ----


def cmd_flc_validate(args) -> int:
    spec = _load(args.spec, flc.load_spec)
    report = flc.validate_spec(spec)
    if report.ok:
        print("ok")
        return EXIT_OK
    for problem in report.problems:
        print(f"problem: {problem}")
    return EXIT_INVALID


def cmd_flc_eval(args) -> int:
    spec = _load(args.spec, flc.load_spec)
    _require_valid(spec)
    if args.input is None:
        raise CliError(EXIT_IO, "flc eval requires --input x0[,x1,...]")
    try:
        out = flc.infer(spec, args.input)
    except (flc.DenominatorZero, ValueError) as exc:
        raise CliError(EXIT_INVALID, str(exc)) from exc
    fixed_value = out.value / (1 << spec.out_bits)
    real = infer_real(lift(spec), [x / (1 << spec.in_bits) for x in args.input])
    print(f"fixed_code={out.value}")
    print(f"fixed_value={fixed_value:.9f}")
    print(f"real_value={real:.9f}")
    print(f"abs_error={abs(fixed_value - real):.3e}")
    print(f"bound={quantization_bound(spec):.3e}")
    return EXIT_OK


def cmd_flc_timing(args) -> int:
    spec = _load(args.spec, flc.load_spec)
    _require_valid(spec)
    report = flc.estimate_timing(spec)
    print(f"stages={spec.stages} clock_ns={spec.clock_ns:g} mode={spec.mode}")
    print(f"latency_ns={report.latency_ns:.3f}")
    print(f"cycles_per_sample={report.cycles_per_sample}")
    print(f"sample_rate_hz={report.sample_rate_hz:.3f}")
    return EXIT_OK


# grid points per batched block of sweep.csv rows; a block's cells grow
# with the block, the per-axis tables of a sweep with the axis
SWEEP_BLOCK = 1 << 12
# largest grid flc sweep accepts, in rows; time and pair tables grow with it
SWEEP_MAX_ROWS = 1 << 20


def _sweep_rows(spec: flc.FlcSpec) -> int:
    """Row count of spec's sweep grid; exit 1 if the grid cannot be swept."""
    if spec.n > 2:
        raise CliError(EXIT_INVALID, f"sweep supports 1 or 2 inputs, spec has {spec.n}")
    rows = (1 << spec.in_bits) ** spec.n
    if rows > SWEEP_MAX_ROWS:
        raise CliError(EXIT_INVALID,
                       f"sweep grid has {rows} rows, more than the {SWEEP_MAX_ROWS} allowed")
    return rows


def _runs(*columns):
    """(run index of each code, first code of each run) for columns indexed
    by code from 0. A run is a stretch of codes whose entries all equal the
    previous code's; a float entry must also keep its sign bit, so neither
    0.0 and -0.0 nor two NaNs merge."""
    import numpy as np
    new = np.arange(len(columns[0])) == 0
    for c in columns:
        new[1:] |= c[1:] != c[:-1]
        if c.dtype == np.float64:  # 0.0 == -0.0
            sign = np.signbit(c)
            new[1:] |= sign[1:] ^ sign[:-1]
    return np.cumsum(new) - 1, np.flatnonzero(new)


def _sweep_chunks(spec: flc.FlcSpec):
    """sweep.csv text, one chunk per block of up to SWEEP_BLOCK grid rows
    (x0 outer, x1 inner): the header, then each block's rows in the cells of
    .cells, byte for byte what per-row f-strings
    (`{x0},{x1},{code},{real:.9f},{err:.3e}`) would write.

    Both models fire from per-input pair tables built once over the sweep
    axis and read nothing else of a code, so the points of one run (_runs)
    of each input share fixed_code, real_value and abs_error. The runs and
    the x cells are built once per sweep, like the tables. A block fires
    and writes one point per run it holds (a run may start in the block
    before), then gathers those cells to its rows unless every code of the
    block starts a run. Fixed degrees never exceed real ones, so a zero
    real denominator implies a zero fixed one at the same point: the fixed
    check, which runs first on the block's points (they hold every entry
    pair the block holds), decides the message.
    """
    import numpy as np
    from .cells import fixed_cells, int_cells, rows_text, sci_cells
    rspec = lift(spec)
    tables = flc.pair_tables(spec)
    rtables = pair_tables_real(spec, rspec)
    # per input: each code's run and the first code of each run
    at, reps = zip(*(_runs(t.left, t.deg_left, t.deg_right, r.left, r.deg_left, r.deg_right)
                     for t, r in zip(tables, rtables)))
    size = 1 << spec.in_bits
    out_scale = 1 << spec.out_bits
    x_cells = int_cells(np.arange(size))
    step = SWEEP_BLOCK if spec.n == 1 else max(1, SWEEP_BLOCK // size)
    yield ("x0,fixed_code,real_value,abs_error\n" if spec.n == 1
           else "x0,x1,fixed_code,real_value,abs_error\n")
    for start in range(0, size, step):
        x0 = x_cells[start:start + step]
        run = at[0][start:start + len(x0)]
        grid = np.ix_(reps[0][run[0]:run[-1] + 1], *reps[1:])
        code = flc.infer_batch(spec, [t.at(x) for t, x in zip(tables, grid)]).ravel()
        real = infer_real_batch(rspec, [t.at(x) for t, x in zip(rtables, grid)]).ravel()
        err = np.abs(code.astype(np.float64) / out_scale - real)
        cells = [int_cells(code), fixed_cells(real, 9), sci_cells(err)]
        rows = run - run[0]
        if spec.n == 2:
            rows = (rows[:, None] * len(reps[1]) + at[1]).ravel()
        if len(code) < len(rows):  # some points of the block share a run
            cells = [c.take(rows, 0) for c in cells]
        xs = [x0] if spec.n == 1 else [np.repeat(x0, size, 0), np.tile(x_cells, (len(x0), 1))]
        yield rows_text([*xs, *cells])


def cmd_flc_sweep(args) -> int:
    spec = _load(args.spec, flc.load_spec)
    _require_valid(spec)
    rows = _sweep_rows(spec)
    out_dir = _prepare_out_dir(args)
    _write_manifest(out_dir, "flc sweep", args.argv, args.spec, None, ["sweep.csv"])
    try:
        with _atomic_file(os.path.join(out_dir, "sweep.csv")) as fh:
            fh.writelines(_sweep_chunks(spec))
    except flc.DenominatorZero as exc:
        raise CliError(EXIT_INVALID, str(exc)) from exc
    print(f"sweep.csv: {rows} rows")
    return EXIT_OK


# ---- ga ----


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fan_out(fn, calls: list[tuple], jobs: int) -> list:
    """[fn(*args) for args in calls], in up to `jobs` worker processes, never
    more than there are calls or usable CPUs.

    fn and its arguments must be picklable. Each call writes its own result
    files atomically and returns what the parent prints or gathers, in call
    order, so output bytes do not depend on scheduling.
    """
    jobs = min(jobs, len(calls), _usable_cpus())
    if jobs <= 1:
        return [fn(*a) for a in calls]
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, *zip(*calls)))


GA_LOG_BLOCK = 1 << 10  # generations_NNN.csv rows per write


def _ga_payload(cfg: ga.GaConfig, fit, index: int, out_dir: str) -> str:
    """One GA run; writes generations_NNN.csv and result_NNN.json into
    out_dir and returns the stdout line. The log streams to its temp file
    in blocks of GA_LOG_BLOCK rows, so memory does not grow with max_gen."""
    from . import ga, problems
    with _atomic_file(os.path.join(out_dir, f"generations_{index:03d}.csv")) as fh:
        rows = ["generation,best_score,mean_score,best_genome\n"]

        def observe(gen: int, pop: ga.Population) -> None:
            best = pop.best_index()
            mean = sum(pop.scores) / len(pop.scores)
            rows.append(f"{gen},{pop.scores[best]},{mean:.3f},0x{pop.genomes[best]:X}\n")
            if len(rows) == GA_LOG_BLOCK:
                fh.writelines(rows)
                rows.clear()

        result = ga.run(cfg, fit, on_generation=observe)
        fh.writelines(rows)
    doc = {
        "best_genome": f"0x{result.best_genome:X}",
        "best_score": result.best_score,
        "generations_run": result.generations_run,
        "stop_reason": result.stop_reason,
        "seeds": list(cfg.seeds),
    }
    if isinstance(fit, problems.BenchmarkFitness):
        x1, x2 = fit.decode(result.best_genome)
        doc["fn"] = fit.name
        doc["best_x"] = [round(x1, 9), round(x2, 9)]
        doc["best_f"] = round(float(problems.BENCHMARKS[fit.name][0](x1, x2)), 9)
        line = (f"run {index:03d}: best_f={doc['best_f']:g} "
                f"score={result.best_score} stop={result.stop_reason}")
    else:
        tour = fit.decode(result.best_genome)
        doc["instance"] = fit.inst.name
        doc["dimension"] = fit.inst.dimension
        doc["tour"] = list(tour)
        doc["tour_length"] = problems.tour_length(fit.inst, tour)
        line = (f"run {index:03d}: length={doc['tour_length']} "
                f"tour={'-'.join(str(c) for c in tour)} stop={result.stop_reason}")
    _write_text(os.path.join(out_dir, f"result_{index:03d}.json"), _json_text(doc))
    return line


def cmd_ga(args) -> int:
    from . import ga, problems
    problem = args.fn or _load(args.instance, problems.load_tsplib)
    cfg = _load(args.config, ga.load_config)
    if args.max_gen is not None:
        cfg = replace(cfg, max_gen=args.max_gen)
    cfgs = [replace(cfg, seeds=s) for s in args.seeds] if args.seeds else [cfg]
    for run_cfg in cfgs:
        found = run_cfg.problems()
        if found:
            raise CliError(EXIT_INVALID, "; ".join(found))
    # a TSP fitness call grows with the dimension; GA_MAX_CHILDREN was timed on burma14's 14
    limit = ga.GA_MAX_CHILDREN * 14
    if args.instance and cfg.pop_sz * cfg.max_gen * problem.dimension > limit:
        raise CliError(EXIT_INVALID, f"pop_sz {cfg.pop_sz} times max_gen {cfg.max_gen} times "
                                     f"dimension {problem.dimension} is more than {limit}")
    try:  # ValueError: the genome width cannot encode the problem
        fit = (problems.BenchmarkFitness(problem, cfg.score_sz, cfg.genom_lngt) if args.fn
               else problems.TspFitness(problem, cfg.genom_lngt, cfg.score_sz))
    except ValueError as exc:
        raise CliError(EXIT_INVALID, str(exc)) from exc

    out_dir = _prepare_out_dir(args)
    outputs = []
    for i in range(len(cfgs)):
        outputs += [f"generations_{i:03d}.csv", f"result_{i:03d}.json"]
    _write_manifest(out_dir, "ga", args.argv, args.config,
                    [list(c.seeds) for c in cfgs], outputs)

    calls = [(c, fit, i, out_dir) for i, c in enumerate(cfgs)]
    print("\n".join(_fan_out(_ga_payload, calls, args.jobs)))
    return EXIT_OK


# ---- track ----

# longest resampled path track accepts, in samples (the sweep's row cap);
# interpolate_path and each nearest-sample search grow with it
TRACK_MAX_SAMPLES = 1 << 20
# largest --steps track accepts: 2.4 times the 7M 15-mm steps along the longest
# path (2^20 samples of 100 mm); 6 minutes at 20 us a step on the S course
TRACK_MAX_STEPS = 1 << 24
# largest --steps times resampled samples: a step whose search certificate fails
# scans the whole path (4.9 ms at 2^20 samples), as all do from a far start, so
# this keeps a run to minutes: 2.7 for 2^15 steps of 2^20 samples, 7 for 2^24 of 2^11
TRACK_MAX_WORK = 1 << 35


def _track_payload(path, noise, seed, steps, start, out_path) -> dict:
    """One seed's run: streams its trace to out_path in tracksim's blocks of
    NOISE_BLOCK rows and returns its summary.json entry, folded per block."""
    import numpy as np
    from . import tracksim
    start_pose = tracksim.Pose(*start) if start else None
    rows = tracksim.trace_rows(path, tracksim.TrackerParams(), start_pose, noise, seed, steps)
    x, y, e_d, kappa = map(tracksim.TRACE_HEADER.split(",").index, ("x", "y", "e_d", "kappa"))
    summary = {"seed": seed, "rows": 0}
    max_e_d = max_kappa = 0.0
    with _atomic_file(out_path) as fh:
        fh.write(tracksim.TRACE_HEADER + "\n")
        for block, text in tracksim.trace_blocks(rows):
            fh.write(text)
            summary["rows"] += len(block)
            max_e_d = max(max_e_d, np.abs(block[:, e_d]).max())
            max_kappa = max(max_kappa, float(np.abs(block[:, kappa]).max()))
            last = block[-1]
    if summary["rows"]:  # else the start pose is already beside the final sample
        # e_d rounds as the numpy float64 the trace rows carry, kappa as a float
        summary.update(
            final_e_d_mm=round(last[e_d], 6),
            final_path_distance_mm=round(tracksim.path_distance(path, last[x], last[y]), 6),
            max_abs_e_d_mm=round(np.float64(max_e_d), 6),
            max_abs_kappa=round(max_kappa, 9))
    return summary


def cmd_track(args) -> int:
    from . import tracksim
    waypoints = _load(args.path, tracksim.load_waypoints)
    if not 0 < args.spacing < math.inf or not 0 < args.steps <= TRACK_MAX_STEPS:
        raise CliError(EXIT_INVALID, "--spacing must be finite and positive, "
                                     f"--steps 1 to {TRACK_MAX_STEPS}")
    length = sum(map(math.dist, waypoints, waypoints[1:]))
    if length / args.spacing > TRACK_MAX_SAMPLES:
        raise CliError(EXIT_INVALID, f"--spacing {args.spacing:g} resamples the path to "
                                     f"more than {TRACK_MAX_SAMPLES} samples")
    try:
        path = tracksim.interpolate_path(waypoints, args.spacing)
    except ValueError as exc:  # fewer than two distinct waypoints
        raise CliError(EXIT_INVALID, f"{args.path}: {exc}") from exc
    if args.steps * len(path) > TRACK_MAX_WORK:
        raise CliError(EXIT_INVALID, f"--steps {args.steps} on {len(path)} path samples is "
                                     f"more than {TRACK_MAX_WORK} steps times samples")

    seeds = list(args.seeds) if args.seeds else [0]
    out_dir = _prepare_out_dir(args)
    outputs = [f"trace_{i:03d}.csv" for i in range(len(seeds))] + ["summary.json"]
    _write_manifest(out_dir, "track", args.argv, None, seeds, outputs)

    calls = [(path, args.noise, s, args.steps, args.start, os.path.join(out_dir, name))
             for s, name in zip(seeds, outputs)]
    summaries = _fan_out(_track_payload, calls, args.jobs)
    for summary in summaries:
        dist = summary.get("final_path_distance_mm")
        print(f"seed {summary['seed']}: rows={summary['rows']} "
              f"final_path_distance={'n/a' if dist is None else f'{dist:.3f}mm'}")
    _write_text(os.path.join(out_dir, "summary.json"), _json_text(summaries))
    return EXIT_OK


# ---- rerun ----


def _manifest_argv(path: str) -> list[str]:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    argv = doc.get("argv") if isinstance(doc, dict) else None
    if not isinstance(argv, list) or not argv:
        raise ValueError("no argv recorded")
    if argv[0] == "rerun":  # a manifest that replays a manifest may replay itself
        raise ValueError("a manifest cannot replay rerun")
    return [str(a) for a in argv]


def cmd_rerun(args) -> int:
    argv = _load(args.manifest, _manifest_argv)
    log.info("replaying: %s", " ".join(argv))
    return main(argv)


# ---- parser wiring ----


class _Parser(argparse.ArgumentParser):
    """Usage errors become CliError (exit 2) instead of SystemExit; the
    subcommand parsers inherit this class. --help and --version still exit."""

    def error(self, message: str):
        raise CliError(EXIT_IO, f"{self.prog}: {message}")


def _add_arguments(p: argparse.ArgumentParser, command: str) -> None:
    """Adds the flags of a leaf command (`flc eval`, `ga`, ...) to its parser."""
    if command == "ga":
        from . import problems
        p.add_argument("--config", required=True)
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--fn", choices=sorted(problems.BENCHMARKS))
        src.add_argument("--instance")
        p.add_argument("--seeds", type=_seed_set, action="append",
                       help="4 comma-separated seeds; repeat for multiple runs")
        p.add_argument("--max-gen", type=int, default=None)
    elif command == "track":
        p.add_argument("--path", required=True, help="waypoint file, 'x y' per line")
        p.add_argument("--noise", type=_noise_pair, default=(0.0, 0.0))
        p.add_argument("--seeds", type=_seed_list, help="one run per seed")
        p.add_argument("--steps", type=int, default=20000)
        p.add_argument("--spacing", type=float, default=100.0)
        p.add_argument("--start", type=_pose_triple, default=None,
                       help="x,y,theta start pose (default: path start)")
    elif command == "rerun":
        p.add_argument("manifest")
    else:  # flc <sub>
        p.add_argument("--spec", required=True)
    if command == "flc eval":
        p.add_argument("--input", type=_int_list, help="input codes, e.g. 2048,1024")
    if command in ("flc sweep", "ga", "track"):
        p.add_argument("--out", required=True)
    if command in ("ga", "track"):
        p.add_argument("--jobs", type=_job_count, default=1)


# word -> (help, function or subcommand table); builds the full and the pruned tree
_COMMANDS = {
    "flc": ("fuzzy inference engine", {
        "validate": ("check a spec file", cmd_flc_validate),
        "eval": ("evaluate one input vector", cmd_flc_eval),
        "timing": ("pipeline latency and sample rate", cmd_flc_timing),
        "sweep": ("full input-grid CSV (1 or 2 inputs)", cmd_flc_sweep),
    }),
    "ga": ("GA run on a benchmark or TSP instance", cmd_ga),
    "track": ("closed-loop path tracking simulation", cmd_track),
    "rerun": ("replay a manifest byte-identically", cmd_rerun),
}


def _add_commands(parser, table: dict, argv: Sequence[str], path: tuple = (),
                  fill: bool = True) -> None:
    """Adds table's commands to parser: only the one argv[0] names, narrowed
    below by argv[1:] alike, or else all of them; with fill false, bare."""
    sub = parser.add_subparsers(dest="_".join((*path, "command")), required=True)
    named = bool(argv) and argv[0] in table
    for name in argv[:1] if named else table:
        help_text, target = table[name]
        p = sub.add_parser(name, help=help_text)
        if fill and isinstance(target, dict):
            _add_commands(p, target, argv[1:] if named else (), (*path, name))
        elif fill:
            _add_arguments(p, " ".join((*path, name)))
            p.set_defaults(func=target)


def build_parser(argv: Sequence[str] = ()) -> argparse.ArgumentParser:
    """The root parser and the parsers of the command argv names (`flc eval`
    builds root, flc and eval); a word that names no command builds its level
    and all below in full, so help and usage errors read as with the full tree."""
    parser = _Parser(
        prog="fuzzychip",
        description="Fixed-point fuzzy inference, hardware-style GA, and "
                    "path-tracking simulation.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    # --help and --version exit before any command is entered: list them bare
    exits = bool(argv) and argv[0] in ("-h", "--help", "--version")
    _add_commands(parser, _COMMANDS, argv, fill=not exits)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    _setup_logging()
    try:
        args = build_parser(argv).parse_args(argv)
        args.argv = list(argv)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
