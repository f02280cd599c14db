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
import json
import logging
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np

from . import __version__, flc, ga, problems, tracksim
from .flcref import (
    infer_real,
    infer_real_batch,
    lift,
    pair_tables_real,
    quantization_bound,
)

log = logging.getLogger("fuzzychip")

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_IO = 2


class CliError(Exception):
    """Carries the exit code; main() prints the message as one line."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _setup_logging() -> None:
    level = os.environ.get("FUZZYCHIP_LOG", "warning").upper()
    logging.basicConfig(
        level=getattr(logging, level, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )


# ---- deterministic file plumbing ----


def _write_chunks(path: str, chunks) -> None:
    """Atomic write of an iterable of str chunks: a reader never observes a
    half-written result, and a write that fails (also inside the iterable)
    leaves no temp file."""
    tmp = path + ".tmp"
    size = 0
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            for chunk in chunks:
                fh.write(chunk)
                size += len(chunk)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    log.info("wrote %s (%d bytes)", path, size)


def _write_text(path: str, text: str) -> None:
    _write_chunks(path, (text,))


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
    """loader(path); a missing, unreadable or malformed file exits 2."""
    try:
        return loader(path)
    except (OSError, ValueError) as exc:
        raise CliError(EXIT_IO, f"{path}: {exc}") from exc


def _require_valid(spec: flc.FlcSpec) -> None:
    report = flc.validate_spec(spec)
    if not report.ok:
        raise CliError(EXIT_INVALID, "; ".join(report.problems))


# ---- flag value parsers (argparse type= hooks; errors exit 2) ----


def _seed_set(text: str) -> tuple[int, ...]:
    parts = [int(p, 0) for p in text.split(",")]
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("expected 4 comma-separated seeds")
    return tuple(parts)


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(p, 0) for p in text.split(","))


def _noise_pair(text: str) -> tuple[float, float]:
    parts = [float(p) for p in text.split(",")]
    if len(parts) != 2 or not all(0 <= p < math.inf for p in parts):
        raise argparse.ArgumentTypeError("expected finite, non-negative sigma_d,sigma_theta")
    return parts[0], parts[1]


def _pose_triple(text: str) -> tuple[float, float, float]:
    parts = [float(p) for p in text.split(",")]
    if (len(parts) != 3 or not all(map(math.isfinite, parts))
            or max(map(abs, parts[:2])) > tracksim.MAX_COORD_MM):
        raise argparse.ArgumentTypeError(
            f"expected finite x,y,theta with |x|, |y| <= {tracksim.MAX_COORD_MM:g} mm")
    return parts[0], parts[1], parts[2]


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


# grid points per batched block of sweep.csv rows; memory grows with the
# block, not with the grid
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


def _sweep_chunks(spec: flc.FlcSpec):
    """sweep.csv text, one chunk per block of grid rows (x0 outer, x1 inner).

    Both models fire from per-input pair tables built once over the sweep
    axis. Fixed degrees never exceed real ones, so a zero real denominator
    implies a zero fixed one at the same point: the fixed check, which runs
    first on each block, decides the error message.
    """
    rspec = lift(spec)
    tables = flc.pair_tables(spec)
    rtables = pair_tables_real(spec, rspec)
    size = 1 << spec.in_bits
    out_scale = 1 << spec.out_bits
    axis = np.arange(size)
    step = SWEEP_BLOCK if spec.n == 1 else max(1, SWEEP_BLOCK // size)
    yield ("x0,fixed_code,real_value,abs_error\n" if spec.n == 1
           else "x0,x1,fixed_code,real_value,abs_error\n")
    for start in range(0, size, step):
        block = axis[start:start + step]
        codes = (block,) if spec.n == 1 else (block[:, None], axis)
        code = flc.infer_batch(spec, [t.at(x) for t, x in zip(tables, codes)]).ravel()
        real = infer_real_batch(rspec, [t.at(x) for t, x in zip(rtables, codes)]).ravel()
        err = np.abs(code.astype(np.float64) / out_scale - real)
        if spec.n == 1:
            prefixes = block.tolist()
        else:
            prefixes = [f"{x0},{x1}" for x0 in block.tolist() for x1 in range(size)]
        yield "".join(
            f"{p},{c},{r:.9f},{e:.3e}\n"
            for p, c, r, e in zip(prefixes, code.tolist(), real.tolist(), err.tolist())
        )


def cmd_flc_sweep(args) -> int:
    spec = _load(args.spec, flc.load_spec)
    _require_valid(spec)
    rows = _sweep_rows(spec)
    out_dir = _prepare_out_dir(args)
    _write_manifest(out_dir, "flc sweep", args.argv, args.spec, None, ["sweep.csv"])
    try:
        _write_chunks(os.path.join(out_dir, "sweep.csv"), _sweep_chunks(spec))
    except flc.DenominatorZero as exc:
        raise CliError(EXIT_INVALID, str(exc)) from exc
    print(f"sweep.csv: {rows} rows")
    return EXIT_OK


# ---- ga ----


def _fan_out(fn, calls: list[tuple], jobs: int) -> list:
    """[fn(*args) for args in calls], in up to `jobs` worker processes.

    fn and its arguments must be picklable. Results come back in call order,
    and the parent writes them, so output bytes do not depend on scheduling.
    """
    jobs = min(jobs, len(calls))
    if jobs <= 1:
        return [fn(*a) for a in calls]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, *zip(*calls)))


def _fitness(cfg: ga.GaConfig, problem: str | problems.TspInstance):
    """The GA fitness of a benchmark name or a TSP instance; ValueError when
    the config's genome width cannot encode it."""
    if isinstance(problem, str):
        return problems.BenchmarkFitness(problem, cfg.score_sz, cfg.genom_lngt)
    return problems.TspFitness(problem, cfg.genom_lngt, cfg.score_sz)


def _ga_payload(cfg: ga.GaConfig, fit, index: int) -> tuple[str, str, str]:
    """One GA run; returns (generations csv, result json, stdout line)."""
    rows = ["generation,best_score,mean_score,best_genome"]

    def observe(gen: int, pop: ga.Population) -> None:
        best = pop.best_index()
        mean = sum(pop.scores) / len(pop.scores)
        rows.append(f"{gen},{pop.scores[best]},{mean:.3f},0x{pop.genomes[best]:X}")

    result = ga.run(cfg, fit, on_generation=observe)
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
    return "\n".join(rows) + "\n", _json_text(doc), line


def cmd_ga(args) -> int:
    problem = args.fn or _load(args.instance, problems.load_tsplib)
    cfg = _load(args.config, ga.load_config)
    if args.max_gen is not None:
        cfg = replace(cfg, max_gen=args.max_gen)
    cfgs = [replace(cfg, seeds=s) for s in args.seeds] if args.seeds else [cfg]
    for run_cfg in cfgs:
        found = run_cfg.problems()
        if found:
            raise CliError(EXIT_INVALID, "; ".join(found))
    try:
        fit = _fitness(cfg, problem)
    except ValueError as exc:
        raise CliError(EXIT_INVALID, str(exc)) from exc

    out_dir = _prepare_out_dir(args)
    outputs = []
    for i in range(len(cfgs)):
        outputs += [f"generations_{i:03d}.csv", f"result_{i:03d}.json"]
    _write_manifest(out_dir, "ga", args.argv, args.config,
                    [list(c.seeds) for c in cfgs], outputs)

    payloads = _fan_out(_ga_payload, [(c, fit, i) for i, c in enumerate(cfgs)], args.jobs)
    for i, (gen_csv, result_json, line) in enumerate(payloads):
        _write_text(os.path.join(out_dir, f"generations_{i:03d}.csv"), gen_csv)
        _write_text(os.path.join(out_dir, f"result_{i:03d}.json"), result_json)
        print(line)
    return EXIT_OK


# ---- track ----

# longest resampled path track accepts, in samples (the sweep's row cap);
# interpolate_path and each nearest-sample search grow with it
TRACK_MAX_SAMPLES = 1 << 20


def _track_payload(waypoints, noise, seed, steps, spacing, start):
    start_pose = tracksim.Pose(*start) if start else None
    trace = tracksim.simulate(waypoints, tracksim.TrackerParams(), start=start_pose,
                              noise=noise, seed=seed, steps=steps, spacing=spacing)
    if not trace.rows:  # start pose already beside the final sample
        return trace.to_csv_text(), {"seed": seed, "rows": 0}
    last = trace.rows[-1]
    summary = {
        "seed": seed,
        "rows": len(trace.rows),
        "final_e_d_mm": round(last.e_d, 6),
        "final_path_distance_mm": round(
            tracksim.path_distance(trace.path, last.pose.x, last.pose.y), 6),
        "max_abs_e_d_mm": round(max(abs(r.e_d) for r in trace.rows), 6),
        "max_abs_kappa": round(max(abs(r.kappa) for r in trace.rows), 9),
    }
    return trace.to_csv_text(), summary


def cmd_track(args) -> int:
    waypoints = _load(args.path, tracksim.load_waypoints)
    if not 0 < args.spacing < math.inf or args.steps <= 0:
        raise CliError(EXIT_INVALID, "--spacing must be finite and positive, --steps positive")
    length = sum(map(math.dist, waypoints, waypoints[1:]))
    if length / args.spacing > TRACK_MAX_SAMPLES:
        raise CliError(EXIT_INVALID, f"--spacing {args.spacing:g} resamples the path to "
                                     f"more than {TRACK_MAX_SAMPLES} samples")

    seeds = list(args.seeds) if args.seeds else [0]
    out_dir = _prepare_out_dir(args)
    outputs = [f"trace_{i:03d}.csv" for i in range(len(seeds))] + ["summary.json"]
    _write_manifest(out_dir, "track", args.argv, None, seeds, outputs)

    calls = [(waypoints, args.noise, s, args.steps, args.spacing, args.start)
             for s in seeds]
    try:
        payloads = _fan_out(_track_payload, calls, args.jobs)
    except ValueError as exc:  # < 2 distinct waypoints, non-positive speed
        raise CliError(EXIT_INVALID, str(exc)) from exc

    summaries = []
    for i, (csv_text, summary) in enumerate(payloads):
        _write_text(os.path.join(out_dir, f"trace_{i:03d}.csv"), csv_text)
        summaries.append(summary)
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


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fuzzychip",
        description="Fixed-point fuzzy inference, hardware-style GA, and "
                    "path-tracking simulation.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_flc = sub.add_parser("flc", help="fuzzy inference engine")
    flc_sub = p_flc.add_subparsers(dest="flc_command", required=True)

    p = flc_sub.add_parser("validate", help="check a spec file")
    p.add_argument("--spec", required=True)
    p.set_defaults(func=cmd_flc_validate)

    p = flc_sub.add_parser("eval", help="evaluate one input vector")
    p.add_argument("--spec", required=True)
    p.add_argument("--input", type=_int_list, help="input codes, e.g. 2048,1024")
    p.set_defaults(func=cmd_flc_eval)

    p = flc_sub.add_parser("timing", help="pipeline latency and sample rate")
    p.add_argument("--spec", required=True)
    p.set_defaults(func=cmd_flc_timing)

    p = flc_sub.add_parser("sweep", help="full input-grid CSV (1 or 2 inputs)")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_flc_sweep)

    p = sub.add_parser("ga", help="GA run on a benchmark or TSP instance")
    p.add_argument("--config", required=True)
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--fn", choices=sorted(problems.BENCHMARKS))
    src.add_argument("--instance")
    p.add_argument("--seeds", type=_seed_set, action="append",
                   help="4 comma-separated seeds; repeat for multiple runs")
    p.add_argument("--max-gen", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_ga)

    p = sub.add_parser("track", help="closed-loop path tracking simulation")
    p.add_argument("--path", required=True, help="waypoint file, 'x y' per line")
    p.add_argument("--noise", type=_noise_pair, default=(0.0, 0.0))
    p.add_argument("--seeds", type=_int_list, help="one run per seed")
    p.add_argument("--steps", type=int, default=20000)
    p.add_argument("--spacing", type=float, default=100.0)
    p.add_argument("--start", type=_pose_triple, default=None,
                   help="x,y,theta start pose (default: path start)")
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("rerun", help="replay a manifest byte-identically")
    p.add_argument("manifest")
    p.set_defaults(func=cmd_rerun)

    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    _setup_logging()
    try:
        args = build_parser().parse_args(argv)
        args.argv = list(argv)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
