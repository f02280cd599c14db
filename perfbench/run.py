"""fuzzychip benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1
                             [--out FILE] [--record-digests]

Each operation is one in-process call of fuzzychip.cli.main(argv). With
--trace 0 the run measures set-up in fresh interpreters, then runs
operations until their summed wall time reaches --seconds, then checks every
output against the package's oracles. With --trace 1 it runs operations
untraced for half of --seconds, then replays the same operations with every
layer function wrapped (see spans.py) and reports per-layer counts and self
times. With --workload all each workload runs in a child process of its
own. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; the lines before it name
every metric with its unit. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from array import array
from dataclasses import dataclass, field
from pathlib import Path

from env import WORK, WORKLOAD_NAMES, BenchError, bootstrap, environment
from hostspeed import REF_NOMINAL_S, Sampler

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
TRACES = HERE / "traces"
DEFAULT_SEED = 1
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
CHILD_TIMEOUT_S = 900
DIGEST_BYTES = 32


@dataclass
class Pass:
    """Timed operations of one pass, in order. Per operation it keeps a few
    numbers and a raw digest, about 60 bytes, so peak_rss_mb barely depends
    on how many operations a pass runs."""

    starts: array = field(default_factory=lambda: array("d"))
    ends: array = field(default_factory=lambda: array("d"))
    units: array = field(default_factory=lambda: array("q"))
    digests: bytearray = field(default_factory=bytearray)
    scores: array = field(default_factory=lambda: array("d"))  # operations that have one
    problems: dict[int, list[str]] = field(default_factory=dict)  # failed operations only
    times: list[float] = field(default_factory=list)  # wall, set by finish()
    norm_times: list[float] = field(default_factory=list)  # set by finish()
    wall: float = 0.0

    def add(self, t0: float, t1: float, outcome, problems: list[str]) -> None:
        self.starts.append(t0)
        self.ends.append(t1)
        self.units.append(outcome.units if outcome else 0)
        self.digests += bytes.fromhex(outcome.digest) if outcome else bytes(DIGEST_BYTES)
        if outcome is not None and outcome.score is not None:
            self.scores.append(outcome.score)
        if problems:
            self.problems[len(self.starts) - 1] = problems

    @property
    def ops(self) -> int:
        return len(self.starts)

    def digest(self, i: int) -> str:
        return self.digests[i * DIGEST_BYTES:(i + 1) * DIGEST_BYTES].hex()

    def finish(self, sampler=None) -> None:
        """Operation times without the sampler's own time, wall and
        normalised to the nominal host speed (see hostspeed.py)."""
        adjusted = [sampler.adjust(t0, t1) if sampler else (t1 - t0, t1 - t0)
                    for t0, t1 in zip(self.starts, self.ends)]
        self.times = [w for w, _ in adjusted]
        self.norm_times = [n for _, n in adjusted]


def run_op(argv: list[str]) -> tuple[float, float, object, str, str]:
    """(start, end, exit code, stdout, stderr) of one cli.main call."""
    import fuzzychip.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = fuzzychip.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
        except Exception:  # noqa: BLE001  (a crash is a failed operation)
            code = "exception"
            traceback.print_exc()
        t1 = time.perf_counter()
    return t0, t1, code, out.getvalue(), err.getvalue()


def run_pass(wl, seconds: float | None = None, n_ops: int | None = None,
             tracer=None, check: bool = True) -> Pass:
    """Operations 0, 1, ... until n_ops ran, or until their summed wall time
    reaches `seconds` and the digested leading operations all ran. Each
    operation's outputs are read and, with `check`, put to the oracles
    right after it, outside its timed interval."""
    if tracer is None:
        prepare = run = collect = contextlib.nullcontext
    else:
        ids = [tracer.span_id(n) for n in ("bench.prepare", "bench.run", "bench.collect")]
        prepare, run, collect = (lambda fid=fid: tracer.span(fid) for fid in ids)
    p = Pass()
    start = time.perf_counter()
    busy = 0.0
    i = 0
    while (i < n_ops) if n_ops is not None else (busy < seconds or i < wl.digest_ops):
        with prepare():
            op = wl.op(i)
        with run():
            t0, t1, code, stdout, stderr = run_op(op.argv)
        with collect():
            outcome, problems = None, []
            if code != 0:
                problems.append(f"exit {code}: {stderr.strip()[-400:]}")
            else:
                try:
                    outcome = wl.collect(op, stdout)
                except (OSError, ValueError, KeyError) as exc:
                    problems.append(f"unreadable output: {exc!r}")
            if outcome is not None and check:
                problems += [f"oracle: {m}" for m in wl.check(op, outcome.record)]
        p.add(t0, t1, outcome, problems)
        busy += t1 - t0
        i += 1
    p.wall = time.perf_counter() - start
    return p


def gate(wl, p: Pass, record_digests: bool) -> tuple[str, Pass | None]:
    """Bit-exactness gate, outside every timed interval: the digests of the
    DEFAULT_SEED workload's leading operations against digests.json (or
    into it, with record_digests). At that seed they are p's own leading
    operations; at any other seed they are replayed here, so the gate holds
    whatever --seed is. Problems go to the pass that ran the operations.
    Returns the output digest over them and the replay pass, if any."""
    from workloads import WORKLOADS

    if wl.seed == DEFAULT_SEED:
        ref, replay = p, None
    else:
        ref_wl = WORKLOADS[wl.name](DEFAULT_SEED, wl.work / "gate")
        ref_wl.work.mkdir()
        ref_wl.setup_files()
        ref = replay = run_pass(ref_wl, n_ops=ref_wl.digest_ops)
    lead = [ref.digest(i) for i in range(wl.digest_ops)]
    recorded = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    if record_digests:
        recorded.setdefault(str(DEFAULT_SEED), {})[wl.name] = lead
        DIGESTS.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    else:
        want = recorded.get(str(DEFAULT_SEED), {}).get(wl.name)
        if want is None or len(want) != len(lead):
            ref.problems.setdefault(0, []).append(
                f"no {len(lead)} digests recorded for seed {DEFAULT_SEED} in {DIGESTS.name}")
        else:
            for i, (got, w) in enumerate(zip(lead, want)):
                if got != w:
                    ref.problems.setdefault(i, []).append(
                        f"digest {got[:12]} differs from recorded {w[:12]}")
    final = wl.final_check()
    if final:
        p.problems.setdefault(0, []).extend(f"oracle: {m}" for m in final)
    return hashlib.sha256("".join(lead).encode()).hexdigest(), replay


def probe_setup(name: str, seed: int, work: Path) -> tuple[float, float]:
    """import + warm-up operation seconds in a fresh interpreter, wall and
    normalised to the nominal host speed."""
    work.mkdir(parents=True)
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), name, str(seed), str(work)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    if doc["exit"] != 0:
        raise BenchError(f"set-up warm-up operation exited {doc['exit']}")
    return doc["setup_s"], doc["setup_s"] * REF_NOMINAL_S / doc["ref_s"]


def unit_median_ms(times: list[float], units: list[int]) -> float:
    """Median over work units of milliseconds per unit, each unit charged
    its operation's mean: a 63-generation search, whose fixed costs weigh
    more per generation, counts 63 times, an 8000-generation one 8000."""
    costs = sorted((1000.0 * t / u, u) for t, u in zip(times, units) if u)
    half, seen = sum(u for _, u in costs) / 2.0, 0
    for cost, u in costs:
        seen += u
        if seen >= half:
            return cost
    return 0.0


def tail_ms(values: list[float]) -> tuple[float, float, int] | None:
    """(value, percentile, samples): the highest percentile with at least
    ten samples beyond it."""
    xs = sorted(values)
    for pct in (99.9, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0):
        k = math.ceil(pct / 100.0 * len(xs))
        if len(xs) - k >= 10:
            return xs[k - 1], pct, len(xs)
    return None


@dataclass
class Result:
    workload: str
    metrics: dict[str, tuple[float, str]]  # reported in the JSON line
    extra: dict[str, tuple[float, str]]  # printed only
    attempted: int
    failed: int
    problems: list[str]
    output_digest: str


def _failures(p: Pass | None, label: str = "op") -> tuple[int, list[str]]:
    if p is None:
        return 0, []
    return len(p.problems), [f"{label} {i}: {m}" for i, ms in sorted(p.problems.items())
                             for m in ms]


def warm_up(wl) -> None:
    """One untimed operation, so first-use costs stay out of the timed pass."""
    _, _, code, _, stderr = run_op(wl.warm_op().argv)
    if code != 0:
        raise BenchError(f"warm-up operation exited {code}: {stderr.strip()[-400:]}")


def measure(wl, seconds: float, record_digests: bool) -> Result:
    setups = [probe_setup(wl.name, wl.seed, wl.work / f"probe{k}")
              for k in range(SETUP_PROBES)]
    warm_up(wl)
    with Sampler() as sampler:
        p = run_pass(wl, seconds=seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    p.finish(sampler)
    digest, replay = gate(wl, p, record_digests)
    failed, problems = _failures(p)
    replay_failed, replay_problems = _failures(replay, f"seed-{DEFAULT_SEED} replay op")
    failed += replay_failed
    attempted = p.ops + (replay.ops if replay else 0)

    rate = sum(p.units) / sum(p.norm_times)
    metrics = {
        "setup_s": (statistics.median(n for _, n in setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "work_per_s": (rate, "1/s"),
        "ms_per_unit_p50": (unit_median_ms(p.norm_times, p.units), "ms"),
    }
    extra = {
        wl.rate_metric: (rate, f"{wl.unit}/s"),
        "fail_frac": (failed / attempted, "failed/attempted"),
    }
    if wl.name == "flc-eval":
        extra["eval_ms_p50"] = metrics["ms_per_unit_p50"]
        tail = tail_ms([1000.0 * t for t in p.norm_times])
        if tail:
            value, pct, n = tail
            extra["eval_ms_tail"] = (value, f"ms(p{pct:g},n={n})")
    if p.scores:
        extra.update(wl.summary(list(p.scores)))
    extra.update({
        "setup_s_wall": (statistics.median(w for w, _ in setups), "s"),
        f"{wl.rate_metric}_wall": (sum(p.units) / sum(p.times), f"{wl.unit}/s"),
        "ms_per_unit_p50_wall": (unit_median_ms(p.times, p.units), "ms"),
        "host_speed": (sampler.speed(), "x_nominal"),
        "ops": (p.ops, "count"),
        wl.unit.replace(" ", "_"): (sum(p.units), "count"),
    })
    return Result(wl.name, metrics, extra, attempted, failed, problems + replay_problems,
                  digest)


def trace_layers(wl, seconds: float) -> Result:
    from spans import LAYERS, Tracer, metric_name

    warm_up(wl)
    base = run_pass(wl, seconds=seconds / 2.0)
    base.finish()
    _, replay = gate(wl, base, record_digests=False)

    tracer = Tracer()
    mutations = {"changed": 0}

    def observe_mutate(args, result):
        mutations["changed"] += result != args[0]

    tracer.install({"ga.mutate": observe_mutate})
    wrapped = len(tracer.patched_sites())
    try:
        # the oracles ran on the untraced pass; here the digests must match it
        traced = run_pass(wl, n_ops=base.ops, tracer=tracer, check=False)
    finally:
        tracer.uninstall()
    traced.finish()
    TRACES.mkdir(exist_ok=True)
    tracer.write_spans(TRACES / f"{wl.name}.csv")

    for i in range(base.ops):
        if base.digest(i) != traced.digest(i):
            traced.problems.setdefault(i, []).append(
                "traced output differs from the untraced run")
    totals = tracer.totals()
    self_sum = sum(s for _, s in totals.values())
    residual = traced.wall - self_sum
    if not 0.0 <= residual <= 0.01 * traced.wall + 1e-3:
        traced.problems.setdefault(0, []).append(
            f"self times sum to {self_sum:.6f}s, traced wall is {traced.wall:.6f}s")

    # the numerators are zero on the workloads whose unit is not the base
    ops, units = traced.ops, sum(traced.units)

    def calls(name):
        return totals[name][0]

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {}
    for layer, qualnames in LAYERS.items():
        for q in qualnames:
            name = metric_name(layer, q)
            metrics[f"{name}.calls"] = (calls(name), "count")
            metrics[f"{name}.self_s"] = (totals[name][1], "s")
    metrics.update({
        "ga.next_word.per_gen": (ratio(calls("ga.Lfsr16.next_word"),
                                       calls("ga.step_generation")), "ratio"),
        "ga.mutate.changed_frac": (ratio(mutations["changed"], calls("ga.mutate")), "ratio"),
        "problems.TspFitness.init.per_search": (ratio(calls("problems.TspFitness.init"), ops),
                                                "ratio"),
        "flc.membership.per_infer": (ratio(calls("flc.membership"), calls("flc.infer")),
                                     "ratio"),
        "flc.validate_spec.per_op": (ratio(calls("flc.validate_spec"), ops), "ratio"),
        "flcref.quantization_bound.per_op": (ratio(calls("flcref.quantization_bound"), ops),
                                             "ratio"),
        "tracksim.closest_point.per_step": (ratio(calls("tracksim.closest_point"), units),
                                            "ratio"),
        "tracksim.tracking_errors.per_step": (ratio(calls("tracksim.tracking_errors"), units),
                                              "ratio"),
        "trace_overhead_frac": (sum(traced.times) / sum(base.times) - 1.0, "ratio"),
    })

    extra = {}
    for layer in LAYERS:
        layer_self = sum(s for n, (_, s) in totals.items() if n.startswith(layer + "."))
        extra[f"layer.{layer}.self_s"] = (layer_self, "s")
    extra["layer.bench.self_s"] = (sum(s for n, (_, s) in totals.items()
                                       if n.startswith("bench.")), "s")
    extra["traced_wall_s"] = (traced.wall, "s")
    extra["untraced_op_s"] = (sum(base.times), "s")
    extra["spans_logged"] = (len(tracer.log_fn), "count")
    extra["wrapped_bindings"] = (wrapped, "count")
    extra["ops"] = (ops, "count")

    failed_a, problems_a = _failures(base)
    failed_b, problems_b = _failures(traced, "traced op")
    failed_c, problems_c = _failures(replay, f"seed-{DEFAULT_SEED} replay op")
    return Result(wl.name, metrics, extra, 2 * ops + (replay.ops if replay else 0),
                  failed_a + failed_b + failed_c, problems_a + problems_b + problems_c, "")


def print_result(r: Result) -> None:
    for key, (value, unit) in {**r.metrics, **r.extra}.items():
        print(f"{r.workload:15s} {key:42s} {value:<14.8g} {unit}")
    if r.output_digest:
        print(f"{r.workload:15s} output_digest {r.output_digest} (seed {DEFAULT_SEED})")
    for m in r.problems:
        print(f"{r.workload:15s} FAILED {m}")


def run_one(args) -> int:
    try:
        bootstrap()
    except (BenchError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    env = environment()
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        wl = WORKLOADS[args.workload](args.seed, work)
        wl.setup_files()
        r = (trace_layers(wl, args.seconds) if args.trace
             else measure(wl, args.seconds, args.record_digests))
    except BenchError as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print_result(r)
    line = {"correct": r.failed == 0, "attempted": r.attempted, "failed": r.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in r.metrics.items()}}
    if args.out:
        doc = {"env": env, "args": vars(args), "result": line, "workloads": {
            r.workload: {"metrics": r.metrics, "extra": r.extra, "problems": r.problems,
                         "output_digest": r.output_digest}}}
        Path(args.out).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(line))
    return 0


def run_all(args) -> int:
    """Every workload in a child process of its own, one after another, so
    that each peak_rss_mb is that workload's alone, whatever ran before it.
    Metric names in the JSON line get the workload as prefix."""
    WORK.mkdir(exist_ok=True)
    env, docs = None, {}
    attempted = failed = 0
    metrics = {}
    for name in WORKLOAD_NAMES:
        fd, out = tempfile.mkstemp(prefix=f"{name}-", suffix=".json", dir=WORK)
        os.close(fd)
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", out]
        if args.record_digests:
            cmd.append("--record-digests")
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S, check=False)
            doc = json.loads(Path(out).read_text()) if proc.returncode == 0 else None
        finally:
            os.unlink(out)
        sys.stderr.write(proc.stderr)
        if doc is None:
            print(f"error: {name}: exit {proc.returncode}", file=sys.stderr)
            return 2
        for text in proc.stdout.splitlines()[:-1]:
            if not text.startswith("env: ") or env is None:
                print(text)
        env = env or doc["env"]
        docs.update(doc["workloads"])
        attempted += doc["result"]["attempted"]
        failed += doc["result"]["failed"]
        metrics.update({f"{name}.{k}": v for k, v in doc["result"]["metrics"].items()})
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}
    if args.out:
        doc = {"env": env, "args": vars(args), "result": line, "workloads": docs}
        Path(args.out).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(line))
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the full result document (JSON) here")
    ap.add_argument("--record-digests", action="store_true",
                    help=f"store seed {DEFAULT_SEED}'s output digests in digests.json")
    args = ap.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
