"""The four workloads: inputs generated from the workload seed, one CLI
invocation per operation, output digests and oracle checks.

An operation's inputs depend only on (workload, seed, operation index), so
a traced replay runs exactly the operations an untraced pass ran. Inputs
are written with the benchmark's own code: nothing is read from demos/ or
tests/.

What an operation leaves for later is only its Outcome's numbers and
digest: the record, and the spec the operation ran, are checked while the
operation is still in hand and then dropped, so the benchmark's memory does
not grow with the number of operations.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
import statistics
from dataclasses import dataclass, field
from pathlib import Path

from env import WORKLOAD_NAMES
from fuzzychip import flc, ga, problems, tracksim

HELD_KARP_BURMA14 = 3323  # published optimum; the oracle must agree


@dataclass
class Op:
    """One CLI invocation and what collect() needs to read its outputs."""

    argv: list[str]
    ctx: dict = field(default_factory=dict)


@dataclass
class Outcome:
    units: int  # work units the operation completed
    digest: str  # sha256 over the operation's semantic outputs
    record: dict  # what check() needs; dropped after the check
    score: float | None = None  # the operation's accuracy figure for summary()


def _sha(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(len(p).to_bytes(8, "little"))
        h.update(p)
    return h.hexdigest()


def _rng(*key) -> random.Random:
    return random.Random("/".join(str(k) for k in key))


def random_partition(rnd: random.Random, in_bits: int, m: int) -> list[list[int]]:
    """Trapezoids whose edges run from one plateau to the next: 2m - 2
    distinct interior cut points give plateau ends and starts alternately.
    Adjacent degrees then sum to about full scale, so every code has a
    degree of at least half scale and no weighted average has a zero
    denominator; sets two apart never overlap."""
    top = (1 << in_bits) - 1
    cuts = sorted(rnd.sample(range(1, top), 2 * m - 2))
    starts = [0] + cuts[1::2]  # b of each MF
    ends = cuts[0::2] + [top]  # c of each MF
    return [
        [ends[i - 1] if i else 0, starts[i], ends[i], starts[i + 1] if i < m - 1 else top]
        for i in range(m)
    ]


def random_spec(rnd: random.Random, n: int, m: int, in_bits: int, alpha_bits: int,
                cons_bits: int, out_bits: int, and_method: str) -> dict:
    """A spec document in the format flc.load_spec reads."""
    return {
        "in_bits": in_bits,
        "out_bits": out_bits,
        "alpha_bits": alpha_bits,
        "cons_bits": cons_bits,
        "and_method": and_method,
        "mode": "standard",
        "stages": 11,
        "clock_ns": 10.0,
        "partitions": [random_partition(rnd, in_bits, m) for _ in range(n)],
        "singletons": [rnd.randrange(1 << cons_bits) for _ in range(m**n)],
    }


def _write_json(path: Path, doc) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class Workload:
    name = ""  # set from WORKLOAD_NAMES at the end of this module
    unit = ""  # what one work unit is, plural
    rate_metric = ""  # end-to-end name of work units per second
    digest_ops = 1  # leading operations whose digests are recorded

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.out = work / "out"

    def setup_files(self) -> None:
        """Inputs shared by every operation."""

    def op(self, i: int) -> Op:
        raise NotImplementedError

    def warm_op(self) -> Op:
        """A short operation of the same kind, run before timing starts."""
        raise NotImplementedError

    def collect(self, op: Op, stdout: str) -> Outcome:
        raise NotImplementedError

    def check(self, op: Op, record: dict) -> list[str]:
        """Oracle problems of one operation (empty when all is well)."""
        return []

    def final_check(self) -> list[str]:
        """Oracle problems not tied to one operation, checked once."""
        return []

    def summary(self, scores: list[float]) -> dict[str, tuple[float, str]]:
        """Accuracy figures from the operations' scores: name -> (value, unit)."""
        return {}


class TspBurma14(Workload):
    """Deep GA tour searches (acceptance-6 profile) on the bundled burma14
    instance, one 4-seed set per operation: the ga and problems layers."""

    unit = "generations"
    rate_metric = "gens_per_s"
    digest_ops = 2

    def setup_files(self) -> None:
        self.inst = problems.load_builtin("burma14")
        self.tsp = self.work / "burma14.tsp"
        self.tsp.write_text(problems.format_tsplib(self.inst), encoding="utf-8")
        l_max = problems.TspFitness(self.inst, genom_lngt=40).l_max
        cfg = ga.GaConfig(
            genom_lngt=40, pop_sz=32, scaling_factor_res=16, elite=26, mr=80,
            cross_method=ga.UNIFORM, mut_method=ga.BIT_FLIP, max_gen=8000,
            fitness_limit=l_max - 4200,
        )
        self.cfg = self.work / "ga.json"
        ga.dump_config(cfg, self.cfg)

    def _argv(self, rnd: random.Random) -> list[str]:
        seeds = ",".join(str(rnd.randint(1, 0xFFFF)) for _ in range(4))
        return ["ga", "--config", str(self.cfg), "--instance", str(self.tsp),
                "--seeds", seeds, "--out", str(self.out), "--jobs", "1"]

    def op(self, i: int) -> Op:
        return Op(self._argv(_rng(self.name, self.seed, i)))

    def warm_op(self) -> Op:
        return Op(self._argv(_rng(self.name, self.seed, "warm")) + ["--max-gen", "20"])

    def collect(self, op: Op, stdout: str) -> Outcome:
        gen_csv = (self.out / "generations_000.csv").read_bytes()
        doc = json.loads((self.out / "result_000.json").read_text(encoding="utf-8"))
        semantic = json.dumps([doc["best_genome"], doc["generations_run"], doc["tour"]])
        record = {"tour": doc["tour"], "length": doc["tour_length"]}
        gap = 100.0 * (doc["tour_length"] - HELD_KARP_BURMA14) / HELD_KARP_BURMA14
        return Outcome(doc["generations_run"], _sha(gen_csv, semantic.encode()), record, gap)

    def check(self, op, record):
        n, bad = self.inst.dimension, []
        if sorted(record["tour"]) != list(range(n)):
            bad.append(f"tour {record['tour']} is not a permutation of 0..{n - 1}")
        elif problems.tour_length(self.inst, record["tour"]) != record["length"]:
            bad.append(f"reported length {record['length']} is not the tour's length")
        if record["length"] < HELD_KARP_BURMA14:
            bad.append(f"length {record['length']} below the optimum {HELD_KARP_BURMA14}")
        return bad

    def final_check(self):
        # once per run, after the timed pass: the DP holds about 1.3 MB
        optimum, _ = problems.held_karp_optimum(self.inst)
        if optimum != HELD_KARP_BURMA14:
            return [f"held_karp_optimum gave {optimum}, not {HELD_KARP_BURMA14}"]
        return []

    def summary(self, scores):
        return {"tour_gap_pct": (statistics.median(scores), "%")}


class TrackSCourse(Workload):
    """Closed-loop tracking of the S course under the acceptance-7 noise
    ladder, one noisy trace per operation: tracksim and scalar flc.infer,
    one call per control step, so per-call overhead shows."""

    unit = "control steps"
    rate_metric = "steps_per_s"
    digest_ops = 3
    LADDER = (0.02, 0.1, 0.5)

    def setup_files(self) -> None:
        self.path = self.work / "s_course.txt"
        tracksim.save_waypoints(tracksim.s_curve_waypoints(), self.path)
        self.kappa_max = tracksim.TrackerParams().kappa_max

    def _argv(self, sigma: float, seed: int) -> list[str]:
        return ["track", "--path", str(self.path), "--noise", f"{sigma},0",
                "--seeds", str(seed), "--out", str(self.out), "--jobs", "1"]

    def op(self, i: int) -> Op:
        seed = _rng(self.name, self.seed, i).randrange(1 << 31)
        return Op(self._argv(self.LADDER[i % 3], seed))

    def warm_op(self) -> Op:
        seed = _rng(self.name, self.seed, "warm").randrange(1 << 31)
        return Op(self._argv(self.LADDER[0], seed) + ["--steps", "200"])

    def collect(self, op: Op, stdout: str) -> Outcome:
        text = (self.out / "trace_000.csv").read_bytes()
        summary = json.loads((self.out / "summary.json").read_text(encoding="utf-8"))[0]
        rows = list(csv.DictReader(io.StringIO(text.decode())))
        record = {"max_abs_kappa": max(abs(float(r["kappa"])) for r in rows)}
        return Outcome(len(rows), _sha(text), record, summary["final_path_distance_mm"])

    def check(self, op, record):
        # kappa is printed with 6 decimals, so allow half a unit of that
        if record["max_abs_kappa"] > self.kappa_max + 5e-7:
            return [f"|kappa| {record['max_abs_kappa']} above kappa_max {self.kappa_max}"]
        return []

    def summary(self, scores):
        return {"final_err_mm": (statistics.median(scores), "mm")}


class FlcSweep(Workload):
    """Full 7-bit grid sweeps of a 2-input / 9-MF / MIN spec (the tracker's
    rulebase shape), a fresh random-valid spec per operation: one spec and
    many independent points, so throughput-bound."""

    unit = "grid points"
    rate_metric = "points_per_s"
    digest_ops = 1
    SAMPLE_ROWS = 64

    def _spec(self, key, in_bits: int) -> dict:
        return random_spec(_rng(self.name, self.seed, key), n=2, m=9, in_bits=in_bits,
                           alpha_bits=8, cons_bits=8, out_bits=12, and_method=flc.MIN)

    def _op(self, spec: dict, key) -> Op:
        path = _write_json(self.work / "sweep_spec.json", spec)
        return Op(["flc", "sweep", "--spec", path, "--out", str(self.out)],
                  {"spec": spec, "key": key})

    def op(self, i: int) -> Op:
        return self._op(self._spec(i, 7), i)

    def warm_op(self) -> Op:
        return self._op(self._spec("warm", 5), "warm")

    def collect(self, op: Op, stdout: str) -> Outcome:
        text = (self.out / "sweep.csv").read_bytes()
        lines = text.decode().splitlines()[1:]
        rnd = _rng(self.name, self.seed, op.ctx["key"], "sample")
        samples = []
        for line in rnd.sample(lines, min(self.SAMPLE_ROWS, len(lines))):
            x0, x1, code = line.split(",")[:3]
            samples.append(((int(x0), int(x1)), int(code)))
        return Outcome(len(lines), _sha(text), {"samples": samples})

    def check(self, op, record):
        spec = flc.spec_from_dict(op.ctx["spec"])
        return [f"sweep row {xs}: fixed_code {code}, oracle {want}"
                for xs, code in record["samples"]
                if (want := flc.infer_full_rulebase(spec, xs).value) != code]


class FlcEval(Workload):
    """One `flc eval` per distinct spec file: seven small random-valid specs
    then one 4-input / 7-MF / 12-bit spec, repeating. Every spec differs,
    so nothing cached for one call can serve a later one."""

    unit = "evals"
    rate_metric = "evals_per_s"
    digest_ops = 16
    LARGE_EVERY = 8

    def _spec(self, rnd: random.Random, large: bool) -> dict:
        if large:
            return random_spec(rnd, n=4, m=7, in_bits=12, alpha_bits=8, cons_bits=8,
                               out_bits=12, and_method=rnd.choice((flc.MIN, flc.PROD)))
        cons_bits = rnd.randint(4, 8)
        return random_spec(
            rnd, n=rnd.randint(1, 3), m=rnd.randint(2, 5), in_bits=rnd.randint(6, 9),
            alpha_bits=rnd.randint(4, 8), cons_bits=cons_bits,
            out_bits=cons_bits + rnd.randint(0, 4),
            and_method=rnd.choice((flc.MIN, flc.PROD)))

    def _op(self, key, large: bool) -> Op:
        rnd = _rng(self.name, self.seed, key)
        spec = self._spec(rnd, large)
        inputs = [rnd.randrange(1 << spec["in_bits"]) for _ in spec["partitions"]]
        path = _write_json(self.work / "eval_spec.json", spec)
        return Op(["flc", "eval", "--spec", path, "--input", ",".join(map(str, inputs))],
                  {"spec": spec, "inputs": inputs})

    def op(self, i: int) -> Op:
        return self._op(i, i % self.LARGE_EVERY == self.LARGE_EVERY - 1)

    def warm_op(self) -> Op:
        return self._op("warm", False)

    def collect(self, op: Op, stdout: str) -> Outcome:
        fields = dict(line.split("=", 1) for line in stdout.splitlines())
        record = {
            "fixed_code": int(fields["fixed_code"]),
            "abs_error": float(fields["abs_error"]),
            "bound": float(fields["bound"]),
        }
        return Outcome(1, _sha(stdout.encode()), record,
                       record["abs_error"] / record["bound"])

    def check(self, op, record):
        bad = []
        spec = flc.spec_from_dict(op.ctx["spec"])
        want = flc.infer_full_rulebase(spec, op.ctx["inputs"]).value
        if record["fixed_code"] != want:
            bad.append(f"fixed_code {record['fixed_code']}, oracle {want}")
        if record["abs_error"] > record["bound"]:
            bad.append(f"abs_error {record['abs_error']} above bound {record['bound']}")
        return bad

    def summary(self, scores):
        return {"err_to_bound_max": (max(scores), "ratio")}


WORKLOADS = dict(zip(WORKLOAD_NAMES, (TspBurma14, TrackSCourse, FlcSweep, FlcEval)))
for _name, _cls in WORKLOADS.items():
    _cls.name = _name
