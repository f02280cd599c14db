"""Acceptance gate: one test per shipped guarantee, each printing a single
pass/fail verdict line. Tolerances are part of the contract and are asserted
exactly as stated in the test bodies."""

import hashlib
import json
import math
import random
import statistics
import time
from dataclasses import replace

import pytest

from conftest import acceptance_corpus, spawn_seed_sets
from fuzzychip import flc, ga, problems, tracksim
from fuzzychip.cli import main
from fuzzychip.flcref import infer_real, lift, quantization_bound
from fuzzychip.ga import (
    BIT_FLIP,
    SINGLE_BIT,
    UNIFORM,
    GaConfig,
    Lfsr16,
    Population,
    lfsr_step,
    mutate,
    roulette_select,
    run,
)


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"acceptance {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"acceptance {num}: {detail}"


# ---- shared corpus for criteria 1 and 2 ----


@pytest.fixture(scope="module")
def corpus():
    return acceptance_corpus()


def test_acceptance_1_active_rule_equivalence(corpus):
    pairs, big_pairs = corpus
    start = time.monotonic()
    mismatches = 0
    for spec, xs in pairs + big_pairs:
        if flc.infer(spec, xs) != flc.infer_full_rulebase(spec, xs):
            mismatches += 1
    elapsed = time.monotonic() - start
    ok = mismatches == 0 and len(pairs) >= 1000 and elapsed < 60.0
    _verdict(
        1,
        ok,
        f"{len(pairs)} random + {len(big_pairs)} large-core inferences, "
        f"{mismatches} mismatches, {elapsed:.1f}s",
    )


def test_acceptance_2_fixed_within_float_bound(corpus):
    pairs, big_pairs = corpus
    violations = 0
    closest = math.inf  # smallest bound - err; negative would be a violation
    for spec, xs in pairs + big_pairs:
        bound = quantization_bound(spec)
        fixed = flc.infer(spec, xs).value / (1 << spec.out_bits)
        real = infer_real(lift(spec), [x / (1 << spec.in_bits) for x in xs])
        err = abs(fixed - real)
        closest = min(closest, bound - err)
        if err > bound + 1e-12:
            violations += 1
    _verdict(
        2,
        violations == 0,
        f"{len(pairs) + len(big_pairs)} points, {violations} bound violations, "
        f"tightest margin {closest:.3e}",
    )


def test_acceptance_3_timing_reproduction():
    base = flc.estimate_timing(flc.default_core_spec())
    ok_base = (
        base.latency_ns == 110.0
        and base.cycles_per_sample == 16
        and base.sample_rate_hz == 6.25e6
    )

    oe_spec = replace(flc.default_core_spec(), mode=flc.ODD_EVEN, stages=13, clock_ns=5.0)
    oe = flc.estimate_timing(oe_spec)
    ok_oe = (
        oe.latency_ns == 65.0 and oe.cycles_per_sample == 8
        and oe.sample_rate_hz == 25e6
    )

    soc = flc.estimate_timing(tracksim.build_tracker_spec(tracksim.TrackerParams()))
    ok_soc = (
        abs(soc.latency_ns - 126.765) < 1e-9
        and soc.cycles_per_sample == 4
        and math.isclose(soc.sample_rate_hz, 17.75e6, rel_tol=1e-3)
    )

    ok_ratio = True
    for n in range(1, 9):
        part = (flc.uniform_partition(6, 2),) * n
        spec = flc.FlcSpec(6, 8, 4, 8, part, tuple([0] * (2**n)))
        std = flc.estimate_timing(spec).cycles_per_sample
        oe_var = replace(spec, mode=flc.ODD_EVEN)
        oe_n = flc.estimate_timing(oe_var).cycles_per_sample
        ok_ratio = ok_ratio and std == 2 * oe_n == 2**n

    ok = ok_base and ok_oe and ok_soc and ok_ratio
    _verdict(
        3,
        ok,
        f"baseline ({base.latency_ns:g}ns, {base.cycles_per_sample}, "
        f"{base.sample_rate_hz:g}Hz), odd-even ({oe.latency_ns:g}ns, "
        f"{oe.cycles_per_sample}, {oe.sample_rate_hz:g}Hz), "
        f"soc ({soc.latency_ns:.3f}ns, {soc.cycles_per_sample}, "
        f"{soc.sample_rate_hz:.0f}Hz), halving for n=1..8: {ok_ratio}",
    )


# ---- GA at problem scale ----

_CITIES8 = (
    (413, 389), (204, 613), (183, 235), (254, 136),
    (778, 88), (257, 746), (392, 543), (700, 717),
)


def _instance8() -> problems.TspInstance:
    rnd = random.Random(99)
    coords = tuple(
        (float(rnd.randrange(0, 1000)), float(rnd.randrange(0, 1000)))
        for _ in range(8)
    )
    assert coords == tuple((float(x), float(y)) for x, y in _CITIES8)
    return problems.TspInstance("rand8", 8, problems.EUC_2D, coords)


def test_acceptance_4_ga_solves_small_tsp():
    start = time.monotonic()
    inst = _instance8()
    opt_len, _ = problems.brute_force_optimum(inst)
    assert opt_len == 2502

    fit = problems.TspFitness(inst, genom_lngt=16)
    cfg = GaConfig(
        genom_lngt=16,
        pop_sz=32,
        elite=2,
        mr=80,
        cross_method=UNIFORM,
        mut_method=BIT_FLIP,
        max_gen=60,
    )
    exact = within10 = 0
    for seeds in spawn_seed_sets(20, 0x2468):
        result = run(replace(cfg, seeds=seeds), fit)
        length = problems.tour_length(inst, fit.decode(result.best_genome))
        if length == opt_len:
            exact += 1
        if length <= opt_len * 1.10:
            within10 += 1
    elapsed = time.monotonic() - start
    ok = exact >= 10 and within10 >= 18 and elapsed < 60.0
    _verdict(
        4,
        ok,
        f"optimum 2502: {exact}/20 exact (need >= 10), "
        f"{within10}/20 within 10% (need >= 18), {elapsed:.1f}s",
    )


def test_acceptance_5_ga_engine_properties():
    # roulette histogram within one of ideal for every r, random populations
    rnd = random.Random(31)
    rws_ok = True
    for _ in range(40):
        res = rnd.randint(4, 8)
        scores = tuple(rnd.randint(0, 50) for _ in range(rnd.randint(2, 8)))
        if sum(scores) == 0:
            scores = scores[:-1] + (1,)
        pop = Population(tuple(range(len(scores))), scores)
        counts = [0] * len(scores)
        for r in range(1 << res):
            counts[roulette_select(pop, r, res)] += 1
        for s, c in zip(scores, counts):
            if abs(c - s * (1 << res) / sum(scores)) > 1 + 1e-9:
                rws_ok = False

    # elitism keeps the running best monotone over long runs
    fit = lambda g: (g * 2654435761) & 0xFFFF
    elite_ok = True
    for seeds in spawn_seed_sets(10, 0x1357):
        best = []
        run(
            GaConfig(max_gen=200, elite=2, seeds=seeds),
            fit,
            on_generation=lambda gen, pop: best.append(max(pop.scores)),
        )
        elite_ok = elite_ok and all(b >= a for a, b in zip(best, best[1:]))

    # maximal-length stream
    state, period = 0xACE1, 0
    while True:
        state, _ = lfsr_step(state)
        period += 1
        if state == 0xACE1:
            break
    period_ok = period == 65535

    # empirical mutation activation rate approximately mr / 2^mut_res
    trials, hits = 100_000, 0
    stream = Lfsr16(0x0F0F)
    for _ in range(trials):
        if mutate(0x5A5A, 16, SINGLE_BIT, 80, 8, stream) != 0x5A5A:
            hits += 1
    p = 80 / 256
    sigma = math.sqrt(trials * p * (1 - p))
    mut_ok = abs(hits - trials * p) <= 3 * sigma

    ok = rws_ok and elite_ok and period_ok and mut_ok
    _verdict(
        5,
        ok,
        f"rws +/-1: {rws_ok}, elitism monotone 200x10: {elite_ok}, "
        f"period {period}, mutation {hits}/{trials} vs {trials * p:.0f} "
        f"(3 sigma {3 * sigma:.0f})",
    )


def test_acceptance_6_burma14_spread_and_replay():
    inst = problems.load_builtin("burma14")
    assert inst.dimension == 14
    assert inst.edge_weight_type == problems.GEO

    fit = problems.TspFitness(inst, genom_lngt=40)
    cfg = GaConfig(
        genom_lngt=40,
        pop_sz=32,
        scaling_factor_res=16,
        elite=26,
        mr=80,
        cross_method=UNIFORM,
        mut_method=BIT_FLIP,
        max_gen=8000,
        fitness_limit=fit.l_max - 4200,  # stop once a tour reaches 4200 mm
    )
    seed_sets = spawn_seed_sets(20, 0x2468)
    lengths = []
    for seeds in seed_sets:
        result = run(replace(cfg, seeds=seeds), fit)
        lengths.append(problems.tour_length(inst, fit.decode(result.best_genome)))
    spread = (max(lengths) - min(lengths)) / min(lengths)

    # replaying a seed set reproduces its full generation log byte for byte
    def trace_text(seeds) -> str:
        rows = []
        result = run(
            replace(cfg, seeds=seeds),
            fit,
            on_generation=lambda gen, pop: rows.append(
                f"{gen},{max(pop.scores)},{min(pop.genomes)}"
            ),
        )
        rows.append(f"{result.best_genome},{result.best_score},{result.stop_reason}")
        return "\n".join(rows)

    replay_ok = all(
        trace_text(seed_sets[i]) == trace_text(seed_sets[i]) for i in (0, 7, 19)
    )

    ok = spread < 0.15 and replay_ok
    _verdict(
        6,
        ok,
        f"lengths {min(lengths)}..{max(lengths)}, spread {spread:.3f} "
        f"(need < 0.15), replay byte-identical: {replay_ok}",
    )


def test_acceptance_7_tracking_regulation():
    params = tracksim.TrackerParams()

    # straight 25 m, launched 500 mm off the line: settled tail
    straight = tracksim.simulate(
        tracksim.straight_waypoints(25000.0),
        params,
        start=tracksim.Pose(0.0, 500.0, 0.0),
    )
    tail = straight.rows[int(len(straight.rows) * 0.8):]
    tail_worst = max(abs(r.e_d) for r in tail)
    ok_tail = tail_worst < 50.0

    # rounded-vertex S course: lateral error below the sampling spacing
    s_trace = tracksim.simulate(tracksim.s_curve_waypoints(), params, spacing=100.0)
    s_worst = max(abs(r.e_d) for r in s_trace.rows)
    ok_s = s_worst < 100.0

    # commanded curvature never exceeds the saturation limit
    kappa_worst = max(
        abs(r.kappa) for r in straight.rows + s_trace.rows
    )
    ok_kappa = kappa_worst <= params.kappa_max + 1e-15

    # odometry distance noise degrades the final true-pose error
    # monotonically; the curved course makes longitudinal estimate error
    # matter (on a straight line it is invisible to the lateral controller)
    medians = []
    s_way = tracksim.s_curve_waypoints()
    for sigma_d in (0.02, 0.1, 0.5):
        finals = []
        for seed in range(1, 21):
            trace = tracksim.simulate(s_way, params, noise=(sigma_d, 0.0), seed=seed)
            last = trace.rows[-1].pose
            finals.append(tracksim.path_distance(trace.path, last.x, last.y))
        medians.append(statistics.median(finals))
    ok_noise = medians[0] <= medians[1] <= medians[2]

    ok = ok_tail and ok_s and ok_kappa and ok_noise
    _verdict(
        7,
        ok,
        f"straight tail {tail_worst:.2f}mm (< 50), s-path {s_worst:.2f}mm "
        f"(< 100), max |kappa| {kappa_worst:.6f} (<= {params.kappa_max}), "
        f"noise medians {', '.join(f'{m:.2f}' for m in medians)}mm",
    )


def test_acceptance_8_manifest_rerun_determinism(tmp_path, capsys):
    def hash_tree(out_dir):
        return {
            p.name: hashlib.md5(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir())
        }

    cfg_path = tmp_path / "ga.json"
    ga.dump_config(GaConfig(max_gen=4), cfg_path)
    way_path = tmp_path / "way.txt"
    tracksim.save_waypoints(tracksim.straight_waypoints(3000.0), way_path)
    spec_path = tmp_path / "spec.json"
    flc.dump_spec(
        flc.FlcSpec(
            in_bits=8,
            out_bits=12,
            alpha_bits=8,
            cons_bits=8,
            partitions=(flc.uniform_partition(8, 3),),
            singletons=(10, 128, 250),
        ),
        spec_path,
    )

    commands = [
        ["ga", "--config", str(cfg_path), "--fn", "sphere",
         "--seeds", "0x1111,0x2222,0x3333,0x4444",
         "--seeds", "0x5555,0x6666,0x7777,0x8888",
         "--out", str(tmp_path / "ga_out")],
        ["track", "--path", str(way_path), "--noise", "0.05,0.001",
         "--seeds", "3,4", "--out", str(tmp_path / "track_out")],
        ["flc", "sweep", "--spec", str(spec_path),
         "--out", str(tmp_path / "sweep_out")],
    ]
    all_ok = True
    details = []
    for argv in commands:
        out_dir = tmp_path / argv[-1].rsplit("/", 1)[-1]
        assert main(argv) == 0
        before = hash_tree(out_dir)
        for name in before:
            if name != "manifest.json":
                (out_dir / name).unlink()
        assert main(["rerun", str(out_dir / "manifest.json")]) == 0
        same = hash_tree(out_dir) == before
        all_ok = all_ok and same
        details.append(f"{argv[0]}:{'ok' if same else 'DIFF'}")
    capsys.readouterr()  # swallow the replayed command chatter
    _verdict(8, all_ok, f"{len(commands)} manifests replayed, " + ", ".join(details))
