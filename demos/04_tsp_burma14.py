"""Search the bundled 14-city geographical instance with the GA and compare
against the exact dynamic-programming optimum.

Tours are Lehmer-coded into 40-bit genomes (14! fits in 38 bits), so any
bit pattern decodes to a valid permutation. The run uses the deep-search
profile: heavy elitism, 16-bit selection resolution, uniform crossover,
per-bit mutation, and a fitness-limit stop at tour length 4200."""

import time

from fuzzychip.ga import BIT_FLIP, UNIFORM, GaConfig, run
from fuzzychip.problems import TspFitness, held_karp_optimum, load_builtin, tour_length


def main() -> None:
    inst = load_builtin("burma14")
    print(f"instance {inst.name}: {inst.dimension} cities, "
          f"{inst.edge_weight_type} distances")

    opt_len, opt_tour = held_karp_optimum(inst)
    print(f"exact optimum: {opt_len} via {'-'.join(map(str, opt_tour))}")

    fit = TspFitness(inst, genom_lngt=40)
    cfg = GaConfig(
        genom_lngt=40,
        scaling_factor_res=16,
        elite=26,
        mr=80,
        cross_method=UNIFORM,
        mut_method=BIT_FLIP,
        max_gen=8000,
        fitness_limit=fit.l_max - 4200,
    )

    progress = []

    def observe(gen, pop):
        best = fit.l_max - max(pop.scores)
        if not progress or best < progress[-1][1]:
            progress.append((gen, best))

    t0 = time.monotonic()
    result = run(cfg, fit, on_generation=observe)
    elapsed = time.monotonic() - t0

    tour = fit.decode(result.best_genome)
    length = tour_length(inst, tour)
    print(f"\nGA improvements (generation -> best tour length):")
    for gen, best in progress[:: max(1, len(progress) // 10)]:
        print(f"  gen {gen:5d}: {best}")
    print(f"\nbest found: {length} via {'-'.join(map(str, tour))}")
    print(f"stopped by {result.stop_reason} after {result.generations_run} "
          f"generations ({elapsed:.1f}s)")
    print(f"gap to optimum: {100.0 * (length - opt_len) / opt_len:.1f}%")


if __name__ == "__main__":
    main()
