"""Pipeline timing model: latency, cycles per sample, and sample rate for
the three reference hardware configurations, plus the cycle halving the
odd-even schedule buys at every input count.

Latency is stages x clock period (pipeline fill); throughput is set by
cycles per sample: the standard schedule retires one active rule per clock
(2^n cycles), the odd-even schedule two (2^(n-1))."""

from dataclasses import replace

from fuzzychip import flc, tracksim


def show(name: str, spec: flc.FlcSpec) -> None:
    t = flc.estimate_timing(spec)
    print(f"{name:22s} n={spec.n} stages={spec.stages:2d} "
          f"clock={spec.clock_ns:6.3f}ns  latency={t.latency_ns:8.3f}ns  "
          f"cycles={t.cycles_per_sample:2d}  rate={t.sample_rate_hz / 1e6:6.3f}MHz")


def main() -> None:
    base = flc.default_core_spec()
    show("4-input baseline", base)
    show("4-input odd-even", replace(base, mode=flc.ODD_EVEN, stages=13, clock_ns=5.0))
    show("2-input steering SoC", tracksim.build_tracker_spec(tracksim.TrackerParams()))

    print("\ncycles per sample, standard vs odd-even:")
    print("  n   standard  odd-even")
    for n in range(1, 9):
        parts = (flc.uniform_partition(6, 2),) * n
        spec = flc.FlcSpec(6, 8, 4, 8, parts, tuple([0] * (2 ** n)))
        std = flc.estimate_timing(spec).cycles_per_sample
        oe = flc.estimate_timing(replace(spec, mode=flc.ODD_EVEN)).cycles_per_sample
        print(f"  {n}   {std:8d}  {oe:8d}")


if __name__ == "__main__":
    main()
