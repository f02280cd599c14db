"""Shared generators for the test suite.

random_valid_spec builds controller specs from a random peak family with
plateau extensions capped at half the neighbor gap, which guarantees every
structural invariant (ordering, coverage, overlap degree 2, no shared
plateau points) by construction, plus a nonzero membership envelope so the
weighted-average denominator never vanishes. knot_partition drops those
guarantees to reach degenerate edges (a == b, c == d) and codes where every
degree is zero; its specs must be validated by the caller.

The hypothesis profile is derandomized, so each run replays the same
examples, and max_examples bounds the time the property tests add.

subprocess_env is the environment of every child interpreter a test starts.
"""

import os
import random
from pathlib import Path

from hypothesis import settings

import fuzzychip
from fuzzychip import flc
from fuzzychip.flc import (
    MIN,
    PROD,
    STANDARD,
    FlcSpec,
    MembershipFunction,
    validate_spec,
)
from fuzzychip.ga import Lfsr16

settings.register_profile(
    "derandomized", derandomize=True, max_examples=40, deadline=None, database=None
)
settings.load_profile("derandomized")


def subprocess_env() -> dict[str, str]:
    """os.environ with the directory of the fuzzychip under test first on
    PYTHONPATH, so a child interpreter imports the same package."""
    src = str(Path(fuzzychip.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}


def random_partition(rnd: random.Random, in_bits: int, m: int):
    top = (1 << in_bits) - 1
    # m distinct peaks anchored at the universe ends
    interior = rnd.sample(range(1, top), m - 2) if m > 2 else []
    peaks = [0] + sorted(interior) + [top]
    mfs = []
    for i in range(m):
        a = peaks[i - 1] if i > 0 else 0
        d = peaks[i + 1] if i < m - 1 else top
        # plateau extensions stay strictly inside the neighbor gap
        left_room = (peaks[i] - a - 1) // 2 if i > 0 else 0
        right_room = (d - peaks[i] - 1) // 2 if i < m - 1 else 0
        b = peaks[i] - rnd.randint(0, max(0, left_room))
        c = peaks[i] + rnd.randint(0, max(0, right_room))
        mfs.append(MembershipFunction(a, b, c, d))
    return tuple(mfs)


def random_valid_spec(
    rnd: random.Random,
    n=None,
    m=None,
    in_bits=None,
    alpha_bits=None,
    and_method=None,
) -> FlcSpec:
    n = n if n is not None else rnd.randint(1, 3)
    m = m if m is not None else rnd.randint(2, 5)
    in_bits = in_bits if in_bits is not None else rnd.randint(6, 9)
    alpha_bits = alpha_bits if alpha_bits is not None else rnd.randint(4, 8)
    cons_bits = rnd.randint(4, 8)
    out_bits = cons_bits + rnd.randint(0, 4)
    spec = FlcSpec(
        in_bits=in_bits,
        out_bits=out_bits,
        alpha_bits=alpha_bits,
        cons_bits=cons_bits,
        partitions=tuple(random_partition(rnd, in_bits, m) for _ in range(n)),
        singletons=tuple(
            rnd.randint(0, (1 << cons_bits) - 1) for _ in range(m**n)
        ),
        and_method=and_method if and_method is not None else rnd.choice((MIN, PROD)),
        mode=STANDARD,
        stages=rnd.randint(1, 16),
        clock_ns=rnd.choice((5.0, 10.0, 14.085)),
    )
    report = validate_spec(spec)
    assert report.ok, f"generator produced an invalid spec: {report.problems}"
    return spec


def knot_partition(rnd: random.Random, in_bits: int, m: int):
    """m MFs from 2m sorted knots (b_i, c_i), b_0 = 0 and c_{m-1} = top; each
    right edge ends and the next left edge starts at random codes between
    c_i and b_{i+1}. Repeated knots give degenerate edges and shared points."""
    top = (1 << in_bits) - 1
    knots = [0] + sorted(rnd.randint(0, top) for _ in range(2 * m - 2)) + [top]
    b, c = knots[0::2], knots[1::2]
    d = [rnd.randint(c[i], b[i + 1]) for i in range(m - 1)] + [top]
    a = [0] + [rnd.randint(c[i - 1], d[i - 1]) for i in range(1, m)]
    return tuple(MembershipFunction(*mf) for mf in zip(a, b, c, d))


def random_knot_spec(rnd: random.Random, n: int, in_bits: int, alpha_bits: int,
                     and_method: str, cons_bits: int | None = None) -> FlcSpec:
    """A knot_partition spec; may fail validate_spec (shared plateau points).
    cons_bits defaults to a random width in 1..12."""
    m = rnd.randint(2, 5)
    cons_bits = cons_bits if cons_bits is not None else rnd.randint(1, 12)
    return FlcSpec(
        in_bits=in_bits,
        out_bits=cons_bits + rnd.randint(0, 4),
        alpha_bits=alpha_bits,
        cons_bits=cons_bits,
        partitions=tuple(knot_partition(rnd, in_bits, m) for _ in range(n)),
        singletons=tuple(rnd.randint(0, (1 << cons_bits) - 1) for _ in range(m**n)),
        and_method=and_method,
    )


def acceptance_corpus():
    """(spec, input vector) pairs of acceptance criteria 1 and 2: >= 1000
    random small specs plus 100 inputs on the shipped 4-input / 7-MF /
    2401-rule core."""
    rnd = random.Random(20240817)
    pairs = []
    for _ in range(350):
        spec = random_valid_spec(rnd)
        for _ in range(3):
            pairs.append((spec, random_inputs(rnd, spec)))
    big = flc.default_core_spec()
    big_pairs = [(big, random_inputs(rnd, big)) for _ in range(100)]
    return pairs, big_pairs


def random_inputs(rnd: random.Random, spec: FlcSpec):
    top = (1 << spec.in_bits) - 1
    return tuple(rnd.randint(0, top) for _ in range(spec.n))


def spawn_seed_sets(count: int, spawn: int):
    """Deterministic 4-seed sets drawn from one spawning LFSR stream."""
    gen = Lfsr16(spawn)
    out = []
    while len(out) < count:
        seeds = tuple(gen.next_word() for _ in range(4))
        if all(seeds):
            out.append(seeds)
    return out
