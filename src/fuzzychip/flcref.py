"""Floating-point reference model for the fixed-point inference core.

Lifts a fixed-point spec into the real unit interval (codes divided by
2^bits), evaluates the rulebase in float arithmetic, and produces an
a-priori bound on the disagreement between the lifted fixed output and the
real output. Every truncation in the integer datapath only ever lowers a
weight, so the bound composes one-sided error terms.

Under the overlap-2 invariant every nonzero real degree at x lies in the
pair `active_pair_real` returns -- `flc.pick_pair` of the real degrees, the
rule the fixed model applies to its own -- so the real model fires only the
2^n active rules, scalar (`infer_real`) and batched over per-input pair
tables (`pair_tables_real`, built by `flc.axis_pairs` with `membership_real`'s
divisions elementwise, and `infer_real_batch`). Both sum them with
`flc.fire` in `flc.firing_plan` order, the order of the full m^n loop
restricted to the pairs; the zero-weight terms that loop skips add 0.0 to
non-negative sums, so the float bits equal the full-rulebase evaluation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .flc import (
    MIN,
    ActivePair,
    DenominatorZero,
    FlcSpec,
    axis_pairs,
    fire,
    firing_plan,
    membership,
    pair_operands,
    pick_pair,
)

if TYPE_CHECKING:  # numpy loads in the batched functions that use it
    import numpy as np

REAL_ZERO_DENOMINATOR = "all real rule weights are zero for this input vector"


@dataclass(frozen=True)
class RealFlcSpec:
    """Breakpoints and singletons scaled into [0, 1]; same rule addressing."""

    partitions: tuple[tuple[tuple[float, float, float, float], ...], ...]
    singletons: tuple[float, ...]
    and_method: str

    @property
    def n(self) -> int:
        return len(self.partitions)

    @property
    def m(self) -> int:
        return len(self.partitions[0])


def lift(spec: FlcSpec) -> RealFlcSpec:
    """Scale breakpoints by 2^-in_bits and singletons by 2^-cons_bits."""
    in_scale = float(1 << spec.in_bits)
    cons_scale = float(1 << spec.cons_bits)
    parts = tuple(
        tuple(
            (mf.a / in_scale, mf.b / in_scale, mf.c / in_scale, mf.d / in_scale)
            for mf in part
        )
        for part in spec.partitions
    )
    return RealFlcSpec(
        partitions=parts,
        singletons=tuple(y / cons_scale for y in spec.singletons),
        and_method=spec.and_method,
    )


def membership_real(mf: tuple[float, float, float, float], x: float) -> float:
    """Exact trapezoid in real arithmetic; plateau wins at degenerate edges."""
    a, b, c, d = mf
    if x < a or x > d:
        return 0.0
    if b <= x <= c:
        return 1.0
    if x < b:
        return (x - a) / (b - a)
    return (d - x) / (d - c)


def active_pair_real(partition, x: float) -> ActivePair:
    """`flc.pick_pair` of the real degrees at x."""
    return pick_pair([membership_real(mf, x) for mf in partition])


def infer_real(rspec: RealFlcSpec, xs: list[float] | tuple[float, ...]) -> float:
    """Weighted average of the active rule singletons in float arithmetic."""
    if len(xs) != rspec.n:
        raise ValueError(f"expected {rspec.n} inputs, got {len(xs)}")
    pairs = [active_pair_real(part, x) for part, x in zip(rspec.partitions, xs)]
    num, den = fire(firing_plan(rspec.n, rspec.m), *pair_operands(pairs, rspec.m),
                    min if rspec.and_method == MIN else math.prod, rspec.singletons)
    if den == 0.0:
        raise DenominatorZero(REAL_ZERO_DENOMINATOR)
    return num / den


def pair_tables_real(spec: FlcSpec, rspec: RealFlcSpec) -> tuple[ActivePair, ...]:
    """Per-input real pair tables over the codes 0 .. 2^in_bits - 1 of spec,
    equal to active_pair_real at every code lifted as in infer_real's callers
    (x / 2^in_bits), with membership_real's divisions."""
    import numpy as np
    size = 1 << spec.in_bits
    with np.errstate(divide="ignore", invalid="ignore"):  # 0 / 0 off the edges
        return tuple(axis_pairs(part, np.arange(size) / size, 1.0, np.divide, np.float64)
                     for part in rspec.partitions)


def infer_real_batch(rspec: RealFlcSpec, pairs: Sequence[ActivePair]) -> np.ndarray:
    """infer_real at every point of a block of gathered real pairs, by the
    same `fire` as the scalar path."""
    import numpy as np
    ys = np.array(rspec.singletons, dtype=np.float64)
    combine = np.minimum if rspec.and_method == MIN else np.multiply
    num, den = fire(firing_plan(rspec.n, rspec.m), *pair_operands(pairs, rspec.m),
                    functools.partial(functools.reduce, combine), ys)
    if np.any(den == 0.0):
        raise DenominatorZero(REAL_ZERO_DENOMINATOR)
    return num / den


def _envelope_floor(partition, in_bits: int, alpha_bits: int) -> int:
    """Smallest over the universe of the largest fixed-point degree at a code.

    Cut at every a, b, c + 1 and d + 1, the universe falls into segments on
    which each MF keeps one branch of `membership`, so each degree is monotone
    there. On a segment the envelope is max(U, D), the largest nondecreasing
    and the largest nonincreasing degree. U - D never decreases, so the
    minimum sits at the first code with U >= D, found by bisection, or at the
    code before it. Degrees come from `membership` and no breakpoint order is
    assumed, so the floor equals a scan of every code on any partition.
    """
    if not partition:
        raise ValueError("a partition needs at least one membership function")
    worst = (1 << alpha_bits) - 1
    size = 1 << in_bits
    edges = {p for mf in partition for p in (mf.a, mf.b, mf.c + 1, mf.d + 1)}
    cuts = sorted({0, size} | {p for p in edges if 0 < p < size})

    degree = functools.partial(membership, alpha_bits=alpha_bits)

    def envelope(mfs, x: int) -> int:
        return max((degree(mf, x) for mf in mfs), default=0)

    for lo, end in zip(cuts, cuts[1:]):
        hi = end - 1
        live = [mf for mf in partition if mf.a <= lo and hi <= mf.d]  # others are 0
        up = [mf for mf in live if degree(mf, lo) < degree(mf, hi)]
        down = [mf for mf in live if mf not in up]
        first, last = lo, end  # first code of the segment with U >= D, or end
        while first < last:
            mid = (first + last) // 2
            if envelope(up, mid) >= envelope(down, mid):
                last = mid
            else:
                first = mid + 1
        if first > lo:
            worst = min(worst, envelope(down, first - 1))
        if first < end:
            worst = min(worst, envelope(up, first))
    return worst


def quantization_bound(spec: FlcSpec) -> float:
    """A-priori bound on |lifted fixed output - infer_real| in [0, 1].

    Error sources, all one-sided (the fixed weight never exceeds the real one):
      * edge truncation plus the (2^a - 1)/2^a scale mismatch: at most
        2 degree-LSBs per input degree;
      * PROD fold truncation: one further degree-LSB per fold, n - 1 folds;
      * final truncating division: one consequent-LSB.
    The weight perturbation moves the 2^n-rule weighted average by at most
    (sum of perturbations) / (fixed denominator), so the denominator is
    floored by the minimum of each input's degree envelope, found by a
    bisection of about in_bits steps on each of at most 4m + 1 monotone
    segments (`_envelope_floor`). Returns the vacuous bound 1.0 if that floor
    is zero (outputs live in [0, 1] regardless).
    """
    a = spec.alpha_bits
    deg_lsb = 1.0 / (1 << a)
    per_degree = 2.0 * deg_lsb
    if spec.and_method == MIN:
        eps_w = per_degree
    else:
        eps_w = spec.n * per_degree + (spec.n - 1) * deg_lsb

    env = [
        _envelope_floor(part, spec.in_bits, a) * deg_lsb for part in spec.partitions
    ]
    if spec.and_method == MIN:
        den_floor = min(env)
    else:
        den_floor = math.prod(env) - (spec.n - 1) * deg_lsb
    if den_floor <= 0.0:
        return 1.0

    division = 1.0 / (1 << spec.cons_bits)
    return division + (2**spec.n * eps_w) / den_floor
