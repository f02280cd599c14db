"""Fixed-point zero-order Takagi-Sugeno inference core.

Models the datapath of a pipelined fuzzy controller: trapezoidal membership
evaluation in integer arithmetic, active-rule selection under an overlap-2
partition, MIN/PROD antecedent combination, weighted-average defuzzification
with truncating division, and a cycle/latency model for the standard
(one active rule per clock) and odd-even (two active rules per clock)
processing schedules.

Every inference path sums the 2^n active rules through one function,
`fire`, over one `firing_plan`. The scalar path (`infer`, the tracker) runs on
`compile(spec)`, which memoises each input's `active_pair` per code on first
use. Batched inference (`pair_tables`, `infer_batch`) lowers a spec to one
`PairTable` per input -- `left`, `deg_left` and `deg_right` for every code,
each filled by one scalar `active_pair` call -- and fires a block of points
with numpy arrays in place of scalars. The membership arithmetic is never
re-implemented, so every path equals `infer_full_rulebase` point for point.

Width conventions:
    input codes       in_bits     unsigned
    degrees of truth  alpha_bits  0 .. 2^alpha_bits - 1
    rule singletons   cons_bits
    output            out_bits    consequent code left-shifted by
                                  (out_bits - cons_bits)
"""

from __future__ import annotations

import functools
import itertools
import json
import operator
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .fixedq import FixedWord, round_half_away

MIN = "min"
PROD = "prod"
AND_METHODS = (MIN, PROD)

STANDARD = "standard"
ODD_EVEN = "odd_even"
MODES = (STANDARD, ODD_EVEN)
MAX_STAGES = 65535  # deepest pipeline; a huge int overflowed stages * clock_ns


class DenominatorZero(ArithmeticError):
    """No rule fired with nonzero weight; the weighted average is undefined."""


ZERO_DENOMINATOR = "all rule weights are zero for this input vector"


# ---- membership functions and partitions ----


@dataclass(frozen=True)
class MembershipFunction:
    """Trapezoid breakpoints as input-universe codes; triangular iff b == c.

    Zero outside [a, d], full scale on [b, c], linear (floored) on the edges.
    """

    a: int
    b: int
    c: int
    d: int


def membership(mf: MembershipFunction, x: int, alpha_bits: int) -> int:
    """Degree of truth of code x in mf.

    Edges use integer floor division, so a long edge can truncate to zero
    strictly inside the support. Degenerate edges (a == b, c == d) hit the
    plateau branch first and return full scale at the shared point.
    """
    top = (1 << alpha_bits) - 1
    if x < mf.a or x > mf.d:
        return 0
    if mf.b <= x <= mf.c:
        return top
    if x < mf.b:
        return top * (x - mf.a) // (mf.b - mf.a)
    return top * (mf.d - x) // (mf.d - mf.c)


def uniform_partition(in_bits: int, m: int) -> tuple[MembershipFunction, ...]:
    """m triangular MFs with evenly spaced peaks over the full input universe.

    Interior peaks sit at round(i * top / (m - 1)); the end MFs shoulder the
    universe bounds. Adjacent supports meet at the peaks, so real-valued
    memberships of the two active sets always sum to full scale.
    """
    if m < 2:
        raise ValueError("a partition needs at least 2 membership functions")
    top = (1 << in_bits) - 1
    peaks = [round_half_away(i * top / (m - 1)) for i in range(m)]
    mfs = []
    for i in range(m):
        a = peaks[i - 1] if i > 0 else 0
        d = peaks[i + 1] if i < m - 1 else top
        mfs.append(MembershipFunction(a, peaks[i], peaks[i], d))
    return tuple(mfs)


# ---- specification ----


@dataclass(frozen=True)
class FlcSpec:
    """Complete parameterization of one controller instance.

    partitions: one MF tuple per input, all of equal length m.
    singletons: m^n consequent codes indexed by rule address
                (input 0 is the least significant digit, base m).
    stages/clock_ns feed the timing model only.
    """

    in_bits: int
    out_bits: int
    alpha_bits: int
    cons_bits: int
    partitions: tuple[tuple[MembershipFunction, ...], ...]
    singletons: tuple[int, ...]
    and_method: str = MIN
    mode: str = STANDARD
    stages: int = 11
    clock_ns: float = 10.0

    @property
    def n(self) -> int:
        return len(self.partitions)

    @property
    def m(self) -> int:
        return len(self.partitions[0])


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    problems: tuple[str, ...]


def validate_spec(spec: FlcSpec) -> ValidationReport:
    """Structural invariant check; collects every violation instead of raising."""
    problems: list[str] = []
    for bits, name in (
        (spec.in_bits, "in_bits"),
        (spec.out_bits, "out_bits"),
        (spec.alpha_bits, "alpha_bits"),
        (spec.cons_bits, "cons_bits"),
    ):
        if not 1 <= bits <= 32:
            problems.append(f"{name}={bits} outside 1..32")
    if spec.out_bits < spec.cons_bits:
        problems.append("out_bits must be >= cons_bits (output is a pure left shift)")
    if spec.and_method not in AND_METHODS:
        problems.append(f"unknown and_method {spec.and_method!r}")
    if spec.mode not in MODES:
        problems.append(f"unknown mode {spec.mode!r}")
    if not 1 <= spec.stages <= MAX_STAGES:
        problems.append(f"stages={spec.stages} outside 1..{MAX_STAGES}")
    if not 0 < spec.clock_ns < float("inf"):  # NaN fails this too
        problems.append(f"clock_ns={spec.clock_ns} must be positive and finite")
    if not (1 <= spec.in_bits <= 32 and 1 <= spec.cons_bits <= 32):
        # the universe checks below need 2^in_bits and 2^cons_bits
        return ValidationReport(False, tuple(problems))
    top_in = (1 << spec.in_bits) - 1

    if not spec.partitions:
        problems.append("no input partitions")
        return ValidationReport(False, tuple(problems))

    m = spec.m
    if m < 2:
        problems.append("partitions need at least 2 MFs for pairwise active selection")
    if any(len(p) != m for p in spec.partitions):
        problems.append("all partitions must have the same MF count")
        return ValidationReport(False, tuple(problems))
    if m == 0:  # reported above; the checks below need an MF
        return ValidationReport(False, tuple(problems))

    for k, part in enumerate(spec.partitions):
        for i, mf in enumerate(part):
            if not (mf.a <= mf.b <= mf.c <= mf.d):
                problems.append(f"input {k} MF {i}: breakpoints not ordered")
            if mf.a < 0 or mf.d > top_in:
                problems.append(f"input {k} MF {i}: support outside the universe")
        for i in range(m - 1):
            if part[i].b > part[i + 1].b:
                problems.append(f"input {k}: peak order violated at MF {i}")
            if part[i + 1].a > part[i].d:
                problems.append(f"input {k}: coverage gap between MF {i} and {i + 1}")
        for i in range(m - 2):
            lo, hi = part[i], part[i + 2]
            if lo.d > hi.a:
                problems.append(f"input {k}: MFs {i} and {i + 2} overlap")
            elif lo.d == hi.a and lo.c == lo.d and hi.a == hi.b:
                # touching plateaus make three sets nonzero at one code, which
                # defeats the pairwise active-rule selection the overlap-2
                # invariant exists to guarantee
                problems.append(f"input {k}: MFs {i} and {i + 2} share a plateau point")
        if part[0].a != 0:
            problems.append(f"input {k}: first MF must start at 0")
        if part[-1].d != top_in:
            problems.append(f"input {k}: last MF must end at {top_in}")

    expected = m ** spec.n
    if len(spec.singletons) != expected:
        problems.append(
            f"singleton table has {len(spec.singletons)} entries, expected {expected}"
        )
    top_cons = (1 << spec.cons_bits) - 1
    if any(not 0 <= y <= top_cons for y in spec.singletons):
        problems.append("singleton outside the consequent universe")
    if not problems:  # a valid shape bounds n, so 2^n cycles fit in a float
        timing = estimate_timing(spec)
        if not (0 < timing.latency_ns < float("inf")
                and 0 < timing.sample_rate_hz < float("inf")):
            problems.append(f"clock_ns={spec.clock_ns} gives latency_ns={timing.latency_ns}"
                            f" and sample_rate_hz={timing.sample_rate_hz}; both must be"
                            " positive and finite")

    return ValidationReport(not problems, tuple(problems))


# ---- active rule selection ----


@dataclass(frozen=True)
class ActivePair:
    """The two candidate MFs of one input: indices (left, left + 1).

    The fields are scalars for one code, or arrays for a block of codes
    (`PairTable.at`).
    """

    left: int
    deg_left: int
    deg_right: int


@dataclass(frozen=True)
class ActiveRuleSet:
    """Per-input candidate pairs plus the 2^n enumerated firings.

    Each firing is (rule_address, antecedent weight, singleton).
    """

    pairs: tuple[ActivePair, ...]
    firings: tuple[tuple[int, int, int], ...]


def active_pair(
    partition: Sequence[MembershipFunction], x: int, alpha_bits: int
) -> ActivePair:
    """Lowest MF index with nonzero degree (clamped to m - 2) and both degrees.

    Under the overlap-2 invariant every nonzero degree at x lives inside the
    returned pair. If quantization floors every degree to zero the pair is
    chosen by support containment so downstream code still sees a well-formed
    (zero-weight) rule set.
    """
    m = len(partition)
    degs = [membership(mf, x, alpha_bits) for mf in partition]
    left = next((i for i, d in enumerate(degs) if d > 0), None)
    if left is None:
        left = next(
            (i for i, mf in enumerate(partition) if mf.a <= x <= mf.d), m - 1
        )
    left = min(left, m - 2)
    return ActivePair(left, degs[left], degs[left + 1])


def rule_address(indices: Sequence[int], m: int) -> int:
    """Mixed-radix rule address: input 0 is the least significant base-m digit."""
    addr = 0
    for k, idx in enumerate(indices):
        if not 0 <= idx < m:
            raise ValueError(f"MF index {idx} outside 0..{m - 1}")
        addr += idx * m**k
    return addr


def antecedent_weight(alphas: Sequence[int], method: str, alpha_bits: int) -> int:
    """Combine per-input degrees into one rule weight.

    MIN is exact; PROD folds left-to-right with (w * mu) >> alpha_bits, i.e.
    degrees renormalized as value / 2^alpha_bits, truncating each step.
    """
    if not alphas:
        raise ValueError("need at least one degree")
    if method == MIN:
        return min(alphas)
    if method == PROD:
        w = alphas[0]
        for mu in alphas[1:]:
            w = (w * mu) >> alpha_bits
        return w
    raise ValueError(f"unknown and_method {method!r}")


# ---- inference ----


@functools.cache
def firing_plan(n: int, m: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """(per-input offsets, rule-address offset) of the 2^n active rules, in
    itertools.product((0, 1), repeat=n) order, which fixes the real float bits."""
    digits = [m**k for k in range(n)]
    return tuple((offsets, sum(map(operator.mul, offsets, digits)))
                 for offsets in itertools.product((0, 1), repeat=n))


def pair_operands(pairs: Sequence[ActivePair], m: int) -> tuple[object, list]:
    """(base rule address, per-input (deg_left, deg_right)) of the pairs, for fire."""
    base = sum(p.left * m**k for k, p in enumerate(pairs))
    return base, [(p.deg_left, p.deg_right) for p in pairs]


def fire(plan, base, degs, weigh, ys) -> tuple[object, object]:
    """(num, den) over plan's firings (offsets, addr), one at a time: w = weigh(the
    degrees at offsets), num += w * ys[base + addr], den += w. Python scalars, or numpy
    arrays broadcast over a block of points (no np.sum: its order changes float bits)."""
    num = den = 0
    for offsets, addr in plan:
        w = weigh(map(operator.getitem, degs, offsets))
        num = num + w * ys[base + addr]
        den = den + w
    return num, den


def _weigher(spec: FlcSpec, minimum):
    """The rule weight of a firing's degrees: `minimum` for MIN, else the PROD fold."""
    if spec.and_method == MIN:
        return minimum
    return lambda degs: antecedent_weight(list(degs), spec.and_method, spec.alpha_bits)


def _check_inputs(spec: FlcSpec, inputs: Sequence[int]) -> None:
    if len(inputs) != spec.n:
        raise ValueError(f"expected {spec.n} inputs, got {len(inputs)}")
    top = (1 << spec.in_bits) - 1
    for k, x in enumerate(inputs):
        if not 0 <= x <= top:
            raise ValueError(f"input {k} code {x} outside 0..{top}")


def active_rules(spec: FlcSpec, inputs: Sequence[int]) -> ActiveRuleSet:
    """Select the 2^n candidate rules for one input vector and weight them."""
    _check_inputs(spec, inputs)
    pairs = tuple(
        active_pair(part, x, spec.alpha_bits)
        for part, x in zip(spec.partitions, inputs)
    )
    base, degs = pair_operands(pairs, spec.m)
    firings = []
    for offsets, addr in firing_plan(spec.n, spec.m):
        w = antecedent_weight(list(map(operator.getitem, degs, offsets)),
                              spec.and_method, spec.alpha_bits)
        firings.append((base + addr, w, spec.singletons[base + addr]))
    return ActiveRuleSet(pairs, tuple(firings))


def _defuzzify(spec: FlcSpec, num: int, den: int) -> int:
    if den == 0:
        raise DenominatorZero(ZERO_DENOMINATOR)
    return (num // den) << (spec.out_bits - spec.cons_bits)


class Controller:
    """A spec lowered once; `ctl(inputs)` is `infer(spec, inputs).value`.

    Input k's memo maps each code seen to (left * m^k, (deg_left, deg_right)),
    filled from `active_pair`; a call fires the spec's `firing_plan`.
    """

    def __init__(self, spec: FlcSpec):
        self.spec = spec
        self._memos = [{} for _ in range(spec.n)]
        self._plan = firing_plan(spec.n, spec.m)
        self._weigh = _weigher(spec, min)

    def __call__(self, inputs: Sequence[int]) -> int:
        spec = self.spec
        if len(inputs) != spec.n:
            _check_inputs(spec, inputs)  # raises the wrong-count error
        base, degs = 0, []
        for k, (memo, x) in enumerate(zip(self._memos, inputs)):
            entry = memo.get(x)
            if entry is None:  # only in-range codes are ever stored
                _check_inputs(spec, inputs)
                p = active_pair(spec.partitions[k], x, spec.alpha_bits)
                entry = memo[x] = (p.left * spec.m**k, (p.deg_left, p.deg_right))
            base += entry[0]
            degs.append(entry[1])
        return _defuzzify(spec, *fire(self._plan, base, degs, self._weigh, spec.singletons))


compile = Controller  # flc.compile(spec): lower a spec once for repeated inference


def infer(spec: FlcSpec, inputs: Sequence[int]) -> FixedWord:
    """One inference over the active rules only (hardware datapath model)."""
    return FixedWord(compile(spec)(inputs), spec.out_bits)


def infer_full_rulebase(spec: FlcSpec, inputs: Sequence[int]) -> FixedWord:
    """Same arithmetic over all m^n rules; oracle for the active-rule identity."""
    _check_inputs(spec, inputs)
    m = spec.m
    mu = [
        [membership(mf, x, spec.alpha_bits) for mf in part]
        for part, x in zip(spec.partitions, inputs)
    ]
    num = den = 0
    for idxs in itertools.product(range(m), repeat=spec.n):
        w = antecedent_weight(
            [mu[k][idx] for k, idx in enumerate(idxs)],
            spec.and_method,
            spec.alpha_bits,
        )
        if w:
            y = spec.singletons[rule_address(idxs, m)]
            num += w * y
            den += w
    return FixedWord(_defuzzify(spec, num, den), spec.out_bits)


# ---- batched inference over per-input pair tables ----


@dataclass(frozen=True)
class PairTable:
    """One input's active pair at every code of its universe, indexed by code."""

    left: np.ndarray
    deg_left: np.ndarray
    deg_right: np.ndarray

    def at(self, codes: np.ndarray) -> ActivePair:
        """The pairs of an array of codes; each must lie in the universe."""
        return ActivePair(self.left[codes], self.deg_left[codes], self.deg_right[codes])


def tabulate_pairs(pair_at, size: int, dtype) -> PairTable:
    """PairTable of the scalar pair_at(x) for x in 0 .. size - 1."""
    table = PairTable(np.empty(size, np.intp), np.empty(size, dtype), np.empty(size, dtype))
    for x in range(size):
        pair = pair_at(x)
        table.left[x] = pair.left
        table.deg_left[x] = pair.deg_left
        table.deg_right[x] = pair.deg_right
    return table


def batch_dtype(spec: FlcSpec):
    """Integer dtype of the batched datapath.

    num sums 2^n products w * y < 2^(alpha_bits + cons_bits) and a PROD fold
    step forms w * mu < 2^(2 * alpha_bits). int64 holds both while those
    exponents stay at or below 62; wider specs run the same code on object
    arrays of Python ints.
    """
    if spec.alpha_bits + spec.cons_bits + spec.n <= 62 and 2 * spec.alpha_bits <= 62:
        return np.int64
    return object


def pair_tables(spec: FlcSpec) -> tuple[PairTable, ...]:
    """Per-input pair tables over 0 .. 2^in_bits - 1, from active_pair."""
    dtype = batch_dtype(spec)
    return tuple(
        tabulate_pairs(
            lambda x, part=part: active_pair(part, x, spec.alpha_bits),
            1 << spec.in_bits,
            dtype,
        )
        for part in spec.partitions
    )


def infer_batch(spec: FlcSpec, pairs: Sequence[ActivePair]) -> np.ndarray:
    """infer(spec, xs).value at every point of a block of gathered pairs.

    Same integer arithmetic as infer, on the dtype of the tables: MIN or the
    PROD fold per firing, then num // den and the output shift. Raises
    DenominatorZero if any point of the block has a zero denominator.
    """
    ys = np.array(spec.singletons, dtype=pairs[0].deg_left.dtype)
    weigh = _weigher(spec, functools.partial(functools.reduce, np.minimum))
    num, den = fire(firing_plan(spec.n, spec.m), *pair_operands(pairs, spec.m), weigh, ys)
    if np.any(den == 0):
        raise DenominatorZero(ZERO_DENOMINATOR)
    return (num // den) << (spec.out_bits - spec.cons_bits)


# ---- timing model ----


@dataclass(frozen=True)
class TimingReport:
    latency_ns: float
    cycles_per_sample: int
    sample_rate_hz: float


def estimate_timing(spec: FlcSpec) -> TimingReport:
    """Pipeline fill latency plus steady-state throughput.

    The standard schedule processes one active rule per clock (2^n cycles per
    sample); the odd-even schedule processes two (2^(n-1) cycles).
    """
    cycles = 1 << (spec.n - 1 if spec.mode == ODD_EVEN else spec.n)
    latency = spec.stages * spec.clock_ns
    rate = 1e9 / (spec.clock_ns * cycles)
    return TimingReport(latency, cycles, rate)


# ---- factories and serialization ----


def default_core_spec(
    singletons: Sequence[int] | None = None,
    and_method: str = MIN,
    mode: str = STANDARD,
    stages: int = 11,
    clock_ns: float = 10.0,
) -> FlcSpec:
    """The shipped 4-input core: 12-bit I/O, 7 MFs per input, 2401 rules.

    Default singletons form a smooth monotone surface (mean MF index scaled
    over the consequent universe); pass an explicit table for real rulebases.
    """
    n, m = 4, 7
    parts = tuple(uniform_partition(12, m) for _ in range(n))
    if singletons is None:
        top = (1 << 8) - 1
        singletons = tuple(
            round_half_away(top * sum(idxs) / (n * (m - 1)))
            for idxs in itertools.product(range(m), repeat=n)
        )
    return FlcSpec(
        in_bits=12,
        out_bits=12,
        alpha_bits=8,
        cons_bits=8,
        partitions=parts,
        singletons=tuple(singletons),
        and_method=and_method,
        mode=mode,
        stages=stages,
        clock_ns=clock_ns,
    )


def spec_to_dict(spec: FlcSpec) -> dict:
    return {
        "in_bits": spec.in_bits,
        "out_bits": spec.out_bits,
        "alpha_bits": spec.alpha_bits,
        "cons_bits": spec.cons_bits,
        "and_method": spec.and_method,
        "mode": spec.mode,
        "stages": spec.stages,
        "clock_ns": spec.clock_ns,
        "partitions": [
            [[mf.a, mf.b, mf.c, mf.d] for mf in part] for part in spec.partitions
        ],
        "singletons": list(spec.singletons),
    }


def spec_from_dict(data: dict) -> FlcSpec:
    try:
        partitions = tuple(
            tuple(MembershipFunction(*map(int, mf)) for mf in part)
            for part in data["partitions"]
        )
        return FlcSpec(
            in_bits=int(data["in_bits"]),
            out_bits=int(data["out_bits"]),
            alpha_bits=int(data["alpha_bits"]),
            cons_bits=int(data["cons_bits"]),
            partitions=partitions,
            singletons=tuple(int(y) for y in data["singletons"]),
            and_method=str(data.get("and_method", MIN)),
            mode=str(data.get("mode", STANDARD)),
            stages=int(data.get("stages", 11)),
            clock_ns=float(data.get("clock_ns", 10.0)),
        )
    except (KeyError, TypeError, OverflowError) as exc:  # OverflowError: int(1e999)
        raise ValueError(f"malformed spec document: {exc}") from exc


def load_spec(path) -> FlcSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return spec_from_dict(json.load(fh))


def dump_spec(spec: FlcSpec, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec_to_dict(spec), fh, indent=2, sort_keys=True)
        fh.write("\n")


def with_mode(spec: FlcSpec, mode: str, stages: int, clock_ns: float) -> FlcSpec:
    """Same rulebase under a different processing schedule."""
    return replace(spec, mode=mode, stages=stages, clock_ns=clock_ns)
