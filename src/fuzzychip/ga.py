"""Hardware-style genetic algorithm engine.

Integer-only GA mirroring a six-block micro-architecture: control loop,
fitness evaluation, roulette-wheel selection, switchable crossover and
mutation operators, and a stopping-criteria observer, all fed by 16-bit
maximal-length LFSR streams. Four independent streams are used in a fixed
order: population init, then selection / crossover / mutation, so every run
is reproducible from its four seeds.

A word is sixteen single-bit shifts (lfsr_step, the specification). The
word equals the state it started from, and the next state, a GF(2)-linear
map of it, is the XOR of two 256-entry table reads, one per state byte;
lfsr_next says why. Every stream walks the same cycle of 65,535 words, so
bulk draws are slices of one precomputed orbit (_orbit), built on first use.

Genomes are unsigned ints of genom_lngt bits (bit 0 = LSB); scores are
unsigned ints of score_sz bits.
"""

from __future__ import annotations

import json
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cache, lru_cache
from itertools import accumulate
from typing import Callable, NamedTuple, Sequence

import numpy as np

LFSR_TAPS = (16, 15, 13, 4)  # maximal-length polynomial, period 2^16 - 1

SINGLE_POINT = "single_point"
TWO_POINT = "two_point"
UNIFORM = "uniform"
CROSS_METHODS = (SINGLE_POINT, TWO_POINT, UNIFORM)

SINGLE_BIT = "single_bit"
BIT_FLIP = "bit_flip"
MUT_METHODS = (SINGLE_BIT, BIT_FLIP)

MAX_GEN = "max_gen"
FITNESS_LIMIT = "fitness_limit"

# largest genom_lngt and pop_sz a config may ask for: a gated bit_flip child
# still consumes one word per bit (read as one slice of the orbit, not bit by
# bit), so a generation's time and draws grow with both
GA_MAX_SIZE = 4096


class AllZeroFitness(ValueError):
    """Roulette selection is undefined when every score is zero."""


# ---- LFSR random streams ----


def lfsr_step(state: int) -> tuple[int, int]:
    """One Fibonacci shift: output = bit shifted off the LSB end, feedback
    enters at the MSB. Taps are polynomial exponents, so the feedback XORs
    the bits at positions (tap mod 16); tap 16 reads the outgoing bit, which
    keeps the map invertible. The emitted stream obeys
    s[k+16] = s[k+15] ^ s[k+13] ^ s[k+4] ^ s[k]."""
    fb = 0
    for tap in LFSR_TAPS:
        fb ^= (state >> (tap % 16)) & 1
    return (state >> 1) | (fb << 15), state & 1


def _advance16(state: int) -> int:
    for _ in range(16):
        state, _ = lfsr_step(state)
    return state


def _byte_table(columns: Sequence[int]) -> tuple[int, ...]:
    """Images under _advance16 of all 256 bytes, given the images of their
    eight single bits: a byte's image is the XOR of its bits' images."""
    table = [0] * 256
    for b in range(1, 256):
        low = (b & -b).bit_length() - 1
        table[b] = table[b & (b - 1)] ^ columns[low]
    return tuple(table)


_COLUMNS = [_advance16(1 << i) for i in range(16)]
_NEXT_LO = _byte_table(_COLUMNS[:8])  # low byte of the state
_NEXT_HI = _byte_table(_COLUMNS[8:])  # high byte of the state


def _reject_state(state: int) -> None:
    raise ValueError(f"LFSR state must be a nonzero 16-bit value, got {state}")


def lfsr_next(state: int) -> tuple[int, int]:
    """Sixteen lfsr_step calls in one lookup; returns (new state, word).

    Each step shifts the state right by one and emits the bit shifted out,
    so after sixteen steps the bits emitted LSB-first are exactly the bits
    of the starting state: the word is the state itself. The new state is a
    linear map of the old one over GF(2) (shifts and XORs only), so it is
    the XOR of the images of the low byte and of the high byte, read from
    two 256-entry tables built from lfsr_step at import. State 0 is
    absorbing: rejected."""
    if not 0 < state < 0x10000:
        _reject_state(state)
    return _NEXT_LO[state & 0xFF] ^ _NEXT_HI[state >> 8], state


LFSR_PERIOD = (1 << 16) - 1  # words per cycle of every stream


class _Orbit(NamedTuple):
    words: array  # 'H': the stream from state 1, two periods and two words long
    le_bytes: bytes  # the same words, little-endian, for multi-word values
    index: array  # 'H': state -> its position in the first period


@cache
def _orbit() -> _Orbit:
    """The stream from state 1, built by doubling in a few ms on first use.

    With A the word map of lfsr_next, the word 2^j places after position i
    is A^(2^j) of the word at i, so each doubling is one numpy read of the
    byte tables of A^(2^j); those of A^(2^(j+1)) are A^(2^j) applied to
    them (Haramoto et al., efficient jump ahead for F2-linear generators).
    A slice of up to one period from a first-period position never runs
    off the end."""
    words = np.empty(1 << 17, dtype=np.uint16)
    words[0] = 1
    lo, hi = np.array(_NEXT_LO, np.uint16), np.array(_NEXT_HI, np.uint16)
    n = 1
    while n < len(words):
        head = words[:n]
        words[n:2 * n] = lo[head & 0xFF] ^ hi[head >> 8]
        lo, hi = lo[lo & 0xFF] ^ hi[lo >> 8], lo[hi & 0xFF] ^ hi[hi >> 8]
        n *= 2
    index = np.zeros(1 << 16, dtype=np.uint16)
    index[words[:LFSR_PERIOD]] = np.arange(LFSR_PERIOD, dtype=np.uint16)
    return _Orbit(array("H", words.tobytes()), words.astype("<u2").tobytes(),
                  array("H", index.tobytes()))


@lru_cache(maxsize=4)
def _hit_string(mr: int, mut_res: int) -> bytes:
    """Byte i from the end is b'1' iff orbit word i is below mr mod 2^mut_res:
    reversed, so that a slice read by int(..., 2) puts word i at bit i."""
    words = np.frombuffer(_orbit().words, dtype=np.uint16)
    hits = (words & ((1 << mut_res) - 1)) < mr
    return (hits[::-1].astype(np.uint8) + ord("0")).tobytes()


class Lfsr16:
    """Mutable word-at-a-time stream with the transitions of lfsr_next.
    state is the next word; every draw rejects a corrupted one."""

    def __init__(self, seed: int):
        if not 0 < seed < (1 << 16):
            raise ValueError(f"seed must be a nonzero 16-bit value, got {seed}")
        self.state = seed

    def next_word(self) -> int:
        word = self.state
        if not 0 < word < 0x10000:
            _reject_state(word)
        self.state = _NEXT_LO[word & 0xFF] ^ _NEXT_HI[word >> 8]
        return word

    def _take(self, count: int) -> tuple[_Orbit, int]:
        """The orbit and the position of the next word in it; skips `count`
        words, 0 <= count <= LFSR_PERIOD."""
        state = self.state
        if not 0 < state < 0x10000:
            _reject_state(state)
        if count > LFSR_PERIOD:
            raise ValueError(f"one orbit read covers at most {LFSR_PERIOD} words, got {count}")
        orbit = _orbit()
        pos = orbit.index[state]
        self.state = orbit.words[pos + count]
        return orbit, pos

    def next_words(self, count: int) -> list[int]:
        """The next `count` words, as `count` next_word calls would give:
        one orbit slice per period."""
        words = []
        while True:
            take = min(max(count, 0), LFSR_PERIOD)
            orbit, pos = self._take(take)
            words += orbit.words[pos:pos + take].tolist()
            count -= take
            if count <= 0:
                return words


def _draw_bits(rng: Lfsr16, bits: int) -> int:
    """A bits-wide value from the next ceil(bits / 16) words, first word
    lowest: one little-endian read of the orbit."""
    count = (bits + 15) // 16
    orbit, pos = rng._take(count)
    value = int.from_bytes(orbit.le_bytes[2 * pos:2 * (pos + count)], "little")
    return value & ((1 << bits) - 1)


def _flip_mask(rng: Lfsr16, bits: int, mr: int, mut_res: int) -> int:
    """The bits mutate's bit_flip loop would flip with the next `bits` words:
    bit b set iff (word b mod 2^mut_res) < mr. One read of _hit_string."""
    hits = _hit_string(mr, mut_res)
    end = len(hits) - rng._take(bits)[1]
    return int(hits[end - bits:end], 2)


# ---- configuration and population ----


@dataclass(frozen=True)
class GaConfig:
    """Engine parameters. Defaults are the 16-bit / 32-individual profile.

    mr is compared against (word mod 2^mut_res), so the per-genome mutation
    probability is mr / 2^mut_res. cross_method / mut_method accept one name
    or a per-generation schedule (the last entry persists).
    """

    genom_lngt: int = 16
    score_sz: int = 16
    pop_sz: int = 32
    scaling_factor_res: int = 4
    elite: int = 2
    mr: int = 80
    mut_res: int = 8
    cross_method: str | tuple[str, ...] = SINGLE_POINT
    mut_method: str | tuple[str, ...] = SINGLE_BIT
    max_gen: int = 100
    fitness_limit: int | None = None
    seeds: tuple[int, int, int, int] = (0xACE1, 0x1234, 0x5EED, 0x0F0F)

    def problems(self) -> list[str]:
        out = []
        if not 2 <= self.genom_lngt <= GA_MAX_SIZE:
            out.append(f"genom_lngt must be 2..{GA_MAX_SIZE}")
        if not 1 <= self.score_sz <= 32:
            out.append("score_sz must be 1..32")
        if not 2 <= self.pop_sz <= GA_MAX_SIZE or self.pop_sz % 2:
            out.append(f"pop_sz must be even and 2..{GA_MAX_SIZE}")
        if not 0 <= self.elite < self.pop_sz:
            out.append("elite must be in 0 .. pop_sz - 1")
        if not 1 <= self.scaling_factor_res <= 16:
            out.append("scaling_factor_res must be 1..16")
        if not 1 <= self.mut_res <= 16:
            out.append("mut_res must be 1..16")
        elif not 0 <= self.mr < (1 << self.mut_res):  # 2^mut_res needs a valid mut_res
            out.append("mr must be in 0 .. 2^mut_res - 1")
        if self.max_gen < 0:
            out.append("max_gen must be >= 0")
        for field, known in (("cross_method", CROSS_METHODS), ("mut_method", MUT_METHODS)):
            schedule = _as_schedule(getattr(self, field))
            if not schedule:
                out.append(f"{field} schedule is empty")
            for name in schedule:
                if name not in known:
                    out.append(f"unknown {field} {name!r}")
        if len(self.seeds) != 4 or any(not 0 < s < (1 << 16) for s in self.seeds):
            out.append("seeds must be four nonzero 16-bit values")
        return out

    def validate(self) -> None:
        problems = self.problems()
        if problems:
            raise ValueError("; ".join(problems))


def _as_schedule(method: str | Sequence[str]) -> tuple[str, ...]:
    if isinstance(method, str):
        return (method,)
    return tuple(method)


def method_for(method: str | Sequence[str], generation: int) -> str:
    """Per-generation method schedule lookup; the last entry persists."""
    schedule = _as_schedule(method)
    return schedule[min(generation, len(schedule) - 1)]


@dataclass(frozen=True)
class Population:
    genomes: tuple[int, ...]
    scores: tuple[int, ...]
    # found once per population: run and its observer both ask for it
    _best: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_best", self.scores.index(max(self.scores)))

    def best_index(self) -> int:
        """Highest score, ties broken by lower index."""
        return self._best


@dataclass(frozen=True)
class GaResult:
    best_genome: int
    best_score: int
    generations_run: int
    stop_reason: str


# ---- operators ----


def roulette_select(pop: Population, r: int, res: int) -> int:
    """Roulette wheel: threshold T = floor(r * sum / 2^res), pick the smallest
    index whose cumulative score strictly exceeds T. r must be < 2^res."""
    total = sum(pop.scores)
    if total == 0:
        raise AllZeroFitness("cannot spin a roulette wheel over all-zero scores")
    if not 0 <= r < (1 << res):
        raise ValueError(f"r must be in 0 .. 2^{res} - 1, got {r}")
    threshold = (r * total) >> res
    acc = 0
    for i, s in enumerate(pop.scores):
        acc += s
        if acc > threshold:
            return i
    raise AssertionError("unreachable: threshold < total by construction")


def _roulette_picks(scores: Sequence[int], words: Sequence[int], res: int) -> list[int]:
    """roulette_select(pop, word mod 2^res, res) for each word, from one
    cumulative wheel: the smallest index whose running sum strictly exceeds
    T is bisect_right(wheel, T). The scores must not all be zero."""
    wheel = list(accumulate(scores))
    total, mask = wheel[-1], (1 << res) - 1
    return [bisect_right(wheel, ((word & mask) * total) >> res) for word in words]


def crossover(
    p1: int, p2: int, bits: int, method: str, rng: Lfsr16
) -> tuple[int, int]:
    """Two parents to two children. Draw budget is fixed per method:
    single_point 1 word, two_point 2 words, uniform ceil(bits / 16) words."""
    if method == SINGLE_POINT:
        k = 1 + rng.next_word() % (bits - 1)  # cut in 1 .. bits - 1
        mask = (1 << k) - 1  # bits below the cut swap
    elif method == TWO_POINT:
        k1 = 1 + rng.next_word() % (bits - 1)
        k2 = 1 + rng.next_word() % (bits - 1)
        lo, hi = min(k1, k2), max(k1, k2)
        mask = ((1 << hi) - 1) ^ ((1 << lo) - 1)  # middle segment swaps
    elif method == UNIFORM:
        mask = _draw_bits(rng, bits)  # set bits swap
    else:
        raise ValueError(f"unknown cross_method {method!r}")
    c1 = (p1 & ~mask) | (p2 & mask)
    c2 = (p2 & ~mask) | (p1 & mask)
    return c1, c2


def mutate(g: int, bits: int, method: str, mr: int, mut_res: int, rng: Lfsr16) -> int:
    """Gate draw first: mutate only if (word mod 2^mut_res) < mr.

    single_bit then flips one rng-chosen bit; bit_flip re-tests every bit
    position with a fresh draw (so a gated genome may still come back
    unchanged). Draw budget when gated: 1 word or `bits` words."""
    gate = rng.next_word() & ((1 << mut_res) - 1)
    if gate >= mr:
        return g
    if method == SINGLE_BIT:
        return g ^ (1 << (rng.next_word() % bits))
    if method == BIT_FLIP:
        res_mask = (1 << mut_res) - 1
        for b, word in enumerate(rng.next_words(bits)):
            if (word & res_mask) < mr:
                g ^= 1 << b
        return g
    raise ValueError(f"unknown mut_method {method!r}")


def apply_elitism(
    old: Population,
    child_genomes: Sequence[int],
    child_scores: Sequence[int],
    elite: int,
) -> Population:
    """Elites first (top scores from the previous generation, ties by lower
    index, carried with their known scores), then the children."""
    # reverse=True keeps the sort stable: equal scores stay in index order
    order = sorted(range(len(old.genomes)), key=old.scores.__getitem__, reverse=True)
    keep = order[:elite]
    genomes = tuple([old.genomes[i] for i in keep] + list(child_genomes))
    scores = tuple([old.scores[i] for i in keep] + list(child_scores))
    return Population(genomes, scores)


# ---- generation loop ----


def _clamp_score(value: int, score_sz: int) -> int:
    return min(max(int(value), 0), (1 << score_sz) - 1)


def step_generation(
    pop: Population,
    cfg: GaConfig,
    fitness_fn: Callable[[int], int],
    rngs: tuple[Lfsr16, Lfsr16, Lfsr16],
    generation: int = 0,
) -> Population:
    """One generation: select pop_sz - elite parents, pair them consecutively,
    cross, mutate, evaluate, then prepend the elites.

    rngs are the (selection, crossover, mutation) streams. Selection consumes
    exactly one word per parent whether or not the all-zero-fitness fallback
    (uniform pick, index = word mod pop_sz) is active. With an odd parent
    count the final parent skips crossover and is mutated as-is. A gated
    bit_flip child takes mutate's flips from one orbit read (_flip_mask).

    fitness_fn must be pure: a child equal to a genome of pop, or to an
    earlier child of this generation, takes that genome's known score
    instead of a new fitness_fn call (elitism already carries scores so).
    """
    sel_rng, cross_rng, mut_rng = rngs
    words = sel_rng.next_words(cfg.pop_sz - cfg.elite)
    genomes = pop.genomes
    if sum(pop.scores) == 0:
        picks = [word % cfg.pop_sz for word in words]
    else:
        picks = _roulette_picks(pop.scores, words, cfg.scaling_factor_res)
    parents = [genomes[i] for i in picks]

    cross = method_for(cfg.cross_method, generation)
    children = []
    for i in range(0, len(parents) - 1, 2):
        c1, c2 = crossover(parents[i], parents[i + 1], cfg.genom_lngt, cross, cross_rng)
        children.extend((c1, c2))
    if len(parents) % 2:
        children.append(parents[-1])

    mut = method_for(cfg.mut_method, generation)
    bits, mr, mut_res = cfg.genom_lngt, cfg.mr, cfg.mut_res
    gate_mask = (1 << mut_res) - 1
    for i, c in enumerate(children):
        if mut != BIT_FLIP:
            children[i] = mutate(c, bits, mut, mr, mut_res, mut_rng)
        elif (mut_rng.next_word() & gate_mask) < mr:  # mutate's gate, then its flips
            children[i] = c ^ _flip_mask(mut_rng, bits, mr, mut_res)
    known = dict(zip(genomes, pop.scores))
    scores = []
    for c in children:
        score = known.get(c)
        if score is None:
            score = known[c] = _clamp_score(fitness_fn(c), cfg.score_sz)
        scores.append(score)
    return apply_elitism(pop, children, scores, cfg.elite)


def init_population(cfg: GaConfig, fitness_fn, rng: Lfsr16) -> Population:
    """Generation 0 drawn from the init stream, one genome at a time."""
    genomes = tuple(_draw_bits(rng, cfg.genom_lngt) for _ in range(cfg.pop_sz))
    scores = tuple(_clamp_score(fitness_fn(g), cfg.score_sz) for g in genomes)
    return Population(genomes, scores)


def run(
    cfg: GaConfig,
    fitness_fn: Callable[[int], int],
    on_generation: Callable[[int, Population], None] | None = None,
) -> GaResult:
    """Full GA run. The observer checks fitness_limit before max_gen, so a
    satisfied limit on generation 0 stops before any stepping.

    fitness_fn must be pure (same genome, same score): step_generation
    reuses the scores of genomes it has already seen."""
    cfg.validate()
    streams = [Lfsr16(s) for s in cfg.seeds]
    pop = init_population(cfg, fitness_fn, streams[0])
    rngs = (streams[1], streams[2], streams[3])

    generation = 0
    while True:
        if on_generation is not None:
            on_generation(generation, pop)
        best = pop.best_index()
        if cfg.fitness_limit is not None and pop.scores[best] >= cfg.fitness_limit:
            return GaResult(pop.genomes[best], pop.scores[best], generation, FITNESS_LIMIT)
        if generation >= cfg.max_gen:
            return GaResult(pop.genomes[best], pop.scores[best], generation, MAX_GEN)
        pop = step_generation(pop, cfg, fitness_fn, rngs, generation)
        generation += 1


# ---- serialization ----


def config_to_dict(cfg: GaConfig) -> dict:
    def fold(method):
        sched = _as_schedule(method)
        return sched[0] if len(sched) == 1 else list(sched)

    return {
        "genom_lngt": cfg.genom_lngt,
        "score_sz": cfg.score_sz,
        "pop_sz": cfg.pop_sz,
        "scaling_factor_res": cfg.scaling_factor_res,
        "elite": cfg.elite,
        "mr": cfg.mr,
        "mut_res": cfg.mut_res,
        "cross_method": fold(cfg.cross_method),
        "mut_method": fold(cfg.mut_method),
        "max_gen": cfg.max_gen,
        "fitness_limit": cfg.fitness_limit,
        "seeds": list(cfg.seeds),
    }


def config_from_dict(data: dict) -> GaConfig:
    def unfold(value, fallback):
        if value is None:
            return fallback
        if isinstance(value, str):
            return value
        return tuple(str(v) for v in value)

    if not isinstance(data, dict):
        raise ValueError("GA config must be a JSON object")
    try:
        limit = data.get("fitness_limit")
        return GaConfig(
            genom_lngt=int(data.get("genom_lngt", 16)),
            score_sz=int(data.get("score_sz", 16)),
            pop_sz=int(data.get("pop_sz", 32)),
            scaling_factor_res=int(data.get("scaling_factor_res", 4)),
            elite=int(data.get("elite", 2)),
            mr=int(data.get("mr", 80)),
            mut_res=int(data.get("mut_res", 8)),
            cross_method=unfold(data.get("cross_method"), SINGLE_POINT),
            mut_method=unfold(data.get("mut_method"), SINGLE_BIT),
            max_gen=int(data.get("max_gen", 100)),
            fitness_limit=None if limit is None else int(limit),
            seeds=tuple(int(s) for s in data.get("seeds", GaConfig.seeds)),
        )
    except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: int(1e999)
        raise ValueError(f"malformed GA config document: {exc}") from exc


def load_config(path) -> GaConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_dict(json.load(fh))


def dump_config(cfg: GaConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config_to_dict(cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")
