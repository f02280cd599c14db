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
lfsr_next says why. Every stream walks the same cycle of 65,535 words, one
precomputed orbit (_orbit), built on first use.

roulette_select, crossover, mutate and apply_elitism are the specification:
they draw through Lfsr16.next_word, one word at a time, and never read the
orbit. Only the run path does: run lowers its config once (_lower) and steps
each generation through one body over the streams' orbit positions (one
selection slice, a walk over the crossover pairs and one over the mutation
gates; each population sorts its rank order once), and init_population reads
its genomes as slices. The tests compose the operators and compare.

Genomes are unsigned ints of genom_lngt bits (bit 0 = LSB); scores are
unsigned ints of score_sz bits.
"""

from __future__ import annotations

import json
import sys
from array import array
from bisect import bisect_right
from dataclasses import asdict, dataclass, field
from functools import cache, lru_cache
from itertools import accumulate
from typing import Callable, NamedTuple, Sequence

from .fixedq import json_ints

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
# consumes one word per bit, so a generation's time and draws grow with both
GA_MAX_SIZE = 4096
# largest max_gen a config may ask for; the CLI streams the log, so memory stays flat
GA_MAX_GEN = 1 << 20
# largest max_gen times the most LFSR words a generation reads: bit_flip at both
# size caps reads 17.3M a generation, so 992 at most (77 s on a 2-vCPU Xeon)
GA_MAX_WORK = 1 << 34
# largest pop_sz times max_gen, the children a run breeds and scores: at both size
# caps burma14 runs the 4,096 generations this allows in 114-140 s (2 CPUs)
GA_MAX_CHILDREN = 1 << 24


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
    import numpy as np
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
    return _Orbit(array("H", words.tobytes()), array("H", index.tobytes()))


@lru_cache(maxsize=4)
def _hit_string(mr: int, mut_res: int) -> bytes:
    """Byte i from the end is b'1' iff orbit word i is below mr mod 2^mut_res:
    reversed, so that a slice read by int(..., 2) puts word i at bit i."""
    import numpy as np
    words = np.frombuffer(_orbit().words, dtype=np.uint16)
    hits = (words & ((1 << mut_res) - 1)) < mr
    return (hits[::-1].astype(np.uint8) + ord("0")).tobytes()


def _position(state: int) -> int:
    """The orbit position of a stream's next word; rejects a corrupted state."""
    if not 0 < state < 0x10000:
        _reject_state(state)
    return _orbit().index[state]


class Lfsr16:
    """Mutable word-at-a-time stream with the transitions of lfsr_next.
    state is the next word; every draw rejects a corrupted one."""

    def __init__(self, seed: int):
        if not 0 < seed < (1 << 16):
            raise ValueError(f"seed must be a nonzero 16-bit value, got {seed}")
        self.state = seed

    def next_word(self) -> int:
        self.state, word = lfsr_next(self.state)
        return word


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
        if not 0 <= self.max_gen <= GA_MAX_GEN:
            out.append(f"max_gen must be 0..{GA_MAX_GEN}")
        for field, known in (("cross_method", CROSS_METHODS), ("mut_method", MUT_METHODS)):
            schedule = _as_schedule(getattr(self, field))
            if not schedule:
                out.append(f"{field} schedule is empty")
            for name in schedule:
                if name not in known:
                    out.append(f"unknown {field} {name!r}")
        if len(self.seeds) != 4 or any(not 0 < s < (1 << 16) for s in self.seeds):
            out.append("seeds must be four nonzero 16-bit values")
        if not out:  # per child: a selection word, half a pair's crossover, the mutation
            per_pair = max(cross_words(m, self.genom_lngt) for m in _as_schedule(self.cross_method))
            per_child = 1 + (self.genom_lngt if BIT_FLIP in _as_schedule(self.mut_method) else 1)
            words = self.pop_sz * (1 + per_child) + self.pop_sz // 2 * per_pair
            if self.max_gen * words > GA_MAX_WORK:
                out.append(f"max_gen {self.max_gen} times {words} LFSR words a generation "
                           f"is more than {GA_MAX_WORK}")
            if self.pop_sz * self.max_gen > GA_MAX_CHILDREN:
                out.append(f"pop_sz {self.pop_sz} times max_gen {self.max_gen} is more "
                           f"than {GA_MAX_CHILDREN}")
        return out

    def validate(self) -> None:
        problems = self.problems()
        if problems:
            raise ValueError("; ".join(problems))


def _as_schedule(method: str | Sequence[str]) -> tuple[str, ...]:
    if isinstance(method, str):
        return (method,)
    return tuple(method)


def cross_words(method: str, bits: int) -> int:
    """LFSR words a pair's crossover draws; uniform's mask takes a genome's words."""
    return {SINGLE_POINT: 1, TWO_POINT: 2, UNIFORM: (bits + 15) // 16}[method]


def method_for(method: str | Sequence[str], generation: int) -> str:
    """Per-generation method schedule lookup; the last entry persists."""
    schedule = _as_schedule(method)
    return schedule[min(generation, len(schedule) - 1)]


@dataclass(frozen=True)
class Population:
    genomes: tuple[int, ...]
    scores: tuple[int, ...]
    # indices by score, high first, ties by lower index: run, its observer
    # and elitism all read it, so it is sorted once per population
    order: list[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # reverse=True keeps the sort stable: equal scores stay in index order
        object.__setattr__(self, "order", sorted(
            range(len(self.scores)), key=self.scores.__getitem__, reverse=True))

    def best_index(self) -> int:
        """Highest score, ties broken by lower index."""
        return self.order[0]


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
    T is bisect_right(wheel, T). When every score is zero there is no wheel:
    each word picks index word mod len(scores) instead."""
    wheel = list(accumulate(scores))
    total, mask = wheel[-1], (1 << res) - 1
    if total == 0:
        return [word % len(scores) for word in words]
    return [bisect_right(wheel, ((word & mask) * total) >> res) for word in words]


def crossover(
    p1: int, p2: int, bits: int, method: str, rng: Lfsr16
) -> tuple[int, int]:
    """Two parents to two children, from cross_words(method, bits) LFSR
    words: single_point 1, two_point 2, uniform ceil(bits / 16) (the mask,
    first word lowest)."""
    if method == SINGLE_POINT:
        k = 1 + rng.next_word() % (bits - 1)  # cut in 1 .. bits - 1
        mask = (1 << k) - 1  # bits below the cut swap
    elif method == TWO_POINT:
        k1 = 1 + rng.next_word() % (bits - 1)
        k2 = 1 + rng.next_word() % (bits - 1)
        lo, hi = min(k1, k2), max(k1, k2)
        mask = ((1 << hi) - 1) ^ ((1 << lo) - 1)  # middle segment swaps
    elif method == UNIFORM:  # set bits swap
        mask = sum(rng.next_word() << (16 * i) for i in range(cross_words(method, bits)))
        mask &= (1 << bits) - 1
    else:
        raise ValueError(f"unknown cross_method {method!r}")
    c1 = (p1 & ~mask) | (p2 & mask)
    c2 = (p2 & ~mask) | (p1 & mask)
    return c1, c2


def mutate(g: int, bits: int, method: str, mr: int, mut_res: int, rng: Lfsr16) -> int:
    """Gate draw first: mutate only if (word mod 2^mut_res) < mr.

    single_bit then flips one rng-chosen bit; bit_flip re-tests bit b with
    its own word, flipping it iff (word mod 2^mut_res) < mr (so a gated
    genome may still come back unchanged). Draw budget when gated: 1 word
    or `bits` words."""
    res_mask = (1 << mut_res) - 1
    if rng.next_word() & res_mask >= mr:
        return g
    if method == SINGLE_BIT:
        return g ^ (1 << (rng.next_word() % bits))
    if method == BIT_FLIP:
        return g ^ sum(1 << b for b in range(bits) if rng.next_word() & res_mask < mr)
    raise ValueError(f"unknown mut_method {method!r}")


def apply_elitism(
    old: Population,
    child_genomes: Sequence[int],
    child_scores: Sequence[int],
    elite: int,
) -> Population:
    """Elites first (top scores from the previous generation, ties by lower
    index, carried with their known scores), then the children."""
    keep = old.order[:elite]
    genomes = tuple([old.genomes[i] for i in keep] + list(child_genomes))
    scores = tuple([old.scores[i] for i in keep] + list(child_scores))
    return Population(genomes, scores)


# ---- generation loop ----


def _lower(cfg: GaConfig, fitness_fn: Callable[[int], int]):
    """cfg's generation body, with all that no generation changes set up once.

    body(pop, pos, generation) returns the next population and advances pos,
    the orbit positions of the (selection, crossover, mutation) streams, in
    place. It draws the words the operators would, in their order, as reads
    of the orbit: one slice, a walk over the pairs, a walk over the gates."""
    words, period = _orbit().words, LFSR_PERIOD
    bits, elite, res = cfg.genom_lngt, cfg.elite, cfg.scaling_factor_res
    n_parents, full, top = cfg.pop_sz - elite, (1 << cfg.genom_lngt) - 1, (1 << cfg.score_sz) - 1
    gate_mask, mr = (1 << cfg.mut_res) - 1, cfg.mr
    crosses, muts = _as_schedule(cfg.cross_method), _as_schedule(cfg.mut_method)
    per_pair = {m: cross_words(m, bits) for m in CROSS_METHODS}
    hits = _hit_string(mr, cfg.mut_res) if BIT_FLIP in muts else b""
    last = len(hits) - 1

    def body(pop: Population, pos: list[int], generation: int) -> Population:
        sel, at, q = pos
        genomes, scores = pop.genomes, pop.scores
        parents = [genomes[i] for i in _roulette_picks(scores, words[sel:sel + n_parents], res)]

        cross = crosses[min(generation, len(crosses) - 1)]
        per, children = per_pair[cross], []
        for a, b in zip(parents[::2], parents[1::2]):
            if cross == UNIFORM:
                mask = int.from_bytes(words[at:at + per].tobytes(), sys.byteorder) & full
            else:  # a cut mask; two_point XORs in a second: the middle segment
                mask = (1 << (1 + words[at] % (bits - 1))) - 1
                if cross == TWO_POINT:
                    mask ^= (1 << (1 + words[at + 1] % (bits - 1))) - 1
            at += per
            if at >= period:
                at -= period
            swap = (a ^ b) & mask
            children += (a ^ swap, b ^ swap)
        if n_parents % 2:
            children.append(parents[-1])

        single = muts[min(generation, len(muts) - 1)] == SINGLE_BIT
        for i, c in enumerate(children):
            if words[q] & gate_mask < mr:
                if single:
                    children[i] = c ^ (1 << (words[q + 1] % bits))
                    q += 2
                else:
                    children[i] = c ^ int(hits[last - q - bits:last - q], 2)
                    q += 1 + bits
            else:
                q += 1
            if q >= period:
                q -= period
        pos[:] = (sel + n_parents) % period, at, q

        known = dict(zip(genomes, scores))
        for c in children:
            if c not in known:
                known[c] = min(max(int(fitness_fn(c)), 0), top)
        keep = pop.order[:elite]
        return Population(tuple([genomes[i] for i in keep] + children),
                          tuple([scores[i] for i in keep] + [known[c] for c in children]))

    return body


def step_generation(
    pop: Population,
    cfg: GaConfig,
    fitness_fn: Callable[[int], int],
    rngs: tuple[Lfsr16, Lfsr16, Lfsr16],
    generation: int = 0,
) -> Population:
    """One generation, by run's body (_lower): select pop_sz - elite parents,
    pair them consecutively, cross, mutate, evaluate, prepend the elites.

    rngs are the (selection, crossover, mutation) streams; a corrupted state
    is rejected before any word is drawn. Selection consumes exactly one
    word per parent whether or not the all-zero-fitness fallback of
    _roulette_picks (uniform pick, index = word mod pop_sz) is active.
    With an odd parent count the final parent skips crossover and is mutated
    as-is. Each child goes through the mutation block once.

    fitness_fn must be pure: a child equal to a genome of pop, or to an
    earlier child of this generation, takes that genome's known score
    instead of a new fitness_fn call (elitism already carries scores so).
    """
    pos = [_position(rng.state) for rng in rngs]
    pop = _lower(cfg, fitness_fn)(pop, pos, generation)
    for rng, p in zip(rngs, pos):
        rng.state = _orbit().words[p]
    return pop


def init_population(cfg: GaConfig, fitness_fn, rng: Lfsr16) -> Population:
    """Generation 0 from the init stream: each genome is the next
    ceil(genom_lngt / 16) words, first word lowest, read from the orbit as
    _lower reads a uniform mask; rng is left after the last one."""
    pos, per = _position(rng.state), cross_words(UNIFORM, cfg.genom_lngt)
    words, full = _orbit().words, (1 << cfg.genom_lngt) - 1
    genomes = []
    for _ in range(cfg.pop_sz):
        genomes.append(int.from_bytes(words[pos:pos + per].tobytes(), sys.byteorder) & full)
        pos = (pos + per) % LFSR_PERIOD
    rng.state = words[pos]
    top = (1 << cfg.score_sz) - 1
    return Population(tuple(genomes), tuple(min(max(int(fitness_fn(g)), 0), top)
                                            for g in genomes))


def run(
    cfg: GaConfig,
    fitness_fn: Callable[[int], int],
    on_generation: Callable[[int, Population], None] | None = None,
) -> GaResult:
    """Full GA run. The observer checks fitness_limit before max_gen, so a
    satisfied limit on generation 0 stops before any stepping.

    cfg is lowered once (_lower): every generation runs one body over the
    streams' orbit positions, and each population's rank order is sorted
    once, when it is built. fitness_fn must be pure (same genome, same
    score): a generation reuses the scores of genomes it has already seen."""
    cfg.validate()
    pop = init_population(cfg, fitness_fn, Lfsr16(cfg.seeds[0]))
    body = _lower(cfg, fitness_fn)
    pos = [_position(seed) for seed in cfg.seeds[1:]]

    generation = 0
    while True:
        if on_generation is not None:
            on_generation(generation, pop)
        best = pop.order[0]
        if cfg.fitness_limit is not None and pop.scores[best] >= cfg.fitness_limit:
            return GaResult(pop.genomes[best], pop.scores[best], generation, FITNESS_LIMIT)
        if generation >= cfg.max_gen:
            return GaResult(pop.genomes[best], pop.scores[best], generation, MAX_GEN)
        pop = body(pop, pos, generation)
        generation += 1


# ---- serialization ----


def config_to_dict(cfg: GaConfig) -> dict:
    doc = asdict(cfg)
    for name in ("cross_method", "mut_method"):  # one name, or a schedule's list
        sched = _as_schedule(doc[name])
        doc[name] = sched[0] if len(sched) == 1 else list(sched)
    return doc | {"seeds": list(cfg.seeds)}


# the GaConfig fields a config document gives as JSON integers
_CONFIG_INTS = ("genom_lngt", "score_sz", "pop_sz", "scaling_factor_res", "elite", "mr",
                "mut_res", "max_gen")


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
        ints = json_ints(data.get(k, getattr(GaConfig, k)) for k in _CONFIG_INTS)
        limit = data.get("fitness_limit")
        return GaConfig(
            **dict(zip(_CONFIG_INTS, ints)),
            cross_method=unfold(data.get("cross_method"), SINGLE_POINT),
            mut_method=unfold(data.get("mut_method"), SINGLE_BIT),
            fitness_limit=None if limit is None else json_ints((limit,))[0],
            seeds=json_ints(data.get("seeds", GaConfig.seeds)),
        )
    except TypeError as exc:
        raise ValueError(f"malformed GA config document: {exc}") from exc


def load_config(path) -> GaConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_dict(json.load(fh))


def dump_config(cfg: GaConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config_to_dict(cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")
