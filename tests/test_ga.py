import hashlib
import json
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzychip import ga, problems
from fuzzychip.ga import (
    BIT_FLIP,
    CROSS_METHODS,
    FITNESS_LIMIT,
    GA_MAX_SIZE,
    LFSR_TAPS,
    MAX_GEN,
    MUT_METHODS,
    SINGLE_BIT,
    SINGLE_POINT,
    TWO_POINT,
    UNIFORM,
    AllZeroFitness,
    GaConfig,
    GaResult,
    LFSR_PERIOD,
    Lfsr16,
    Population,
    _draw_bits,
    _flip_mask,
    _orbit,
    _roulette_picks,
    apply_elitism,
    config_from_dict,
    config_to_dict,
    crossover,
    dump_config,
    init_population,
    lfsr_next,
    lfsr_step,
    load_config,
    method_for,
    mutate,
    roulette_select,
    run,
    step_generation,
)


# ---- LFSR streams ----


def test_lfsr_taps_constant():
    assert LFSR_TAPS == (16, 15, 13, 4)


def test_lfsr_bit_stream_recurrence():
    # Independent oracle: the output stream of a Fibonacci LFSR with
    # polynomial x^16 + x^15 + x^13 + x^4 + 1 satisfies
    # s[k+16] = s[k+15] ^ s[k+13] ^ s[k+4] ^ s[k].
    for seed in (0x0001, 0xACE1, 0x5EED, 0xBEEF):
        state = seed
        bits = []
        for _ in range(600):
            state, b = lfsr_step(state)
            bits.append(b)
        for k in range(len(bits) - 16):
            assert bits[k + 16] == bits[k + 15] ^ bits[k + 13] ^ bits[k + 4] ^ bits[k]


def test_lfsr_full_period():
    # Maximal length: the orbit of any nonzero state covers all 65535
    # nonzero states and returns to the seed at exactly step 2^16 - 1.
    state = 0x0001
    seen = set()
    for _ in range((1 << 16) - 1):
        seen.add(state)
        state, _ = lfsr_step(state)
    assert state == 0x0001
    assert len(seen) == (1 << 16) - 1


def test_lfsr_next_frozen_transitions():
    assert lfsr_next(0x0001) == (0x9B97, 0x0001)
    assert lfsr_next(0x9B97) == (0xDCE1, 0x9B97)
    assert lfsr_next(0xACE1) == (0x10E1, 0xACE1)


def test_lfsr_next_word_equals_entry_state():
    # Sixteen LSB-first output bits read back the state the word started from.
    rnd = random.Random(2)
    for _ in range(200):
        s = rnd.randint(1, (1 << 16) - 1)
        _, word = lfsr_next(s)
        assert word == s


def test_lfsr_next_rejects_bad_state():
    for bad in (0, -1, 1 << 16, 1 << 20):
        with pytest.raises(ValueError):
            lfsr_next(bad)


def test_lfsr_next_equals_sixteen_steps_on_every_state():
    # lfsr_step is the specification; the table lookup must agree everywhere.
    for s in range(1, 1 << 16):
        state, word = s, 0
        for i in range(16):
            state, bit = lfsr_step(state)
            word |= bit << i
        assert lfsr_next(s) == (state, word)


def test_orbit_is_the_stream_from_state_one():
    # every word's successor in the doubled orbit is lfsr_next of it, and
    # the index maps the 65535 nonzero states one-to-one onto positions
    words, le_bytes, index = _orbit()
    assert words[0] == 1 and len(words) >= 2 * LFSR_PERIOD + 1
    assert all(lfsr_next(w)[0] == nxt for w, nxt in zip(words, words[1:]))
    assert le_bytes == b"".join(w.to_bytes(2, "little") for w in words)
    assert sorted(index[1:]) == list(range(LFSR_PERIOD))
    assert all(words[index[s]] == s for s in range(1, 1 << 16))


@pytest.mark.parametrize("count", [0, 1, 3, 40, LFSR_PERIOD, LFSR_PERIOD + 7])
def test_next_words_equals_repeated_next_word(count):
    for seed in (0x0001, 0xACE1, 0xFFFF):
        bulk, single = Lfsr16(seed), Lfsr16(seed)
        assert bulk.next_words(count) == [single.next_word() for _ in range(count)]
        assert bulk.state == single.state


def test_lfsr16_rejects_corrupted_state():
    for bad in (0, 1 << 16):
        gen = Lfsr16(0xACE1)
        gen.state = bad
        with pytest.raises(ValueError):
            gen.next_word()
        for count in (0, 5):
            with pytest.raises(ValueError):
                gen.next_words(count)
        for bits in (1, 40):
            with pytest.raises(ValueError):
                _draw_bits(gen, bits)
            with pytest.raises(ValueError):
                _flip_mask(gen, bits, 80, 8)


@pytest.mark.parametrize("stream", [0, 1, 2])
@pytest.mark.parametrize("methods", [(UNIFORM, BIT_FLIP), (SINGLE_POINT, SINGLE_BIT)])
def test_step_generation_rejects_corrupted_state(stream, methods):
    # mr at its top value gates every child, so each stream is drawn from
    cfg = GaConfig(genom_lngt=40, pop_sz=8, elite=2, mr=255, mut_res=8,
                   cross_method=methods[0], mut_method=methods[1])
    pop = Population(tuple(range(1, 9)), tuple(range(1, 9)))
    for bad in (0, 1 << 16):
        rngs = [Lfsr16(s) for s in (0x1234, 0x5EED, 0x0F0F)]
        rngs[stream].state = bad
        with pytest.raises(ValueError):
            step_generation(pop, cfg, lambda g: g & 0xFF, tuple(rngs))


def test_orbit_read_covers_at_most_one_period():
    with pytest.raises(ValueError):
        _draw_bits(Lfsr16(1), 16 * LFSR_PERIOD + 1)
    gen = Lfsr16(1)
    _draw_bits(gen, 16 * LFSR_PERIOD)
    assert gen.state == 1


@settings(max_examples=150)
@given(seed=st.integers(1, 0xFFFF), bits=st.integers(1, 4096))
def test_draw_bits_equals_word_assembly(seed, bits):
    gen, clone = Lfsr16(seed), Lfsr16(seed)
    expect = sum(clone.next_word() << (16 * i) for i in range((bits + 15) // 16))
    assert _draw_bits(gen, bits) == expect & ((1 << bits) - 1)
    assert gen.state == clone.state


@settings(max_examples=150)
@given(data=st.data(), seed=st.integers(1, 0xFFFF), bits=st.integers(1, 4096),
       mut_res=st.integers(1, 16))
def test_flip_mask_equals_per_bit_draws(data, seed, bits, mut_res):
    top = (1 << mut_res) - 1
    mr = data.draw(st.one_of(st.sampled_from((0, 1, top)), st.integers(0, top)))
    gen, clone = Lfsr16(seed), Lfsr16(seed)
    expect = sum(1 << b for b in range(bits) if (clone.next_word() & top) < mr)
    assert _flip_mask(gen, bits, mr, mut_res) == expect
    assert gen.state == clone.state


def test_lfsr16_wrapper():
    gen = Lfsr16(0xACE1)
    w1 = gen.next_word()
    assert w1 == 0xACE1
    assert gen.state == 0x10E1
    gen2 = Lfsr16(0xACE1)
    assert gen2.next_words(3) == [w1, gen.next_word(), gen.next_word()]
    with pytest.raises(ValueError):
        Lfsr16(0)
    with pytest.raises(ValueError):
        Lfsr16(1 << 16)


def test_draw_bits_little_endian():
    gen = Lfsr16(0x1234)
    w1, w2, w3 = gen.next_words(3)
    assert _draw_bits(Lfsr16(0x1234), 32) == w1 | (w2 << 16)
    assert _draw_bits(Lfsr16(0x1234), 40) == (w1 | (w2 << 16) | (w3 << 32)) & (
        (1 << 40) - 1
    )
    assert _draw_bits(Lfsr16(0x1234), 16) == w1
    # Sub-word widths still consume a whole word.
    gen4 = Lfsr16(0x1234)
    assert _draw_bits(gen4, 8) == w1 & 0xFF
    assert gen4.next_word() == w2


# ---- configuration ----


def test_default_config_is_valid():
    cfg = GaConfig()
    assert cfg.problems() == []
    assert (cfg.genom_lngt, cfg.score_sz, cfg.pop_sz) == (16, 16, 32)
    assert (cfg.scaling_factor_res, cfg.elite, cfg.mr, cfg.mut_res) == (4, 2, 80, 8)
    assert cfg.cross_method == SINGLE_POINT
    assert cfg.mut_method == SINGLE_BIT
    assert cfg.max_gen == 100
    assert cfg.seeds == (0xACE1, 0x1234, 0x5EED, 0x0F0F)


@pytest.mark.parametrize(
    "kwargs, needle",
    [
        ({"genom_lngt": 1}, "genom_lngt"),
        ({"score_sz": 0}, "score_sz"),
        ({"pop_sz": 7}, "pop_sz"),
        ({"pop_sz": 0}, "pop_sz"),
        ({"elite": 32}, "elite"),
        ({"elite": -1}, "elite"),
        ({"scaling_factor_res": 0}, "scaling_factor_res"),
        ({"scaling_factor_res": 17}, "scaling_factor_res"),
        ({"mut_res": 0}, "mut_res"),
        ({"mr": 256}, "mr"),
        ({"mr": -1}, "mr"),
        ({"max_gen": -1}, "max_gen"),
        ({"cross_method": "diagonal"}, "cross_method"),
        ({"mut_method": ("single_bit", "swap")}, "mut_method"),
        ({"seeds": (0, 1, 2, 3)}, "seeds"),
        ({"seeds": (1, 2, 3)}, "seeds"),
        ({"cross_method": ()}, "cross_method schedule is empty"),
        ({"mut_method": ()}, "mut_method schedule is empty"),
        ({"genom_lngt": 4097}, "genom_lngt must be 2..4096"),
        ({"pop_sz": 4098}, "pop_sz must be even and 2..4096"),  # 4097 is odd anyway
        ({"score_sz": 33}, "score_sz must be 1..32"),
        ({"score_sz": 10**6}, "score_sz must be 1..32"),  # once an OverflowError
        ({"mut_res": -1}, "mut_res must be 1..16"),  # 1 << -1 once raised in problems()
    ],
)
def test_config_problems(kwargs, needle):
    cfg = replace(GaConfig(), **kwargs)
    assert any(needle in p for p in cfg.problems())
    with pytest.raises(ValueError):
        cfg.validate()


def test_config_size_caps_are_inclusive():
    # bit_flip draws one word per bit, so widths and populations are capped
    assert GA_MAX_SIZE == 4096
    assert GaConfig(genom_lngt=4096, pop_sz=4096).problems() == []
    assert GaConfig(score_sz=32).problems() == []
    assert len(GaConfig(genom_lngt=4097, pop_sz=4097).problems()) == 2


def test_method_schedule():
    assert method_for(SINGLE_POINT, 0) == SINGLE_POINT
    assert method_for(SINGLE_POINT, 99) == SINGLE_POINT
    sched = (SINGLE_POINT, TWO_POINT, UNIFORM)
    assert method_for(sched, 0) == SINGLE_POINT
    assert method_for(sched, 1) == TWO_POINT
    assert method_for(sched, 2) == UNIFORM
    assert method_for(sched, 10) == UNIFORM  # last entry persists


# ---- roulette selection ----


def test_roulette_exact_when_total_is_power():
    # Scores summing to 2^res make the threshold equal r, so the selection
    # histogram over every r reproduces the scores exactly.
    pop = Population(genomes=(0, 1, 2, 3), scores=(1, 3, 5, 7))
    counts = [0, 0, 0, 0]
    for r in range(16):
        counts[roulette_select(pop, r, 4)] += 1
    assert counts == [1, 3, 5, 7]


def test_roulette_threshold_is_strict():
    pop = Population(genomes=(0, 1), scores=(4, 4))
    assert roulette_select(pop, 3, 3) == 0  # T = 3, cum 4 > 3
    assert roulette_select(pop, 4, 3) == 1  # T = 4, cum 4 not > 4


def test_roulette_histogram_within_one_of_ideal():
    rnd = random.Random(8)
    for _ in range(25):
        res = rnd.randint(4, 8)
        scores = tuple(rnd.randint(0, 40) for _ in range(rnd.randint(2, 9)))
        if sum(scores) == 0:
            scores = scores[:-1] + (1,)
        pop = Population(genomes=tuple(range(len(scores))), scores=scores)
        counts = [0] * len(scores)
        for r in range(1 << res):
            counts[roulette_select(pop, r, res)] += 1
        total = sum(scores)
        for i, s in enumerate(scores):
            ideal = s * (1 << res) / total
            assert abs(counts[i] - ideal) <= 1 + 1e-9


def test_roulette_zero_score_never_selected():
    pop = Population(genomes=(0, 1, 2), scores=(5, 0, 11))
    picks = {roulette_select(pop, r, 4) for r in range(16)}
    assert 1 not in picks


def test_roulette_rejects_bad_inputs():
    pop = Population(genomes=(0, 1), scores=(0, 0))
    with pytest.raises(AllZeroFitness):
        roulette_select(pop, 0, 4)
    live = Population(genomes=(0, 1), scores=(1, 1))
    with pytest.raises(ValueError):
        roulette_select(live, 16, 4)
    with pytest.raises(ValueError):
        roulette_select(live, -1, 4)


@settings(max_examples=200)
@given(
    scores=st.lists(st.sampled_from((0, 0, 1, 1, 2, 7, 255, 65535)), min_size=2,
                    max_size=64),
    res=st.integers(1, 6),
    high=st.integers(0, (1 << 10) - 1),
)
def test_roulette_picks_equal_roulette_select(scores, res, high):
    # one cumulative wheel for every r at a small res; zeros and ties are
    # common, and bits above res in the word are ignored
    if sum(scores) == 0:
        scores[-1] = 1
    pop = Population(genomes=tuple(range(len(scores))), scores=tuple(scores))
    words = [(high << res) | r for r in range(1 << res)]
    assert _roulette_picks(pop.scores, words, res) == [
        roulette_select(pop, r, res) for r in range(1 << res)
    ]


# ---- crossover ----


def test_crossover_conserves_bit_columns():
    # Children permute parent bits within each column, so XOR, AND and OR
    # of the pair are invariant for every method.
    rnd = random.Random(4)
    gen = Lfsr16(0x7731)
    for method in (SINGLE_POINT, TWO_POINT, UNIFORM):
        for _ in range(60):
            bits = rnd.randint(2, 40)
            p1 = rnd.getrandbits(bits)
            p2 = rnd.getrandbits(bits)
            c1, c2 = crossover(p1, p2, bits, method, gen)
            assert c1 ^ c2 == p1 ^ p2
            assert c1 & c2 == p1 & p2
            assert c1 | c2 == p1 | p2


def test_crossover_single_point_mask():
    gen = Lfsr16(0x0001)
    clone = Lfsr16(0x0001)
    p1, p2, bits = 0xFFFF, 0x0000, 16
    c1, c2 = crossover(p1, p2, bits, SINGLE_POINT, gen)
    k = 1 + clone.next_word() % (bits - 1)
    mask = (1 << k) - 1
    assert c1 == p1 & ~mask
    assert c2 == mask
    assert gen.state == clone.state  # exactly one word consumed


def test_crossover_two_point_mask():
    gen = Lfsr16(0xBEEF)
    clone = Lfsr16(0xBEEF)
    p1, p2, bits = 0xFFFF, 0x0000, 16
    c1, c2 = crossover(p1, p2, bits, TWO_POINT, gen)
    k1 = 1 + clone.next_word() % (bits - 1)
    k2 = 1 + clone.next_word() % (bits - 1)
    lo, hi = min(k1, k2), max(k1, k2)
    mask = ((1 << hi) - 1) ^ ((1 << lo) - 1)
    assert c2 == mask and c1 == 0xFFFF ^ mask
    assert gen.state == clone.state


def test_crossover_uniform_mask_and_budget():
    for bits in (16, 17, 32, 40):
        gen = Lfsr16(0x5EED)
        clone = Lfsr16(0x5EED)
        c1, c2 = crossover((1 << bits) - 1, 0, bits, UNIFORM, gen)
        assert c2 == _draw_bits(clone, bits)
        assert gen.state == clone.state


def test_crossover_unknown_method():
    with pytest.raises(ValueError):
        crossover(1, 2, 16, "shuffle", Lfsr16(1))


# ---- mutation ----


def _first_word(seed: int) -> int:
    return lfsr_next(seed)[1]


def _seed_with_gate(mr: int, mut_res: int, fire: bool) -> int:
    for seed in range(1, 400):
        gated = (_first_word(seed) & ((1 << mut_res) - 1)) < mr
        if gated == fire:
            return seed
    raise AssertionError("no such seed in range")


def test_mutate_gate_skip_consumes_one_word():
    seed = _seed_with_gate(80, 8, fire=False)
    gen = Lfsr16(seed)
    assert mutate(0x1234, 16, SINGLE_BIT, 80, 8, gen) == 0x1234
    clone = Lfsr16(seed)
    clone.next_word()
    assert gen.state == clone.state


def test_mutate_single_bit_flips_one_bit():
    seed = _seed_with_gate(80, 8, fire=True)
    gen = Lfsr16(seed)
    clone = Lfsr16(seed)
    out = mutate(0x0F0F, 16, SINGLE_BIT, 80, 8, gen)
    clone.next_word()  # gate
    expect = 0x0F0F ^ (1 << (clone.next_word() % 16))
    assert out == expect
    assert bin(out ^ 0x0F0F).count("1") == 1
    assert gen.state == clone.state


def test_mutate_bit_flip_per_bit_draws():
    seed = _seed_with_gate(200, 8, fire=True)
    bits, mr, mut_res = 20, 200, 8
    gen = Lfsr16(seed)
    out = mutate(0, bits, BIT_FLIP, mr, mut_res, gen)
    clone = Lfsr16(seed)
    clone.next_word()  # gate
    expect = 0
    for b in range(bits):
        if (clone.next_word() & ((1 << mut_res) - 1)) < mr:
            expect |= 1 << b
    assert out == expect
    assert gen.state == clone.state


def test_mutate_mr_zero_is_identity():
    gen = Lfsr16(0xACE1)
    for g in (0, 1, 0xFFFF, 0xDEAD):
        assert mutate(g, 16, SINGLE_BIT, 0, 8, gen) == g
        assert mutate(g, 16, BIT_FLIP, 0, 8, gen) == g


def test_mutate_unknown_method():
    seed = _seed_with_gate(80, 8, fire=True)
    with pytest.raises(ValueError):
        mutate(0, 16, "swap", 80, 8, Lfsr16(seed))


# ---- elitism ----


def test_apply_elitism_keeps_top_scores_ties_by_index():
    old = Population(genomes=(10, 20, 30, 40), scores=(5, 9, 9, 1))
    new = apply_elitism(old, [111, 222], [3, 4], elite=2)
    assert new.genomes == (20, 30, 111, 222)
    assert new.scores == (9, 9, 3, 4)


def test_best_index_found_once_per_generation(monkeypatch):
    # run's stopping check and the CLI's generation log both ask each
    # population for its best index; its scores are scanned once
    from fuzzychip import cli

    scans = []

    def counting_max(*args, **kwargs):
        if len(args) == 1:  # max(scores), not max(a, b)
            scans.append(args[0])
        return max(*args, **kwargs)

    monkeypatch.setattr(ga, "max", counting_max, raising=False)
    cfg = GaConfig(max_gen=5)
    rows = cli._ga_payload(cfg, problems.BenchmarkFitness("sphere", 16, 16), 0)[0]
    assert rows.count("\n") == 7  # header and generations 0..5
    assert len(scans) == 6


def test_best_index_ties_by_lower_index():
    assert Population(genomes=(5, 6, 7, 8), scores=(3, 9, 9, 1)).best_index() == 1
    assert Population(genomes=(5, 6), scores=(0, 0)).best_index() == 0


def test_apply_elitism_zero():
    old = Population(genomes=(1, 2), scores=(7, 8))
    new = apply_elitism(old, [5, 6], [1, 2], elite=0)
    assert new.genomes == (5, 6)
    assert new.scores == (1, 2)


# ---- generation stepping ----


def _expected_generation(pop, cfg, fitness_fn, seeds, generation=0):
    """Re-derive one generation from the operator functions on cloned
    streams; returns the population and the three streams' states after it."""
    sel, cross, mut = (Lfsr16(s) for s in seeds)
    zero_wheel = sum(pop.scores) == 0
    parents = []
    for _ in range(cfg.pop_sz - cfg.elite):
        word = sel.next_word()
        if zero_wheel:
            parents.append(pop.genomes[word % cfg.pop_sz])
        else:
            r = word & ((1 << cfg.scaling_factor_res) - 1)
            parents.append(
                pop.genomes[roulette_select(pop, r, cfg.scaling_factor_res)]
            )
    children = []
    for i in range(0, len(parents) - 1, 2):
        children.extend(
            crossover(
                parents[i],
                parents[i + 1],
                cfg.genom_lngt,
                method_for(cfg.cross_method, generation),
                cross,
            )
        )
    if len(parents) % 2:
        children.append(parents[-1])
    children = [
        mutate(
            c,
            cfg.genom_lngt,
            method_for(cfg.mut_method, generation),
            cfg.mr,
            cfg.mut_res,
            mut,
        )
        for c in children
    ]
    scores = [min(max(fitness_fn(c), 0), (1 << cfg.score_sz) - 1) for c in children]
    return apply_elitism(pop, children, scores, cfg.elite), (sel.state, cross.state, mut.state)


def _step(pop, cfg, fitness_fn, seeds, generation=0):
    """step_generation on fresh streams; the population and the streams' states."""
    rngs = tuple(Lfsr16(s) for s in seeds)
    out = step_generation(pop, cfg, fitness_fn, rngs, generation)
    return out, tuple(r.state for r in rngs)


def test_step_generation_matches_operator_composition():
    cfg = GaConfig(pop_sz=6, elite=2, cross_method=TWO_POINT, mut_method=BIT_FLIP)
    fit = lambda g: (g * 7 + 3) % 251
    pop = Population(
        genomes=(0x1111, 0x2222, 0x3333, 0x4444, 0x5555, 0x6666),
        scores=tuple(fit(g) for g in (0x1111, 0x2222, 0x3333, 0x4444, 0x5555, 0x6666)),
    )
    seeds = (0x1234, 0x5EED, 0x0F0F)
    assert _step(pop, cfg, fit, seeds) == _expected_generation(pop, cfg, fit, seeds)


def test_step_generation_odd_parent_tail():
    # elite 1 on a pop of 4 leaves 3 parents; the last skips crossover.
    cfg = GaConfig(pop_sz=4, elite=1)
    fit = lambda g: g & 0xFF
    pop = Population(genomes=(1, 2, 3, 4), scores=tuple(fit(g) for g in (1, 2, 3, 4)))
    seeds = (0x0BAD, 0x0DAD, 0x0ADD)
    out = _step(pop, cfg, fit, seeds)
    assert out == _expected_generation(pop, cfg, fit, seeds)
    assert len(out[0].genomes) == 4


def test_step_generation_zero_wheel_fallback():
    # All-zero fitness switches selection to uniform word % pop_sz picks
    # instead of raising, still consuming one word per parent.
    cfg = GaConfig(pop_sz=4, elite=0, mr=0)
    fit = lambda g: 0
    pop = Population(genomes=(10, 20, 30, 40), scores=(0, 0, 0, 0))
    seeds = (0xACE1, 0x1234, 0x5EED)
    assert _step(pop, cfg, fit, seeds) == _expected_generation(pop, cfg, fit, seeds)


def test_step_generation_selection_budget():
    # Selection consumes exactly pop_sz - elite words from its stream.
    cfg = GaConfig(pop_sz=8, elite=3)
    fit = lambda g: (g % 97) + 1
    genomes = tuple(range(1, 9))
    pop = Population(genomes=genomes, scores=tuple(fit(g) for g in genomes))
    sel = Lfsr16(0x1234)
    step_generation(pop, cfg, fit, (sel, Lfsr16(2), Lfsr16(3)), 0)
    ref = Lfsr16(0x1234)
    ref.next_words(cfg.pop_sz - cfg.elite)
    assert sel.state == ref.state


def _schedules(names):
    """One method name, or a schedule of one to three."""
    return st.one_of(st.sampled_from(names),
                     st.lists(st.sampled_from(names), min_size=1, max_size=3).map(tuple))


@settings(max_examples=200)
@given(
    data=st.data(),
    half_pop=st.integers(1, 8),
    genom_lngt=st.integers(2, 300),
    cross=_schedules(CROSS_METHODS),
    mut=_schedules(MUT_METHODS),
    generation=st.integers(0, 3),
    score_sz=st.integers(1, 16),
    fit_mod=st.sampled_from((1, 3, 5, 251, 1 << 20)),
    seeds=st.tuples(*[st.integers(1, 0xFFFF)] * 3),
)
def test_step_generation_equals_operator_composition(
    data, half_pop, genom_lngt, cross, mut, generation, score_sz, fit_mod, seeds
):
    # random configs: odd parent tails, every method and schedule, small
    # score widths that clamp, fit_mod 1 makes every score 0 (zero wheel),
    # mr at both ends of its range; the streams' states must match too
    pop_sz = 2 * half_pop
    mut_res = data.draw(st.integers(1, 16))
    top = (1 << mut_res) - 1
    cfg = GaConfig(
        genom_lngt=genom_lngt,
        score_sz=score_sz,
        pop_sz=pop_sz,
        scaling_factor_res=data.draw(st.integers(1, 16)),
        elite=data.draw(st.integers(0, pop_sz - 1)),
        mr=data.draw(st.one_of(st.sampled_from((0, top)), st.integers(0, top))),
        mut_res=mut_res,
        cross_method=cross,
        mut_method=mut,
    )
    assert cfg.problems() == []
    fit = lambda g: (g * 0x9E37 + 11) % fit_mod - 1  # pure; -1 clamps to 0
    genomes = tuple(
        data.draw(st.lists(st.integers(0, (1 << genom_lngt) - 1), min_size=pop_sz,
                           max_size=pop_sz))
    )
    pop = Population(genomes, tuple(min(max(fit(g), 0), (1 << score_sz) - 1)
                                    for g in genomes))
    assert (_step(pop, cfg, fit, seeds, generation)
            == _expected_generation(pop, cfg, fit, seeds, generation))


@pytest.mark.parametrize("profile", ["burma14", "3-bit"])
def test_step_generation_scores_each_new_child_once(profile):
    # fitness_fn runs once per distinct child genome that is not in the
    # parent population, and for no other. The acceptance-6 profile on
    # burma14 repeats parents (elites, children the gate passes); 3-bit
    # genomes also repeat children within a generation.
    if profile == "burma14":
        fit = problems.TspFitness(problems.load_builtin("burma14"), genom_lngt=40)
        cfg = GaConfig(genom_lngt=40, pop_sz=32, scaling_factor_res=16, elite=26,
                       mr=80, cross_method=UNIFORM, mut_method=BIT_FLIP)
    else:
        fit = lambda g: g + 1
        cfg = GaConfig(genom_lngt=3, pop_sz=16, elite=1, mr=200)
    calls = []

    def counting(g):
        calls.append(g)
        return fit(g)

    pop = init_population(cfg, fit, Lfsr16(0x2468))
    rngs = (Lfsr16(0xACE1), Lfsr16(0x5EED), Lfsr16(0x0F0F))
    repeats = 0
    for generation in range(200):
        calls.clear()
        new = step_generation(pop, cfg, counting, rngs, generation)
        children = new.genomes[cfg.elite:]
        repeats += len(children) - len(calls)
        assert len(calls) == len(set(calls))
        assert set(calls) == set(children) - set(pop.genomes)
        assert new.scores == tuple(fit(g) for g in new.genomes)
        pop = new
    assert repeats > 0


def test_init_population_from_stream():
    cfg = GaConfig(pop_sz=4, genom_lngt=24, score_sz=8)
    fit = lambda g: g  # clamps at 255
    pop = init_population(cfg, fit, Lfsr16(0xACE1))
    clone = Lfsr16(0xACE1)
    expect = tuple(_draw_bits(clone, 24) for _ in range(4))
    assert pop.genomes == expect
    assert pop.scores == tuple(min(g, 255) for g in expect)


def test_score_clamping_floor():
    cfg = GaConfig(pop_sz=2, score_sz=8, elite=0)
    pop = init_population(cfg, lambda g: -5, Lfsr16(1))
    assert pop.scores == (0, 0)


# ---- full runs ----


def test_run_max_gen_zero():
    calls = []
    result = run(
        GaConfig(max_gen=0),
        lambda g: g & 0xFF,
        on_generation=lambda gen, pop: calls.append(gen),
    )
    assert result.stop_reason == MAX_GEN
    assert result.generations_run == 0
    assert calls == [0]


def test_run_fitness_limit_at_init():
    result = run(GaConfig(max_gen=50, fitness_limit=10), lambda g: 100)
    assert result.stop_reason == FITNESS_LIMIT
    assert result.generations_run == 0
    assert result.best_score == 100


def test_run_fitness_limit_beats_max_gen():
    # Both criteria hold at generation 0; the limit is checked first.
    result = run(GaConfig(max_gen=0, fitness_limit=1), lambda g: 50)
    assert result.stop_reason == FITNESS_LIMIT


def test_run_observer_sees_every_generation():
    gens = []
    result = run(
        GaConfig(max_gen=5),
        lambda g: (g % 200) + 1,
        on_generation=lambda gen, pop: gens.append(gen),
    )
    assert result.generations_run == 5
    assert gens == [0, 1, 2, 3, 4, 5]  # includes the final population


def test_run_best_score_monotone_with_elitism():
    best = []
    run(
        GaConfig(max_gen=30, elite=2),
        lambda g: g % 251,
        on_generation=lambda gen, pop: best.append(max(pop.scores)),
    )
    assert all(b >= a for a, b in zip(best, best[1:]))


def test_run_deterministic():
    cfg = GaConfig(max_gen=12, cross_method=UNIFORM, mut_method=BIT_FLIP)
    fit = lambda g: (g ^ (g >> 5)) & 0x3FF
    assert run(cfg, fit) == run(cfg, fit)


def test_run_seeds_change_trajectory():
    fit = lambda g: g & 0xFFF
    pops = []
    for seeds in ((0xACE1, 0x1234, 0x5EED, 0x0F0F), (0x1111, 0x2222, 0x3333, 0x4444)):
        run(
            GaConfig(max_gen=0, seeds=seeds),
            fit,
            on_generation=lambda gen, pop: pops.append(pop.genomes),
        )
    assert pops[0] != pops[1]


def test_run_burma14_log_frozen():
    # 300 generations of the acceptance-6 profile (40-bit Lehmer genomes,
    # elite 26, uniform crossover, bit_flip mutation), every genome and score
    # of every generation hashed; any changed LFSR draw changes the digest.
    fit = problems.TspFitness(problems.load_builtin("burma14"), genom_lngt=40)
    cfg = GaConfig(genom_lngt=40, pop_sz=32, scaling_factor_res=16, elite=26, mr=80,
                   cross_method=UNIFORM, mut_method=BIT_FLIP, max_gen=300,
                   seeds=(0x2468, 0xACE1, 0x5EED, 0x0F0F))
    digest = hashlib.sha256()

    def log(gen, pop):
        digest.update(f"{gen}:{pop.genomes}:{pop.scores}\n".encode())

    result = run(cfg, fit, on_generation=log)
    digest.update(f"{result}\n".encode())
    assert result.generations_run == 300
    assert digest.hexdigest() == (
        "f973392e1a181cbef41dcfe27871e2be3114bfd619a8f19a4fe3313195cac621"
    )


def test_run_rejects_invalid_config():
    with pytest.raises(ValueError):
        run(GaConfig(pop_sz=5), lambda g: 1)


def test_result_fields():
    result = run(GaConfig(max_gen=2), lambda g: g & 0xF)
    assert isinstance(result, GaResult)
    assert 0 <= result.best_genome < (1 << 16)
    assert 0 <= result.best_score < (1 << 16)


# ---- serialization ----


def test_config_roundtrip_scalar_methods():
    cfg = GaConfig(max_gen=7, fitness_limit=1234)
    assert config_from_dict(config_to_dict(cfg)) == cfg


def test_config_roundtrip_schedules():
    cfg = GaConfig(
        cross_method=(SINGLE_POINT, UNIFORM),
        mut_method=(SINGLE_BIT, BIT_FLIP, BIT_FLIP),
    )
    doc = config_to_dict(cfg)
    assert doc["cross_method"] == [SINGLE_POINT, UNIFORM]
    assert config_from_dict(doc) == cfg


def test_config_from_dict_defaults():
    assert config_from_dict({}) == GaConfig()


def test_config_from_dict_malformed():
    with pytest.raises(ValueError, match="malformed GA config"):
        config_from_dict({"genom_lngt": "wide"})


def test_config_file_roundtrip(tmp_path):
    cfg = GaConfig(genom_lngt=40, elite=26, mut_method=BIT_FLIP, fitness_limit=13454)
    path = tmp_path / "cfg.json"
    dump_config(cfg, path)
    assert load_config(path) == cfg
    doc = json.loads(path.read_text())
    assert doc["fitness_limit"] == 13454
