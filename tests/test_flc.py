import json
import random
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import random_inputs, random_knot_spec, random_valid_spec
from fuzzychip.flc import (
    MIN,
    ODD_EVEN,
    PROD,
    STANDARD,
    ActivePair,
    Controller,
    DenominatorZero,
    FlcSpec,
    MembershipFunction,
    active_pair,
    active_rules,
    antecedent_weight,
    batch_dtype,
    default_core_spec,
    dump_spec,
    estimate_timing,
    infer,
    infer_batch,
    infer_full_rulebase,
    load_spec,
    membership,
    pair_tables,
    rule_address,
    spec_from_dict,
    spec_to_dict,
    uniform_partition,
    validate_spec,
)
from fuzzychip.flcref import (
    active_pair_real,
    infer_real,
    infer_real_batch,
    lift,
    pair_tables_real,
)
from test_flcref import infer_real_full_rulebase

MF = MembershipFunction


# ---- membership ----


def test_membership_triangle_midpoint():
    # halfway up a 1024-code rising edge at 8 alpha bits: floor(255 * 0.5)
    assert membership(MF(0, 1024, 1024, 2048), 512, 8) == 127


def test_membership_plateau_and_outside():
    mf = MF(10, 20, 30, 40)
    assert membership(mf, 9, 8) == 0
    assert membership(mf, 41, 8) == 0
    assert membership(mf, 10, 8) == 0  # edge start floors to zero
    assert membership(mf, 20, 8) == 255
    assert membership(mf, 25, 8) == 255
    assert membership(mf, 30, 8) == 255


def test_membership_degenerate_edges_hit_plateau_first():
    # a == b and c == d: the shared point is full scale, not a 0/0 edge
    assert membership(MF(5, 5, 5, 9), 5, 8) == 255
    assert membership(MF(0, 3, 7, 7), 7, 8) == 255


def test_membership_edges_floor():
    mf = MF(0, 3, 3, 6)
    # rising: floor(255 * x / 3)
    assert [membership(mf, x, 8) for x in range(4)] == [0, 85, 170, 255]
    # falling: floor(255 * (6 - x) / 3)
    assert [membership(mf, x, 8) for x in range(4, 7)] == [170, 85, 0]


def test_membership_alpha_scaling():
    mf = MF(0, 100, 100, 200)
    assert membership(mf, 50, 4) == 7  # floor(15 / 2)
    assert membership(mf, 50, 1) == 0  # floor(1 / 2): coarse widths truncate


def test_uniform_partition_shape():
    part = uniform_partition(12, 7)
    peaks = [mf.b for mf in part]
    assert peaks == [0, 683, 1365, 2048, 2730, 3413, 4095]
    assert all(mf.b == mf.c for mf in part)
    assert part[0].a == 0 and part[-1].d == 4095
    # adjacent supports meet exactly at the peaks
    for left, right in zip(part, part[1:]):
        assert right.a == left.b and left.d == right.b


def test_uniform_partition_rejects_single_mf():
    with pytest.raises(ValueError):
        uniform_partition(8, 1)


# ---- validation ----


def test_default_core_spec_is_valid():
    spec = default_core_spec()
    assert spec.n == 4 and spec.m == 7
    assert len(spec.singletons) == 2401
    assert validate_spec(spec).ok


def test_random_specs_are_valid():
    rnd = random.Random(42)
    for _ in range(50):
        assert validate_spec(random_valid_spec(rnd)).ok


def _two_mf_spec(partition, **kw):
    fields = dict(
        in_bits=6,
        out_bits=8,
        alpha_bits=8,
        cons_bits=8,
        partitions=(partition,),
        singletons=(10, 200),
        and_method=MIN,
        mode=STANDARD,
        stages=3,
        clock_ns=10.0,
    )
    fields.update(kw)
    return FlcSpec(**fields)


def test_validate_flags_unordered_breakpoints():
    spec = _two_mf_spec((MF(0, 30, 20, 40), MF(20, 50, 63, 63)))
    assert any("not ordered" in p for p in validate_spec(spec).problems)


def test_validate_flags_coverage_gap():
    spec = _two_mf_spec((MF(0, 0, 10, 20), MF(40, 50, 63, 63)))
    assert any("coverage gap" in p for p in validate_spec(spec).problems)


def test_validate_flags_triple_overlap():
    part = (MF(0, 0, 10, 40), MF(5, 20, 20, 50), MF(30, 45, 63, 63))
    spec = _two_mf_spec(part, singletons=(1, 2, 3))
    assert any("overlap" in p for p in validate_spec(spec).problems)


def test_validate_flags_touching_plateaus():
    # MFs 0 and 2 both at full scale at code 30
    part = (MF(0, 0, 30, 30), MF(10, 30, 30, 55), MF(30, 30, 63, 63))
    spec = _two_mf_spec(part, singletons=(1, 2, 3))
    assert any("plateau point" in p for p in validate_spec(spec).problems)


def test_validate_flags_universe_anchors():
    spec = _two_mf_spec((MF(5, 10, 10, 40), MF(20, 50, 60, 60)))
    problems = validate_spec(spec).problems
    assert any("start at 0" in p for p in problems)
    assert any("end at 63" in p for p in problems)


def test_validate_flags_table_and_range():
    spec = _two_mf_spec(
        (MF(0, 0, 10, 40), MF(20, 50, 63, 63)), singletons=(1, 2, 3)
    )
    assert any("singleton table" in p for p in validate_spec(spec).problems)
    spec = _two_mf_spec((MF(0, 0, 10, 40), MF(20, 50, 63, 63)), singletons=(1, 256))
    assert any("consequent universe" in p for p in validate_spec(spec).problems)


def test_validate_flags_widths_and_mode():
    spec = _two_mf_spec(
        (MF(0, 0, 10, 40), MF(20, 50, 63, 63)),
        out_bits=4,
        mode="weird",
        and_method="nand",
        stages=0,
        clock_ns=0.0,
    )
    problems = validate_spec(spec).problems
    assert any("out_bits must be >=" in p for p in problems)
    assert any("unknown mode" in p for p in problems)
    assert any("unknown and_method" in p for p in problems)
    assert any("stages" in p for p in problems)
    assert any("clock_ns" in p for p in problems)


@pytest.mark.parametrize(
    "field, value, needle",
    [
        ("stages", 65536, "stages=65536 outside 1..65535"),
        ("stages", 10**400, "outside 1..65535"),  # stages * clock_ns overflowed
        ("clock_ns", float("inf"), "clock_ns=inf must be positive and finite"),
        ("clock_ns", float("nan"), "clock_ns=nan must be positive and finite"),
        ("clock_ns", 5e-324, "sample_rate_hz=inf; both must be positive and finite"),
        ("clock_ns", 1e308, "latency_ns=inf"),  # 11 stages overflow the latency
    ],
    ids=["stages-65536", "stages-1e400", "clock_ns-inf", "clock_ns-nan",
         "clock_ns-5e-324", "clock_ns-1e308"],
)
def test_validate_bounds_timing_fields(field, value, needle):
    core = default_core_spec()
    assert validate_spec(replace(core, stages=65535, clock_ns=1e300)).ok
    report = validate_spec(replace(core, **{field: value}))
    assert not report.ok and any(needle in p for p in report.problems)


def test_validate_collects_instead_of_raising():
    spec = _two_mf_spec((MF(0, 30, 20, 40),), singletons=(1,))
    report = validate_spec(spec)
    assert not report.ok and len(report.problems) >= 2


# ---- active rule selection ----


def test_active_pair_between_peaks():
    part = uniform_partition(8, 3)  # peaks 0, 128, 255
    pair = active_pair(part, 64, 8)
    assert pair.left == 0
    assert pair.deg_left == membership(part[0], 64, 8)
    assert pair.deg_right == membership(part[1], 64, 8)


def test_active_pair_at_interior_peak():
    part = uniform_partition(8, 3)
    pair = active_pair(part, 128, 8)
    assert pair == ActivePair(1, 255, 0)


def test_active_pair_clamps_at_top():
    part = uniform_partition(8, 3)
    pair = active_pair(part, 255, 8)
    assert pair.left == 1  # m - 2: the last MF is the right member
    assert (pair.deg_left, pair.deg_right) == (0, 255)


def test_active_pair_zero_quantized_fallback():
    # alpha_bits=1 floors both overlapping edges to zero mid-span; with every
    # degree zero the pair is (0, 1)
    part = (MF(0, 0, 0, 63), MF(0, 63, 63, 63))
    pair = active_pair(part, 31, 1)
    assert pair == ActivePair(0, 0, 0)


def test_all_zero_degrees_pick_pair_zero_and_raise_on_every_path():
    # at x = 50 only MF 1's support (and MF 2's edge) holds x, yet every degree
    # floors to zero: the pair is (0, 1), not the support's, and no path fires
    part = (MF(0, 0, 0, 40), MF(0, 40, 40, 63), MF(40, 63, 63, 63))
    spec = FlcSpec(in_bits=6, out_bits=8, alpha_bits=1, cons_bits=8,
                   partitions=(part,), singletons=(10, 100, 200))
    assert validate_spec(spec).ok
    assert [membership(mf, 50, 1) for mf in part] == [0, 0, 0]
    assert active_pair(part, 50, 1) == ActivePair(0, 0, 0)
    with pytest.raises(DenominatorZero):
        infer(spec, [50])
    with pytest.raises(DenominatorZero):
        infer_batch(spec, [t.at(np.array([50])) for t in pair_tables(spec)])
    with pytest.raises(DenominatorZero):
        infer_full_rulebase(spec, [50])


def test_rule_address_digit_order():
    assert rule_address((6, 6, 6, 6), 7) == 2400
    assert rule_address((1, 0), 3) == 1  # input 0 is least significant
    assert rule_address((0, 1), 3) == 3
    with pytest.raises(ValueError):
        rule_address((3,), 3)


def test_antecedent_weight_min_and_prod():
    assert antecedent_weight((64, 192), MIN, 8) == 64
    assert antecedent_weight((255, 255), PROD, 8) == 254  # shift renormalization
    assert antecedent_weight((255,), PROD, 8) == 255
    # left fold: ((a*b) >> 8) * c >> 8
    assert antecedent_weight((200, 100, 50), PROD, 8) == ((200 * 100) >> 8) * 50 >> 8


def test_antecedent_weight_rejects():
    with pytest.raises(ValueError):
        antecedent_weight((), MIN, 8)
    with pytest.raises(ValueError):
        antecedent_weight((1, 2), "nand", 8)


# ---- inference ----


def _single_input_spec():
    # weights at x=239 become (64, 192): floor(255*81/320), floor(255*239/316)
    return FlcSpec(
        in_bits=9,
        out_bits=12,
        alpha_bits=8,
        cons_bits=8,
        partitions=((MF(0, 0, 0, 320), MF(0, 316, 511, 511)),),
        singletons=(100, 200),
        and_method=MIN,
        mode=STANDARD,
        stages=11,
        clock_ns=10.0,
    )


def test_infer_weighted_average_example():
    spec = _single_input_spec()
    assert validate_spec(spec).ok
    rules = active_rules(spec, (239,))
    assert [w for _, w, _ in rules.firings] == [64, 192]
    out = infer(spec, (239,))
    # floor((64*100 + 192*200) / 256) = 175, widened to 12 bits
    assert out.value == 175 << 4 == 2800


def test_infer_single_firing_returns_shifted_singleton():
    part = uniform_partition(8, 3)
    spec = FlcSpec(
        in_bits=8,
        out_bits=12,
        alpha_bits=8,
        cons_bits=8,
        partitions=(part,),
        singletons=(30, 90, 210),
        and_method=MIN,
        mode=STANDARD,
    )
    assert infer(spec, (128,)).value == 90 << 4
    assert infer(spec, (0,)).value == 30 << 4
    assert infer(spec, (255,)).value == 210 << 4


def test_infer_constant_singleton_surface():
    rnd = random.Random(7)
    for _ in range(20):
        spec = random_valid_spec(rnd)
        const = rnd.randint(0, (1 << spec.cons_bits) - 1)
        flat = replace(spec, singletons=tuple([const] * len(spec.singletons)))
        shift = flat.out_bits - flat.cons_bits
        for _ in range(10):
            xs = random_inputs(rnd, flat)
            assert infer(flat, xs).value == const << shift


def test_infer_output_range_bounds():
    rnd = random.Random(13)
    for _ in range(100):
        spec = random_valid_spec(rnd)
        xs = random_inputs(rnd, spec)
        rules = active_rules(spec, xs)
        active = [y for _, w, y in rules.firings if w > 0]
        if not active:
            continue
        out = infer(spec, xs)
        shift = spec.out_bits - spec.cons_bits
        assert out.value < 1 << spec.out_bits
        assert min(active) << shift <= out.value <= max(active) << shift


def test_infer_equals_full_rulebase():
    rnd = random.Random(99)
    for _ in range(300):
        spec = random_valid_spec(rnd)
        xs = random_inputs(rnd, spec)
        assert infer(spec, xs) == infer_full_rulebase(spec, xs)


def test_infer_rejects_bad_inputs():
    spec = _single_input_spec()
    with pytest.raises(ValueError):
        infer(spec, (0, 0))
    with pytest.raises(ValueError):
        infer(spec, (512,))
    with pytest.raises(ValueError):
        infer(spec, (-1,))


def test_infer_denominator_zero():
    # 1 alpha bit floors both degrees to zero over most of the span
    spec = FlcSpec(
        in_bits=6,
        out_bits=8,
        alpha_bits=1,
        cons_bits=8,
        partitions=((MF(0, 0, 0, 63), MF(0, 63, 63, 63)),),
        singletons=(10, 200),
        and_method=MIN,
        mode=STANDARD,
    )
    with pytest.raises(DenominatorZero):
        infer(spec, (31,))


def test_active_rules_enumerates_two_to_the_n():
    rnd = random.Random(3)
    for _ in range(20):
        spec = random_valid_spec(rnd)
        rules = active_rules(spec, random_inputs(rnd, spec))
        assert len(rules.firings) == 2**spec.n
        assert len(rules.pairs) == spec.n
        addrs = [a for a, _, _ in rules.firings]
        assert len(set(addrs)) == len(addrs)
        assert all(0 <= a < spec.m**spec.n for a in addrs)


# ---- batched inference ----


def _scalar_or_zero(fn, rows):
    """[fn(xs) for xs in rows], or None if any row has a zero denominator."""
    try:
        return [fn(xs) for xs in rows]
    except DenominatorZero:
        return None


def _batch_or_zero(fn):
    try:
        return fn().tolist()
    except DenominatorZero:
        return None


@settings(max_examples=200)
@given(
    rnd=st.randoms(use_true_random=False),
    n=st.integers(1, 3),
    and_method=st.sampled_from((MIN, PROD)),
    alpha_bits=st.integers(1, 12),
)
def test_batched_inference_equals_scalar(rnd, n, and_method, alpha_bits):
    # knot partitions reach degenerate edges and, at small alpha_bits, edges
    # that floor to zero; a batch raises iff some of its rows does. Half the
    # codes sit on MF breakpoints, where a neighbour degree is 0 and PROD
    # firings weigh exactly 0.0.
    spec = random_knot_spec(rnd, n, rnd.randint(2, 7), alpha_bits, and_method)
    assume(validate_spec(spec).ok)
    knots = [[p for mf in part for p in (mf.a, mf.b, mf.c, mf.d)] for part in spec.partitions]
    codes = [np.array([rnd.choice((rnd.randrange(1 << spec.in_bits), rnd.choice(ks)))
                       for _ in range(48)]) for ks in knots]
    rows = list(zip(*(c.tolist() for c in codes)))

    tables = pair_tables(spec)
    fixed = _batch_or_zero(
        lambda: infer_batch(spec, [t.at(c) for t, c in zip(tables, codes)]))
    assert fixed == _scalar_or_zero(lambda xs: infer(spec, xs).value, rows)

    # both real paths, bit for bit against the independent m^n-rule oracle,
    # which skips zero weights and raises on its own zero denominator
    rspec, scale = lift(spec), 1 << spec.in_bits
    lifted = [[x / scale for x in row] for row in rows]
    oracle = [_scalar_or_zero(lambda xs: infer_real_full_rulebase(rspec, xs), [xs])
              for xs in lifted]  # [value] per row, or None
    assert oracle == [_scalar_or_zero(lambda xs: infer_real(rspec, xs), [xs])
                      for xs in lifted]
    rtables = pair_tables_real(spec, rspec)
    real = _batch_or_zero(
        lambda: infer_real_batch(rspec, [t.at(c) for t, c in zip(rtables, codes)]))
    assert real == (None if None in oracle else [v for [v] in oracle])


def test_batch_dtype_widens_past_62_bits():
    base = default_core_spec()
    assert batch_dtype(base) is np.int64
    assert batch_dtype(replace(base, alpha_bits=31, cons_bits=27)) is np.int64  # 62
    assert batch_dtype(replace(base, alpha_bits=31, cons_bits=28)) is object
    assert batch_dtype(replace(base, alpha_bits=32, cons_bits=1)) is object  # fold


def test_pair_tables_hold_active_pair_of_every_code():
    spec = random_valid_spec(random.Random(8), n=2, in_bits=6)
    for part, table in zip(spec.partitions, pair_tables(spec)):
        for x in range(1 << spec.in_bits):
            assert table.at(x) == active_pair(part, x, spec.alpha_bits)


def test_pair_tables_hold_active_pair_of_every_code_on_knot_specs():
    # degenerate edges, and at 2 alpha bits codes where every degree floors to 0
    rnd = random.Random(81)
    for alpha_bits, and_method in ((2, MIN), (2, PROD), (9, PROD)):
        spec = random_knot_spec(rnd, 2, 7, alpha_bits, and_method)
        for part, table in zip(spec.partitions, pair_tables(spec)):
            for x in range(1 << spec.in_bits):
                assert table.at(x) == active_pair(part, x, alpha_bits)


def _table_arrays(pairs, deg_dtype) -> list[np.ndarray]:
    """(left, deg_left, deg_right) of scalar pairs as the arrays a table holds."""
    return [np.array([p.left for p in pairs], np.intp),
            np.array([p.deg_left for p in pairs], deg_dtype),
            np.array([p.deg_right for p in pairs], deg_dtype)]


def _assert_tables_exact(spec):
    """Both models' tables equal the scalar pairs at every code, bit for bit."""
    codes = range(1 << spec.in_bits)
    rspec = lift(spec)
    for part, rpart, table, rtable in zip(spec.partitions, rspec.partitions,
                                          pair_tables(spec), pair_tables_real(spec, rspec)):
        for got, pairs, dtype in (
                (table, [active_pair(part, x, spec.alpha_bits) for x in codes], np.int64),
                (rtable, [active_pair_real(rpart, x / len(codes)) for x in codes], np.float64)):
            want = _table_arrays(pairs, dtype)
            assert [(a.dtype, a.tobytes()) for a in (got.left, got.deg_left, got.deg_right)] \
                == [(a.dtype, a.tobytes()) for a in want]


def test_real_pair_tables_hold_active_pair_real_of_every_code():
    _assert_tables_exact(random_valid_spec(random.Random(8), n=2, in_bits=6))


def test_real_pair_tables_hold_active_pair_real_of_every_code_on_knot_specs():
    rnd = random.Random(81)
    for alpha_bits, and_method in ((2, MIN), (2, PROD), (9, PROD)):
        _assert_tables_exact(random_knot_spec(rnd, 2, 7, alpha_bits, and_method))


def _drawn_mf(top: int):
    code = st.integers(0, top)
    return st.one_of(
        st.lists(code, min_size=4, max_size=4).map(sorted),  # repeats: a == b, c == d
        code.map(lambda x: [x] * 4),  # a single point
        st.lists(code, min_size=2, max_size=2).map(sorted)
        .map(lambda e: [e[0], *e, e[1]]),  # a rectangle: a == b and c == d
    ).map(lambda bp: MF(*bp))


@settings(max_examples=200)
@given(data=st.data(), in_bits=st.integers(1, 7), alpha_bits=st.integers(1, 4),
       m=st.integers(2, 6))
def test_pair_tables_equal_scalar_on_drawn_partitions(data, in_bits, alpha_bits, m):
    # any ordered breakpoints, valid or not: degenerate edges, single-point
    # MFs, and at few alpha bits long edges that floor to 0
    part = tuple(data.draw(st.lists(_drawn_mf((1 << in_bits) - 1), min_size=m, max_size=m)))
    _assert_tables_exact(FlcSpec(in_bits=in_bits, out_bits=8, alpha_bits=alpha_bits,
                                 cons_bits=8, partitions=(part,), singletons=(0,) * m))


def test_pair_tables_at_32_alpha_bits_hold_python_ints():
    spec = random_valid_spec(random.Random(32), n=1, in_bits=6, alpha_bits=32)
    assert batch_dtype(spec) is object
    [table] = pair_tables(spec)
    for x in range(1 << spec.in_bits):
        want = active_pair(spec.partitions[0], x, spec.alpha_bits)
        degs = (table.deg_left[x], table.deg_right[x])
        assert table.left[x] == want.left and degs == (want.deg_left, want.deg_right)
        assert [type(d) for d in degs] == [int, int]


def test_pair_tables_memory_stays_linear_in_the_axis_whatever_m():
    # 64 MFs over 2^16 codes; a degree matrix of every MF at every code
    # would take at least 64 units of 8 bytes per code
    spec = random_valid_spec(random.Random(64), n=1, m=64, in_bits=16)
    rspec = lift(spec)
    for build in (lambda: pair_tables(spec), lambda: pair_tables_real(spec, rspec)):
        tracemalloc.start()
        try:
            build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * (8 << spec.in_bits)


def _raised(fn, *args):
    """The exception fn(*args) raises, or None."""
    try:
        fn(*args)
    except (ValueError, DenominatorZero) as exc:
        return exc
    return None


@settings(max_examples=200)
@given(
    rnd=st.randoms(use_true_random=False),
    n=st.integers(1, 3),
    and_method=st.sampled_from((MIN, PROD)),
    alpha_bits=st.integers(1, 32),
    cons_bits=st.integers(1, 32),
)
def test_compiled_controller_equals_full_rulebase(rnd, n, and_method, alpha_bits, cons_bits):
    # knot partitions give degenerate edges and, at small alpha_bits, zero
    # denominators; every row runs twice, so the second pass reads the memo
    spec = random_knot_spec(rnd, n, rnd.randint(2, 7), alpha_bits, and_method, cons_bits)
    assume(validate_spec(spec).ok)
    ctl = Controller(spec)
    top = (1 << spec.in_bits) - 1
    rows = [tuple(rnd.choice((0, top, rnd.randint(0, top))) for _ in range(n))
            for _ in range(24)]
    for xs in rows:
        try:
            want = infer_full_rulebase(spec, xs).value
        except DenominatorZero:
            want = DenominatorZero
        for _ in range(2):
            if want is DenominatorZero:
                with pytest.raises(DenominatorZero):
                    ctl(xs)
            else:
                assert ctl(xs) == want
    # a wrong length or an out-of-range code, with the memo warm
    xs = list(rows[0])
    bad_rows = [xs[:-1], xs + [0]]
    for k in range(n):
        bad_rows += [xs[:k] + [code] + xs[k + 1:] for code in (-1, top + 1)]
    for bad in bad_rows:
        want, got = _raised(infer_full_rulebase, spec, bad), _raised(ctl, bad)
        assert type(got) is ValueError and str(got) == str(want)


# ---- timing ----


def test_timing_standard_baseline():
    report = estimate_timing(default_core_spec())
    assert report.latency_ns == 110.0
    assert report.cycles_per_sample == 16
    assert report.sample_rate_hz == 6.25e6


def test_timing_odd_even():
    spec = replace(default_core_spec(), mode=ODD_EVEN, stages=13, clock_ns=5.0)
    report = estimate_timing(spec)
    assert report.latency_ns == 65.0
    assert report.cycles_per_sample == 8
    assert report.sample_rate_hz == 25e6


def test_timing_halving_ratio_across_widths():
    rnd = random.Random(1)
    for n in range(1, 9):
        part = uniform_partition(6, 3)
        spec = FlcSpec(
            in_bits=6,
            out_bits=8,
            alpha_bits=8,
            cons_bits=8,
            partitions=tuple([part] * n),
            singletons=tuple(rnd.randrange(256) for _ in range(3**n)),
            and_method=MIN,
            mode=STANDARD,
        )
        std = estimate_timing(spec)
        odd = estimate_timing(replace(spec, mode=ODD_EVEN))
        assert std.cycles_per_sample == 2**n
        assert std.cycles_per_sample == 2 * odd.cycles_per_sample
        assert odd.sample_rate_hz == 2 * std.sample_rate_hz


# ---- serialization ----


def test_spec_json_roundtrip(tmp_path):
    rnd = random.Random(55)
    spec = random_valid_spec(rnd)
    assert spec_from_dict(spec_to_dict(spec)) == spec
    path = tmp_path / "spec.json"
    dump_spec(spec, path)
    assert load_spec(path) == spec
    # the file is plain JSON with sorted keys
    doc = json.loads(path.read_text())
    assert list(doc) == sorted(doc)


def test_spec_from_dict_rejects_malformed():
    with pytest.raises(ValueError, match="malformed spec"):
        spec_from_dict({"in_bits": 12})
    with pytest.raises(ValueError, match="malformed spec"):
        spec_from_dict({"partitions": [[[0, 0, 1]]], "singletons": []})
    # integer fields are JSON integers: a float or a bool was once truncated
    doc = spec_to_dict(default_core_spec())
    parts = json.loads(json.dumps(doc["partitions"]))
    parts[0][1][1] = 683.7  # b of [0, 683, 683, 1365]
    for edit in ({"alpha_bits": 7.9}, {"stages": True}, {"in_bits": "12"},
                 {"singletons": doc["singletons"][:-1] + [1.0]}, {"partitions": parts},
                 {"clock_ns": True}, {"clock_ns": "10"}, {"clock_ns": 10**400}):
        with pytest.raises(ValueError, match="malformed spec"):
            spec_from_dict({**doc, **edit})
    expect = replace(default_core_spec(), clock_ns=10.0)
    assert spec_from_dict({**doc, "clock_ns": 10}) == expect
