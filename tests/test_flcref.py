import hashlib
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    acceptance_corpus,
    knot_partition,
    random_inputs,
    random_partition,
    random_valid_spec,
)
from fuzzychip.flc import (
    MIN,
    PROD,
    DenominatorZero,
    FlcSpec,
    MembershipFunction,
    infer,
    membership,
    rule_address,
    validate_spec,
)
from fuzzychip.flcref import (
    RealFlcSpec,
    _envelope_floor,
    active_pair_real,
    infer_real,
    lift,
    membership_real,
    quantization_bound,
)

MF = MembershipFunction


def infer_real_full_rulebase(rspec: RealFlcSpec, xs) -> float:
    """Oracle: the weighted average over all m^n rules in float arithmetic."""
    mu = [[membership_real(mf, x) for mf in part] for part, x in zip(rspec.partitions, xs)]
    num = den = 0.0
    for idxs in itertools.product(range(rspec.m), repeat=rspec.n):
        degs = [mu[k][idx] for k, idx in enumerate(idxs)]
        w = min(degs) if rspec.and_method == MIN else math.prod(degs)
        if w > 0.0:
            num += w * rspec.singletons[rule_address(idxs, rspec.m)]
            den += w
    if den == 0.0:
        raise DenominatorZero("all real rule weights are zero for this input vector")
    return num / den


def envelope_floor_scan(partition, in_bits: int, alpha_bits: int) -> int:
    """Oracle: the smallest envelope degree by a scan of every input code."""
    worst = (1 << alpha_bits) - 1
    for x in range(1 << in_bits):
        worst = min(worst, max(membership(mf, x, alpha_bits) for mf in partition))
        if worst == 0:
            break
    return worst


# ---- lifting ----


def test_lift_scales_breakpoints_and_singletons():
    spec = FlcSpec(
        in_bits=8,
        out_bits=10,
        alpha_bits=6,
        cons_bits=4,
        partitions=((MF(0, 0, 0, 128), MF(0, 128, 255, 255)),),
        singletons=(3, 12),
    )
    rspec = lift(spec)
    assert rspec.partitions[0][0] == (0.0, 0.0, 0.0, 0.5)
    assert rspec.partitions[0][1] == (0.0, 0.5, 255 / 256, 255 / 256)
    assert rspec.singletons == (3 / 16, 12 / 16)
    assert rspec.and_method == spec.and_method
    assert rspec.n == 1 and rspec.m == 2


def test_lift_preserves_shape():
    rnd = random.Random(11)
    for _ in range(25):
        spec = random_valid_spec(rnd)
        rspec = lift(spec)
        assert rspec.n == spec.n
        assert rspec.m == spec.m
        assert len(rspec.singletons) == spec.m**spec.n
        for part in rspec.partitions:
            for a, b, c, d in part:
                assert 0.0 <= a <= b <= c <= d < 1.0


# ---- real membership ----


def test_membership_real_triangle():
    tri = (0.0, 0.5, 0.5, 1.0)
    assert membership_real(tri, 0.25) == 0.5
    assert membership_real(tri, 0.5) == 1.0
    assert membership_real(tri, 0.75) == 0.5
    assert membership_real(tri, 0.0) == 0.0
    assert membership_real(tri, 1.0) == 0.0


def test_membership_real_outside_support():
    trap = (0.2, 0.4, 0.6, 0.8)
    assert membership_real(trap, 0.1) == 0.0
    assert membership_real(trap, 0.9) == 0.0
    assert membership_real(trap, 0.5) == 1.0


def test_membership_real_degenerate_edges_take_plateau():
    # a == b and c == d: the plateau branch must win at the shared point.
    left = (0.0, 0.0, 0.0, 0.5)
    right = (0.5, 1.0, 1.0, 1.0)
    assert membership_real(left, 0.0) == 1.0
    assert membership_real(right, 1.0) == 1.0


def test_membership_real_matches_fixed_ratio():
    # On exact-code edges the fixed degree is floor(top * r); the lifted
    # degree is r itself, so fixed/top can never exceed it.
    rnd = random.Random(5)
    for _ in range(50):
        spec = random_valid_spec(rnd)
        rspec = lift(spec)
        top = (1 << spec.alpha_bits) - 1
        in_scale = float(1 << spec.in_bits)
        k = rnd.randrange(spec.n)
        j = rnd.randrange(spec.m)
        x = rnd.randrange(1 << spec.in_bits)
        fixed = membership(spec.partitions[k][j], x, spec.alpha_bits)
        real = membership_real(rspec.partitions[k][j], x / in_scale)
        assert fixed / top <= real + 1e-12
        assert fixed / top >= real - 1.0 / top - 1e-12


# ---- real inference ----


def _unit_pair() -> tuple[tuple[float, float, float, float], ...]:
    return ((0.0, 0.0, 0.0, 1.0), (0.0, 1.0, 1.0, 1.0))


def test_infer_real_identity_surface():
    # Two complementary triangles with singletons 0 and 1 interpolate x exactly.
    rspec = RealFlcSpec(
        partitions=(_unit_pair(),), singletons=(0.0, 1.0), and_method=MIN
    )
    for x in (0.0, 0.125, 0.3, 0.5, 0.777, 1.0):
        assert infer_real(rspec, [x]) == pytest.approx(x, abs=1e-12)


def test_infer_real_two_input_hand_value():
    rspec = RealFlcSpec(
        partitions=(_unit_pair(), _unit_pair()),
        singletons=(0.0, 1 / 3, 2 / 3, 1.0),
        and_method=MIN,
    )
    # mu0 = (0.75, 0.25), mu1 = (0.5, 0.5); MIN weights (.5, .25, .5, .25).
    assert infer_real(rspec, [0.25, 0.5]) == pytest.approx(4 / 9, abs=1e-12)


def test_infer_real_prod_differs_from_min():
    rspec_min = RealFlcSpec(
        partitions=(_unit_pair(), _unit_pair()),
        singletons=(0.0, 1 / 3, 2 / 3, 1.0),
        and_method=MIN,
    )
    rspec_prod = RealFlcSpec(
        partitions=rspec_min.partitions,
        singletons=rspec_min.singletons,
        and_method=PROD,
    )
    # PROD weights (.375, .125, .375, .125) -> num = 1/24 + 1/4 + 1/8 = 5/12.
    assert infer_real(rspec_prod, [0.25, 0.5]) == pytest.approx(5 / 12, abs=1e-12)
    assert infer_real(rspec_min, [0.25, 0.5]) != pytest.approx(
        infer_real(rspec_prod, [0.25, 0.5]), abs=1e-6
    )


def test_infer_real_rejects_wrong_arity():
    rspec = RealFlcSpec(
        partitions=(_unit_pair(),), singletons=(0.0, 1.0), and_method=MIN
    )
    with pytest.raises(ValueError):
        infer_real(rspec, [0.3, 0.4])


def test_infer_real_denominator_zero():
    gapped = RealFlcSpec(
        partitions=(((0.0, 0.0, 0.0, 0.2), (0.8, 1.0, 1.0, 1.0)),),
        singletons=(0.0, 1.0),
        and_method=MIN,
    )
    with pytest.raises(DenominatorZero):
        infer_real(gapped, [0.5])


# ---- active real pairs ----


def test_active_pair_real_holds_every_nonzero_degree():
    # every code of random valid partitions, including degenerate edges
    # (a == b, c == d) and edges that floor to zero in the fixed model
    rnd = random.Random(41)
    checked = 0
    while checked < 600:
        in_bits, m = rnd.randint(2, 8), rnd.randint(2, 6)
        make = rnd.choice((knot_partition, random_partition))
        if make is random_partition and (1 << in_bits) - 1 < m:
            continue
        part = make(rnd, in_bits, m)
        spec = FlcSpec(in_bits, in_bits, 1, 1, (part,), (0,) * m)
        if not validate_spec(spec).ok:
            continue
        rpart = lift(spec).partitions[0]
        for x in range(1 << in_bits):
            pair = active_pair_real(rpart, x / (1 << in_bits))
            degs = [membership_real(mf, x / (1 << in_bits)) for mf in rpart]
            assert (pair.deg_left, pair.deg_right) == (degs[pair.left], degs[pair.left + 1])
            outside = degs[: pair.left] + degs[pair.left + 2:]
            assert not any(outside), (part, x)
        checked += 1


def test_active_pair_real_all_zero_and_clamp():
    gapped = ((0.0, 0.0, 0.0, 0.2), (0.8, 1.0, 1.0, 1.0))
    pair = active_pair_real(gapped, 0.5)
    assert (pair.left, pair.deg_left, pair.deg_right) == (0, 0.0, 0.0)
    three = ((0.0, 0.0, 0.0, 0.5), (0.0, 0.5, 0.5, 1.0), (0.5, 1.0, 1.0, 1.0))
    pair = active_pair_real(three, 1.0)  # only MF 2 is nonzero
    assert (pair.left, pair.deg_left, pair.deg_right) == (1, 0.0, 1.0)


def test_infer_real_equals_full_rulebase_on_acceptance_corpus():
    pairs, big_pairs = acceptance_corpus()
    for spec, xs in pairs + big_pairs:
        rspec = lift(spec)
        reals = [x / (1 << spec.in_bits) for x in xs]
        assert infer_real(rspec, reals) == infer_real_full_rulebase(rspec, reals)


# ---- quantization bound ----


def test_bound_is_positive_and_structured():
    rnd = random.Random(21)
    for _ in range(30):
        spec = random_valid_spec(rnd)
        bound = quantization_bound(spec)
        assert bound > 0.0
        # Never tighter than the final-division error alone.
        assert bound >= 1.0 / (1 << spec.cons_bits)


def test_bound_vacuous_on_coverage_gap():
    # A hole in the partition floors the denominator at zero; the bound
    # must fall back to the trivial 1.0 instead of dividing by it.
    spec = FlcSpec(
        in_bits=8,
        out_bits=10,
        alpha_bits=8,
        cons_bits=8,
        partitions=((MF(0, 0, 0, 40), MF(200, 255, 255, 255)),),
        singletons=(0, 255),
    )
    assert quantization_bound(spec) == 1.0


def test_bound_tightens_with_alpha():
    # More degree bits -> smaller per-degree error -> smaller bound.
    def sample(alpha: int) -> float:
        rnd = random.Random(33)
        spec = random_valid_spec(rnd, alpha_bits=alpha)
        return quantization_bound(spec)

    assert sample(10) < sample(6)


def test_fixed_output_within_bound():
    # The headline contract: lifted fixed output and the real reference
    # disagree by at most the a-priori bound, input-uniformly.
    rnd = random.Random(99)
    checked = 0
    for _ in range(150):
        spec = random_valid_spec(rnd)
        bound = quantization_bound(spec)
        if bound >= 1.0:
            continue
        rspec = lift(spec)
        in_scale = float(1 << spec.in_bits)
        out_scale = float(1 << spec.out_bits)
        for _ in range(6):
            xs = random_inputs(rnd, spec)
            fixed = infer(spec, xs).value / out_scale
            real = infer_real(rspec, [x / in_scale for x in xs])
            assert abs(fixed - real) <= bound + 1e-12
            checked += 1
    assert checked >= 500


def test_fixed_weighted_average_one_sided_numerator():
    # Fixed rule weights never exceed their real counterparts, so with a
    # constant singleton table both sides reproduce the constant exactly.
    rnd = random.Random(3)
    for _ in range(20):
        spec = random_valid_spec(rnd)
        const = rnd.randint(0, (1 << spec.cons_bits) - 1)
        flat = FlcSpec(
            in_bits=spec.in_bits,
            out_bits=spec.out_bits,
            alpha_bits=spec.alpha_bits,
            cons_bits=spec.cons_bits,
            partitions=spec.partitions,
            singletons=tuple([const] * len(spec.singletons)),
            and_method=spec.and_method,
            mode=spec.mode,
        )
        rspec = lift(flat)
        xs = random_inputs(rnd, flat)
        real = infer_real(rspec, [x / (1 << flat.in_bits) for x in xs])
        assert real == pytest.approx(const / (1 << flat.cons_bits), abs=1e-12)


def test_bound_respects_and_method():
    # PROD folds add truncation steps, so its weight error term is larger.
    rnd = random.Random(17)
    spec = random_valid_spec(rnd, n=2, and_method=MIN)
    prod_spec = FlcSpec(
        in_bits=spec.in_bits,
        out_bits=spec.out_bits,
        alpha_bits=spec.alpha_bits,
        cons_bits=spec.cons_bits,
        partitions=spec.partitions,
        singletons=spec.singletons,
        and_method=PROD,
        mode=spec.mode,
    )
    b_min = quantization_bound(spec)
    b_prod = quantization_bound(prod_spec)
    if b_min < 1.0 and b_prod < 1.0:
        assert b_prod > b_min


def test_bound_on_two_mf_identity_core():
    # Small closed-form core: 8-bit input, complementary triangles, 8-bit
    # consequents spanning full scale. Fixed output tracks x within bound.
    spec = FlcSpec(
        in_bits=8,
        out_bits=10,
        alpha_bits=8,
        cons_bits=8,
        partitions=((MF(0, 0, 0, 255), MF(0, 255, 255, 255)),),
        singletons=(0, 255),
    )
    bound = quantization_bound(spec)
    assert bound < 1.0
    rspec = lift(spec)
    worst = 0.0
    for x in range(256):
        fixed = infer(spec, [x]).value / 1024.0
        real = infer_real(rspec, [x / 256.0])
        worst = max(worst, abs(fixed - real))
    assert worst <= bound + 1e-12


# ---- envelope floor against the scan ----


@st.composite
def floor_cases(draw):
    """(partition, in_bits, alpha_bits) with no validity guarantee. A knot
    partition (overlapping neighbour edges, a == b and c == d where knots
    repeat, single-point MFs) has some MFs replaced by arbitrary ones: gaps,
    unsorted peaks, overlapping non-neighbours, now and then breakpoints out
    of order."""
    in_bits = draw(st.integers(1, 10))
    top = (1 << in_bits) - 1
    code = st.integers(0, top)
    m = draw(st.integers(1, 6))
    inner = draw(st.lists(code, min_size=2 * m - 2, max_size=2 * m - 2))
    knots = [0] + sorted(inner) + [top]
    b, c = knots[0::2], knots[1::2]
    d = [draw(st.integers(c[i], b[i + 1])) for i in range(m - 1)] + [top]
    a = [0] + [draw(st.integers(c[i - 1], d[i - 1])) for i in range(1, m)]
    mfs = [MF(*mf) for mf in zip(a, b, c, d)]
    for i in draw(st.sets(st.integers(0, m - 1))):
        points = sorted(draw(st.lists(code, min_size=4, max_size=4)))
        if draw(st.booleans()):
            points = draw(st.permutations(points))
        mfs[i] = MF(*points)
    return tuple(mfs), in_bits, draw(st.integers(1, 16))


@settings(max_examples=300)
@given(floor_cases())
def test_envelope_floor_equals_scan(case):
    assert _envelope_floor(*case) == envelope_floor_scan(*case)


def test_envelope_floor_of_empty_partition_raises_like_scan():
    for floor in (_envelope_floor, envelope_floor_scan):
        with pytest.raises(ValueError):
            floor((), 4, 4)


def test_envelope_floor_equals_scan_on_acceptance_corpus():
    pairs, big_pairs = acceptance_corpus()
    cases = {(part, spec.in_bits, spec.alpha_bits)
             for spec, _ in pairs + big_pairs for part in spec.partitions}
    assert len(cases) == 687
    for case in cases:
        assert _envelope_floor(*case) == envelope_floor_scan(*case)


# sha256 of repr(quantization_bound(spec)), one line per distinct corpus spec
# in corpus order, from the 2^in_bits scan the bisection replaced
CORPUS_BOUND_SHA256 = "7388d2ae098bb0122cc230a57e302379c9affe4ea3918ff8cd57e24f763bbffc"


def test_corpus_bounds_frozen():
    pairs, big_pairs = acceptance_corpus()
    specs = dict.fromkeys(spec for spec, _ in pairs + big_pairs)
    text = "".join(f"{quantization_bound(spec)!r}\n" for spec in specs)
    assert len(specs) == 351
    assert hashlib.sha256(text.encode()).hexdigest() == CORPUS_BOUND_SHA256
