import itertools
import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzychip.problems import (
    BENCHMARKS,
    EUC_2D,
    GEO,
    BenchmarkFitness,
    TspFitness,
    TspInstance,
    TsplibParseError,
    brute_force_optimum,
    distance,
    distance_matrix,
    format_tsplib,
    held_karp_optimum,
    lehmer_decode,
    load_builtin,
    load_tsplib,
    parse_tsplib,
    rastrigin,
    rosenbrock,
    sphere,
    step_surface,
    tour_length,
)

MINIMAL = """\
NAME: tiny
TYPE: TSP
DIMENSION: 4
EDGE_WEIGHT_TYPE: EUC_2D
NODE_COORD_SECTION
1 0 0
2 3 4
3 3 0
4 0 4
EOF
"""


# ---- parsing ----


def test_parse_minimal_instance():
    inst = parse_tsplib(MINIMAL)
    assert inst.name == "tiny"
    assert inst.dimension == 4
    assert inst.edge_weight_type == EUC_2D
    assert inst.coords == ((0.0, 0.0), (3.0, 4.0), (3.0, 0.0), (0.0, 4.0))


def test_parse_tolerates_noise():
    text = MINIMAL.replace("NAME: tiny", "COMMENT : whatever\nNAME :  tiny")
    inst = parse_tsplib(text)
    assert inst.name == "tiny"
    # content after EOF is ignored
    assert parse_tsplib(MINIMAL + "garbage here\n").dimension == 4


def test_parse_out_of_order_node_ids():
    text = MINIMAL.replace("1 0 0\n2 3 4", "2 3 4\n1 0 0")
    inst = parse_tsplib(text)
    assert inst.coords[0] == (0.0, 0.0)
    assert inst.coords[1] == (3.0, 4.0)


@pytest.mark.parametrize(
    "mangle, needle",
    [
        (lambda t: t.replace("DIMENSION: 4", "DIMENSION: four"), "bad DIMENSION"),
        (
            lambda t: t.replace("EUC_2D", "ATT"),
            "unsupported EDGE_WEIGHT_TYPE",
        ),
        (
            lambda t: t.replace("DIMENSION: 4\n", ""),
            "NODE_COORD_SECTION before DIMENSION",
        ),
        (lambda t: t.replace("3 3 0\n4 0 4\nEOF\n", ""), "file ended early"),
        (lambda t: t.replace("2 3 4", "2 3"), "expected 'id x y'"),
        (lambda t: t.replace("2 3 4", "2 x 4"), "non-numeric"),
        (lambda t: t.replace("4 0 4", "9 0 4"), "outside 1..4"),
        (lambda t: t.replace("4 0 4", "2 0 4"), "duplicate node id"),
        (lambda t: t.replace("2 3 4", "2 inf 4"), "line 7: non-finite coordinate"),
        (lambda t: t.replace("2 3 4", "2 3 nan"), "line 7: non-finite coordinate"),
        (lambda t: t.replace("2 3 4", "2 1e400 4"), "line 7: non-finite coordinate"),
        # checked before DIMENSION slots are allocated (once a MemoryError)
        (lambda t: t.replace("DIMENSION: 4", "DIMENSION: 100000000000"),
         "line 10: expected 100000000000 coordinate lines, file ended early"),
    ],
)
def test_parse_errors_carry_line_numbers(mangle, needle):
    with pytest.raises(TsplibParseError, match=needle) as exc:
        parse_tsplib(mangle(MINIMAL))
    assert "line " in str(exc.value)


@pytest.mark.parametrize(
    "mangle, needle",
    [
        (
            lambda t: t.replace("DIMENSION: 4\n", "").replace(
                "NODE_COORD_SECTION\n1 0 0\n2 3 4\n3 3 0\n4 0 4\n", ""
            ),
            "missing DIMENSION",
        ),
        (
            lambda t: t.replace("EDGE_WEIGHT_TYPE: EUC_2D\n", ""),
            "missing EDGE_WEIGHT_TYPE",
        ),
        (
            lambda t: t.replace(
                "NODE_COORD_SECTION\n1 0 0\n2 3 4\n3 3 0\n4 0 4\n", ""
            ),
            "missing NODE_COORD_SECTION",
        ),
    ],
)
def test_parse_missing_sections(mangle, needle):
    with pytest.raises(TsplibParseError, match=needle):
        parse_tsplib(mangle(MINIMAL))


def test_parse_rejects_tiny_dimension():
    text = (
        "DIMENSION: 2\nEDGE_WEIGHT_TYPE: EUC_2D\nNODE_COORD_SECTION\n"
        "1 0 0\n2 1 1\nEOF\n"
    )
    with pytest.raises(TsplibParseError, match="too small"):
        parse_tsplib(text)


def test_format_parse_roundtrip():
    inst = parse_tsplib(MINIMAL)
    assert parse_tsplib(format_tsplib(inst)) == inst
    burma = load_builtin("burma14")
    assert parse_tsplib(format_tsplib(burma)) == burma


def test_load_tsplib_file(tmp_path):
    path = tmp_path / "tiny.tsp"
    path.write_text(MINIMAL)
    assert load_tsplib(path) == parse_tsplib(MINIMAL)


def test_load_builtin_burma14():
    inst = load_builtin("burma14")
    assert inst.name == "burma14"
    assert inst.dimension == 14
    assert inst.edge_weight_type == GEO
    assert inst.coords[0] == (16.47, 96.10)
    assert inst.coords[13] == (20.09, 94.55)


# ---- distances ----


def test_euclidean_distance_rounds_to_nearest():
    inst = parse_tsplib(MINIMAL)
    assert distance(inst, 0, 1) == 5  # 3-4-5 triangle
    assert distance(inst, 0, 2) == 3
    assert distance(inst, 0, 0) == 0
    diag = TspInstance("d", 3, EUC_2D, ((0, 0), (1, 1), (2.49, 0)))
    assert distance(diag, 0, 1) == 1  # 1.414 rounds down
    assert distance(diag, 0, 2) == 2  # 2.49 rounds down
    half = TspInstance("h", 3, EUC_2D, ((0, 0), (2.5, 0), (0, 0)))
    assert distance(half, 0, 1) == 3  # .5 rounds up


def test_distance_symmetry_and_diagonal():
    for inst in (parse_tsplib(MINIMAL), load_builtin("burma14")):
        n = inst.dimension
        for i in range(n):
            assert distance(inst, i, i) == 0
            for j in range(i + 1, n):
                assert distance(inst, i, j) == distance(inst, j, i)


def test_geo_frozen_edges():
    # Degree-minute coordinate convention on the idealized sphere; these
    # edges belong to the instance whose known optimal tour length is 3323.
    inst = load_builtin("burma14")
    assert distance(inst, 0, 1) == 153
    assert distance(inst, 0, 13) == 398


def test_distance_matrix_matches_pairwise():
    inst = load_builtin("burma14")
    mat = distance_matrix(inst)
    for i in range(14):
        for j in range(14):
            assert mat[i][j] == distance(inst, i, j)


def test_tour_length_closes_the_loop():
    inst = parse_tsplib(MINIMAL)
    # square 0 -> 2 -> 1 -> 3: 3 + 4 + 3 + 4
    assert tour_length(inst, (0, 2, 1, 3)) == 14


# ---- Lehmer encoding ----


def _lehmer_encode(perm) -> int:
    # independent inverse used as an oracle
    remaining = list(range(len(perm)))
    value = 0
    for k, city in enumerate(perm):
        idx = remaining.index(city)
        value += idx * math.factorial(len(perm) - 1 - k)
        remaining.pop(idx)
    return value


def test_lehmer_identity_and_reverse():
    assert lehmer_decode(0, 5) == (0, 1, 2, 3, 4)
    assert lehmer_decode(math.factorial(5) - 1, 5) == (4, 3, 2, 1, 0)
    assert lehmer_decode(3, 3) == (1, 2, 0)


def test_lehmer_is_a_bijection():
    perms = {lehmer_decode(v, 5) for v in range(math.factorial(5))}
    assert perms == set(itertools.permutations(range(5)))


def test_lehmer_encode_decode_inverse():
    rnd = random.Random(6)
    for _ in range(100):
        n = rnd.randint(2, 9)
        v = rnd.randrange(math.factorial(n))
        assert _lehmer_encode(lehmer_decode(v, n)) == v


def test_lehmer_rejects_out_of_range():
    # 0! = 1! = 1: sizes 0 and 1 accept only value 0.
    for n in (0, 1, 2, 4, 14):
        limit = math.factorial(n)
        assert sorted(lehmer_decode(limit - 1, n)) == list(range(n))
        for bad in (-1, limit, limit + 1):
            with pytest.raises(ValueError):
                lehmer_decode(bad, n)
    with pytest.raises(ValueError):
        lehmer_decode(0, -1)


# ---- TSP fitness ----


def test_tsp_fitness_requires_wide_genome():
    inst = load_builtin("burma14")
    with pytest.raises(ValueError, match="need at least 37 bits"):
        TspFitness(inst, genom_lngt=16)


def test_tsp_fitness_rejects_huge_dimension_without_factorial():
    # n! > 2^n >= 2^genom_lngt once n >= 4; the check and its message once
    # computed n! twice (about 7 s each for a million cities)
    n = 10**6
    inst = TspInstance("huge", n, EUC_2D, ((0.0, 0.0),) * n)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="need at least 18488885 bits"):
        TspFitness(inst, genom_lngt=4096)
    assert time.perf_counter() - start < 1.0
    # at the bound n == genom_lngt the message still gives ceil(log2(n!))
    for n in (4, 40, 4096):
        inst = TspInstance("grid", n, EUC_2D, tuple((float(i), 0.0) for i in range(n)))
        need = (math.factorial(n) - 1).bit_length()
        with pytest.raises(ValueError, match=f"need at least {need} bits$"):
            TspFitness(inst, genom_lngt=n)


def test_tsp_fitness_l_max():
    fit = TspFitness(load_builtin("burma14"), genom_lngt=40)
    assert fit.l_max == 17654  # 14 cities x longest edge 1261


def test_tsp_fitness_score_formula():
    inst = load_builtin("burma14")
    fit = TspFitness(inst, genom_lngt=40)
    rnd = random.Random(12)
    for _ in range(40):
        g = rnd.getrandbits(40)
        tour = fit.decode(g)
        assert sorted(tour) == list(range(14))
        expect = fit.l_max - tour_length(inst, tour)
        assert fit(g) == min(max(expect, 0), (1 << 16) - 1)


def test_tsp_fitness_prefers_shorter_tours():
    inst = load_builtin("burma14")
    fit = TspFitness(inst, genom_lngt=40)
    _, best_tour = held_karp_optimum(inst)
    g_best = _lehmer_encode(best_tour)
    rnd = random.Random(3)
    for _ in range(20):
        g = rnd.getrandbits(40)
        assert fit(g_best) >= fit(g)


def test_tsp_fitness_clamps_to_score_width():
    inst = load_builtin("burma14")
    fit = TspFitness(inst, genom_lngt=40, score_sz=8)
    assert all(fit(g) <= 255 for g in (0, 12345, (1 << 40) - 1))


@settings(max_examples=100)
@given(
    rnd=st.randoms(use_true_random=False),
    n=st.integers(3, 12),
    edge_type=st.sampled_from((EUC_2D, GEO)),
    extra_bits=st.integers(0, 8),
    score_sz=st.sampled_from((1, 8, 12, 16, 24)),
)
def test_tsp_fitness_equals_decode_then_length(rnd, n, edge_type, extra_bits, score_sz):
    # the one-pass fitness against the oracle path; genomes reach past n!
    # (reduced mod n!) and small score widths clamp
    if edge_type == EUC_2D:
        coords = [(rnd.uniform(-500, 500), rnd.uniform(-500, 500)) for _ in range(n)]
    else:  # DDD.MM latitude / longitude
        coords = [(rnd.randint(-89, 89) + rnd.randint(0, 59) / 100,
                   rnd.randint(-179, 179) + rnd.randint(0, 59) / 100) for _ in range(n)]
    inst = TspInstance("rand", n, edge_type, tuple(coords))
    bits = math.factorial(n).bit_length() + extra_bits
    fit = TspFitness(inst, genom_lngt=bits, score_sz=score_sz)
    top = (1 << score_sz) - 1
    for g in [0, math.factorial(n) - 1, math.factorial(n), (1 << bits) - 1] + [
        rnd.getrandbits(bits) for _ in range(30)
    ]:
        tour = lehmer_decode(g % math.factorial(n), n)
        assert fit(g) == min(max(fit.l_max - tour_length(inst, tour), 0), top)


def test_tsp_fitness_genome_wraps_mod_factorial():
    inst = parse_tsplib(MINIMAL)
    fit = TspFitness(inst, genom_lngt=16)
    assert fit.decode(0) == fit.decode(math.factorial(4))


# ---- exact optima ----


def _random_instance(rnd: random.Random, n: int) -> TspInstance:
    coords = tuple(
        (float(rnd.randrange(0, 500)), float(rnd.randrange(0, 500))) for _ in range(n)
    )
    return TspInstance(f"rand{n}", n, EUC_2D, coords)


def test_brute_force_and_held_karp_agree():
    rnd = random.Random(42)
    for n in (7, 8):
        for _ in range(3):
            inst = _random_instance(rnd, n)
            bf_len, bf_tour = brute_force_optimum(inst)
            hk_len, hk_tour = held_karp_optimum(inst)
            assert bf_len == hk_len
            assert tour_length(inst, bf_tour) == bf_len
            assert tour_length(inst, hk_tour) == hk_len
            assert sorted(hk_tour) == list(range(n))


def test_held_karp_burma14_known_optimum():
    inst = load_builtin("burma14")
    length, tour = held_karp_optimum(inst)
    assert length == 3323  # published optimum for this instance
    assert tour_length(inst, tour) == 3323
    assert sorted(tour) == list(range(14))
    assert tour[0] == 0


def test_brute_force_square():
    inst = parse_tsplib(MINIMAL)
    length, tour = brute_force_optimum(inst)
    assert length == 14  # walk the square's perimeter
    assert tour_length(inst, tour) == 14


# ---- benchmark surfaces ----


def test_benchmark_values_at_known_points():
    assert sphere(0.0, 0.0) == 0.0
    assert sphere(1.0, 2.0) == 5.0
    assert rosenbrock(1.0, 1.0) == 0.0
    assert rosenbrock(0.0, 0.0) == 1.0
    assert rastrigin(0.0, 0.0) == pytest.approx(0.0, abs=1e-12)
    assert rastrigin(1.0, 1.0) == pytest.approx(2.0, abs=1e-9)
    assert step_surface(2.7, -1.2) == 0.0  # 2 + (-2)
    assert step_surface(3.9, 1.1) == 4.0


def test_benchmark_domains():
    assert BENCHMARKS["sphere"][1:] == (-5.12, 5.12)
    assert BENCHMARKS["rosenbrock"][1:] == (-2.048, 2.048)
    assert BENCHMARKS["rastrigin"][1:] == (-5.12, 5.12)
    assert BENCHMARKS["step"][1:] == (-5.12, 5.12)


def test_benchmark_fitness_rejects_bad_setup():
    with pytest.raises(ValueError, match="unknown benchmark"):
        BenchmarkFitness("ackley")
    with pytest.raises(ValueError, match="16 bits"):
        BenchmarkFitness("sphere", genom_lngt=20)


def test_benchmark_decode_corners():
    fit = BenchmarkFitness("sphere")
    assert fit.decode(0x0000) == (-5.12, -5.12)
    assert fit.decode(0xFFFF) == (5.12, 5.12)
    assert fit.decode(0x00FF) == (5.12, -5.12)  # low byte is x1
    assert fit.decode(0xFF00) == (-5.12, 5.12)


def test_benchmark_grid_extremes():
    # The 256-point axis cannot hit 0 exactly; nearest codes 127/128 sit at
    # -/+ 0.0200784, flooring the sphere grid minimum just above zero.
    fit = BenchmarkFitness("sphere")
    assert fit.f_max == pytest.approx(52.4288, rel=1e-12)
    assert fit.f_min == pytest.approx(0.00080628681, rel=1e-6)
    rast = BenchmarkFitness("rastrigin")
    assert rast.f_min == pytest.approx(0.15974995, rel=1e-6)
    step = BenchmarkFitness("step")
    assert (step.f_min, step.f_max) == (-12.0, 10.0)


def test_benchmark_best_grid_point_scores_full_scale():
    fit = BenchmarkFitness("sphere")
    center = 127 | (127 << 8)
    assert fit(center) == (1 << 16) - 1
    assert fit(0x0000) == 0  # the grid maximum scores zero


def test_benchmark_score_formula():
    fit = BenchmarkFitness("rastrigin")
    fn = BENCHMARKS["rastrigin"][0]
    span = fit.f_max - fit.f_min
    rnd = random.Random(9)
    for _ in range(60):
        g = rnd.getrandbits(16)
        f = fn(*fit.decode(g))
        expect = int((fit.f_max - f) * ((1 << 16) - 1) / span + 0.5)
        assert fit(g) == min(max(expect, 0), (1 << 16) - 1)


def test_benchmark_score_orders_by_function_value():
    fit = BenchmarkFitness("rosenbrock")
    fn = BENCHMARKS["rosenbrock"][0]
    rnd = random.Random(5)
    pairs = [(fn(*fit.decode(g)), fit(g)) for g in (rnd.getrandbits(16) for _ in range(50))]
    pairs.sort()
    scores = [s for _, s in pairs]
    assert all(b <= a for a, b in zip(scores, scores[1:]))
