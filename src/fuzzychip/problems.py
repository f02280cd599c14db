"""Evaluation problems for the genetic engine: TSP instances and classic
two-variable benchmark surfaces.

TSP tours are encoded as Lehmer codes (factorial base), so plain bit-level
crossover and mutation always decode to valid permutations. Distances follow
the TSPLIB conventions for EUC_2D and GEO edge weights.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

EUC_2D = "EUC_2D"
GEO = "GEO"
SUPPORTED_EDGE_TYPES = (EUC_2D, GEO)

_EARTH_RADIUS = 6378.388
_GEO_PI = 3.141592  # truncated constant used by the reference distance code


class TsplibParseError(ValueError):
    """Malformed instance text; message carries the offending line number."""


# ---- instance model and parser ----


@dataclass(frozen=True)
class TspInstance:
    name: str
    dimension: int
    edge_weight_type: str
    coords: tuple[tuple[float, float], ...]


def parse_tsplib(text: str) -> TspInstance:
    """Parse the supported TSPLIB subset: NAME, TYPE, DIMENSION,
    EDGE_WEIGHT_TYPE, NODE_COORD_SECTION, EOF. Unknown keys are ignored,
    whitespace and the optional colon after section markers are tolerated."""
    name = ""
    dimension: int | None = None
    edge_type: str | None = None
    coords: list[tuple[float, float] | None] | None = None
    lines = text.splitlines()

    i = 0
    while i < len(lines):
        lineno = i + 1
        raw = lines[i].strip()
        i += 1
        if not raw:
            continue
        key, _, value = raw.partition(":")
        key = key.strip().upper()
        value = value.strip()
        if key == "EOF":
            break
        if key == "NAME":
            name = value
        elif key == "DIMENSION":
            try:
                dimension = int(value)
            except ValueError:
                raise TsplibParseError(f"line {lineno}: bad DIMENSION {value!r}")
        elif key == "EDGE_WEIGHT_TYPE":
            if value not in SUPPORTED_EDGE_TYPES:
                raise TsplibParseError(
                    f"line {lineno}: unsupported EDGE_WEIGHT_TYPE {value!r} "
                    f"(supported: {', '.join(SUPPORTED_EDGE_TYPES)})"
                )
            edge_type = value
        elif key == "NODE_COORD_SECTION":
            if dimension is None:
                raise TsplibParseError(
                    f"line {lineno}: NODE_COORD_SECTION before DIMENSION"
                )
            coords = [None] * dimension
            for _ in range(dimension):
                if i >= len(lines):
                    raise TsplibParseError(
                        f"line {len(lines)}: expected {dimension} coordinate "
                        "lines, file ended early"
                    )
                lineno = i + 1
                fields = lines[i].split()
                i += 1
                if len(fields) != 3:
                    raise TsplibParseError(
                        f"line {lineno}: expected 'id x y', got {lines[i - 1]!r}"
                    )
                try:
                    node = int(fields[0])
                    x, y = float(fields[1]), float(fields[2])
                except ValueError:
                    raise TsplibParseError(
                        f"line {lineno}: non-numeric coordinate line"
                    )
                if not 1 <= node <= dimension:
                    raise TsplibParseError(
                        f"line {lineno}: node id {node} outside 1..{dimension}"
                    )
                if coords[node - 1] is not None:
                    raise TsplibParseError(f"line {lineno}: duplicate node id {node}")
                coords[node - 1] = (x, y)  # 1-based ids stored 0-based
        # TYPE, COMMENT and any other keys: informational, ignored

    if dimension is None:
        raise TsplibParseError("missing DIMENSION")
    if edge_type is None:
        raise TsplibParseError("missing EDGE_WEIGHT_TYPE")
    if coords is None:
        raise TsplibParseError("missing NODE_COORD_SECTION")
    if dimension < 3:
        raise TsplibParseError(f"DIMENSION {dimension} too small for a tour")
    return TspInstance(name, dimension, edge_type, tuple(coords))


def format_tsplib(inst: TspInstance) -> str:
    """Serialize the supported key subset; parse(format(x)) == x."""
    lines = [
        f"NAME: {inst.name}",
        "TYPE: TSP",
        f"DIMENSION: {inst.dimension}",
        f"EDGE_WEIGHT_TYPE: {inst.edge_weight_type}",
        "NODE_COORD_SECTION",
    ]
    for i, (x, y) in enumerate(inst.coords):
        lines.append(f"{i + 1} {x:.10g} {y:.10g}")
    lines.append("EOF")
    return "\n".join(lines) + "\n"


def load_tsplib(path) -> TspInstance:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_tsplib(fh.read())


def load_builtin(name: str) -> TspInstance:
    """Instances bundled with the package (currently: burma14)."""
    data = resources.files("fuzzychip.data").joinpath(f"{name}.tsp").read_text()
    return parse_tsplib(data)


# ---- distances ----


def _geo_radians(coord: float) -> float:
    # DDD.MM convention: integer part degrees, fraction minutes; the
    # degree part truncates toward zero
    deg = int(coord)
    minutes = coord - deg
    return _GEO_PI * (deg + 5.0 * minutes / 3.0) / 180.0


def distance(inst: TspInstance, i: int, j: int) -> int:
    """Integer edge weight between cities i and j (0-based)."""
    if i == j:
        return 0
    xi, yi = inst.coords[i]
    xj, yj = inst.coords[j]
    if inst.edge_weight_type == EUC_2D:
        return int(math.hypot(xi - xj, yi - yj) + 0.5)  # nearest int
    # GEO: great-circle distance on the idealized sphere, floored (+1)
    lat_i, lon_i = _geo_radians(xi), _geo_radians(yi)
    lat_j, lon_j = _geo_radians(xj), _geo_radians(yj)
    q1 = math.cos(lon_i - lon_j)
    q2 = math.cos(lat_i - lat_j)
    q3 = math.cos(lat_i + lat_j)
    arg = 0.5 * ((1.0 + q1) * q2 - (1.0 - q1) * q3)
    arg = min(1.0, max(-1.0, arg))
    return int(_EARTH_RADIUS * math.acos(arg) + 1.0)


def distance_matrix(inst: TspInstance) -> list[list[int]]:
    n = inst.dimension
    mat = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            mat[i][j] = mat[j][i] = distance(inst, i, j)
    return mat


def tour_length(inst: TspInstance, tour) -> int:
    """Closed-tour length: consecutive edges plus the closing edge."""
    n = len(tour)
    return sum(distance(inst, tour[k], tour[(k + 1) % n]) for k in range(n))


# ---- Lehmer tour encoding ----


@functools.lru_cache(maxsize=32)
def _factorials(n: int) -> tuple[int, ...]:
    """(0!, 1!, ..., n!); math.factorial rejects a negative n."""
    return tuple(math.factorial(k) for k in range(n)) + (math.factorial(n),)


def lehmer_decode(value: int, n: int) -> tuple[int, ...]:
    """Factorial-base value in [0, n!) to a permutation of 0..n-1.

    Digit k (most significant first) selects from the remaining cities, so
    0 decodes to the identity and n! - 1 to the fully descending order."""
    fact = _factorials(n)
    if not 0 <= value < fact[n]:
        raise ValueError(f"value {value} outside 0..{fact[n] - 1}")
    remaining = list(range(n))
    perm = []
    for k in range(n - 1, -1, -1):
        digit, value = divmod(value, fact[k])
        perm.append(remaining.pop(digit))
    return tuple(perm)


class TspFitness:
    """Genome -> score callable for the engine.

    score = clamp(L_max - tour_length, 0, 2^score_sz - 1) with
    L_max = dimension * longest edge, so shorter tours score higher and the
    wheel never sees a negative value. The genome is reduced mod n! before
    decoding, hence genom_lngt must satisfy 2^genom_lngt >= n!.
    """

    def __init__(self, inst: TspInstance, genom_lngt: int = 16, score_sz: int = 16):
        n = inst.dimension
        if (1 << genom_lngt) < math.factorial(n):
            raise ValueError(
                f"{genom_lngt}-bit genomes cannot index {n}! tours; "
                f"need at least {math.ceil(math.log2(math.factorial(n)))} bits"
            )
        self.inst = inst
        self.score_sz = score_sz
        self._n_fact = math.factorial(n)
        self._dist = distance_matrix(inst)
        self.l_max = n * max(max(row) for row in self._dist)

    def decode(self, genome: int) -> tuple[int, ...]:
        return lehmer_decode(genome % self._n_fact, self.inst.dimension)

    def length(self, tour) -> int:
        n = len(tour)
        return sum(self._dist[tour[k]][tour[(k + 1) % n]] for k in range(n))

    def __call__(self, genome: int) -> int:
        score = self.l_max - self.length(self.decode(genome))
        return min(max(score, 0), (1 << self.score_sz) - 1)


# ---- exact optima (oracles) ----


def brute_force_optimum(inst: TspInstance) -> tuple[int, tuple[int, ...]]:
    """Exhaustive (n-1)!/2 enumeration: city 0 fixed, reversed duplicates
    skipped. Only sensible for small instances (n <= 10 or so)."""
    n = inst.dimension
    dist = distance_matrix(inst)
    best_len, best_tour = None, None
    for rest in itertools.permutations(range(1, n)):
        if rest[0] > rest[-1]:
            continue  # mirror of an already-seen tour
        tour = (0,) + rest
        length = sum(dist[tour[k]][tour[(k + 1) % n]] for k in range(n))
        if best_len is None or length < best_len:
            best_len, best_tour = length, tour
    return best_len, best_tour


def held_karp_optimum(inst: TspInstance) -> tuple[int, tuple[int, ...]]:
    """Exact dynamic program over city subsets, O(2^n n^2); fine to n ~ 18."""
    n = inst.dimension
    dist = np.asarray(distance_matrix(inst), dtype=np.float64)
    size = 1 << (n - 1)  # subsets of cities 1..n-1
    dp = np.full((size, n - 1), np.inf)
    parent = np.full((size, n - 1), -1, dtype=np.int32)
    for j in range(n - 1):
        dp[1 << j, j] = dist[0, j + 1]
    d_inner = dist[1:, 1:]
    for mask in range(1, size):
        row = dp[mask]
        if not np.isfinite(row).any():
            continue
        cand = row[:, None] + d_inner  # from city j+1 to city k+1
        best_from = np.argmin(cand, axis=0)
        best_cost = cand[best_from, np.arange(n - 1)]
        for k in range(n - 1):
            if mask & (1 << k):
                continue
            nxt = mask | (1 << k)
            if best_cost[k] < dp[nxt, k]:
                dp[nxt, k] = best_cost[k]
                parent[nxt, k] = best_from[k]
    closing = dp[size - 1] + dist[1:, 0]
    last = int(np.argmin(closing))
    best_len = int(closing[last])
    tour = [last + 1]
    mask = size - 1
    while parent[mask, tour[-1] - 1] >= 0:
        prev = int(parent[mask, tour[-1] - 1])
        mask ^= 1 << (tour[-1] - 1)
        tour.append(prev + 1)
    tour.append(0)
    return best_len, tuple(reversed(tour))


# ---- benchmark surfaces ----


def sphere(x1, x2):
    return x1**2 + x2**2


def rosenbrock(x1, x2):
    return 100.0 * (x2 - x1**2) ** 2 + (1.0 - x1) ** 2


def rastrigin(x1, x2):
    two_pi = 2.0 * np.pi
    return 20.0 + x1**2 - 10.0 * np.cos(two_pi * x1) + x2**2 - 10.0 * np.cos(two_pi * x2)


def step_surface(x1, x2):
    return np.floor(x1) + np.floor(x2)


BENCHMARKS: dict[str, tuple] = {
    "sphere": (sphere, -5.12, 5.12),
    "rosenbrock": (rosenbrock, -2.048, 2.048),
    "rastrigin": (rastrigin, -5.12, 5.12),
    "step": (step_surface, -5.12, 5.12),
}


class BenchmarkFitness:
    """Two-variable minimization benchmark as a maximized integer score.

    A 16-bit genome splits into two 8-bit halves (low byte -> x1, high byte
    -> x2), each mapped affinely onto the function domain. The function
    maximum and minimum over the full 65536-point grid are computed once at
    setup; score = round((f_max - f) * (2^score_sz - 1) / (f_max - f_min)),
    so the best grid point scores full scale.
    """

    def __init__(self, name: str, score_sz: int = 16, genom_lngt: int = 16):
        if name not in BENCHMARKS:
            raise ValueError(
                f"unknown benchmark {name!r} (known: {', '.join(sorted(BENCHMARKS))})"
            )
        if genom_lngt != 16:
            raise ValueError("benchmark genomes are exactly 16 bits (2 x 8-bit)")
        fn, lo, hi = BENCHMARKS[name]
        self.name = name
        self.lo, self.hi = lo, hi
        self.score_sz = score_sz
        axis = lo + np.arange(256) * (hi - lo) / 255.0
        x1, x2 = np.meshgrid(axis, axis, indexing="ij")
        self._axis = axis
        self._grid = fn(x1, x2)
        self.f_max = float(self._grid.max())
        self.f_min = float(self._grid.min())
        span = self.f_max - self.f_min
        self._scale = ((1 << score_sz) - 1) / span if span > 0 else 0.0

    def decode(self, genome: int) -> tuple[float, float]:
        return float(self._axis[genome & 0xFF]), float(self._axis[(genome >> 8) & 0xFF])

    def __call__(self, genome: int) -> int:
        f = float(self._grid[genome & 0xFF, (genome >> 8) & 0xFF])
        score = int(self._scale * (self.f_max - f) + 0.5)
        return min(max(score, 0), (1 << self.score_sz) - 1)
