"""Fuzzy path-tracking simulator for a forward-only minimum-turning-radius
vehicle (Dubins kinematics, Euler-integrated).

The reference path is a waypoint polyline resampled at a fixed arc-length
spacing. Each control step finds the closest sample to the *estimated* pose,
evaluates a 2-input / 81-rule fixed-point fuzzy controller on the tracking
errors of a window of consecutive samples, and commands the mean curvature.
The estimate integrates the same commands as the true pose but accumulates
seeded Gaussian odometry noise, so true and believed trajectories drift
apart over distance.

Units: millimeters, seconds, radians; curvature in 1/mm.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import flc
from .cells import fixed_cells, rows_text
from .fixedq import DomainMap, quantize_code
from .flc import MIN, STANDARD, FlcSpec, uniform_partition

TRACE_HEADER = "t,x,y,theta,x_est,y_est,theta_est,e_d,e_theta,kappa"
# rows of (distance, heading) noise drawn per rng.normal call, and trace rows
# per CSV block; memory stays bounded whatever the step budget
NOISE_BLOCK = 1024
SEARCH_WINDOW = 3  # samples each side of a scan's nearest that later steps try first
# largest |x| or |y| of a loaded waypoint or a CLI start pose, in mm: the
# squared distances of the nearest-sample search stay far below overflow
MAX_COORD_MM = 1e9


class ForwardOnly(ValueError):
    """The vehicle cannot stop or reverse; speed must be positive."""


def wrap_angle(theta: float) -> float:
    """Normalize into (-pi, pi]."""
    wrapped = math.pi - (math.pi - theta) % (2.0 * math.pi)
    if wrapped <= -math.pi:  # guard against float underflow at the seam
        wrapped += 2.0 * math.pi
    return wrapped


@dataclass(frozen=True)
class Pose:
    x: float
    y: float
    theta: float


@dataclass(frozen=True)
class TrackerParams:
    """Controller and vehicle parameters.

    d_range: lateral-error half-range of the controller input universe (mm).
    kappa_max: curvature saturation, the reciprocal turning radius (1/mm).
    g_d, g_theta: dimensionless gains of the rule surface.
    window: number of consecutive path samples averaged per command.
    v: constant forward speed (mm/s); dt: control period (s).
    """

    d_range: float = 1000.0
    kappa_max: float = 0.004
    g_d: float = 0.6
    g_theta: float = 0.4
    window: int = 1
    v: float = 300.0
    dt: float = 0.05


# ---- reference path ----


@dataclass(frozen=True, eq=False)
class PathSamples:
    points: np.ndarray  # (N, 2) mm

    def __len__(self) -> int:
        return len(self.points)

    @functools.cached_property
    def columns(self) -> tuple[np.ndarray, np.ndarray]:
        """Contiguous copies of the x and y columns of `points`."""
        return tuple(np.ascontiguousarray(col) for col in self.points.T)

    @functools.cached_property
    def _frames(self) -> dict[int, tuple]:
        return {}

    def frame(self, idx: int) -> tuple:
        """(px, py, tx, ty, atan2(ty, tx)) of sample idx as Python floats, from
        `_tangent`, memoised on first use."""
        entry = self._frames.get(idx)
        if entry is None:
            px, py = self.points[idx].tolist()
            tx, ty = map(float, _tangent(self, idx))
            entry = self._frames[idx] = (px, py, tx, ty, math.atan2(ty, tx))
        return entry


def interpolate_path(waypoints, spacing: float) -> PathSamples:
    """Resample a waypoint polyline at fixed arc-length steps.

    Emits the first waypoint, then one point per `spacing` of accumulated
    arc length (linear interpolation inside segments), and always the final
    endpoint. Consecutive duplicate waypoints are collapsed first."""
    if spacing <= 0:
        raise ValueError("spacing must be positive")
    pts: list[tuple[float, float]] = []
    for x, y in waypoints:
        if not pts or (x, y) != pts[-1]:
            pts.append((float(x), float(y)))
    if len(pts) < 2:
        raise ValueError("need at least two distinct waypoints")

    samples = [pts[0]]
    carried = 0.0  # arc length since the last emitted sample
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        seg = math.hypot(x1 - x0, y1 - y0)
        pos = 0.0
        while carried + (seg - pos) >= spacing:
            pos += spacing - carried
            f = pos / seg
            samples.append((x0 + f * (x1 - x0), y0 + f * (y1 - y0)))
            carried = 0.0
        carried += seg - pos
    if carried > 1e-6:  # residual below this is float dust, not a real gap
        samples.append(pts[-1])
    return PathSamples(np.asarray(samples, dtype=float))


def closest_point(path: PathSamples, pose: Pose) -> int:
    """Index of the nearest sample; ties resolve to the lower index."""
    xs, ys = path.columns
    d2 = xs - pose.x
    d2 *= d2
    dy = ys - pose.y
    dy *= dy
    d2 += dy
    return int(d2.argmin())


def _tangent(path: PathSamples, idx: int) -> tuple[float, float]:
    pts = path.points
    if idx < len(pts) - 1:
        dx, dy = pts[idx + 1] - pts[idx]
    else:
        dx, dy = pts[idx] - pts[idx - 1]  # final sample reuses the last segment
    norm = math.hypot(dx, dy)
    if norm == 0.0:  # coincident samples (a loop shorter than the spacing): no direction
        return 0.0, 0.0
    return dx / norm, dy / norm


def tracking_errors(path: PathSamples, idx: int, pose: Pose) -> tuple[float, float]:
    """(e_d, e_theta) of a pose against the sample at idx.

    e_d is the lateral offset from the tangent line through the sample,
    positive when the path lies to the robot's left: the cross product of
    the unit tangent with (sample - position). e_theta is the wrapped
    difference (tangent angle - heading). e_d is numpy's, as summary.json rounds it."""
    px, py, tx, ty, heading = path.frame(idx)
    e_d = tx * (py - pose.y) - ty * (px - pose.x)
    return np.float64(e_d), wrap_angle(heading - pose.theta)


def path_distance(path: PathSamples, x: float, y: float) -> float:
    """Distance from a point to the sampled polyline (segments, not samples)."""
    p = np.array([x, y])
    a = path.points[:-1]
    b = path.points[1:]
    ab = b - a
    denom = (ab**2).sum(axis=1)
    t = ((p - a) * ab).sum(axis=1) / np.where(denom > 0, denom, 1.0)
    t = np.clip(t, 0.0, 1.0)
    proj = a + t[:, None] * ab
    return float(np.sqrt(((proj - p) ** 2).sum(axis=1)).min())


# ---- fuzzy steering controller ----

_IN_BITS = 12
_OUT_BITS = 12
_MF_COUNT = 9


def build_tracker_spec(params: TrackerParams) -> FlcSpec:
    """2-input / 81-rule steering controller.

    Nine uniform triangles per input over [-d_range, d_range] (lateral error)
    and [-pi, pi] (heading error). Singleton (i, j) quantizes
    clamp(g_d * u_i + g_theta * u_j, -1, 1) over the consequent universe,
    where u = -1 .. 1 are the ideal peak positions, giving an antisymmetric
    surface with an exact zero at the center rule. Input 0 (lateral error)
    is the least significant rule-address digit."""
    part = uniform_partition(_IN_BITS, _MF_COUNT)
    cons_map = DomainMap(-1.0, 1.0, 8)
    singles = [0] * (_MF_COUNT**2)
    for j in range(_MF_COUNT):
        u_t = j / (_MF_COUNT - 1) * 2.0 - 1.0
        for i in range(_MF_COUNT):
            u_d = i / (_MF_COUNT - 1) * 2.0 - 1.0
            s = min(max(params.g_d * u_d + params.g_theta * u_t, -1.0), 1.0)
            singles[i + _MF_COUNT * j] = quantize_code(s, cons_map)
    return FlcSpec(
        in_bits=_IN_BITS,
        out_bits=_OUT_BITS,
        alpha_bits=8,
        cons_bits=8,
        partitions=(part, part),
        singletons=tuple(singles),
        and_method=MIN,
        mode=STANDARD,
        stages=9,
        clock_ns=14.085,
    )


@functools.cache
def tracker_controller(params: TrackerParams) -> flc.Controller:
    """build_tracker_spec(params), compiled once per process; its memo fills
    across runs and keeps no state that changes an output."""
    return flc.Controller(build_tracker_spec(params))


def code_to_curvature(code: int, kappa_max: float, out_bits: int = _OUT_BITS) -> float:
    """Affine output map with an exact zero at the middle code 2^(out_bits-1)."""
    half = 1 << (out_bits - 1)
    return (code - half) / half * kappa_max


def error_maps(params: TrackerParams) -> tuple[DomainMap, DomainMap]:
    """Quantizers of the controller inputs: lateral error over
    [-d_range, d_range], heading error over [-pi, pi]."""
    return (DomainMap(-params.d_range, params.d_range, _IN_BITS),
            DomainMap(-math.pi, math.pi, _IN_BITS))


def spatial_window_command(
    path: PathSamples,
    start: int,
    pose: Pose,
    params: TrackerParams,
    ctl: flc.Controller,
    maps: tuple[DomainMap, DomainMap],
) -> tuple[float, tuple[float, float]]:
    """Mean of the per-sample controller outputs over `window` consecutive
    samples from `start`, the sample closest to the pose (truncated at the
    path end), clamped to the curvature limit. `ctl` is the compiled
    build_tracker_spec(params) and `maps` is error_maps(params).

    Returns (kappa, tracking_errors at `start`); the errors feed the trace."""
    d_map, t_map = maps
    stop = min(start + params.window, len(path))
    errors = [tracking_errors(path, idx, pose) for idx in range(start, stop)]
    total = 0.0
    for e_d, e_t in errors:
        code = ctl((quantize_code(e_d, d_map), quantize_code(e_t, t_map)))
        total += code_to_curvature(code, params.kappa_max)
    kappa = min(max(total / len(errors), -params.kappa_max), params.kappa_max)
    return kappa, errors[0]


# ---- vehicle kinematics and simulation ----


def step_kinematics(pose: Pose, v: float, kappa: float, dt: float) -> Pose:
    """One forward-Euler step of the unicycle with commanded curvature."""
    if v <= 0:
        raise ForwardOnly(f"speed must be positive, got {v}")
    return Pose(
        pose.x + v * math.cos(pose.theta) * dt,
        pose.y + v * math.sin(pose.theta) * dt,
        wrap_angle(pose.theta + v * kappa * dt),
    )


@dataclass(frozen=True)
class TraceRow:
    t: float
    pose: Pose
    pose_est: Pose
    e_d: float
    e_theta: float
    kappa: float


@dataclass(frozen=True, eq=False)
class TraceLog:
    rows: tuple[TraceRow, ...]
    path: PathSamples

    def to_csv_text(self) -> str:
        rows = ((r.t, r.pose.x, r.pose.y, r.pose.theta, r.pose_est.x, r.pose_est.y,
                 r.pose_est.theta, r.e_d, r.e_theta, r.kappa) for r in self.rows)
        return TRACE_HEADER + "\n" + "".join(text for _, text in trace_blocks(rows))


def trace_blocks(rows):
    """(block, text) per NOISE_BLOCK TRACE_HEADER-ordered rows: the rows as one
    float64 matrix, and as CSV rows of format(v, '.6f') cells."""
    rows = iter(rows)
    while (block := np.fromiter(itertools.chain.from_iterable(
            itertools.islice(rows, NOISE_BLOCK)), np.float64)).size:
        block = block.reshape(-1, len(TRACE_HEADER.split(",")))
        yield block, rows_text([fixed_cells(block, 6)])


def trace_rows(path: PathSamples, params: TrackerParams, start: Pose | None = None,
               noise: tuple[float, float] = (0.0, 0.0), seed: int = 0, steps: int = 20000):
    """Closed-loop run on a resampled path, one TRACE_HEADER-ordered tuple
    per control step, until the estimate's closest sample is the final one
    or `steps` is exhausted.

    noise = (sigma_d, sigma_theta): per-step distance error is drawn with
    standard deviation sigma_d * (v * dt), i.e. sigma_d is expressed per mm
    traveled and applied along the estimated heading; sigma_theta is the
    per-step heading error (rad). Both perturb only the estimate, and are
    drawn in blocks of NOISE_BLOCK (d, theta) rows, the same draws in the
    same order as two scalar rng.normal calls per step. closest_point,
    spatial_window_command and step_kinematics are lowered into float
    arithmetic in the same operation order; e_d is yielded as numpy float64.

    closest_point's argmin, certified: a scan at pose S keeps the SEARCH_WINDOW
    samples each side of its answer and h, S's distance to the nearest outside
    them, which are then at least h - |P - S| from pose P. The window's nearest
    (numpy's operation order, low index on ties) is the argmin when closer than
    that by a margin far above rounding; else P scans (always when h = inf)."""
    ctl = tracker_controller(params)
    (d_lo, d_span, d_top), (t_lo, t_span, t_top) = (
        (m.lo, m.hi - m.lo, m.top) for m in error_maps(params))
    rng = np.random.default_rng(seed)
    v, dt, window, k_max = params.v, params.dt, params.window, params.kappa_max
    scale = (noise[0] * v * dt, noise[1])
    pi, tau, cos, sin = math.pi, 2.0 * math.pi, math.cos, math.sin
    floor, ceil, half = math.floor, math.ceil, 1 << (_OUT_BITS - 1)
    sqrt, hypot, inf, f64 = math.sqrt, math.hypot, math.inf, np.float64
    (xs, ys), frame, size = path.columns, path.frame, len(path)
    if start is None:  # the first sample, aligned with the initial tangent
        start = Pose(*map(float, path.points[0]), frame(0)[4])
    x, y, th = ex, ey, eth = start.x, start.y, start.theta
    d2, dy2 = np.empty(size), np.empty(size)  # the scan's buffers
    near, horizon, sx, sy = (), 0.0, ex, ey  # no window yet: the first step scans
    for k in range(steps):
        best = inf
        for j, wx, wy in near:
            dx, dy = wx - ex, wy - ey
            if (d := dx * dx + dy * dy) < best:
                best, idx = d, j
        if not sqrt(best) + 1e-9 * (horizon + 1.0) < horizon - hypot(ex - sx, ey - sy):
            np.subtract(xs, ex, out=d2)
            d2 *= d2
            np.subtract(ys, ey, out=dy2)
            dy2 *= dy2
            d2 += dy2
            idx = int(d2.argmin())
            lo, hi = max(idx - SEARCH_WINDOW, 0), idx + SEARCH_WINDOW + 1
            near = tuple(zip(range(lo, hi), xs[lo:hi].tolist(), ys[lo:hi].tolist()))
            d2[lo:hi] = inf
            horizon, sx, sy = sqrt(d2.min()), ex, ey
        if idx == size - 1:
            return
        total = 0.0
        stop = min(idx + window, size)
        for j in range(idx, stop):
            px, py, tx, ty, heading = frame(j)
            e_d = tx * (py - ey) - ty * (px - ex)
            e_t = pi - (pi - (heading - eth)) % tau  # wrap_angle, inlined
            if e_t <= -pi:
                e_t += tau
            if j == idx:
                row_d, row_t = e_d, e_t
            q = (e_d - d_lo) / d_span * d_top  # quantize_code, inlined
            q = floor(q + 0.5) if q >= 0 else ceil(q - 0.5)
            r = (e_t - t_lo) / t_span * t_top
            r = floor(r + 0.5) if r >= 0 else ceil(r - 0.5)
            code = ctl((0 if q < 0 else d_top if q > d_top else q,
                        0 if r < 0 else t_top if r > t_top else r))
            total += (code - half) / half * k_max
        kappa = min(max(total / (stop - idx), -k_max), k_max)
        yield (k * dt, x, y, th, ex, ey, eth, f64(row_d), row_t, kappa)
        if v <= 0:
            raise ForwardOnly(f"speed must be positive, got {v}")
        dth = v * kappa * dt
        x, y, th = x + v * cos(th) * dt, y + v * sin(th) * dt, pi - (pi - (th + dth)) % tau
        if th <= -pi:
            th += tau
        ex, ey, eth = ex + v * cos(eth) * dt, ey + v * sin(eth) * dt, pi - (pi - (eth + dth)) % tau
        if eth <= -pi:
            eth += tau
        if not (i := k % NOISE_BLOCK):
            draws = rng.normal(0.0, scale, size=(min(steps - k, NOISE_BLOCK), 2)).tolist()
        eps_d, eps_t = draws[i]
        ex, ey, eth = ex + eps_d * cos(eth), ey + eps_d * sin(eth), pi - (pi - (eth + eps_t)) % tau
        if eth <= -pi:
            eth += tau


def simulate(waypoints, params: TrackerParams, start: Pose | None = None,
             noise: tuple[float, float] = (0.0, 0.0), seed: int = 0, steps: int = 20000,
             spacing: float = 100.0) -> TraceLog:
    """trace_rows on the waypoints resampled at `spacing`, kept as a TraceLog."""
    path = interpolate_path(waypoints, spacing)
    return TraceLog(tuple(TraceRow(r[0], Pose(*r[1:4]), Pose(*r[4:7]), *r[7:])
                          for r in trace_rows(path, params, start, noise, seed, steps)), path)


# ---- canned geometries ----


def straight_waypoints(length: float = 25000.0) -> list[tuple[float, float]]:
    return [(0.0, 0.0), (length, 0.0)]


def s_curve_waypoints(
    leg: float = 5000.0,
    radius: float = 10000.0,
    turn_deg: float = 30.0,
    step: float = 200.0,
) -> list[tuple[float, float]]:
    """S-shaped course: straight leg, arc left, straight leg, arc right,
    straight leg. Vertices are rounded by the arcs, so the required curvature
    stays at 1/radius."""
    pts = [(0.0, 0.0)]
    x = y = heading = 0.0

    def advance(dist, kappa):
        nonlocal x, y, heading
        n = max(1, int(round(dist / step)))
        for _ in range(n):
            d = dist / n
            x += d * math.cos(heading)
            y += d * math.sin(heading)
            heading = wrap_angle(heading + d * kappa)
            pts.append((x, y))

    turn = math.radians(turn_deg)
    advance(leg, 0.0)
    advance(radius * turn, 1.0 / radius)
    advance(leg, 0.0)
    advance(radius * turn, -1.0 / radius)
    advance(leg, 0.0)
    return pts


def load_waypoints(path) -> list[tuple[float, float]]:
    """Plain text, one 'x y' millimeter pair per line; blank lines and lines
    starting with '#' are skipped. ValueError on a malformed line or a
    coordinate that is not finite or lies beyond MAX_COORD_MM."""
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            if len(fields) != 2:
                raise ValueError(f"line {lineno}: expected 'x y'")
            x, y = float(fields[0]), float(fields[1])
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError(f"line {lineno}: non-finite coordinate")
            if max(abs(x), abs(y)) > MAX_COORD_MM:
                raise ValueError(f"line {lineno}: coordinate beyond {MAX_COORD_MM:g} mm")
            out.append((x, y))
    return out


def save_waypoints(waypoints, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for x, y in waypoints:
            fh.write(f"{x:.3f} {y:.3f}\n")
