import hashlib
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzychip import flc, tracksim
from fuzzychip.fixedq import DomainMap, quantize
from fuzzychip.flc import MIN, infer, validate_spec
from fuzzychip.tracksim import (
    NOISE_BLOCK,
    TRACE_HEADER,
    ForwardOnly,
    Pose,
    TrackerParams,
    TraceLog,
    TraceRow,
    _tangent,
    build_tracker_spec,
    closest_point,
    code_to_curvature,
    error_maps,
    interpolate_path,
    load_waypoints,
    path_distance,
    s_curve_waypoints,
    save_waypoints,
    simulate,
    spatial_window_command,
    step_kinematics,
    straight_waypoints,
    trace_rows,
    tracker_controller,
    tracking_errors,
    wrap_angle,
)


# ---- angle wrapping ----


def test_wrap_angle_known_values():
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)  # half-open at -pi
    assert wrap_angle(1.5 * math.pi) == pytest.approx(-0.5 * math.pi)
    assert wrap_angle(-1.5 * math.pi) == pytest.approx(0.5 * math.pi)
    assert wrap_angle(2.0 * math.pi) == pytest.approx(0.0, abs=1e-12)
    assert wrap_angle(7.0 * math.pi) == pytest.approx(math.pi)


def test_wrap_angle_range_and_congruence():
    rnd = random.Random(14)
    for _ in range(500):
        theta = rnd.uniform(-50.0, 50.0)
        w = wrap_angle(theta)
        assert -math.pi < w <= math.pi
        assert math.sin(w) == pytest.approx(math.sin(theta), abs=1e-9)
        assert math.cos(w) == pytest.approx(math.cos(theta), abs=1e-9)


# ---- path resampling ----


def test_interpolate_straight_counts():
    path = interpolate_path([(0, 0), (1000, 0)], 100.0)
    assert len(path) == 11
    assert np.allclose(path.points[:, 0], np.arange(11) * 100.0)
    assert np.allclose(path.points[:, 1], 0.0)


def test_interpolate_keeps_final_endpoint():
    path = interpolate_path([(0, 0), (1050, 0)], 100.0)
    assert len(path) == 12
    assert tuple(path.points[-1]) == (1050.0, 0.0)
    # an exact multiple must not duplicate the endpoint
    exact = interpolate_path([(0, 0), (1000, 0)], 100.0)
    assert tuple(exact.points[-1]) == (1000.0, 0.0)
    assert len(exact) == 11


def test_interpolate_walks_across_segments():
    path = interpolate_path([(0, 0), (100, 0), (100, 100)], 30.0)
    expect = [
        (0, 0), (30, 0), (60, 0), (90, 0),
        (100, 20), (100, 50), (100, 80), (100, 100),
    ]
    assert len(path) == len(expect)
    assert np.allclose(path.points, expect)


def test_interpolate_collapses_duplicate_waypoints():
    path = interpolate_path([(0, 0), (0, 0), (500, 0), (500, 0)], 100.0)
    assert len(path) == 6


def test_interpolate_rejects_bad_input():
    with pytest.raises(ValueError, match="spacing"):
        interpolate_path([(0, 0), (1, 1)], 0.0)
    with pytest.raises(ValueError, match="two distinct"):
        interpolate_path([(5, 5), (5, 5)], 10.0)


def test_closest_point_ties_to_lower_index():
    path = interpolate_path([(0, 0), (100, 0)], 100.0)
    assert closest_point(path, Pose(50.0, 10.0, 0.0)) == 0
    assert closest_point(path, Pose(90.0, 0.0, 0.0)) == 1


def test_path_distance_projects_onto_segments():
    path = interpolate_path([(0, 0), (100, 0)], 100.0)
    assert path_distance(path, 50.0, 30.0) == pytest.approx(30.0)
    assert path_distance(path, 150.0, 0.0) == pytest.approx(50.0)
    assert path_distance(path, 25.0, 0.0) == pytest.approx(0.0)


# ---- tracking errors ----


def _east_path():
    return interpolate_path([(0, 0), (1000, 0)], 100.0)


def _window_command(path, pose, params, spec):
    start = closest_point(path, pose)
    ctl = flc.Controller(spec)
    kappa, _ = spatial_window_command(path, start, pose, params, ctl, error_maps(params))
    return kappa


def test_lateral_error_positive_when_path_on_left():
    path = _east_path()
    # facing east, path line above the robot
    e_d, e_t = tracking_errors(path, 3, Pose(300.0, -100.0, 0.0))
    assert e_d == pytest.approx(100.0)
    assert e_t == pytest.approx(0.0)
    e_d, _ = tracking_errors(path, 3, Pose(300.0, 100.0, 0.0))
    assert e_d == pytest.approx(-100.0)


def test_heading_error_is_tangent_minus_heading():
    path = _east_path()
    _, e_t = tracking_errors(path, 2, Pose(200.0, 0.0, 0.3))
    assert e_t == pytest.approx(-0.3)
    _, e_t = tracking_errors(path, 2, Pose(200.0, 0.0, -0.3))
    assert e_t == pytest.approx(0.3)


def test_final_sample_reuses_last_tangent():
    path = interpolate_path([(0, 0), (100, 0), (100, 100)], 50.0)
    last = len(path) - 1
    # last segment points north, so a north-facing pose has zero e_theta
    _, e_t = tracking_errors(path, last, Pose(100.0, 100.0, math.pi / 2))
    assert e_t == pytest.approx(0.0)


# ---- steering controller ----


def test_tracker_spec_is_structurally_valid():
    spec = build_tracker_spec(TrackerParams())
    assert validate_spec(spec).ok
    assert spec.n == 2 and spec.m == 9
    assert (spec.in_bits, spec.out_bits) == (12, 12)
    assert (spec.alpha_bits, spec.cons_bits) == (8, 8)
    assert spec.and_method == MIN
    assert spec.stages == 9
    assert spec.clock_ns == pytest.approx(14.085)
    assert len(spec.singletons) == 81


def test_tracker_singletons_frozen_corners():
    s = build_tracker_spec(TrackerParams()).singletons
    assert s[4 + 9 * 4] == 128  # zero error -> centered consequent
    assert s[0 + 9 * 0] == 0  # -0.6 - 0.4 clamps to -1
    assert s[8 + 9 * 8] == 255
    assert s[8 + 9 * 0] == 153  # 0.6 - 0.4 = 0.2 -> (1.2 / 2) * 255


def test_tracker_surface_near_antisymmetric():
    s = build_tracker_spec(TrackerParams()).singletons
    for j in range(9):
        for i in range(9):
            mirror = s[(8 - i) + 9 * (8 - j)]
            assert abs(s[i + 9 * j] + mirror - 255) <= 1


def test_code_to_curvature_affine():
    assert code_to_curvature(2048, 0.004) == 0.0
    assert code_to_curvature(0, 0.004) == pytest.approx(-0.004)
    assert code_to_curvature(4095, 0.004) == pytest.approx(0.004 * 2047 / 2048)
    assert code_to_curvature(2560, 0.004) == pytest.approx(0.001)


def test_window_command_zero_on_path():
    params = TrackerParams()
    path = _east_path()
    spec = build_tracker_spec(params)
    kappa = _window_command(path, Pose(300.0, 0.0, 0.0), params, spec)
    assert kappa == pytest.approx(0.0, abs=1e-12)


def test_window_command_steers_toward_path():
    params = TrackerParams()
    path = _east_path()
    spec = build_tracker_spec(params)
    # path on the left -> positive curvature (turn left), and vice versa
    assert _window_command(path, Pose(300.0, -400.0, 0.0), params, spec) > 0
    assert _window_command(path, Pose(300.0, 400.0, 0.0), params, spec) < 0


def test_window_command_matches_manual_mean():
    params = TrackerParams(window=3)
    path = interpolate_path([(0, 0), (100, 0), (100, 100)], 30.0)
    spec = build_tracker_spec(params)
    pose = Pose(55.0, -40.0, 0.2)
    d_map = DomainMap(-params.d_range, params.d_range, 12)
    t_map = DomainMap(-math.pi, math.pi, 12)
    start = closest_point(path, pose)
    idxs = range(start, min(start + 3, len(path)))
    total = 0.0
    for idx in idxs:
        e_d, e_t = tracking_errors(path, idx, pose)
        out = infer(spec, (quantize(e_d, d_map).value, quantize(e_t, t_map).value))
        total += code_to_curvature(out.value, params.kappa_max)
    expect = max(min(total / len(idxs), params.kappa_max), -params.kappa_max)
    got, got_errors = spatial_window_command(path, start, pose, params, flc.Controller(spec),
                                             (d_map, t_map))
    assert got == pytest.approx(expect)
    assert got_errors == tracking_errors(path, start, pose)


def test_window_truncates_at_path_end():
    params = TrackerParams(window=50)
    path = _east_path()
    spec = build_tracker_spec(params)
    pose = Pose(995.0, 5.0, 0.0)  # closest sample is the last one
    kappa = _window_command(path, pose, params, spec)
    assert abs(kappa) <= params.kappa_max


# ---- kinematics ----


def test_step_kinematics_straight():
    pose = step_kinematics(Pose(0.0, 0.0, 0.0), 300.0, 0.0, 0.05)
    assert pose == Pose(15.0, 0.0, 0.0)


def test_step_kinematics_heading_integration():
    # forward Euler: position uses the pre-step heading
    pose = step_kinematics(Pose(0.0, 0.0, 0.0), 300.0, 0.004, 0.05)
    assert pose.x == pytest.approx(15.0)
    assert pose.y == 0.0
    assert pose.theta == pytest.approx(300.0 * 0.004 * 0.05)


def test_step_kinematics_forward_only():
    for v in (0.0, -1.0):
        with pytest.raises(ForwardOnly):
            step_kinematics(Pose(0, 0, 0), v, 0.0, 0.05)


# ---- closed-loop simulation ----


def test_simulate_noise_free_estimate_is_exact():
    trace = simulate(straight_waypoints(5000.0), TrackerParams())
    assert len(trace.rows) > 100
    for row in trace.rows[:: max(1, len(trace.rows) // 50)]:
        assert row.pose_est == row.pose


def test_simulate_starts_aligned_on_path():
    trace = simulate(straight_waypoints(5000.0), TrackerParams())
    first = trace.rows[0]
    assert first.pose == Pose(0.0, 0.0, 0.0)
    assert first.t == 0.0


def test_simulate_tracks_straight_path():
    trace = simulate(straight_waypoints(5000.0), TrackerParams())
    worst = max(abs(r.e_d) for r in trace.rows)
    assert worst < 1.0  # launched on the line, stays on it
    final = trace.rows[-1].pose
    assert path_distance(trace.path, final.x, final.y) < 50.0


def test_simulate_respects_step_budget():
    trace = simulate(straight_waypoints(5000.0), TrackerParams(), steps=7)
    assert len(trace.rows) == 7


def test_simulate_seed_reproducibility():
    kwargs = dict(noise=(0.05, 0.001), seed=11)
    a = simulate(straight_waypoints(3000.0), TrackerParams(), **kwargs)
    b = simulate(straight_waypoints(3000.0), TrackerParams(), **kwargs)
    assert a.to_csv_text() == b.to_csv_text()
    c = simulate(straight_waypoints(3000.0), TrackerParams(), noise=(0.05, 0.001), seed=12)
    assert c.to_csv_text() != a.to_csv_text()


# A square loop that ends on its own start: samples of the closing leg
# coincide with samples of the first, so closest_point meets exact ties
# between far-apart indices on hundreds of steps.
_LOOP_WAYPOINTS = [(0.0, 0.0), (3000.0, 0.0), (3000.0, 3000.0), (0.0, 3000.0),
                   (0.0, 0.0), (1500.0, 0.0)]

# sha256 of TraceLog.to_csv_text(); frozen, never to be updated
_FROZEN_TRACES = {
    "s_0.02_seed1": (dict(noise=(0.02, 0.0), seed=1),
                     "858b25e5fbcbc58853fa3e908bcb02c63d96d3548727038fc155627ac45db42f"),
    "s_0.02_seed2": (dict(noise=(0.02, 0.0), seed=2),
                     "ae1a950bb13af05a89a242a7881ef69b20ffc76446bd64f1b2812ec42640ad49"),
    "s_0.1_seed1": (dict(noise=(0.1, 0.0), seed=1),
                    "065739bfad3279c6208f3251ec31b3e54bcd4b6e4ed4ff1ab0b306638f64f897"),
    "s_0.1_seed2": (dict(noise=(0.1, 0.0), seed=2),
                    "7e006e6bb523204ffd69b42d02c642ead9cb2fc459bb2ff6f70d51536f03a0e4"),
    "s_0.5_seed1": (dict(noise=(0.5, 0.0), seed=1),
                    "e9dbae69f1d198e70848bcb420877a48b02619c14d9392dde1faceeb904017c1"),
    "s_0.5_seed2": (dict(noise=(0.5, 0.0), seed=2),
                    "56b581d783e5f62410e2c0a213dd049f234d0ea1d3b140470908c352ab0084ea"),
    "straight_offset": (dict(waypoints="straight", start=Pose(0.0, 500.0, 0.0)),
                        "3bb0b649532ae3e5caf83eea1d8f0104e13827a2e162c53cf37f818673fe6b19"),
    "window3": (dict(params=TrackerParams(window=3), noise=(0.1, 0.0), seed=3),
                "bd25e0e990d2480e4b7df7306d8fb09d59cc5a4e08eccde3413ea25676acd846"),
    "loop_ties": (dict(waypoints="loop", start=Pose(0.0, 0.0, 0.0), noise=(0.1, 0.0),
                       seed=7, steps=2500),
                  "c2a8b87e2b67d59b39695f8d9790b8737b28f72b06481bf95d031859141dc612"),
}


@pytest.mark.parametrize("name", sorted(_FROZEN_TRACES))
def test_trace_bytes_frozen(name):
    kwargs, digest = _FROZEN_TRACES[name]
    kwargs = dict(kwargs)
    waypoints = {"s": s_curve_waypoints(), "straight": straight_waypoints(),
                 "loop": _LOOP_WAYPOINTS}[kwargs.pop("waypoints", "s")]
    params = kwargs.pop("params", TrackerParams())
    trace = simulate(waypoints, params, **kwargs)
    assert hashlib.sha256(trace.to_csv_text().encode()).hexdigest() == digest


def test_closest_point_far_apart_ties_go_low():
    path = interpolate_path(_LOOP_WAYPOINTS, 100.0)
    dup = [i for i in range(len(path)) if tuple(path.points[i]) == (200.0, 0.0)]
    assert len(dup) == 2 and dup[1] - dup[0] > 100
    assert closest_point(path, Pose(200.0, 0.0, 0.0)) == dup[0]
    assert closest_point(path, Pose(200.0, -50.0, 0.0)) == dup[0]


# ---- the flat step against a scalar oracle ----


def _reference_rows(waypoints, params, start=None, noise=(0.0, 0.0), seed=0,
                    steps=20000, spacing=100.0):
    """The closed loop in scalar form: the nearest-sample search with four
    numpy temporaries, the tangent from `_tangent` on every step, a
    validated FixedWord per controller input and two scalar rng.normal
    calls per step."""
    path = interpolate_path(waypoints, spacing)
    ctl = flc.Controller(build_tracker_spec(params))
    d_map, t_map = error_maps(params)
    rng = np.random.default_rng(seed)
    sigma_d, sigma_theta = noise
    if start is None:
        tx, ty = _tangent(path, 0)
        start = Pose(float(path.points[0, 0]), float(path.points[0, 1]), math.atan2(ty, tx))
    true = est = start
    rows = []
    for k in range(steps):
        idx = int(np.argmin((path.points[:, 0] - est.x) ** 2
                            + (path.points[:, 1] - est.y) ** 2))
        if idx == len(path) - 1:
            break
        errors, total = [], 0.0
        for j in range(idx, min(idx + params.window, len(path))):
            tx, ty = _tangent(path, j)
            px, py = path.points[j]
            e_d = tx * (py - est.y) - ty * (px - est.x)
            e_t = wrap_angle(math.atan2(ty, tx) - est.theta)
            errors.append((e_d, e_t))
            code = ctl((quantize(e_d, d_map).value, quantize(e_t, t_map).value))
            total += code_to_curvature(code, params.kappa_max)
        kappa = min(max(total / len(errors), -params.kappa_max), params.kappa_max)
        rows.append(TraceRow(k * params.dt, true, est, *errors[0], kappa))
        true = step_kinematics(true, params.v, kappa, params.dt)
        est = step_kinematics(est, params.v, kappa, params.dt)
        eps_d = rng.normal(0.0, sigma_d * params.v * params.dt)
        eps_t = rng.normal(0.0, sigma_theta)
        est = Pose(est.x + eps_d * math.cos(est.theta), est.y + eps_d * math.sin(est.theta),
                   wrap_angle(est.theta + eps_t))
    return tuple(rows)


def _assert_matches_reference(waypoints, params, **kwargs):
    trace = simulate(waypoints, params, **kwargs)
    expect = _reference_rows(waypoints, params, **kwargs)
    assert trace.rows == expect
    assert [type(r.e_d) for r in trace.rows] == [type(r.e_d) for r in expect]
    assert trace.to_csv_text() == TraceLog(expect, trace.path).to_csv_text()
    return trace


_coord = st.floats(-3000.0, 3000.0).map(lambda v: round(v, 1))


@given(
    waypoints=st.one_of(
        st.lists(st.tuples(_coord, _coord), min_size=2, max_size=5),
        st.lists(st.tuples(_coord, _coord), min_size=2, max_size=4).map(
            lambda pts: pts + pts[:1]),  # closed loop
    ),
    window=st.integers(1, 3),
    noise=st.tuples(st.sampled_from([0.0, 0.02, 0.5]), st.sampled_from([0.0, 0.003])),
    seed=st.integers(0, 2**32 - 1),
    steps=st.sampled_from([1, 5, 300]),
    spacing=st.sampled_from([40.0, 100.0, 250.0]),
)
def test_simulate_equals_scalar_reference(waypoints, window, noise, seed, steps, spacing):
    pts = {(x, y) for x, y in waypoints}
    if len(pts) < 2:
        with pytest.raises(ValueError):
            simulate(waypoints, TrackerParams(window=window), spacing=spacing)
        return
    _assert_matches_reference(waypoints, TrackerParams(window=window), noise=noise,
                              seed=seed, steps=steps, spacing=spacing)


# A closed square whose final sample ties with its first: the nearest sample is
# never the final one, so the run lasts the whole step budget.
_SQUARE = [(0.0, 0.0), (2000.0, 0.0), (2000.0, 2000.0), (0.0, 2000.0), (0.0, 0.0)]


@pytest.mark.parametrize("steps", [NOISE_BLOCK - 1, NOISE_BLOCK, NOISE_BLOCK + 1, 2100])
def test_simulate_noise_blocks_match_scalar_draws(steps):
    trace = _assert_matches_reference(_SQUARE, TrackerParams(window=2),
                                      noise=(0.1, 0.002), seed=steps, steps=steps)
    assert len(trace.rows) == steps  # so every block edge below steps is crossed


# ---- the lowered loop against its specification ----


def _composed_rows(path, params, start, noise, seed, steps):
    """trace_rows as the specification functions compose it: closest_point,
    spatial_window_command and two step_kinematics per step, then the
    estimate's noise from blocks of NOISE_BLOCK rng.normal rows."""
    ctl = tracker_controller(params)
    maps = error_maps(params)
    rng = np.random.default_rng(seed)
    scale = (noise[0] * params.v * params.dt, noise[1])
    if start is None:
        start = Pose(float(path.points[0, 0]), float(path.points[0, 1]), path.frame(0)[4])
    true = est = start
    rows = []
    for k in range(steps):
        idx = closest_point(path, est)
        if idx == len(path) - 1:
            break
        kappa, (e_d, e_t) = spatial_window_command(path, idx, est, params, ctl, maps)
        rows.append((k * params.dt, true.x, true.y, true.theta,
                     est.x, est.y, est.theta, e_d, e_t, kappa))
        true = step_kinematics(true, params.v, kappa, params.dt)
        est = step_kinematics(est, params.v, kappa, params.dt)
        if k % NOISE_BLOCK == 0:
            draws = rng.normal(0.0, scale, size=(min(steps - k, NOISE_BLOCK), 2)).tolist()
        eps_d, eps_t = draws[k % NOISE_BLOCK]
        est = Pose(est.x + eps_d * math.cos(est.theta), est.y + eps_d * math.sin(est.theta),
                   wrap_angle(est.theta + eps_t))
    return rows


@settings(max_examples=30)
@given(
    waypoints=st.sampled_from([_SQUARE, _LOOP_WAYPOINTS, s_curve_waypoints()]),
    window=st.integers(1, 3),
    noise=st.sampled_from([(0.0, 0.0), (0.1, 0.002), (0.5, 0.0)]),
    start=st.one_of(st.none(), st.builds(Pose, st.floats(-500.0, 3500.0),
                                         st.floats(-500.0, 3500.0),
                                         st.floats(-math.pi, math.pi))),
    seed=st.integers(0, 2**32 - 1),
    steps=st.sampled_from([NOISE_BLOCK - 1, NOISE_BLOCK, NOISE_BLOCK + 1]),
)
def test_trace_rows_equal_composed_specification(waypoints, window, noise, start, seed, steps):
    path = interpolate_path(waypoints, 100.0)
    params = TrackerParams(window=window)
    rows = list(trace_rows(path, params, start, noise, seed, steps))
    expect = _composed_rows(path, params, start, noise, seed, steps)
    assert rows == expect
    assert [tuple(map(type, r)) for r in rows] == [tuple(map(type, r)) for r in expect]
    assert all(type(r[7]) is np.float64 for r in rows)  # summary.json rounds it with numpy


_far = st.floats(1e3, 9e8).flatmap(lambda r: st.tuples(st.sampled_from([r, -r]), st.floats(-r, r)))


@settings(max_examples=25)
@given(
    waypoints=st.lists(st.tuples(st.floats(-4000.0, 4000.0), st.floats(-4000.0, 4000.0)),
                       min_size=3, max_size=9, unique=True),
    search=st.integers(1, 4),
    window=st.integers(1, 4),
    noise=st.sampled_from([(0.0, 0.0), (0.1, 0.002), (1.0, 0.1)]),
    start=st.one_of(st.none(), st.builds(lambda xy, th: Pose(*xy, th), _far,
                                         st.floats(-math.pi, math.pi))),
    seed=st.integers(0, 2**32 - 1),
)
def test_trace_rows_equal_composed_specification_on_crossing_paths(waypoints, search, window,
                                                                   noise, start, seed):
    # random polylines cross themselves, and a start up to 9e8 mm away
    # rescans until it nears the path; every search window width must give
    # closest_point's argmin
    path = interpolate_path(waypoints, 70.0)
    params = TrackerParams(window=window)
    saved, tracksim.SEARCH_WINDOW = tracksim.SEARCH_WINDOW, search
    try:
        rows = list(trace_rows(path, params, start, noise, seed, 600))
    finally:
        tracksim.SEARCH_WINDOW = saved
    assert rows == _composed_rows(path, params, start, noise, seed, 600)


def test_coincident_samples_have_no_tangent():
    # a loop shorter than the spacing resamples to two samples on one point:
    # the tangent is (0, 0), so the run steers on heading alone, not NaN
    path = interpolate_path([(0.0, 0.0), (0.0, 1.0), (0.0, 0.0)], 40.0)
    assert len(path) == 2 and path.frame(0) == path.frame(1) == (0.0, 0.0, 0.0, 0.0, 0.0)
    rows = list(trace_rows(path, TrackerParams(), Pose(10.0, 5.0, 1.0), steps=20))
    assert len(rows) == 20 and all(r[7] == 0.0 and math.isfinite(r[9]) for r in rows)
    assert rows == _composed_rows(path, TrackerParams(), Pose(10.0, 5.0, 1.0), (0.0, 0.0), 0, 20)


@pytest.mark.parametrize("v", [0.0, -1.0])
def test_simulate_without_forward_speed_raises_at_first_step(v):
    with pytest.raises(ForwardOnly):
        simulate(straight_waypoints(3000.0), TrackerParams(v=v))
    rows = trace_rows(interpolate_path(straight_waypoints(3000.0), 100.0), TrackerParams(v=v))
    assert next(rows)[0] == 0.0  # the first row comes before the first kinematics step
    with pytest.raises(ForwardOnly):
        next(rows)


@pytest.mark.parametrize("v", [300.0, 0.0])
def test_start_beside_final_sample_yields_no_rows(v):
    waypoints = straight_waypoints(3000.0)
    start = Pose(3100.0, 40.0, 1.0)  # nearest sample is the final one, (3000, 0)
    trace = simulate(waypoints, TrackerParams(v=v), start=start)
    assert trace.rows == ()
    assert trace.to_csv_text() == TRACE_HEADER + "\n"


def test_frame_memo_equals_tangent_everywhere():
    path = interpolate_path(_LOOP_WAYPOINTS, 70.0)
    for idx in reversed(range(len(path))):  # the final sample first
        px, py = path.points[idx]
        tx, ty = _tangent(path, idx)
        assert path.frame(idx) == (px, py, tx, ty, math.atan2(ty, tx))
        assert path.frame(idx) is path.frame(idx)


def test_simulate_memory_bounded_by_path_not_step_budget():
    kwargs = dict(noise=(0.1, 0.001), seed=4)
    tracemalloc.start()
    try:
        trace = simulate(s_curve_waypoints(), TrackerParams(), steps=10**9, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the run stops at the final sample, as it does under the default budget
    assert trace.rows == simulate(s_curve_waypoints(), TrackerParams(), **kwargs).rows
    assert len(trace.rows) < 20000
    assert peak < 4 * 2**20, peak


def test_simulate_noise_perturbs_estimate_only_at_first_step():
    trace = simulate(
        straight_waypoints(3000.0), TrackerParams(), noise=(0.1, 0.002), seed=5
    )
    # the first row is pre-noise; later rows diverge
    assert trace.rows[0].pose_est == trace.rows[0].pose
    assert any(r.pose_est != r.pose for r in trace.rows[1:])


def test_trace_csv_shape():
    trace = simulate(straight_waypoints(2000.0), TrackerParams(), steps=5)
    text = trace.to_csv_text()
    lines = text.strip().split("\n")
    assert lines[0] == TRACE_HEADER
    assert len(lines) == len(trace.rows) + 1
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 10
        for f in fields:
            float(f)
            assert len(f.split(".")[1]) == 6  # fixed six-decimal cells
    assert lines[1].startswith("0.000000,0.000000,0.000000,")


# the per-row format trace CSV was once written with
_ROW_FORMAT = ",".join(["%.6f"] * 10) + "\n"
# .6f ties (odd multiples of 1/128) and their neighbours, floats nearest a
# decimal tie (k + 0.5) / 10^6, signed zeros, non-finite values, and values at
# or above 2^53 / 10^6, which format writes
_TIE = st.builds(lambda j, s: s * (2 * j + 1) / 128, st.integers(0, 2**45), st.sampled_from([1, -1]))
_TRACE_CELL = st.one_of(
    _TIE,
    st.builds(math.nextafter, _TIE, st.sampled_from([-math.inf, math.inf])),
    st.integers(-10**12, 10**12).map(lambda k: (k + 0.5) / 1e6),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 2**53 / 1e6, -(2**53) / 1e6,
                     math.nextafter(2**53 / 1e6, 0), math.nextafter(2**53 / 1e6, math.inf)]),
    st.builds(lambda v, s: s * v, st.floats(2**53 / 1e6, 1e300), st.sampled_from([1, -1])),
    st.floats(),
)


@settings(max_examples=100)
@given(st.lists(_TRACE_CELL, min_size=10, max_size=100), st.sampled_from([1, 120]))
def test_trace_text_matches_row_format_on_edge_values(values, repeat):
    # repeated 120 times, 9 rows or more span two NOISE_BLOCK blocks of the writer
    rows = [values[i:i + 10] for i in range(0, len(values) - 9, 10)] * repeat
    log = TraceLog(tuple(TraceRow(t, Pose(x, y, th), Pose(ex, ey, eth), e_d, e_t, kappa)
                         for t, x, y, th, ex, ey, eth, e_d, e_t, kappa in rows), None)
    want = "".join(_ROW_FORMAT % tuple(row) for row in rows)
    assert log.to_csv_text() == TRACE_HEADER + "\n" + want


# ---- canned geometries and waypoint files ----


def test_straight_waypoints_default():
    assert straight_waypoints() == [(0.0, 0.0), (25000.0, 0.0)]


def test_s_curve_geometry():
    pts = s_curve_waypoints()
    assert pts[0] == (0.0, 0.0)
    length = sum(
        math.hypot(x1 - x0, y1 - y0) for (x0, y0), (x1, y1) in zip(pts, pts[1:])
    )
    # three 5 m legs plus two 30-degree arcs of 10 m radius
    ideal = 3 * 5000.0 + 2 * 10000.0 * math.radians(30.0)
    assert ideal * 0.99 < length <= ideal + 1e-6
    # net turn is zero: the final segment is parallel to the x axis again
    (x0, y0), (x1, y1) = pts[-2], pts[-1]
    assert math.atan2(y1 - y0, x1 - x0) == pytest.approx(0.0, abs=1e-9)


def test_waypoint_file_roundtrip(tmp_path):
    pts = [(0.0, 0.0), (123.456, -78.9), (4000.0, 2000.125)]
    path = tmp_path / "way.txt"
    save_waypoints(pts, path)
    back = load_waypoints(path)
    assert len(back) == len(pts)
    for (x0, y0), (x1, y1) in zip(pts, back):
        assert x1 == pytest.approx(x0, abs=1e-3)
        assert y1 == pytest.approx(y0, abs=1e-3)


def test_waypoint_file_comments_and_errors(tmp_path):
    path = tmp_path / "way.txt"
    path.write_text("# header\n\n10 20\n  # indented comment\n30 40\n")
    assert load_waypoints(path) == [(10.0, 20.0), (30.0, 40.0)]
    bad = tmp_path / "bad.txt"
    bad.write_text("10 20\n30 40 50\n")
    with pytest.raises(ValueError, match="line 2"):
        load_waypoints(bad)
    for text in ("0 0\ninf 0\n", "0 0\n5 nan\n"):  # inf once hung interpolate_path
        bad.write_text(text)
        with pytest.raises(ValueError, match="line 2: non-finite"):
            load_waypoints(bad)
    bad.write_text("0 0\n-1e10 0\n")  # 1e300 once overflowed the nearest-sample search
    with pytest.raises(ValueError, match="line 2: coordinate beyond 1e\\+09 mm"):
        load_waypoints(bad)
