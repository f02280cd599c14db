import math
import random

import numpy as np
import pytest

from fuzzychip.fixedq import DomainMap, quantize
from fuzzychip.flc import MIN, infer, validate_spec
from fuzzychip.tracksim import (
    TRACE_HEADER,
    ForwardOnly,
    Pose,
    TrackerParams,
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
    kappa, _ = spatial_window_command(path, start, pose, params, spec, error_maps(params))
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
    got, got_errors = spatial_window_command(path, start, pose, params, spec, (d_map, t_map))
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


def test_trace_write_csv(tmp_path):
    trace = simulate(straight_waypoints(2000.0), TrackerParams(), steps=3)
    out = tmp_path / "trace.csv"
    trace.write_csv(out)
    assert out.read_text() == trace.to_csv_text()


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
