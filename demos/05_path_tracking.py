"""Closed-loop path tracking with the 81-rule fixed-point steering
controller: recover from an offset launch, follow an S-shaped course, and
watch odometry noise erode the result.

The vehicle is forward-only with bounded curvature. The controller sees
only the *estimated* pose; noise perturbs the estimate, not the true pose,
so the true trajectory quietly drifts off the believed one."""

import statistics
from pathlib import Path

from fuzzychip import tracksim

OUT = Path(__file__).parent / "out"


def offset_launch() -> None:
    params = tracksim.TrackerParams()
    trace = tracksim.simulate(
        tracksim.straight_waypoints(25000.0),
        params,
        start=tracksim.Pose(0.0, 500.0, 0.0),
    )
    tail = trace.rows[int(len(trace.rows) * 0.8):]
    print("straight 25 m course, launched 500 mm off the line:")
    print(f"  {len(trace.rows)} steps at v={params.v:g} mm/s")
    print(f"  |e_d| worst over final 20%: "
          f"{max(abs(r.e_d) for r in tail):.2f} mm")
    first_settled = next(
        (r.t for r in trace.rows if abs(r.e_d) < 10.0), None
    )
    print(f"  first within 10 mm of the line at t = {first_settled:.2f} s")
    OUT.mkdir(exist_ok=True)
    (OUT / "straight_offset.csv").write_text(trace.to_csv_text(), encoding="utf-8")
    print(f"  trace written to {OUT / 'straight_offset.csv'}")


def s_course() -> None:
    params = tracksim.TrackerParams()
    trace = tracksim.simulate(tracksim.s_curve_waypoints(), params)
    worst = max(abs(r.e_d) for r in trace.rows)
    kappa_worst = max(abs(r.kappa) for r in trace.rows)
    print("\nS-shaped course (5 m legs, 10 m radius arcs):")
    print(f"  {len(trace.rows)} steps, max |e_d| = {worst:.2f} mm, "
          f"max |kappa| = {kappa_worst:.6f} 1/mm (limit {params.kappa_max})")
    (OUT / "s_course.csv").write_text(trace.to_csv_text(), encoding="utf-8")
    print(f"  trace written to {OUT / 's_course.csv'}")


def noise_ladder() -> None:
    params = tracksim.TrackerParams()
    way = tracksim.s_curve_waypoints()
    print("\nodometry distance noise vs final true-pose error "
          "(median of 10 seeds):")
    for sigma_d in (0.0, 0.05, 0.2, 0.5):
        finals = []
        for seed in range(1, 11):
            trace = tracksim.simulate(way, params, noise=(sigma_d, 0.0), seed=seed)
            last = trace.rows[-1].pose
            finals.append(tracksim.path_distance(trace.path, last.x, last.y))
        print(f"  sigma_d = {sigma_d:4.2f} mm/mm -> "
              f"{statistics.median(finals):7.2f} mm")


if __name__ == "__main__":
    offset_launch()
    s_course()
    noise_ladder()
