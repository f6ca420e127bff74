"""Acceptance gate: the package's published behavior guarantees.

One test per guarantee.  Every test runs its scenario at the production
configuration, checks the stated tolerance, enforces its runtime budget, and
prints a single summary line (visible with pytest -s or on failure):

    criterion 01 shrinking circle radius law: PASS (...)
"""

import math
import time

import numpy as np
import pytest

import curveflow.axisym as ax
import curveflow.curves as cv
import curveflow.flow1d as f1
import curveflow.oracle as oc
import curveflow.rescale as rs


def report(num, name, ok, detail, seconds, budget):
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} "
          f"({detail}; {seconds:.1f}s of {budget:.0f}s budget)")


def mean_radius(curve):
    v = curve.vertices
    c = cv.curve_centroid(curve)
    return float(np.hypot(v[:, 0] - c[0], v[:, 1] - c[1]).mean())


def profile_radius(profile):
    pts = profile.samples
    cx = 0.5 * (pts[:, 0].min() + pts[:, 0].max())
    return float(np.hypot(pts[:, 0] - cx, pts[:, 1]).mean())


@pytest.fixture(scope="module")
def ellipse_run():
    """Shared 2:1 ellipse evolution used by the area-law and roundness gates."""
    t0 = time.perf_counter()
    traj = f1.run(cv.ellipse_polygon(2.0, 1.0, 512), f1.SpeedLaw(1.0),
                  f1.FlowConfig())
    return {"traj": traj, "seconds": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def dumbbell_run():
    """Shared dumbbell evolution used by the neck-pinch and blow-up gates."""
    t0 = time.perf_counter()
    traj = ax.run_axi(ax.dumbbell_profile(1.0, 0.15, 1.2, 2800),
                      f1.FlowConfig())
    return {"traj": traj, "seconds": time.perf_counter() - t0}


def test_01_shrinking_circle_radius_law():
    budget = 10.0
    t0 = time.perf_counter()
    traj = f1.run(cv.circle_polygon(1.0, 512), f1.SpeedLaw(1.0),
                  f1.FlowConfig())
    law = f1.analyze_area_law(traj)
    errs = []
    for snap in traj.snapshots:
        if snap.time > 0.45:
            break
        want = math.sqrt(1.0 - 2.0 * snap.time)
        errs.append(abs(mean_radius(snap.geometry) - want) / want)
    worst = max(errs)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-3 and abs(law.extinction_estimate - 0.5) <= 0.005 \
        and elapsed < budget
    report(1, "shrinking circle radius law", ok,
           f"max rel err {worst:.2e}, extinction {law.extinction_estimate:.4f}",
           elapsed, budget)
    assert worst < 1e-3
    assert abs(law.extinction_estimate - 0.5) <= 0.005
    assert elapsed < budget


def test_02_ellipse_area_law(ellipse_run):
    budget = 30.0
    t0 = time.perf_counter()
    traj = ellipse_run["traj"]
    law = f1.analyze_area_law(traj)
    slope_err = abs(law.slope + 2 * math.pi) / (2 * math.pi)
    ext_err = abs(law.extinction_estimate - 1.0)
    elapsed = ellipse_run["seconds"] + (time.perf_counter() - t0)
    ok = slope_err <= 0.005 and ext_err <= 0.02 and elapsed < budget
    report(2, "ellipse area drain rate", ok,
           f"slope {law.slope:.5f} vs -2pi, extinction {law.extinction_estimate:.4f}",
           elapsed, budget)
    assert slope_err <= 0.005
    assert ext_err <= 0.02
    assert elapsed < budget


def test_03_ellipse_rounds_out(ellipse_run):
    budget = 30.0
    t0 = time.perf_counter()
    traj = ellipse_run["traj"]
    series = rs.roundness_series(traj)
    t_half = traj.times()[-1] / 2.0
    tail = [(t, r, iso) for t, r, iso in series if t >= t_half]
    residuals = [r for _, r, _ in tail]
    monotone = all(b <= a + 1e-12 for a, b in zip(residuals, residuals[1:]))
    final_residual = residuals[-1]
    iso_err = abs(tail[-1][2] - 1.0)
    elapsed = ellipse_run["seconds"] + (time.perf_counter() - t0)
    ok = monotone and final_residual < 0.02 and iso_err <= 0.01 \
        and elapsed < budget
    report(3, "ellipse rounds out", ok,
           f"residual {residuals[0]:.4f} -> {final_residual:.4f} monotone,"
           f" iso err {iso_err:.2e}", elapsed, budget)
    assert monotone
    assert final_residual < 0.02
    assert iso_err <= 0.01
    assert elapsed < budget


def test_04_spiral_unwinds_then_vanishes():
    budget = 120.0
    t0 = time.perf_counter()
    traj = f1.run(cv.spiral_polygon(1.0, 2.0, 1.5, n=960), f1.SpeedLaw(1.0),
                  f1.FlowConfig())
    embedded = all(cv.is_embedded(s.geometry) for s in traj.snapshots)
    t_conv = f1.convexification_time(traj)
    law = f1.analyze_area_law(traj)
    lifetime = law.extinction_estimate
    expected = traj.areas()[0] / (2 * math.pi)
    elapsed = time.perf_counter() - t0
    ok = embedded and t_conv is not None and t_conv < lifetime \
        and lifetime < 2.0 and abs(lifetime - expected) <= 0.02 * expected \
        and elapsed < budget
    report(4, "embedded spiral unwinds", ok,
           f"embedded={embedded}, convex at {t_conv:.3f}, "
           f"lifetime {lifetime:.4f} vs A0/2pi {expected:.4f}", elapsed, budget)
    assert embedded
    assert t_conv is not None and t_conv < lifetime
    assert lifetime < 2.0
    assert abs(lifetime - expected) <= 0.02 * expected
    assert elapsed < budget


def test_05_affine_flow_preserves_eccentricity():
    budget = 60.0
    t0 = time.perf_counter()
    traj = f1.run(cv.ellipse_polygon(2.0, 1.0, 512), f1.SpeedLaw(1.0 / 3.0),
                  f1.FlowConfig(stop_area_fraction=0.5))
    fits = [f1.fit_ellipse(s.geometry) for s in traj.snapshots]
    e0 = fits[0].eccentricity
    drift = max(abs(f.eccentricity - e0) for f in fits)
    worst_residual = max(f.residual for f in fits)
    elapsed = time.perf_counter() - t0
    ok = drift < 0.01 and worst_residual < 1e-3 and elapsed < budget
    report(5, "cube-root flow keeps ellipses elliptical", ok,
           f"ecc drift {drift:.2e}, worst fit residual {worst_residual:.2e}",
           elapsed, budget)
    assert drift < 0.01
    assert worst_residual < 1e-3
    assert elapsed < budget


def test_06_slow_exponent_drives_length_up():
    budget = 60.0
    t0 = time.perf_counter()
    traj = f1.run(cv.ellipse_polygon(1.5, 0.5, 384), f1.SpeedLaw(0.2),
                  f1.FlowConfig(stop_area_fraction=0.5))
    series = f1.rescaled_length_series(traj)
    values = np.array([v for _, v in series])
    increasing = bool(np.all(np.diff(values) > 0))
    elapsed = time.perf_counter() - t0
    ok = increasing and elapsed < budget
    report(6, "fifth-root flow grows normalized length", ok,
           f"{values[0]:.4f} -> {values[-1]:.4f} over {len(values)} snapshots, "
           f"strictly increasing={increasing}", elapsed, budget)
    assert increasing
    assert elapsed < budget


def test_07_shrinking_sphere_radius_law():
    budget = 30.0
    t0 = time.perf_counter()
    traj = ax.run_axi(ax.sphere_profile(1.0, 400), f1.FlowConfig())
    errs = []
    for snap in traj.snapshots:
        if snap.time > 0.22:
            break
        want = math.sqrt(1.0 - 4.0 * snap.time)
        errs.append(abs(profile_radius(snap.geometry) - want) / want)
    worst = max(errs)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-3 and elapsed < budget
    report(7, "shrinking sphere radius law", ok,
           f"max rel err {worst:.2e} through t=0.22", elapsed, budget)
    assert worst < 1e-3
    assert elapsed < budget


def test_08_dumbbell_neck_pinch(dumbbell_run):
    budget = 120.0
    t0 = time.perf_counter()
    traj = dumbbell_run["traj"]
    events = {e.kind: e for e in traj.events}
    has_pinch = ax.EVENT_NECK_PINCH in events
    x_pinch = events[ax.EVENT_NECK_PINCH].location[0] if has_pinch else math.inf
    mid_tube = abs(x_pinch) <= 0.3
    rep = ax.neck_report(traj)
    times, radii = rep.series[:, 0], rep.series[:, 1]
    decade = radii <= 10 * radii.min()
    ratios = radii[decade] / np.sqrt(2.0 * (rep.pinch_time - times[decade]))
    in_band = 0.95 <= ratios.min() and ratios.max() <= 1.05
    convex_held = traj.snapshots[0].metrics.mean_convex and \
        all(s.metrics.mean_convex for s in traj.snapshots)
    elapsed = dumbbell_run["seconds"] + (time.perf_counter() - t0)
    ok = has_pinch and mid_tube and in_band and convex_held and elapsed < budget
    report(8, "dumbbell pinches at the neck", ok,
           f"pinch x={x_pinch:.3f}, ratio in [{ratios.min():.3f}, "
           f"{ratios.max():.3f}], mean-convex kept={convex_held}",
           elapsed, budget)
    assert has_pinch and mid_tube
    assert in_band
    assert convex_held
    assert elapsed < budget


def test_09_torus_collapses_to_meridian_circle():
    budget = 60.0
    t0 = time.perf_counter()
    traj = ax.run_axi(ax.torus_profile(1.0, 0.1, 400), f1.FlowConfig())
    has_collapse = any(e.kind == ax.EVENT_TORUS_COLLAPSE for e in traj.events)
    final = traj.final().geometry.samples
    spacing = float(np.linalg.norm(np.diff(final, axis=0), axis=1).mean())
    center, radius, _ = rs.fit_circle(final)
    deviation = float(np.max(np.abs(
        np.hypot(final[:, 0] - center[0], final[:, 1] - center[1]) - radius)))
    elapsed = time.perf_counter() - t0
    ok = has_collapse and deviation <= 3 * spacing and elapsed < budget
    report(9, "torus collapses to a circle", ok,
           f"deviation from fitted circle {deviation:.2e} vs "
           f"3x spacing {3 * spacing:.2e}", elapsed, budget)
    assert has_collapse
    assert deviation <= 3 * spacing
    assert elapsed < budget


def test_10_disjoint_curves_stay_disjoint():
    budget = 60.0
    t0 = time.perf_counter()
    outer = cv.circle_polygon(2.0, 512)
    inner = cv.ellipse_polygon(1.2, 0.6, 512)
    trajs = f1.co_evolve([outer, inner], f1.SpeedLaw(1.0),
                         f1.FlowConfig())
    gaps = [cv.min_distance(s0.geometry, s1.geometry)
            for s0, s1 in zip(trajs[0].snapshots, trajs[1].snapshots)]
    separated = min(gaps) > 0
    embedded = all(cv.is_embedded(s.geometry)
                   for traj in trajs for s in traj.snapshots)
    elapsed = time.perf_counter() - t0
    ok = separated and embedded and elapsed < budget
    report(10, "nested curves never touch", ok,
           f"min gap {min(gaps):.4f} over {len(gaps)} common times, "
           f"all embedded={embedded}", elapsed, budget)
    assert separated
    assert embedded
    assert elapsed < budget


def test_11_grim_reaper_translates_rigidly():
    budget = 30.0
    t0 = time.perf_counter()
    start = oc.grim_reaper(161, 1.2)
    final = oc.evolve_translating_front(start, 0.3).final().geometry
    target = start + np.array([0.0, 0.3])
    trim = len(final) // 10
    deviation = float(np.max(oc.polyline_distance(final[trim:-trim], target)))
    elapsed = time.perf_counter() - t0
    ok = deviation < 5e-3 and elapsed < budget
    report(11, "grim reaper translates rigidly", ok,
           f"interior deviation {deviation:.2e} after t=0.3", elapsed, budget)
    assert deviation < 5e-3
    assert elapsed < budget


def test_12_blowup_dial_separates_scales(dumbbell_run):
    budget = 120.0
    t0 = time.perf_counter()
    traj = dumbbell_run["traj"]
    final = traj.final().geometry.samples
    spacing = float(np.linalg.norm(np.diff(final, axis=0), axis=1).mean())
    probes = [(s.metrics.min_radius_location - 3 * spacing, 0.0)
              for s in traj.snapshots[-6:]]
    got = {}
    for power in (2.0, 1.0, 0.5):
        rep = rs.curvature_normalized_frames(traj, probes, scale_power=power)
        got[power] = rep.limit_classification
    ok_plane = got[2.0] == rs.CLASS_PLANE
    ok_mid = got[1.0] in (rs.CLASS_CONVEX, rs.CLASS_CYLINDER)
    ok_cyl = got[0.5] == rs.CLASS_CYLINDER
    elapsed = dumbbell_run["seconds"] + (time.perf_counter() - t0)
    ok = ok_plane and ok_mid and ok_cyl and elapsed < budget
    report(12, "blow-up dial separates scales", ok,
           f"h^2 -> {got[2.0]}, h -> {got[1.0]}, sqrt(h) -> {got[0.5]}",
           elapsed, budget)
    assert ok_plane, got
    assert ok_mid, got
    assert ok_cyl, got
    assert elapsed < budget


def test_13_oracles_agree_with_independent_integration():
    budget = 5.0
    t0 = time.perf_counter()
    mismatches = oc.selfcheck()
    worst = max(mismatches.values())
    elapsed = time.perf_counter() - t0
    ok = len(mismatches) == 6 and worst < 1e-6 and elapsed < budget
    report(13, "closed forms match independent integration", ok,
           f"worst of {len(mismatches)} cases {worst:.2e}", elapsed, budget)
    assert len(mismatches) == 6
    assert worst < 1e-6
    assert elapsed < budget
