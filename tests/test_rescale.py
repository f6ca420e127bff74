"""Parabolic rescaling, circle fits, local windows, blow-up classification."""

import json
import math

import numpy as np
import pytest

import curveflow.axisym as ax
import curveflow.curves as cv
import curveflow.flow1d as f1
import curveflow.rescale as rs
from curveflow.errors import FitFailureError, InvalidInputError


@pytest.fixture(scope="module")
def circle_traj():
    return f1.run(cv.circle_polygon(1.0, 256), f1.SpeedLaw(1.0),
                  f1.FlowConfig())


@pytest.fixture(scope="module")
def cylinder_traj():
    return ax.run_axi(ax.cylinder_profile(0.5, 1.0, 16), f1.FlowConfig())


@pytest.fixture(scope="module")
def dumbbell_traj():
    return ax.run_axi(ax.dumbbell_profile(1.0, 0.15, 1.2, 1400),
                      f1.FlowConfig())


class TestCircleFit:
    def test_exact_circle_recovered(self, rng):
        for _ in range(5):
            cx, cy, r = rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(0.5, 4)
            theta = rng.uniform(0, 2 * math.pi, 40)
            pts = np.column_stack([cx + r * np.cos(theta), cy + r * np.sin(theta)])
            center, radius, residual = rs.fit_circle(pts)
            assert abs(center[0] - cx) < 1e-9
            assert abs(center[1] - cy) < 1e-9
            assert abs(radius - r) < 1e-9
            assert residual < 1e-12

    def test_collinear_points_rejected(self):
        pts = np.column_stack([np.linspace(0, 1, 30), np.linspace(0, 2, 30)])
        with pytest.raises(FitFailureError):
            rs.fit_circle(pts)

    def test_two_to_one_ellipse_residual_band(self):
        # frozen from three independent fit variants; the normalized rms
        # misfit of a 2:1 ellipse lands near 0.22 regardless of sampling
        pts = cv.ellipse_polygon(2.0, 1.0, 256).vertices
        _, _, residual = rs.fit_circle(pts)
        assert 0.20 < residual < 0.26

    def test_residual_is_dilation_invariant(self):
        pts = cv.ellipse_polygon(2.0, 1.0, 128).vertices
        _, _, r1 = rs.fit_circle(pts)
        _, _, r2 = rs.fit_circle(pts * 137.0)
        assert abs(r1 - r2) < 1e-9


class TestParabolicRescale:
    def test_scale_list_validation(self, circle_traj):
        with pytest.raises(InvalidInputError):
            rs.parabolic_rescale(circle_traj, (0, 0), 0.5, [])
        with pytest.raises(InvalidInputError):
            rs.parabolic_rescale(circle_traj, (0, 0), 0.5, [2.0, 1.0])
        with pytest.raises(InvalidInputError):
            rs.parabolic_rescale(circle_traj, (0, 0), 0.5, [-1.0, 2.0])

    def test_unit_scale_is_identity_up_to_translation(self, circle_traj):
        k = len(circle_traj.snapshots) // 2
        t_k = circle_traj.times()[k]
        frames = rs.parabolic_rescale(circle_traj, (0.0, 0.0), t_k + 1.0, [1.0])
        assert len(frames) == 1
        assert frames[0].snapshot_index == k
        assert np.array_equal(frames[0].snapshot.vertices,
                              circle_traj.snapshots[k].geometry.vertices)
        assert frames[0].rescaled_time == pytest.approx(-1.0)

    def test_out_of_range_scales_skipped_with_notice(self, circle_traj):
        t_last = circle_traj.times()[-1]
        with pytest.warns(UserWarning):
            frames = rs.parabolic_rescale(circle_traj, (0.0, 0.0), t_last,
                                          [0.5, 100.0])
        assert len(frames) == 1

    def test_composition_matches_single_rescale(self, circle_traj):
        # large scales place both frame targets next to the same snapshot,
        # so doubling the scale must exactly double the frame geometry
        t_k = circle_traj.times()[10]
        T = t_k + 1e-3
        direct = rs.parabolic_rescale(circle_traj, (0.0, 0.0), T, [80.0])[0]
        once = rs.parabolic_rescale(circle_traj, (0.0, 0.0), T, [40.0])[0]
        assert direct.snapshot_index == once.snapshot_index
        again = 2.0 * once.snapshot.vertices
        assert np.max(np.abs(direct.snapshot.vertices - again)) < 1e-12

    def test_shrinking_circle_is_a_fixed_point(self, circle_traj):
        # with the frame time pinned one rescaled unit before the blow-up
        # time, a self-similar circle appears at radius sqrt(2) in every frame
        law = f1.analyze_area_law(circle_traj)
        T = law.extinction_estimate
        times = circle_traj.times()
        picks = [s for s in circle_traj.snapshots if 0.2 < s.time < 0.45][-8:]
        scales = [1.0 / math.sqrt(T - s.time) for s in picks]
        frames = rs.parabolic_rescale(circle_traj, (0.0, 0.0), T, scales)
        assert len(frames) == len(picks)
        reference = cv.circle_polygon(math.sqrt(2.0), 256)
        for frame in frames:
            radii = np.hypot(frame.snapshot.vertices[:, 0],
                             frame.snapshot.vertices[:, 1])
            assert np.max(np.abs(radii - math.sqrt(2.0))) < 1e-3
            v = frame.snapshot.vertices
            assert cv._point_segment_distances(reference.vertices, v, np.roll(v, -1, 0)).max() < 1e-3
            assert frame.rescaled_time == pytest.approx(-1.0, abs=0.05)

    def test_axisymmetric_rescale_scales_period(self, dumbbell_traj):
        t0 = dumbbell_traj.times()[0]
        frames = rs.parabolic_rescale(dumbbell_traj, (0.0, 0.0), t0 + 0.25, [2.0])
        prof = frames[0].snapshot
        assert isinstance(prof, ax.AxiProfile)
        base = dumbbell_traj.snapshots[0].geometry
        assert np.max(np.abs(prof.samples - 2.0 * base.samples)) < 1e-12

    def test_meridian_moves_along_the_axis_and_its_period_dilates(self, cylinder_traj):
        T = cylinder_traj.times()[-1]
        x0, lam = 0.3, 4.0
        # center[1] is recorded but ignored: a meridian only moves along the axis
        (frame,) = rs.parabolic_rescale(cylinder_traj, (x0, 7.0), T, [lam])
        base = cylinder_traj.snapshots[frame.snapshot_index].geometry
        assert frame.center == (x0, 7.0)
        assert frame.snapshot.topology == ax.TOPOLOGY_CYLINDER
        assert frame.snapshot.period == lam * base.period
        np.testing.assert_array_equal(frame.snapshot.samples[:, 0], lam * (base.samples[:, 0] - x0))
        np.testing.assert_array_equal(frame.snapshot.samples[:, 1], lam * base.samples[:, 1])


def _nearest(pts, point):
    return int(np.argmin(np.hypot(pts[:, 0] - point[0], pts[:, 1] - point[1])))


class TestLocalWindows:
    def test_huge_circle_window_is_straight(self):
        big = cv.circle_polygon(400.0, 4096).vertices
        window = rs._window(big, _nearest(big, (400.0, 0.0)), closed=True)
        assert rs.line_residual(window) < 0.01

    def test_unit_circle_window_is_curved(self):
        pts = cv.circle_polygon(1.0, 512).vertices
        window = rs._window(pts, _nearest(pts, (1.0, 0.0)), closed=True)
        assert rs.line_residual(window) > 0.05
        _, radius, residual = rs.fit_circle(window)
        assert abs(radius - 1.0) < 1e-3
        assert residual < 1e-3

    def test_window_curvatures_of_circle(self):
        pts = cv.circle_polygon(1.0, 512).vertices
        window = rs._window(pts, _nearest(pts, (0.0, 1.0)), closed=True)
        kappa = rs.window_curvatures(window, axisymmetric=False)
        assert np.max(np.abs(kappa - 1.0)) < 1e-2

    @pytest.mark.parametrize("power, cls", [(2, rs.CLASS_CONVEX), (3, rs.CLASS_NONE)])
    def test_curve_window_past_the_circle_templates(self, power, cls):
        # A 65-point window on y = x^2 is convex but no circle; y = x^3 turns
        # both ways.
        x = np.linspace(-1.0, 1.0, rs.WINDOW_POINTS)
        got, residual = rs._classify_window(np.column_stack([x, x ** power]), axisymmetric=False)
        assert got == cls and (residual == 0.0) == (cls == rs.CLASS_CONVEX)

    def test_window_curvatures_of_cylinder(self):
        prof = ax.cylinder_profile(2.0, 4.0, 256)
        window = rs._window(prof.samples, _nearest(prof.samples, (0.0, 2.0)), closed=False)
        kappa = rs.window_curvatures(window, axisymmetric=True)
        # one principal curvature vanishes, the other is 1/r
        assert np.min(kappa) > -1e-6
        assert abs(np.max(kappa) - 0.5) < 1e-3


class TestRoundness:
    def test_requires_unit_exponent(self):
        traj = f1.run(cv.ellipse_polygon(1.0, 0.6, 128), f1.SpeedLaw(0.5),
                      f1.FlowConfig(stop_area_fraction=0.6))
        with pytest.raises(InvalidInputError):
            rs.roundness_series(traj)

    def test_circle_residual_stays_tiny(self, circle_traj):
        series = rs.roundness_series(circle_traj)
        assert len(series) == len(circle_traj.snapshots)
        for snap, (_, residual, iso) in zip(circle_traj.snapshots, series):
            assert residual < 1e-4
            assert iso >= 1.0 - 1e-9
            # the polygon isoperimetric offset scales like 1/n^2, so only
            # snapshots that keep their resolution are held to a tight bound
            if len(snap.geometry.vertices) >= 100:
                assert abs(iso - 1.0) < 1e-3

    def test_ellipse_residual_decreases_to_round(self):
        traj = f1.run(cv.ellipse_polygon(2.0, 1.0, 256), f1.SpeedLaw(1.0),
                      f1.FlowConfig())
        series = rs.roundness_series(traj)
        t_half = traj.times()[-1] / 2
        tail = [r for t, r, _ in series if t >= t_half]
        assert tail[0] > tail[-1]
        assert tail[-1] < 0.02
        assert all(b <= a + 1e-12 for a, b in zip(tail, tail[1:]))


class TestBlowupDial:
    def test_probe_validation(self, circle_traj):
        with pytest.raises(InvalidInputError):
            rs.curvature_normalized_frames(circle_traj, [(0.0, 1.0)])
        many = [(0.0, 1.0)] * (len(circle_traj.snapshots) + 1)
        with pytest.raises(InvalidInputError):
            rs.curvature_normalized_frames(circle_traj, many)

    def test_circle_probes_classify_round(self, circle_traj):
        probes = [(0.0, 0.0)] * 6
        report = rs.curvature_normalized_frames(circle_traj, probes, scale_power=1.0)
        assert len(report.frames) == 6
        assert report.limit_classification == rs.CLASS_CIRCLE

    def test_dumbbell_waist_dial(self, dumbbell_traj):
        spacing = np.mean([np.linalg.norm(d) for d in
                           np.diff(dumbbell_traj.final().geometry.samples, axis=0)])
        probes = []
        for snap in dumbbell_traj.snapshots[-6:]:
            probes.append((snap.metrics.min_radius_location - 3 * spacing, 0.0))
        sqrt_h = rs.curvature_normalized_frames(dumbbell_traj, probes, scale_power=0.5)
        assert sqrt_h.limit_classification == rs.CLASS_CYLINDER
        plane = rs.curvature_normalized_frames(dumbbell_traj, probes, scale_power=2.0)
        assert plane.limit_classification == rs.CLASS_PLANE

    def test_torus_window_wraps_around_the_meridian_start(self):
        traj = ax.run_axi(ax.torus_profile(1.0, 0.3, 48), f1.FlowConfig())
        assert traj.stats.event == ax.EVENT_TORUS_COLLAPSE
        # Probing sample 0 of each closed meridian puts the window across its
        # start; the tube shrinks round, so each window is circle-like.
        probes = [snap.geometry.samples[0] for snap in traj.snapshots[-4:]]
        report = rs.curvature_normalized_frames(traj, probes, scale_power=1.0)
        assert report.limit_classification == rs.CLASS_CIRCLE
        for frame, residual in zip(report.frames, report.fit_residuals):
            assert frame.probe_offset == 0.0 and frame.snapshot.period is None
            window = rs._window(frame.snapshot.samples, 0, closed=True)
            assert np.array_equal(window[rs.WINDOW_POINTS // 2], frame.snapshot.samples[0])
            assert window[:, 0].min() < 0.0 < window[:, 0].max()
            assert rs._classify_window(window, axisymmetric=True)[1] == residual

    def test_report_serializes_to_json(self, circle_traj):
        report = rs.curvature_normalized_frames(circle_traj, [(0.0, 0.0)] * 4)
        payload = report.to_json_dict()
        text = json.dumps(payload)
        decoded = json.loads(text)
        assert decoded["limit_classification"] == report.limit_classification
        assert len(decoded["frames"]) == 4
        for entry in decoded["frames"]:
            assert "snapshot_index" in entry
