"""Property tests of the flows' invariances: rigid motions, orientation and
parabolic scaling map one discrete trajectory onto another, and the closed-form
area and radius laws hold for random shapes and sizes.

Every invariance run stays short (n <= 128, at most 40 steps) and never
resamples, so the vertices of the two runs correspond one to one and the final
points can be compared directly.  Only roundoff separates them, so the
tolerance is 1e-9 of the diameter.  The law runs resample and take a dozen
to a few dozen steps each; their tolerances are about twice the largest
error measured over many random forward-Euler examples, and the RKL2 errors
are smaller.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import curveflow.axisym as ax
import curveflow.curves as cv
import curveflow.flow1d as f1
import curveflow.oracle as oc

TOL = 1e-9
MAX_STEPS = 40
# resample_every above the step budget: no resample, so vertex i stays vertex i.
CONFIG = f1.FlowConfig(max_steps=MAX_STEPS, resample_every=MAX_STEPS + 1)
EXAMPLES = settings(max_examples=10, deadline=None)
LAWS = pytest.mark.parametrize("law", [f1.SpeedLaw(1.0), f1.SpeedLaw(1.0 / 3.0)],
                               ids=["p1", "p1_3"])


def shapes(law: f1.SpeedLaw):
    """A circle or a peanut, 64-128 vertices: lifetimes long enough that the
    step budget, not an area stop, ends the run.  The peanut is concave for
    amplitudes above 0.2.  Below p = 1 the speed |k|^p is not Lipschitz at
    k = 0, so where an inflection vanishes roundoff in k moves the points by
    far more than roundoff; those runs keep the peanut clearly convex."""
    n = st.integers(64, 128)
    circle = st.builds(cv.circle_polygon, st.floats(0.5, 2.0), n)
    amplitude = st.floats(0.0, 0.35 if law.p == 1.0 else 0.15)
    peanut = st.builds(cv.peanut_polygon, st.floats(0.5, 2.0), amplitude, n)
    return st.one_of(circle, peanut)


def final_curve(curve: cv.PlaneCurve, law: f1.SpeedLaw):
    traj = f1.run(curve, law, CONFIG)
    assert traj.stats.event == f1.EVENT_STEP_BUDGET and traj.stats.resamples == 0
    snap = traj.final()
    return snap.time, snap.geometry.vertices


def assert_close(a, b, diameter):
    assert a.shape == b.shape
    assert np.abs(a - b).max() <= TOL * diameter


class TestCurveFlow:
    @LAWS
    @EXAMPLES
    @given(st.data(), st.floats(-np.pi, np.pi), st.floats(-5.0, 5.0), st.floats(-5.0, 5.0))
    def test_rigid_motion_moves_the_trajectory(self, law, data, angle, bx, by):
        curve = data.draw(shapes(law))
        c, s = np.cos(angle), np.sin(angle)
        rot = np.array([[c, -s], [s, c]])
        shift = np.array([bx, by])
        t, end = final_curve(curve, law)
        t_moved, end_moved = final_curve(cv.PlaneCurve(curve.vertices @ rot.T + shift), law)
        assert t_moved == pytest.approx(t, rel=TOL)
        assert_close(end_moved, end @ rot.T + shift, cv.bbox_diameter(curve.vertices))

    @LAWS
    @EXAMPLES
    @given(st.data())
    def test_reversed_vertices_give_reversed_points(self, law, data):
        curve = data.draw(shapes(law))
        t, end = final_curve(curve, law)
        t_rev, end_rev = final_curve(cv.PlaneCurve(curve.vertices[::-1]), law)
        assert t_rev == pytest.approx(t, rel=TOL)
        assert_close(end_rev, end[::-1], cv.bbox_diameter(curve.vertices))

    @LAWS
    @EXAMPLES
    @given(st.data())
    def test_parabolic_scaling_maps_the_trajectory_onto_itself(self, law, data):
        curve = data.draw(shapes(law))
        # x -> lam x with t -> lam^(1 + p) t: curvature scales by 1 / lam, the
        # speed |k|^p by lam^-p, and so does every step bound.
        lam = 2.0
        t, end = final_curve(curve, law)
        t_big, end_big = final_curve(cv.PlaneCurve(lam * curve.vertices), law)
        assert t_big == pytest.approx(lam ** (1.0 + law.p) * t, rel=TOL)
        assert_close(end_big, lam * end, lam * cv.bbox_diameter(curve.vertices))


class TestMeridianFlow:
    @staticmethod
    def final_samples(samples):
        traj = ax.run_axi(ax.AxiProfile(samples, ax.TOPOLOGY_TWO_POLES), CONFIG)
        assert traj.stats.event == f1.EVENT_STEP_BUDGET and traj.stats.resamples == 0
        return traj.final().time, traj.final().geometry.samples

    @EXAMPLES
    @given(st.floats(0.5, 2.0), st.integers(48, 128), st.floats(-5.0, 5.0))
    def test_axial_shift_and_mirror_move_the_sphere(self, r0, n, shift):
        samples = ax.sphere_profile(r0, n).samples
        t, end = self.final_samples(samples)
        for flip, offset in ((1.0, shift), (-1.0, 0.0)):
            moved = samples * [flip, 1.0] + [offset, 0.0]
            t_moved, end_moved = self.final_samples(moved)
            assert t_moved == pytest.approx(t, rel=TOL)
            assert_close(end_moved, end * [flip, 1.0] + [offset, 0.0], 2.0 * r0)


class TestClosedFormLaws:
    @EXAMPLES
    @given(st.integers(64, 128), st.booleans(), st.floats(0.5, 1.0), st.floats(0.2, 0.3))
    def test_area_drains_at_two_pi(self, n, peanut, b, amplitude):
        # Gage-Hamilton-Grayson: at p = 1, dA/dt = -2 pi for any embedded curve.
        # Here aspect 1-2 ellipses and concave peanuts lose half their area in
        # 16-46 steps.  The error is second order in the spacing and does not
        # depend on the size: rel * n^2 was at most 10.7 over 150 random shapes
        # under forward Euler, and 6.4 over 60 under RKL2.
        curve = (cv.peanut_polygon(1.0, amplitude, n) if peanut
                 else cv.ellipse_polygon(1.0, b, n))
        traj = f1.run(curve, f1.SpeedLaw(1.0), f1.FlowConfig(stop_area_fraction=0.5))
        rel = abs(f1.analyze_area_law(traj).slope + 2.0 * np.pi) / (2.0 * np.pi)
        assert rel < 20.0 / n**2

    @EXAMPLES
    @given(st.floats(0.1, 10.0))
    def test_sphere_radius_follows_its_law(self, r0):
        # r^2 = r0^2 - 4t until the area stop at 0.7 of the lifetime, in 39
        # steps; the largest error measured at n = 64 was 5.8e-4 under forward
        # Euler and 4.8e-5 under RKL2.
        traj = ax.run_axi(ax.sphere_profile(r0, 64),
                          f1.FlowConfig(stop_area_fraction=0.3))
        for snap in traj.snapshots:
            pts = snap.geometry.samples
            center = 0.5 * (pts[:, 0].min() + pts[:, 0].max())
            got = np.hypot(pts[:, 0] - center, pts[:, 1]).mean()
            want = oc.shrinker_radius("sphere", r0, snap.time)
            assert abs(got - want) / want < 1e-3

    @EXAMPLES
    @given(st.floats(0.1, 10.0))
    def test_cylinder_radius_follows_its_law(self, r0):
        # r^2 = r0^2 - 2t until the pinch; 16 samples over a period of 2 r0 take
        # 12 steps.  The largest error measured was 9.5e-4 under forward Euler
        # and 2.3e-4 under RKL2.
        traj = ax.run_axi(ax.cylinder_profile(r0, 2.0 * r0, 16), f1.FlowConfig())
        assert traj.stats.event == ax.EVENT_NECK_PINCH
        for snap in traj.snapshots:
            want = oc.shrinker_radius("cylinder", r0, snap.time)
            assert abs(snap.geometry.samples[:, 1].mean() - want) / want < 2e-3


class TestTranslatingFront:
    @EXAMPLES
    @given(st.integers(17, 128), st.floats(0.6, 1.4), st.floats(-5.0, 5.0))
    def test_horizontal_shift_moves_the_front(self, n, half_width, shift):
        pts = oc.grim_reaper(n, half_width)
        config = f1.FlowConfig(resample_every=MAX_STEPS + 1)
        runs = [oc.evolve_translating_front(p, 0.002, config=config)
                for p in (pts, pts + [shift, 0.0])]
        for stats in (traj.stats for traj in runs):
            assert stats.event == oc.EVENT_HORIZON
            assert stats.steps <= MAX_STEPS and stats.resamples == 0
        end, end_moved = (traj.final().geometry for traj in runs)
        assert_close(end_moved, end + [shift, 0.0], cv.bbox_diameter(pts))
