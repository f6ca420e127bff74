"""Property tests of the flows' invariances: rigid motions, orientation and
parabolic scaling map one discrete trajectory onto another.

Every run stays short (n <= 128, at most 200 steps) and never resamples, so
the vertices of the two runs correspond one to one and the final points can be
compared directly.  Only roundoff separates them, so the tolerance is 1e-9 of
the diameter.
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
MAX_STEPS = 200
# resample_every above the step budget: no resample, so vertex i stays vertex i.
CONFIG = f1.FlowConfig(max_steps=MAX_STEPS, resample_every=MAX_STEPS + 1)
EXAMPLES = settings(max_examples=10, deadline=None)
LAWS = pytest.mark.parametrize("law", [f1.SpeedLaw(1.0), f1.SpeedLaw(1.0 / 3.0)],
                               ids=["p1", "p1_3"])


def shapes(law: f1.SpeedLaw):
    """A circle or a peanut, 64-128 vertices: lifetimes long enough that the
    step budget, not an area stop, ends the run.  The peanut is concave for
    amplitudes above 0.2.  Below p = 1 the step bound reads the smallest
    curvature, so near a flat point the step, and with it the clock, follows
    roundoff (the p < 1 stall); those runs keep the peanut clearly convex."""
    n = st.integers(64, 128)
    circle = st.builds(cv.circle_polygon, st.floats(0.5, 2.0), n)
    amplitude = st.floats(0.0, 0.35 if law.p == 1.0 else 0.15)
    peanut = st.builds(cv.peanut_polygon, st.floats(0.5, 2.0), amplitude, n)
    return st.one_of(circle, peanut)


def final_curve(curve: cv.PlaneCurve, law: f1.SpeedLaw):
    traj = f1.run(curve, law, CONFIG)
    assert traj.stats.event == f1.EVENT_STEP_BUDGET and traj.stats.resamples == 0
    snap = traj.final()
    return snap.time, snap.curve.vertices


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
        return traj.final().time, traj.final().profile.samples

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


class TestTranslatingFront:
    @EXAMPLES
    @given(st.integers(17, 128), st.floats(0.6, 1.4), st.floats(-5.0, 5.0))
    def test_horizontal_shift_moves_the_front(self, n, half_width, shift):
        pts = oc.grim_reaper(n, half_width)
        runs = [oc.evolve_translating_front(p, 0.002, resample_every=MAX_STEPS + 1)
                for p in (pts, pts + [shift, 0.0])]
        for _, stats in runs:
            assert stats.event == oc.EVENT_HORIZON
            assert stats.steps <= MAX_STEPS and stats.resamples == 0
        (end, _), (end_moved, _) = runs
        assert_close(end_moved, end + [shift, 0.0], cv.bbox_diameter(pts))
