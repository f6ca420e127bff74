"""Curve evolution driver: stepping, events, area law, fits, co-evolution."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import curveflow
import curveflow.axisym as ax
import curveflow.curves as cv
import curveflow.flow1d as f1
import curveflow.oracle as oc
import curveflow.rescale as rs
from curveflow.errors import (
    DegenerateGeometryError,
    FitFailureError,
    InvalidInputError,
    NumericalBreakdownError,
)


def started(state):
    """``state`` after the first pass of its run, started as ``_evolve`` starts it."""
    f1._alone(iter([[state]]))
    state.start()
    return state


def after_each_pass(stepper, check):
    """``stepper``, calling ``check()`` at each resume, which follows the
    round's stacked stencil call, and returning what it returns."""
    try:
        while True:
            yield next(stepper)
            check()
    except StopIteration as stop:
        return stop.value


@pytest.fixture(scope="module")
def small_circle_traj():
    return f1.run(cv.circle_polygon(0.5, 128), f1.SpeedLaw(1.0),
                  f1.FlowConfig())


@pytest.fixture(scope="module")
def peanut_traj():
    return f1.run(cv.peanut_polygon(1.0, 0.3, 256), f1.SpeedLaw(1.0),
                  f1.FlowConfig())


class TestConfigValidation:
    def test_speed_law_exponent_range(self):
        with pytest.raises(InvalidInputError, match="law.p"):
            f1.SpeedLaw(0.0)
        with pytest.raises(InvalidInputError, match="law.p"):
            f1.SpeedLaw(9.0)
        assert f1.SpeedLaw(8.0).p == 8.0

    def test_flow_config_ranges(self):
        with pytest.raises(InvalidInputError):
            f1.FlowConfig(stop_area_fraction=0.0)
        with pytest.raises(InvalidInputError):
            f1.FlowConfig(resample_every=0)

    def test_step_settings_take_numpy_integers(self):
        cfg = f1.FlowConfig(resample_every=np.int64(5), max_steps=np.int32(12))
        stats = f1.run(cv.circle_polygon(1.0, 64), f1.SpeedLaw(1.0), cfg).stats
        assert (stats.steps, stats.resamples) == (12, 2)


def speed(law, k):
    """The law's speed of k."""
    return law.speed(k)


class TestStepping:
    def test_velocity_power_law(self):
        k, _ = cv.curvature_profile(cv.circle_polygon(0.25, 256))
        s1 = speed(f1.SpeedLaw(1.0), k)
        s3 = speed(f1.SpeedLaw(3.0), k)
        assert np.max(np.abs(s3 - s1 ** 3)) < 1e-6
        # odd in k, so the driver's velocity does not depend on orientation
        law = f1.SpeedLaw(1.0 / 3.0)
        assert np.array_equal(speed(law, -k), -speed(law, k))

    @pytest.mark.parametrize("p", [0.2, 0.5, 2.0, 1.5, 8.0])
    def test_speed_in_place_is_the_plain_expression(self, p):
        # Bit for bit, signed zeros included: the law's speed takes |k|^p
        # through the ** operator's own path and clamps near-flat k to +0.0.
        k = np.concatenate([np.random.default_rng(2).standard_normal(500) * 10,
                            [0.0, -0.0, 1e-13, -1e-13, 1e-12, -1e-12]])
        mag = np.abs(k)
        plain = np.where(mag < f1.CURVATURE_CLAMP, 0.0, np.sign(k) * mag ** p)
        assert np.array_equal(speed(f1.SpeedLaw(p), k).view(np.int64), plain.view(np.int64))

    def test_clockwise_curve_moves_like_counterclockwise(self):
        ccw = cv.circle_polygon(1.0, 64)
        cw = cv.PlaneCurve(ccw.vertices[::-1])
        cfg = f1.FlowConfig(resample_every=1000, max_steps=100)
        for law in (f1.SpeedLaw(1.0), f1.SpeedLaw(1.0 / 3.0)):
            a = f1.run(ccw, law, cfg).final()
            b = f1.run(cw, law, cfg).final()
            assert a.time == b.time
            assert np.array_equal(a.geometry.vertices, b.geometry.vertices[::-1])

    def test_clockwise_curve_snapshots_like_counterclockwise(self):
        ccw = cv.circle_polygon(0.5, 64)
        a = f1.run(ccw, f1.SpeedLaw(1.0))
        b = f1.run(cv.PlaneCurve(ccw.vertices[::-1]), f1.SpeedLaw(1.0))
        assert len(a.snapshots) == len(b.snapshots)
        # resampling starts from a different vertex, so times agree to roundoff
        assert np.allclose(a.times(), b.times(), rtol=1e-12, atol=0.0)

    def test_non_finite_chain_length_raises_named_error(self):
        state = started(f1._CurveState(cv.circle_polygon(1.0, 64), f1.SpeedLaw(1.0),
                                       f1.FlowConfig()))
        state.plan(0.0)
        state.verts[:, 10] = np.nan
        with pytest.raises(DegenerateGeometryError, match="not finite"):
            state.resample()

    def test_non_finite_snapshot_is_a_numerical_breakdown(self):
        state = started(f1._CurveState(cv.circle_polygon(1.0, 64), f1.SpeedLaw(1.0),
                                       f1.FlowConfig()))
        state.verts[:, 10] = np.nan
        f1._alone(iter([[state]]))   # the step's last pass, as advance reads it
        state.measure_area()
        with pytest.raises(NumericalBreakdownError,
                           match="geometry degenerated at t=0.5: vertices must be finite"):
            state.record(0.5)


class TestCircleRun:
    def test_snapshot_times_strictly_increase(self, small_circle_traj):
        times = small_circle_traj.times()
        assert np.all(np.diff(times) > 0)

    def test_area_decreases_monotonically(self, small_circle_traj):
        assert np.all(np.diff(small_circle_traj.areas()) < 0)

    def test_length_never_increases(self, small_circle_traj):
        lengths = np.array([s.metrics.length for s in small_circle_traj.snapshots])
        assert np.all(np.diff(lengths) < 1e-12)

    def test_radius_tracks_closed_form(self, small_circle_traj):
        # tighter tracking on the production-size grid is covered by the
        # acceptance tests; this coarse run stays within half a percent
        for snap in small_circle_traj.snapshots:
            if snap.time > 0.9 * 0.125:
                break
            want = oc.shrinker_radius("circle", 0.5, snap.time)
            pts = snap.geometry.vertices
            got = np.mean(np.hypot(pts[:, 0], pts[:, 1]))
            assert abs(got - want) / want < 5e-3

    def test_extinction_event_near_closed_form_lifetime(self, small_circle_traj):
        kinds = [e.kind for e in small_circle_traj.events]
        assert f1.EVENT_EXTINCTION in kinds
        t_ext = small_circle_traj.events[-1].time
        assert abs(t_ext - 0.125) < 0.125 * 0.05

    def test_area_law_fit(self, small_circle_traj):
        law = f1.analyze_area_law(small_circle_traj)
        assert abs(law.slope + 2 * math.pi) < 2 * math.pi * 0.005
        assert abs(law.extinction_estimate - 0.125) < 0.125 * 0.02

    def test_final_returns_last_snapshot(self, small_circle_traj):
        assert small_circle_traj.final() is small_circle_traj.snapshots[-1]

    def test_run_is_deterministic(self):
        cfg = f1.FlowConfig(stop_area_fraction=0.3)
        a = f1.run(cv.circle_polygon(0.5, 96), f1.SpeedLaw(1.0), cfg)
        b = f1.run(cv.circle_polygon(0.5, 96), f1.SpeedLaw(1.0), cfg)
        assert np.array_equal(a.final().geometry.vertices, b.final().geometry.vertices)
        assert np.array_equal(a.times(), b.times())


class TestConvexification:
    def test_peanut_becomes_convex_before_extinction(self, peanut_traj):
        t_conv = f1.convexification_time(peanut_traj)
        assert t_conv is not None
        assert t_conv < peanut_traj.events[-1].time
        kinds = [e.kind for e in peanut_traj.events]
        assert f1.EVENT_CONVEXIFICATION in kinds

    def test_snapshots_convex_after_event(self, peanut_traj):
        t_conv = f1.convexification_time(peanut_traj)
        for snap in peanut_traj.snapshots:
            if snap.time >= t_conv:
                assert snap.metrics.convex

    def test_convex_start_reports_time_zero(self, small_circle_traj):
        assert f1.convexification_time(small_circle_traj) == 0.0

    def test_never_convex_has_no_convexification_time(self):
        peanut = cv.peanut_polygon(1.0, 0.3, 64)
        assert not cv.metrics(peanut).convex
        traj = f1.Trajectory([f1.Snapshot(t, peanut, cv.metrics(peanut)) for t in (0.0, 0.1)])
        assert f1.convexification_time(traj) is None

    def test_peanut_stays_embedded(self, peanut_traj):
        for snap in peanut_traj.snapshots:
            assert cv.is_embedded(snap.geometry)


class TestNormalizedLength:
    def test_constant_for_shrinking_circle(self, small_circle_traj):
        # normalization fixes the initial area, so the constant is
        # 2 sqrt(pi * A0) = pi for a circle of radius one half
        series = f1.rescaled_length_series(small_circle_traj)
        values = np.array([v for _, v in series])
        expect = 2 * math.sqrt(math.pi * small_circle_traj.areas()[0])
        assert abs(expect - math.pi) < 1e-3
        assert np.max(np.abs(values - expect)) < 0.02

    def test_increases_for_slow_exponent(self):
        traj = f1.run(cv.ellipse_polygon(1.5, 0.5, 192), f1.SpeedLaw(0.2),
                      f1.FlowConfig(stop_area_fraction=0.6))
        values = np.array([v for _, v in f1.rescaled_length_series(traj)])
        assert np.all(np.diff(values) > 0)


class TestEllipseFit:
    def test_recovers_rotated_shifted_ellipse(self):
        base = cv.ellipse_polygon(2.0, 1.0, 256)
        angle = math.radians(30)
        rot = np.array([[math.cos(angle), math.sin(angle)],
                        [-math.sin(angle), math.cos(angle)]])
        moved = cv.PlaneCurve(base.vertices @ rot + np.array([0.3, -0.2]))
        fit = f1.fit_ellipse(moved)
        assert fit.semi_major == pytest.approx(2.0, abs=1e-6)
        assert fit.semi_minor == pytest.approx(1.0, abs=1e-6)
        assert fit.eccentricity == pytest.approx(math.sqrt(3) / 2, abs=1e-6)
        assert fit.center[0] == pytest.approx(0.3, abs=1e-6)
        assert fit.center[1] == pytest.approx(-0.2, abs=1e-6)
        assert math.sin(fit.angle - angle) == pytest.approx(0.0, abs=1e-6)
        assert fit.residual < 1e-8

    def test_circle_has_zero_eccentricity(self):
        fit = f1.fit_ellipse(cv.circle_polygon(1.0, 128))
        assert fit.eccentricity < 1e-6

    @pytest.mark.parametrize("eigval, eigvec", [
        # every eigenvector a parabola or hyperbola: 4AC - B^2 <= 0
        (np.ones(3), np.eye(3)),
        # elliptical eigenvectors (1, 0, 1), but no real eigenvalue
        (np.array([1j, -1j, 2j]), np.array([[1.0] * 3, [0.0] * 3, [1.0] * 3])),
    ], ids=["not-elliptical", "complex"])
    def test_no_elliptical_solution_is_refused(self, monkeypatch, eigval, eigvec):
        # The constrained eigenproblem of a real point set has one elliptical
        # solution up to roundoff, so the refusal is reached through eig.
        monkeypatch.setattr(np.linalg, "eig", lambda m: (eigval, eigvec))
        with pytest.raises(FitFailureError, match="no elliptical solution"):
            f1.fit_ellipse(cv.ellipse_polygon(2.0, 1.0, 64))


def circle_traj(radii, p=1.0):
    """A curve trajectory of circles of the given radii, 0.01 apart in time."""
    circles = [cv.circle_polygon(r, 32) for r in radii]
    return f1.Trajectory([f1.Snapshot(0.01 * i, c, cv.metrics(c)) for i, c in enumerate(circles)],
                         law=f1.SpeedLaw(p))


@pytest.mark.parametrize("radii, p, match", [
    (np.linspace(1.0, 0.5, 12), 0.5, "applies to p = 1 trajectories"),
    (np.linspace(1.0, 0.5, 9), 1.0, "need at least 10 snapshots"),
    (np.linspace(0.5, 1.0, 12), 1.0, "area is not decreasing"),
], ids=["p-half", "nine-snapshots", "growing"])
def test_area_law_refusal_names_the_fault(radii, p, match):
    with pytest.raises(InvalidInputError, match=match):
        f1.analyze_area_law(circle_traj(radii, p))
    assert f1.analyze_area_law(circle_traj(np.linspace(1.0, 0.5, 12))).slope < 0


class TestStops:
    def test_curvature_cap_halts_run(self):
        cfg = f1.FlowConfig(max_curvature_stop=20.0)
        traj = f1.run(cv.circle_polygon(0.3, 128), f1.SpeedLaw(1.0), cfg)
        kinds = [e.kind for e in traj.events]
        assert f1.EVENT_BLOWUP in kinds
        assert traj.final().metrics.max_curvature >= 20.0 * 0.9

    def test_area_fraction_stop(self, small_circle_traj):
        areas = small_circle_traj.areas()
        assert areas[-1] <= 0.021 * areas[0]

    def test_step_budget_closes_every_trajectory(self):
        traj = f1.run(cv.circle_polygon(1.0, 128), f1.SpeedLaw(1.0),
                      f1.FlowConfig(max_steps=25))
        assert [e.kind for e in traj.events] == [f1.EVENT_STEP_BUDGET]
        assert traj.final().time == traj.events[0].time
        assert traj.final().time > traj.snapshots[-2].time
        pair = f1.co_evolve(
            [cv.circle_polygon(1.5, 64), cv.ellipse_polygon(0.8, 0.4, 64)],
            f1.SpeedLaw(1.0), f1.FlowConfig(max_steps=20))
        t_end = pair[0].final().time
        for tr in pair:
            assert [e.kind for e in tr.events] == [f1.EVENT_STEP_BUDGET]
            assert tr.final().time == tr.events[0].time == t_end > 0

    def test_collapse_below_the_extinction_diameter_takes_no_snapshot(self):
        # With the caps lifted, a circle at p = 0.2 shrinks below the extinction
        # diameter: the snapshot due there is refused and the stop event comes
        # after the last snapshot, not on one.
        traj = f1.run(cv.circle_polygon(1.0, 16), f1.SpeedLaw(0.2), LIFTED)
        assert [e.kind for e in traj.events] == [f1.EVENT_EXTINCTION]
        assert traj.events[0].time > traj.final().time
        assert cv.bbox_diameter(traj.final().geometry.vertices) < 10 * cv.EXTINCT_DIAMETER

    @pytest.mark.parametrize("p", [1.0 / 3.0, 0.2])
    def test_flat_sides_do_not_stall_below_p_one(self, p):
        # Roundoff curvature on a flat side must not set the step bound at
        # p < 1, or dt collapses and the run spins until its step budget.
        traj = f1.run(cv.rectangle_polygon(2.0, 1.0, 256), f1.SpeedLaw(p),
                      f1.FlowConfig(stop_area_fraction=0.05))
        stats = traj.stats
        assert stats.event == f1.EVENT_EXTINCTION
        assert stats.dt_min >= 1e-2 * stats.dt_max

    @pytest.mark.parametrize("p", [1.0, 1.0 / 3.0, 0.2, 2.0, 8.0],
                             ids=["p-1", "p-third", "p-0.2", "p-2", "p-8"])
    @pytest.mark.parametrize("sigma", [1e-3, 1e-2])
    def test_noisy_circle_rounds_at_the_full_bound(self, sigma, p):
        # Vertex noise puts energy in the shortest modes, the ones the stage
        # count must keep stable; the default config still rounds the circle
        # off and runs it to its area stop.  With the exact factor p in the
        # diffusivity at p = 0.2, not max(p, 1), the spread at sigma = 1e-3
        # ends near 1.104.
        noise = sigma * np.random.default_rng(0).standard_normal((256, 2))
        traj = f1.run(cv.PlaneCurve(cv.circle_polygon(1.0, 256).vertices + noise),
                      f1.SpeedLaw(p), f1.FlowConfig())
        kinds = [e.kind for e in traj.events]
        assert traj.stats.event == f1.EVENT_EXTINCTION
        assert f1.EVENT_BLOWUP not in kinds and f1.EVENT_EMBEDDEDNESS_LOSS not in kinds
        m = traj.final().metrics
        assert m.convex and m.min_curvature > 0
        assert m.max_curvature / m.min_curvature < 1.1

    @pytest.mark.parametrize("p", [2.0, 4.0, 8.0])
    def test_ellipse_rounds_at_large_p(self, p):
        # A diffusivity of |k|^(p-1), without the factor p of F'(k), let the
        # step outgrow the stencil's bound: at p = 4 this ellipse lost its
        # embeddedness with k between -19 and 17.
        traj = f1.run(cv.ellipse_polygon(1.5, 0.5, 128), f1.SpeedLaw(p), f1.FlowConfig())
        assert [e.kind for e in traj.events] == [f1.EVENT_EXTINCTION]
        m = traj.final().metrics
        assert m.convex and m.min_curvature > 0
        assert m.max_curvature / m.min_curvature < 1.1

    @pytest.mark.parametrize("p", [0.2, 1.0, 3.0])
    def test_diffusive_bound_counts_the_law_derivative(self, p):
        # F'(k) = p |k|^(p-1), with |k| floored at 1 / length; below p = 1 the
        # factor stays 1.
        curve = cv.ellipse_polygon(1.5, 0.5, 64)
        state = started(f1._CurveState(curve, f1.SpeedLaw(p), f1.FlowConfig()))
        k, _ = cv.curvature_profile(curve)
        edges = np.hypot(*np.diff(np.vstack([curve.vertices, curve.vertices[:1]]), axis=0).T)
        h, length = edges.min(), edges.sum()
        diffusivity = max(p, 1.0) * np.max(np.maximum(np.abs(k), 1.0 / length) ** (p - 1.0))
        assert state.plan(0.0)[1] == pytest.approx(h * h / (2.0 * diffusivity), rel=1e-12)


class TestCoEvolution:
    def test_nested_curves_share_times_and_stay_apart(self):
        outer = cv.circle_polygon(1.5, 128)
        inner = cv.ellipse_polygon(0.8, 0.4, 128)
        trajs = f1.co_evolve([outer, inner], f1.SpeedLaw(1.0),
                             f1.FlowConfig())
        assert len(trajs) == 2
        assert np.array_equal(trajs[0].times(), trajs[1].times())
        for s0, s1 in zip(trajs[0].snapshots, trajs[1].snapshots):
            assert cv.min_distance(s0.geometry, s1.geometry) > 0
            assert cv.is_embedded(s0.geometry) and cv.is_embedded(s1.geometry)

    def test_inner_curve_drives_the_stop(self):
        outer = cv.circle_polygon(1.5, 128)
        inner = cv.ellipse_polygon(0.8, 0.4, 128)
        trajs = f1.co_evolve([outer, inner], f1.SpeedLaw(1.0))
        inner_areas = trajs[1].areas()
        assert inner_areas[-1] <= 0.05 * inner_areas[0]

    @pytest.mark.parametrize("cap", [None, 6.0], ids=["extinction", "blowup"])
    def test_every_trajectory_ends_with_one_terminal_event(self, cap):
        terminal = {f1.EVENT_EXTINCTION, f1.EVENT_BLOWUP, f1.EVENT_EMBEDDEDNESS_LOSS,
                    f1.EVENT_STEP_BUDGET, f1.EVENT_PARTNER_STOPPED}
        trajs = f1.co_evolve(
            [cv.circle_polygon(1.5, 64), cv.ellipse_polygon(0.8, 0.4, 64)],
            f1.SpeedLaw(1.0), f1.FlowConfig(max_curvature_stop=cap))
        ending = f1.EVENT_EXTINCTION if cap is None else f1.EVENT_BLOWUP
        assert [e.kind for e in trajs[1].events] == [ending]
        assert [e.kind for e in trajs[0].events] == [f1.EVENT_PARTNER_STOPPED]
        for tr in trajs:
            assert sum(e.kind in terminal for e in tr.events) == 1
            assert tr.final().time == tr.events[-1].time
        assert np.array_equal(trajs[0].times(), trajs[1].times())

    def test_empty_list_rejected(self):
        with pytest.raises(InvalidInputError):
            f1.co_evolve([], f1.SpeedLaw(1.0))


@pytest.fixture(scope="module")
def sphere_traj():
    return ax.run_axi(ax.sphere_profile(0.3, 96))


@pytest.mark.parametrize("analysis", [
    f1.analyze_area_law, f1.rescaled_length_series, f1.convexification_time,
    rs.roundness_series, f1.Trajectory.areas,
], ids=["area-law", "rescaled-length", "convexification", "roundness", "areas"])
def test_curve_analyses_refuse_a_meridian(analysis, sphere_traj):
    with pytest.raises(InvalidInputError, match="curve trajectory"):
        analysis(sphere_traj)


class TestCachedGeometry:
    """``plan``, the snapshot schedule and the snapshot metrics read the geometry
    that the state's geometry pass kept; it must always be that of the current points."""

    @pytest.mark.parametrize("curves, p", [
        ([cv.circle_polygon(1.0, 64)], 1.0),
        ([cv.peanut_polygon(1.0, 0.3, 128)], 1.0),
        ([cv.ellipse_polygon(1.0, 0.5, 64)], 1.0 / 3.0),
        ([cv.circle_polygon(1.5, 64), cv.ellipse_polygon(0.8, 0.4, 64)], 1.0),
    ], ids=["circle", "peanut", "ellipse-p1/3", "nested-pair"])
    def test_held_geometry_matches_a_fresh_pass(self, curves, p):
        config = f1.FlowConfig(max_steps=4000)
        states = [f1._CurveState(c, f1.SpeedLaw(p), config) for c in curves]
        counts = [set() for _ in states]

        def checked(state, seen):
            plan = state.plan

            def plan_after_check(t):
                rows = state.verts
                fresh = cv._Stencil(cv._closed_chain(rows.T))()
                for held, want in zip((state.k, state.left, state.seg), fresh):
                    assert np.array_equal(held, want)
                assert state.area == cv.polygon_area(rows.T)
                seen.add(rows.shape[1])
                return plan(t)
            return plan_after_check

        for state, seen in zip(states, counts):
            state.plan = checked(state, seen)
        f1._alone(f1._evolve(states, config))
        for state, seen in zip(states, counts):
            assert len(seen) > 2   # resamples changed the vertex count
            assert len(state.traj.snapshots) > 10
            for snap in state.traj.snapshots:
                assert snap.metrics == cv.metrics(snap.geometry)

    @pytest.mark.parametrize("p", [1.0, 1.0 / 3.0])
    def test_area_is_the_shoelace_of_the_same_rows(self, p):
        """``measure_area`` multiplies into buffers bound with the chain; at every
        call, across resamples that change n, its area is ``polygon_area`` of
        the current rows, bit for bit."""
        config = f1.FlowConfig(max_steps=4000, resample_every=2)
        state = f1._CurveState(cv.peanut_polygon(1.0, 0.3, 128), f1.SpeedLaw(p), config)
        measure_area, sizes = state.measure_area, []

        def checked():
            measure_area()
            assert state.area == cv.polygon_area(state.verts.T)
            sizes.append(state.verts.shape[1])

        state.measure_area = checked
        f1._alone(f1._evolve([state], config))
        assert len(sizes) > 50 and len(set(sizes)) > 2


def _flow_steppers(fail_after=None):
    """Fresh steppers of a closed curve (a peanut, whose resamples change n),
    a co-evolved circle and ellipse, a two-pole meridian and the grim reaper's
    front.  With ``fail_after``, the pair's stepper raises after that many passes."""
    config, default = f1.FlowConfig(resample_every=4), f1.FlowConfig()
    pair = f1._evolve([f1._CurveState(c, f1.SpeedLaw(1.0), default)
                       for c in (cv.circle_polygon(1.5, 64), cv.ellipse_polygon(0.8, 0.4, 48))],
                      default)
    if fail_after is not None:
        def failing(stepper):
            for _ in range(fail_after):
                yield next(stepper)
            raise FloatingPointError("pair failed")
        pair = failing(pair)
    front = f1.FlowConfig(resample_every=25)
    return [f1._evolve([f1._CurveState(cv.peanut_polygon(1.0, 0.3, 96), f1.SpeedLaw(1.0), config)],
                       config),
            pair,
            f1._evolve([ax._AxiState(ax.dumbbell_profile(1.0, 0.3, 1.0, 256), default)], default),
            f1._evolve([oc._FrontState(oc.grim_reaper(81, 1.0), 0.1, front)], front)]


def _bits(geometry):
    for name in ("vertices", "samples"):
        geometry = getattr(geometry, name, geometry)
    return geometry.dtype, geometry.shape, geometry.tobytes()


def assert_same_run(a, b):
    """Two trajectories with the same events, stats and snapshots, bit for bit."""
    assert a.events == b.events and a.stats == b.stats
    assert len(a.snapshots) == len(b.snapshots)
    for sa, sb in zip(a.snapshots, b.snapshots):
        assert sa.time == sb.time and sa.metrics == sb.metrics
        assert _bits(sa.geometry) == _bits(sb.geometry)


class TestRounds:
    def test_each_flow_runs_as_it_runs_alone(self):
        """One stacked pass a round over a curve, a pair, a meridian and a front
        gives each the trajectories of its own run, though the flows end in
        different rounds and resamples change the stack's layout."""
        together = f1._rounds(_flow_steppers())
        alone = [f1._alone(stepper) for stepper in _flow_steppers()]
        assert [len(trajs) for trajs in together] == [1, 2, 1, 1]
        assert len({t.stats.evaluations for trajs in together for t in trajs}) == 4
        for mine, own in zip(together, alone):
            for a, b in zip(mine, own):
                assert_same_run(a, b)

    def test_a_stepper_that_raises_ends_alone(self):
        together = f1._rounds(_flow_steppers(fail_after=30))
        assert isinstance(together[1], FloatingPointError)
        assert str(together[1]) == "pair failed"
        for i in (0, 2, 3):
            for a, b in zip(together[i], f1._alone(_flow_steppers()[i])):
                assert_same_run(a, b)
        with pytest.raises(FloatingPointError, match="pair failed"):
            f1._alone(_flow_steppers(fail_after=30)[1])

    def test_a_stalled_flow_leaves_the_others_as_they_run_alone(self):
        """A circle with no area or curvature stop shrinks until its clock
        stalls (t + tau == t) and ends ``stalled``; an ellipse and a sphere in
        the same rounds end on their own stops, as they do alone."""
        stall = f1.FlowConfig(stop_area_fraction=1e-30, max_curvature_stop=1e300)
        default = f1.FlowConfig()

        def steppers():
            return [f1._evolve([f1._CurveState(cv.circle_polygon(1.0, 16), f1.SpeedLaw(1.0),
                                               stall)], stall),
                    f1._evolve([f1._CurveState(cv.ellipse_polygon(1.0, 0.5, 64),
                                               f1.SpeedLaw(1.0), default)], default),
                    f1._evolve([ax._AxiState(ax.sphere_profile(1.0, 32), default)], default)]

        together = f1._rounds(steppers())
        assert [trajs[0].stats.event for trajs in together] == [
            f1.EVENT_STALLED, f1.EVENT_EXTINCTION, ax.EVENT_POLE_EXTINCTION]
        for mine, stepper in zip(together, steppers()):
            assert_same_run(mine[0], f1._alone(stepper)[0])


def _nested_pair(i):
    curves = [cv.circle_polygon(1.5, 32), cv.ellipse_polygon(0.8, 0.4, 32)]
    return f1.co_evolve(curves, f1.SpeedLaw(1.0))[i]


# A step budget that ends the budget runs below before their area or pole stop.
BUDGET = 10
# No area-fraction or curvature stop: a run goes on until its clock stalls.
LIFTED = f1.FlowConfig(stop_area_fraction=1e-30, max_curvature_stop=1e300)
# name -> (run, the terminal event it must end with); every driver, every way a run ends
ENDINGS = {
    "curve-extinction": (lambda: f1.run(cv.circle_polygon(0.5, 32), f1.SpeedLaw(1.0)),
                         f1.EVENT_EXTINCTION),
    "curve-blowup": (lambda: f1.run(cv.circle_polygon(0.5, 32), f1.SpeedLaw(1.0),
                                    f1.FlowConfig(max_curvature_stop=6.0)), f1.EVENT_BLOWUP),
    # k = 2 is past the cap at the start: the first plan closes the run
    "curve-blowup-at-start": (lambda: f1.run(cv.circle_polygon(0.5, 32), f1.SpeedLaw(1.0),
                                             f1.FlowConfig(max_curvature_stop=1.0)),
                              f1.EVENT_BLOWUP),
    "curve-budget": (lambda: f1.run(cv.circle_polygon(0.5, 32), f1.SpeedLaw(1.0),
                                    f1.FlowConfig(max_steps=BUDGET)), f1.EVENT_STEP_BUDGET),
    "curve-partner": (lambda: _nested_pair(0), f1.EVENT_PARTNER_STOPPED),
    # t + tau == t ends the run; else it would record 9 snapshots at one time.
    "curve-stalled": (lambda: f1.run(cv.circle_polygon(1.0, 16), f1.SpeedLaw(1.0), LIFTED),
                      f1.EVENT_STALLED),
    "curve-partner-driver": (lambda: _nested_pair(1), f1.EVENT_EXTINCTION),
    "meridian-pole": (lambda: ax.run_axi(ax.sphere_profile(0.5, 32)), ax.EVENT_POLE_EXTINCTION),
    "meridian-neck": (lambda: ax.run_axi(ax.dumbbell_profile(1.0, 0.3, 1.0, 256)),
                      ax.EVENT_NECK_PINCH),
    "meridian-torus": (lambda: ax.run_axi(ax.torus_profile(1.0, 0.25, 64)),
                       ax.EVENT_TORUS_COLLAPSE),
    "meridian-blowup": (lambda: ax.run_axi(ax.sphere_profile(1.0, 64),
                                           f1.FlowConfig(max_curvature_stop=1.5)),
                        f1.EVENT_BLOWUP),
    "meridian-budget": (lambda: ax.run_axi(ax.sphere_profile(1.0, 32),
                                           f1.FlowConfig(max_steps=BUDGET)), f1.EVENT_STEP_BUDGET),
    "meridian-stalled": (lambda: ax.run_axi(ax.sphere_profile(1.0, 32), LIFTED), f1.EVENT_STALLED),
    "front-horizon": (lambda: oc.evolve_translating_front(
        oc.grim_reaper(41), 0.02, config=f1.FlowConfig(resample_every=10)), oc.EVENT_HORIZON),
}
TERMINAL = {f1.EVENT_EXTINCTION, f1.EVENT_BLOWUP, f1.EVENT_EMBEDDEDNESS_LOSS,
            f1.EVENT_STEP_BUDGET, f1.EVENT_PARTNER_STOPPED, f1.EVENT_STALLED,
            ax.EVENT_POLE_EXTINCTION,
            ax.EVENT_NECK_PINCH, ax.EVENT_TORUS_COLLAPSE, oc.EVENT_HORIZON}


@pytest.mark.parametrize("ending", ENDINGS)
def test_one_terminal_event_and_it_is_last(ending):
    run, kind = ENDINGS[ending]
    traj = run()
    assert sum(e.kind in TERMINAL for e in traj.events) == 1
    assert traj.events[-1].kind == kind
    assert traj.final().time == traj.events[-1].time
    times = traj.times()
    assert np.all(np.diff(times) > 0)


@pytest.mark.parametrize("ending", ENDINGS)
def test_run_stats_describe_the_run(ending):
    run, kind = ENDINGS[ending]
    traj = run()
    stats = traj.stats
    assert stats.event == kind
    assert stats.snapshots == len(traj.snapshots)
    assert stats.resamples == stats.steps // f1.FlowConfig().resample_every
    if ending.endswith("budget"):
        assert stats.steps == BUDGET
    assert stats.evaluations >= 2 * stats.steps
    if stats.steps == 0:   # closed by the first plan
        assert (stats.dt_min, stats.dt_mean, stats.dt_max) == (None, None, None)
        assert stats.evaluations == stats.min_stages == stats.max_stages == 0
    else:
        assert 0 < stats.dt_min <= stats.dt_mean <= stats.dt_max
        assert 2 <= stats.min_stages <= stats.max_stages <= f1.MAX_STAGES
        assert stats.min_stages * stats.steps <= stats.evaluations <= stats.max_stages * stats.steps
        assert stats.dt_mean * stats.steps == pytest.approx(traj.final().time, rel=1e-12)


def test_co_evolved_trajectories_share_the_clock_stats():
    pair = [_nested_pair(0), _nested_pair(1)]
    a, b = (tr.stats for tr in pair)
    assert (a.steps, a.resamples, a.dt_min, a.dt_mean, a.dt_max) == (
        b.steps, b.resamples, b.dt_min, b.dt_mean, b.dt_max)
    assert (a.event, b.event) == (f1.EVENT_PARTNER_STOPPED, f1.EVENT_EXTINCTION)


def rkl2_by_table(stages, tau, lam):
    """One step of y' = lam y from y0 = 1 as ``_evolve`` takes it: a bank of
    (Y(j-1), Y(j-2), Y0, F, F0, out), one dot of a scaled table row per stage."""
    weights = f1._rkl2(stages) * [1.0, 1.0, 1.0, tau, tau]
    bank = np.zeros((6, 1))
    bank[0] = 1.0
    bank[3] = lam * bank[0]
    bank[2], bank[4] = bank[0], bank[3]
    for j, w in enumerate(weights):
        if j:
            bank[3] = lam * bank[0]
        np.dot(w, bank[:5], out=bank[5])
        bank[1] = bank[0]
        bank[0] = bank[5]
    return float(bank[0, 0])


def rkl2_by_recurrence(stages, tau, lam):
    """The same step from Meyer, Balsara and Aslam (2014), eq. 16-17, written out."""
    def b(j):
        return 1.0 / 3.0 if j < 2 else (j * j + j - 2) / (2.0 * j * (j + 1))
    w1 = 4.0 / (stages * stages + stages - 2)
    y0 = 1.0
    older, y = y0, y0 + b(1) * w1 * tau * lam * y0
    for j in range(2, stages + 1):
        mu = (2 * j - 1) / j * b(j) / b(j - 1)
        nu = -(j - 1) / j * b(j) / b(j - 2)
        gamma = -(1.0 - b(j - 1)) * mu * w1
        older, y = y, (mu * y + nu * older + (1.0 - mu - nu) * y0
                       + mu * w1 * tau * lam * y + gamma * tau * lam * y0)
    return y


class TestRKL2Table:
    """``_rkl2``'s weight table, combined as ``_evolve`` combines it, on y' = -y:
    forward Euler is stable up to tau = 2, so s stages up to (s^2 + s - 2) / 2."""

    @pytest.mark.parametrize("stages", range(2, f1.MAX_STAGES + 1))
    def test_table_is_the_recurrence(self, stages):
        bound = (stages * stages + stages - 2) / 2.0
        for tau in (bound, bound / 4.0):
            # Relative to y0 = 1: at the bound an odd s leaves |y1| near 1 / s^2.
            assert abs(rkl2_by_table(stages, tau, -1.0)
                       - rkl2_by_recurrence(stages, tau, -1.0)) <= 1e-13
        # Stable at the bound; an even s meets |y1| = 1 there, up to roundoff.
        assert abs(rkl2_by_table(stages, bound, -1.0)) <= 1.0 + 1e-13

    @pytest.mark.parametrize("stages", range(2, f1.MAX_STAGES + 1))
    def test_second_order(self, stages):
        # The local error of a second-order step is O(tau^3): halving tau cuts it 8x.
        errors = [abs(rkl2_by_table(stages, tau, -1.0) - math.exp(-tau)) for tau in (1e-2, 5e-3)]
        assert 7.5 < errors[0] / errors[1] < 8.5

    def test_table_is_cached_and_read_only(self):
        table = f1._rkl2(7)
        assert table.shape == (7, 5) and f1._rkl2(7) is table
        assert not table.flags.writeable


def euler_steps(stages):
    """Forward-Euler steps that an RKL2 step of ``stages`` stages is stable over."""
    return (stages * stages + stages - 2) / 4.0


class TestStageCount:
    """``_stage_count`` with a forward-Euler bound of 1."""

    def test_fewest_stages_whose_bound_covers_the_step(self):
        for stages in range(3, f1.MAX_STAGES + 1):
            for tau in (math.nextafter(euler_steps(stages - 1), math.inf), euler_steps(stages)):
                assert f1._stage_count(tau, 1.0) == (stages, tau)

    @pytest.mark.parametrize("tau", [1e-12, 0.5, 1.0])
    def test_a_step_within_one_euler_step_takes_two_stages(self, tau):
        assert f1._stage_count(tau, 1.0) == (2, tau)

    @pytest.mark.parametrize("tau", [math.nextafter(409.5, math.inf), 1e3, math.inf])
    def test_a_longer_step_is_cut_at_max_stages(self, tau):
        assert euler_steps(f1.MAX_STAGES) == 409.5
        assert f1._stage_count(tau, 1.0) == (f1.MAX_STAGES, 409.5)


def test_stages_do_not_depend_on_blas_threads():
    """A co_evolve pair at n = 1400 is bit-identical on one BLAS thread and on
    the default count: each stage's sum is one np.dot over about 5 x 2800
    numbers per curve, over the size at which OpenBLAS may split it among threads."""
    script = """
import hashlib
import curveflow.curves as cv, curveflow.flow1d as f1
pair = [cv.circle_polygon(1.5, 1400), cv.ellipse_polygon(0.8, 0.4, 1400)]
digest = hashlib.sha256()
for traj in f1.co_evolve(pair, f1.SpeedLaw(1.0), f1.FlowConfig(max_steps=20)):
    for snap in traj.snapshots:
        digest.update(snap.geometry.vertices.tobytes())
    digest.update(repr(traj.stats).encode())
print(digest.hexdigest())
"""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    src = str(Path(curveflow.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    digests = []
    for threads in (None, "1"):
        run_env = env if threads is None else {**env, "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=run_env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.strip())
    assert digests[0] == digests[1]
