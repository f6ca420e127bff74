"""Curve evolution driver: stepping, events, area law, fits, co-evolution."""

import math

import numpy as np
import pytest

import curveflow.axisym as ax
import curveflow.curves as cv
import curveflow.flow1d as f1
import curveflow.oracle as oc
from curveflow.errors import DegenerateGeometryError, InvalidInputError


@pytest.fixture(scope="module")
def small_circle_traj():
    return f1.run(cv.circle_polygon(0.5, 128), f1.SpeedLaw(1.0),
                  f1.FlowConfig(cfl_factor=0.5))


@pytest.fixture(scope="module")
def peanut_traj():
    return f1.run(cv.peanut_polygon(1.0, 0.3, 256), f1.SpeedLaw(1.0),
                  f1.FlowConfig(cfl_factor=0.4))


class TestConfigValidation:
    def test_speed_law_exponent_range(self):
        with pytest.raises(InvalidInputError, match="law.p"):
            f1.SpeedLaw(0.0)
        with pytest.raises(InvalidInputError, match="law.p"):
            f1.SpeedLaw(9.0)
        assert f1.SpeedLaw(8.0).p == 8.0

    def test_flow_config_ranges(self):
        with pytest.raises(InvalidInputError):
            f1.FlowConfig(cfl_factor=1.5)
        with pytest.raises(InvalidInputError):
            f1.FlowConfig(cfl_factor=0.0)
        with pytest.raises(InvalidInputError):
            f1.FlowConfig(stop_area_fraction=0.0)
        with pytest.raises(InvalidInputError):
            f1.FlowConfig(resample_every=0)


class TestStepping:
    def test_velocity_power_law(self):
        k, _ = cv.curvature_profile(cv.circle_polygon(0.25, 256))
        s1 = f1.SpeedLaw(1.0).speed(k)
        s3 = f1.SpeedLaw(3.0).speed(k)
        assert np.max(np.abs(s3 - s1 ** 3)) < 1e-6
        # odd in k, so the driver's velocity does not depend on orientation
        law = f1.SpeedLaw(1.0 / 3.0)
        assert np.array_equal(law.speed(-k), -law.speed(k))

    def test_clockwise_curve_moves_like_counterclockwise(self):
        ccw = cv.circle_polygon(1.0, 64)
        cw = cv.PlaneCurve(ccw.vertices[::-1])
        cfg = f1.FlowConfig(resample_every=1000, max_steps=100)
        for law in (f1.SpeedLaw(1.0), f1.SpeedLaw(1.0 / 3.0)):
            a = f1.run(ccw, law, cfg).final()
            b = f1.run(cw, law, cfg).final()
            assert a.time == b.time
            assert np.array_equal(a.curve.vertices, b.curve.vertices[::-1])

    def test_clockwise_curve_snapshots_like_counterclockwise(self):
        ccw = cv.circle_polygon(0.5, 64)
        a = f1.run(ccw, f1.SpeedLaw(1.0))
        b = f1.run(cv.PlaneCurve(ccw.vertices[::-1]), f1.SpeedLaw(1.0))
        assert len(a.snapshots) == len(b.snapshots)
        # resampling starts from a different vertex, so times agree to roundoff
        assert np.allclose(a.times(), b.times(), rtol=1e-12, atol=0.0)

    def test_non_finite_chain_length_raises_named_error(self):
        state = f1._CurveState(cv.circle_polygon(1.0, 64), f1.SpeedLaw(1.0), f1.FlowConfig())
        dt = state.plan(0.0)
        state.verts[:, 10] = np.nan
        with pytest.raises(DegenerateGeometryError, match="not finite"):
            state.advance(dt, resample=True)


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
            pts = snap.curve.vertices
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
        cfg = f1.FlowConfig(cfl_factor=0.5, stop_area_fraction=0.3)
        a = f1.run(cv.circle_polygon(0.5, 96), f1.SpeedLaw(1.0), cfg)
        b = f1.run(cv.circle_polygon(0.5, 96), f1.SpeedLaw(1.0), cfg)
        assert np.array_equal(a.final().curve.vertices, b.final().curve.vertices)
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

    def test_peanut_stays_embedded(self, peanut_traj):
        for snap in peanut_traj.snapshots:
            assert cv.is_embedded(snap.curve)


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


class TestStops:
    def test_curvature_cap_halts_run(self):
        cfg = f1.FlowConfig(cfl_factor=0.5, max_curvature_stop=20.0)
        traj = f1.run(cv.circle_polygon(0.3, 128), f1.SpeedLaw(1.0), cfg)
        kinds = [e.kind for e in traj.events]
        assert f1.EVENT_BLOWUP in kinds
        assert traj.final().metrics.max_curvature >= 20.0 * 0.9

    def test_area_fraction_stop(self, small_circle_traj):
        areas = small_circle_traj.areas()
        assert areas[-1] <= 0.021 * areas[0]

    def test_step_budget_closes_every_trajectory(self):
        traj = f1.run(cv.circle_polygon(1.0, 128), f1.SpeedLaw(1.0),
                      f1.FlowConfig(max_steps=500))
        assert [e.kind for e in traj.events] == [f1.EVENT_STEP_BUDGET]
        assert traj.final().time == traj.events[0].time
        assert traj.final().time > traj.snapshots[-2].time
        pair = f1.co_evolve(
            [cv.circle_polygon(1.5, 64), cv.ellipse_polygon(0.8, 0.4, 64)],
            f1.SpeedLaw(1.0), f1.FlowConfig(max_steps=50))
        t_end = pair[0].final().time
        for tr in pair:
            assert [e.kind for e in tr.events] == [f1.EVENT_STEP_BUDGET]
            assert tr.final().time == tr.events[0].time == t_end > 0


class TestCoEvolution:
    def test_nested_curves_share_times_and_stay_apart(self):
        outer = cv.circle_polygon(1.5, 128)
        inner = cv.ellipse_polygon(0.8, 0.4, 128)
        trajs = f1.co_evolve([outer, inner], f1.SpeedLaw(1.0),
                             f1.FlowConfig(cfl_factor=0.4))
        assert len(trajs) == 2
        assert np.array_equal(trajs[0].times(), trajs[1].times())
        for s0, s1 in zip(trajs[0].snapshots, trajs[1].snapshots):
            assert cv.min_distance(s0.curve, s1.curve) > 0
            assert cv.is_embedded(s0.curve) and cv.is_embedded(s1.curve)

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


class TestCachedGeometry:
    """``plan``, the snapshot schedule and the snapshot metrics read the geometry
    that ``_CurveState.measure`` kept; it must always be that of the current points."""

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
                fresh = cv._three_point(cv._closed_chain(rows.T))
                for held, want in zip((state.k, state.left, state.seg), fresh):
                    assert np.array_equal(held, want)
                assert state.area == cv.polygon_area(rows.T)
                seen.add(rows.shape[1])
                return plan(t)
            return plan_after_check

        for state, seen in zip(states, counts):
            state.plan = checked(state, seen)
        f1._evolve(states, config)
        for state, seen in zip(states, counts):
            assert len(seen) > 2   # resamples changed the vertex count
            assert len(state.traj.snapshots) > 10
            for snap in state.traj.snapshots:
                assert snap.metrics == cv.metrics(snap.curve)


def _nested_pair(i):
    curves = [cv.circle_polygon(1.5, 32), cv.ellipse_polygon(0.8, 0.4, 32)]
    return f1.co_evolve(curves, f1.SpeedLaw(1.0))[i]


# name -> (run, the terminal event it must end with); both drivers, every way a run ends
ENDINGS = {
    "curve-extinction": (lambda: f1.run(cv.circle_polygon(0.5, 32), f1.SpeedLaw(1.0)),
                         f1.EVENT_EXTINCTION),
    "curve-blowup": (lambda: f1.run(cv.circle_polygon(0.5, 32), f1.SpeedLaw(1.0),
                                    f1.FlowConfig(max_curvature_stop=6.0)), f1.EVENT_BLOWUP),
    "curve-budget": (lambda: f1.run(cv.circle_polygon(0.5, 32), f1.SpeedLaw(1.0),
                                    f1.FlowConfig(max_steps=50)), f1.EVENT_STEP_BUDGET),
    "curve-partner": (lambda: _nested_pair(0), f1.EVENT_PARTNER_STOPPED),
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
                                           f1.FlowConfig(max_steps=50)), f1.EVENT_STEP_BUDGET),
}
TERMINAL = {f1.EVENT_EXTINCTION, f1.EVENT_BLOWUP, f1.EVENT_EMBEDDEDNESS_LOSS,
            f1.EVENT_STEP_BUDGET, f1.EVENT_PARTNER_STOPPED, ax.EVENT_POLE_EXTINCTION,
            ax.EVENT_NECK_PINCH, ax.EVENT_TORUS_COLLAPSE}


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
        assert stats.steps == 50
    if stats.steps == 0:   # closed by the first plan
        assert (stats.dt_min, stats.dt_mean, stats.dt_max) == (None, None, None)
    else:
        assert 0 < stats.dt_min <= stats.dt_mean <= stats.dt_max
        assert stats.dt_mean * stats.steps == pytest.approx(traj.final().time, rel=1e-12)


def test_co_evolved_trajectories_share_the_clock_stats():
    pair = [_nested_pair(0), _nested_pair(1)]
    a, b = (tr.stats for tr in pair)
    assert (a.steps, a.resamples, a.dt_min, a.dt_mean, a.dt_max) == (
        b.steps, b.resamples, b.dt_min, b.dt_mean, b.dt_max)
    assert (a.event, b.event) == (f1.EVENT_PARTNER_STOPPED, f1.EVENT_EXTINCTION)
