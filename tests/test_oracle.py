"""Closed-form solution oracles and their independent consistency checks."""

import math

import numpy as np
import pytest

import curveflow.curves as cv
import curveflow.flow1d as f1
import curveflow.oracle as oc
from curveflow.errors import (
    DegenerateGeometryError,
    ExtinctError,
    InvalidInputError,
    NumericalBreakdownError,
)
from test_flow1d import started


class TestShrinkers:
    def test_circle_radius_closed_form(self):
        assert abs(oc.shrinker_radius("circle", 1.0, 0.3) - math.sqrt(0.4)) < 1e-12
        assert abs(oc.shrinker_radius("circle", 1.0, 0.0) - 1.0) < 1e-15

    def test_cylinder_matches_circle_rate(self):
        assert oc.shrinker_radius("cylinder", 0.7, 0.1) == pytest.approx(
            oc.shrinker_radius("circle", 0.7, 0.1), abs=1e-15)

    def test_sphere_shrinks_twice_as_fast(self):
        assert abs(oc.shrinker_radius("sphere", 1.0, 0.2) - math.sqrt(1 - 0.8)) < 1e-12
        assert abs(oc.shrinker_lifetime("sphere", 1.0) - 0.25) < 1e-15
        assert abs(oc.shrinker_lifetime("circle", 1.0) - 0.5) < 1e-15
        assert abs(oc.shrinker_lifetime("cylinder", 2.0) - 2.0) < 1e-15

    def test_lifetime_scales_quadratically(self):
        for kind in oc.SHRINKER_KINDS:
            t1 = oc.shrinker_lifetime(kind, 1.0)
            t3 = oc.shrinker_lifetime(kind, 3.0)
            assert abs(t3 - 9 * t1) < 1e-12

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidInputError):
            oc.shrinker_radius("plane", 1.0, 0.1)
        with pytest.raises(InvalidInputError):
            oc.shrinker_radius("circle", -1.0, 0.1)
        with pytest.raises(InvalidInputError):
            oc.shrinker_radius("circle", 1.0, -0.1)
        with pytest.raises(ExtinctError):
            oc.shrinker_radius("circle", 1.0, 0.6)


class TestPowerCircle:
    def test_reduces_to_linear_case(self):
        for t in (0.0, 0.2, 0.45):
            assert abs(oc.power_circle_radius(1.0, 1.0, t)
                       - oc.shrinker_radius("circle", 1.0, t)) < 1e-14

    def test_cube_root_value_frozen(self):
        # independently integrated dr/dt = -r^(-1/3) from r0 = 1 to t = 0.3
        assert abs(oc.power_circle_radius(1.0, 1.0 / 3.0, 0.3) - 0.6817316198849862) < 1e-9

    def test_lifetime_formula(self):
        assert abs(oc.power_circle_lifetime(1.0, 1.0 / 3.0) - 0.75) < 1e-15
        assert abs(oc.power_circle_lifetime(2.0, 0.2) - 2.0 ** 1.2 / 1.2) < 1e-12

    def test_extinct_past_lifetime(self):
        with pytest.raises(ExtinctError):
            oc.power_circle_radius(1.0, 0.2, 0.9)
        with pytest.raises(InvalidInputError):
            oc.power_circle_radius(1.0, 0.0, 0.1)


class TestSelfCheck:
    def test_all_cases_within_tolerance(self):
        report = oc.selfcheck()
        assert len(report) == 6
        worst = max(report.values())
        assert worst < oc.SELFCHECK_TOL

    def test_step_leaves_room_below_the_tolerance(self):
        # At SELFCHECK_STEP = 1e-4 the worst mismatch is 3.4e-12 (cylinder), far
        # below SELFCHECK_TOL; a coarser step would show here first.
        assert max(oc.selfcheck().values()) < 1e-10

    def test_case_names_cover_every_kind(self):
        names = " ".join(oc.selfcheck())
        for kind in oc.SHRINKER_KINDS:
            assert kind in names

    def test_matches_rate_function_reference(self):
        # The inline RK4 stages against the same integration through a rate
        # function per stage, bit for bit.
        def rk4(rate, r, t_end, step):
            t = 0.0
            while t < t_end - 1e-15:
                h = min(step, t_end - t)
                k1 = rate(r)
                k2 = rate(r + 0.5 * h * k1)
                k3 = rate(r + 0.5 * h * k2)
                k4 = rate(r + h * k3)
                r += (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                t += h
            return r

        step = oc.SELFCHECK_STEP
        expected = {
            "circle_p1": abs(rk4(lambda r: -1.0 / r, 1.0, 0.375, step)
                             - oc.shrinker_radius("circle", 1.0, 0.375)),
            "cylinder": abs(rk4(lambda r: -1.0 / r, 0.2, 0.015, step)
                            - oc.shrinker_radius("cylinder", 0.2, 0.015)),
            "sphere": abs(rk4(lambda r: -2.0 / r, 1.0, 0.1875, step)
                          - oc.shrinker_radius("sphere", 1.0, 0.1875)),
        }
        for p, label in ((1.0 / 3.0, "power_cuberoot"), (0.2, "power_fifthroot"),
                         (2.0, "power_square")):
            expected[label] = abs(rk4(lambda r: -(r ** (-p)), 1.0, 0.3, step)
                                  - oc.power_circle_radius(1.0, p, 0.3))
        assert oc.selfcheck() == expected


class TestTranslators:
    def test_grim_reaper_graph(self):
        pts = oc.grim_reaper(161, 1.2)
        assert pts.shape == (161, 2)
        assert abs(pts[0, 0] + 1.2) < 1e-12 and abs(pts[-1, 0] - 1.2) < 1e-12
        assert np.max(np.abs(pts[:, 1] + np.log(np.cos(pts[:, 0])))) < 1e-12

    def test_grim_reaper_rejects_wide_domain(self):
        with pytest.raises(InvalidInputError):
            oc.grim_reaper(101, 2.0)

    def test_front_translates_rigidly(self):
        pts = oc.grim_reaper(81, 1.0)
        traj = oc.evolve_translating_front(pts, 0.1)
        moved, stats = traj.final().geometry, traj.stats
        assert stats.event == oc.EVENT_HORIZON and stats.steps > 0
        target = pts + np.array([0.0, 0.1])
        trim = len(moved) // 10
        dev = oc.polyline_distance(moved[trim:-trim], target)
        assert np.max(dev) < 2e-3

    def test_front_step_obeys_the_displacement_cap(self):
        # One right angle between edges of length h: k h = sqrt(2) > 1/2, so
        # the cap 0.25 h / max|k| lies below the forward-Euler bound h^2 / 2.
        h = 0.1
        pts = h * np.array([[-3.0, 0.0], [-2, 0], [-1, 0], [0, 0], [0, 1], [0, 2], [0, 3]])
        state = started(oc._FrontState(pts, 1.0, f1.FlowConfig()))
        k, _, seg = cv._Stencil(state.verts)()
        kmax, h_min = float(np.abs(k).max()), float(seg.min())
        assert kmax * h_min == pytest.approx(math.sqrt(2.0))
        assert state.plan(0.0)[0] <= f1.DISPLACEMENT_FRACTION * h_min / kmax

    @pytest.mark.parametrize("value, error, match", [
        ("repeat", DegenerateGeometryError, "coincide"),
        ("short", DegenerateGeometryError, "at least 4"),
        (np.nan, InvalidInputError, "finite"),
    ])
    def test_front_rejects_bad_points(self, value, error, match):
        pts = oc.grim_reaper(161, 1.2)
        if value == "repeat":
            pts = np.insert(pts, 80, pts[80], axis=0)
        elif value == "short":   # too few for the not-a-knot resample
            pts = pts[::60]
        else:
            pts[80] = value
        with pytest.raises(error, match=match):
            oc.evolve_translating_front(pts, 0.3)

    def test_front_default_config_is_resample_every_25(self):
        # The default steps the front exactly as the explicit FlowConfig does;
        # the config's resample_every reaches the front.
        pts = oc.grim_reaper(81, 1.0)
        default, explicit, every_10 = [
            oc.evolve_translating_front(pts, 0.2, config=cfg)
            for cfg in (None, f1.FlowConfig(resample_every=25), f1.FlowConfig(resample_every=10))]
        assert np.array_equal(default.final().geometry, explicit.final().geometry)
        assert default.stats == explicit.stats and default.stats.resamples > 0
        assert every_10.stats.resamples > default.stats.resamples

    @pytest.mark.parametrize("field, value, kind", [
        ("max_steps", 5, f1.EVENT_STEP_BUDGET),
        ("max_curvature_stop", 0.5, f1.EVENT_BLOWUP),
    ])
    def test_front_ending_before_its_horizon_raises(self, field, value, kind):
        with pytest.raises(NumericalBreakdownError, match=kind):
            oc.evolve_translating_front(oc.grim_reaper(81, 1.0), 0.1,
                                        config=f1.FlowConfig(**{field: value}))


class TestPolylineDistance:
    def test_distance_to_square(self):
        target = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        pts = np.array([[0.5, -0.25], [0.5, 0.5]])
        dev = oc.polyline_distance(pts, target)
        assert dev[0] == pytest.approx(0.25, abs=1e-12)
        assert dev[1] == pytest.approx(0.5, abs=1e-12)
