"""Axisymmetric surface evolution: profiles, curvature, events, neck fits."""

import functools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import curveflow.axisym as ax
import curveflow.curves as cv
import curveflow.flow1d as f1
import curveflow.oracle as oc
import curveflow.rescale as rs
from curveflow.errors import CurveflowError, DegenerateGeometryError, InvalidInputError, NoNeckError
from test_curves import reference_three_point
from test_flow1d import after_each_pass, started


def perturbed_cylinder(r0=0.2, period=2.0, n=192, amp=0.3):
    prof = ax.cylinder_profile(r0, period, n)
    samples = prof.samples.copy()
    samples[:, 1] = r0 * (1.0 - amp * np.cos(2 * np.pi * samples[:, 0] / period))
    return ax.AxiProfile(samples, prof.topology, prof.period)


def meridian_pass(profile):
    """The geometry pass on a fresh chain of the profile's samples."""
    return ax._meridian_pass(cv._closed_chain(profile.samples), profile.topology, profile.period)


def reference_meridian_chain(points, topology, period=None):
    """The (n + 2, 2) chain of (n, 2) samples between the ghosts that
    ``ax._fill_ghosts`` writes, in plain array expressions."""
    if topology == ax.TOPOLOGY_TWO_POLES:
        mirror = np.array([1.0, -1.0])   # a pole's ghost reflects its neighbour in the axis
        return np.vstack([points[1] * mirror, points, points[-2] * mirror])
    chain = np.vstack([points[-1:], points, points[:1]])
    if topology == ax.TOPOLOGY_CYLINDER:
        chain[0, 0] -= period
        chain[-1, 0] += period
    return chain


def reference_meridian_pass(points, topology, period=None):
    """The meridian pass in plain array expressions on (n, 2) samples, around
    ``reference_three_point``: the bit-for-bit reference for the h, (2, n) left
    normal rows and polyline segment lengths of ``ax._meridian_pass``."""
    chain = reference_meridian_chain(points, topology, period)
    k, left, seg = reference_three_point(chain)
    if topology != ax.TOPOLOGY_TWO_POLES:
        return k - left[:, 1] / chain[1:-1, 1], left.T, seg[1:]
    h = 2.0 * k
    h[1:-1] = k[1:-1] - left[1:-1, 1] / chain[2:-2, 1]
    return h, left.T, seg[1:-1]


def mean_curvature(profile):
    """Scalar mean curvature and inward meridian normal per sample, poles included:
    the pass's h and left normal, turned the way axi_metrics turns its h range."""
    h, left, _ = meridian_pass(profile)
    sign = 1.0 if ax.axi_metrics(profile).max_mean_curvature == h.max() else -1.0
    return sign * h, sign * left.T


@pytest.fixture(scope="module")
def small_sphere_traj():
    return ax.run_axi(ax.sphere_profile(0.5, 200), f1.FlowConfig())


@pytest.fixture(scope="module")
def neck_traj():
    return ax.run_axi(perturbed_cylinder(), f1.FlowConfig())


class TestProfiles:
    def test_sphere_mean_curvature(self):
        h, nu = mean_curvature(ax.sphere_profile(2.0, 200))
        assert np.max(np.abs(h[1:-1] - 1.0)) < 1e-3
        assert np.allclose(np.linalg.norm(nu, axis=1), 1.0, atol=1e-12)

    def test_cylinder_mean_curvature(self):
        h, nu = mean_curvature(ax.cylinder_profile(2.0, 1.0, 64))
        assert np.max(np.abs(h - 0.5)) < 1e-10
        # inward normal of a cylinder points at the axis
        assert np.allclose(nu, [0.0, -1.0], atol=1e-10)

    def test_torus_mean_curvature_extremes(self):
        h, _ = mean_curvature(ax.torus_profile(1.0, 0.25, 256))
        # outer equator 1/rho + 1/(R + rho), inner equator 1/rho - 1/(R - rho)
        assert abs(h.max() - 4.8) < 1e-3
        assert abs(h.min() - (4.0 - 1.0 / 0.75)) < 1e-3

    def test_sphere_area_and_volume(self):
        m = ax.axi_metrics(ax.sphere_profile(1.0, 400))
        assert abs(m.surface_area - 4 * math.pi) / (4 * math.pi) < 1e-4
        assert abs(m.enclosed_volume - 4 * math.pi / 3) / (4 * math.pi / 3) < 1e-4
        assert m.mean_convex

    def test_torus_area_and_volume(self):
        m = ax.axi_metrics(ax.torus_profile(1.0, 0.25, 400))
        assert abs(m.surface_area - 4 * math.pi ** 2 * 0.25) / m.surface_area < 1e-4
        assert abs(m.enclosed_volume - 2 * math.pi ** 2 * 0.25 ** 2) / m.enclosed_volume < 1e-4
        # thin torus: smaller principal radius dominates everywhere
        assert m.mean_convex

    def test_fat_torus_is_not_mean_convex(self):
        # tube thicker than half the ring radius turns h negative inside
        m = ax.axi_metrics(ax.torus_profile(1.0, 0.6, 400))
        assert m.min_mean_curvature < 0
        assert not m.mean_convex

    def test_cylinder_area_and_volume_per_period(self):
        m = ax.axi_metrics(ax.cylinder_profile(0.5, 2.0, 64))
        assert abs(m.surface_area - 2 * math.pi * 0.5 * 2.0) < 1e-10
        assert abs(m.enclosed_volume - math.pi * 0.25 * 2.0) < 1e-10

    def test_dumbbell_waist_and_convexity(self):
        prof = ax.dumbbell_profile(1.0, 0.15, 1.2, 800)
        m = ax.axi_metrics(prof)
        assert abs(m.min_radius - 0.15) < 1e-9
        assert abs(m.min_radius_location) < 0.05
        assert m.mean_convex

    def test_mirror_symmetry_of_dumbbell_curvature(self):
        h, _ = mean_curvature(ax.dumbbell_profile(1.0, 0.15, 1.2, 801))
        assert np.max(np.abs(h - h[::-1])) < 1e-6

    def test_validation_errors(self):
        with pytest.raises(InvalidInputError):
            ax.sphere_profile(-1.0)
        with pytest.raises(InvalidInputError):
            ax.torus_profile(1.0, 1.2)
        with pytest.raises(InvalidInputError):
            ax.dumbbell_profile(0.1, 0.2, 1.0, 400)
        for dims in ((0.0, 0.2, 1.0), (1.0, -0.2, 1.0), (1.0, 0.2, 0.0)):
            with pytest.raises(InvalidInputError, match="dumbbell dimensions must be positive"):
                ax.dumbbell_profile(*dims, 400)
        with pytest.raises(InvalidInputError):
            ax.AxiProfile(np.column_stack([np.linspace(0, 1, 32),
                                           -np.ones(32)]), ax.TOPOLOGY_CYLINDER, 1.0)

    @pytest.mark.parametrize("damage, error, match", [
        ("pole-off-axis", InvalidInputError, "twopoles profile must start and end at r = 0"),
        ("interior-on-axis", DegenerateGeometryError, "interior sample on or below the axis"),
        ("interior-below-axis", DegenerateGeometryError, "interior sample on or below the axis"),
        ("cylinder-x-back", InvalidInputError, "cylinder samples must have increasing x"),
        ("cylinder-whole-period", InvalidInputError,
         "cylinder samples must span less than one period"),
    ])
    def test_profile_refusal_names_the_fault(self, damage, error, match):
        if damage.startswith("cylinder"):
            prof = ax.cylinder_profile(0.5, 1.0, 32)
            pts, period = prof.samples.copy(), prof.period
            if damage == "cylinder-x-back":
                pts[[10, 11], 0] = pts[[11, 10], 0]
            else:   # the samples span 31/32 of a period, which is now shorter
                period = 0.9
        else:
            pts, period = ax.sphere_profile(1.0, 64).samples.copy(), None
            if damage == "pole-off-axis":
                pts[-1, 1] = 0.05
            else:
                pts[20, 1] = 0.0 if damage == "interior-on-axis" else -0.05
        with pytest.raises(error, match=match):
            ax.AxiProfile(pts, ax.TOPOLOGY_CYLINDER if period else ax.TOPOLOGY_TWO_POLES, period)

    @pytest.mark.parametrize("prof", [ax.sphere_profile(1.0, 64), ax.torus_profile(1.0, 0.25, 64)],
                             ids=["sphere", "torus"])
    def test_period_is_refused_off_the_cylinder(self, prof):
        with pytest.raises(InvalidInputError, match="period is for the cylinder topology only"):
            ax.AxiProfile(prof.samples, prof.topology, period=2.0)
        assert ax.AxiProfile(prof.samples, prof.topology, period=None).period is None

    @pytest.mark.parametrize("prof", [ax.sphere_profile(1.0, 64), ax.torus_profile(1.0, 0.25, 64)],
                             ids=["sphere", "torus"])
    def test_memory_layout_does_not_change_the_bits(self, prof):
        pts = prof.samples
        for a in (np.asfortranarray(pts), np.ascontiguousarray(pts.T).T):   # F, a .T view
            other = ax.AxiProfile(a, prof.topology)
            assert other.samples.flags.c_contiguous
            assert ax.axi_metrics(other) == ax.axi_metrics(prof)


class TestSphereRun:
    def test_radius_tracks_closed_form(self, small_sphere_traj):
        lifetime = oc.shrinker_lifetime("sphere", 0.5)
        for snap in small_sphere_traj.snapshots:
            if snap.time > 0.9 * lifetime:
                break
            want = oc.shrinker_radius("sphere", 0.5, snap.time)
            pts = snap.geometry.samples
            center = 0.5 * (pts[0, 0] + pts[-1, 0])
            got = np.mean(np.hypot(pts[:, 0] - center, pts[:, 1]))
            assert abs(got - want) / want < 5e-3

    def test_pole_extinction_event(self, small_sphere_traj):
        kinds = [e.kind for e in small_sphere_traj.events]
        assert ax.EVENT_POLE_EXTINCTION in kinds
        t_end = small_sphere_traj.events[-1].time
        assert abs(t_end - 0.0625) < 0.0625 * 0.05

    def test_surface_area_decreases(self, small_sphere_traj):
        areas = [s.metrics.surface_area for s in small_sphere_traj.snapshots]
        assert np.all(np.diff(areas) < 0)

    def test_mean_convexity_preserved(self, small_sphere_traj):
        assert all(s.metrics.mean_convex for s in small_sphere_traj.snapshots)

    def test_step_budget_ends_with_event(self):
        traj = ax.run_axi(ax.sphere_profile(1.0, 100), f1.FlowConfig(max_steps=40))
        assert [e.kind for e in traj.events] == [f1.EVENT_STEP_BUDGET]
        assert traj.final().time == traj.events[0].time
        assert traj.final().time > traj.snapshots[-2].time

    @pytest.mark.parametrize("cap", [1.5, 2.86], ids=["at-start", "after-snapshot"])
    def test_blowup_reuses_the_snapshot_just_taken(self, cap):
        traj = ax.run_axi(ax.sphere_profile(1.0, 64), f1.FlowConfig(max_curvature_stop=cap))
        assert [e.kind for e in traj.events] == [f1.EVENT_BLOWUP]
        times = traj.times()
        assert len(np.unique(times)) == len(times)
        assert traj.final().time == traj.events[0].time
        if cap == 1.5:
            assert times.tolist() == [0.0]

    def test_non_finite_chain_length_raises_named_error(self):
        pts = ax.sphere_profile(1.0, 64).samples.copy()
        pts[10] = np.nan
        with pytest.raises(DegenerateGeometryError, match="not finite"):
            ax._axi_resample(pts.T, ax.TOPOLOGY_TWO_POLES, None, 0.05)


class TestCylinderRun:
    def test_straight_cylinder_follows_the_shrinking_law(self):
        # The cylinder ghost rule makes every sample see the same neighbours, so
        # the tube stays exactly uniform while r^2 = r0^2 - 2t.
        traj = ax.run_axi(ax.cylinder_profile(0.3, 1.0, 64), f1.FlowConfig())
        for snap in traj.snapshots:
            r = snap.geometry.samples[:, 1]
            assert np.ptp(r) == 0.0
            want = oc.shrinker_radius("cylinder", 0.3, snap.time)
            assert abs(r[0] - want) / want < 5e-3
        assert [e.kind for e in traj.events] == [ax.EVENT_NECK_PINCH]
        assert abs(traj.events[0].time - 0.042) < 1e-3


class TestNeckPinch:
    def test_pinch_event_at_thinnest_section(self, neck_traj):
        events = {e.kind: e for e in neck_traj.events}
        assert ax.EVENT_NECK_PINCH in events
        x_pinch, r_pinch = events[ax.EVENT_NECK_PINCH].location
        assert abs(x_pinch) < 0.05
        assert r_pinch < 0.06

    def test_waist_follows_cylinder_law(self, neck_traj):
        report = ax.neck_report(neck_traj)
        times, radii = report.series[:, 0], report.series[:, 1]
        assert report.pinch_time > times[-1]
        decade = radii <= 10 * radii.min()
        ratio = radii[decade] / np.sqrt(2 * (report.pinch_time - times[decade]))
        assert ratio.min() > 0.9 and ratio.max() < 1.15

    def test_min_radius_series_reaches_halt(self, neck_traj):
        # the run halts once the waist drops under a few sample spacings
        radii = np.array([s.metrics.min_radius for s in neck_traj.snapshots])
        assert radii[-1] < 0.4 * radii[0]
        spacing = 2.0 / 192
        assert radii[-1] < 6 * spacing

    def test_no_neck_error_on_sphere(self, small_sphere_traj):
        with pytest.raises(NoNeckError):
            ax.neck_report(small_sphere_traj)

    def test_too_few_snapshots_in_the_last_decade(self, neck_traj):
        # the first and last snapshots alone: both radii lie within 10x of the smallest
        short = f1.Trajectory([neck_traj.snapshots[0], neck_traj.final()], list(neck_traj.events))
        with pytest.raises(NoNeckError, match="too few snapshots in the final decade"):
            ax.neck_report(short)


@pytest.fixture(scope="module")
def dumbbell_traj():
    return ax.run_axi(ax.dumbbell_profile(1.0, 0.15, 1.2, 1400),
                      f1.FlowConfig())


class TestDumbbellRun:
    def test_neck_pinch_mid_tube(self, dumbbell_traj):
        events = {e.kind: e for e in dumbbell_traj.events}
        assert ax.EVENT_NECK_PINCH in events
        assert abs(events[ax.EVENT_NECK_PINCH].location[0]) < 0.3

    def test_mean_convexity_preserved(self, dumbbell_traj):
        assert dumbbell_traj.snapshots[0].metrics.mean_convex
        assert all(s.metrics.mean_convex for s in dumbbell_traj.snapshots)

    def test_waist_ratio_decade(self, dumbbell_traj):
        report = ax.neck_report(dumbbell_traj)
        times, radii = report.series[:, 0], report.series[:, 1]
        decade = radii <= 10 * radii.min()
        ratio = radii[decade] / np.sqrt(2 * (report.pinch_time - times[decade]))
        assert ratio.min() > 0.95 and ratio.max() < 1.05

    def test_under_resolved_neck_is_rejected(self):
        # waist 0.3 against a threshold of 5 x spacing = 0.3125: it would "pinch" at once
        with pytest.raises(InvalidInputError, match="neck threshold"):
            ax.run_axi(ax.dumbbell_profile(1.0, 0.3, 1.0, 128))


class TestTorusRun:
    def test_collapse_to_meridian_circle(self):
        traj = ax.run_axi(ax.torus_profile(0.6, 0.08, 256), f1.FlowConfig())
        kinds = [e.kind for e in traj.events]
        assert ax.EVENT_TORUS_COLLAPSE in kinds
        final = traj.final().geometry.samples
        seg = np.linalg.norm(np.diff(final, axis=0), axis=1)
        _, _, residual = rs.fit_circle(final)
        center, radius, _ = rs.fit_circle(final)
        deviation = np.max(np.abs(np.hypot(final[:, 0] - center[0],
                                           final[:, 1] - center[1]) - radius))
        assert deviation < 3 * seg.mean()
        # collapse near the cylinder-law lifetime of the tube
        assert abs(traj.events[-1].time - 0.0032) < 0.0015

    @pytest.mark.parametrize("n", [32, 44])
    def test_under_resolved_tube_is_rejected(self, n):
        # tube 0.25 against thresholds 0.244 (n = 32) and 0.178 (n = 44): they
        # reported torus-collapse at 7% and 52% of the tube's lifetime (0.031)
        with pytest.raises(InvalidInputError, match="neck threshold"):
            ax.run_axi(ax.torus_profile(1.0, 0.25, n))

    def test_resolved_tube_runs_past_half_its_lifetime(self):
        traj = ax.run_axi(ax.torus_profile(1.0, 0.25, 48))
        assert traj.events[-1].kind == ax.EVENT_TORUS_COLLAPSE
        assert traj.events[-1].time > 0.5 * 0.25**2 / 2


class TestInPlaceStep:
    def test_snapshots_and_input_share_no_memory_with_the_buffer(self):
        # The tube shrinks, so resampling lowers the sample count and the
        # chain buffer is reallocated during the run.
        profile = ax.torus_profile(1.0, 0.25, 64)
        before = profile.samples.copy()
        config = f1.FlowConfig()
        state = ax._AxiState(profile, config)
        first_chain = state.chain
        f1._alone(f1._evolve([state], config))
        assert np.array_equal(profile.samples, before)
        snaps = state.traj.snapshots
        assert len(snaps[-1].geometry) < len(profile)
        assert state.chain is not first_chain
        arrays = [s.geometry.samples for s in snaps]
        for i, a in enumerate(arrays):
            assert not np.shares_memory(a, state.chain)
            assert not np.shares_memory(a, first_chain)
            for b in arrays[i + 1:]:
                assert not np.shares_memory(a, b)


class TestCachedGeometry:
    @pytest.mark.parametrize("profile", [
        ax.sphere_profile(0.5, 64),
        ax.torus_profile(1.0, 0.25, 64),   # shrinks, so a resample reallocates the chain
        ax.dumbbell_profile(1.0, 0.3, 1.0, 256),
        perturbed_cylinder(n=128),
    ], ids=["sphere", "torus", "dumbbell", "cylinder"])
    def test_plan_reads_the_geometry_of_the_current_chain(self, profile):
        config = f1.FlowConfig(max_steps=1500)
        state = ax._AxiState(profile, config)
        chains = set()
        plan = state.plan

        def checked_plan(t):   # runs before every plan of the real loop
            chains.add(id(state.chain))
            fresh = state.chain.copy()
            h, left, seg = ax._meridian_pass(fresh, profile.topology, profile.period)
            area = ax._lateral_area(fresh, profile.topology, seg)
            assert np.array_equal(fresh, state.chain)   # the ghosts were current
            assert np.array_equal(state.left, left)
            assert np.array_equal(state.seg, seg)
            (px, pr), (qx, qr) = state.chain[:, :-1], state.chain[:, 1:]   # ghost edges included
            ends = slice(1, -1) if profile.topology == ax.TOPOLOGY_TWO_POLES else slice(1, None)
            dx, dr = qx - px, qr - pr
            slant = np.sqrt(dx * dx + dr * dr)[ends]
            assert np.array_equal(state.seg, slant)
            assert state.area == float((np.pi * (pr[ends] + qr[ends]) * slant).sum())
            assert state.area == area
            planned = plan(t)
            assert np.array_equal(state.h, h)   # as plan's velocity computed it
            return planned

        state.plan = checked_plan
        [traj] = f1._alone(f1._evolve([state], config))
        stats = traj.stats
        assert stats.event != f1.EVENT_STEP_BUDGET
        assert chains   # the spy ran
        if profile.topology == ax.TOPOLOGY_PERIODIC:
            assert len(chains) > 1


MERIDIANS = {
    "sphere": ax.sphere_profile(0.5, 64),
    "dumbbell": ax.dumbbell_profile(1.0, 0.3, 1.0, 256),
    "torus": ax.torus_profile(1.0, 0.25, 64),
    "cylinder": perturbed_cylinder(n=128),
}


def noisy_meridian(shape, sigma):
    """A torus meridian (tube 0.25, n = 128) or a cylinder (r = 0.3, n = 64)
    with its samples moved by normal jitter of scale sigma: along the radius
    about the tube's centre, or in r."""
    jitter = sigma * np.random.default_rng(0).standard_normal(128 if shape == "torus" else 64)
    if shape == "torus":
        profile, centre = ax.torus_profile(1.0, 0.25, 128), np.array([0.0, 1.0])
        samples = centre + (profile.samples - centre) * (1.0 + jitter / 0.25)[:, None]
    else:
        profile = ax.cylinder_profile(0.3, 1.0, 64)
        samples = profile.samples + np.column_stack([np.zeros_like(jitter), jitter])
    return ax.AxiProfile(samples, profile.topology, profile.period)


def roughness(profile):
    """Largest second difference of h around the samples over the largest |h|:
    up to 4 for a sawtooth, near 0 for a smooth meridian."""
    h = meridian_pass(profile)[0]
    return np.abs(np.roll(h, 1) - 2.0 * h + np.roll(h, -1)).max() / np.abs(h).max()


class TestMeridianPass:
    @pytest.mark.parametrize("name", list(MERIDIANS) + ["reversed-dumbbell"])
    def test_one_shot_pass_matches_the_reference(self, name):
        profile = MERIDIANS[name.split("-")[-1]]
        if name.startswith("reversed"):
            profile = ax.AxiProfile(profile.samples[::-1], profile.topology)
        want = reference_meridian_pass(profile.samples, profile.topology, profile.period)
        for got, ref in zip(meridian_pass(profile), want):
            assert same_bits(got, ref)

    @pytest.mark.parametrize("name", list(MERIDIANS))
    def test_bound_is_gershgorin(self, name):
        """plan's forward-Euler bound is min(h^2 / 2, h r_int / 4).  On two poles
        the r_int term is the smaller, so the bound is that of min(h^2, h r_int) / 4."""
        profile = MERIDIANS[name]
        pts = profile.samples
        two_poles = profile.topology == ax.TOPOLOGY_TWO_POLES
        ends = pts if two_poles else np.vstack([pts, pts[:1] + [profile.period or 0.0, 0.0]])
        h = np.hypot(*np.diff(ends, axis=0).T).min()
        r_int = pts[1:-1, 1].min() if two_poles else pts[:, 1].min()
        bound = started(ax._AxiState(profile, f1.FlowConfig())).plan(0.0)[1]
        assert bound == pytest.approx(min(h * h / 2.0, h * r_int / 4.0), rel=1e-12)
        assert (h * r_int / 4.0 < h * h / 2.0) == two_poles

    @pytest.mark.parametrize("sigma", [1e-4, 1e-3])
    @pytest.mark.parametrize("shape", ["torus", "cylinder"])
    def test_noisy_meridian_smooths_at_the_full_bound(self, shape, sigma):
        # Jitter puts energy in the shortest modes, the ones the stage count must
        # keep stable.  At the bound h^2 / 1.5 the roughness grew past its start
        # (3.2 from 1.7 on the torus at sigma = 1e-4) before the flow ended.
        traj = ax.run_axi(noisy_meridian(shape, sigma), f1.FlowConfig())
        assert traj.stats.event == (ax.EVENT_TORUS_COLLAPSE if shape == "torus"
                                    else ax.EVENT_NECK_PINCH)
        rough = [roughness(s.geometry) for s in traj.snapshots]
        assert rough[0] > 1.0
        assert max(rough[1:]) < 0.5 * rough[0] and rough[-1] < 0.05


class TestOnePass:
    """The step's geometry pass is the only one: plan, the neck check and every
    snapshot read it, and axi_metrics runs the same pass on a fresh chain."""

    @pytest.mark.parametrize("run, event", [
        ("small_sphere_traj", ax.EVENT_POLE_EXTINCTION),
        ("dumbbell_traj", ax.EVENT_NECK_PINCH),
        ("neck_traj", ax.EVENT_NECK_PINCH),   # a perturbed cylinder
        (lambda: ax.run_axi(ax.torus_profile(1.0, 0.25, 64)), ax.EVENT_TORUS_COLLAPSE),
        (lambda: ax.run_axi(ax.sphere_profile(0.5, 200), f1.FlowConfig(max_curvature_stop=6.0)),
         f1.EVENT_BLOWUP),
        (lambda: ax.run_axi(ax.sphere_profile(1.0, 100), f1.FlowConfig(max_steps=40)),
         f1.EVENT_STEP_BUDGET),
    ], ids=["pole-extinction", "neck-pinch-dumbbell", "neck-pinch-cylinder", "torus-collapse",
            "curvature-blowup", "step-budget"])
    def test_snapshot_metrics_are_those_of_the_profile(self, run, event, request):
        traj = request.getfixturevalue(run) if isinstance(run, str) else run()
        assert traj.stats.event == event
        assert len(traj.snapshots) > 2
        for snap in traj.snapshots:
            assert snap.metrics == ax.axi_metrics(snap.geometry)

    @pytest.mark.parametrize("end", [0, -1], ids=["first", "last"])
    @pytest.mark.parametrize("reverse", [False, True], ids=["h-up", "h-down"])
    def test_plan_clamps_the_pole_on_a_copy(self, end, reverse):
        # A pole's neighbour pulled back past it: |h| at the pole is over twice
        # |h| there, so the clamp binds, for h of either sign at either pole; a
        # blow-up snapshot taken in plan reads the stored h.
        s = ax.sphere_profile(0.5, 64).samples[::-1 if reverse else 1].copy()
        j = 1 if end == 0 else -2
        dx, dr = s[j] - s[end]
        s[j] = s[end] + (-2.0 * dx, 0.6 * dr)
        state = started(ax._AxiState(ax.AxiProfile(s), f1.FlowConfig()))
        h = state.h.copy()
        assert abs(h[end]) > 2.0 * abs(h[j]) and (h[end] < 0) == reverse
        assert np.isfinite(state.plan(0.0)[0])
        assert np.array_equal(state.h, h)
        assert same_bits(state.h, reference_meridian_pass(s, ax.TOPOLOGY_TWO_POLES)[0])
        assert np.array_equal(state.vel[:, end], 2.0 * abs(h[j]) * np.sign(h[end]) * meridian_pass(
            ax.AxiProfile(s))[1][:, end])

    @pytest.mark.parametrize("profile", [ax.sphere_profile(1.0, 64),
                                         ax.dumbbell_profile(1.0, 0.15, 1.2, 801)],
                             ids=["sphere", "dumbbell"])
    def test_reversal_keeps_the_metrics(self, profile):
        rev = ax.axi_metrics(ax.AxiProfile(profile.samples[::-1], profile.topology))
        m = ax.axi_metrics(profile)
        # The dumbbell is mirror-symmetric bit for bit, so reversal changes nothing.
        # The sphere's samples are not: its area and volume sum other terms in another order.
        assert (rev.min_radius, rev.min_radius_location, rev.min_mean_curvature,
                rev.max_mean_curvature, rev.mean_convex) == (
                m.min_radius, m.min_radius_location, m.min_mean_curvature,
                m.max_mean_curvature, m.mean_convex)
        assert rev.surface_area == pytest.approx(m.surface_area, rel=1e-12)
        assert rev.enclosed_volume == pytest.approx(m.enclosed_volume, rel=1e-12)
        if np.array_equal(profile.samples[::-1] * [-1.0, 1.0], profile.samples):
            assert rev == m

    def test_reversed_torus_matches(self):
        # The waist x is left out: every sample of a circular tube lies at the same
        # distance from its centre, so argmin picks a roundoff winner.
        prof = ax.torus_profile(1.0, 0.25, 256)
        rev = ax.axi_metrics(ax.AxiProfile(prof.samples[::-1], prof.topology))
        m = ax.axi_metrics(prof)
        for name in ("surface_area", "enclosed_volume", "min_radius", "min_mean_curvature",
                     "max_mean_curvature"):
            assert getattr(rev, name) == pytest.approx(getattr(m, name), rel=1e-12)
        assert rev.mean_convex == m.mean_convex


@pytest.mark.parametrize("case", ["curve-peanut", "curve-pair", "meridian-sphere",
                                  "meridian-torus", "meridian-dumbbell", "meridian-cylinder",
                                  "front"])
def test_one_stencil_pass_per_step(case, monkeypatch):
    """Every driver makes one stacked stencil call per velocity evaluation, over
    the chains of all K states on one clock, plus the first round's call, which
    starts them: evaluations + 1 calls, snapshots included.  Every share a
    state adopts, so every ``geo`` it holds, is a ``curves._Share`` of a
    stacked call.  The inputs are built before the count starts: a torus
    meridian's constructor runs a pass of its own."""
    calls, shares = [], []
    kernel, adopt = cv._Stencil.__call__, f1._FlowState.adopt

    def counted(stencil):
        calls.append(len(stencil.k))
        return kernel(stencil)

    def kept(state, share):
        shares.append(type(share))
        adopt(state, share)

    if case == "curve-peanut":
        peanut = cv.peanut_polygon(1.0, 0.3, 128)
        flow = lambda: f1.run(peanut, f1.SpeedLaw(1.0))
    elif case == "curve-pair":
        pair = [cv.circle_polygon(1.5, 64), cv.ellipse_polygon(0.8, 0.4, 64)]
        flow = lambda: f1.co_evolve(pair, f1.SpeedLaw(1.0))[0]
    elif case == "front":
        front = oc.grim_reaper(81, 1.0)
        flow = lambda: oc.evolve_translating_front(front, 0.1)
    else:
        profile = {"sphere": ax.sphere_profile(0.5, 64),
                   "torus": ax.torus_profile(1.0, 0.25, 64),
                   "dumbbell": ax.dumbbell_profile(1.0, 0.3, 1.0, 256),
                   "cylinder": perturbed_cylinder()}[case.split("-")[1]]
        flow = lambda: ax.run_axi(profile)
    monkeypatch.setattr(cv._Stencil, "__call__", counted)
    monkeypatch.setattr(f1._FlowState, "adopt", kept)
    stats = flow().stats
    assert stats.evaluations > 100 and (stats.snapshots > 2 or case == "front")
    assert len(calls) == stats.evaluations + 1
    assert shares and set(shares) == {cv._Share}
    if case == "curve-pair":   # the first round's call spans both chains, ghosts included
        assert calls[0] == (64 + 2) + (64 + 2) - 2


@pytest.mark.parametrize("case", ["sphere", "torus", "dumbbell", "ellipse", "spiral"])
def test_simple_snapshots_skip_the_sweep(case, monkeypatch):
    """Every snapshot of a shrinking sphere, torus, dumbbell and 2:1 ellipse is
    certified simple in O(n), so none reaches the segment sweep; the spiral,
    neither convex nor a meridian, still does."""
    calls = []
    sweep = cv._segment_sweep

    def guarded(v, tol):
        if case != "spiral":
            raise AssertionError(f"{case} reached the segment sweep")
        calls.append(len(v))
        return sweep(v, tol)

    monkeypatch.setattr(cv, "_segment_sweep", guarded)
    if case == "ellipse":
        traj = f1.run(cv.ellipse_polygon(1.0, 0.5, 128), f1.SpeedLaw(1.0))
    elif case == "spiral":
        traj = f1.run(cv.spiral_polygon(n=200), f1.SpeedLaw(1.0), f1.FlowConfig(max_steps=200))
    else:
        traj = ax.run_axi({"sphere": ax.sphere_profile(0.5, 64),
                           "torus": ax.torus_profile(1.0, 0.25, 64),
                           "dumbbell": ax.dumbbell_profile(1.0, 0.3, 1.0, 256)}[case])
    assert len(traj.snapshots) > 10
    assert (len(calls) > 10) == (case == "spiral")


@functools.cache
def snapshot_start(kind):
    """A valid start of each kind, the curve or meridian a state is built from."""
    if kind in ("convex", "fold-back"):
        return cv.ellipse_polygon(1.5, 0.6, 96)
    if kind == "spiral":
        return cv.spiral_polygon(n=320)
    if kind == "folded":   # a limacon: its inner loop crosses the outer one
        t = np.arange(97) * (2.0 * math.pi / 97)
        r = 0.5 + np.cos(t)
        return cv.PlaneCurve(np.column_stack([r * np.cos(t), r * np.sin(t)]))
    if kind == "sphere":
        return ax.sphere_profile(0.8, 64)
    if kind == "torus":
        return ax.torus_profile(1.0, 0.3, 64)
    if kind == "dumbbell":
        return ax.dumbbell_profile(1.0, 0.3, 1.0, 256)
    return perturbed_cylinder()


def outcome(build):
    """``build()`` and None, or None and the type of the package error it raised."""
    try:
        return build(), None
    except CurveflowError as exc:
        return None, type(exc)


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@settings(max_examples=120, deadline=None)
@given(kind=st.sampled_from(["convex", "spiral", "folded", "fold-back",
                             "sphere", "torus", "dumbbell", "cylinder"]),
       seed=st.integers(0, 2**32 - 1),
       damage=st.sampled_from(["none", "nan", "coincident", "extinct", "near-axis"]))
def test_snapshot_checks_on_the_pass_match_the_constructor(kind, seed, damage):
    """A state's ``take`` checks its rows on the arrays of its last pass; the
    public constructor, on the same rows, computes its own.  Both give the same
    arrays bit for bit, the same orientation, embedded verdict and metrics, and
    leave the same polygons to the segment sweep, or raise the same exception:
    on NaN rows, coincident neighbours (the closing or last pair often) and rows
    below the extinction diameter.  A meridian sample 500 tol from the axis
    keeps it valid but denies the two-pole certificate."""
    start = snapshot_start(kind)
    rng = np.random.default_rng(seed)
    is_curve = isinstance(start, cv.PlaneCurve)
    pts = (start.vertices if is_curve else start.samples).copy()
    n = len(pts)
    two_poles = not is_curve and start.topology == ax.TOPOLOGY_TWO_POLES
    noise = 0.05 * rng.standard_normal((n, 2)) * np.hypot(*np.diff(pts, axis=0).T).mean()
    if two_poles:
        noise[[0, -1], 1] = 0.0   # the poles stay on the axis
    pts += noise
    if is_curve:   # a random similarity
        pts = rotate(pts, rng.uniform(0.0, 2.0 * math.pi)) * 10.0 ** rng.uniform(-3, 3)
        pts += rng.uniform(-5.0, 5.0, 2)
    if kind == "fold-back":   # the neighbours of one vertex coincide
        i = rng.integers(1, n - 1)
        pts[i + 1] = pts[i - 1]
    rows = pts.T.copy()
    closed = is_curve or start.topology == ax.TOPOLOGY_PERIODIC
    if damage == "nan":
        rows[rng.integers(2), rng.integers(2, n - 2)] = np.nan
    elif damage == "coincident":   # the pole and its neighbour never: r = 0 there
        last = n - 1 if closed else n - 2 - two_poles
        i = rng.choice([last, rng.integers(0 if closed else 1, last + 1)])
        rows[:, (i + 1) % n] = rows[:, i]
    elif damage == "extinct":
        rows *= 1e-10 / cv.bbox_diameter(pts)
    elif damage == "near-axis" and not is_curve:
        rows[1, rng.integers(1, n - 1)] = 500.0 * cv.DISTINCT_REL_TOL * cv.bbox_diameter(pts)

    config = f1.FlowConfig()
    state = started(f1._CurveState(start, f1.SpeedLaw(1.0), config) if is_curve
                    else ax._AxiState(start, config))
    state.set_verts(rows)
    f1._alone(iter([[state]]))   # the step's last pass, as advance reads it
    state.measure_area()
    with mock.patch.object(cv, "_segment_sweep", wraps=cv._segment_sweep) as sweep:
        _, got_error = outcome(lambda: state.take(1.0))
        swept = sweep.call_count
        if is_curve:
            want, want_error = outcome(lambda: cv.PlaneCurve(rows.T))
            embedded = want_error is None and cv.is_embedded(want)
        else:
            want, want_error = outcome(lambda: ax.AxiProfile(rows.T, start.topology, start.period))
        assert got_error == want_error
        assert sweep.call_count == 2 * swept
    if want_error is not None:
        return
    snap = state.traj.snapshots[-1]
    if is_curve:
        assert same_bits(snap.geometry.vertices, want.vertices)
        assert snap.geometry.counterclockwise == want.counterclockwise
        assert snap.metrics == cv.metrics(want)
        lost = any(e.kind == f1.EVENT_EMBEDDEDNESS_LOSS for e in state.events)
        assert lost == (not embedded)
        assert lost == (kind in ("folded", "fold-back"))
    else:
        assert same_bits(snap.geometry.samples, want.samples)
        assert (snap.geometry.topology, snap.geometry.period) == (want.topology, want.period)
        assert snap.metrics == ax.axi_metrics(want)


def rotate(points, angle):
    c, s = math.cos(angle), math.sin(angle)
    return points @ np.array([[c, s], [-s, c]])


@pytest.mark.parametrize("case", ["curve-peanut", "meridian-sphere", "meridian-torus",
                                  "meridian-dumbbell", "meridian-cylinder", "front"])
def test_bound_pass_matches_a_fresh_pass(case):
    """Right after every stacked stencil call (the pass that starts the state,
    every RKL2 stage and every resample), the state's share holds the
    curvature, left normal and edge lengths that a fresh one-shot pass gives on
    its current points (on a meridian, the plain-expression reference), bit for
    bit, so no view outlives a bank that a resample dropped.  A meridian's h
    matches the reference where ``velocity`` computes it, and its velocity is
    the pole clamp read literally."""
    config = f1.FlowConfig(max_steps=3000, resample_every=2)
    if case == "curve-peanut":
        state = f1._CurveState(cv.peanut_polygon(1.0, 0.3, 128), f1.SpeedLaw(1.0), config)

        def fresh():
            return cv._Stencil(cv._closed_chain(state.verts.T))()
    elif case == "front":
        state = oc._FrontState(oc.grim_reaper(81, 1.0), 0.1, config)

        def fresh():
            return cv._Stencil(state.verts.copy())()
    else:
        profile = {"sphere": ax.sphere_profile(0.5, 64),
                   "torus": ax.torus_profile(1.0, 0.25, 64),
                   "dumbbell": ax.dumbbell_profile(1.0, 0.3, 1.0, 256),
                   "cylinder": perturbed_cylinder(n=128)}[case.split("-")[1]]
        state = ax._AxiState(profile, config)

        def fresh():
            if state.two_poles:
                assert state.verts[1, 0] == 0.0 and state.verts[1, -1] == 0.0
            chain = reference_meridian_chain(state.verts.T, state.topology, state.period)
            k, left, seg = reference_three_point(chain)
            return k, left.T, seg[ax._polyline(state.topology)]

        velocity = state.velocity

        def checked_velocity():
            moved = velocity()
            want = reference_meridian_pass(state.verts.T, state.topology, state.period)[0]
            assert same_bits(state.h, want)
            h = state.h.copy()
            if state.two_poles:
                for i, j in ((0, 1), (-1, -2)):
                    lim = 2.0 * abs(float(h[j]))
                    h[i] = min(max(float(h[i]), -lim), lim)
            assert np.array_equal(moved, h)
            assert np.array_equal(state.vel, state.left * h)
            return moved

        state.velocity = checked_velocity
    inside = slice(1, -1) if case == "front" else slice(None)   # the front's ghosts copy its ends
    sizes = []

    def check():
        held = state.k[inside], state.left[:, inside], state.seg[inside]
        for a, b in zip(held, fresh(), strict=True):
            assert same_bits(a, b)
        sizes.append(state.verts.shape[1])

    [traj] = f1._alone(after_each_pass(f1._evolve([state], config), check))
    assert len(sizes) == traj.stats.evaluations + 1 and traj.stats.resamples > 2
    if case in ("curve-peanut", "meridian-sphere", "meridian-torus"):
        assert len(set(sizes)) > 2   # resamples changed the point count


def brute_plateau_waist(r):
    """The docstring of ax._plateau_waist, read literally with Python loops."""
    runs = []   # [value, first index, last index]
    for i, v in enumerate(r):
        if runs and runs[-1][0] == v:
            runs[-1][2] = i
        else:
            runs.append([v, i, i])
    best = None
    for k in range(1, len(runs) - 1):
        v = runs[k][0]
        if v < runs[k - 1][0] and v < runs[k + 1][0] and (best is None or v < runs[best][0]):
            best = k
    return None if best is None else (runs[best][1] + runs[best][2]) // 2


@st.composite
def arrays_with_runs(draw):
    runs = draw(st.lists(st.tuples(st.integers(0, 5), st.integers(1, 4)), max_size=12))
    return np.array([float(v) for v, length in runs for _ in range(length)])


class TestPlateauWaist:
    @given(arrays_with_runs())
    @example(np.array([1.0, 1.0, 2.0, 3.0]))               # plateau at the start
    @example(np.array([3.0, 2.0, 1.0, 1.0]))               # plateau at the end
    @example(np.array([3.0, 2.0, 1.0, 1.0, 1.0, 1.0, 2.0]))   # flat tube
    @example(np.array([3.0, 1.0, 3.0, 1.0, 3.0]))          # equal minima
    def test_matches_the_brute_force_reading(self, r):
        assert ax._plateau_waist(r) == brute_plateau_waist(r.tolist())

    def test_named_cases(self):
        assert ax._plateau_waist(np.array([1.0, 1.0, 2.0, 3.0])) is None
        assert ax._plateau_waist(np.array([3.0, 2.0, 1.0, 1.0])) is None
        assert ax._plateau_waist(np.array([3.0, 2.0, 1.0, 1.0, 1.0, 1.0, 2.0])) == 3
        assert ax._plateau_waist(np.array([3.0, 1.0, 3.0, 1.0, 3.0])) == 1
