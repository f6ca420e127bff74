"""Axisymmetric surface evolution: profiles, curvature, events, neck fits."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import curveflow.axisym as ax
import curveflow.curves as cv
import curveflow.flow1d as f1
import curveflow.oracle as oc
import curveflow.rescale as rs
from curveflow.errors import DegenerateGeometryError, InvalidInputError, NoNeckError


def perturbed_cylinder(r0=0.2, period=2.0, n=192, amp=0.3):
    prof = ax.cylinder_profile(r0, period, n)
    samples = prof.samples.copy()
    samples[:, 1] = r0 * (1.0 - amp * np.cos(2 * np.pi * samples[:, 0] / period))
    return ax.AxiProfile(samples, prof.topology, prof.period)


def meridian_pass(profile):
    """The geometry pass on a fresh chain of the profile's samples."""
    return ax._meridian_pass(cv._closed_chain(profile.samples), profile.topology, profile.period)


def mean_curvature(profile):
    """Scalar mean curvature and inward meridian normal per sample, poles included:
    the pass's h and left normal, turned the way axi_metrics turns its h range."""
    h, left, _ = meridian_pass(profile)
    sign = 1.0 if ax.axi_metrics(profile).max_mean_curvature == h.max() else -1.0
    return sign * h, sign * left.T


@pytest.fixture(scope="module")
def small_sphere_traj():
    return ax.run_axi(ax.sphere_profile(0.5, 200), f1.FlowConfig(cfl_factor=0.5))


@pytest.fixture(scope="module")
def neck_traj():
    return ax.run_axi(perturbed_cylinder(), f1.FlowConfig(cfl_factor=0.4))


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
        with pytest.raises(InvalidInputError):
            ax.AxiProfile(np.column_stack([np.linspace(0, 1, 32),
                                           -np.ones(32)]), ax.TOPOLOGY_CYLINDER, 1.0)

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
        traj = ax.run_axi(ax.cylinder_profile(0.3, 1.0, 64), f1.FlowConfig(cfl_factor=0.4))
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


@pytest.fixture(scope="module")
def dumbbell_traj():
    return ax.run_axi(ax.dumbbell_profile(1.0, 0.15, 1.2, 1400),
                      f1.FlowConfig(cfl_factor=0.4))


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
        traj = ax.run_axi(ax.torus_profile(0.6, 0.08, 256), f1.FlowConfig(cfl_factor=0.4))
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
        f1._evolve([state], config)
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
            assert np.array_equal(state.h, h)
            assert np.array_equal(state.left, left)
            assert np.array_equal(state.seg, seg)
            (px, pr), (qx, qr) = state.chain[:, :-1], state.chain[:, 1:]   # ghost edges included
            ends = slice(1, -1) if profile.topology == ax.TOPOLOGY_TWO_POLES else slice(1, None)
            slant = np.hypot(qx - px, qr - pr)[ends]
            assert np.array_equal(state.seg, slant)
            assert state.area == float((np.pi * (pr[ends] + qr[ends]) * slant).sum())
            assert state.area == area
            return plan(t)

        state.plan = checked_plan
        [traj] = f1._evolve([state], config)
        stats = traj.stats
        assert stats.event != f1.EVENT_STEP_BUDGET
        assert chains   # the spy ran
        if profile.topology == ax.TOPOLOGY_PERIODIC:
            assert len(chains) > 1


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

    def test_plan_clamps_the_pole_on_a_copy(self):
        # Sample 1 pulled back past the pole: |h| at the pole is over twice |h_1|,
        # so the clamp binds; a blow-up snapshot taken in plan reads the stored h.
        s = ax.sphere_profile(0.5, 64).samples.copy()
        dx, dr = s[1] - s[0]
        s[1] = s[0] + (-2.0 * dx, 0.6 * dr)
        state = ax._AxiState(ax.AxiProfile(s), f1.FlowConfig())
        h = state.h.copy()
        assert abs(h[0]) > 2.0 * abs(h[1])
        assert np.isfinite(state.plan(0.0)[0])
        assert np.array_equal(state.h, h)
        assert np.array_equal(state.vel[:, 0], 2.0 * abs(h[1]) * np.sign(h[0]) * meridian_pass(
            ax.AxiProfile(s))[1][:, 0])

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
    """Every driver runs its bound stencil pass once per state and velocity
    evaluation, plus once at the start: K x (evaluations + 1) calls for K states
    on one clock, snapshots included."""
    calls = []
    kernel = cv._Stencil.__call__

    def counted(stencil):
        calls.append(len(stencil.k))
        return kernel(stencil)

    monkeypatch.setattr(cv._Stencil, "__call__", counted)
    if case == "curve-peanut":
        k, stats = 1, f1.run(cv.peanut_polygon(1.0, 0.3, 128), f1.SpeedLaw(1.0)).stats
    elif case == "curve-pair":
        pair = [cv.circle_polygon(1.5, 64), cv.ellipse_polygon(0.8, 0.4, 64)]
        k, stats = 2, f1.co_evolve(pair, f1.SpeedLaw(1.0))[0].stats
    elif case == "front":
        k, stats = 1, oc.evolve_translating_front(oc.grim_reaper(81, 1.0), 0.1).stats
    else:
        profile = {"sphere": ax.sphere_profile(0.5, 64),
                   "torus": ax.torus_profile(1.0, 0.25, 64),
                   "dumbbell": ax.dumbbell_profile(1.0, 0.3, 1.0, 256),
                   "cylinder": perturbed_cylinder(n=128)}[case.split("-")[1]]
        k, stats = 1, ax.run_axi(profile).stats
    assert stats.evaluations > 100 and (stats.snapshots > 2 or case == "front")
    assert len(calls) == k * (stats.evaluations + 1)


@pytest.mark.parametrize("case", ["curve-peanut", "meridian-sphere", "meridian-torus",
                                  "meridian-dumbbell", "meridian-cylinder", "front"])
def test_bound_pass_matches_a_fresh_pass(case):
    """After every RKL2 stage and every resample, the state's bound pass holds
    what a fresh one-shot pass gives on its current chain, bit for bit, so no
    view outlives a bank that a resample dropped; a meridian's velocity is the
    pole clamp read literally."""
    config = f1.FlowConfig(max_steps=3000, resample_every=2)
    if case == "curve-peanut":
        state = f1._CurveState(cv.peanut_polygon(1.0, 0.3, 128), f1.SpeedLaw(1.0), config)

        def fresh():
            return cv._three_point(cv._closed_chain(state.verts.T))
    elif case == "front":
        state = oc._FrontState(oc.grim_reaper(81, 1.0), 0.1, config)

        def fresh():
            return cv._three_point(state.verts.copy())
    else:
        profile = {"sphere": ax.sphere_profile(0.5, 64),
                   "torus": ax.torus_profile(1.0, 0.25, 64),
                   "dumbbell": ax.dumbbell_profile(1.0, 0.3, 1.0, 256),
                   "cylinder": perturbed_cylinder(n=128)}[case.split("-")[1]]
        state = ax._AxiState(profile, config)

        def fresh():
            if state.two_poles:
                assert state.verts[1, 0] == 0.0 and state.verts[1, -1] == 0.0
            return ax._meridian_pass(state.chain.copy(), state.topology, state.period)

        velocity = state.velocity

        def checked_velocity():
            h = state.h.copy()
            if state.two_poles:
                for i, j in ((0, 1), (-1, -2)):
                    lim = 2.0 * abs(float(h[j]))
                    h[i] = min(max(float(h[i]), -lim), lim)
            moved = velocity()
            assert np.array_equal(moved, h)
            assert np.array_equal(state.vel, state.left * h)
            return moved

        state.velocity = checked_velocity
    measure = state.measure
    sizes = []

    def checked_measure():
        measure()
        held = (state.h if hasattr(state, "h") else state.k, state.left, state.seg)
        for a, b in zip(held, fresh()):
            assert np.array_equal(a, b)
        sizes.append(state.verts.shape[1])

    state.measure = checked_measure
    [traj] = f1._evolve([state], config)
    assert len(sizes) == traj.stats.evaluations and traj.stats.resamples > 2
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


class TestProfileIO:
    def test_round_trip(self, tmp_path):
        prof = ax.dumbbell_profile(1.0, 0.2, 1.0, 200)
        path = tmp_path / "profile.axi"
        ax.write_profile(prof, path)
        back = ax.read_profile(path)
        assert back.topology == prof.topology
        assert np.array_equal(back.samples, prof.samples)

    def test_periodic_round_trip_keeps_period(self, tmp_path):
        prof = ax.cylinder_profile(0.3, 1.7, 64)
        path = tmp_path / "profile.axi"
        ax.write_profile(prof, path)
        assert ax.read_profile(path).period == prof.period

    def test_parse_requires_topology_header(self):
        with pytest.raises(InvalidInputError, match="topology"):
            ax.parse_profile("0 0\n1 1\n")

    def test_parse_rejects_open_topology(self):
        with pytest.raises(InvalidInputError, match="topology"):
            ax.parse_profile("# topology=open\n" + "".join(
                f"{x} 1\n" for x in range(20)))

    def test_parse_error_reports_line_number(self):
        text = "# topology=cylinder period=1.0\n0 1\nbad 1\n"
        with pytest.raises(InvalidInputError, match="line 3"):
            ax.parse_profile(text)

    def test_parse_skips_comment_and_blank_lines_in_the_body(self):
        prof = ax.cylinder_profile(0.3, 1.7, 64)
        head, body = ax.format_profile(prof).split("\n", 1)
        back = ax.parse_profile(head + "\n# a note\n\n" + body)
        assert np.array_equal(back.samples, prof.samples)
        assert (back.topology, back.period) == (prof.topology, prof.period)
        with pytest.raises(InvalidInputError, match="line 4"):
            ax.parse_profile("# topology=cylinder period=1.0\n# a note\n0 1\nbad 1\n")
