"""Geometry primitives: factories, metrics, embeddedness, resampling, file IO."""

import math
import tracemalloc
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
from curveflow.errors import DegenerateGeometryError, InvalidInputError


def rotate(points, angle):
    c, s = math.cos(angle), math.sin(angle)
    return points @ np.array([[c, s], [-s, c]])


def spline_resample_to(vertices, n):
    """``cv.spline_resample_array`` asked for n points on the closed (n, 2) polygon."""
    _, s = cv._arclength(vertices.T, closed=True)
    closed = np.concatenate([vertices, vertices[:1]]).T
    return cv.spline_resample_array(closed, s[-1] / n).T


class TestFactories:
    def test_circle_vertices_on_circle(self):
        curve = cv.circle_polygon(2.0, 64, center=(1.0, -1.0))
        radii = np.hypot(curve.vertices[:, 0] - 1.0, curve.vertices[:, 1] + 1.0)
        assert np.allclose(radii, 2.0, atol=1e-12)
        assert curve.counterclockwise

    def test_circle_metrics_match_closed_form(self):
        m = cv.metrics(cv.circle_polygon(1.0, 512))
        assert abs(m.length - 2 * math.pi) < 2e-4
        assert abs(m.enclosed_area - math.pi) < 2e-4
        assert abs(m.isoperimetric_ratio - 1.0) < 1e-4
        assert m.convex
        assert abs(m.min_curvature - 1.0) < 1e-3
        assert abs(m.max_curvature - 1.0) < 1e-3

    def test_ellipse_area_and_convexity(self):
        m = cv.metrics(cv.ellipse_polygon(2.0, 1.0, 512))
        assert abs(m.enclosed_area - 2 * math.pi) < 1e-3
        assert m.convex
        # curvature extremes of an ellipse: b/a^2 and a/b^2
        assert abs(m.min_curvature - 0.25) < 1e-3
        assert abs(m.max_curvature - 2.0) < 5e-3

    def test_rectangle_exact_perimeter_and_area(self):
        m = cv.metrics(cv.rectangle_polygon(3.0, 2.0, 80))
        assert abs(m.length - 10.0) < 1e-12
        assert abs(m.enclosed_area - 6.0) < 1e-12
        assert m.convex

    def test_peanut_is_nonconvex(self):
        m = cv.metrics(cv.peanut_polygon(1.0, 0.3, 256))
        assert not m.convex
        assert m.min_curvature < -0.5
        assert m.max_curvature > 0.0

    def test_spiral_embedded_and_not_convex(self):
        curve = cv.spiral_polygon(1.0, 2.0, 1.5, n=640)
        assert cv.is_embedded(curve)
        assert not cv.metrics(curve).convex

    def test_factory_rejects_bad_dimensions(self):
        with pytest.raises(InvalidInputError):
            cv.circle_polygon(-1.0)
        with pytest.raises(InvalidInputError):
            cv.ellipse_polygon(2.0, 0.0)
        with pytest.raises(InvalidInputError):
            cv.spiral_polygon(2.0, 1.0, 1.5)

    # Every factory that takes a point count n, its smallest n and the message
    # for one below it.
    FACTORIES = {
        "circle": (lambda n: cv.circle_polygon(1.0, n), 8, "n must be at least 8, got 7"),
        "ellipse": (lambda n: cv.ellipse_polygon(2.0, 1.0, n), 8, "n must be at least 8, got 7"),
        "rectangle": (lambda n: cv.rectangle_polygon(2.0, 1.0, n), 8, "n must be at least 8, got 7"),
        "peanut": (lambda n: cv.peanut_polygon(1.0, 0.3, n), 8, "n must be at least 8, got 7"),
        "spiral": (lambda n: cv.spiral_polygon(n=n), 8, "n must be at least 8, got 7"),
        "sphere": (lambda n: ax.sphere_profile(1.0, n), 16, "need at least 16 samples"),
        "torus": (lambda n: ax.torus_profile(1.0, 0.1, n), 16, "need at least 16 samples"),
        "cylinder": (lambda n: ax.cylinder_profile(0.5, 1.0, n), 16, "need at least 16 samples"),
        "dumbbell": (lambda n: ax.dumbbell_profile(1.0, 0.15, 1.2, n), 128,
                     "need at least 128 samples"),
        "grim_reaper": (lambda n: oc.grim_reaper(n), 16, "n must be at least 16"),
    }

    @pytest.mark.parametrize("name", FACTORIES)
    @pytest.mark.parametrize("n", [200.5, 200.0, np.float64(200.0), "200"])
    def test_non_integer_point_count_is_named(self, name, n):
        # A fractional n used to give a short closing edge, not an error.
        with pytest.raises(InvalidInputError, match="n must be an integer"):
            self.FACTORIES[name][0](n)

    @pytest.mark.parametrize("name", FACTORIES)
    @pytest.mark.parametrize("kind", [int, np.int32, np.int64])
    def test_integer_point_counts_pass_and_the_minimum_holds(self, name, kind):
        build, minimum, message = self.FACTORIES[name]
        assert len(build(kind(201))) == 201   # odd: the dumbbell adds a point to an even n
        with pytest.raises(InvalidInputError, match=message) as caught:
            build(kind(minimum - 1))
        assert caught.type is InvalidInputError   # not its DegenerateGeometryError subclass


class TestValidation:
    def test_too_few_vertices(self):
        with pytest.raises(DegenerateGeometryError):
            cv.PlaneCurve(np.zeros((4, 2)))

    def test_nonfinite_vertices(self):
        pts = cv.circle_polygon(1.0, 16).vertices.copy()
        pts[3, 1] = np.nan
        with pytest.raises(InvalidInputError):
            cv.PlaneCurve(pts)

    def test_coincident_vertices(self):
        pts = cv.circle_polygon(1.0, 16).vertices.copy()
        pts[5] = pts[4]
        with pytest.raises(DegenerateGeometryError):
            cv.PlaneCurve(pts)

    def test_span_past_the_overflow_bound_is_named(self):
        # Past MAX_DIAMETER the product of three lengths in the curvature could
        # overflow, which would end a run in a RuntimeWarning.
        with pytest.raises(InvalidInputError, match="span"):
            cv.circle_polygon(1e155, 64)
        with pytest.raises(InvalidInputError, match="span"):
            ax.sphere_profile(1e155, 64)
        with pytest.raises(InvalidInputError, match="span"):
            oc.evolve_translating_front(1e155 * oc.grim_reaper(41, 1.0), 0.1)
        # Just inside it, each flow steps without a warning.
        config = f1.FlowConfig(max_steps=3)
        assert f1.run(cv.circle_polygon(3.5e99, 64), f1.SpeedLaw(1.0), config).stats.steps == 3
        assert ax.run_axi(ax.sphere_profile(4e99, 64), config).stats.steps == 3

    @pytest.mark.parametrize("seed", range(20))
    def test_memory_layout_does_not_change_the_bits(self, seed):
        pts = _star(seed, 200)
        layouts = [pts, np.asfortranarray(pts), np.ascontiguousarray(pts.T).T]   # C, F, a .T view
        curves = [cv.PlaneCurve(a) for a in layouts]
        assert all(c.vertices.flags.c_contiguous for c in curves)
        got = [(cv.metrics(c), cv.curve_centroid(c), cv.is_embedded(c)) for c in curves]
        assert got[1] == got[0] and got[2] == got[0]


class TestMetricsProperties:
    def test_isoperimetric_ratio_at_least_one(self, rng):
        for _ in range(5):
            amps = 0.08 * rng.standard_normal(4)
            phases = rng.uniform(0, 2 * math.pi, 4)
            theta = np.linspace(0, 2 * math.pi, 200, endpoint=False)
            r = 1.0 + sum(a * np.cos((k + 2) * theta + p)
                          for k, (a, p) in enumerate(zip(amps, phases)))
            pts = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
            m = cv.metrics(cv.PlaneCurve(pts))
            assert m.isoperimetric_ratio >= 1.0 - 1e-9

    def test_rigid_motion_invariance(self, rng):
        base = cv.peanut_polygon(1.0, 0.3, 200)
        moved = cv.PlaneCurve(rotate(base.vertices, 0.7) + np.array([3.0, -2.0]))
        a, b = cv.metrics(base), cv.metrics(moved)
        assert abs(a.length - b.length) < 1e-9
        assert abs(a.enclosed_area - b.enclosed_area) < 1e-9
        assert abs(a.min_curvature - b.min_curvature) < 1e-8
        assert abs(a.max_curvature - b.max_curvature) < 1e-8
        assert a.convex == b.convex

    def test_orientation_flips_signed_area(self):
        curve = cv.circle_polygon(1.0, 64)
        area = cv.polygon_area(curve.vertices)
        assert area > 0
        assert abs(cv.polygon_area(curve.vertices[::-1]) + area) < 1e-14

    def test_centroid_of_symmetric_curve(self):
        cx, cy = cv.curve_centroid(cv.ellipse_polygon(2.0, 1.0, 128, center=(0.5, 0.25)))
        assert abs(cx - 0.5) < 1e-9
        assert abs(cy - 0.25) < 1e-9

    def test_curvature_profile_of_circle(self):
        kappa, normals = cv.curvature_profile(cv.circle_polygon(2.0, 256))
        assert normals.shape == (256, 2)
        assert np.max(np.abs(kappa - 0.5)) < 1e-3
        # inward normals of a circle point at the center
        assert np.allclose(np.linalg.norm(normals, axis=1), 1.0, atol=1e-12)


def _closed_circle(radius):
    """curves.curvature_profile: positive toward the enclosed region, inward normal."""
    def fields(pts):
        return cv.curvature_profile(cv.PlaneCurve(pts))
    t = np.linspace(0.0, 2 * math.pi, 128, endpoint=False)
    return np.column_stack([radius * np.cos(t), radius * np.sin(t)]), fields, 1.0


def _sphere_meridian(radius):
    """axisym's pass on ghost-extended poles, turned inward: positive where convex,
    inward normal.  On a sphere both principal curvatures agree, so h / 2 is the
    meridian curvature; a meridian run with x increasing has the solid on its right."""
    def fields(pts):
        h, left, _ = ax._meridian_pass(cv._closed_chain(pts), ax.TOPOLOGY_TWO_POLES, None)
        sign = -1.0 if pts[-1, 0] >= pts[0, 0] else 1.0
        return sign * h / 2.0, sign * left.T
    return ax.sphere_profile(radius, 101).samples, fields, 1.0


def _open_arc(radius):
    """The bare kernel on interior points: positive for a left turn, left normal."""
    def fields(pts):
        k, left, _ = cv._Stencil(pts.T)()
        return k, left.T
    t = np.linspace(0.25, 2.0, 60)
    return np.column_stack([radius * np.cos(t), radius * np.sin(t)]), fields, -1.0


def reference_three_point(chain):
    """The stencil kernel on an (m + 2, 2) point chain, one row per point: the
    bit-for-bit reference for a ``cv._Stencil`` pass on its (2, m + 2) rows."""
    e = chain[1:] - chain[:-1]
    seg = np.sqrt(e[:, 0] * e[:, 0] + e[:, 1] * e[:, 1])
    chord = chain[2:] - chain[:-2]
    c = np.sqrt(chord[:, 0] * chord[:, 0] + chord[:, 1] * chord[:, 1])
    cross = e[:-1, 0] * e[1:, 1] - e[:-1, 1] * e[1:, 0]
    k = 2.0 * cross / np.maximum(seg[:-1] * seg[1:] * c, 1e-300)
    left = chord[:, ::-1] * (1.0 / np.maximum(c, 1e-300))[:, None]
    left[:, 0] = -left[:, 0]
    return k, left, seg


class TestThreePointKernel:
    @pytest.mark.parametrize("form", [_closed_circle, _sphere_meridian, _open_arc],
                             ids=["closed-circle", "sphere-meridian", "open-arc"])
    def test_chain_forms(self, form):
        radius = 2.0
        pts, fields, reversed_sign = form(radius)
        for chain, sign in ((pts, 1.0), (pts[::-1].copy(), reversed_sign)):
            k, normal = fields(chain)
            inner = chain if len(k) == len(chain) else chain[1:-1]
            assert np.max(np.abs(np.abs(k) - 1.0 / radius)) < 1e-3
            assert np.all(np.sign(k) == sign)
            # the curvature vector k * normal points at the center either way
            toward_center = -inner / radius
            assert np.max(np.abs(sign * normal - toward_center)) < 1e-3
            folded = chain.copy()
            folded[5] = folded[3]
            k, normal = fields(folded)
            i = 4 if len(k) == len(chain) else 3
            assert k[i] == 0.0
            assert np.all(np.isfinite(k)) and np.all(np.isfinite(normal))


    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 300),
           folds=st.integers(0, 5), repeats=st.integers(0, 5))
    def test_matches_the_reference_bit_for_bit(self, seed, m, folds, repeats):
        rng = np.random.default_rng(seed)
        chain = rng.normal(scale=rng.uniform(1e-3, 1e3), size=(m + 2, 2))
        for i in rng.integers(1, m + 1, folds):    # fold-back: the neighbours coincide
            chain[i + 1] = chain[i - 1]
        for i in rng.integers(0, m + 1, repeats):  # zero edge, and zero chords beside it
            chain[i + 1] = chain[i]
        want = reference_three_point(chain)
        for rows in (np.ascontiguousarray(chain.T), chain.T):
            got = cv._Stencil(rows)()
            assert got[1].shape == (2, m)
            for a, b in zip(got, want):
                assert np.array_equal(a, b.T)
            assert np.all(np.isfinite(got[0])) and np.all(np.isfinite(got[1]))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 300), repeats=st.integers(0, 3))
    def test_edge_lengths_equal_the_validators_bit_for_bit(self, seed, n, repeats):
        """A pass's edge lengths are the distances ``_checked_points`` checks, on a
        closed polygon (the pass's first edge repeats its last) and an open chain."""
        rng = np.random.default_rng(seed)
        v = rng.normal(scale=rng.uniform(1e-3, 1e3), size=(n, 2))
        for i in rng.integers(0, n - 1, repeats):
            v[i + 1] = v[i]
        closed = cv._Stencil(cv._closed_chain(v))()[2]
        assert np.array_equal(closed[1:], cv._edge_lengths(v.T, closed=True)[1])
        assert closed[0] == closed[-1]
        assert np.array_equal(cv._Stencil(v.T)()[2], cv._edge_lengths(v.T, closed=False)[1])

def _star(seed, n, center=(0.0, 0.0), scale=1.0):
    """Star-shaped polygon with random radii and non-uniform angular spacing."""
    rng = np.random.default_rng(seed)
    gaps = rng.uniform(0.2, 1.0, n)
    theta = rng.uniform(0, 2 * math.pi) + 2 * math.pi * np.cumsum(gaps) / gaps.sum()
    r = scale * rng.uniform(0.8, 1.2, n)
    return np.column_stack([center[0] + r * np.cos(theta), center[1] + r * np.sin(theta)])


def _brute_min_distance(c1, c2):
    """All-pairs reference: 0 if two edges properly cross, else the smallest
    vertex-to-edge distance, each measured against every edge."""
    v1, v2 = c1.vertices, c2.vertices
    a1, b1 = v1, np.roll(v1, -1, axis=0)
    a2, b2 = v2, np.roll(v2, -1, axis=0)

    def orient(p, q, r):
        return ((q[..., 0] - p[..., 0]) * (r[..., 1] - p[..., 1])
                - (q[..., 1] - p[..., 1]) * (r[..., 0] - p[..., 0]))

    p, q = a1[:, None], b1[:, None]
    r, s = a2[None], b2[None]
    if np.any((orient(p, q, r) * orient(p, q, s) < 0) & (orient(r, s, p) * orient(r, s, q) < 0)):
        return 0.0

    def nearest(points, seg_a, seg_b):
        d = seg_b - seg_a
        len2 = np.maximum(np.sum(d * d, axis=1), 1e-300)
        pp = points[:, None, :]
        t = np.clip(np.sum((pp - seg_a[None]) * d[None], axis=-1) / len2[None], 0.0, 1.0)
        return np.linalg.norm(pp - (seg_a[None] + t[..., None] * d[None]), axis=-1).min()

    return float(min(nearest(v1, a2, b2), nearest(v2, a1, b1)))


def _uneven_knots(rng, knots):
    """Increasing knots from a random origin, spacings up to 200:1."""
    return rng.uniform(-1.0, 1.0) + np.concatenate(
        [[0.0], np.cumsum(rng.uniform(0.01, 2.0, knots - 1))])


def _smooth_angles(n):
    """n increasing angles in [0, 2 pi) from 0, unevenly but smoothly spaced."""
    u = np.arange(n) / n
    return 2 * math.pi * (u + 0.1 * np.sin(2 * math.pi * u))


def reference_local_cubic(s, yt, targets, periodic):
    """The local cubic one target at a time, in Lagrange form on the stencil
    picked by a linear scan: the reference for ``cv._interpolate_rows``."""
    m, total = len(s) - 1, s[-1] - s[0]
    out = np.empty((yt.shape[0], len(targets)))
    for k, t in enumerate(targets):
        i = min(max(j for j in range(m + 1) if s[j] <= t), m - 1)
        if periodic:
            # knots i - 1 .. i + 2 taken round the period
            js = range(i - 1, i + 3)
            xs = [s[j % m] + total * (j // m) for j in js]
            ys = [yt[:, j % m] for j in js]
        else:
            start = min(max(i - 1, 0), m - 3)
            xs = list(s[start:start + 4])
            ys = [yt[:, j] for j in range(start, start + 4)]
        out[:, k] = sum(y * math.prod((t - xb) / (xa - xb) for xb in xs if xb != xa)
                        for xa, y in zip(xs, ys))
    return out


class TestLocalCubic:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), knots=st.integers(4, 120), columns=st.integers(1, 3))
    def test_exact_on_cubics_with_uneven_open_knots(self, seed, knots, columns):
        rng = np.random.default_rng(seed)
        s = _uneven_knots(rng, knots)
        # A cubic in the scaled coordinate u in [-1, 1], so its values are O(1).
        coef = rng.normal(size=(columns, 4))
        mid, half = (s[0] + s[-1]) / 2, (s[-1] - s[0]) / 2
        cubic = lambda t: np.stack([np.polyval(c, (t - mid) / half) for c in coef])
        # the first and last intervals take the stencils shifted inward
        targets = np.sort(np.concatenate([rng.uniform(s[0], s[-1], 200),
                                          rng.uniform(s[0], s[1], 20),
                                          rng.uniform(s[-2], s[-1], 20), [s[-1]]]))
        got = cv._interpolate_rows(s, cubic(s), targets, periodic=False)
        assert got.shape == (columns, len(targets))
        assert np.max(np.abs(got - cubic(targets))) <= 1e-12 * np.abs(coef).sum()

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), knots=st.integers(4, 120), columns=st.integers(1, 3),
           periodic=st.booleans())
    def test_returns_the_knot_values_at_the_knots(self, seed, knots, columns, periodic):
        rng = np.random.default_rng(seed)
        s = _uneven_knots(rng, knots)
        y = rng.normal(scale=3.0, size=(columns, knots))
        if periodic:
            y[:, -1] = y[:, 0]
        got = cv._interpolate_rows(s, y, s, periodic)
        assert np.max(np.abs(got - y)) <= 1e-12 * np.abs(y).max()

    def test_circle_error_converges_at_fourth_order(self):
        def error(n):
            theta = _smooth_angles(n)
            closed = np.stack([np.cos(theta), np.sin(theta)])
            closed = np.concatenate([closed, closed[:, :1]], axis=1)
            out = cv.spline_resample_array(closed, 2 * math.pi / (3 * n))
            return np.max(np.abs(np.hypot(out[0], out[1]) - 1.0))

        errors = [error(n) for n in (32, 64, 128, 256)]
        assert errors[-1] < 1e-7
        for coarse, fine in zip(errors, errors[1:]):
            assert coarse / fine >= 12.0

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(8, 90), index=st.integers(0, 10**6),
           size=st.floats(0.01, 100.0))
    def test_periodic_wrap(self, seed, n, index, size):
        pts = _star(seed, n, scale=size)
        ext, s = cv._arclength(pts.T, closed=True)
        scale = np.abs(pts).max()
        ends = cv._interpolate_rows(s, ext, s[[0, -1]], periodic=True)
        assert np.max(np.abs(ends[:, 0] - ends[:, 1])) <= 1e-12 * scale
        # The blow-up window wraps around the start of the curve; it is the same
        # window when the curve starts at its centre vertex instead.
        index %= n
        rolled = rs._window(np.roll(pts, -index, axis=0), 0, closed=True)
        assert np.max(np.abs(rs._window(pts, index, closed=True) - rolled)) <= 1e-12 * scale

    def test_cylinder_resample_keeps_the_grid_and_is_fourth_order(self):
        def radius(x):
            return 0.5 * (1.0 + 0.3 * np.cos(np.pi * x))

        def error(n):
            period = 2.0
            x = period * _smooth_angles(n) / (2 * math.pi)
            rows = np.stack([x, radius(x)])
            out = ax._axi_resample(rows, ax.TOPOLOGY_CYLINDER, period, period / n)
            grid = np.arange(n) * (period / n)
            assert np.array_equal(out[0], grid)
            return np.max(np.abs(out[1] - radius(grid)))

        errors = [error(n) for n in (32, 64, 128)]
        assert errors[-1] < 1e-6
        for coarse, fine in zip(errors, errors[1:]):
            assert coarse / fine >= 12.0

    @pytest.mark.parametrize("n", [4, 5, 16, 161, 1400])
    @pytest.mark.parametrize("columns", [1, 2])
    def test_matches_the_stencil_reference(self, rng, n, columns):
        s = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 2.0, n - 1))])
        yt = rng.normal(scale=3.0, size=(columns, n))
        targets = np.concatenate([s, rng.uniform(s[0], s[-1], 400)])
        ref = reference_local_cubic(s, yt, targets, periodic=False)
        got = cv._interpolate_rows(s, yt, targets, periodic=False)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-11 * np.abs(yt).max()

    @pytest.mark.parametrize("n", [4, 5, 16, 161, 1400])
    def test_periodic_matches_the_stencil_reference(self, rng, n):
        s = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 2.0, n - 1))])
        yt = rng.normal(scale=3.0, size=(2, n))
        yt[:, -1] = yt[:, 0]
        targets = np.concatenate([s, rng.uniform(s[0], s[-1], 400)])
        ref = reference_local_cubic(s, yt, targets, periodic=True)
        got = cv._interpolate_rows(s, yt, targets, periodic=True)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-11 * np.abs(yt).max()

    @pytest.mark.parametrize("periodic", [False, True])
    def test_fewer_than_four_knots_raise(self, periodic):
        s = np.arange(3.0)
        with pytest.raises(DegenerateGeometryError, match="under 4 knots"):
            cv._interpolate_rows(s, np.ones((2, 3)), s, periodic)

    @pytest.mark.parametrize("periodic", [False, True])
    def test_non_finite_knot_raises(self, periodic):
        s = np.arange(8.0)
        s[4] = np.nan
        with pytest.raises(DegenerateGeometryError, match="non-finite"):
            cv._interpolate_rows(s, np.ones((2, 8)), np.arange(7.0), periodic)


class TestResampleCallers:
    def test_repeated_vertex_raises(self):
        pts = cv.circle_polygon(1.0, 32).vertices.copy()
        pts[7] = pts[6]
        with pytest.raises(DegenerateGeometryError, match="zero-length"):
            spline_resample_to(pts, 32)

    @given(total=st.floats(1e-9, 1e9), n=st.integers(1, 5000))
    def test_open_resample_targets_equal_linspace(self, total, n):
        targets = np.arange(n + 1) * (total / n)
        targets[-1] = total
        assert np.array_equal(targets, np.linspace(0.0, total, n + 1))

    def test_repeated_sample_raises_named_error(self):
        pts = ax.sphere_profile(1.0, 64).samples.copy()
        pts[20] = pts[19]
        with pytest.raises(DegenerateGeometryError, match="zero-length or non-finite"):
            ax._axi_resample(pts.T, ax.TOPOLOGY_TWO_POLES, None, 0.05)

    @pytest.mark.parametrize("bad", ["repeat", "nan"])
    def test_window_on_bad_samples_raises_named_error(self, bad):
        pts = ax.sphere_profile(1.0, 64).samples.copy()
        pts[20] = pts[19] if bad == "repeat" else np.nan
        # AxiProfile rejects such samples, so the raw points reach the window.
        with pytest.raises(DegenerateGeometryError, match="zero-length or non-finite"):
            rs._window(pts, 30, closed=False)


_PAIRS = ("nested", "side-by-side", "near-touching", "crossing")


class TestPrunedMinDistance:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n1=st.integers(8, 120), n2=st.integers(8, 120),
           layout=st.sampled_from(_PAIRS), angle=st.floats(0.0, 2 * math.pi))
    def test_equals_all_pairs_reference(self, seed, n1, n2, layout, angle):
        a = cv.PlaneCurve(_star(seed, n1))
        u = np.array([math.cos(angle), math.sin(angle)])
        if layout == "nested":
            b = cv.PlaneCurve(_star(seed + 1, n2, center=0.1 * u, scale=0.4))
        elif layout == "crossing":
            b = cv.PlaneCurve(_star(seed + 1, n2, center=u))
        else:
            b = cv.PlaneCurve(_star(seed + 1, n2, center=3.0 * u))
            if layout == "near-touching":
                # slide b toward a until the gap is about 1e-6 of the diameter
                target = 1e-6 * cv.bbox_diameter(a.vertices)
                for _ in range(60):
                    excess = _brute_min_distance(a, b) - target
                    if abs(excess) < 0.5 * target:
                        break
                    b = cv.PlaneCurve(b.vertices - excess * u)
        assert cv.min_distance(a, b) == _brute_min_distance(a, b)
        assert cv.min_distance(b, a) == _brute_min_distance(b, a)

    def test_nearest_point_near_far_end_of_long_edge(self):
        # The nearest point of the long top edge of b lies by its end vertex
        # (0, 0); its start vertex (-1, 0) is out of reach, so only the
        # matched vertex's incoming edge finds the minimum 0.001.
        a = cv.PlaneCurve([(-0.01, 0.001), (0.2, 0.5), (0.1, 1.0), (-0.1, 1.0),
                           (-0.3, 0.9), (-0.4, 0.6), (-0.3, 0.3), (-0.15, 0.1)])
        b = cv.PlaneCurve([(-1.0, -1.0), (-1.0, -0.5), (-1.0, 0.0), (0.0, 0.0),
                           (0.0, -0.25), (0.0, -0.5), (0.0, -0.75), (0.0, -1.0)])
        assert abs(cv.min_distance(a, b) - 0.001) < 1e-15
        assert cv.min_distance(a, b) == _brute_min_distance(a, b)

    @staticmethod
    def _block_minima(a, b):
        """Smallest vertex-to-vertex distance within each of min_distance's
        blocks of a's vertices against b."""
        rows = max(1, cv._DISTANCE_BLOCK // len(b))
        d = np.linalg.norm(a.vertices[:, None] - b.vertices[None], axis=-1)
        return np.array([d[lo:lo + rows].min() for lo in range(0, len(a), rows)])

    @pytest.mark.parametrize("tip", [1.0, -1.0])
    def test_blocks_equal_all_pairs_reference(self, tip):
        # A long ellipse (700 vertices, counterclockwise from its +x tip) and a
        # small circle (300) off one tip: four blocks of rows in either order.
        a = cv.ellipse_polygon(3.0, 0.3, n=700)
        b = cv.circle_polygon(0.2, n=300, center=(3.5 * tip, 0.0))
        for x, y in ((a, b), (b, a)):
            minima = self._block_minima(x, y)
            assert len(minima) > 1
            if x is a:
                edge = max(np.max(np.hypot(*(np.roll(c.vertices, -1, axis=0) - c.vertices).T))
                           for c in (a, b))
                if tip > 0:
                    # the minimum in the first block; later blocks have no candidates
                    assert np.argmin(minima) == 0 and np.any(minima[1:] > minima[0] + edge)
                else:
                    # the running minimum first appears in a later block
                    assert np.argmin(minima) > 0
            assert cv.min_distance(x, y) == _brute_min_distance(x, y)

    @pytest.mark.parametrize("n1, n2", [(700, 300), (1000, 100), (2000, 40)])
    def test_multi_block_stars_equal_all_pairs_reference(self, n1, n2):
        # Each order spans several blocks of 2**16 distance entries.
        for seed in range(3):
            a = cv.PlaneCurve(_star(seed, n1))
            for center, scale in (((0.05, 0.1), 0.4), ((3.0, 0.5), 1.0)):
                b = cv.PlaneCurve(_star(seed + 1, n2, center=center, scale=scale))
                assert cv.min_distance(a, b) == _brute_min_distance(a, b)
                assert cv.min_distance(b, a) == _brute_min_distance(b, a)

    def test_crossing_off_every_vertex_is_zero(self):
        # The diamond |x| + |y| = 1.2 crosses the square's sides at (1, 0.2) and
        # its mirror images, between vertices: the nearest vertex-to-edge pair,
        # (1, 0) and x + y = 1.2, is 0.2 / sqrt 2 apart, under half an edge (0.5).
        square = cv.rectangle_polygon(2.0, 2.0, 8)
        t = np.arange(8) * (math.pi / 4)
        diamond = cv.PlaneCurve(1.2 * np.column_stack([np.cos(t), np.sin(t)])
                                / (np.abs(np.cos(t)) + np.abs(np.sin(t)))[:, None])
        vertex_edge = min(cv._point_segment_distances(a.vertices, b.vertices,
                                                      np.roll(b.vertices, -1, axis=0)).min()
                          for a, b in ((square, diamond), (diamond, square)))
        assert vertex_edge == pytest.approx(0.2 / math.sqrt(2.0), rel=1e-12)
        with mock.patch.object(cv, "_curves_cross", wraps=cv._curves_cross) as sweep:
            assert cv.min_distance(square, diamond) == 0.0
            assert cv.min_distance(diamond, square) == 0.0
        assert sweep.call_count == 2
        assert _brute_min_distance(square, diamond) == 0.0

    def test_touching_is_zero(self):
        # b's vertex p lies on a's edge from the origin to (2.186, 1.52) by the
        # orientation test, and b stays on one side of that edge; the
        # vertex-to-edge distance rounds to 2.2e-16, the contact sweep says 0.
        p = 0.7 * np.array([2.186, 1.52])
        a = cv.PlaneCurve([(0.0, 0.0), (2.186, 1.52), (2.5, 1.0), (2.5, 0.0), (2.0, -0.5),
                           (1.0, -0.8), (0.0, -0.8), (-0.5, -0.4)])
        b = cv.PlaneCurve([p, (1.6, 1.5), (1.4, 2.0), (1.0, 2.2), (0.6, 2.0), (0.4, 1.6),
                           (0.5, 1.2), (1.0, 1.1)])
        assert cv._point_segment(p, a.vertices[0], a.vertices[1]) > 0.0
        assert not cv._curves_cross(a, cv.PlaneCurve(b.vertices + (0.0, 1e-9)))
        assert cv.min_distance(a, b) == cv.min_distance(b, a) == 0.0

    def test_pairs_over_half_an_edge_apart_skip_the_crossing_sweep(self):
        # disjoint_nested's pair, at a quarter of its catalog n: every snapshot
        # pair is over half an edge apart, so no crossing sweep runs.
        trajs = f1.co_evolve([cv.circle_polygon(2.0, 128), cv.ellipse_polygon(1.2, 0.6, 128)],
                             f1.SpeedLaw(1.0))
        pairs = [(a.geometry, b.geometry) for a, b in zip(*(t.snapshots for t in trajs))]
        with mock.patch.object(cv, "_curves_cross", wraps=cv._curves_cross) as sweep:
            gaps = [cv.min_distance(a, b) for a, b in pairs]
        assert sweep.call_count == 0 and len(gaps) > 10
        assert gaps == [_brute_min_distance(a, b) for a, b in pairs]

    def test_work_arrays_stay_bounded(self):
        # One full 4000 x 4000 distance matrix alone would take 122 MiB.
        a = cv.circle_polygon(2.0, n=4000)
        b = cv.ellipse_polygon(1.2, 0.6, n=4000)
        tracemalloc.start()
        try:
            d = cv.min_distance(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(d - 0.8) < 1e-6
        assert peak < 8 * 2**20


@pytest.mark.parametrize("lo, hi", [([2.0, 0.0, 4.0], [3.0, 1.0, 5.0]),
                                    ([0.0, 0.5, 2.0, 0.9], [1.0, 0.6, 3.0, 2.5])],
                         ids=["none-overlap", "three-pairs"])
def test_interval_pairs_are_the_overlapping_pairs(lo, hi):
    ii, jj = cv._interval_pairs(np.array(lo), np.array(hi))
    want = {frozenset((i, j)) for i in range(len(lo)) for j in range(i)
            if lo[i] <= hi[j] and lo[j] <= hi[i]}
    assert ii.dtype == jj.dtype == np.int64 and len(ii) == len(jj) == len(want)
    assert {frozenset(p) for p in zip(ii.tolist(), jj.tolist())} == want


class TestEmbeddingAndDistance:
    def test_figure_eight_is_not_embedded(self):
        t = np.linspace(0, 2 * math.pi, 200, endpoint=False)
        pts = np.column_stack([np.sin(2 * t), np.sin(t)])
        assert not cv.is_embedded(cv.PlaneCurve(pts))

    # Simple, but the vertex (0, 0) lies on the line through the edge
    # (0, 1.5)-(0, 0.75), below it, and the two edges' boxes overlap.
    ON_A_FAR_LINE = np.array([(0, 0), (1, 1), (2, 2), (3.5, 2), (5, 2), (5, 4), (3, 3),
                              (1.5, 2.25), (0, 1.5), (0, 0.75)], dtype=float)

    @staticmethod
    def meridian(pts):
        """The polygon with every edge halved, lifted off the axis: a torus meridian."""
        mid = 0.5 * (pts + np.roll(pts, -1, axis=0))
        return np.stack([pts, mid], axis=1).reshape(-1, 2) + [0.0, 1.0]

    def test_vertex_on_the_line_of_a_far_edge_is_embedded(self):
        assert cv.is_embedded(cv.PlaneCurve(self.ON_A_FAR_LINE))
        # a meridian profile goes through the same predicate
        ax.AxiProfile(self.meridian(self.ON_A_FAR_LINE), ax.TOPOLOGY_PERIODIC)

    def test_vertex_on_a_non_adjacent_edge_is_not_embedded(self):
        pts = self.ON_A_FAR_LINE.copy()
        pts[0] = (0.0, 1.0)   # now on the edge (0, 1.5)-(0, 0.75) itself
        assert not cv.is_embedded(cv.PlaneCurve(pts))
        with pytest.raises(InvalidInputError, match="self-intersecting"):
            ax.AxiProfile(self.meridian(pts), ax.TOPOLOGY_PERIODIC)

    def test_min_distance_between_separated_circles(self):
        a = cv.circle_polygon(1.0, 256)
        b = cv.circle_polygon(1.0, 256, center=(3.0, 0.0))
        assert abs(cv.min_distance(a, b) - 1.0) < 1e-3

    def test_min_distance_nested(self):
        outer = cv.circle_polygon(2.0, 256)
        inner = cv.circle_polygon(1.0, 256)
        assert abs(cv.min_distance(outer, inner) - 1.0) < 1e-3

    def test_min_distance_crossing_is_zero(self):
        a = cv.circle_polygon(1.0, 128)
        b = cv.circle_polygon(1.0, 128, center=(1.0, 0.0))
        assert cv.min_distance(a, b) < 1e-6


def swept_and_certified(points, two_poles=False):
    """The segment sweep's verdict on the closed polygon, and whether
    ``_is_simple`` certified it without the sweep; asserts the two agree."""
    v = np.asarray(points, dtype=np.float64)
    diam = cv.bbox_diameter(v)
    swept = cv._segment_sweep(v, cv.DISTINCT_REL_TOL * diam)
    with mock.patch.object(cv, "_segment_sweep", return_value=None):
        certified = cv._is_simple(v, diam, two_poles) is True
    assert cv._is_simple(v, diam, two_poles) == swept
    assert swept or not certified
    if not two_poles and len(v) >= cv.MIN_VERTICES:
        assert cv.is_embedded(cv.PlaneCurve(v)) == swept
    return swept, certified


def convex_polygon(seed, n, aspect, clockwise):
    """n points at sorted random angles on a rotated ellipse."""
    rng = np.random.default_rng(seed)
    t = np.sort(rng.uniform(0.0, 2.0 * math.pi, n))
    pts = rotate(np.column_stack([np.cos(t), aspect * np.sin(t)]), rng.uniform(0.0, math.pi))
    return pts[::-1] if clockwise else pts


def needle(width, n=8):
    """An ellipse of semi-axes 1 and ``width``; its least chord distance is
    (1 - cos(2 pi / n)) width, at the two flat sides."""
    t = np.arange(n) * (2.0 * math.pi / n)
    return np.column_stack([np.cos(t), width * np.sin(t)])


def looped_profile(loop, n=64):
    """A twopoles meridian whose middle is a trochoid, which loops for loop > 1 / (6 pi)."""
    s = np.linspace(0.0, 1.0, n)
    phase = 6.0 * math.pi * s
    mid = np.column_stack([s - loop * np.sin(phase), 1.0 - loop * np.cos(phase)])
    return np.vstack([[(-0.5, 0.0)], mid, [(1.5, 0.0)]])


def sphere_with_sample_at(r, k=20, n=64):
    """The semicircular meridian with its sample k moved to height r."""
    pts = ax.sphere_profile(1.0, n).samples.copy()
    pts[k, 1] = r
    return pts


class TestSimpleCertificate:
    """The O(n) certificates of ``cv._is_simple`` decide only where the
    segment sweep agrees: a certified polygon is always one the sweep passes."""

    TOL = cv.DISTINCT_REL_TOL * math.sqrt(5.0)   # a unit sphere's meridian spans 2 by 1
    GAP = cv._CERTIFIED_GAP

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 120),
           aspect=st.floats(1e-3, 1.0), clockwise=st.booleans())
    def test_random_convex_polygons(self, seed, n, aspect, clockwise):
        swept, _ = swept_and_certified(convex_polygon(seed, n, aspect, clockwise))
        assert swept

    @pytest.mark.parametrize("clockwise", [False, True])
    def test_regular_polygons_are_certified(self, clockwise):
        for n in (3, 8, 64, 960):
            pts = cv.circle_polygon(1.0, max(n, 8)).vertices if n >= 8 else needle(1.0, n)
            assert swept_and_certified(pts[::-1] if clockwise else pts) == (True, True)

    @pytest.mark.parametrize("n", [9, 10, 64])
    def test_doubly_wound_polygon_is_declined(self, n):
        # Every turn has one sign, but the direction goes round twice: the odd
        # count is a star that crosses itself, the even one retraces its edges.
        t = np.arange(n) * (4.0 * math.pi / n)
        assert swept_and_certified(np.column_stack([np.cos(t), np.sin(t)])) == (False, False)

    def test_needle_near_the_certified_gap(self):
        tol = cv.DISTINCT_REL_TOL * 2.0     # the needle's diameter is 2 to roundoff
        chord = 1.0 - math.cos(2.0 * math.pi / 8)
        for factor, certified in ((0.5, False), (0.999, False), (1.001, True), (2.0, True)):
            width = factor * self.GAP * tol / chord
            assert swept_and_certified(needle(width)) == (True, certified)
        # A needle thinner than the sweep's touching distance is not embedded,
        # and the certificate leaves it to the sweep.
        assert swept_and_certified(needle(0.25 * tol)) == (False, False)

    def test_rectangle_with_collinear_runs_is_declined(self):
        pts = cv.rectangle_polygon(2.0, 1.0, 64).vertices
        assert swept_and_certified(pts) == (True, False)
        assert swept_and_certified(pts[::-1]) == (True, False)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(16, 200), fold=st.floats(0.0, 0.3))
    @example(seed=0, n=64, fold=0.0)
    @example(seed=1, n=64, fold=0.3)
    def test_two_pole_profiles(self, seed, n, fold):
        """Random graphs over the axis, pushed back in x by ``fold`` at random samples."""
        rng = np.random.default_rng(seed)
        x = np.cumsum(rng.uniform(0.05, 1.0, n) * np.where(rng.random(n) < fold, -1.0, 1.0))
        r = np.concatenate([[0.0], rng.uniform(0.05, 1.0, n - 2), [0.0]])
        swept, certified = swept_and_certified(np.column_stack([x, r]), two_poles=True)
        if fold == 0.0:
            assert swept and certified

    @pytest.mark.parametrize("loop, expected", [(0.02, (True, True)), (0.1, (False, False)),
                                                (0.3, (False, False))])
    def test_profile_that_loops(self, loop, expected):
        assert swept_and_certified(looped_profile(loop), two_poles=True) == expected

    @pytest.mark.parametrize("fold", [0.1, 0.3, 1.0])
    def test_simple_profile_that_folds_back(self, fold):
        t = np.linspace(0.0, math.pi, 64)
        pts = np.column_stack([-np.cos(t) + fold * np.sin(3.0 * t), np.sin(t)])
        pts[[0, -1], 1] = 0.0
        assert swept_and_certified(pts, two_poles=True) == (True, False)

    @pytest.mark.parametrize("height, expected", [(0.4, (False, False)), (500.0, (True, False)),
                                                  (2000.0, (True, True))])
    def test_interior_sample_near_the_axis(self, height, expected):
        pts = sphere_with_sample_at(height * self.TOL)
        assert swept_and_certified(pts, two_poles=True) == expected
        if expected[0]:
            ax.AxiProfile(pts)
        else:
            with pytest.raises(InvalidInputError, match="self-intersecting"):
                ax.AxiProfile(pts)

    def test_two_pole_samples_whose_poles_coincide(self):
        # A loop through the axis at (0, 0), sampled from there back to there.
        t = np.linspace(0.0, 2.0 * math.pi, 64)
        pts = np.column_stack([np.sin(t), 1.0 - np.cos(t)])
        with pytest.raises(DegenerateGeometryError, match="coincide"):
            ax.AxiProfile(pts)


class TestResampling:
    def test_spline_resample_preserves_circle(self):
        fine = spline_resample_to(cv.circle_polygon(1.0, 64).vertices, 256)
        radii = np.hypot(fine[:, 0], fine[:, 1])
        assert fine.shape == (256, 2)
        assert np.max(np.abs(radii - 1.0)) < 1e-4

    def test_uniform_resample_equalizes_spacing(self):
        curve = cv.ellipse_polygon(2.0, 1.0, 100)
        out = cv._linear_resample(curve.vertices, 150)
        seg = np.linalg.norm(np.diff(np.vstack([out, out[:1]]), axis=0), axis=1)
        assert out.shape == (150, 2)
        assert seg.std() / seg.mean() < 1e-3

    def test_resample_preserves_length_and_area(self):
        curve = cv.peanut_polygon(1.0, 0.3, 200)
        out = cv.PlaneCurve(spline_resample_to(curve.vertices, 400))
        m0, m1 = cv.metrics(curve), cv.metrics(out)
        assert abs(m0.length - m1.length) / m0.length < 1e-3
        assert abs(m0.enclosed_area - m1.enclosed_area) / m0.enclosed_area < 1e-3
