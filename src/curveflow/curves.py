"""Closed plane curves as cyclic vertex polylines, with discrete geometry ops.

Curvature is estimated per vertex from the circle through the vertex and its
two neighbors, signed positive where the curve bends toward the enclosed
region.  Inward normals follow the same convention, so the curvature vector
``k * n`` is independent of traversal direction.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

from .errors import DegenerateGeometryError, ExtinctError, InvalidInputError

MIN_VERTICES = 8
# Consecutive vertices closer than this fraction of the bounding-box diameter
# count as coincident.
DISTINCT_REL_TOL = 1e-12
# Curves smaller than this are treated as already gone, not as bad input.
EXTINCT_DIAMETER = 1e-9
# Larger inputs are refused: no product of three lengths can overflow below it.
MAX_DIAMETER = 1e100
# Signed curvatures above -CONVEX_REL_TOL * max|k| still count as convex.
CONVEX_REL_TOL = 1e-6
# The edge gap, in units of the touch tolerance, that certifies a simple polygon.
_CERTIFIED_GAP = 1000.0
# The width of ``spiral_polygon``'s strip.
SPIRAL_WIDTH = 0.3

Float2 = tuple[float, float]

# Entries in one block of min_distance's vertex-to-vertex distance matrix.
_DISTANCE_BLOCK = 1 << 16


def polygon_area(vertices: NDArray[np.float64]) -> float:
    """Shoelace area, positive for counterclockwise traversal."""
    x = vertices[:, 0]
    y = vertices[:, 1]
    return 0.5 * float(np.sum(x * _next(y) - _next(x) * y))


def _next(a: NDArray) -> NDArray:
    """``np.roll(a, -1, axis=0)`` by slices: each row's cyclic successor."""
    return np.concatenate([a[1:], a[:1]])


def bbox_diameter(vertices: NDArray[np.float64]) -> float:
    x, y = vertices.T     # a reduction per column, not over axis 0 of (n, 2)
    return float(np.hypot(x.max() - x.min(), y.max() - y.min()))


def _length(dx, dy):
    """The kernels' one length formula, IEEE-rounded in any layout; ``_Stencil`` inlines it."""
    return np.sqrt(dx * dx + dy * dy)


def _checked_points(
    points, min_count: int, closed: bool, noun: str, seg=None
) -> tuple[NDArray[np.float64], float]:
    """A fresh float copy of an (n, 2) point array, and its bounding-box diameter.

    Raises InvalidInputError for another shape, non-finite values or a span
    over MAX_DIAMETER, DegenerateGeometryError for fewer than ``min_count``
    points or coincident neighbours (last and first are neighbours when
    ``closed``; a flow's pass may give their distances, ``seg``), and
    ExtinctError below the extinction diameter.
    """
    arr = np.array(points, dtype=np.float64, order="C")
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise InvalidInputError(f"{noun} must have shape (n, 2), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{noun} must be finite")
    if len(arr) < min_count:
        raise DegenerateGeometryError(f"need at least {min_count} {noun}, got {len(arr)}")
    diam = bbox_diameter(arr)
    if diam < EXTINCT_DIAMETER:
        raise ExtinctError(f"{noun} span {diam:.3e}, below the extinction diameter")
    if diam > MAX_DIAMETER:
        raise InvalidInputError(f"{noun} span {diam:.3e}, above {MAX_DIAMETER:.0e}")
    seg = _edge_lengths(arr.T, closed)[1] if seg is None else seg
    if seg.min() <= DISTINCT_REL_TOL * diam:
        raise DegenerateGeometryError(f"consecutive {noun} coincide")
    return arr, diam


def _check_count(n, minimum: int = 0, message: str | None = None) -> None:
    """Raise InvalidInputError unless the point count ``n`` is an integer (numpy's
    too) of at least ``minimum``; ``message``, if given, explains a smaller one."""
    if not isinstance(n, numbers.Integral):
        raise InvalidInputError(f"n must be an integer, got {n!r}")
    if n < minimum:
        raise InvalidInputError(message or f"n must be at least {minimum}, got {n}")


@dataclass(frozen=True)
class PlaneCurve:
    """Closed polyline stored cyclically (no repeated closing vertex)."""

    vertices: NDArray[np.float64]
    counterclockwise: bool = False

    def __init__(self, vertices) -> None:
        self._adopt(vertices)

    def _adopt(self, vertices, seg=None, area=None) -> float:
        """Check and keep ``vertices`` and return their diameter; a flow's pass
        over them may give their n edge lengths and signed area."""
        arr, diam = _checked_points(vertices, MIN_VERTICES, closed=True, noun="vertices", seg=seg)
        arr.flags.writeable = False
        object.__setattr__(self, "vertices", arr)
        object.__setattr__(self, "counterclockwise", (polygon_area(arr) if area is None else area) > 0)
        return diam

    def __len__(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True)
class CurveMetrics:
    length: float
    enclosed_area: float          # signed, positive for counterclockwise
    isoperimetric_ratio: float    # L^2 / (4 pi |A|), >= 1 up to discretization
    min_curvature: float
    max_curvature: float
    convex: bool


def _closed_chain(vertices: NDArray[np.float64]) -> NDArray[np.float64]:
    """(2, n + 2) rows x, y of the cyclic vertices, the last prepended and the first appended."""
    return np.concatenate([vertices[-1:], vertices, vertices[:1]]).T


class _Share(NamedTuple):
    """One chain's part of a ``_Stencil`` pass over several chains laid end to
    end: views of the outputs at its points and edges, named as the stencil
    names them, so either serves wherever a pass is read."""

    k: NDArray[np.float64]
    left: NDArray[np.float64]
    seg: NDArray[np.float64]
    cross: NDArray[np.float64]
    c: NDArray[np.float64]
    e: NDArray[np.float64]


class _Stencil:
    """Circumcircle curvature at the interior points of one chain, bound to it.

    ``chain`` is (2, m + 2), row 0 the x and row 1 the y of m interior points
    with one neighbour on each side; any strides, so the ``.T`` of an
    (m + 2, 2) array serves.  The input views are sliced and the outputs
    allocated once, here; each call reads the chain's current points and
    returns the curvature, signed positive for a left turn, the (2, m) unit
    left normal of the neighbour chord, and the m + 1 edge lengths of the
    chain, always in the same three arrays; ``_is_simple`` reads ``cross`` (twice
    the turns), ``c`` (the chords, floored at 1e-300) and the edge rows ``e``.  A
    fold-back point (neighbours coincide) is flat: curvature 0, not NaN.  Every
    output is elementwise in the points, so on chains laid end to end each
    chain's ``share`` holds what a stencil of its own gives, bit for bit.
    """

    def __init__(self, chain: NDArray[np.float64]):
        m = chain.shape[1] - 2
        self.edge_ends = chain[:, 1:], chain[:, :-1]
        self.chord_ends = chain[:, 2:], chain[:, :-2]
        # Each buffer puts two quantities side by side, so one ufunc call serves both:
        # the edge and chord vectors (one ``_length``), the chord length and the
        # curvature's divisor (one floor), and 1 and twice the cross product (one division).
        self.diffs = diffs = np.empty((2, 2 * m + 1))   # edges, then chords
        self.squares = np.empty((2, 2 * m + 1))
        self.square_rows = self.squares[0], self.squares[1]
        lengths = np.empty(3 * m + 1)              # seg, c, then seg0 seg1 c
        self.numerators = np.empty(2 * m)          # 1, then twice the cross product
        self.numerators[:m] = 1.0
        self.quotients = np.empty(2 * m)           # 1 / c, then k
        self.e, self.chord = diffs[:, :m + 1], diffs[:, m + 1:]
        self.lengths, self.divisors = lengths[:2 * m + 1], lengths[m + 1:]
        self.seg, self.c, self.product = np.split(lengths, [m + 1, 2 * m + 1])
        self.seg_pair = self.seg[:-1], self.seg[1:]
        self.cross_terms = (self.e[0, :-1], self.e[1, 1:]), (self.e[1, :-1], self.e[0, 1:])
        self.cross, self.scratch = self.numerators[m:], np.empty(m)
        self.inverse_c, self.k = self.quotients[:m], self.quotients[m:]
        self.left = np.empty((2, m))
        self.chord_swapped, self.left_x = self.chord[::-1], self.left[0]

    def share(self, start: int, m: int) -> _Share:
        """The outputs at the m interior points and m + 1 edges of a chain laid
        from column ``start`` of the stencil's chain."""
        points, edges = slice(start, start + m), slice(start, start + m + 1)
        return _Share(self.k[points], self.left[:, points], self.seg[edges],
                      self.cross[points], self.c[points], self.e[:, edges])

    def __call__(self) -> tuple[NDArray[np.float64], NDArray[np.float64], NDArray[np.float64]]:
        cross, t, product = self.cross, self.scratch, self.product
        np.subtract(*self.edge_ends, out=self.e)
        np.subtract(*self.chord_ends, out=self.chord)
        np.multiply(self.diffs, self.diffs, out=self.squares)
        np.add(*self.square_rows, out=self.lengths)
        np.sqrt(self.lengths, out=self.lengths)
        forward, backward = self.cross_terms
        np.multiply(*forward, out=cross)
        np.multiply(*backward, out=t)
        np.subtract(cross, t, out=cross)
        np.multiply(2.0, cross, out=cross)
        np.multiply(*self.seg_pair, out=product)
        np.multiply(product, self.c, out=product)
        # A zero edge or chord zeroes the cross product, and a zero chord the normal,
        # so the floored divisors give 0 there, not NaN.
        np.maximum(self.divisors, 1e-300, out=self.divisors)
        np.divide(self.numerators, self.divisors, out=self.quotients)
        np.multiply(self.chord_swapped, self.inverse_c, out=self.left)
        np.negative(self.left_x, out=self.left_x)
        return self.k, self.left, self.seg


def curvature_profile(curve: PlaneCurve) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Signed curvature and (n, 2) inward unit normal at every vertex.

    The magnitude is the inverse circumradius of each vertex-neighbor triple;
    the sign is positive where the curve bends toward the enclosed region.
    """
    k, left, _ = _Stencil(_closed_chain(curve.vertices))()
    orient = 1.0 if curve.counterclockwise else -1.0
    return orient * k, orient * left.T


def metrics(curve: PlaneCurve) -> CurveMetrics:
    """Scalar summary of a curve; curvature stats use the vertex estimator."""
    k, _, seg = _Stencil(_closed_chain(curve.vertices))()
    return _metrics_of(k, seg, polygon_area(curve.vertices))


def _metrics_of(k: NDArray[np.float64], seg: NDArray[np.float64], area: float) -> CurveMetrics:
    """``metrics`` from a closed chain's kernel curvature and edge lengths and
    the signed area, which orients the curvature."""
    if not area > 0.0:
        k = -k
    length = float(np.sum(seg[1:]))
    kmin = float(k.min())
    kmax = float(k.max())
    tol = CONVEX_REL_TOL * max(1.0, float(np.abs(k).max()))
    return CurveMetrics(
        length=length,
        enclosed_area=area,
        isoperimetric_ratio=length * length / (4.0 * np.pi * abs(area)),
        min_curvature=kmin,
        max_curvature=kmax,
        convex=bool(kmin >= -tol),
    )


def _edge_lengths(rows: NDArray[np.float64], closed: bool) -> tuple[NDArray, NDArray]:
    """The (2, n) point rows (closed chains end back at the first column) and their edge lengths."""
    ext = np.concatenate([rows, rows[:, :1]], axis=1) if closed else rows
    return ext, _length(ext[0, 1:] - ext[0, :-1], ext[1, 1:] - ext[1, :-1])


def _arclength(rows: NDArray[np.float64], closed: bool) -> tuple[NDArray, NDArray]:
    """``_edge_lengths``, but the arclengths of the points in place of the edge lengths."""
    ext, seg = _edge_lengths(rows, closed)
    return ext, np.concatenate([[0.0], np.cumsum(seg)])


def _sample_count(total: float, spacing: float, minimum: int) -> int:
    """Samples at ``spacing`` along a chain of length ``total``, at least ``minimum``."""
    if not np.isfinite(total):
        raise DegenerateGeometryError(f"chain length {total} is not finite")
    return max(minimum, int(round(total / spacing)))


def _interpolate_rows(
    s: NDArray[np.float64], yt: NDArray[np.float64], targets: NDArray[np.float64], periodic: bool
) -> NDArray[np.float64]:
    """Local cubic interpolant through the columns of the (d, m + 1) rows ``yt``
    at increasing knots ``s``, evaluated at targets in [s[0], s[-1]]; returns
    (d, targets) rows.  A target in [s[i], s[i+1]] takes the cubic through the
    four knots i - 1 .. i + 2.  A periodic chain (the last column repeats the
    first) wraps one knot on each side; an open chain shifts the stencil inward
    at its ends.  The interpolant needs no solve, reproduces cubics and is
    O(h^4) accurate, but it is only C0 at the knots, where neighbouring
    intervals switch stencils (a cubic spline is C2 there).  A target at s[-1]
    falls in the last interval; no caller passes one below s[0], so a periodic
    chain clamps the interval index only from above.

    Fewer than four knots, or a zero-length or non-finite interval, raise
    :class:`DegenerateGeometryError`, never NaN.
    """
    h = s[1:] - s[:-1]
    if len(h) < 3 or not np.all(h > 0):
        raise DegenerateGeometryError(
            "interpolant has under 4 knots or a zero-length or non-finite edge")
    m = len(h)
    i = np.searchsorted(s, targets, side="right") - 1
    if periodic:
        # Knot m - 1 one period back in front, knot 1 one period on behind:
        # interval i's stencil starts at extended knot i.
        total = s[-1] - s[0]
        s = np.concatenate([[s[-2] - total], s, [s[1] + total]])
        yt = np.concatenate([yt[:, -2:-1], yt, yt[:, 1:2]], axis=1)
        h = s[1:] - s[:-1]
        np.minimum(i, m - 1, out=i)
    else:
        np.clip(i - 1, 0, m - 3, out=i)
    # Divided differences over every run of 2, 3 and 4 consecutive knots; the
    # stencil from knot i is then the Newton form on its knots x0 < x1 < x2 < x3.
    d1 = (yt[:, 1:] - yt[:, :-1]) / h
    d2 = (d1[:, 1:] - d1[:, :-1]) / (s[2:] - s[:-2])
    d3 = (d2[:, 1:] - d2[:, :-1]) / (s[3:] - s[:-3])
    u = targets - s.take(i + np.arange(3)[:, None])
    c = d2.take(i, axis=1) + u[2] * d3.take(i, axis=1)
    return yt.take(i, axis=1) + u[0] * (d1.take(i, axis=1) + u[1] * c)


def _linear_resample(vertices: NDArray[np.float64], n: int) -> NDArray[np.float64]:
    """``n`` points at equal arclength spacing along a closed polygon."""
    ext, s = _arclength(vertices.T, closed=True)
    targets = np.arange(n) * (s[-1] / n)
    return np.stack([np.interp(targets, s, ext[0]), np.interp(targets, s, ext[1])], axis=1)


def spline_resample_array(
    closed: NDArray[np.float64], spacing: float, minimum: int = MIN_VERTICES
) -> NDArray[np.float64]:
    """Redistribution of a raw closed polygon, given as (2, n + 1) rows whose
    last column repeats the first (x and y, or a torus meridian's x and r), to
    (2, m) rows at equal arclength through the periodic local cubic interpolant
    of ``_interpolate_rows``; m is the length over ``spacing``, rounded, and at
    least ``minimum``."""
    seg = _edge_lengths(closed, False)[1]
    m = _sample_count(float(seg.sum()), spacing, minimum)
    s = np.concatenate([[0.0], np.cumsum(seg)])
    return _interpolate_rows(s, closed, np.arange(m) * (s[-1] / m), periodic=True)


def _interval_pairs(
    lo: NDArray[np.float64], hi: NDArray[np.float64]
) -> tuple[NDArray[np.int64], NDArray[np.int64]]:
    """All index pairs whose [lo, hi] intervals overlap, each pair once.

    Sweep over intervals sorted by lower end; for near-uniform segments of a
    curve the output is close to linear in the input size.
    """
    order = np.argsort(lo, kind="stable")
    xs = lo[order]
    xe = hi[order]
    k = np.arange(len(xs))
    upper = np.searchsorted(xs, xe, side="right")
    counts = np.maximum(upper - k - 1, 0)
    total = int(counts.sum())
    ii = np.repeat(k, counts)
    starts = np.cumsum(counts) - counts
    jj = np.arange(total) - np.repeat(starts, counts) + ii + 1
    return order[ii], order[jj]


def _segments_touch(
    a1: NDArray[np.float64],
    a2: NDArray[np.float64],
    b1: NDArray[np.float64],
    b2: NDArray[np.float64],
    tol: float,
) -> NDArray[np.bool_]:
    """Per-pair test whether segments a and b cross or touch within tol; they
    cross where d1, d2 (a1, a2 against b) and d3, d4 (b1, b2 against a) differ in sign."""
    da = a2 - a1
    db = b2 - b1
    diff = b1 - a1
    d1 = db[:, 0] * (-diff[:, 1]) - db[:, 1] * (-diff[:, 0])
    d2 = db[:, 0] * (da - diff)[:, 1] - db[:, 1] * (da - diff)[:, 0]
    d3 = da[:, 0] * diff[:, 1] - da[:, 1] * diff[:, 0]
    d4 = da[:, 0] * (diff + db)[:, 1] - da[:, 1] * (diff + db)[:, 0]
    eps_a = tol * np.hypot(da[:, 0], da[:, 1])
    eps_b = tol * np.hypot(db[:, 0], db[:, 1])
    s1 = np.where(np.abs(d1) <= eps_b, 0, np.sign(d1))
    s2 = np.where(np.abs(d2) <= eps_b, 0, np.sign(d2))
    s3 = np.where(np.abs(d3) <= eps_a, 0, np.sign(d3))
    s4 = np.where(np.abs(d4) <= eps_a, 0, np.sign(d4))

    touch = (s1 * s2 < 0) & (s3 * s4 < 0)
    if ((s1 == 0) | (s2 == 0) | (s3 == 0) | (s4 == 0)).any():
        # An endpoint on the other segment's line touches it iff it lies in
        # that segment's box; collinear overlaps put some endpoint there too.
        def in_box(p, q1, q2):
            return np.all((np.minimum(q1, q2) <= p + tol) & (p <= np.maximum(q1, q2) + tol),
                          axis=-1)

        touch |= ((s1 == 0) & in_box(a1, b1, b2)) | ((s2 == 0) & in_box(a2, b1, b2))
        touch |= ((s3 == 0) & in_box(b1, a1, a2)) | ((s4 == 0) & in_box(b2, a1, a2))
    return touch


def _any_touch(p1: NDArray[np.float64], p2: NDArray[np.float64], tol: float, admit) -> bool:
    """Whether two of the segments p1-p2 touch within tol (``_segments_touch``),
    among the index pairs ``admit(ii, jj)`` marks: one sweep over the x-ranges
    finds each pair whose ranges overlap within tol once, and the y-ranges must
    overlap too."""
    mins = np.minimum(p1, p2)
    maxs = np.maximum(p1, p2)
    ii, jj = _interval_pairs(mins[:, 0], maxs[:, 0] + tol)
    ymin, ymax = mins[:, 1].copy(), maxs[:, 1].copy()
    keep = ((ymin.take(ii) <= ymax.take(jj) + tol) & (ymin.take(jj) <= ymax.take(ii) + tol)
            & admit(ii, jj))
    ii, jj = ii[keep], jj[keep]
    return len(ii) > 0 and bool(
        _segments_touch(*(p.take(i, axis=0) for i in (ii, jj) for p in (p1, p2)), tol).any())


def is_embedded(curve: PlaneCurve) -> bool:
    """Exact segment-pair test: no two non-adjacent edges may touch or cross.

    The sweep, ``_segment_sweep``, flags only edges within (1 + 2 sqrt 2) tol,
    tol = DISTINCT_REL_TOL times the diameter.  If all turns share one strict
    sign and the edge direction enters the upper half plane once, the curve
    winds once and is strictly convex: all vertices but v_k lie across the
    chord v(k+1) - v(k-1) of its neighbours, so non-adjacent edges (closest at
    an end of one) are at least the least chord distance apart.  Where that
    exceeds c tol, c = ``_CERTIFIED_GAP`` = 1000, the sweep is skipped.
    """
    return _is_simple(curve.vertices, bbox_diameter(curve.vertices))


def _is_simple(v: NDArray[np.float64], diam: float, two_poles: bool = False,
               stencil: _Share | None = None, r_int: float | None = None) -> bool:
    """``is_embedded`` of the closed polygon ``v``: the convex certificate, or
    ``AxiProfile``'s x-monotone one for a ``two_poles`` meridian, else the sweep;
    a flow's pass may give ``stencil``, over v's closed chain, and ``r_int``."""
    tol = DISTINCT_REL_TOL * diam
    bound = _CERTIFIED_GAP * tol
    if two_poles:
        dx = v[1:, 0] - v[:-1, 0] if stencil is None else stencil.e[0, 1:-1]
        r_int = v[1:-1, 1].min() if r_int is None else r_int
        certified = (dx.min() > bound or dx.max() < -bound) and r_int > bound
    else:
        if stencil is None:
            stencil = _Stencil(_closed_chain(v))
            stencil()
        # cross is twice the area each vertex cuts off: its chord times its distance to it.
        gap = 2.0 * bound * stencil.c
        upper = stencil.e[1] > 0.0
        certified = (((stencil.cross > gap).all() or (stencil.cross < -gap).all())
                     and np.count_nonzero(upper[1:] != upper[:-1]) == 2)
    return bool(certified) or _segment_sweep(v, tol)


def _segment_sweep(v: NDArray[np.float64], tol: float) -> bool:
    """Whether no two non-adjacent edges of the closed polygon ``v`` touch within tol."""
    n = len(v)
    # Edges i and j are adjacent where (j - i) % n is 1 or n - 1: (j - i + 1) % n is 2 or 0.
    return not _any_touch(v, _next(v), tol, lambda ii, jj: (jj - ii + 1) % n > 2)


def _point_segment(
    p: NDArray[np.float64], a: NDArray[np.float64], b: NDArray[np.float64]
) -> NDArray[np.float64]:
    """Distance from points p to segments a-b, elementwise on broadcastable (..., 2) arrays."""
    px, py, ax, ay = p[..., 0], p[..., 1], a[..., 0], a[..., 1]
    dx, dy = b[..., 0] - ax, b[..., 1] - ay
    t = np.clip(((px - ax) * dx + (py - ay) * dy) / np.maximum(dx * dx + dy * dy, 1e-300), 0.0, 1.0)
    ex, ey = px - (ax + t * dx), py - (ay + t * dy)
    return np.sqrt(ex * ex + ey * ey)


def _point_segment_distances(
    points: NDArray[np.float64], seg_a: NDArray[np.float64], seg_b: NDArray[np.float64]
) -> NDArray[np.float64]:
    """Distance from each point to the nearest segment seg_a[j]-seg_b[j].

    Chunked over points so the point-by-segment work arrays stay bounded.
    """
    out = np.empty(len(points))
    for lo in range(0, len(points), 512):
        p = points[lo:lo + 512, None, :]
        out[lo:lo + 512] = _point_segment(p, seg_a[None], seg_b[None]).min(axis=1)
    return out


def _curves_cross(c1: PlaneCurve, c2: PlaneCurve) -> bool:
    """Whether the two boundaries cross or touch."""
    v1, v2 = c1.vertices, c2.vertices
    n1 = len(v1)
    return _any_touch(np.vstack([v1, v2]), np.vstack([_next(v1), _next(v2)]), 0.0,
                      lambda ii, jj: (ii < n1) != (jj < n1))


def min_distance(c1: PlaneCurve, c2: PlaneCurve) -> float:
    """Minimum distance between two curves as unions of segments (0 if they cross or touch).

    Exact: the minimum is a vertex-to-edge distance of at most the smallest
    vertex-to-vertex distance dv, and lies within half an edge of one of that
    edge's ends.  So each vertex meets only the two edges at every vertex of
    the other curve within dv + max_edge / 2, and any upper bound on dv only
    adds candidates.  The vertices of c1 go in blocks whose squared distance
    matrix against c2 holds at most ``_DISTANCE_BLOCK`` entries, and each
    block takes its candidates within the running minimum of dv so far, so
    the work arrays stay bounded at any n.  A crossing or touching point lies
    within half an edge of an end of its edge, so the contact sweep runs only
    when the vertex-to-edge minimum is at most max_edge / 2.
    """
    v1, v2 = c1.vertices, c2.vertices
    half_edge = 0.5 * max(np.hypot(e[:, 0], e[:, 1]).max() for e in (_next(v) - v for v in (v1, v2)))
    x2, y2 = v2.T.copy()
    rows = max(1, _DISTANCE_BLOCK // len(v2))
    d2, dy = np.empty((2, min(rows, len(v1)), len(v2)))
    dv2 = best = np.inf
    for lo in range(0, len(v1), rows):
        block = v1[lo:lo + rows]
        d2, dy = d2[:len(block)], dy[:len(block)]
        np.subtract.outer(block[:, 0], x2, out=d2)
        np.subtract.outer(block[:, 1], y2, out=dy)
        d2 *= d2
        dy *= dy
        d2 += dy
        dv2 = min(dv2, d2.min())
        # The relative slack keeps a pair exactly at the reach in the candidates.
        reach = (np.sqrt(dv2) + half_edge) * (1.0 + 1e-9)
        i, j = np.divmod(np.flatnonzero(d2 <= reach * reach), len(v2))
        if len(i) == 0:
            continue
        i += lo
        for p, q, a, b in ((i, j, v1, v2), (j, i, v2, v1)):
            e = np.concatenate([q - 1, q])      # the edges of b into and out of vertex q
            dist = _point_segment(a.take(np.concatenate([p, p]), axis=0), b.take(e, axis=0),
                                  b.take((e + 1) % len(b), axis=0))
            best = min(best, float(dist.min()))
    # The relative slack keeps a contact at exactly half an edge in the sweep.
    return 0.0 if best <= half_edge * (1.0 + 1e-9) and _curves_cross(c1, c2) else best


def curve_centroid(curve: PlaneCurve) -> Float2:
    c = curve.vertices.mean(axis=0)
    return float(c[0]), float(c[1])


# ---------------------------------------------------------------------------
# Shape factories
# ---------------------------------------------------------------------------

def circle_polygon(radius: float, n: int = 512, center: Float2 = (0.0, 0.0)) -> PlaneCurve:
    if radius <= 0:
        raise InvalidInputError("radius must be positive")
    _check_count(n, MIN_VERTICES)
    t = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    pts = np.stack([center[0] + radius * np.cos(t), center[1] + radius * np.sin(t)], axis=1)
    return PlaneCurve(pts)


def ellipse_polygon(a: float, b: float, n: int = 512, center: Float2 = (0.0, 0.0)) -> PlaneCurve:
    """Angle-uniform sampling, so vertices land exactly on the axis endpoints
    when ``n`` is a multiple of 4."""
    if a <= 0 or b <= 0:
        raise InvalidInputError("semi-axes must be positive")
    _check_count(n, MIN_VERTICES)
    t = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    pts = np.stack([center[0] + a * np.cos(t), center[1] + b * np.sin(t)], axis=1)
    return PlaneCurve(pts)


def rectangle_polygon(width: float, height: float, n: int = 64) -> PlaneCurve:
    """Axis-aligned rectangle sampled uniformly by perimeter, corners included
    only when the spacing divides the side lengths."""
    if width <= 0 or height <= 0:
        raise InvalidInputError("width and height must be positive")
    _check_count(n, MIN_VERTICES)
    w2, h2 = width / 2.0, height / 2.0
    corners = np.array([[w2, -h2], [w2, h2], [-w2, h2], [-w2, -h2]])
    return PlaneCurve(_linear_resample(corners, n))


def peanut_polygon(base_radius: float = 1.0, amplitude: float = 0.3, n: int = 512) -> PlaneCurve:
    """Two-lobed outline r(t) = R (1 + amplitude cos 2t); concave at the waist
    for amplitude > 0.2, which is what the convexification tests want."""
    if not 0.0 <= amplitude < 1.0:
        raise InvalidInputError("amplitude must be in [0, 1)")
    _check_count(n, MIN_VERTICES)
    t = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    r = base_radius * (1.0 + amplitude * np.cos(2.0 * t))
    return PlaneCurve(np.stack([r * np.cos(t), r * np.sin(t)], axis=1))


def spiral_polygon(
    inner_radius: float = 1.0,
    outer_radius: float = 2.0,
    winding: float = 1.5,
    n: int = 640,
) -> PlaneCurve:
    """Embedded closed strip spiraling between two radii.

    The strip is the ``SPIRAL_WIDTH`` offset band of an arithmetic spiral core,
    closed by semicircular caps at both ends, resampled to ``n`` vertices at
    equal arclength.  Successive windings stay separated as long as the width
    is below the radial pitch.
    """
    if inner_radius <= 0 or outer_radius <= inner_radius:
        raise InvalidInputError("need 0 < inner_radius < outer_radius")
    if winding <= 0:
        raise InvalidInputError("winding must be positive")
    span = outer_radius - inner_radius - SPIRAL_WIDTH
    if span <= 0:
        raise InvalidInputError("width leaves no room between the radii")
    pitch = span / winding
    if SPIRAL_WIDTH >= pitch:
        raise InvalidInputError("width >= radial pitch, the strip would self-touch")
    _check_count(n, MIN_VERTICES)

    theta_max = 2.0 * np.pi * winding
    half = SPIRAL_WIDTH / 2.0
    m = max(64, int(200 * winding * 8))
    theta = np.linspace(0.0, theta_max, m)
    rho = (inner_radius + half) + (span / theta_max) * theta
    drho = span / theta_max
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    core = np.stack([rho * cos_t, rho * sin_t], axis=1)
    vel = np.stack([drho * cos_t - rho * sin_t, drho * sin_t + rho * cos_t], axis=1)
    speed = np.linalg.norm(vel, axis=1)
    tangent = vel / speed[:, None]
    normal = np.stack([-tangent[:, 1], tangent[:, 0]], axis=1)

    side_out = core + half * normal
    side_back = (core - half * normal)[::-1]

    def cap(center, n_hat):
        # Half circle sweeping from +n_hat around to -n_hat through the open end.
        phi0 = np.arctan2(n_hat[1], n_hat[0])
        ang = phi0 - np.linspace(0.0, np.pi, 60)[1:-1]
        return np.stack([center[0] + half * np.cos(ang), center[1] + half * np.sin(ang)], axis=1)

    outer_cap = cap(core[-1], normal[-1])
    inner_cap = cap(core[0], -normal[0])

    pts = np.vstack([side_out, outer_cap, side_back, inner_cap])
    curve = PlaneCurve(_linear_resample(pts, n))
    if not curve.counterclockwise:
        curve = PlaneCurve(curve.vertices[::-1])
    return curve
