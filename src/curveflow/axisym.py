"""Mean curvature flow of surfaces of revolution via their meridian profile.

A surface of revolution is represented by its meridian in the (x, r) half
plane, r >= 0 being distance from the rotation axis.  The scalar mean
curvature splits into the meridian's own signed curvature plus the rotational
term nu_r / r, so spheres, cylinders, dumbbell necks and thin tori are all
driven by the same sampled formula h = kappa_meridian - nu_r / r with nu the
inward unit normal of the meridian.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from . import curves as cv
from .errors import (
    DegenerateGeometryError,
    InvalidInputError,
    NoNeckError,
    NumericalBreakdownError,
)
from .flow1d import (
    Event,
    FlowConfig,
    Snapshot,
    Trajectory,
    _alone,
    _cap,
    _evolve,
    _FlowState,
)

TOPOLOGY_TWO_POLES = "twopoles"
TOPOLOGY_PERIODIC = "periodic"
TOPOLOGY_CYLINDER = "cylinder"
TOPOLOGIES = (TOPOLOGY_TWO_POLES, TOPOLOGY_PERIODIC, TOPOLOGY_CYLINDER)

EVENT_NECK_PINCH = "neck-pinch"
EVENT_TORUS_COLLAPSE = "torus-collapse"
EVENT_POLE_EXTINCTION = "pole-extinction"

MIN_SAMPLES = 16
# Neck events fire when the waist drops below
# max(NECK_RADIUS_FRACTION * initial waist, NECK_SPACING_FACTOR * local spacing).
NECK_RADIUS_FRACTION = 1e-3
NECK_SPACING_FACTOR = 5.0
# A true waist must start at least this factor above its neck threshold.  The
# squared waist falls at a rate of about 2, so the threshold cannot fire before
# the neck has used half its lifetime.
NECK_START_MARGIN = 2.0 ** 0.5
MEAN_CONVEX_REL_TOL = 1e-6


@dataclass(frozen=True)
class AxiProfile:
    """Sampled meridian of a surface of revolution.

    samples  : (n, 2) array of (x, r) pairs, r >= 0
    topology : "twopoles"  endpoints on the axis (sphere, dumbbell)
               "periodic"  closed loop off the axis (torus meridian)
               "cylinder"  graph r(x), periodic in x with the given period
    period   : x-period, required for the cylinder topology and refused
               for the others

    A twopoles or periodic meridian bounds the solid, so it must be simple:
    ``curves.is_embedded``'s test, once, on the checked samples.  A twopoles
    one closes on the axis chord; if x is strictly monotone and every |dx|
    and interior r exceed c tol (c = 1000 and tol as there), edges i < j - 1
    are a whole |dx| apart in x and the chord meets only the end edges.
    """

    samples: NDArray[np.float64]
    topology: str
    period: float | None = None

    def __init__(
        self,
        samples: NDArray[np.float64],
        topology: str = TOPOLOGY_TWO_POLES,
        period: float | None = None,
    ) -> None:
        self._adopt(samples, topology, period)

    def _adopt(self, samples, topology, period, seg=None, stencil=None, r_int=None) -> None:
        """Check and keep the samples; a flow's pass over them may give the
        ``seg`` of ``curves._checked_points`` and ``_is_simple``'s arrays."""
        if topology not in TOPOLOGIES:
            raise InvalidInputError(
                f"topology must be one of {TOPOLOGIES}, got {topology!r}"
            )
        pts, diam = cv._checked_points(
            samples, MIN_SAMPLES, closed=topology == TOPOLOGY_PERIODIC, noun="samples", seg=seg)
        r = pts[:, 1]
        tiny = 1e-9 * diam
        if topology == TOPOLOGY_TWO_POLES:
            if abs(r[0]) > tiny or abs(r[-1]) > tiny:
                raise InvalidInputError("twopoles profile must start and end at r = 0")
            r[[0, -1]] = 0.0
            if np.any(r[1:-1] <= 0):
                raise DegenerateGeometryError("interior sample on or below the axis")
            if abs(pts[-1, 0] - pts[0, 0]) <= cv.DISTINCT_REL_TOL * diam:
                raise DegenerateGeometryError("twopoles profile's poles coincide")
        else:
            if np.any(r <= 0):
                raise DegenerateGeometryError("sample on or below the axis")
        if topology == TOPOLOGY_CYLINDER:
            if period is None or not 0 < period < np.inf:
                raise InvalidInputError("cylinder topology requires a positive finite period")
            if np.any(np.diff(pts[:, 0]) <= 0):
                raise InvalidInputError("cylinder samples must have increasing x")
            if pts[-1, 0] - pts[0, 0] >= period:
                raise InvalidInputError("cylinder samples must span less than one period")
        elif period is not None:
            raise InvalidInputError(f"period is for the cylinder topology only, got {period!r} "
                                    f"with {topology!r}")
        if topology != TOPOLOGY_CYLINDER and not cv._is_simple(
                pts, diam, topology == TOPOLOGY_TWO_POLES, stencil, r_int):
            raise InvalidInputError("meridian profile is self-intersecting")

        pts.setflags(write=False)
        object.__setattr__(self, "samples", pts)
        object.__setattr__(self, "topology", topology)
        object.__setattr__(self, "period", period)

    def __len__(self) -> int:
        return len(self.samples)


@dataclass(frozen=True)
class AxiMetrics:
    surface_area: float
    enclosed_volume: float
    min_radius: float
    min_radius_location: float   # x position of the waist sample
    min_mean_curvature: float
    max_mean_curvature: float
    mean_convex: bool


# ---------------------------------------------------------------------------
# Mean curvature of a sampled meridian
# ---------------------------------------------------------------------------

def _polyline(topology: str) -> slice:
    """Columns of a filled chain, and edges of its edge lengths, on the revolved
    polyline: the samples, closed through the end ghost on a loop or cylinder."""
    return slice(1, -1) if topology == TOPOLOGY_TWO_POLES else slice(1, None)


def _fill_ghosts(chain: NDArray[np.float64], topology: str, period: float | None) -> None:
    """Fill a meridian's (2, n + 2) chain of rows x, r around its samples: the
    wrapped sample on a periodic loop, the sample shifted by one period on a
    cylinder, and at an axis pole the reflection (x1, -r1) of its neighbour."""
    if topology == TOPOLOGY_TWO_POLES:
        chain[0, 0], chain[1, 0] = chain[0, 2], -chain[1, 2]
        chain[0, -1], chain[1, -1] = chain[0, -3], -chain[1, -3]
    else:
        chain[0, 0], chain[1, 0] = chain[0, -2], chain[1, -2]
        chain[0, -1], chain[1, -1] = chain[0, 1], chain[1, 1]
        if topology == TOPOLOGY_CYLINDER:
            chain[0, 0] -= period
            chain[0, -1] += period


def _h_terms(share, chain: NDArray[np.float64], topology: str, h: NDArray[np.float64]) -> tuple:
    """What ``_mean_curvature`` reads and writes: the views of nu_r, r, kappa
    and h at the off-axis samples of a chain and its pass's ``share``."""
    off = slice(1, -1) if topology == TOPOLOGY_TWO_POLES else slice(None)
    return share.left[1, off], chain[1, 1:-1][off], share.k[off], h[off]


def _mean_curvature(k: NDArray[np.float64], h: NDArray[np.float64], terms: tuple,
                    two_poles: bool) -> NDArray[np.float64]:
    """Fill and return h = kappa - nu_r / r, with kappa and nu as the left normal
    orients them, from ``_h_terms``: 2 kappa at a pole, where both principal
    curvatures agree, so nothing divides by r = 0; ``_metrics_of`` turns h inward."""
    nu_r, r, kappa, h_off = terms
    np.divide(nu_r, r, out=h_off)
    np.subtract(kappa, h_off, out=h_off)
    if two_poles:
        h[0], h[-1] = 2.0 * k[0], 2.0 * k[-1]
    return h


def _meridian_pass(
    chain: NDArray[np.float64], topology: str, period: float | None,
) -> tuple[NDArray[np.float64], NDArray[np.float64], NDArray[np.float64]]:
    """The one-shot geometry pass over a meridian's (2, n + 2) chain of rows x, r.

    Fills the ghost columns and runs a fresh stencil; returns h
    (``_mean_curvature``), the (2, n) left normal rows and the polyline's
    segment lengths.  A flowing meridian makes the same pass in its steps."""
    _fill_ghosts(chain, topology, period)
    stencil = cv._Stencil(chain)
    k, left, seg = stencil()
    h = np.empty(len(k))
    terms = _h_terms(stencil, chain, topology, h)
    return (_mean_curvature(k, h, terms, topology == TOPOLOGY_TWO_POLES), left,
            seg[_polyline(topology)])


def _lateral_area(chain: NDArray[np.float64], topology: str, seg: NDArray[np.float64]) -> float:
    """Lateral area of the revolved polyline of a chain that ``_meridian_pass``
    filled, from its segment lengths, exact per conical frustum."""
    r = chain[1, _polyline(topology)]
    return float((np.pi * (r[:-1] + r[1:]) * seg).sum())


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def _plateau_waist(r: NDArray[np.float64]) -> int | None:
    """Index of the deepest interior local minimum of an open chain.

    Runs of equal values count as one sample (a flat tube is a single waist
    candidate, reported at its center); runs touching the chain ends are not
    interior and never qualify.  Of equally deep minima the first wins.
    Returns None when r is free of interior dips.
    """
    # Each interior run [start, end) ends where the next run starts.
    bounds = (r[1:] != r[:-1]).nonzero()[0] + 1
    start, end = bounds[:-1], bounds[1:]
    vals = r[start]
    idx = ((vals < r[start - 1]) & (vals < r[end])).nonzero()[0]
    if len(idx) == 0:
        return None
    j = idx[np.argmin(vals[idx])]
    return int((start[j] + end[j] - 1) // 2)


def _waist_of(pts: NDArray[np.float64], topo: str) -> tuple[float, float, bool, int]:
    """Waist radius, its x, whether it is a true waist, and its sample index."""
    r = pts[:, 1]
    if topo == TOPOLOGY_PERIODIC:
        # Summed from a C-ordered copy, whatever the layout of pts, for the same bits.
        center = np.ascontiguousarray(pts).sum(axis=0) / len(pts)
        d = cv._length(pts[:, 0] - center[0], pts[:, 1] - center[1])
        i = int(d.argmin())
        return float(d[i]), float(pts[i, 0]), True, i
    if topo == TOPOLOGY_CYLINDER:
        i = int(r.argmin())
        return float(r[i]), float(pts[i, 0]), True, i
    interior = r[1:-1]
    w = _plateau_waist(interior)
    true_waist = w is not None
    i = 1 + (w if true_waist else int(interior.argmin()))
    return float(r[i]), float(pts[i, 0]), true_waist, i


def _neck_threshold(pts: NDArray[np.float64], i: int) -> float:
    """Neck threshold from the mean spacing of the samples around index i."""
    lo = max(0, i - 1)
    hi = min(len(pts) - 1, i + 1)
    d = pts[hi] - pts[lo]
    return NECK_SPACING_FACTOR * float(np.hypot(d[0], d[1]) / (hi - lo))


def _metrics_of(
    chain: NDArray[np.float64], topology: str, h: NDArray[np.float64], area: float, waist: tuple
) -> AxiMetrics:
    """AxiMetrics of a chain that ``_meridian_pass`` filled, from its h, lateral
    area and ``_waist_of``: the volume of the revolved polyline, exact per
    conical frustum, the waist and the inward mean curvature range."""
    pts = chain[:, 1:-1].T
    if (not cv.polygon_area(pts) > 0 if topology == TOPOLOGY_PERIODIC
            else pts[-1, 0] >= pts[0, 0]):
        h = -h   # the solid lies to the right of the samples, against the left normal
    hmin = float(h.min())
    hmax = float(h.max())
    rmin, rmin_x, _, _ = waist
    tol = MEAN_CONVEX_REL_TOL * max(1.0, abs(hmin), abs(hmax))
    x, r = chain[:, _polyline(topology)]
    r0, r1, dx = r[:-1], r[1:], np.diff(x)
    return AxiMetrics(
        surface_area=area,
        enclosed_volume=float(abs(np.sum(np.pi / 3.0 * (r0 * r0 + r0 * r1 + r1 * r1) * dx))),
        min_radius=rmin,
        min_radius_location=rmin_x,
        min_mean_curvature=hmin,
        max_mean_curvature=hmax,
        mean_convex=hmin >= -tol,
    )


def axi_metrics(profile: AxiProfile) -> AxiMetrics:
    """Area and volume of the revolved polyline, exact per conical frustum, and
    the waist and mean curvature range of the samples."""
    chain = cv._closed_chain(profile.samples)   # the pass refills its ghost columns
    h, _, seg = _meridian_pass(chain, profile.topology, profile.period)
    return _metrics_of(chain, profile.topology, h, _lateral_area(chain, profile.topology, seg),
                       _waist_of(profile.samples, profile.topology))


# ---------------------------------------------------------------------------
# Profile construction
# ---------------------------------------------------------------------------

def sphere_profile(r0: float, n: int = 400) -> AxiProfile:
    """Semicircular meridian of a sphere of radius r0, poles included."""
    if r0 <= 0:
        raise InvalidInputError("sphere radius must be positive")
    cv._check_count(n, MIN_SAMPLES, f"need at least {MIN_SAMPLES} samples")
    theta = np.linspace(0.0, np.pi, n)
    pts = np.column_stack([-r0 * np.cos(theta), r0 * np.sin(theta)])
    return AxiProfile(pts, TOPOLOGY_TWO_POLES)


def torus_profile(ring_r: float, tube_r: float, n: int = 400) -> AxiProfile:
    """Circular meridian of radius tube_r centered at distance ring_r."""
    if ring_r <= 0 or tube_r <= 0:
        raise InvalidInputError("torus radii must be positive")
    if tube_r >= ring_r:
        raise InvalidInputError("tube radius must be smaller than the ring radius")
    cv._check_count(n, MIN_SAMPLES, f"need at least {MIN_SAMPLES} samples")
    theta = np.arange(n) * (2.0 * np.pi / n)
    pts = np.column_stack([tube_r * np.sin(theta), ring_r + tube_r * np.cos(theta)])
    return AxiProfile(pts, TOPOLOGY_PERIODIC)


def cylinder_profile(radius: float, period: float = 1.0, n: int = 128) -> AxiProfile:
    """Straight meridian r = radius, periodic in x with the given period."""
    if radius <= 0 or period <= 0:
        raise InvalidInputError("cylinder radius and period must be positive")
    cv._check_count(n, MIN_SAMPLES, f"need at least {MIN_SAMPLES} samples")
    x = np.arange(n) * (period / n)
    pts = np.column_stack([x, np.full(n, float(radius))])
    return AxiProfile(pts, TOPOLOGY_CYLINDER, period=period)


# Fillet radius as a multiple of the lobe radius.  Along the fillet the mean
# curvature is smallest at the lobe junction, where it equals
# 1/lobe_r - 1/fillet_r, so any factor above one keeps the dumbbell mean
# convex; 1.5 leaves a (1/3)/lobe_r margin.
FILLET_RADIUS_FACTOR = 1.5


def dumbbell_profile(
    lobe_r: float, tube_r: float, tube_len: float, n: int = 800
) -> AxiProfile:
    """Two spherical lobes joined by a straight tube with tangent fillet arcs.

    The tube spans [-tube_len/2, tube_len/2] at radius tube_r; fillet arcs of
    radius FILLET_RADIUS_FACTOR * lobe_r meet both the tube line and the lobe
    circles tangentially, so the meridian is C1 and everywhere mean convex.
    The two mirror halves share the sample at x = 0: 2 (n // 2) + 1 samples,
    so an even n gives n + 1, unless a tube, fillet or lobe too short for n
    takes its minimum of 8 samples per half.
    """
    if lobe_r <= 0 or tube_r <= 0 or tube_len <= 0:
        raise InvalidInputError("dumbbell dimensions must be positive")
    if tube_r >= lobe_r:
        raise InvalidInputError("tube radius must be smaller than the lobe radius")
    cv._check_count(n, 8 * MIN_SAMPLES, f"need at least {8 * MIN_SAMPLES} samples")

    rho = FILLET_RADIUS_FACTOR * lobe_r
    d = tube_len / 2.0
    # Lobe center distance set so the fillet is tangent to the tube line at
    # x = -d and externally tangent to the lobe circle.
    shift = np.sqrt((lobe_r + rho) ** 2 - (tube_r + rho) ** 2)
    c = d + shift
    fillet_center = np.array([-d, tube_r + rho])
    lobe_center = np.array([-c, 0.0])
    to_lobe = lobe_center - fillet_center
    phi1 = np.arctan2(to_lobe[1], to_lobe[0])        # in (-pi, -pi/2)
    phi2 = -np.pi / 2.0
    theta_t = np.arctan2(tube_r + rho, shift)        # lobe tangency angle

    lobe_arc = lobe_r * (np.pi - theta_t)
    fillet_arc = rho * (phi2 - phi1)
    half_len = lobe_arc + fillet_arc + d
    n_half = max(4 * MIN_SAMPLES, n // 2)
    n_lobe = max(8, int(round(n_half * lobe_arc / half_len)))
    n_fillet = max(8, int(round(n_half * fillet_arc / half_len)))
    n_tube = max(8, n_half - n_lobe - n_fillet)

    theta = np.linspace(np.pi, theta_t, n_lobe + 1)
    lobe = np.column_stack(
        [lobe_center[0] + lobe_r * np.cos(theta), lobe_r * np.sin(theta)]
    )
    phi = np.linspace(phi1, phi2, n_fillet + 1)[1:]
    fillet = np.column_stack(
        [fillet_center[0] + rho * np.cos(phi), fillet_center[1] + rho * np.sin(phi)]
    )
    fillet[-1] = (-d, tube_r)   # tangency with the tube line, exact
    xs = np.linspace(-d, 0.0, n_tube + 1)[1:]
    tube = np.column_stack([xs, np.full(n_tube, float(tube_r))])
    left = np.vstack([lobe, fillet, tube])
    right = left[:-1][::-1].copy()
    right[:, 0] = -right[:, 0]
    pts = np.vstack([left, right])
    return AxiProfile(pts, TOPOLOGY_TWO_POLES)


# shape name -> (builder, parameter names); the scenario lab reads it too
PROFILE_SHAPES = {
    "sphere": (sphere_profile, ("r0",)),
    "dumbbell": (dumbbell_profile, ("lobe_r", "tube_r", "tube_len")),
    "torus": (torus_profile, ("ring_r", "tube_r")),
    "cylinder": (cylinder_profile, ("radius", "period")),
}


# ---------------------------------------------------------------------------
# Evolution
# ---------------------------------------------------------------------------

class _AxiState(_FlowState):
    """One meridian under mean curvature flow, as raw sample rows between snapshots.

    The rows, x in ``verts[0]`` and r in ``verts[1]``, are the inside of a
    (2, n + 2) chain buffer with a ghost column at each end.  After the step's
    last geometry pass ``advance`` adds ``measure_area`` before it looks for a
    neck; the next ``plan`` and every snapshot read that pass.  Each pass is
    ``_meridian_pass`` in parts: ``fill`` fills the ghosts, and ``finish``
    computes h on the meridian's own columns.  Snapshots fall due on a
    geometric schedule in the lateral area and, for a true waist, in its
    radius.
    """

    def __init__(self, profile: AxiProfile, config: FlowConfig):
        self.topology = profile.topology
        self.period = profile.period
        self.two_poles = self.topology == TOPOLOGY_TWO_POLES
        self.off_axis = slice(1, -1) if self.two_poles else slice(None)
        super().__init__(profile.samples.T, profile, config)

    def start(self) -> None:
        self.measure_area()
        m = _metrics_of(self.chain, self.topology, self.h, self.area, self.waist)
        h0 = max(abs(m.min_mean_curvature), abs(m.max_mean_curvature))
        self.schedule(m, m.surface_area, h0, float(self.seg.sum()))
        # A torus collapses and a cylinder pinches; only axis-bounded profiles end at a pole.
        periodic = self.topology == TOPOLOGY_PERIODIC
        self.pinch_kind = EVENT_TORUS_COLLAPSE if periodic else EVENT_NECK_PINCH
        self.stop_kind = EVENT_POLE_EXTINCTION if self.two_poles else self.pinch_kind
        rmin0, x0, true_waist, i = self.waist
        thr = _neck_threshold(self.first.samples, i)
        if true_waist and rmin0 < NECK_START_MARGIN * thr:
            raise InvalidInputError(f"initial waist {rmin0:.4g} at x = {x0:.4g} is within "
                                    f"{NECK_START_MARGIN:.3g} x its neck threshold {thr:.4g}; "
                                    "use more samples")
        self.waist0 = rmin0 if true_waist else None
        self.next_waist = rmin0 * self.ratio

    def bind(self) -> None:
        """The h buffer of the new bank's samples."""
        self.h = np.empty(self.verts.shape[1])

    def fill(self) -> None:
        """Put the poles back on the axis, then fill the ghost columns."""
        if self.two_poles:
            self.verts[1, 0] = 0.0
            self.verts[1, -1] = 0.0
        _fill_ghosts(self.chain, self.topology, self.period)

    def adopt(self, share) -> None:
        """Keep the share, the polyline's segment lengths and h's terms."""
        super().adopt(share)
        self.seg = share.seg[_polyline(self.topology)]
        self.h_terms = _h_terms(share, self.chain, self.topology, self.h)

    def finish(self) -> None:
        _mean_curvature(self.k, self.h, self.h_terms, self.two_poles)

    def measure_area(self) -> None:
        """Keep the lateral area, the ``_waist_of`` and the least off-axis r,
        ``r_int``, of the chain the pass read."""
        self.area = _lateral_area(self.chain, self.topology, self.seg)
        self.waist = _waist_of(self.verts.T, self.topology)
        self.r_int = float(self.verts[1, self.off_axis].min())

    def velocity(self) -> NDArray[np.float64]:
        """Fill ``vel`` with h nu and return h.  h nu is the same for either
        orientation, so h and nu are taken as the left normal orients them.

        Poles move along the axis at twice the meridian curvature, clamped by
        the neighboring samples so a noisy pole cannot outrun its cap.  A
        binding clamp moves a copy: a snapshot reads the measured h."""
        h = self.h
        if self.two_poles:
            lim0, lim1 = 2.0 * abs(h.item(1)), 2.0 * abs(h.item(-2))
            if not (-lim0 <= h.item(0) <= lim0 and -lim1 <= h.item(-1) <= lim1):
                h = h.copy()
                h[0] = min(max(h.item(0), -lim0), lim0)
                h[-1] = min(max(h.item(-1), -lim1), lim1)
        np.multiply(self.left, h, out=self.vel)
        return h

    def plan(self, t: float) -> tuple[float, float]:
        """Velocity h nu with the pole guard; Gershgorin's forward-Euler bound
        min(h^2 / 2, h r_int / 4) from the least spacing and interior r (README)."""
        hmax = self.peak(t, self.velocity(), self.verts)
        h_space = float(self.seg.min())
        return _cap(h_space, hmax), min(h_space * h_space / 2.0, h_space * self.r_int / 4.0)

    def resample(self) -> None:
        self.set_verts(_axi_resample(self.verts, self.topology, self.period, self.spacing))

    def advance(self, t: float) -> bool:
        self.measure_area()
        rmin, rmin_x, true_waist, i = self.waist
        if true_waist:
            thr = _neck_threshold(self.verts.T, i)
            if self.waist0 is not None:
                thr = max(thr, NECK_RADIUS_FRACTION * self.waist0)
            if rmin < thr:
                self.close(t, Event(self.pinch_kind, t, (rmin_x, rmin)))
                return False
        if self.r_int <= 0:
            raise NumericalBreakdownError(
                f"interior sample reached the axis at t={t:.6g} before a neck event"
            )
        return self.area <= self.next_area or (self.waist0 is not None and rmin <= self.next_waist)

    def take(self, t: float) -> float:
        """``AxiProfile``'s checks on the pass (a cylinder's period edge left out)."""
        profile = object.__new__(AxiProfile)
        seg = self.seg[:-1] if self.topology == TOPOLOGY_CYLINDER else self.seg
        profile._adopt(self.verts.T, self.topology, self.period, seg, self.geo, self.r_int)
        m = _metrics_of(self.chain, self.topology, self.h, self.area, self.waist)
        self.traj.snapshots.append(Snapshot(t, profile, m))
        self.next_waist = m.min_radius * self.ratio   # read only for a true waist
        return m.surface_area

    def centre(self) -> tuple[float, float]:
        return float(self.verts[0].mean()), 0.0


def _axi_resample(
    rows: NDArray[np.float64], topology: str, period: float | None, spacing: float
) -> NDArray[np.float64]:
    """Arclength redistribution of (2, n) sample rows, x and r, preserving
    topology constraints; returns (2, m) rows."""
    if topology == TOPOLOGY_CYLINDER:
        # keep the uniform x grid; refresh r through the periodic local cubic in x
        n = rows.shape[1]
        x = np.append(rows[0], rows[0, 0] + period)
        r = np.append(rows[1], rows[1, 0])
        grid = rows[0, 0] + np.arange(n) * (period / n)
        return np.vstack([grid, cv._interpolate_rows(x, r[None], grid, periodic=True)])
    if topology == TOPOLOGY_PERIODIC:
        return cv.spline_resample_array(np.concatenate([rows, rows[:, :1]], axis=1), spacing,
                                        MIN_SAMPLES)
    ext, s = cv._arclength(rows, closed=False)
    total = float(s[-1])
    n = cv._sample_count(total, spacing, MIN_SAMPLES)
    targets = np.arange(n + 1) * (total / n)   # np.linspace(0, total, n + 1), bit for bit
    targets[-1] = total
    out = cv._interpolate_rows(s, ext, targets, periodic=False)
    out[:, 0] = rows[:, 0]
    out[:, -1] = rows[:, -1]
    return out


def _axi_steps(profile: AxiProfile, config: FlowConfig | None):
    """The stepper of ``run_axi``."""
    config = config or FlowConfig()
    return (yield from _evolve([_AxiState(profile, config)], config))


def run_axi(profile: AxiProfile, config: FlowConfig | None = None) -> Trajectory:
    """Evolve a meridian by mean curvature until a pinch, collapse or stop.

    The curve driver's stepper (``flow1d._evolve``) steps it, so snapshots,
    stops and the single terminal event follow the same rules as for curves.
    Neck events (neck-pinch for axis-bounded and cylinder topologies,
    torus-collapse for periodic ones) fire when the waist drops below
    max(1e-3 x initial waist, 5 x local spacing); the run halts at the event
    instead of continuing through the singularity.  A profile whose true
    waist starts below sqrt(2) x that threshold raises
    :class:`InvalidInputError`: it would report a pinch before the neck had
    used half its lifetime.
    """
    return _alone(_axi_steps(profile, config))[0]


# ---------------------------------------------------------------------------
# Neck analysis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NeckReport:
    pinch_time: float                       # fitted T with r(t)^2 = 2 (T - t)
    series: NDArray[np.float64]             # (m, 2) columns (time, min_radius)
    window: NDArray[np.bool_]               # the rows of series the fit reads


def neck_report(traj: Trajectory) -> NeckReport:
    """One-parameter fit of the shrinking-cylinder law to the waist series.

    Fits min_radius(t)^2 = 2 (T - t) by least squares over the last decade of
    waist decay (radii within 10x of the smallest recorded value).
    """
    kinds = {e.kind for e in traj.events}
    if not kinds & {EVENT_NECK_PINCH, EVENT_TORUS_COLLAPSE}:
        raise NoNeckError("trajectory has no neck-pinch or torus-collapse event")
    times = traj.times()
    radii = np.array([s.metrics.min_radius for s in traj.snapshots])
    r_last = radii.min()
    mask = radii <= 10.0 * r_last
    if mask.sum() < 3:
        raise NoNeckError("too few snapshots in the final decade of waist decay")
    t_sel = times[mask]
    r_sel = radii[mask]
    pinch = float(np.mean(t_sel + 0.5 * r_sel * r_sel))
    return NeckReport(pinch, np.column_stack([times, radii]), mask)
