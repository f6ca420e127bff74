"""Mean curvature flow of surfaces of revolution via their meridian profile.

A surface of revolution is represented by its meridian in the (x, r) half
plane, r >= 0 being distance from the rotation axis.  The scalar mean
curvature splits into the meridian's own signed curvature plus the rotational
term nu_r / r, so spheres, cylinders, dumbbell necks and thin tori are all
driven by the same sampled formula h = kappa_meridian - nu_r / r with nu the
inward unit normal of the meridian.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    RunStats,
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
    period   : x-period, required for the cylinder topology
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
        if topology not in TOPOLOGIES:
            raise InvalidInputError(
                f"topology must be one of {TOPOLOGIES}, got {topology!r}"
            )
        pts, diam = cv._checked_points(
            samples, MIN_SAMPLES, closed=topology == TOPOLOGY_PERIODIC, noun="samples")
        r = pts[:, 1]
        tiny = 1e-9 * diam
        if topology == TOPOLOGY_TWO_POLES:
            if abs(r[0]) > tiny or abs(r[-1]) > tiny:
                raise InvalidInputError("twopoles profile must start and end at r = 0")
            r[0] = 0.0
            r[-1] = 0.0
            if np.any(r[1:-1] <= 0):
                raise DegenerateGeometryError("interior sample on or below the axis")
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
        else:
            period = None
        if topology in (TOPOLOGY_TWO_POLES, TOPOLOGY_PERIODIC):
            # Simplicity: the meridian plus its axis closure bounds the solid,
            # so it must not cross itself.  For twopoles the closing chord lies
            # on the axis and cannot meet the strictly positive interior.
            if not cv.is_embedded(cv.PlaneCurve(pts)):
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


@dataclass(frozen=True)
class AxiSnapshot:
    time: float
    profile: AxiProfile
    metrics: AxiMetrics


@dataclass
class AxiTrajectory:
    snapshots: list[AxiSnapshot]
    events: list[Event] = field(default_factory=list)
    stats: RunStats | None = None

    def times(self) -> NDArray[np.float64]:
        return np.array([s.time for s in self.snapshots])

    def min_radii(self) -> NDArray[np.float64]:
        return np.array([s.metrics.min_radius for s in self.snapshots])

    def final(self) -> AxiSnapshot:
        return self.snapshots[-1]


# ---------------------------------------------------------------------------
# Mean curvature of a sampled meridian
# ---------------------------------------------------------------------------

_AXIS_MIRROR = np.array([1.0, -1.0])


def _fill_ghosts(chain: NDArray[np.float64], topology: str, period: float | None) -> None:
    """Fill the ghost columns at both ends of the (2, n + 2) rows x, r of a meridian.

    The wrapped sample on a periodic loop, the sample shifted by one period on
    a cylinder, and at an axis pole the reflection (x1, -r1) of its neighbour.
    """
    if topology == TOPOLOGY_TWO_POLES:
        chain[:, 0] = chain[:, 2] * _AXIS_MIRROR
        chain[:, -1] = chain[:, -3] * _AXIS_MIRROR
        return
    chain[:, 0] = chain[:, -2]
    chain[:, -1] = chain[:, 1]
    if topology == TOPOLOGY_CYLINDER:
        chain[0, 0] -= period
        chain[0, -1] += period


def _mean_curvature(
    kappa: NDArray[np.float64], nu: NDArray[np.float64], r: NDArray[np.float64], two_poles: bool
) -> NDArray[np.float64]:
    """h = kappa - nu_r / r off the axis, nu as (2, n) rows; at a pole both principal
    curvatures agree, so h there is 2 kappa.  Every sample off the axis has r > 0."""
    if not two_poles:
        return kappa - nu[1] / r
    h = 2.0 * kappa
    h[1:-1] = kappa[1:-1] - nu[1, 1:-1] / r[1:-1]
    return h


def _fields(
    pts: NDArray[np.float64], topology: str, period: float | None
) -> tuple[NDArray[np.float64], ...]:
    """Per-sample meridian curvature, (2, n) inward normal rows and h, plus the (2, n + 2)
    ghost chain they were computed on (see ``_fill_ghosts``) and its edge lengths."""
    chain = np.empty((2, len(pts) + 2))
    chain[:, 1:-1] = pts.T
    _fill_ghosts(chain, topology, period)
    mu, left, seg = cv._three_point(chain)
    clockwise = (not cv.polygon_area(pts) > 0 if topology == TOPOLOGY_PERIODIC
                 else pts[-1, 0] >= pts[0, 0])   # the solid lies to the right
    sigma = 1.0 if clockwise else -1.0
    kappa = -sigma * mu
    nu = -sigma * left
    h = _mean_curvature(kappa, nu, pts[:, 1], topology == TOPOLOGY_TWO_POLES)
    return kappa, nu, h, chain, seg


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def _segments(
    chain: NDArray[np.float64], seg: NDArray[np.float64], topology: str
) -> tuple[NDArray[np.float64], NDArray[np.float64], NDArray[np.float64]]:
    """Segment endpoint rows (p, q) of a filled ghost chain, any wrap-around
    segment included, and their lengths taken from the chain's edge lengths ``seg``."""
    if topology == TOPOLOGY_TWO_POLES:
        return chain[:, 1:-2], chain[:, 2:-1], seg[1:-1]
    return chain[:, 1:-1], chain[:, 2:], seg[1:]


def _frustum_area(
    p: NDArray[np.float64], q: NDArray[np.float64], slant: NDArray[np.float64]
) -> float:
    """Lateral area of the revolved segments p -> q of lengths ``slant``, exact per frustum."""
    return float((np.pi * (p[1] + q[1]) * slant).sum())


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


def _has_dip(r: NDArray[np.float64]) -> bool:
    """Whether r strictly falls and later strictly rises with only equal steps
    between: true exactly when ``_plateau_waist(r)`` is not None, and cheaper.
    A NaN compares unequal to its neighbours but neither falls nor rises."""
    step = r[1:] != r[:-1]
    fall, rise = (r[1:] < r[:-1])[step], (r[1:] > r[:-1])[step]
    return bool((fall[:-1] & rise[1:]).any())


def _waist_of(pts: NDArray[np.float64], topo: str) -> tuple[float, float, bool, int]:
    """Waist radius, its x, whether it is a true waist, and its sample index."""
    r = pts[:, 1]
    if topo == TOPOLOGY_PERIODIC:
        # Summed from a C-ordered copy, whatever the layout of pts, for the same bits.
        center = np.ascontiguousarray(pts).sum(axis=0) / len(pts)
        d = np.hypot(pts[:, 0] - center[0], pts[:, 1] - center[1])
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


def axi_metrics(profile: AxiProfile) -> AxiMetrics:
    """Area and volume of the revolved polyline, exact per conical frustum, and
    the waist and mean curvature range of the samples."""
    pts, topology = profile.samples, profile.topology
    _, _, h, chain, seg = _fields(pts, topology, profile.period)
    hmin = float(h.min())
    hmax = float(h.max())
    rmin, rmin_x, _, _ = _waist_of(pts, topology)
    tol = MEAN_CONVEX_REL_TOL * max(1.0, abs(hmin), abs(hmax))
    p, q, slant = _segments(chain, seg, topology)
    r0, r1, dx = p[1], q[1], q[0] - p[0]
    return AxiMetrics(
        surface_area=_frustum_area(p, q, slant),
        enclosed_volume=float(abs(np.sum(np.pi / 3.0 * (r0 * r0 + r0 * r1 + r1 * r1) * dx))),
        min_radius=rmin,
        min_radius_location=rmin_x,
        min_mean_curvature=hmin,
        max_mean_curvature=hmax,
        mean_convex=hmin >= -tol,
    )


# ---------------------------------------------------------------------------
# Profile construction
# ---------------------------------------------------------------------------

def sphere_profile(r0: float, n: int = 400) -> AxiProfile:
    """Semicircular meridian of a sphere of radius r0, poles included."""
    if r0 <= 0:
        raise InvalidInputError("sphere radius must be positive")
    if n < MIN_SAMPLES:
        raise InvalidInputError(f"need at least {MIN_SAMPLES} samples")
    theta = np.linspace(0.0, np.pi, n)
    pts = np.column_stack([-r0 * np.cos(theta), r0 * np.sin(theta)])
    pts[0, 1] = 0.0
    pts[-1, 1] = 0.0
    return AxiProfile(pts, TOPOLOGY_TWO_POLES)


def torus_profile(ring_r: float, tube_r: float, n: int = 400) -> AxiProfile:
    """Circular meridian of radius tube_r centered at distance ring_r."""
    if ring_r <= 0 or tube_r <= 0:
        raise InvalidInputError("torus radii must be positive")
    if tube_r >= ring_r:
        raise InvalidInputError("tube radius must be smaller than the ring radius")
    if n < MIN_SAMPLES:
        raise InvalidInputError(f"need at least {MIN_SAMPLES} samples")
    theta = np.arange(n) * (2.0 * np.pi / n)
    pts = np.column_stack([tube_r * np.sin(theta), ring_r + tube_r * np.cos(theta)])
    return AxiProfile(pts, TOPOLOGY_PERIODIC)


def cylinder_profile(radius: float, period: float = 1.0, n: int = 128) -> AxiProfile:
    """Straight meridian r = radius, periodic in x with the given period."""
    if radius <= 0 or period <= 0:
        raise InvalidInputError("cylinder radius and period must be positive")
    if n < MIN_SAMPLES:
        raise InvalidInputError(f"need at least {MIN_SAMPLES} samples")
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
    """
    if lobe_r <= 0 or tube_r <= 0 or tube_len <= 0:
        raise InvalidInputError("dumbbell dimensions must be positive")
    if tube_r >= lobe_r:
        raise InvalidInputError("tube radius must be smaller than the lobe radius")
    if n < 8 * MIN_SAMPLES:
        raise InvalidInputError(f"need at least {8 * MIN_SAMPLES} samples")

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
    lobe[0, 1] = 0.0
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
    (2, n + 2) chain buffer with a ghost column at each end.  A step moves them
    in place and ends with one geometry pass, ``measure``, whose curvature,
    normals and edge lengths the next ``plan`` reads.  Snapshots fall due on a
    geometric schedule in the lateral area, which that pass also gives, and for
    a true waist on the same schedule in its radius.
    """

    def __init__(self, profile: AxiProfile, config: FlowConfig):
        self.set_verts(profile.samples.T)
        self.topology = profile.topology
        self.period = profile.period
        m = axi_metrics(profile)
        h0 = max(abs(m.min_mean_curvature), abs(m.max_mean_curvature))
        length = float(self.measure().sum())
        super().__init__(config, m.surface_area, h0, length, len(profile))
        # A torus collapses and a cylinder pinches; only axis-bounded profiles end at a pole.
        periodic = self.topology == TOPOLOGY_PERIODIC
        self.pinch_kind = EVENT_TORUS_COLLAPSE if periodic else EVENT_NECK_PINCH
        self.two_poles = self.topology == TOPOLOGY_TWO_POLES
        self.stop_kind = EVENT_POLE_EXTINCTION if self.two_poles else self.pinch_kind
        rmin0, x0, true_waist, i = _waist_of(profile.samples, self.topology)
        thr = _neck_threshold(profile.samples, i)
        if true_waist and rmin0 < NECK_START_MARGIN * thr:
            raise InvalidInputError(f"initial waist {rmin0:.4g} at x = {x0:.4g} is within "
                                    f"{NECK_START_MARGIN:.3g} x its neck threshold {thr:.4g}; "
                                    "use more samples")
        self.off_axis = slice(1, -1) if self.two_poles else slice(None)
        self.r_int = float(self.verts[1, self.off_axis].min())   # read by plan
        self.waist0 = rmin0 if true_waist else None
        self.next_waist = rmin0 * self.ratio
        self.traj = AxiTrajectory([AxiSnapshot(0.0, profile, m)], self.events)

    def measure(self) -> NDArray[np.float64]:
        """The step's geometry pass: fill the ghosts, keep the chain's curvature,
        left normal and edge lengths and the lateral area; return the segment lengths."""
        _fill_ghosts(self.chain, self.topology, self.period)
        self.mu, self.left, self.seg = cv._three_point(self.chain)
        p, q, slant = _segments(self.chain, self.seg, self.topology)
        self.area = _frustum_area(p, q, slant)
        return slant

    def plan(self, t: float) -> float:
        """Velocity h*nu with pole guard; step bound from min spacing and interior rmin.

        h nu is the same for either orientation, so h and nu are taken as the
        left normal orients them."""
        h = _mean_curvature(self.mu, self.left, self.verts[1], self.two_poles)
        if self.two_poles:
            # Poles move along the axis at twice the meridian curvature, capped by
            # the neighboring samples so a noisy pole cannot outrun its cap.
            for i, j in ((0, 1), (-1, -2)):
                lim = 2.0 * abs(float(h[j]))
                h[i] = min(max(float(h[i]), -lim), lim)
        hmax = self.peak(t, h, self.verts)
        if hmax is None:
            return np.inf
        self.vel = self.left   # h nu, in the normal's buffer; the next measure makes a new one
        self.vel *= h
        h_space = float(self.seg[1:].min())
        return self.capped(self.cfl * min(h_space * h_space, h_space * self.r_int) / 4.0,
                           h_space, hmax)

    def advance(self, t: float, resample: bool) -> bool:
        if self.two_poles:
            self.verts[1, 0] = 0.0
            self.verts[1, -1] = 0.0
        if resample:
            self.set_verts(_axi_resample(self.verts, self.topology, self.period, self.spacing))
        pts = self.verts.T

        # Without a dip, a two-pole profile that started without a true waist has none.
        if not self.two_poles or self.waist0 is not None or _has_dip(self.verts[1, 1:-1]):
            rmin, rmin_x, true_waist, i = _waist_of(pts, self.topology)
            if not self.two_poles or true_waist:
                thr = _neck_threshold(pts, i)
                if self.waist0 is not None:
                    thr = max(thr, NECK_RADIUS_FRACTION * self.waist0)
                if rmin < thr:
                    self.close(t, Event(self.pinch_kind, t, (rmin_x, rmin)))
                    return False
        self.r_int = float(self.verts[1, self.off_axis].min())
        if self.r_int <= 0:
            raise NumericalBreakdownError(
                f"interior sample reached the axis at t={t:.6g} before a neck event"
            )
        self.measure()
        return self.area <= self.next_area or (self.waist0 is not None and rmin <= self.next_waist)

    def validate(self) -> AxiProfile:
        return AxiProfile(self.verts.T, self.topology, self.period)

    def take(self, t: float, profile: AxiProfile) -> float:
        m = axi_metrics(profile)
        self.traj.snapshots.append(AxiSnapshot(t, profile, m))
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
    closed = topology == TOPOLOGY_PERIODIC
    ext, s = cv._arclength(rows, closed=closed)
    total = float(s[-1])
    n = cv._sample_count(total, spacing, MIN_SAMPLES)
    if closed:
        return cv._interpolate_rows(s, ext, np.arange(n) * (total / n), periodic=True)
    targets = np.arange(n + 1) * (total / n)   # np.linspace(0, total, n + 1), bit for bit
    targets[-1] = total
    out = cv._interpolate_rows(s, ext, targets, periodic=False)
    out[:, 0] = rows[:, 0]
    out[:, -1] = rows[:, -1]
    out[1, 0] = 0.0
    out[1, -1] = 0.0
    return out


def run_axi(profile: AxiProfile, config: FlowConfig | None = None) -> AxiTrajectory:
    """Evolve a meridian by mean curvature until a pinch, collapse or stop.

    The curve driver's loop (``flow1d._evolve``) steps it, so snapshots,
    stops and the single terminal event follow the same rules as for curves.
    Neck events (neck-pinch for axis-bounded and cylinder topologies,
    torus-collapse for periodic ones) fire when the waist drops below
    max(1e-3 x initial waist, 5 x local spacing); the run halts at the event
    instead of continuing through the singularity.  A profile whose true
    waist starts below sqrt(2) x that threshold raises
    :class:`InvalidInputError`: it would report a pinch before the neck had
    used half its lifetime.
    """
    config = config or FlowConfig()
    state = _AxiState(profile, config)
    [state.traj.stats] = _evolve([state], config)
    return state.traj


# ---------------------------------------------------------------------------
# Neck analysis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NeckReport:
    pinch_time: float                       # fitted T with r(t)^2 = 2 (T - t)
    series: NDArray[np.float64]             # (m, 2) columns (time, min_radius)
    window: NDArray[np.bool_]               # the rows of series the fit reads


def neck_report(traj: AxiTrajectory) -> NeckReport:
    """One-parameter fit of the shrinking-cylinder law to the waist series.

    Fits min_radius(t)^2 = 2 (T - t) by least squares over the last decade of
    waist decay (radii within 10x of the smallest recorded value).
    """
    kinds = {e.kind for e in traj.events}
    if not kinds & {EVENT_NECK_PINCH, EVENT_TORUS_COLLAPSE}:
        raise NoNeckError("trajectory has no neck-pinch or torus-collapse event")
    times = traj.times()
    radii = traj.min_radii()
    r_last = radii.min()
    mask = radii <= 10.0 * r_last
    if mask.sum() < 3:
        raise NoNeckError("too few snapshots in the final decade of waist decay")
    t_sel = times[mask]
    r_sel = radii[mask]
    pinch = float(np.mean(t_sel + 0.5 * r_sel * r_sel))
    return NeckReport(pinch, np.column_stack([times, radii]), mask)


# ---------------------------------------------------------------------------
# Profile text format
# ---------------------------------------------------------------------------

def format_profile(profile: AxiProfile) -> str:
    header = f"# topology={profile.topology}"
    if profile.period is not None:
        header += f" period={profile.period:.17g}"
    lines = [header]
    lines.extend(f"{x:.17g} {r:.17g}" for x, r in profile.samples)
    return "\n".join(lines) + "\n"


def parse_profile(text: str) -> AxiProfile:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# topology="):
        raise InvalidInputError("profile text must start with '# topology=...'")
    head = lines[0][2:].split()
    topology = head[0].split("=", 1)[1]
    period = None
    for tok in head[1:]:
        key, _, val = tok.partition("=")
        if key == "period":
            try:
                period = float(val)
            except ValueError as exc:
                raise InvalidInputError(f"bad period value {val!r}") from exc
        else:
            raise InvalidInputError(f"unknown profile header field {key!r}")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) != 2:
            raise InvalidInputError(f"line {lineno}: expected 'x r', got {line!r}")
        try:
            rows.append((float(parts[0]), float(parts[1])))
        except ValueError as exc:
            raise InvalidInputError(f"line {lineno}: non-numeric value") from exc
    return AxiProfile(np.array(rows, dtype=np.float64), topology, period)


def write_profile(profile: AxiProfile, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_profile(profile))


def read_profile(path) -> AxiProfile:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_profile(fh.read())
