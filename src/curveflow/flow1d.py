"""Explicit evolution of closed plane curves with normal speed sign(k) |k|^p.

The driver is deliberately plain: forward Euler under a parabolic CFL bound,
periodic tangential redistribution through a local cubic interpolant (linear
chord resampling would bleed area every pass), and snapshots recorded on a
geometric schedule in remaining area so the approach to extinction is well
sampled.
The same loop, ``_evolve``, steps the other two drivers: the meridians of
``axisym`` and the open translating front of ``oracle``.  It owns the Euler
step: each driver's ``plan`` fills ``vel`` and returns a bound, the loop moves
every driver's (2, n) point rows, x and y (or r), and ``advance`` follows.  All
three share its step budget, displacement and curvature caps and terminal
events.  Curves and meridians also share its snapshot schedule, keep their
rows between two ghost columns of a (2, n + 2) chain, and end each step with
one geometry pass that the next bound and the snapshots read.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from . import curves as cv
from .errors import (
    ExtinctError,
    FitFailureError,
    InvalidInputError,
    NumericalBreakdownError,
)

# Curvatures below this are treated as exactly flat, so degenerate-power laws
# (p < 1) send them nowhere instead of amplifying noise.
CURVATURE_CLAMP = 1e-12
# Auto stop threshold: halt when max |k| exceeds this multiple of the initial.
BLOWUP_FACTOR = 1e4
# Number of geometric area levels aimed for between start and stop.
SNAPSHOT_LEVELS = 140
# Largest fraction of the local spacing a vertex may move per step.
DISPLACEMENT_FRACTION = 0.25

EVENT_EXTINCTION = "extinction-approach"
EVENT_BLOWUP = "curvature-blowup"
EVENT_EMBEDDEDNESS_LOSS = "embeddedness-loss"
EVENT_CONVEXIFICATION = "convexification"
EVENT_STEP_BUDGET = "step-budget"
EVENT_PARTNER_STOPPED = "partner-stopped"


@dataclass(frozen=True)
class SpeedLaw:
    """Normal speed F(k) = sign(k) |k|^p toward the inward normal."""

    p: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.p <= 8.0:
            raise InvalidInputError(f"law.p must be in (0, 8], got {self.p}")

    def speed(self, k: NDArray[np.float64]) -> NDArray[np.float64]:
        mag = np.abs(k)
        out = np.where(mag < CURVATURE_CLAMP, 0.0, np.sign(k) * mag ** self.p)
        return out


@dataclass(frozen=True)
class FlowConfig:
    cfl_factor: float = 0.4
    resample_every: int = 10
    stop_area_fraction: float = 0.02
    max_curvature_stop: float | None = None      # None: BLOWUP_FACTOR * initial max
    max_steps: int = 2_000_000

    def __post_init__(self) -> None:
        # Each guard is written so that NaN fails it.
        if not 0.0 < self.cfl_factor <= 1.0:
            raise InvalidInputError("cfl_factor must be in (0, 1]")
        if not self.resample_every > 0:
            raise InvalidInputError("resample_every must be positive")
        if not 0.0 < self.stop_area_fraction < 1.0:
            raise InvalidInputError("stop_area_fraction must be in (0, 1)")
        if self.max_curvature_stop is not None and not self.max_curvature_stop > 0:
            raise InvalidInputError("max_curvature_stop must be positive")
        if not self.max_steps > 0:
            raise InvalidInputError("max_steps must be positive")


@dataclass(frozen=True)
class Event:
    kind: str
    time: float
    location: tuple[float, float] | None = None


@dataclass(frozen=True)
class RunStats:
    """What ``_evolve`` did for one trajectory.  It holds no wall times, so
    equal inputs give equal stats.  ``dt_mean`` is the end time over the
    steps; the dt figures are None when the run took no step."""

    steps: int
    resamples: int
    snapshots: int
    dt_min: float | None
    dt_mean: float | None
    dt_max: float | None
    event: str


@dataclass(frozen=True)
class Snapshot:
    time: float
    curve: cv.PlaneCurve
    metrics: cv.CurveMetrics


@dataclass
class Trajectory:
    snapshots: list[Snapshot]
    events: list[Event] = field(default_factory=list)
    law: SpeedLaw = field(default_factory=SpeedLaw)
    stats: RunStats | None = None

    def times(self) -> NDArray[np.float64]:
        return np.array([s.time for s in self.snapshots])

    def areas(self) -> NDArray[np.float64]:
        return np.array([abs(s.metrics.enclosed_area) for s in self.snapshots])

    def final(self) -> Snapshot:
        return self.snapshots[-1]


class _FlowState:
    """One trajectory in ``_evolve``: the stop cap, spacing and area schedule.

    Every terminal event goes through :meth:`end` into ``events``, so there is
    exactly one and it is the last.  Subclasses keep their points as (2, n)
    rows in ``verts`` and supply ``plan`` (fills ``vel`` and returns a bound,
    or closes the state), ``advance(t, resample)`` (is a snapshot due?),
    ``validate``, ``take`` (keep a snapshot, return its area) and ``stop_kind``.
    """

    stop_kind = EVENT_EXTINCTION
    chain = np.empty((2, 0))   # set_verts allocates each state's own, per point count

    def __init__(self, config: FlowConfig, area0: float, k0: float, length: float, count: int):
        self.events: list[Event] = []
        self.last_time = 0.0   # of the latest snapshot; the initial one is at t = 0
        self.cfl = config.cfl_factor
        self.cap = config.max_curvature_stop
        if self.cap is None:
            self.cap = BLOWUP_FACTOR * max(k0, 1.0)
        self.spacing = length / count
        self.ratio = config.stop_area_fraction ** (1.0 / SNAPSHOT_LEVELS)
        self.next_area = area0 * self.ratio
        self.stop_area = config.stop_area_fraction * area0
        self.done = False
        self.snapshots = 1   # the one at t = 0

    def set_verts(self, rows: NDArray[np.float64]) -> None:
        """Copy (2, n) point rows into ``verts``, the inside of the (2, n + 2)
        ``chain``: a ghost column, the points, a ghost column."""
        if self.chain.shape[1] != rows.shape[1] + 2:
            self.chain = np.empty((2, rows.shape[1] + 2))
            self.verts = self.chain[:, 1:-1]
        self.verts[...] = rows

    def capped(self, dt: float, h: float, vmax: float) -> float:
        """dt, cut so no point moves over DISPLACEMENT_FRACTION of h at speed vmax."""
        return min(dt, DISPLACEMENT_FRACTION * h / vmax) if vmax > 0 else dt

    def end(self, event: Event) -> None:
        """Append a terminal event unless the trajectory already has one."""
        if not self.done:
            self.events.append(event)
            self.done = True

    def peak(self, t: float, k: NDArray[np.float64], rows: NDArray[np.float64]) -> float | None:
        """Largest |k|, or None once the trajectory is closed on reaching the cap."""
        mag = np.abs(k)
        kmax = float(mag.max())
        if kmax < self.cap:
            return kmax
        i = int(np.argmax(mag))
        self.close(t, Event(EVENT_BLOWUP, t, (float(rows[0, i]), float(rows[1, i]))))
        return None

    def record(self, t: float, event: Event | None = None) -> float | None:
        """Snapshot the working points at t and return its area, then end with ``event``.

        Collapse below the extinction diameter ends with the stop event instead
        (returning None); any other degeneracy is a genuine failure.
        """
        try:
            geometry = self.validate()
        except ExtinctError:
            self.end(Event(self.stop_kind, t, self.centre()))
            return None
        except InvalidInputError as exc:
            raise NumericalBreakdownError(f"geometry degenerated at t={t:.6g}: {exc}") from exc
        area = self.take(t, geometry)
        self.snapshots += 1
        self.last_time = t
        if event is not None:
            self.end(event)
        return area

    def close(self, t: float, event: Event) -> None:
        """End with ``event`` on a snapshot at t, reusing one just taken."""
        if self.last_time == t:
            self.end(event)
        else:
            self.record(t, event)

    def snapshot(self, t: float) -> None:
        """Scheduled snapshot; stops once the area fraction is reached."""
        area = self.record(t)
        if area is not None:
            self.next_area = area * self.ratio
            if area <= self.stop_area:
                self.end(Event(self.stop_kind, t, self.centre()))

    def centre(self) -> tuple[float, float]:
        c = self.verts.T.copy().mean(axis=0)   # C order: mean sums as on (n, 2) points
        return float(c[0]), float(c[1])


def _evolve(states: list[_FlowState], config: FlowConfig) -> list[RunStats]:
    """Step every state on one clock until one stops or the step budget runs out.

    A step moves every state's ``verts`` by dt ``vel`` (forward Euler), dt the
    smallest bound a ``plan`` returns.  Returns the stats of each state, in order.
    """
    t = 0.0
    steps = 0
    dt_min, dt_max = np.inf, 0.0
    while steps < config.max_steps:
        dt = np.inf
        for s in states:
            dt = min(dt, s.plan(t))
            if s.done:   # closed in plan: a curvature blow-up or a time horizon
                break
        if s.done:
            break

        for s in states:
            s.vel *= dt
            s.verts += s.vel
        t += dt
        steps += 1
        dt_min = min(dt_min, dt)
        dt_max = max(dt_max, dt)
        resample = steps % config.resample_every == 0
        due = [s.advance(t, resample) for s in states]
        if any(due):
            for s in states:
                if not s.done:
                    s.snapshot(t)
        if any(s.done for s in states):
            break

    # Close the live trajectories: a partner on the shared clock stopped, or the budget ran out.
    kind = EVENT_PARTNER_STOPPED if any(s.done for s in states) else EVENT_STEP_BUDGET
    for s in states:
        if not s.done:
            s.close(t, Event(kind, t))
    dts = (float(dt_min), t / steps, float(dt_max)) if steps else (None, None, None)
    return [RunStats(steps, steps // config.resample_every, s.snapshots, *dts, s.events[-1].kind)
            for s in states]


class _CurveState(_FlowState):
    """One curve under the speed law.

    Between snapshots the curve lives as raw rows, x in ``verts[0]`` and y in
    ``verts[1]``: the inside of a (2, n + 2) chain buffer with a ghost column at
    each end, reallocated only when a resample changes the vertex count.  A step
    moves the rows in place and ends with one geometry pass, ``measure``; the
    next ``plan``, the snapshot schedule and the snapshot's metrics all read the
    curvature, normal, edge lengths and area it keeps.  The validated curve
    object is only built when a snapshot is recorded.
    """

    def __init__(self, curve: cv.PlaneCurve, law: SpeedLaw, config: FlowConfig):
        self.set_verts(curve.vertices.T)
        self.measure()
        m = cv._metrics_of(self.k, self.seg, self.area)
        k0 = max(abs(m.min_curvature), abs(m.max_curvature))
        super().__init__(config, abs(m.enclosed_area), k0, m.length, len(curve))
        self.law = law
        self.was_convex = m.convex
        self.traj = Trajectory([Snapshot(0.0, curve, m)], self.events, law)

    def measure(self) -> None:
        """The step's geometry pass: fill the ghost columns and keep the curvature
        (positive for a left turn), unit left normal, edge lengths and signed
        area.  The speed law is odd in k, so speed(k) times the left normal is
        the inward velocity for either traversal direction."""
        x, y = self.chain[0], self.chain[1]
        x[0], x[-1], y[0], y[-1] = x[-2], x[1], y[-2], y[1]
        self.k, self.left, self.seg = cv._three_point(self.chain)
        self.area = 0.5 * float((x[1:-1] * y[2:] - x[2:] * y[1:-1]).sum())

    def plan(self, t: float) -> float:
        k = self.k
        kmax = self.peak(t, k, self.verts)
        if kmax is None:
            return np.inf
        p = self.law.p
        speed = k if p == 1.0 else self.law.speed(k)
        self.vel = self.left   # in the normal's buffer; the next measure makes a new one
        self.vel *= speed
        if p == 1.0:
            diffusivity = 1.0
        else:
            mag = np.abs(k)
            mag = mag[mag >= CURVATURE_CLAMP]
            diffusivity = float(np.max(mag ** (p - 1.0))) if len(mag) else 1.0
        h = float(self.seg.min())
        vmax = kmax if p == 1.0 else float(np.abs(speed).max())
        return self.capped(self.cfl * h * h / (2.0 * diffusivity), h, vmax)

    def advance(self, t: float, resample: bool) -> bool:
        due = abs(self.area) <= self.next_area   # the area measured before the step
        if resample:
            self.chain[:, -1] = self.verts[:, 0]   # close the rows for the resample
            self.set_verts(cv.spline_resample_array(self.chain[:, 1:], self.spacing))
        self.measure()
        return due

    def validate(self) -> cv.PlaneCurve:
        return cv.PlaneCurve(self.verts.T)

    def take(self, t: float, curve: cv.PlaneCurve) -> float:
        m = cv._metrics_of(self.k, self.seg, self.area)   # curve holds the measured points
        self.traj.snapshots.append(Snapshot(t, curve, m))
        if m.convex and not self.was_convex:
            self.events.append(Event(EVENT_CONVEXIFICATION, t))
        self.was_convex = m.convex
        if not cv.is_embedded(curve):
            self.end(Event(EVENT_EMBEDDEDNESS_LOSS, t))
        return abs(m.enclosed_area)


def run(curve: cv.PlaneCurve, law: SpeedLaw, config: FlowConfig | None = None) -> Trajectory:
    """Evolve one curve until an area stop, curvature stop or step budget."""
    config = config or FlowConfig()
    state = _CurveState(curve, law, config)
    [state.traj.stats] = _evolve([state], config)
    return state.traj


def co_evolve(
    curve_list: list[cv.PlaneCurve], law: SpeedLaw, config: FlowConfig | None = None
) -> list[Trajectory]:
    """Evolve several curves on a shared clock with shared snapshot times.

    The run ends when the first curve reaches a stop condition, so every
    trajectory covers the same time interval with identical snapshot times;
    the others then end with a ``partner-stopped`` event.
    """
    if not curve_list:
        raise InvalidInputError("need at least one curve")
    config = config or FlowConfig()
    states = [_CurveState(c, law, config) for c in curve_list]
    for s, stats in zip(states, _evolve(states, config)):
        s.traj.stats = stats
    return [s.traj for s in states]


# ---------------------------------------------------------------------------
# Trajectory analyses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AreaLaw:
    slope: float                 # least-squares d(area)/dt
    extinction_estimate: float   # zero crossing of the fitted line


def analyze_area_law(traj: Trajectory) -> AreaLaw:
    """Fit area(t) by a line; under unit-power flow the slope is -2 pi and the
    zero crossing predicts the extinction time (initial area / 2 pi)."""
    if traj.law.p != 1.0:
        raise InvalidInputError("area law analysis applies to p = 1 trajectories")
    if len(traj.snapshots) < 10:
        raise InvalidInputError("need at least 10 snapshots to fit the area law")
    times = traj.times()
    areas = traj.areas()
    slope, intercept = np.polyfit(times, areas, 1)
    if slope >= 0:
        raise InvalidInputError("area is not decreasing; no extinction estimate")
    return AreaLaw(slope=float(slope), extinction_estimate=float(-intercept / slope))


def convexification_time(traj: Trajectory) -> float | None:
    """Time of the first snapshot with nonnegative curvature everywhere."""
    for snap in traj.snapshots:
        if snap.metrics.convex:
            return snap.time
    return None


def rescaled_length_series(traj: Trajectory) -> list[tuple[float, float]]:
    """Length normalized to fixed enclosed area, L(t) sqrt(A0 / A(t)).

    Constant (2 sqrt(pi A0)) on shrinking circles; growth signals that the
    flow is driving the shape away from roundness.
    """
    a0 = abs(traj.snapshots[0].metrics.enclosed_area)
    out = []
    for snap in traj.snapshots:
        a = abs(snap.metrics.enclosed_area)
        out.append((snap.time, snap.metrics.length * float(np.sqrt(a0 / a))))
    return out


@dataclass(frozen=True)
class EllipseFit:
    center: tuple[float, float]
    semi_major: float
    semi_minor: float
    eccentricity: float
    angle: float        # radians, major axis vs x-axis
    residual: float     # RMS point-to-conic distance / bounding-box diameter


def fit_ellipse(curve: cv.PlaneCurve) -> EllipseFit:
    """Direct least-squares conic fit constrained to ellipses.

    Uses the stabilized scatter-matrix formulation; the returned residual is
    the RMS first-order (Sampson) distance of the vertices to the fitted conic
    divided by the bounding-box diameter, so it is dilation invariant.
    """
    pts = curve.vertices
    mean = pts.mean(axis=0)
    scale = float(np.abs(pts - mean).max())
    if scale <= 0:
        raise FitFailureError("degenerate point set")
    q = (pts - mean) / scale
    x, y = q[:, 0], q[:, 1]

    d1 = np.stack([x * x, x * y, y * y], axis=1)
    d2 = np.stack([x, y, np.ones_like(x)], axis=1)
    s1 = d1.T @ d1
    s2 = d1.T @ d2
    s3 = d2.T @ d2
    try:
        t_mat = -np.linalg.solve(s3, s2.T)
    except np.linalg.LinAlgError as exc:
        raise FitFailureError("degenerate design matrix") from exc
    m = s1 + s2 @ t_mat
    m_red = np.array([m[2] / 2.0, -m[1], m[0] / 2.0])
    try:
        eigval, eigvec = np.linalg.eig(m_red)
    except np.linalg.LinAlgError as exc:
        raise FitFailureError("conic eigenproblem failed") from exc
    evec = np.real(eigvec)
    cond = 4.0 * evec[0] * evec[2] - evec[1] ** 2
    real_enough = np.abs(np.imag(eigval)) < 1e-9 * (1.0 + np.abs(eigval))
    candidates = np.where(real_enough & (cond > 0))[0]
    if len(candidates) == 0:
        raise FitFailureError("no elliptical solution")
    a1 = evec[:, candidates[0]]
    a2 = t_mat @ a1
    A, B, C = a1
    D, E, F = a2

    det = 4.0 * A * C - B * B
    if det <= 0:
        raise FitFailureError("fitted conic is not an ellipse")
    x0 = (B * E - 2.0 * C * D) / det
    y0 = (B * D - 2.0 * A * E) / det
    f0 = F + (D * x0 + E * y0) / 2.0
    m33 = np.array([[A, B / 2.0], [B / 2.0, C]])
    lam, vecs = np.linalg.eigh(m33)
    axes2 = -f0 / lam
    if np.any(axes2 <= 0):
        raise FitFailureError("fitted conic is not an ellipse")
    axes = np.sqrt(axes2)
    order = np.argsort(axes)[::-1]
    semi_major = float(axes[order[0]] * scale)
    semi_minor = float(axes[order[1]] * scale)
    major_vec = vecs[:, order[0]]
    angle = float(np.arctan2(major_vec[1], major_vec[0]))

    # First-order distance in normalized coordinates, mapped back by the scale.
    qval = A * x * x + B * x * y + C * y * y + D * x + E * y + F
    gx = 2.0 * A * x + B * y + D
    gy = B * x + 2.0 * C * y + E
    grad = np.hypot(gx, gy)
    if np.any(grad <= 0):
        raise FitFailureError("vanishing conic gradient")
    dist = np.abs(qval) / grad * scale
    residual = float(np.sqrt(np.mean(dist * dist)) / cv.bbox_diameter(pts))

    center = (float(mean[0] + x0 * scale), float(mean[1] + y0 * scale))
    ecc = float(np.sqrt(max(0.0, 1.0 - (semi_minor / semi_major) ** 2)))
    return EllipseFit(center, semi_major, semi_minor, ecc, angle, residual)
