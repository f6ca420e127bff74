"""Explicit evolution of closed plane curves with normal speed sign(k) |k|^p.

The driver is deliberately plain: explicit Runge-Kutta-Legendre steps (RKL2:
Meyer, Balsara and Aslam, J. Comput. Phys. 257, 2014; s velocity evaluations
are stable over (s^2 + s - 2) / 4 forward-Euler steps of the parabolic bound,
second order in time, with no solve), periodic tangential redistribution
through a local cubic interpolant (linear chord resampling would bleed area
every pass), and snapshots recorded on a geometric schedule in remaining area
so the approach to extinction is well sampled.
The same loop, ``_evolve``, steps the other two drivers: the meridians of
``axisym`` and the open translating front of ``oracle``; every driver returns
the ``Trajectory`` of each state it stepped.  It owns the update:
each driver's ``plan`` fills ``vel`` with F(Y0) and returns its displacement
cap and its diffusive bound, and ``_evolve`` steps by the smallest of each;
``measure`` and ``velocity`` refill ``vel`` at each later stage, and
each stage is one weighted sum over a bank of six (2, n + 2) buffers per
state: a row of ``_rkl2``'s table dotted with Y(j-1) (the point rows, x and
y or r, between two ghost columns), Y(j-2), Y0, F and F0.  All three drivers
share its step budget, caps and terminal events and make one geometry pass
per evaluation; curves and meridians also share its snapshot schedule.  Each
state binds its stencil to its bank when the bank is allocated, so a stencil
call slices no view and allocates no array, and writes the same buffers each
time.  Only the pass ``advance`` makes at a step's end adds the area; the
next bound and every snapshot read that pass.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from functools import cache
from typing import TYPE_CHECKING

import numpy as np
from numpy.typing import NDArray

from . import curves as cv
from .errors import (
    ExtinctError,
    FitFailureError,
    InvalidInputError,
    NumericalBreakdownError,
)

if TYPE_CHECKING:   # axisym imports this module
    from .axisym import AxiMetrics, AxiProfile

# Curvatures below this are treated as exactly flat, so degenerate-power laws
# (p < 1) send them nowhere instead of amplifying noise.
CURVATURE_CLAMP = 1e-12
# Auto stop threshold: halt when max |k| exceeds this multiple of the initial.
BLOWUP_FACTOR = 1e4
# Number of geometric area levels aimed for between start and stop.
SNAPSHOT_LEVELS = 140
# Largest fraction of the local spacing a vertex may move per step.
DISPLACEMENT_FRACTION = 0.25
# Most velocity evaluations in one RKL2 step: stable over 409.5 Euler steps.
MAX_STAGES = 40

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
    """Stepping of a flow.  ``cfl_factor`` is the fraction of the stability
    bound that a step may use: a step of s RKL2 stages spans at most
    cfl_factor * dt_E * (s^2 + s - 2) / 4, with dt_E the forward-Euler
    diffusive bound.  The displacement cap sets the step, and s is the fewest
    stages that cover it; at MAX_STAGES the step is cut to that bound."""

    cfl_factor: float = 0.4
    resample_every: int = 10
    stop_area_fraction: float = 0.02
    max_curvature_stop: float | None = None      # None: BLOWUP_FACTOR * initial max
    max_steps: int = 2_000_000

    def __post_init__(self) -> None:
        # Each guard is written so that NaN fails it.
        if not 0.0 < self.cfl_factor <= 1.0:
            raise InvalidInputError("cfl_factor must be in (0, 1]")
        for name in ("resample_every", "max_steps"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or not value > 0:
                raise InvalidInputError(f"{name} must be a positive integer, got {value!r}")
        if not 0.0 < self.stop_area_fraction < 1.0:
            raise InvalidInputError("stop_area_fraction must be in (0, 1)")
        if self.max_curvature_stop is not None and not self.max_curvature_stop > 0:
            raise InvalidInputError("max_curvature_stop must be positive")


@dataclass(frozen=True)
class Event:
    kind: str
    time: float
    location: tuple[float, float] | None = None


@dataclass(frozen=True)
class RunStats:
    """What ``_evolve`` did for one trajectory.  It holds no wall times, so
    equal inputs give equal stats.  ``evaluations`` counts the velocity
    evaluations of all steps, ``max_stages`` those of the longest step.
    ``dt_mean`` is the end time over the steps; the dt figures are None when
    the run took no step."""

    steps: int
    evaluations: int
    max_stages: int
    resamples: int
    snapshots: int
    dt_min: float | None
    dt_mean: float | None
    dt_max: float | None
    event: str


@dataclass(frozen=True)
class Snapshot:
    """One recorded state of a curve run (a ``PlaneCurve`` and its ``CurveMetrics``),
    of a meridian run (an ``AxiProfile`` and its ``AxiMetrics``) or of an open
    front (its (n, 2) points, and no metrics: None)."""

    time: float
    geometry: cv.PlaneCurve | AxiProfile | NDArray[np.float64]
    metrics: cv.CurveMetrics | AxiMetrics | None


@dataclass
class Trajectory:
    """One curve, meridian or front run; a meridian or front keeps the default
    law, p = 1."""

    snapshots: list[Snapshot]
    events: list[Event] = field(default_factory=list)
    law: SpeedLaw = field(default_factory=SpeedLaw)
    stats: RunStats | None = None

    def times(self) -> NDArray[np.float64]:
        return np.array([s.time for s in self.snapshots])

    def areas(self) -> NDArray[np.float64]:
        self.require_curves("enclosed areas")
        return np.array([abs(s.metrics.enclosed_area) for s in self.snapshots])

    def require_curves(self, analysis: str) -> None:
        """Raise InvalidInputError unless every snapshot holds a plane curve."""
        if not all(isinstance(s.geometry, cv.PlaneCurve) for s in self.snapshots):
            raise InvalidInputError(
                f"{analysis}: needs a curve trajectory, not a meridian or front")

    def final(self) -> Snapshot:
        return self.snapshots[-1]


class _FlowState:
    """One trajectory in ``_evolve``: the stop cap, spacing and area schedule.

    Every terminal event goes through :meth:`end` into ``events``, so there is
    exactly one and it is the last; :meth:`close` ends on an event at t after
    a snapshot at t, and :meth:`record` only takes snapshots.  Subclasses keep
    their points as (2, n) rows in ``verts`` (``set_verts``, which calls
    ``bind`` on a new bank) and supply ``plan`` (fills ``vel`` with F(Y0) and
    returns the displacement cap, ``_cap``, and the forward-Euler diffusive
    bound; ``peak`` closes it at the curvature cap), ``measure`` and
    ``velocity`` (a geometry pass without the area, then ``vel``),
    ``advance(t, resample)`` (the last pass, with the area: is a snapshot
    due?), ``take(t)`` (build and check the snapshot's geometry, append it,
    return its area), ``stop_kind`` and ``traj``, the ``Trajectory`` that
    ``take`` appends to.
    """

    stop_kind = EVENT_EXTINCTION
    chain = np.empty((2, 0))   # set_verts allocates each state's own, per point count

    def __init__(self, config: FlowConfig, area0: float, k0: float, length: float, count: int):
        self.events: list[Event] = []
        self.last_time = 0.0   # of the latest snapshot; the initial one is at t = 0
        self.cap = config.max_curvature_stop
        if self.cap is None:
            self.cap = BLOWUP_FACTOR * max(k0, 1.0)
        self.spacing = length / count
        self.ratio = config.stop_area_fraction ** (1.0 / SNAPSHOT_LEVELS)
        self.next_area = area0 * self.ratio
        self.stop_area = config.stop_area_fraction * area0
        self.done = False

    def set_verts(self, rows: NDArray[np.float64]) -> None:
        """Copy (2, n) point rows into ``verts``, the inside of the (2, n + 2)
        ``chain`` (ghost, points, ghost): slot 0 of ``bank``, whose six slots,
        zeroed when n changes, are Y(j-1), Y(j-2), Y0, F (inside: ``vel``), F0
        and a stage's output; ``flat`` holds each slot as one row.  A new bank,
        on the first call and on a resample that changes n, is bound anew
        (``bind``), so no view into the old one survives it."""
        if self.chain.shape[1] != rows.shape[1] + 2:
            self.bank = np.zeros((6, 2, rows.shape[1] + 2))   # 0 x an unread entry must be 0
            self.flat = self.bank.reshape(6, -1)
            self.chain = self.bank[0]
            self.verts = self.chain[:, 1:-1]
            self.vel = self.bank[3, :, 1:-1]
            self.bind()
        self.verts[...] = rows

    def bind(self) -> None:
        """Bind ``stencil``, a :class:`curves._Stencil`, to the chain; ``measure``
        runs it."""
        self.stencil = cv._Stencil(self.chain)

    def end(self, event: Event) -> None:
        """Append a terminal event unless the trajectory already has one."""
        if not self.done:
            self.events.append(event)
            self.done = True

    def peak(self, t: float, k: NDArray[np.float64], rows: NDArray[np.float64]) -> float:
        """Largest |k|; on reaching the cap the trajectory is closed too."""
        mag = np.abs(k)
        kmax = float(mag.max())
        if kmax >= self.cap:
            i = int(np.argmax(mag))
            self.close(t, Event(EVENT_BLOWUP, t, (float(rows[0, i]), float(rows[1, i]))))
        return kmax

    def record(self, t: float) -> float | None:
        """Snapshot the working points at t and return its area.

        Collapse below the extinction diameter ends with the stop event instead
        (returning None); any other degeneracy is a genuine failure.
        """
        try:
            area = self.take(t)
        except ExtinctError:
            self.end(Event(self.stop_kind, t, self.centre()))
            return None
        except InvalidInputError as exc:
            raise NumericalBreakdownError(f"geometry degenerated at t={t:.6g}: {exc}") from exc
        self.last_time = t
        return area

    def close(self, t: float, event: Event) -> None:
        """End with ``event`` on a snapshot at t, reusing one just taken."""
        if self.last_time != t:
            self.record(t)
        self.end(event)

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


def _cap(h: float, vmax: float) -> float:
    """The displacement cap: the time in which no point moves over
    DISPLACEMENT_FRACTION of h at speed vmax (inf when nothing moves)."""
    return DISPLACEMENT_FRACTION * h / vmax if vmax > 0 else np.inf


@cache
def _rkl2(stages: int) -> NDArray[np.float64]:
    """Weights of an RKL2 step of ``stages`` evaluations (Meyer, Balsara and
    Aslam 2014, eq. 16-17), one row per stage over (Y(j-1), Y(j-2), Y0, F, F0);
    the F columns are to be scaled by the step.  Row 1 is Y0 + mu~_1 tau F0, row
    j >= 2 is (mu_j, nu_j, 1 - mu_j - nu_j, mu~_j, gamma~_j).  Read-only, cached."""
    w1 = 4.0 / (stages * stages + stages - 2)
    b = [1.0 / 3.0] * 2 + [(j * j + j - 2) / (2.0 * j * (j + 1)) for j in range(2, stages + 1)]
    table = np.zeros((stages, 5))
    table[0, 2:] = 1.0, 0.0, b[1] * w1
    for j in range(2, stages + 1):
        mu = (2 * j - 1) / j * b[j] / b[j - 1]
        nu = -(j - 1) / j * b[j] / b[j - 2]
        table[j - 1] = mu, nu, 1.0 - mu - nu, mu * w1, -(1.0 - b[j - 1]) * mu * w1
    table.setflags(write=False)
    return table


def _stage_count(tau: float, euler: float) -> tuple[int, float]:
    """The fewest stages s >= 2 whose stability bound euler (s^2 + s - 2) / 4
    covers tau, and the step: tau, cut to that bound at MAX_STAGES."""
    s = 2
    while s < MAX_STAGES and tau > euler * (s * s + s - 2) / 4.0:
        s += 1
    return s, min(tau, euler * (s * s + s - 2) / 4.0)


def _evolve(states: list[_FlowState], config: FlowConfig) -> list[Trajectory]:
    """Step every state on one clock until one stops or the step budget runs out.

    A step is one RKL2 step over tau, the smallest cap a ``plan`` returns, in
    as many stages as ``FlowConfig`` says.  Stage j writes Y(j), one weighted
    sum of a bank's first five slots, into slot 5, then shifts Y(j-1) into
    slot 1 and Y(j) into the chain.  Returns each state's trajectory, in
    order, with its stats.
    """
    t = 0.0
    steps = evaluations = max_stages = 0
    dt_min, dt_max = np.inf, 0.0
    while steps < config.max_steps:
        tau, dt_e = np.inf, np.inf
        for s in states:
            cap, bound = s.plan(t)
            if s.done:   # closed in plan: a curvature blow-up or a time horizon
                break
            tau, dt_e = min(tau, cap), min(dt_e, bound)
        if s.done:
            break

        stages, tau = _stage_count(tau, config.cfl_factor * dt_e)
        weights = _rkl2(stages) * [1.0, 1.0, 1.0, tau, tau]
        for s in states:
            s.bank[2] = s.bank[0]   # Y0
            s.bank[4] = s.bank[3]   # F0, which plan left in F
        for j, w in enumerate(weights):
            for s in states:
                if j:
                    s.measure()
                    s.velocity()
                np.dot(w, s.flat[:5], out=s.flat[5])
                s.flat[1] = s.flat[0]   # Y(j-1), the next stage's Y(j-2)
                s.flat[0] = s.flat[5]   # Y(j)
        t += tau
        steps += 1
        evaluations += stages
        max_stages = max(max_stages, stages)
        dt_min = min(dt_min, tau)
        dt_max = max(dt_max, tau)
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
    for s in states:
        s.traj.stats = RunStats(steps, evaluations, max_stages, steps // config.resample_every,
                                len(s.traj.snapshots), *dts, s.events[-1].kind)
    return [s.traj for s in states]


class _CurveState(_FlowState):
    """One curve under the speed law.

    Between snapshots the curve lives as raw rows, x in ``verts[0]`` and y in
    ``verts[1]``: the inside of a (2, n + 2) chain buffer with a ghost column at
    each end, reallocated only when a resample changes the vertex count.  A step
    moves the rows in place, with one geometry pass, ``measure``, per stage
    after the first and one at its end, which alone adds ``measure_area``; the
    next ``plan``, the snapshot schedule and the snapshot's metrics all read
    the curvature, normal, edge lengths and area it keeps.  The pass is the
    state's ``stencil``, bound with the chain: it overwrites the same
    curvature, normal and edge-length arrays at every call.  The validated
    curve object is only built when a snapshot is recorded.
    """

    def __init__(self, curve: cv.PlaneCurve, law: SpeedLaw, config: FlowConfig):
        self.set_verts(curve.vertices.T)
        self.measure()
        self.measure_area()
        m = cv._metrics_of(self.k, self.seg, self.area)
        k0 = max(abs(m.min_curvature), abs(m.max_curvature))
        super().__init__(config, abs(m.enclosed_area), k0, m.length, len(curve))
        self.law = law
        self.was_convex = m.convex
        self.traj = Trajectory([Snapshot(0.0, curve, m)], self.events, law)

    def bind(self) -> None:
        """The bound stencil, and the ghost columns with the points they wrap to."""
        super().bind()
        c = self.chain
        self.wraps = (c[:, 0], c[:, -2]), (c[:, -1], c[:, 1])

    def measure(self) -> None:
        """One geometry pass: fill the ghost columns and keep the curvature
        (positive for a left turn), unit left normal and edge lengths.  The
        speed law is odd in k, so speed(k) times the left normal is the inward
        velocity for either traversal direction."""
        for ghost, point in self.wraps:
            ghost[...] = point
        self.k, self.left, self.seg = self.stencil()

    def measure_area(self) -> None:
        """Keep the signed area of the chain ``measure`` filled."""
        x, y = self.chain
        self.area = 0.5 * float((x[1:-1] * y[2:] - x[2:] * y[1:-1]).sum())

    def velocity(self) -> NDArray[np.float64]:
        """Fill ``vel`` with the measured speed along the left normal; return the speed."""
        speed = self.k if self.law.p == 1.0 else self.law.speed(self.k)
        np.multiply(self.left, speed, out=self.vel)
        return speed

    def plan(self, t: float) -> tuple[float, float]:
        k = self.k
        kmax = self.peak(t, k, self.verts)
        p = self.law.p
        speed = self.velocity()
        if p == 1.0:
            diffusivity = 1.0
        else:
            # Curvature below 1 / length is floored there, so that roundoff
            # curvature on a flat side cannot collapse the bound at p < 1.
            floor = 1.0 / float(self.seg[1:].sum())
            diffusivity = float(np.max(np.maximum(np.abs(k), floor) ** (p - 1.0)))
        h = float(self.seg.min())
        vmax = kmax if p == 1.0 else float(np.abs(speed).max())
        return _cap(h, vmax), h * h / (2.0 * diffusivity)

    def advance(self, t: float, resample: bool) -> bool:
        if resample:
            self.chain[:, -1] = self.verts[:, 0]   # close the rows for the resample
            self.set_verts(cv.spline_resample_array(self.chain[:, 1:], self.spacing))
        self.measure()
        self.measure_area()
        return abs(self.area) <= self.next_area

    def take(self, t: float) -> float:
        curve = cv.PlaneCurve(self.verts.T)
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
    return _evolve([_CurveState(curve, law, config)], config)[0]


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
    return _evolve([_CurveState(c, law, config) for c in curve_list], config)


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
    traj.require_curves("area law analysis")
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
    traj.require_curves("convexification time")
    for snap in traj.snapshots:
        if snap.metrics.convex:
            return snap.time
    return None


def rescaled_length_series(traj: Trajectory) -> list[tuple[float, float]]:
    """Length normalized to fixed enclosed area, L(t) sqrt(A0 / A(t)).

    Constant (2 sqrt(pi A0)) on shrinking circles; growth signals that the
    flow is driving the shape away from roundness.
    """
    traj.require_curves("rescaled lengths")
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
