"""Explicit evolution of closed plane curves with normal speed sign(k) |k|^p.

The driver is deliberately plain: explicit Runge-Kutta-Legendre steps (RKL2:
Meyer, Balsara and Aslam, J. Comput. Phys. 257, 2014; s velocity evaluations
are stable over (s^2 + s - 2) / 4 forward-Euler steps of the parabolic bound,
second order in time, with no solve), periodic tangential redistribution
through a local cubic interpolant (linear chord resampling would bleed area
every pass), and snapshots recorded on a geometric schedule in remaining area
so the approach to extinction is well sampled.
The same stepper, ``_evolve``, steps the other two drivers: the meridians of
``axisym`` and the open translating front of ``oracle``; every driver returns
the ``Trajectory`` of each state it stepped.  It owns the update:
each driver's ``plan`` fills ``vel`` with F(Y0) and returns its displacement
cap and its diffusive bound, and ``_evolve`` steps by the smallest of each;
after each later stage's geometry pass ``velocity`` refills ``vel``, and
each stage is one weighted sum over a bank of six (2, n + 2) buffers per
state: a row of ``_rkl2``'s table dotted with Y(j-1) (the point rows, x and
y or r, between two ghost columns), Y(j-2), Y0, F and F0.  All three drivers
share its step budget, caps and terminal events and make one geometry pass
per evaluation; curves and meridians also share its snapshot schedule.
``_evolve`` is a generator that yields at each pass, and ``_rounds`` runs
many of them together: each round it copies every live state's chain into
one stack and runs one ``curves._Stencil`` over it, and each state reads its
share of the outputs.  The first pass starts each state; after it, only the
pass at a step's end adds the area, and the next bound and every snapshot
read that pass.
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
EVENT_STALLED = "stalled"


@dataclass(frozen=True)
class SpeedLaw:
    """Normal speed F(k) = sign(k) |k|^p toward the inward normal."""

    p: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.p <= 8.0:
            raise InvalidInputError(f"law.p must be in (0, 8], got {self.p}")

    def speed_into(self, k: NDArray[np.float64], mag: NDArray[np.float64],
                   flat: NDArray[np.bool_], out: NDArray[np.float64]) -> NDArray[np.float64]:
        """sign(k) |k|^p, and +0.0 where |k| is below the clamp, written into ``out``
        and returned; ``mag`` and ``flat`` are scratch of k's shape."""
        np.abs(k, out=mag)
        np.less(mag, CURVATURE_CLAMP, out=flat)
        mag **= self.p   # the operator's own path, as in mag ** p
        np.sign(k, out=out)
        out *= mag
        np.copyto(out, 0.0, where=flat)
        return out


@dataclass(frozen=True)
class FlowConfig:
    """Stepping of a flow: how often it resamples and when it stops.  Each
    step's length and stage count are the loop's own (``_evolve``)."""

    resample_every: int = 10
    stop_area_fraction: float = 0.02
    max_curvature_stop: float | None = None      # None: BLOWUP_FACTOR * initial max
    max_steps: int = 2_000_000

    def __post_init__(self) -> None:
        # Each guard is written so that NaN fails it.
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
    evaluations of all steps, ``min_stages`` and ``max_stages`` those of the
    shortest and longest step (0 when the run took no step).  ``dt_mean`` is
    the end time over the steps; the dt figures are None when the run took no
    step."""

    steps: int
    evaluations: int
    min_stages: int
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
    ``bind`` on a new bank) and supply ``start`` (reads the run's first pass
    and calls ``schedule``), ``plan`` (fills ``vel`` with F(Y0) and returns
    the displacement cap, ``_cap``, and the forward-Euler diffusive bound;
    ``peak`` closes it at the curvature cap), ``velocity`` (``vel`` from the
    pass), ``resample`` (before the step's last pass), ``advance(t)`` (after
    it: the area, and is a snapshot due?), ``take(t)`` (build and check the
    snapshot's geometry, append it, return its area) and ``stop_kind``.  A
    geometry pass (``_pass``) reads ``pass_rows``: ``fill`` readies them, a
    round's stacked stencil runs, ``adopt`` keeps the state's share of its
    outputs and ``finish`` completes it.
    """

    stop_kind = EVENT_EXTINCTION
    law = SpeedLaw()   # of the trajectory: a meridian or front keeps p = 1
    chain = np.empty((2, 0))   # set_verts allocates each state's own, per point count

    def __init__(self, rows: NDArray[np.float64], first, config: FlowConfig):
        """Lay out the (2, n) point rows; ``first`` is the input geometry, the
        initial snapshot's.  The state starts in the first pass of its run."""
        self.first, self.config = first, config
        self.events: list[Event] = []
        self.last_time = 0.0   # of the latest snapshot; the initial one is at t = 0
        self.done = False
        self.set_verts(rows)

    def schedule(self, metrics, area0: float, k0: float, length: float) -> None:
        """Start from the first pass: the curvature cap, the resample spacing,
        the area schedule and ``traj``, which holds the initial snapshot of the
        input geometry and its ``metrics``, and which ``take`` appends to."""
        config = self.config
        self.cap = config.max_curvature_stop
        if self.cap is None:
            self.cap = BLOWUP_FACTOR * max(k0, 1.0)
        self.spacing = length / self.verts.shape[1]
        self.ratio = config.stop_area_fraction ** (1.0 / SNAPSHOT_LEVELS)
        self.next_area = area0 * self.ratio
        self.stop_area = config.stop_area_fraction * area0
        self.traj = Trajectory([Snapshot(0.0, self.first, metrics)], self.events, self.law)

    def set_verts(self, rows: NDArray[np.float64]) -> None:
        """Copy (2, n) point rows into ``verts``, the inside of the (2, n + 2)
        ``chain`` (ghost, points, ghost): slot 0 of ``bank``, whose six slots,
        zeroed when n changes, are Y(j-1), Y(j-2), Y0, F (inside: ``vel``), F0
        and a stage's output.  Each slot flattened to one row, a stage reads the
        first five as ``stage_in``, writes ``stage_out`` and shifts it into
        ``newest`` (slot 0) after ``newest`` into ``older`` (slot 1).  A new
        bank, on the first call and on a resample that changes n, is bound
        anew (``bind``), so no view into the old one survives it."""
        if self.chain.shape[1] != rows.shape[1] + 2:
            self.bank = np.zeros((6, 2, rows.shape[1] + 2))   # 0 x an unread entry must be 0
            flat = self.bank.reshape(6, -1)
            self.stage_in, self.stage_out, self.older, self.newest = flat[:5], flat[5], flat[1], flat[0]
            self.chain = self.bank[0]
            self.verts = self.chain[:, 1:-1]
            self.vel = self.bank[3, :, 1:-1]
            self.pass_rows = self.chain
            self.bind()
        self.verts[...] = rows

    def bind(self) -> None:
        """Bind the views of a new bank that the state's own steps read."""

    def fill(self) -> None:
        """Ready ``pass_rows`` for a pass: the ghost columns."""

    def adopt(self, share: cv._Share) -> None:
        """Keep ``share``, this state's part of a round's stacked pass, and its
        curvature, left normal and edge lengths."""
        self.geo, self.k, self.left, self.seg = share, share.k, share.left, share.seg

    def finish(self) -> None:
        """Complete a pass from the share it adopted."""

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
    covers tau, and the step: tau, cut to that bound at MAX_STAGES.  ``_evolve``
    passes the smallest forward-Euler bound in full: each is at most h_min^2 / (2 D),
    and by Gershgorin the three-point stencil's eigenvalues are at most 4 D / h_min^2."""
    s = 2
    while s < MAX_STAGES and tau > euler * (s * s + s - 2) / 4.0:
        s += 1
    return s, min(tau, euler * (s * s + s - 2) / 4.0)


def _pass(states: list[_FlowState]):
    """One geometry pass of ``states``: fill their rows, yield them to
    ``_rounds``, which runs the stacked stencil, and finish the pass."""
    for s in states:
        s.fill()
    yield states
    for s in states:
        s.finish()


def _evolve(states: list[_FlowState], config: FlowConfig):
    """Step every state on one clock until one stops, the step budget runs out
    or the clock stalls (t + tau == t): a generator for ``_rounds``.

    The first ``_pass`` starts every state.  A step is one RKL2 step over
    tau, the smallest cap a ``plan`` returns, in ``_stage_count``'s stages.
    Stage j writes Y(j), one weighted sum of a bank's first five slots, into
    slot 5, then shifts Y(j-1) into slot 1 and Y(j) into the chain.  A
    ``_pass`` follows every stage but the last, and one ends the step.
    Returns each state's trajectory, in order, with its stats.
    """
    yield from _pass(states)
    for s in states:
        s.start()
    t = 0.0
    steps = evaluations = max_stages = 0
    min_stages = MAX_STAGES
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

        stages, tau = _stage_count(tau, dt_e)
        if t + tau == t:   # tau is below half an ulp of t: the clock has stalled
            break
        weights = _rkl2(stages) * [1.0, 1.0, 1.0, tau, tau]
        for s in states:
            s.bank[2] = s.bank[0]   # Y0
            s.bank[4] = s.bank[3]   # F0, which plan left in F
        for j, w in enumerate(weights):
            if j:
                yield from _pass(states)
            for s in states:
                if j:
                    s.velocity()
                np.dot(w, s.stage_in, out=s.stage_out)
                s.older[...] = s.newest   # Y(j-1), the next stage's Y(j-2)
                s.newest[...] = s.stage_out   # Y(j)
        t += tau
        steps += 1
        evaluations += stages
        min_stages = min(min_stages, stages)
        max_stages = max(max_stages, stages)
        dt_min = min(dt_min, tau)
        dt_max = max(dt_max, tau)
        if steps % config.resample_every == 0:
            for s in states:
                s.resample()
        yield from _pass(states)
        if any([s.advance(t) for s in states]):
            for s in states:
                if not s.done:
                    s.snapshot(t)
        if any(s.done for s in states):
            break

    # Close the live trajectories: a partner on the shared clock stopped, the
    # budget ran out, or the clock stalled.
    kind = (EVENT_PARTNER_STOPPED if any(s.done for s in states)
            else EVENT_STEP_BUDGET if steps == config.max_steps else EVENT_STALLED)
    for s in states:
        if not s.done:
            s.close(t, Event(kind, t))
    dts = (float(dt_min), t / steps, float(dt_max)) if steps else (None, None, None)
    min_stages = min_stages if steps else 0
    for s in states:
        s.traj.stats = RunStats(steps, evaluations, min_stages, max_stages,
                                steps // config.resample_every, len(s.traj.snapshots), *dts,
                                s.events[-1].kind)
    return [s.traj for s in states]


def _rounds(steppers: list) -> list:
    """Run steppers such as ``_evolve`` together, one stacked pass a round.

    Each round resumes every live stepper, which runs to its next pass and
    yields its states with their rows filled, or ends.  Then one
    ``curves._Stencil`` runs over one stack that holds every live state's
    ``pass_rows`` end to end, copied in.  The stack is laid out anew, and each
    state adopts its ``share``, only when a stepper ends or a resample gives a
    state new rows; so the next pass is stacked the same as long as no stepper
    ends and no state changes its point count.  Returns each stepper's
    result, or the exception it raised, in order; a stepper that raises ends
    and drops its states, and the others run on.
    """
    outcomes: list = [None] * len(steppers)
    live, members = list(enumerate(steppers)), []
    while live:
        pending = []
        for i, stepper in live:
            try:
                pending.append((i, stepper, next(stepper)))
            except StopIteration as stop:
                outcomes[i] = stop.value
            except Exception as exc:   # this stepper's own failure
                outcomes[i] = exc
        if not pending:
            break
        if (len(pending) < len(live) or not members
                or any(s.pass_rows is not rows for s, rows, _ in members)):
            states = [s for _, _, group in pending for s in group]
            ends = np.cumsum([0] + [s.pass_rows.shape[1] for s in states]).tolist()
            stack = np.empty((2, ends[-1]))
            stencil = cv._Stencil(stack)
            members = []
            for s, start, end in zip(states, ends, ends[1:]):
                s.adopt(stencil.share(start, end - start - 2))
                members.append((s, s.pass_rows, stack[:, start:end]))
        live = [(i, stepper) for i, stepper, _ in pending]
        for _, rows, place in members:
            place[...] = rows
        stencil()
    return outcomes


def _alone(stepper):
    """Run one stepper by ``_rounds``: return its result or raise its exception."""
    [outcome] = _rounds([stepper])
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


class _CurveState(_FlowState):
    """One curve under the speed law.

    Between snapshots the curve lives as raw rows, x in ``verts[0]`` and y in
    ``verts[1]``: the inside of a (2, n + 2) chain buffer with a ghost column at
    each end, reallocated only when a resample changes the vertex count.  A step
    moves the rows in place, with one geometry pass per stage after the first
    and one at its end, after which ``advance`` alone adds ``measure_area``;
    the next ``plan``, the snapshot schedule and the snapshot's metrics and
    checks all read the curvature, normal, edge lengths, turns and area it
    keeps.  The validated curve object is only built when a snapshot is
    recorded.
    """

    def __init__(self, curve: cv.PlaneCurve, law: SpeedLaw, config: FlowConfig):
        super().__init__(curve.vertices.T, curve, config)
        self.law = law

    def start(self) -> None:
        self.measure_area()
        m = cv._metrics_of(self.k, self.seg, self.area)
        k0 = max(abs(m.min_curvature), abs(m.max_curvature))
        self.schedule(m, abs(m.enclosed_area), k0, m.length)
        self.was_convex = m.convex

    def bind(self) -> None:
        """The ghost columns with the points they wrap to, the buffers
        ``velocity`` writes the speed into at p != 1, and the shoelace terms of
        ``measure_area`` with the two buffers it multiplies them into."""
        c = self.chain
        self.wraps = (c[:, 0], c[:, -2]), (c[:, -1], c[:, 1])
        n = c.shape[1] - 2
        self.speed_bufs = np.empty(n), np.empty(n, bool), np.empty(n)
        (x, y), self.area_bufs = c, (np.empty(n), np.empty(n))
        self.area_terms = (x[1:-1], y[2:]), (x[2:], y[1:-1])

    def fill(self) -> None:
        """The ghost columns: the points they wrap to.  The speed law is odd in
        k, so speed(k) times the pass's left normal is the inward velocity for
        either traversal direction."""
        for ghost, point in self.wraps:
            ghost[...] = point

    def measure_area(self) -> None:
        """Keep the signed area of the chain the pass read."""
        (forward, backward), (a, b) = self.area_terms, self.area_bufs
        np.subtract(np.multiply(*forward, out=a), np.multiply(*backward, out=b), out=a)
        self.area = 0.5 * float(a.sum())

    def velocity(self) -> NDArray[np.float64]:
        """Fill ``vel`` with the measured speed along the left normal; return the speed."""
        speed = self.k if self.law.p == 1.0 else self.law.speed_into(self.k, *self.speed_bufs)
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
            # The linearised law diffuses at F'(k) = p |k|^(p-1).  Curvature
            # below 1 / length is floored there, so that roundoff curvature on
            # a flat side cannot collapse the bound at p < 1.  The floor cuts
            # F' off at near-flat points, so p < 1 keeps a 1 / p margin: the
            # factor is max(p, 1), not p.
            floor = 1.0 / float(self.seg[1:].sum())
            diffusivity = max(p, 1.0) * float(np.max(np.maximum(np.abs(k), floor) ** (p - 1.0)))
        h = float(self.seg.min())
        vmax = kmax if p == 1.0 else float(np.abs(speed).max())
        return _cap(h, vmax), h * h / (2.0 * diffusivity)

    def resample(self) -> None:
        self.chain[:, -1] = self.verts[:, 0]   # close the rows for the resample
        self.set_verts(cv.spline_resample_array(self.chain[:, 1:], self.spacing))

    def advance(self, t: float) -> bool:
        self.measure_area()
        return abs(self.area) <= self.next_area

    def take(self, t: float) -> float:
        """``PlaneCurve``'s and ``is_embedded``'s checks on the pass."""
        curve = object.__new__(cv.PlaneCurve)
        diam = curve._adopt(self.verts.T, self.seg[1:], self.area)
        m = cv._metrics_of(self.k, self.seg, self.area)
        self.traj.snapshots.append(Snapshot(t, curve, m))
        if m.convex and not self.was_convex:
            self.events.append(Event(EVENT_CONVEXIFICATION, t))
        self.was_convex = m.convex
        if not cv._is_simple(curve.vertices, diam, stencil=self.geo):
            self.end(Event(EVENT_EMBEDDEDNESS_LOSS, t))
        return abs(m.enclosed_area)


def _curve_steps(curves: list[cv.PlaneCurve], law: SpeedLaw, config: FlowConfig | None):
    """The stepper of ``co_evolve`` and ``run``: the curves' states on one clock."""
    if not curves:
        raise InvalidInputError("need at least one curve")
    config = config or FlowConfig()
    return (yield from _evolve([_CurveState(c, law, config) for c in curves], config))


def run(curve: cv.PlaneCurve, law: SpeedLaw, config: FlowConfig | None = None) -> Trajectory:
    """Evolve one curve until an area stop, curvature stop or step budget."""
    return _alone(_curve_steps([curve], law, config))[0]


def co_evolve(
    curve_list: list[cv.PlaneCurve], law: SpeedLaw, config: FlowConfig | None = None
) -> list[Trajectory]:
    """Evolve several curves on a shared clock with shared snapshot times.

    The run ends when the first curve reaches a stop condition, so every
    trajectory covers the same time interval with identical snapshot times;
    the others then end with a ``partner-stopped`` event.
    """
    return _alone(_curve_steps(curve_list, law, config))


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
