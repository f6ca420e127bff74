"""Closed-form reference solutions and the self-check that guards them.

Every closed form here is cross-validated against an independent fixed-step
RK4 integration of the underlying radius ODE before any other module is
allowed to lean on it; a disagreement beyond 1e-6 is a build-stopping defect.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.typing import NDArray

from . import curves as cv
from .errors import ExtinctError, InvalidInputError, NumericalBreakdownError
from .flow1d import Event, FlowConfig, Snapshot, Trajectory, _cap, _evolve, _FlowState

SHRINKER_KINDS = ("circle", "cylinder", "sphere")
MAX_POWER = 8.0
SELFCHECK_STEP = 1e-4
SELFCHECK_TOL = 1e-6
# The ends of the unit-speed grim reaper move straight up: (x, y) as a column.
FRONT_END_VELOCITY = np.array([[0.0], [1.0]])
EVENT_HORIZON = "horizon"


def shrinker_lifetime(kind: str, r0: float) -> float:
    if kind not in SHRINKER_KINDS:
        raise InvalidInputError(f"unknown shrinker kind {kind!r}")
    if not 0 < r0 < math.inf:
        raise InvalidInputError("r0 must be positive and finite")
    return r0 * r0 / (4.0 if kind == "sphere" else 2.0)


def shrinker_radius(kind: str, r0: float, t: float) -> float:
    """Radius at time t of a self-similarly shrinking circle, cylinder or sphere.

    Circles and cylinders lose radius as sqrt(r0^2 - 2t); spheres, with both
    principal curvatures active, as sqrt(r0^2 - 4t).
    """
    life = shrinker_lifetime(kind, r0)
    if not 0 <= t < math.inf:
        raise InvalidInputError("t must be nonnegative and finite")
    if t >= life:
        raise ExtinctError(f"{kind} of radius {r0} is extinct at t={t} (lifetime {life})")
    factor = 4.0 if kind == "sphere" else 2.0
    return math.sqrt(r0 * r0 - factor * t)


def power_circle_lifetime(r0: float, p: float) -> float:
    if not 0 < r0 < math.inf:
        raise InvalidInputError("r0 must be positive and finite")
    if not 0.0 < p <= MAX_POWER:
        raise InvalidInputError(f"p must be in (0, {MAX_POWER}], got {p}")
    return r0 ** (1.0 + p) / (1.0 + p)


def power_circle_radius(r0: float, p: float, t: float) -> float:
    """Radius of a circle moving inward with normal speed |k|^p.

    r' = -r^(-p) integrates exactly: r(t) = (r0^(1+p) - (1+p) t)^(1/(1+p)).
    """
    life = power_circle_lifetime(r0, p)
    if not 0 <= t < math.inf:
        raise InvalidInputError("t must be nonnegative and finite")
    if t >= life:
        raise ExtinctError(f"power-{p} circle of radius {r0} is extinct at t={t}")
    return (r0 ** (1.0 + p) - (1.0 + p) * t) ** (1.0 / (1.0 + p))


def grim_reaper(n: int = 161, half_width: float = 1.2) -> NDArray[np.float64]:
    """Open polyline sampling y = -ln(cos x), the curve that translates
    vertically at unit speed under curvature motion.  Columns are (x, y)."""
    if n < 16:
        raise InvalidInputError("n must be at least 16")
    if not 0.0 < half_width < math.pi / 2.0:
        raise InvalidInputError("half_width must lie in (0, pi/2)")
    x = np.linspace(-half_width, half_width, n)
    return np.stack([x, -np.log(np.cos(x))], axis=1)


# ---------------------------------------------------------------------------
# Independent ODE integration used to vouch for the closed forms
# ---------------------------------------------------------------------------

def _rk4_radius(c: float, p: float, r0: float, t_end: float, step: float) -> float:
    """Classic fixed-step RK4 on r' = -c r^(-p), with the stages inline; at
    p = 1 each stage divides (-c / r) instead of taking a power."""
    r = r0
    t = 0.0
    nc, q = -c, -p
    while t < t_end - 1e-15:
        h = min(step, t_end - t)
        if p == 1.0:
            k1 = nc / r
            k2 = nc / (r + 0.5 * h * k1)
            k3 = nc / (r + 0.5 * h * k2)
            k4 = nc / (r + h * k3)
        else:
            k1 = nc * r ** q
            k2 = nc * (r + 0.5 * h * k1) ** q
            k3 = nc * (r + 0.5 * h * k2) ** q
            k4 = nc * (r + h * k3) ** q
        r += (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
    return r


def selfcheck() -> dict[str, float]:
    """Absolute closed-form vs RK4 mismatch for each oracle, at RK4 step
    SELFCHECK_STEP; all must sit below SELFCHECK_TOL or the oracles cannot be
    trusted."""
    step = SELFCHECK_STEP
    cases = {}

    r = _rk4_radius(1.0, 1.0, 1.0, 0.375, step)
    cases["circle_p1"] = abs(r - shrinker_radius("circle", 1.0, 0.375))

    r = _rk4_radius(1.0, 1.0, 0.2, 0.015, step)
    cases["cylinder"] = abs(r - shrinker_radius("cylinder", 0.2, 0.015))

    r = _rk4_radius(2.0, 1.0, 1.0, 0.1875, step)
    cases["sphere"] = abs(r - shrinker_radius("sphere", 1.0, 0.1875))

    for p, label in ((1.0 / 3.0, "power_cuberoot"), (0.2, "power_fifthroot"), (2.0, "power_square")):
        r = _rk4_radius(1.0, p, 1.0, 0.3, step)
        cases[label] = abs(r - power_circle_radius(1.0, p, 0.3))

    return cases


# ---------------------------------------------------------------------------
# Direct Lagrangian evolution of an open front whose ends move at unit speed
# ---------------------------------------------------------------------------

class _FrontState(_FlowState):
    """An open chain whose interior moves by its curvature vector and whose two
    ends, the stencil's neighbours (no ghosts), move at FRONT_END_VELOCITY until
    t reaches ``duration``.  Resampling keeps the point count; the trajectory
    keeps the start and the snapshot taken at the end."""

    def __init__(self, points, duration: float, config: FlowConfig):
        start = cv._checked_points(points, 4, closed=False, noun="front points")[0]
        self.set_verts(start.T)
        self.measure()
        # An open chain encloses no area, and the front never snapshots on one.
        super().__init__(config, 0.0, float(np.abs(self.k).max()), float(self.seg.sum()),
                         self.verts.shape[1])
        self.duration = duration
        self.vel[:, [0, -1]] = FRONT_END_VELOCITY   # once: a resample keeps the bank
        self.traj = Trajectory([Snapshot(0.0, start, None)], self.events)

    def bind(self) -> None:
        """The stencil on the points alone, and the velocity of the interior."""
        self.stencil = cv._Stencil(self.verts)
        self.vel_inside = self.vel[:, 1:-1]

    def measure(self) -> None:
        self.k, self.left, self.seg = self.stencil()

    def velocity(self) -> None:
        np.multiply(self.k, self.left, out=self.vel_inside)

    def plan(self, t: float) -> tuple[float, float]:
        """Fill ``vel`` from the last pass; the horizon joins the displacement cap."""
        if t >= self.duration - 1e-15:
            self.close(t, Event(EVENT_HORIZON, t))
            return np.inf, np.inf
        kmax = self.peak(t, self.k, self.verts[:, 1:-1])
        self.velocity()
        h_min = float(self.seg.min())
        return min(_cap(h_min, kmax), self.duration - t), h_min * h_min / 2.0

    def advance(self, t: float, resample: bool) -> bool:
        if resample:
            _, s = cv._arclength(self.verts, closed=False)
            targets = np.linspace(0.0, s[-1], self.verts.shape[1])
            self.set_verts(cv._interpolate_rows(s, self.verts, targets, periodic=False))
        self.measure()
        return False

    def take(self, t: float) -> float:
        pts = cv._checked_points(self.verts.T, 4, closed=False, noun="front points")[0]
        self.traj.snapshots.append(Snapshot(t, pts, None))
        return 0.0   # no area: the front never snapshots on a schedule


def evolve_translating_front(
    points: NDArray[np.float64], duration: float, config: FlowConfig | None = None
) -> Trajectory:
    """March an open polyline by its curvature vector for ``duration``, its ends
    moving up at unit speed, and return its trajectory with the run's stats:
    two snapshots, the start and the final (n, 2) points at the horizon.  It
    confirms the translating-front solution.  ``config`` steps it as it steps
    the other drivers (default: ``FlowConfig(resample_every=25)``); its area
    stop never fires on an open chain.  An end before the horizon, the step
    budget or a curvature stop included, raises NumericalBreakdownError."""
    if not 0.0 < duration < math.inf:
        raise InvalidInputError(f"duration must be positive and finite, got {duration}")
    config = config or FlowConfig(resample_every=25)
    [traj] = _evolve([_FrontState(points, duration, config)], config)
    end = traj.events[-1]
    if end.kind != EVENT_HORIZON:
        raise NumericalBreakdownError(
            f"translating front ended with {end.kind} at t={end.time:.6g}, "
            f"before its horizon t={duration:.6g}")
    return traj


def polyline_distance(points: NDArray[np.float64], target: NDArray[np.float64]) -> NDArray[np.float64]:
    """Distance from each point to an open reference polyline."""
    return cv._point_segment_distances(points, target[:-1], target[1:])
