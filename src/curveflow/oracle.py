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
from .errors import ExtinctError, InvalidInputError

SHRINKER_KINDS = ("circle", "cylinder", "sphere")
MAX_POWER = 8.0
SELFCHECK_STEP = 1e-5
SELFCHECK_TOL = 1e-6


def shrinker_lifetime(kind: str, r0: float) -> float:
    if kind not in SHRINKER_KINDS:
        raise InvalidInputError(f"unknown shrinker kind {kind!r}")
    if r0 <= 0:
        raise InvalidInputError("r0 must be positive")
    return r0 * r0 / (4.0 if kind == "sphere" else 2.0)


def shrinker_radius(kind: str, r0: float, t: float) -> float:
    """Radius at time t of a self-similarly shrinking circle, cylinder or sphere.

    Circles and cylinders lose radius as sqrt(r0^2 - 2t); spheres, with both
    principal curvatures active, as sqrt(r0^2 - 4t).
    """
    life = shrinker_lifetime(kind, r0)
    if t < 0:
        raise InvalidInputError("t must be nonnegative")
    if t >= life:
        raise ExtinctError(f"{kind} of radius {r0} is extinct at t={t} (lifetime {life})")
    factor = 4.0 if kind == "sphere" else 2.0
    return math.sqrt(r0 * r0 - factor * t)


def power_circle_lifetime(r0: float, p: float) -> float:
    if r0 <= 0:
        raise InvalidInputError("r0 must be positive")
    if not 0.0 < p <= MAX_POWER:
        raise InvalidInputError(f"p must be in (0, {MAX_POWER}], got {p}")
    return r0 ** (1.0 + p) / (1.0 + p)


def power_circle_radius(r0: float, p: float, t: float) -> float:
    """Radius of a circle moving inward with normal speed |k|^p.

    r' = -r^(-p) integrates exactly: r(t) = (r0^(1+p) - (1+p) t)^(1/(1+p)).
    """
    life = power_circle_lifetime(r0, p)
    if t < 0:
        raise InvalidInputError("t must be nonnegative")
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


def bowl_soliton(rho_max: float, n: int = 129) -> NDArray[np.float64]:
    """Rotationally symmetric translating bowl profile, columns (x, r).

    Height u(rho) solves u'' / (1 + u'^2) + u' / rho = 1 with u(0) = u'(0) = 0;
    near the axis u ~ rho^2 / 4.  Integrated with an adaptive one-step method
    started from the series expansion just off the singular axis point.
    """
    from scipy.integrate import solve_ivp

    if rho_max < 0:
        raise InvalidInputError("rho_max must be nonnegative")
    if n < 32 and rho_max > 0:
        raise InvalidInputError("n must be at least 32")
    if rho_max == 0.0:
        return np.zeros((1, 2))

    def rhs(rho, y):
        u, w = y
        return [w, (1.0 + w * w) * (1.0 - w / rho)]

    rho0 = min(1e-8, rho_max / 2.0)
    y0 = [rho0 * rho0 / 4.0, rho0 / 2.0]
    sol = solve_ivp(
        rhs, (rho0, rho_max), y0, method="RK45",
        rtol=1e-12, atol=1e-14, dense_output=True,
    )
    if not sol.success:
        raise InvalidInputError(f"bowl integration failed: {sol.message}")
    rho = np.linspace(0.0, rho_max, n)
    u = np.empty_like(rho)
    inside = rho >= rho0
    u[inside] = sol.sol(rho[inside])[0]
    u[~inside] = rho[~inside] ** 2 / 4.0
    return np.stack([u, rho], axis=1)


# ---------------------------------------------------------------------------
# Independent ODE integration used to vouch for the closed forms
# ---------------------------------------------------------------------------

def _rk4_radius(rate, r0: float, t_end: float, step: float) -> float:
    """Classic fixed-step RK4 on r' = rate(r)."""
    r = r0
    t = 0.0
    while t < t_end - 1e-15:
        h = min(step, t_end - t)
        k1 = rate(r)
        k2 = rate(r + 0.5 * h * k1)
        k3 = rate(r + 0.5 * h * k2)
        k4 = rate(r + h * k3)
        r += (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
    return r


def selfcheck(step: float = SELFCHECK_STEP) -> dict[str, float]:
    """Absolute closed-form vs RK4 mismatch for each oracle; all must sit
    below SELFCHECK_TOL or the oracles cannot be trusted."""
    cases = {}

    r = _rk4_radius(lambda r: -1.0 / r, 1.0, 0.375, step)
    cases["circle_p1"] = abs(r - shrinker_radius("circle", 1.0, 0.375))

    r = _rk4_radius(lambda r: -1.0 / r, 0.2, 0.015, step)
    cases["cylinder"] = abs(r - shrinker_radius("cylinder", 0.2, 0.015))

    r = _rk4_radius(lambda r: -2.0 / r, 1.0, 0.1875, step)
    cases["sphere"] = abs(r - shrinker_radius("sphere", 1.0, 0.1875))

    for p, label in ((1.0 / 3.0, "power_cuberoot"), (0.2, "power_fifthroot"), (2.0, "power_square")):
        r = _rk4_radius(lambda r: -(r ** (-p)), 1.0, 0.3, step)
        cases[label] = abs(r - power_circle_radius(1.0, p, 0.3))

    return cases


def selfcheck_passed(step: float = SELFCHECK_STEP) -> bool:
    return max(selfcheck(step).values()) < SELFCHECK_TOL


# ---------------------------------------------------------------------------
# Direct Lagrangian evolution of an open front with prescribed end motion
# ---------------------------------------------------------------------------

def evolve_translating_front(
    points: NDArray[np.float64],
    duration: float,
    end_velocity: tuple[float, float] = (0.0, 1.0),
    cfl_factor: float = 0.4,
    resample_every: int = 25,
) -> NDArray[np.float64]:
    """March an open polyline by its curvature vector, endpoints moving with a
    prescribed velocity.  Used to confirm the translating-front solution."""
    if duration <= 0:
        raise InvalidInputError("duration must be positive")
    pts = np.array(points, dtype=np.float64)
    n = len(pts)
    ev = np.asarray(end_velocity, dtype=np.float64)
    t = 0.0
    steps = 0
    vel = np.empty_like(pts)
    vel[0] = ev
    vel[-1] = ev
    while t < duration - 1e-15:
        # Interior points move by their curvature vector k * left normal.
        k, left, seg = cv._three_point(pts)
        vel[1:-1] = k[:, None] * left
        h_min = float(seg.min())
        dt = min(cfl_factor * h_min * h_min / 2.0, duration - t)
        pts = pts + dt * vel
        t += dt
        steps += 1
        if resample_every and steps % resample_every == 0:
            spline, s = cv._arclength_spline(pts)
            pts = spline(np.linspace(0.0, s[-1], n))
    return pts


def polyline_distance(points: NDArray[np.float64], target: NDArray[np.float64]) -> NDArray[np.float64]:
    """Distance from each point to an open reference polyline."""
    return cv._point_segment_distances(points, target[:-1], target[1:])
