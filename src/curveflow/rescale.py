"""Parabolic rescaling and blow-up classification of evolving geometry.

Zooming into a developing singularity with space scaled by lambda and time by
lambda squared turns the local picture into one of a few model shapes: planes,
circles or spheres, self-shrinking cylinders, or convex caps.  This module
extracts rescaled frames from recorded trajectories and classifies windows of
them against those templates with fixed, documented thresholds.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from . import curves as cv
from .axisym import TOPOLOGY_PERIODIC, AxiProfile, _meridian_pass
from .errors import FitFailureError, InvalidInputError
from .flow1d import Snapshot, Trajectory

CLASS_PLANE = "plane-like"
CLASS_CIRCLE = "circle-like/sphere-like"
CLASS_CYLINDER = "cylinder-like"
CLASS_CONVEX = "convex-noncompact"
CLASS_NONE = "unclassified"

# Classification thresholds on a window of two rescaled arclength units.
PLANE_RESIDUAL_MAX = 0.01       # max deviation from a fitted line per unit window
PLANE_AXIS_DISTANCE_MIN = 5.0   # rescaled distance to the axis for plane windows
CIRCLE_RESIDUAL_MAX = 0.02      # rms radial deviation / fitted radius
CIRCLE_RADIUS_MAX = 5.0         # beyond this a "circle" is just a straight fit
CYLINDER_VARIATION_MAX = 0.02   # relative min-radius variation along the window
CYLINDER_SPAN_MIN = 1.0         # rescaled axial extent the window must cover
CONVEX_CURVATURE_MIN = -1e-3    # discrete curvatures above this count as convex
WINDOW_HALF = 1.0               # half-width of the window in rescaled arclength
WINDOW_POINTS = 65


@dataclass(frozen=True)
class RescaleFrame:
    """One snapshot translated by -center and dilated by scale."""

    center: tuple[float, float]
    reference_time: float
    scale: float
    snapshot: cv.PlaneCurve | AxiProfile
    rescaled_time: float
    snapshot_index: int
    probe_offset: float = 0.0    # distance from requested probe to used vertex


@dataclass(frozen=True)
class BlowupReport:
    frames: list[RescaleFrame]
    limit_classification: str
    fit_residuals: list[float]
    frame_classes: list[str] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "limit_classification": self.limit_classification,
            "fit_residuals": list(self.fit_residuals),
            "frame_classes": list(self.frame_classes),
            "frames": [
                {
                    "snapshot_index": f.snapshot_index,
                    "center": list(f.center),
                    "reference_time": f.reference_time,
                    "scale": f.scale,
                    "rescaled_time": f.rescaled_time,
                    "probe_offset": f.probe_offset,
                }
                for f in self.frames
            ],
        }


def _frame(snap: Snapshot, index, center, reference_time, lam, offset=0.0) -> RescaleFrame:
    """Snapshot number ``index`` translated by -center and dilated by lam; a
    meridian moves along the axis only (center[1] is ignored), and a cylinder's
    period dilates with it."""
    g = snap.geometry
    if isinstance(g, AxiProfile):
        pts = np.column_stack([lam * (g.samples[:, 0] - center[0]), lam * g.samples[:, 1]])
        period = g.period * lam if g.period is not None else None
        geo = AxiProfile(pts, g.topology, period)
    else:
        geo = cv.PlaneCurve(lam * (g.vertices - np.asarray(center)))
    return RescaleFrame(
        center=center,
        reference_time=reference_time,
        scale=float(lam),
        snapshot=geo,
        rescaled_time=float(lam * lam * (snap.time - reference_time)),
        snapshot_index=index,
        probe_offset=offset,
    )


def parabolic_rescale(
    traj: Trajectory,
    center: tuple[float, float],
    reference_time: float,
    scales,
) -> list[RescaleFrame]:
    """Frames dilated by each lambda about center, at times T - 1/lambda^2.

    For each scale the snapshot nearest to T - 1/lambda^2 is used; scales whose
    target time falls outside the recorded range are skipped with a warning.
    An axisymmetric center is (x, 0): translation acts along the axis only.
    """
    scales = list(scales)
    if not scales:
        raise InvalidInputError("need at least one scale")
    if not all(0.0 < s < np.inf for s in scales):
        raise InvalidInputError("scales must be positive and finite")
    if not np.isfinite(reference_time) or not np.all(np.isfinite(center)):
        raise InvalidInputError("reference time and center must be finite")
    if any(b <= a for a, b in zip(scales, scales[1:])):
        raise InvalidInputError("scales must be strictly increasing")
    center = (float(center[0]), float(center[1]))
    times = traj.times()
    frames = []
    for lam in scales:
        target = reference_time - 1.0 / (lam * lam)
        if target < times[0] - 1e-12 or target > times[-1] + 1e-12:
            warnings.warn(
                f"scale {lam:g}: target time {target:.6g} outside recorded "
                f"range [{times[0]:.6g}, {times[-1]:.6g}]; frame skipped",
                stacklevel=2,
            )
            continue
        idx = int(np.argmin(np.abs(times - target)))
        frames.append(_frame(traj.snapshots[idx], idx, center, reference_time, lam))
    return frames


# ---------------------------------------------------------------------------
# Model fits
# ---------------------------------------------------------------------------

def fit_circle(points) -> tuple[tuple[float, float], float, float]:
    """Algebraic least-squares circle through a point set.

    Returns (center, radius, residual) with residual the rms radial deviation
    divided by the fitted radius, so the measure is dilation invariant.
    """
    pts = np.asarray(points)
    if len(pts) < 3:
        raise FitFailureError("need at least 3 points for a circle fit")
    x, y = pts[:, 0], pts[:, 1]
    a_mat = np.column_stack([2.0 * x, 2.0 * y, np.ones_like(x)])
    b_vec = x * x + y * y
    sol, _, rank, _ = np.linalg.lstsq(a_mat, b_vec, rcond=None)
    if rank < 3:
        raise FitFailureError("points are collinear; no circle fit")
    cx, cy, c0 = sol
    r2 = c0 + cx * cx + cy * cy
    if not np.isfinite(r2) or r2 <= 0:
        raise FitFailureError("degenerate circle fit")
    radius = float(np.sqrt(r2))
    d = np.hypot(x - cx, y - cy) - radius
    residual = float(np.sqrt(np.mean(d * d)) / radius)
    return (float(cx), float(cy)), radius, residual


def roundness_series(traj: Trajectory) -> list[tuple[float, float, float]]:
    """(time, circle-fit residual, isoperimetric ratio) per snapshot.

    Curves are normalized to unit enclosed area before fitting; both reported
    quantities are dilation invariant, so the series measures pure shape.
    """
    traj.require_curves("roundness series")
    if traj.law.p != 1.0:
        raise InvalidInputError("roundness series applies to p = 1 trajectories")
    out = []
    for snap in traj.snapshots:
        area = abs(snap.metrics.enclosed_area)
        verts = snap.geometry.vertices * np.sqrt(np.pi / area)
        _, _, resid = fit_circle(verts)
        out.append((snap.time, resid, snap.metrics.isoperimetric_ratio))
    return out


# ---------------------------------------------------------------------------
# Curvature-normalized blow-up frames
# ---------------------------------------------------------------------------

def _window(pts: NDArray[np.float64], index: int, closed: bool) -> NDArray[np.float64]:
    """Evenly spaced points on the chain within one unit of arclength of ``pts[index]``.

    A closed chain wraps around its start; an open one is cut at its ends.
    """
    ext, s = cv._arclength(pts.T, closed=closed)
    total = float(s[-1])
    if closed:
        half = min(WINDOW_HALF, 0.49 * total)
        targets = (s[index] + np.linspace(-half, half, WINDOW_POINTS)) % total
    else:
        lo = max(0.0, s[index] - WINDOW_HALF)
        hi = min(total, s[index] + WINDOW_HALF)
        targets = np.linspace(lo, hi, WINDOW_POINTS)
    return cv._interpolate_rows(s, ext, targets, periodic=closed).T


def line_residual(window: NDArray[np.float64]) -> float:
    """Max deviation from the total-least-squares line, per unit half-window."""
    window = np.asarray(window, dtype=np.float64)
    centered = window - window.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    normal = vt[-1]
    dev = np.abs(centered @ normal)
    d = np.diff(window, axis=0)
    half_len = 0.5 * float(np.hypot(d[:, 0], d[:, 1]).sum())
    return float(dev.max() / max(half_len, 1e-30))


def window_curvatures(window: NDArray[np.float64], axisymmetric: bool) -> NDArray[np.float64]:
    """Discrete principal curvatures over the window, signed for convexity.

    Plane-curve windows give the signed meridian curvature alone; profile
    windows also include the rotational principal curvature -nu_r/r.
    """
    k, left, _ = cv._Stencil(window.T)()
    if axisymmetric:
        # sigma orients the curvature and normal inward
        sigma = 1.0 if window[-1, 0] >= window[0, 0] else -1.0
        r = window[1:-1, 1]
        safe = np.where(np.abs(r) > 1e-30, r, 1e-30)
        return np.concatenate([-sigma * k, sigma * left[1] / safe])
    # Orient so the majority of the window counts as convex when it bends
    # consistently; the convexity test only cares about sign uniformity.
    if np.sum(k) < 0:
        k = -k
    return k


def _classify_window(window: NDArray[np.float64], axisymmetric: bool) -> tuple[str, float]:
    """(class, residual) for one rescaled window, first matching template wins."""
    line_res = line_residual(window)
    if line_res < PLANE_RESIDUAL_MAX and (
            not axisymmetric or np.abs(window[:, 1]).min() >= PLANE_AXIS_DISTANCE_MIN):
        return CLASS_PLANE, line_res
    try:
        _, radius, circ_res = fit_circle(window)
    except FitFailureError:
        radius, circ_res = np.inf, np.inf
    if circ_res < CIRCLE_RESIDUAL_MAX and radius <= CIRCLE_RADIUS_MAX:
        return CLASS_CIRCLE, circ_res
    if axisymmetric:
        span = float(window[:, 0].max() - window[:, 0].min())
        r = window[:, 1]
        mean_r = float(np.abs(r).mean())
        if mean_r > 0 and span >= CYLINDER_SPAN_MIN:
            variation = float((r.max() - r.min()) / mean_r)
            if variation < CYLINDER_VARIATION_MAX:
                return CLASS_CYLINDER, variation
    k = window_curvatures(window, axisymmetric)
    if np.all(k >= CONVEX_CURVATURE_MIN):
        return CLASS_CONVEX, float(max(0.0, -k.min()))
    return CLASS_NONE, float(-k.min())


def curvature_normalized_frames(
    traj: Trajectory,
    probe_points,
    scale_power: float = 1.0,
) -> BlowupReport:
    """Blow-up frames dilated by the local curvature raised to scale_power.

    The last len(probe_points) snapshots are paired with the probes in order;
    each probe snaps to the nearest vertex of its snapshot (offset recorded),
    the frame is translated there and dilated by lambda = h^scale_power with h
    the local (mean) curvature.  A window of one rescaled arclength unit each
    side of the probe is classified against the limit templates; the report's
    classification is the agreement of the final three frames.
    """
    probes = np.atleast_2d(np.asarray(probe_points, dtype=np.float64))
    if probes.shape[1] != 2:
        raise InvalidInputError("probe points must be 2D")
    snaps = traj.snapshots
    if len(probes) > len(snaps):
        raise InvalidInputError(
            f"{len(probes)} probes but only {len(snaps)} snapshots"
        )
    if len(probes) < 3:
        raise InvalidInputError("need at least 3 probes to classify a limit")
    start = len(snaps) - len(probes)
    reference_time = snaps[-1].time

    frames = []
    classes = []
    residuals = []
    for k, probe in enumerate(probes):
        idx = start + k
        snap = snaps[idx]
        geo = snap.geometry
        axisymmetric = isinstance(geo, AxiProfile)
        if axisymmetric:
            pts = geo.samples
            h, _, _ = _meridian_pass(cv._closed_chain(pts), geo.topology, geo.period)
            closed = geo.topology == TOPOLOGY_PERIODIC
        else:
            pts = geo.vertices
            h, _ = cv.curvature_profile(geo)
            closed = True
        d = np.hypot(pts[:, 0] - probe[0], pts[:, 1] - probe[1])
        vi = int(np.argmin(d))
        h_local = float(abs(h[vi]))
        if h_local <= 0:
            warnings.warn(
                f"frame {k}: nonpositive local curvature at the probe; skipped",
                stacklevel=2,
            )
            continue
        lam = float(h_local ** scale_power)
        center = (float(pts[vi, 0]), float(pts[vi, 1]))
        frame = _frame(snap, idx, center, reference_time, lam, offset=float(d[vi]))
        rescaled = frame.snapshot.samples if axisymmetric else frame.snapshot.vertices
        cls, res = _classify_window(_window(rescaled, vi, closed), axisymmetric)
        frames.append(frame)
        classes.append(cls)
        residuals.append(res)

    tail = classes[-3:]
    limit = tail[0] if len(tail) == 3 and len(set(tail)) == 1 else CLASS_NONE
    return BlowupReport(
        frames=frames,
        limit_classification=limit,
        fit_residuals=residuals,
        frame_classes=classes,
    )

