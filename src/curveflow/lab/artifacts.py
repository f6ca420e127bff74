"""Flat-file artifact emission: CSV series, geometry snapshots, SVG figures.

Everything here is deterministic text; identical inputs produce bit-identical
files so runs can be diffed across machines.
"""

from __future__ import annotations

import json
from dataclasses import astuple
from pathlib import Path

import numpy as np

from .. import axisym as ax
from .. import curves as cv
from ..axisym import AxiProfile, AxiTrajectory
from ..errors import InvalidInputError
from ..flow1d import Event, Snapshot, Trajectory

# Each trajectory header names the time, then every metrics field in declaration order.
CURVE_CSV_HEADER = "t,length,area,iso_ratio,kmin,kmax,convex"
AXI_CSV_HEADER = "t,area,volume,rmin,rmin_x,hmin,hmax,mean_convex"


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def series_csv(header: str, rows) -> str:
    lines = [header]
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    return "\n".join(lines) + "\n"


def trajectory_csv(traj: Trajectory) -> str:
    return series_csv(CURVE_CSV_HEADER, ((s.time, *astuple(s.metrics)) for s in traj.snapshots))


def axi_trajectory_csv(traj: AxiTrajectory) -> str:
    return series_csv(AXI_CSV_HEADER, ((s.time, *astuple(s.metrics)) for s in traj.snapshots))


def write_text(path: Path, text: str) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


def write_json(path: Path, payload) -> Path:
    return write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# SVG figures
# ---------------------------------------------------------------------------

def _svg_document(points: np.ndarray, closed: bool) -> str:
    """Standalone SVG drawing one polyline/polygon at 1:1 aspect.

    SVG's y axis points down, so geometry is emitted with y negated and the
    viewBox fitted to the flipped points, padded so the box is 5% wider than
    the drawing (a unit circle maps to viewBox -1.05 -1.05 2.1 2.1).
    """
    pts = np.column_stack([points[:, 0], -points[:, 1]])
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = hi - lo
    margin = 0.025 * float(span.max() if span.max() > 0 else 1.0)
    x0, y0 = lo - margin
    w, h = span + 2 * margin
    coords = " ".join(f"{p[0]:.6g},{p[1]:.6g}" for p in pts)
    tag = "polygon" if closed else "polyline"
    stroke_w = 0.004 * max(w, h)
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{x0:.6g} {y0:.6g} {w:.6g} {h:.6g}" '
        f'width="{400.0:.6g}" height="{400.0 * h / w:.6g}">\n'
        f'  <{tag} points="{coords}" fill="none" '
        f'stroke="black" stroke-width="{stroke_w:.6g}"/>\n'
        "</svg>\n"
    )


def emit_svg(geometry, path) -> Path:
    """Write a single-shape SVG; profiles with axis poles are mirrored into
    the full meridian cross-section, like a plane slice through the axis.
    A bare (n, 2) array is drawn as an open polyline."""
    if isinstance(geometry, np.ndarray):
        return write_text(Path(path), _svg_document(geometry, closed=False))
    if isinstance(geometry, AxiProfile):
        pts = geometry.samples
        if geometry.topology == ax.TOPOLOGY_TWO_POLES:
            mirrored = np.column_stack([pts[::-1, 0], -pts[::-1, 1]])
            outline = np.vstack([pts, mirrored])
            closed = True
        else:
            outline = pts
            closed = geometry.topology == ax.TOPOLOGY_PERIODIC
    else:
        outline = geometry.vertices
        closed = True
    return write_text(Path(path), _svg_document(outline, closed))


# ---------------------------------------------------------------------------
# Trajectory persistence (geometry snapshots + index)
# ---------------------------------------------------------------------------

def save_trajectory(out_dir, traj: Trajectory | AxiTrajectory) -> list[Path]:
    """Write every snapshot's geometry plus an index.json tying times to files."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    axi = isinstance(traj, AxiTrajectory)
    ext = "axi" if axi else "xy"
    files = []
    names = []
    for k, snap in enumerate(traj.snapshots):
        name = f"snap_{k:05d}.{ext}"
        p = out_dir / name
        if axi:
            ax.write_profile(snap.profile, p)
        else:
            cv.write_curve(p, snap.curve)
        files.append(p)
        names.append(name)
    index = {
        "kind": "axi-flow" if axi else "curve-flow",
        "times": [float(s.time) for s in traj.snapshots],
        "snapshots": names,
        "events": [
            {"kind": e.kind, "time": float(e.time),
             "location": list(e.location) if e.location is not None else None}
            for e in traj.events
        ],
    }
    files.append(write_json(out_dir / "index.json", index))
    return files


def load_trajectory(run_dir) -> Trajectory | AxiTrajectory:
    """Rebuild a trajectory from a directory written by save_trajectory.

    Metrics are recomputed from the stored geometry; flow configuration is
    not restored (analysis of saved runs never needs it).  An index without
    its kind, times or snapshots, with unequal times and snapshots, naming a
    missing file, or with an event lacking its kind, time or location raises
    InvalidInputError.
    """
    run_dir = Path(run_dir)
    path = run_dir / "index.json"
    index = json.loads(path.read_text())
    missing = [k for k in ("kind", "times", "snapshots") if k not in index]
    if missing:
        raise InvalidInputError(f"{path} has no {', '.join(missing)}")
    kind, times, names = index["kind"], index["times"], index["snapshots"]
    if kind not in ("axi-flow", "curve-flow"):
        raise InvalidInputError(f"{path}: unknown kind {kind!r}")
    if len(times) != len(names):
        raise InvalidInputError(f"{path} lists {len(times)} times but {len(names)} snapshots")
    absent = [name for name in names if not (run_dir / name).is_file()]
    if absent:
        raise InvalidInputError(f"{path} lists missing snapshot file(s): {', '.join(absent)}")
    events = []
    for i, e in enumerate(index.get("events", [])):
        missing = [k for k in ("kind", "time", "location") if not isinstance(e, dict) or k not in e]
        if missing:
            raise InvalidInputError(f"{path}: event {i} {e!r} has no {', '.join(missing)}")
        events.append(Event(kind=e["kind"], time=e["time"],
                            location=tuple(e["location"]) if e["location"] else None))
    if kind == "axi-flow":
        snaps = []
        for t, name in zip(times, names):
            prof = ax.read_profile(run_dir / name)
            snaps.append(ax.AxiSnapshot(time=t, profile=prof, metrics=ax.axi_metrics(prof)))
        return AxiTrajectory(snapshots=snaps, events=events)
    snaps = []
    for t, name in zip(times, names):
        curve = cv.read_curve(run_dir / name)
        snaps.append(Snapshot(time=t, curve=curve, metrics=cv.metrics(curve)))
    return Trajectory(snapshots=snaps, events=events)
