"""Flat-file artifact emission: CSV series, geometry snapshots, SVG figures.

Everything here is deterministic text; identical inputs produce bit-identical
files so runs can be diffed across machines.  Every file goes through
write_text and comes back through read_text, as UTF-8 with "\n" line ends.
"""

from __future__ import annotations

import json
import math
from dataclasses import fields
from functools import cache
from itertools import chain
from operator import attrgetter
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .. import axisym as ax
from .. import curves as cv
from ..axisym import AxiProfile
from ..errors import InvalidInputError
from ..flow1d import Event, Snapshot, SpeedLaw, Trajectory

# Each trajectory header names the time, then every metrics field in declaration order.
CURVE_CSV_HEADER = "t,length,area,iso_ratio,kmin,kmax,convex"
AXI_CSV_HEADER = "t,area,volume,rmin,rmin_x,hmin,hmax,mean_convex"


# ---------------------------------------------------------------------------
# Snapshot text: one point per line, a meridian's under a "# topology=" header
# ---------------------------------------------------------------------------

def _points_text(points: np.ndarray) -> str:
    """One "x y" line per (n, 2) point at 17 significant digits, in one format
    call; a closed curve's first vertex is not repeated."""
    return ("%.17g %.17g\n" * len(points)) % tuple(points.ravel().tolist())


def _parse_points(lines: list[str], first_lineno: int, names: str) -> np.ndarray:
    """(n, 2) points from lines of two numbers each, ``names`` ("x y") naming
    them in errors; blank lines and ``#`` lines are skipped.  A bad line raises
    InvalidInputError with its number, counted from ``first_lineno``."""
    rows = []
    for lineno, raw in enumerate(lines, start=first_lineno):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise InvalidInputError(f"line {lineno}: expected {names!r}, got {raw!r}")
        try:
            rows.append((float(parts[0]), float(parts[1])))
        except ValueError as exc:
            raise InvalidInputError(f"line {lineno}: {exc}") from exc
    return np.array(rows, dtype=np.float64)


def _profile_text(profile: AxiProfile) -> str:
    period = "" if profile.period is None else f" period={profile.period:.17g}"
    return f"# topology={profile.topology}{period}\n" + _points_text(profile.samples)


def _parse_profile(text: str) -> AxiProfile:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# topology="):
        raise InvalidInputError("profile text must start with '# topology=...'")
    head = lines[0][2:].split()
    topology = head[0].split("=", 1)[1]
    period = None
    for key, _, val in (tok.partition("=") for tok in head[1:]):
        if key == "topology" or (key == "period" and period is not None):
            raise InvalidInputError(f"repeated profile header field {key!r}")
        if key != "period":
            raise InvalidInputError(f"unknown profile header field {key!r}")
        try:
            period = float(val)
        except ValueError as exc:
            raise InvalidInputError(f"bad period value {val!r}") from exc
    return AxiProfile(_parse_points(lines[1:], 2, "x r"), topology, period)


class GeometryFormat(NamedTuple):
    """How a run of one geometry type is saved, read back and measured: the kind
    in its index.json, the suffix of its snapshot and rescale frame files, its
    trajectory.csv header, text(geometry) for a snapshot file, parse(text) for
    its contents and metrics(geometry)."""

    kind: str
    suffix: str
    header: str
    text: Callable
    parse: Callable
    metrics: Callable


# metrics is called through its module, so a wrapper later bound to the module
# attribute (curvebench's tracer) sees every call.
FORMATS = {
    cv.PlaneCurve: GeometryFormat(
        "curve-flow", "xy", CURVE_CSV_HEADER, lambda curve: _points_text(curve.vertices),
        lambda text: cv.PlaneCurve(_parse_points(text.splitlines(), 1, "x y")),
        lambda curve: cv.metrics(curve)),
    AxiProfile: GeometryFormat(
        "axi-flow", "axi", AXI_CSV_HEADER, _profile_text, _parse_profile,
        lambda prof: ax.axi_metrics(prof)),
}


def _format_of(traj: Trajectory) -> GeometryFormat:
    """The format of the trajectory's geometry; InvalidInputError if it has none."""
    kind = type(traj.snapshots[0].geometry)
    if kind not in FORMATS:
        raise InvalidInputError(f"no trajectory format for {kind.__name__} geometry")
    return FORMATS[kind]


def series_csv(header: str, rows) -> str:
    """The header, then one line per row of numbers (bools as 1 and 0) at 17
    significant digits, in one format call; every row has the first's length."""
    rows = list(rows)
    line = ",".join(["%.17g"] * len(rows[0])) + "\n" if rows else ""
    return header + "\n" + (line * len(rows)) % tuple(chain.from_iterable(rows))


@cache
def _fields(metrics_type: type) -> Callable:
    """attrgetter of every field of a metrics dataclass, in declaration order."""
    return attrgetter(*(f.name for f in fields(metrics_type)))


def trajectory_csv(traj: Trajectory) -> str:
    """The time and metrics of every snapshot, under its geometry's header."""
    header = _format_of(traj).header
    get = _fields(type(traj.snapshots[0].metrics))
    return series_csv(header, [(s.time, *get(s.metrics)) for s in traj.snapshots])


def write_text(path: Path, text: str) -> Path:
    """Write text as UTF-8 with "\n" line ends, making its directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8", newline="\n")
    return path


def read_text(path) -> str:
    """A UTF-8 file's text, any line end read as "\n"."""
    return Path(path).read_text(encoding="utf-8")


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
    coords = " ".join(["%.6g,%.6g"] * len(pts)) % tuple(pts.ravel().tolist())
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

def save_trajectory(out_dir, traj: Trajectory) -> list[Path]:
    """Write every snapshot's geometry plus an index.json tying times to files."""
    fmt = _format_of(traj)
    out_dir = Path(out_dir)
    names = [f"snap_{k:05d}.{fmt.suffix}" for k in range(len(traj.snapshots))]
    for snap, name in zip(traj.snapshots, names):
        write_text(out_dir / name, fmt.text(snap.geometry))
    index = {
        "kind": fmt.kind,
        "law_p": float(traj.law.p),
        "times": [float(s.time) for s in traj.snapshots],
        "snapshots": names,
        "events": [
            {"kind": e.kind, "time": float(e.time),
             "location": list(e.location) if e.location is not None else None}
            for e in traj.events
        ],
    }
    return [out_dir / name for name in names] + [write_json(out_dir / "index.json", index)]


def _finite(x) -> bool:
    """Whether a JSON value is a finite number that fits a float (true and false
    are not numbers)."""
    try:
        return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)
    except OverflowError:  # an int beyond the float range
        return False


def load_trajectory(run_dir) -> Trajectory:
    """Rebuild a trajectory from a directory written by save_trajectory.

    Metrics are recomputed from the stored geometry; flow configuration is
    not restored (analysis of saved runs never needs it).  The speed law is
    restored from ``law_p``; an index saved without it loads as p = 1.  An
    index that is not a JSON object, or one without its kind, times or
    snapshots, with unequal times and snapshots, naming a missing file, or
    with an event lacking its kind, time or location raises
    InvalidInputError.  So does one whose times are not a list of finite
    numbers, snapshots not a list of names or events not a list, whose
    ``law_p`` is not a finite number in SpeedLaw's range, or with an event
    whose kind is not a string, whose time is not a finite number or whose
    location is neither null nor two finite numbers.
    """
    run_dir = Path(run_dir)
    path = run_dir / "index.json"
    index = json.loads(read_text(path))
    if not isinstance(index, dict):
        raise InvalidInputError(f"{path} must hold a JSON object, got {type(index).__name__}")
    missing = [k for k in ("kind", "times", "snapshots") if k not in index]
    if missing:
        raise InvalidInputError(f"{path} has no {', '.join(missing)}")
    kind, times, names = index["kind"], index["times"], index["snapshots"]
    fmt = next((f for f in FORMATS.values() if f.kind == kind), None)
    if fmt is None:
        raise InvalidInputError(f"{path}: unknown kind {kind!r}")
    law_p = index.get("law_p", 1.0)
    if not _finite(law_p):
        raise InvalidInputError(f"{path}: law_p must be a finite number, got {law_p!r}")
    law = SpeedLaw(float(law_p))
    bad = [t for t in times if not _finite(t)] if isinstance(times, list) else [times]
    if bad:
        raise InvalidInputError(f"{path}: times must be a list of finite numbers, got {bad[0]!r}")
    if not isinstance(names, list) or not all(isinstance(name, str) for name in names):
        raise InvalidInputError(f"{path}: snapshots must be a list of file names, got {names!r}")
    if len(times) != len(names):
        raise InvalidInputError(f"{path} lists {len(times)} times but {len(names)} snapshots")
    absent = [name for name in names if not (run_dir / name).is_file()]
    if absent:
        raise InvalidInputError(f"{path} lists missing snapshot file(s): {', '.join(absent)}")
    entries = index.get("events", [])
    if not isinstance(entries, list):
        raise InvalidInputError(f"{path}: events must be a list, got {entries!r}")
    events = []
    for i, e in enumerate(entries):
        missing = [k for k in ("kind", "time", "location") if not isinstance(e, dict) or k not in e]
        if missing:
            raise InvalidInputError(f"{path}: event {i} {e!r} has no {', '.join(missing)}")
        loc = e["location"]
        if not (isinstance(e["kind"], str) and _finite(e["time"]) and (
                loc is None or isinstance(loc, list) and len(loc) == 2 and all(map(_finite, loc)))):
            raise InvalidInputError(f"{path}: event {i} {e!r} needs a string kind, a finite "
                                    "time and a location of null or two finite numbers")
        events.append(Event(kind=e["kind"], time=e["time"],
                            location=None if loc is None else tuple(loc)))
    snaps = []
    for t, name in zip(times, names):
        geometry = fmt.parse(read_text(run_dir / name))
        snaps.append(Snapshot(t, geometry, fmt.metrics(geometry)))
    return Trajectory(snaps, events, law)
