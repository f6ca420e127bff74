"""Scenario execution: flows, analyses, artifact emission, pass/fail checks.

Each scenario owns one output directory.  run_scenario builds the geometry,
runs the kind's driver, writes the trajectory artifacts, then hands the flow
to one evaluator per requested analysis; each evaluator writes exactly one
named artifact and returns its checks, read against the scenario's complete,
typed check table (see scenarios.ANALYSES).
"""

from __future__ import annotations

import math
import time
import traceback
import warnings
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .. import axisym as ax
from .. import curves as cv
from .. import flow1d as f1
from .. import oracle as oc
from .. import rescale as rs
from .artifacts import (
    axi_trajectory_csv,
    emit_svg,
    save_trajectory,
    series_csv,
    trajectory_csv,
    write_json,
    write_text,
)
from .scenarios import DIAL_ACCEPTS, KIND_AXI, KIND_ORACLE, SHAPES_BY_KIND, Scenario


@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: float | str
    detail: str

    def __post_init__(self):
        self.passed = bool(self.passed)
        if isinstance(self.measured, (np.floating, np.integer)):
            self.measured = float(self.measured)


@dataclass
class RunReport:
    scenario: str
    checks: list[CheckResult] = field(default_factory=list)
    wall_time: float = 0.0
    artifacts: list[str] = field(default_factory=list)
    error: str | None = None
    traceback: str | None = None
    shared_flow: str | None = None    # the scenario whose flow this one reused
    warnings: list[str] = field(default_factory=list)   # "Category: message"
    telemetry: dict | None = None     # the flow's run stats, as in telemetry.json

    @property
    def passed(self) -> bool:
        return self.error is None and all(c.passed for c in self.checks)


def _mean_radius(curve: cv.PlaneCurve) -> float:
    v = curve.vertices
    c = cv.curve_centroid(curve)
    return float(np.hypot(v[:, 0] - c[0], v[:, 1] - c[1]).mean())


def _sphere_radius(profile: ax.AxiProfile) -> float:
    pts = profile.samples
    cx = 0.5 * (pts[:, 0].min() + pts[:, 0].max())
    return float(np.hypot(pts[:, 0] - cx, pts[:, 1]).mean())


# ---------------------------------------------------------------------------
# Per-analysis evaluators: (scenario, out dir, flow) -> (artifact name, checks)
# ---------------------------------------------------------------------------

def _eval_radius_law(s: Scenario, out: Path, traj):
    times = traj.times()
    if s.kind == KIND_AXI:
        measured = [_sphere_radius(snap.profile) for snap in traj.snapshots]
        reference = [oc.shrinker_radius("sphere", s.shape_params["r0"], t) for t in times]
    else:
        measured = [_mean_radius(snap.curve) for snap in traj.snapshots]
        reference = [oc.power_circle_radius(s.shape_params["radius"], s.law.p, t)
                     for t in times]
    rows = [(t, m, r, abs(m - r) / r) for t, m, r in zip(times, measured, reference)]
    write_text(out / "radius_law.csv",
               series_csv("t,measured,reference,rel_err", rows))
    rel = np.array([row[3] for row in rows])
    t_max = s.checks["radius_time_max"]
    window = np.array(times) <= (t_max if t_max is not None else np.inf)
    worst = float(rel[window].max())
    tol = s.checks["radius_rel_tol"]
    return "radius_law.csv", [CheckResult(
        "radius-law/max_rel_err", worst < tol, worst,
        f"max relative radius error {worst:.3e} vs oracle, tolerance {tol:g}"
        + (f" for t <= {t_max:g}" if t_max is not None else ""),
    )]


def _eval_area_law(s: Scenario, out: Path, traj: f1.Trajectory):
    law = f1.analyze_area_law(traj)
    a0 = float(traj.areas()[0])
    payload = {
        "slope": law.slope,
        "extinction_estimate": law.extinction_estimate,
        "initial_area": a0,
    }
    checks = []
    if s.law.p == 1.0:
        target_slope = -2.0 * math.pi
        rel = abs(law.slope - target_slope) / abs(target_slope)
        tol = s.checks["slope_rel_tol"]
        payload["slope_target"] = target_slope
        checks.append(CheckResult(
            "area-law/slope", rel < tol, law.slope,
            f"dA/dt = {law.slope:.6f} vs -2*pi, rel err {rel:.3e} tol {tol:g}"))
        target = s.checks["extinction_target"]
        target = a0 / (2.0 * math.pi) if target is None else target
        err = abs(law.extinction_estimate - target)
        mode, tol = "abs", s.checks["extinction_abs_tol"]
        if tol is None:
            mode, err, tol = "rel", err / target, s.checks["extinction_rel_tol"]
        payload["extinction_target"] = target
        checks.append(CheckResult(
            "area-law/extinction", err < tol, law.extinction_estimate,
            f"extinction {law.extinction_estimate:.6f} vs {target:g}, "
            f"{mode} err {err:.3e} tol {tol:g}"))
    life_max = s.checks["lifetime_max"]
    if life_max is not None:
        ok = law.extinction_estimate < life_max
        checks.append(CheckResult(
            "area-law/lifetime", ok, law.extinction_estimate,
            f"extinction estimate {law.extinction_estimate:.4f} "
            f"< bound {life_max:g}"))
    write_json(out / "area_law.json", payload)
    return "area_law.json", checks


def _eval_roundness(s: Scenario, out: Path, traj: f1.Trajectory):
    series = rs.roundness_series(traj)
    write_text(out / "roundness.csv",
               series_csv("t,circle_residual,iso_ratio", series))
    times, resid, iso = (np.array(column) for column in zip(*series))
    checks = []
    tol_f = s.checks["roundness_final"]
    checks.append(CheckResult(
        "roundness/final", resid[-1] < tol_f, float(resid[-1]),
        f"final circle residual {resid[-1]:.4f} < {tol_f:g}"))
    tol_i = s.checks["iso_final_tol"]
    iso_err = abs(iso[-1] - 1.0)
    checks.append(CheckResult(
        "roundness/iso", iso_err < tol_i, float(iso[-1]),
        f"final isoperimetric ratio {iso[-1]:.6f}, |ratio-1| {iso_err:.3e} < {tol_i:g}"))
    if s.checks["roundness_monotone"]:
        half = times >= times[-1] / 2.0
        diffs = np.diff(resid[half])
        bad = int(np.sum(diffs >= 0))
        checks.append(CheckResult(
            "roundness/monotone", bad == 0, bad,
            f"{bad} non-decreasing residual steps over the final half-lifetime"))
    r_max = s.checks["roundness_max"]
    if r_max is not None:
        worst = float(resid.max())
        checks.append(CheckResult(
            "roundness/max", worst < r_max, worst,
            f"max circle residual {worst:.3e} < {r_max:g}"))
    return "roundness.csv", checks


def _eval_convexification(s: Scenario, out: Path, traj: f1.Trajectory):
    conv_t = f1.convexification_time(traj)
    end_t = float(traj.times()[-1])
    embedded = [bool(cv.is_embedded(snap.curve)) for snap in traj.snapshots]
    write_json(out / "convexification.json", {
        "convexification_time": conv_t,
        "final_time": end_t,
        "embedded_all": all(embedded),
    })
    return "convexification.json", [
        CheckResult(
            "convexification/event_order",
            conv_t is not None and conv_t < end_t,
            conv_t if conv_t is not None else "none",
            f"convexification at {conv_t} strictly before final time {end_t:.4f}"
            if conv_t is not None else "no convexification event recorded"),
        CheckResult(
            "convexification/embedded", all(embedded), int(sum(embedded)),
            f"{sum(embedded)}/{len(embedded)} snapshots embedded"),
    ]


def _eval_eccentricity(s: Scenario, out: Path, traj: f1.Trajectory):
    rows = []
    for snap in traj.snapshots:
        fit = f1.fit_ellipse(snap.curve)
        rows.append((snap.time, fit.eccentricity, fit.residual))
    write_text(out / "eccentricity.csv",
               series_csv("t,eccentricity,fit_residual", rows))
    _, ecc, res = (np.array(column) for column in zip(*rows))
    drift = float(np.abs(ecc - ecc[0]).max())
    tol_d = s.checks["ecc_drift_tol"]
    tol_r = s.checks["ellipse_fit_tol"]
    return "eccentricity.csv", [
        CheckResult("eccentricity/drift", drift < tol_d, drift,
                    f"max eccentricity drift {drift:.3e} < {tol_d:g}"),
        CheckResult("eccentricity/fit", float(res.max()) < tol_r, float(res.max()),
                    f"max ellipse-fit residual {res.max():.3e} < {tol_r:g}"),
    ]


def _eval_norm_length(s: Scenario, out: Path, traj: f1.Trajectory):
    series = f1.rescaled_length_series(traj)
    write_text(out / "norm_length.csv",
               series_csv("t,normalized_length", series))
    vals = np.array([v for _, v in series])
    diffs = np.diff(vals)
    bad = int(np.sum(diffs <= 0))
    return "norm_length.csv", [CheckResult(
        "norm-length/increasing", bad == 0, bad,
        f"{bad} non-increasing steps; normalized length "
        f"{vals[0]:.4f} -> {vals[-1]:.4f}")]


def _eval_pair_distance(s: Scenario, out: Path, trajs: list[f1.Trajectory]):
    t_a, t_b = trajs
    rows = []
    embedded = True
    for sa, sb in zip(t_a.snapshots, t_b.snapshots):
        rows.append((sa.time, cv.min_distance(sa.curve, sb.curve)))
        embedded = embedded and cv.is_embedded(sa.curve) and cv.is_embedded(sb.curve)
    write_text(out / "pair_distance.csv", series_csv("t,min_distance", rows))
    dmin = float(min(r[1] for r in rows))
    floor = s.checks["min_separation"]
    return "pair_distance.csv", [
        CheckResult("pair-distance/separation", dmin > floor, dmin,
                    f"min inter-curve distance {dmin:.4f} > {floor:g}"),
        CheckResult("pair-distance/embedded", embedded, int(embedded),
                    "both curves embedded at every shared snapshot"
                    if embedded else "embeddedness lost"),
    ]


def _eval_neck(s: Scenario, out: Path, traj: ax.AxiTrajectory):
    report = ax.neck_report(traj)
    event = traj.events[-1] if traj.events else None
    times, radii = report.series[report.window].T
    ratios = radii / np.sqrt(2.0 * (report.pinch_time - times))
    payload = {
        "pinch_time_fit": report.pinch_time,
        "event": None if event is None else
        {"kind": event.kind, "time": event.time,
         "location": list(event.location) if event.location else None},
        "ratio_min": float(ratios.min()),
        "ratio_max": float(ratios.max()),
        "series": [[float(a), float(b)] for a, b in report.series],
    }
    write_json(out / "neck.json", payload)
    checks = []
    want = s.checks["event"]
    if want is not None:
        got = event.kind if event is not None else "none"
        checks.append(CheckResult(
            "neck/event", got == want, got,
            f"terminating event {got!r}, expected {want!r}"))
    band = s.checks["neck_ratio_band"]
    if band is not None:
        ok = ratios.min() >= 1.0 - band and ratios.max() <= 1.0 + band
        checks.append(CheckResult(
            "neck/ratio_band", ok,
            f"[{ratios.min():.4f}, {ratios.max():.4f}]",
            f"waist / sqrt(2(T-t)) within 1 +- {band:g} over the final decade"))
    x_tol = s.checks["pinch_x_tol"]
    if x_tol is not None and event is not None and event.location is not None:
        x = abs(event.location[0])
        checks.append(CheckResult(
            "neck/location", x <= x_tol, event.location[0],
            f"pinch at x = {event.location[0]:.4f}, |x| <= {x_tol:g}"))
    if s.checks["mean_convex"]:
        flags = [bool(snap.metrics.mean_convex) for snap in traj.snapshots]
        checks.append(CheckResult(
            "neck/mean_convex", all(flags), int(sum(flags)),
            f"{sum(flags)}/{len(flags)} snapshots mean convex"))
    fac = s.checks["circle_fit_spacing_factor"]
    if fac is not None:
        pts = traj.final().profile.samples
        (cx, cy), radius, _ = rs.fit_circle(pts)
        dev = float(np.abs(np.hypot(pts[:, 0] - cx, pts[:, 1] - cy) - radius).max())
        seg = np.hypot(*np.diff(pts, axis=0).T)
        allowance = fac * float(seg.mean())
        checks.append(CheckResult(
            "neck/collapse_circle", dev <= allowance, dev,
            f"final samples within {dev:.2e} of a single circle "
            f"(allowance {allowance:.2e})"))
    return "neck.json", checks


def _waist_probes(traj: ax.AxiTrajectory, count: int):
    probes = []
    for snap in traj.snapshots[-count:]:
        pts = snap.profile.samples
        spacing = float(np.hypot(*np.diff(pts, axis=0).T).mean())
        probes.append((snap.metrics.min_radius_location - 3.0 * spacing, 0.0))
    return probes


def _eval_blowup(s: Scenario, out: Path, traj: ax.AxiTrajectory):
    probes = _waist_probes(traj, s.options["probe_count"])
    dials = []
    checks = []
    for power, want in zip(s.options["dial_powers"], s.checks["dial_classes"]):
        report = rs.curvature_normalized_frames(traj, probes, scale_power=power)
        entry = report.to_json_dict()
        entry["scale_power"] = power
        dials.append(entry)
        got = report.limit_classification
        checks.append(CheckResult(
            f"blowup/dial_h^{power:g}", got in DIAL_ACCEPTS[want], got,
            f"scale h^{power:g} classified {got!r}, accepted {want!r}"))
    write_json(out / "blowup.json", {"probes": [list(p) for p in probes],
                                     "dials": dials})
    return "blowup.json", checks


def _eval_translate(s: Scenario, out: Path, front):
    start, final, _ = front
    duration = s.options["duration"]
    n = len(start)
    trim = max(1, n // 10)
    target = start + np.array([0.0, duration])
    dev = oc.polyline_distance(final[trim:-trim], target)
    worst = float(dev.max())
    tol = s.checks["translate_dev_tol"]
    write_json(out / "translate.json", {
        "duration": duration,
        "interior_max_deviation": worst,
        "interior_samples": int(n - 2 * trim),
    })
    return "translate.json", [CheckResult(
        "translate/deviation", worst < tol, worst,
        f"interior deviation {worst:.2e} from the rigid translate, tol {tol:g}")]


def _eval_selfcheck(s: Scenario, out: Path, _flow):
    cases = oc.selfcheck()
    worst = float(max(cases.values()))
    write_json(out / "oracle_selfcheck.json",
               {"cases": cases, "worst": worst})
    tol = s.checks["selfcheck_tol"]
    return "oracle_selfcheck.json", [CheckResult(
        "selfcheck/max_error", worst < tol, worst,
        f"worst closed-form vs RK4 mismatch {worst:.2e} < {tol:g}")]


_EVALUATORS = {
    "radius-law": _eval_radius_law,
    "area-law": _eval_area_law,
    "roundness": _eval_roundness,
    "convexification": _eval_convexification,
    "eccentricity": _eval_eccentricity,
    "norm-length": _eval_norm_length,
    "pair-distance": _eval_pair_distance,
    "neck": _eval_neck,
    "translate": _eval_translate,
    "blowup": _eval_blowup,
    "selfcheck": _eval_selfcheck,
}


# ---------------------------------------------------------------------------
# Scenario execution
# ---------------------------------------------------------------------------

class _FlowKey(NamedTuple):
    """Every input of one driver run; _run_flow reads nothing else.

    The parser leaves the fields a driver ignores at their defaults.
    """
    kind: str
    shape: str
    shape_params: tuple[tuple[str, float], ...]
    n: int
    law: f1.SpeedLaw
    config: f1.FlowConfig
    duration: float | None           # the translating front's horizon only


def _flow_key(s: Scenario) -> _FlowKey | None:
    """The scenario's flow key, or None for a scenario that runs no flow."""
    if s.kind == KIND_ORACLE:
        return None
    return _FlowKey(s.kind, s.shape, tuple(sorted(s.shape_params.items())), s.n,
                    s.law, s.config, s.options.get("duration"))


def _run_flow(key: _FlowKey | None):
    """Build the geometry and run the key's driver.

    Returns None without a key (the oracle), (start, final, stats) for the
    translating front, a list of trajectories for a nested pair, else one
    trajectory.
    """
    if key is None:
        return None
    geometry = SHAPES_BY_KIND[key.kind][key.shape][0](n=key.n, **dict(key.shape_params))
    if key.kind == KIND_AXI:
        return ax.run_axi(geometry, key.config)
    if key.shape == "grim_reaper":
        return (geometry, *oc.evolve_translating_front(
            geometry, key.duration, cfl_factor=key.config.cfl_factor,
            resample_every=key.config.resample_every))
    if isinstance(geometry, list):
        return f1.co_evolve(geometry, key.law, key.config)
    return f1.run(geometry, key.law, key.config)


@dataclass
class _Flow:
    """The outcome of one driver run: its value or the error it raised, and its warnings."""
    owner: Scenario
    value: object = None
    error: str | None = None
    traceback: str | None = None
    warnings: list[str] = field(default_factory=list)


@contextmanager
def _recorded_warnings():
    """Record every warning raised inside the block as "Category: message"."""
    texts: list[str] = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            yield texts
        finally:
            texts += [f"{w.category.__name__}: {w.message}" for w in caught]


def _flow_for(s: Scenario, flows: dict | None) -> _Flow:
    """Run the scenario's flow, or reuse the one ``flows`` holds under its key."""
    key = _flow_key(s)
    if flows is not None and key in flows:
        return flows[key]
    flow = _Flow(s)
    with _recorded_warnings() as caught:
        try:
            flow.value = _run_flow(key)
        except Exception as exc:
            flow.error = f"{type(exc).__name__}: {exc}"
            flow.traceback = traceback.format_exc()
    flow.warnings = caught
    if flows is not None and key is not None:
        flows[key] = flow
    return flow


def _write_flow(s: Scenario, out: Path, flow) -> list[str]:
    """Write the trajectory CSVs, drawings and saved snapshots; return their names."""
    if flow is None:
        return []
    if s.shape == "grim_reaper":
        emit_svg(flow[0], out / "initial.svg")
        emit_svg(flow[1], out / "final.svg")
        return ["initial.svg", "final.svg"]
    axi = s.kind == KIND_AXI
    trajs = flow if isinstance(flow, list) else [flow]
    names = []
    for i, traj in enumerate(trajs):
        tag = f"_{i}" if len(trajs) > 1 else ""
        write_text(out / f"trajectory{tag}.csv",
                   (axi_trajectory_csv if axi else trajectory_csv)(traj))
        names.append(f"trajectory{tag}.csv")
        for label, snap in (("initial", traj.snapshots[0]), ("final", traj.final())):
            emit_svg(snap.profile if axi else snap.curve, out / f"{label}{tag}.svg")
            names.append(f"{label}{tag}.svg")
        if s.options.get("save_snapshots"):
            save_trajectory(out / f"snapshots{tag}", traj)
            names.append(f"snapshots{tag}/index.json")
    return names


def _telemetry(flow) -> dict | None:
    """The run stats of each of the flow's trajectories, or None if it has none."""
    if isinstance(flow, tuple):   # the translating front: (start, final, stats)
        stats = [flow[2]]
    else:
        trajs = flow if isinstance(flow, list) else [flow]
        stats = [getattr(traj, "stats", None) for traj in trajs]
    if None in stats:
        return None
    return {"trajectories": [asdict(st) for st in stats]}


def run_scenario(s: Scenario, out_root, flows: dict | None = None) -> RunReport:
    """Execute one scenario into its own subdirectory of out_root.

    ``flows`` maps flow keys to the flows a batch has run: a scenario whose
    key is there reuses that flow (its error and warnings too) instead of
    running the driver again, and one that runs a flow adds it.  Without it
    the scenario runs its own flow.  Warnings raised while the scenario runs
    are recorded in the report, not shown.
    """
    started = time.perf_counter()
    out = Path(out_root) / s.name
    out.mkdir(parents=True, exist_ok=True)
    with _recorded_warnings() as caught:
        flow = _flow_for(s, flows)
        artifacts, checks, error, trace = [], [], flow.error, flow.traceback
        telemetry = None if error is not None else _telemetry(flow.value)
        if error is None:
            try:
                if telemetry is not None:
                    write_json(out / "telemetry.json", telemetry)
                artifacts = _write_flow(s, out, flow.value)
                for analysis in s.analyses:
                    name, found = _EVALUATORS[analysis](s, out, flow.value)
                    artifacts.append(name)
                    checks += found
            except Exception as exc:
                artifacts, checks, error = [], [], f"{type(exc).__name__}: {exc}"
                trace = traceback.format_exc()
    return RunReport(scenario=s.name, checks=checks, artifacts=artifacts, error=error,
                     traceback=trace, wall_time=time.perf_counter() - started,
                     shared_flow=None if flow.owner is s else flow.owner.name,
                     warnings=flow.warnings + caught, telemetry=telemetry)


def _summary_entry(r: RunReport) -> dict:
    entry = asdict(r)
    return {"name": entry.pop("scenario"), "passed": r.passed,
            **entry, "wall_time": round(r.wall_time, 3)}


def accept(scenarios: list[Scenario], out_root, workers: int = 1):
    """Run every scenario in input order; return (reports, summary dict, exit status).

    Scenarios with equal flow keys run their flow once: the first runs it,
    the others reuse it, and each writes its own files and runs its own
    analyses.  A flow is dropped after the last scenario that reads it.
    ``workers`` is ignored; it is kept for callers that still pass it.
    """
    out_root = Path(out_root)
    out_root.mkdir(parents=True, exist_ok=True)
    keys = [_flow_key(s) for s in scenarios]
    last = {key: i for i, key in enumerate(keys)}
    flows: dict[_FlowKey, _Flow] = {}
    reports: list[RunReport] = []
    for i, (s, key) in enumerate(zip(scenarios, keys)):
        reports.append(run_scenario(s, out_root, flows))
        if last[key] == i:
            flows.pop(key, None)
    summary = {
        "total": len(reports),
        "passed": sum(r.passed for r in reports),
        "failed": sum(not r.passed for r in reports),
        "scenarios": [_summary_entry(r) for r in reports],
    }
    write_json(out_root / "summary.json", summary)
    status = 0 if all(r.passed for r in reports) else 1
    return reports, summary, status


def format_table(reports: list[RunReport]) -> str:
    """Human-readable pass/fail table, one scenario per row."""
    name_w = max([len(r.scenario) for r in reports] + [8])
    lines = [f"{'scenario':<{name_w}}  {'status':<6}  {'time':>7}  checks"]
    lines.append("-" * len(lines[0]))
    for r in reports:
        status = "pass" if r.passed else "FAIL"
        if r.error is not None:
            body = f"error: {r.error}"
        else:
            good = sum(c.passed for c in r.checks)
            body = f"{good}/{len(r.checks)} ok"
            failed = [c.name for c in r.checks if not c.passed]
            if failed:
                body += "  failing: " + ", ".join(failed)
        lines.append(f"{r.scenario:<{name_w}}  {status:<6}  {r.wall_time:7.1f}s  {body}")
    total = sum(not r.passed for r in reports)
    lines.append("-" * len(lines[0]))
    lines.append(f"{len(reports)} scenario(s), {total} failing")
    return "\n".join(lines)
