"""Scenario execution: flows, analyses, artifact emission, pass/fail checks.

Each scenario owns one output directory.  accept first steps every distinct
flow of the batch together, in rounds of one stacked geometry pass
(``flow1d._rounds``); then run_scenario writes each scenario's trajectory
artifacts and hands its flow's trajectories to one evaluator per requested
analysis.  Each evaluator writes nothing: it returns exactly one named
artifact, its text or JSON payload, and its checks, read against the
scenario's complete, typed check table (see scenarios.ANALYSES); run_scenario
writes the artifact.
"""

from __future__ import annotations

import math
import operator
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
    emit_svg,
    save_trajectory,
    series_csv,
    trajectory_csv,
    write_json,
    write_text,
)
from .scenarios import DIAL_ACCEPTS, KIND_AXI, KIND_ORACLE, SHAPES_BY_KIND, Scenario


# How each sense compares a check's value with its tolerance.
_SENSES = {"<": operator.lt, "<=": operator.le, ">": operator.gt, "==": operator.eq,
           "in": lambda value, accepted: value in accepted}


def _plain(x):
    """A figure as strict JSON takes it: a Python number, None if not finite."""
    if isinstance(x, (np.floating, np.integer)):
        x = x.item()
    if isinstance(x, float) and not math.isfinite(x):
        return None
    return x


def _text(x) -> str:
    return f"{x:.6g}" if isinstance(x, float) else str(x)


@dataclass
class CheckResult:
    """One acceptance check, passed when ``value sense tolerance`` holds.

    A missing (None) or non-finite value fails.  ``measured`` is the figure
    reported: ``value`` unless the caller gives another, such as the slope
    whose relative error is the value.  ``margin``, for "<" and "<=" with a
    positive tolerance, is value / tolerance: the share of its bound the
    check uses.  Otherwise it is None.
    """
    name: str
    value: float | int | str | None
    sense: str
    tolerance: float | int | str | tuple[str, ...]
    measured: float | int | str | None = None
    passed: bool = field(init=False)
    margin: float | None = field(init=False)
    detail: str = field(init=False)

    def __post_init__(self):
        self.value = _plain(self.value)
        self.measured = self.value if self.measured is None else _plain(self.measured)
        self.passed = self.value is not None and bool(
            _SENSES[self.sense](self.value, self.tolerance))
        bounded = self.sense in ("<", "<=") and self.value is not None and self.tolerance > 0
        self.margin = _plain(self.value / self.tolerance) if bounded else None
        self.detail = f"{_text(self.value)} {self.sense} {_text(self.tolerance)}"
        if self.measured is not self.value:
            self.detail += f"; measured {_text(self.measured)}"


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
# Per-analysis evaluators: (scenario, *trajectories) -> (artifact name, text or JSON, checks)
# ---------------------------------------------------------------------------

def _eval_radius_law(s: Scenario, traj):
    times = traj.times()
    if s.kind == KIND_AXI:
        measured = [_sphere_radius(snap.geometry) for snap in traj.snapshots]
        reference = [oc.shrinker_radius("sphere", s.shape_params["r0"], t) for t in times]
    else:
        measured = [_mean_radius(snap.geometry) for snap in traj.snapshots]
        reference = [oc.power_circle_radius(s.shape_params["radius"], s.law.p, t)
                     for t in times]
    rows = [(t, m, r, abs(m - r) / r) for t, m, r in zip(times, measured, reference)]
    t_max = s.checks["radius_time_max"]
    worst = np.max([rel for t, _, _, rel in rows if t_max is None or t <= t_max])
    return "radius_law.csv", series_csv("t,measured,reference,rel_err", rows), [CheckResult(
        "radius-law/max_rel_err", worst, "<", s.checks["radius_rel_tol"])]


def _eval_area_law(s: Scenario, traj: f1.Trajectory):
    law = f1.analyze_area_law(traj)
    a0 = float(traj.areas()[0])
    target_slope = -2.0 * math.pi
    target = s.checks["extinction_target"]
    target = a0 / (2.0 * math.pi) if target is None else target
    payload = {
        "slope": law.slope,
        "extinction_estimate": law.extinction_estimate,
        "initial_area": a0,
        "slope_target": target_slope,
        "extinction_target": target,
    }
    err = abs(law.extinction_estimate - target)
    tol = s.checks["extinction_abs_tol"]
    if tol is None:
        err, tol = err / target, s.checks["extinction_rel_tol"]
    checks = [
        CheckResult("area-law/slope", abs(law.slope - target_slope) / abs(target_slope),
                    "<", s.checks["slope_rel_tol"], law.slope),
        CheckResult("area-law/extinction", err, "<", tol, law.extinction_estimate),
    ]
    life_max = s.checks["lifetime_max"]
    if life_max is not None:
        checks.append(CheckResult(
            "area-law/lifetime", law.extinction_estimate, "<", life_max))
    return "area_law.json", payload, checks


def _eval_roundness(s: Scenario, traj: f1.Trajectory):
    series = rs.roundness_series(traj)
    times, resid, iso = (np.array(column) for column in zip(*series))
    checks = [
        CheckResult("roundness/final", resid[-1], "<", s.checks["roundness_final"]),
        CheckResult("roundness/iso", abs(iso[-1] - 1.0), "<", s.checks["iso_final_tol"],
                    iso[-1]),
    ]
    if s.checks["roundness_monotone"]:
        half = times >= times[-1] / 2.0
        rises = int(np.sum(np.diff(resid[half]) >= 0))
        checks.append(CheckResult("roundness/monotone", rises, "==", 0))
    r_max = s.checks["roundness_max"]
    if r_max is not None:
        checks.append(CheckResult("roundness/max", resid.max(), "<", r_max))
    return "roundness.csv", series_csv("t,circle_residual,iso_ratio", series), checks


def _embedded(traj: f1.Trajectory) -> list[bool]:
    """``is_embedded`` of each snapshot of a curve run, testing only the first.

    The driver tests every snapshot it appends and ends the run at the first
    that fails, with an embeddedness-loss event; so every later snapshot is
    embedded, except the last one of a run that ends with that event.
    """
    flags = [bool(cv.is_embedded(traj.snapshots[0].geometry))]
    flags += [True] * (len(traj.snapshots) - 1)
    if traj.events[-1].kind == f1.EVENT_EMBEDDEDNESS_LOSS:
        flags[-1] = False
    return flags


def _eval_convexification(s: Scenario, traj: f1.Trajectory):
    conv_t = f1.convexification_time(traj)
    end_t = float(traj.times()[-1])
    embedded = _embedded(traj)
    return "convexification.json", {
        "convexification_time": conv_t,
        "final_time": end_t,
        "embedded_all": all(embedded),
    }, [
        CheckResult("convexification/event_order", conv_t, "<", end_t,
                    "none" if conv_t is None else conv_t),
        CheckResult("convexification/embedded", embedded.count(False), "==", 0,
                    sum(embedded)),
    ]


def _eval_eccentricity(s: Scenario, traj: f1.Trajectory):
    rows = []
    for snap in traj.snapshots:
        fit = f1.fit_ellipse(snap.geometry)
        rows.append((snap.time, fit.eccentricity, fit.residual))
    _, ecc, res = (np.array(column) for column in zip(*rows))
    return "eccentricity.csv", series_csv("t,eccentricity,fit_residual", rows), [
        CheckResult("eccentricity/drift", np.abs(ecc - ecc[0]).max(), "<",
                    s.checks["ecc_drift_tol"]),
        CheckResult("eccentricity/fit", res.max(), "<", s.checks["ellipse_fit_tol"]),
    ]


def _eval_norm_length(s: Scenario, traj: f1.Trajectory):
    series = f1.rescaled_length_series(traj)
    falls = int(np.sum(np.diff([v for _, v in series]) <= 0))
    return "norm_length.csv", series_csv("t,normalized_length", series), [
        CheckResult("norm-length/increasing", falls, "==", 0)]


def _eval_pair_distance(s: Scenario, t_a: f1.Trajectory, t_b: f1.Trajectory):
    rows = [(sa.time, cv.min_distance(sa.geometry, sb.geometry))
            for sa, sb in zip(t_a.snapshots, t_b.snapshots)]
    # shared snapshots where either curve is not embedded
    broken = sum(not (a and b) for a, b in zip(_embedded(t_a), _embedded(t_b)))
    return "pair_distance.csv", series_csv("t,min_distance", rows), [
        CheckResult("pair-distance/separation", min(r[1] for r in rows), ">",
                    s.checks["min_separation"]),
        CheckResult("pair-distance/embedded", broken, "==", 0, int(broken == 0)),
    ]


def _eval_neck(s: Scenario, traj: f1.Trajectory):
    report = ax.neck_report(traj)
    event = traj.events[-1]    # the terminal neck-pinch or torus-collapse event
    times, radii = report.series[report.window].T
    ratios = radii / np.sqrt(2.0 * (report.pinch_time - times))
    payload = {
        "pinch_time_fit": report.pinch_time,
        "event": {"kind": event.kind, "time": event.time,
                  "location": list(event.location)},
        "ratio_min": float(ratios.min()),
        "ratio_max": float(ratios.max()),
        "series": [[float(a), float(b)] for a, b in report.series],
    }
    checks = []
    want = s.checks["event"]
    if want is not None:
        checks.append(CheckResult("neck/event", event.kind, "==", want))
    band = s.checks["neck_ratio_band"]
    if band is not None:
        # waist / sqrt(2(T-t)) within 1 +- band over the final decade
        spread = max(1.0 - ratios.min(), ratios.max() - 1.0)
        checks.append(CheckResult("neck/ratio_band", spread, "<=", band))
    x_tol = s.checks["pinch_x_tol"]
    if x_tol is not None:
        x = event.location[0]
        checks.append(CheckResult("neck/location", abs(x), "<=", x_tol, x))
    if s.checks["mean_convex"]:
        flags = [bool(snap.metrics.mean_convex) for snap in traj.snapshots]
        checks.append(CheckResult("neck/mean_convex", flags.count(False), "==", 0,
                                  sum(flags)))
    fac = s.checks["circle_fit_spacing_factor"]
    if fac is not None:
        pts = traj.final().geometry.samples
        (cx, cy), radius, _ = rs.fit_circle(pts)
        dev = np.abs(np.hypot(pts[:, 0] - cx, pts[:, 1] - cy) - radius).max()
        seg = np.hypot(*np.diff(pts, axis=0).T)
        checks.append(CheckResult("neck/collapse_circle", dev, "<=", fac * float(seg.mean())))
    return "neck.json", payload, checks


def _waist_probes(traj: f1.Trajectory, count: int):
    probes = []
    for snap in traj.snapshots[-count:]:
        pts = snap.geometry.samples
        spacing = float(np.hypot(*np.diff(pts, axis=0).T).mean())
        probes.append((snap.metrics.min_radius_location - 3.0 * spacing, 0.0))
    return probes


def _eval_blowup(s: Scenario, traj: f1.Trajectory):
    probes = _waist_probes(traj, s.options["probe_count"])
    dials = []
    checks = []
    for power, want in zip(s.options["dial_powers"], s.checks["dial_classes"]):
        report = rs.curvature_normalized_frames(traj, probes, scale_power=power)
        dials.append({**report.to_json_dict(), "scale_power": power})
        checks.append(CheckResult(f"blowup/dial_h^{power:g}", report.limit_classification,
                                  "in", DIAL_ACCEPTS[want]))
    return "blowup.json", {"probes": [list(p) for p in probes], "dials": dials}, checks


def _eval_translate(s: Scenario, front: f1.Trajectory):
    start, final = front.snapshots[0].geometry, front.final().geometry
    duration = s.options["duration"]
    n = len(start)
    trim = max(1, n // 10)
    target = start + np.array([0.0, duration])
    worst = float(oc.polyline_distance(final[trim:-trim], target).max())
    return "translate.json", {
        "duration": duration,
        "interior_max_deviation": worst,
        "interior_samples": int(n - 2 * trim),
    }, [CheckResult(
        "translate/deviation", worst, "<", s.checks["translate_dev_tol"])]


def _eval_selfcheck(s: Scenario):
    cases = oc.selfcheck()
    worst = float(max(cases.values()))
    return "oracle_selfcheck.json", {"cases": cases, "worst": worst}, [CheckResult(
        "selfcheck/max_error", worst, "<", s.checks["selfcheck_tol"])]


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
    """Every input of one driver run; _steps reads nothing else.

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


def _steps(key: _FlowKey):
    """The key's flow as a stepper for ``flow1d._rounds``: it builds the
    geometry, steps it by the stepper of the key's driver and returns the
    trajectories, two for a nested pair and one for every other flow."""
    geometry = SHAPES_BY_KIND[key.kind][key.shape][0](n=key.n, **dict(key.shape_params))
    if key.kind == KIND_AXI:
        stepper = ax._axi_steps(geometry, key.config)
    elif key.shape == "grim_reaper":
        stepper = oc._front_steps(geometry, key.duration, key.config)
    else:
        curves = geometry if isinstance(geometry, list) else [geometry]
        stepper = f1._curve_steps(curves, key.law, key.config)
    return (yield from stepper)


@dataclass
class _Flow:
    """The outcome of one driver run: its trajectories or the error it raised,
    and its warnings."""
    owner: Scenario
    trajs: list[f1.Trajectory] = field(default_factory=list)
    error: str | None = None
    traceback: str | None = None
    warnings: list[str] = field(default_factory=list)


def _texts(caught) -> list[str]:
    return [f"{w.category.__name__}: {w.message}" for w in caught]


@contextmanager
def _recorded_warnings():
    """Record every warning raised inside the block as "Category: message"."""
    texts: list[str] = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            yield texts
        finally:
            texts += _texts(caught)


def _attributed(stepper, caught: list, texts: list[str]):
    """``stepper``, moving what each of its resumes adds to ``caught`` into ``texts``."""
    while True:
        start = len(caught)
        try:
            states = next(stepper)
        except StopIteration as stop:
            return stop.value
        finally:
            if len(caught) > start:
                texts += _texts(caught[start:])
                del caught[start:]
        yield states


def _run_flows(owners: dict[_FlowKey, Scenario]) -> dict[_FlowKey, _Flow]:
    """Step the flow of each key of ``owners`` (key -> the scenario that runs
    it) in one ``flow1d._rounds`` call.  Each flow keeps its trajectories or
    the error it raised, with its traceback, and the warnings raised while it
    was resumed.  A warning of a stacked pass itself is not any one flow's:
    every flow records it."""
    flows = {key: _Flow(owner) for key, owner in owners.items()}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        outcomes = f1._rounds([_attributed(_steps(key), caught, flow.warnings)
                               for key, flow in flows.items()])
    for flow, outcome in zip(flows.values(), outcomes):
        flow.warnings += _texts(caught)
        if isinstance(outcome, Exception):
            flow.error = f"{type(outcome).__name__}: {outcome}"
            flow.traceback = "".join(traceback.format_exception(outcome))
        else:
            flow.trajs = outcome
    return flows


def _write_flow(s: Scenario, out: Path, trajs: list[f1.Trajectory]) -> list[str]:
    """Write the trajectory CSVs (of snapshots with metrics), drawings and saved
    snapshots; return their names."""
    names = []
    for i, traj in enumerate(trajs):
        tag = f"_{i}" if len(trajs) > 1 else ""
        if traj.snapshots[0].metrics is not None:
            write_text(out / f"trajectory{tag}.csv", trajectory_csv(traj))
            names.append(f"trajectory{tag}.csv")
        for label, snap in (("initial", traj.snapshots[0]), ("final", traj.final())):
            emit_svg(snap.geometry, out / f"{label}{tag}.svg")
            names.append(f"{label}{tag}.svg")
        if s.options.get("save_snapshots"):
            save_trajectory(out / f"snapshots{tag}", traj)
            names.append(f"snapshots{tag}/index.json")
    return names


def run_scenario(s: Scenario, out_root, flow: _Flow) -> RunReport:
    """Execute one scenario into its own subdirectory of out_root.

    ``flow`` is the scenario's flow as ``accept`` ran it, its error and
    warnings too, perhaps shared with other scenarios; a scenario that runs
    no flow gets an empty one of its own.  Each evaluator returns its
    artifact, and this writes it: a str as text, anything else as JSON.
    Warnings raised while the scenario runs are recorded in the report, not
    shown.
    """
    started = time.perf_counter()
    out = Path(out_root) / s.name
    out.mkdir(parents=True, exist_ok=True)
    with _recorded_warnings() as caught:
        artifacts, checks, error, trace = [], [], flow.error, flow.traceback
        telemetry = ({"trajectories": [asdict(t.stats) for t in flow.trajs]}
                     if flow.trajs else None)
        if error is None:
            try:
                if telemetry is not None:
                    write_json(out / "telemetry.json", telemetry)
                artifacts = _write_flow(s, out, flow.trajs)
                for analysis in s.analyses:
                    name, payload, found = _EVALUATORS[analysis](s, *flow.trajs)
                    write = write_text if isinstance(payload, str) else write_json
                    write(out / name, payload)
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

    Every distinct flow runs first, all of them stepped together by
    ``_run_flows``; scenarios with equal flow keys share one flow, owned by
    the first, and each writes its own files and runs its own analyses.  A
    flow is dropped after the last scenario that reads it.  ``workers`` is
    ignored; it is kept for callers that still pass it.
    """
    out_root = Path(out_root)
    keys = [_flow_key(s) for s in scenarios]
    last = {key: i for i, key in enumerate(keys)}
    owners = {}
    for s, key in zip(scenarios, keys):
        if key is not None:
            owners.setdefault(key, s)
    flows = _run_flows(owners)
    reports: list[RunReport] = []
    for i, (s, key) in enumerate(zip(scenarios, keys)):
        reports.append(run_scenario(s, out_root, flows.get(key) or _Flow(s)))
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
            failed = [c.name for c in r.checks if not c.passed]
            body = f"{len(r.checks) - len(failed)}/{len(r.checks)} ok"
            if failed:
                body += "  failing: " + ", ".join(failed)
        lines.append(f"{r.scenario:<{name_w}}  {status:<6}  {r.wall_time:7.1f}s  {body}")
    total = sum(not r.passed for r in reports)
    lines.append("-" * len(lines[0]))
    lines.append(f"{len(reports)} scenario(s), {total} failing")
    return "\n".join(lines)
