"""curveflow benchmark: one seeded scenario batch per process, timed end to end.

    python3 curvebench/run.py --workload curves --seed 1 --seconds 15 --trace 0

Each batch is a fresh ``batch.py`` process that builds a seeded scenario file
and runs it through ``curveflow.lab.runner.accept``.  Batches run back to back
(a closed loop with one client) while a typical batch still ends within
``--seconds``, and at least ``MIN_BATCHES`` run; each end-to-end metric is
the median over them.  Times are reported in reference seconds (see
``REFERENCE_S``).  With
``--trace 1`` the run makes one untraced and then one traced batch, and
reports the per-layer figures of the traced one plus the tracing overhead.
Every batch's outputs are verified.  The last line of standard output is the JSON
result; the lines before it are for people.  Work files go to
``.bench_runs/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402

MIN_BATCHES = 3            # untraced batches per run, however short --seconds is

# Every time a batch reports is scaled by REFERENCE_S / (the batch process's
# own time for batch.reference_s(), run just before and just after accept).
# On a shared host a CPU's speed drifts by up to half for minutes at a time,
# and the reference computation slows with it, so the scaled times hold
# where raw ones do not.  REFERENCE_S is that computation's median time on
# a shared 2-vCPU Xeon VM, so a reference second is about a second there.
REFERENCE_S = 0.88
RUN_BUDGET_S = 170.0       # every child process is killed past this point

# Closed-form checks behind closed_form_rel_err: (scenario, check) ->
# (component name, relative error as a function of the measured value).
CLOSED_FORM_CHECKS = {
    ("circle_law", "radius-law/max_rel_err"): ("radius_rel_err", lambda m: m),
    ("sphere_law", "radius-law/max_rel_err"): ("radius_rel_err", lambda m: m),
    ("ellipse_area_law", "area-law/slope"):
        ("area_slope_rel_err", lambda m: abs(m + 2.0 * math.pi) / (2.0 * math.pi)),
}

# ROADMAP baseline (serial `curveflow accept --workers 1`, 2 cores, Python
# 3.11.7, numpy 2.4.6, scipy 1.17.1), printed next to the traced figures.
BASELINE_SCENARIO_S = {
    "circle_law": 4.0, "ellipse_area_law": 2.9, "ellipse_roundness": 3.1,
    "spiral_grayson": 1.1, "affine_ellipse": 4.5, "quintic_root_growth": 3.5,
    "sphere_law": 9.0, "dumbbell_pinch": 8.1, "torus_collapse": 6.5,
    "disjoint_nested": 10.4, "grim_reaper": 0.4, "blowup_dial": 9.2,
    "oracle_selfcheck": 0.1,
}
BASELINE_RESAMPLE_US = 753.0
BASELINE_MIN_DISTANCE_MS = 23.0


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def code_fingerprint() -> str:
    """Digest of the program and the input generator, keying the CSV digest store."""
    h = hashlib.sha256()
    files = [p for p in sorted((ROOT / "src").rglob("*"))
             if p.is_file() and "__pycache__" not in p.parts]
    for p in files + [HERE / "workloads.py"]:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def machine_fingerprint(n_by_scenario: dict) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "n": n_by_scenario,
    }


def run_child(args: list[str], result: Path, deadline: float) -> tuple[float, dict]:
    """Run batch.py; return its spawn time and the result it wrote."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("run budget exhausted before a child process could start")
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "batch.py"), *args,
                               "--result", str(result)],
                              stdout=sys.stderr, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"batch process exceeded the run budget: {exc}") from exc
    if proc.returncode != 0:
        raise BenchError(f"batch process exited with status {proc.returncode}")
    return t_spawn, json.loads(result.read_text())


def closed_form_errors(summary: dict, names) -> dict[str, float]:
    """Worst relative error per component; 1.0 where an expected check is missing."""
    out = {}
    for (scenario, check), (name, rel) in CLOSED_FORM_CHECKS.items():
        if scenario in names:
            m = verify.check_measure(summary, scenario, check)
            out[name] = max(out.get(name, 0.0), 1.0 if m is None else rel(m))
    return out


def e2e_metrics(batches) -> dict[str, tuple[float, str]]:
    """End-to-end metrics: medians over the run's untraced batches."""
    def ref_s(key):
        return statistics.median(b[key] * REFERENCE_S / b["reference_s"] for b in batches)
    errors = [max(b["closed_form"].values()) for b in batches]
    return {
        "setup_s": (ref_s("setup_s"), "s"),
        "batch_wall_ref_s": (ref_s("batch_wall_s"), "s"),
        "batch_cpu_ref_s": (ref_s("batch_cpu_s"), "s"),
        "peak_rss_mb": (statistics.median(b["peak_rss_mb"] for b in batches), "MiB"),
        "closed_form_rel_err": (statistics.median(errors), "1"),
    }


def raw_medians(batches) -> dict[str, tuple[float, str]]:
    """Unscaled medians, printed for people next to the metrics."""
    return {f"raw_{key}": (statistics.median(b[key] for b in batches), "s")
            for key in ("setup_s", "batch_wall_s", "batch_cpu_s", "reference_s")}


def layer_metrics(stats: tracing.SpanStats, batch: dict, catalog_names,
                  overhead_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced batch (0 where a layer did no work)."""
    m = {}

    def calls_and_time(name, unit, scale):
        m[f"{name}.calls"] = (stats.calls[name], "count")
        m[f"{name}.{unit}_per_call"] = (stats.per_call(name, scale), unit)

    for name in ("curves.spline_resample_array", "curves.is_embedded",
                 "curves.metrics", "curves.PlaneCurve"):
        calls_and_time(name, "us", 1e6)
    calls_and_time("curves.min_distance", "ms", 1e3)
    m["curves.self_s"] = (stats.layer_self("curves"), "s")

    for layer, drivers in (("flow1d", ("flow1d.run", "flow1d.co_evolve")),
                           ("axisym", ("axisym.run_axi",))):
        self_s = sum(stats.self_time[d] for d in drivers)
        total = sum(stats.total[d] for d in drivers)
        m[f"{layer}.driver_self_s"] = (self_s, "s")
        m[f"{layer}.driver_share"] = (self_s / total if total else 0.0, "ratio")
        m[f"{layer}.snapshots"] = (stats.snapshots[layer], "count")
    calls_and_time("flow1d.fit_ellipse", "us", 1e6)
    calls_and_time("axisym.axi_metrics", "us", 1e6)
    calls_and_time("axisym.AxiProfile", "us", 1e6)
    m["axisym.neck_report.us_per_call"] = (stats.per_call("axisym.neck_report", 1e6), "us")

    calls_and_time("rescale.curvature_normalized_frames", "ms", 1e3)
    m["rescale.roundness_series.ms_per_call"] = (
        stats.per_call("rescale.roundness_series", 1e3), "ms")
    calls_and_time("rescale.fit_circle", "us", 1e6)

    m["oracle.selfcheck.ms"] = (stats.total["oracle.selfcheck"] * 1e3, "ms")
    m["oracle.evolve_translating_front.ms"] = (
        stats.total["oracle.evolve_translating_front"] * 1e3, "ms")

    for name in catalog_names:
        m[f"lab.runner.scenario_s.{name}"] = (stats.scenario_s.get(name, 0.0), "s")
    m["lab.runner.busy_s"] = (sum(stats.scenario_s.values()), "s")
    m["lab.runner.wait_s"] = (
        sum(start - batch["batch_start"] for start in stats.scenario_start.values()), "s")
    m["lab.runner.cores_busy"] = (batch["batch_cpu_s"] / batch["batch_wall_s"], "cores")
    runs = len(stats.driver_inputs)
    m["lab.runner.flow_runs"] = (runs, "count")
    m["lab.runner.distinct_flow_share"] = (
        len(set(stats.driver_inputs)) / runs if runs else 0.0, "ratio")
    m["lab.runner.errors"] = (
        sum(e.get("error") is not None for e in batch["summary"]["scenarios"]), "count")
    files = [p for p in (batch["out"] / "artifacts").rglob("*") if p.is_file()]
    m["lab.artifacts.write_s"] = (stats.artifact_write_s, "s")
    m["lab.artifacts.bytes"] = (sum(p.stat().st_size for p in files), "bytes")
    m["lab.artifacts.files"] = (len(files), "count")
    m["lab.scenarios.parse_ms"] = (batch["parse_ms"], "ms")
    m["trace.overhead_s"] = (overhead_s, "s")
    return m


def baseline_lines(stats: tracing.SpanStats, workers: int) -> list[str]:
    """The ROADMAP baseline figures next to this traced batch's figures."""
    lines = ["baseline (ROADMAP, serial, catalog n) vs this traced batch (n divided by "
             f"{workloads.N_DIVISOR} except for {', '.join(sorted(workloads.FULL_N))})"
             + ("" if workers == 1 else f" ({workers} workers: times are not serial)")]
    for name, secs in sorted(stats.scenario_s.items()):
        ref = BASELINE_SCENARIO_S.get(name)
        if ref is None:
            continue
        lines.append(f"  scenario {name:<20} {secs:8.2f} s   baseline {ref:5.1f} s"
                     f"   ratio {secs / ref:5.2f}")
    for label, name, ref, scale, unit in (
            ("spline_resample_array", "curves.spline_resample_array",
             BASELINE_RESAMPLE_US, 1e6, "us"),
            ("min_distance", "curves.min_distance", BASELINE_MIN_DISTANCE_MS, 1e3, "ms")):
        if stats.calls[name]:
            got = stats.per_call(name, scale)
            lines.append(f"  {label:<29} {got:8.1f} {unit} baseline {ref:5.1f} {unit}"
                         f"   ratio {got / ref:5.2f}")
    return lines


def measure(workload: workloads.Workload, seed: int, seconds: float, trace: bool,
            work: Path):
    """Run the workload; return (lines for people, result object)."""
    if not (ROOT / "src" / "curveflow" / "__init__.py").is_file():
        raise BenchError(f"no curveflow sources under {ROOT / 'src'}")
    deadline = time.monotonic() + RUN_BUDGET_S
    run_dir = work / "runs" / f"{workload.name}-s{seed}-p{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    store = work / "digests" / code_fingerprint()
    names = list(workload.scenarios)
    common = ["--seed", str(seed), "--scenarios", ",".join(names),
              "--workers", str(workload.workers)]
    lines = []
    try:
        batches, traced, cycles = [], None, []
        t_start = time.monotonic()

        def more(k):
            # A batch starts only if one as long as the typical batch so far
            # still ends within --seconds.
            if trace:
                return k < 2
            return (k < MIN_BATCHES or time.monotonic() - t_start
                    + statistics.median(cycles) <= seconds)

        k = 0
        while more(k):
            is_traced = trace and k == 1
            out = run_dir / f"batch{k}"
            t_spawn, res = run_child(
                common + ["--out", str(out)] + (["--trace"] if is_traced else []),
                run_dir / f"batch{k}.json", deadline)
            res["setup_s"] = res["setup_end"] - t_spawn
            res["out"] = out
            res["summary"] = json.loads((out / "artifacts" / "summary.json").read_text())
            res["failed"] = verify.verify_batch(
                out / "artifacts", names, seed, store,
                origin=f"{workload.name} (workers={workload.workers})")
            res["closed_form"] = closed_form_errors(res["summary"], names)
            cycles.append(time.monotonic() - t_spawn)
            lines.append(f"batch {k}{' (traced)' if is_traced else ''}: "
                         f"wall {res['batch_wall_s']:.3f} s, cpu {res['batch_cpu_s']:.3f} s, "
                         f"set-up {res['setup_s']:.3f} s, reference {res['reference_s']:.3f} s, "
                         f"{len(res['failed'])} of {len(names)} scenarios failed")
            lines += [f"  FAILED {name}: {why}" for name, why in sorted(res["failed"].items())]
            if is_traced:
                traced = res
            else:
                batches.append(res)
            k += 1

        attempted = len(names) * (len(batches) + (traced is not None))
        failed = sum(len(b["failed"]) for b in batches + ([traced] if traced else []))
        lines.insert(0, "fingerprint " + json.dumps(machine_fingerprint(batches[0]["n"])))
        e2e = e2e_metrics(batches)
        errors = batches[0]["closed_form"]
        shown = dict(e2e, failed_share=(failed / attempted, "ratio"),
                     **{k: (v, "1") for k, v in errors.items()}, **raw_medians(batches))
        lines.append("end_to_end " + "; ".join(f"{k} {v:.6g} {u}" for k, (v, u) in shown.items()))
        metrics = e2e
        if traced is not None:
            stats = tracing.SpanStats(tracing.load_spans(traced["out"] / "trace"))
            untraced = e2e["batch_wall_ref_s"][0]
            overhead = traced["batch_wall_s"] * REFERENCE_S / traced["reference_s"] - untraced
            lines.append(f"tracing overhead {overhead:.3f} s "
                         f"({overhead / untraced:+.1%} of batch_wall_ref_s)")
            lines += baseline_lines(stats, workload.workers)
            catalog_names = workloads.read_catalog(ROOT).sections()
            metrics = layer_metrics(stats, traced, catalog_names, overhead)
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        return lines, result
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="curveflow benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        lines, result = measure(workloads.WORKLOADS[args.workload], args.seed,
                                args.seconds, bool(args.trace), ROOT / ".bench_runs")
    except BenchError as exc:
        print(f"curvebench: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
