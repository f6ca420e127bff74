"""Tests of the benchmark itself: input generation, verification, metric names."""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import batch  # noqa: E402
import run  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_same_seed_gives_same_config_text():
    names = workloads.WORKLOADS["batch"].scenarios
    first = workloads.generate_config(run.ROOT, names, 7)
    assert first == workloads.generate_config(run.ROOT, names, 7)
    assert first != workloads.generate_config(run.ROOT, names, 8)


def test_scenario_inputs_do_not_depend_on_the_workload():
    def section(name, scenarios):
        text = workloads.generate_config(run.ROOT, scenarios, 3)
        return text.split(f"[{name}]\n", 1)[1].split("\n\n", 1)[0].rstrip("\n")

    for name in ("ellipse_area_law", "grim_reaper"):
        assert section(name, workloads.WORKLOADS["curves"].scenarios) == \
            section(name, workloads.WORKLOADS["batch"].scenarios)


def test_dimensions_stay_in_range_and_targets_follow_them():
    catalog = workloads.read_catalog(run.ROOT)
    for seed in range(20):
        circle = workloads.scenario_items(catalog, "circle_law", seed)
        r = float(circle["shape.radius"])
        assert abs(r - 1.0) <= workloads.SCALE_SPREAD
        assert float(circle["check.extinction_target"]) == pytest.approx(r * r / 2)
        assert float(circle["check.radius_time_max"]) == pytest.approx(0.45 * r * r)
        ellipse = workloads.scenario_items(catalog, "ellipse_area_law", seed)
        a, b = float(ellipse["shape.a"]), float(ellipse["shape.b"])
        assert float(ellipse["check.extinction_target"]) == pytest.approx(a * b / 2)
        # the catalog's shared-flow pair keeps sharing its inputs
        same = workloads.scenario_items(catalog, "ellipse_roundness", seed)
        assert (same["shape.a"], same["shape.b"]) == (ellipse["shape.a"], ellipse["shape.b"])


def test_n_is_divided_except_for_full_n_scenarios():
    catalog = workloads.read_catalog(run.ROOT)
    for name in ("circle_law", "dumbbell_pinch", "spiral_grayson"):
        n = int(workloads.scenario_items(catalog, name, 1)["n"])
        full = int(catalog[name]["n"])
        assert n == (full if name in workloads.FULL_N else full // workloads.N_DIVISOR)


def _fake_batch(out: Path, passed: bool) -> None:
    scen = out / "grim_reaper"
    scen.mkdir(parents=True)
    (scen / "translate.json").write_text("{}\n")
    (scen / "series.csv").write_text("t,x\n0,1\n")
    summary = {"scenarios": [{
        "name": "grim_reaper", "passed": passed, "error": None,
        "artifacts": ["translate.json"],
        "checks": [{"name": "translate/deviation", "passed": passed,
                    "measured": 0.1, "detail": ""}],
    }]}
    (out / "summary.json").write_text(json.dumps(summary))


def test_doctored_summary_counts_as_failed(tmp_path):
    _fake_batch(tmp_path / "ok", passed=True)
    store = tmp_path / "store"
    assert verify.verify_batch(tmp_path / "ok", ["grim_reaper"], 1, store, "a") == {}
    _fake_batch(tmp_path / "bad", passed=False)
    failed = verify.verify_batch(tmp_path / "bad", ["grim_reaper"], 2, store, "b")
    assert "translate/deviation" in failed["grim_reaper"]


def test_missing_artifact_and_changed_csv_count_as_failed(tmp_path):
    store = tmp_path / "store"
    _fake_batch(tmp_path / "a", passed=True)
    assert verify.verify_batch(tmp_path / "a", ["grim_reaper"], 1, store, "a") == {}
    _fake_batch(tmp_path / "b", passed=True)
    (tmp_path / "b" / "grim_reaper" / "series.csv").write_text("t,x\n0,2\n")
    failed = verify.verify_batch(tmp_path / "b", ["grim_reaper"], 1, store, "b")
    assert "series.csv" in failed["grim_reaper"]
    shutil.rmtree(tmp_path / "a")
    _fake_batch(tmp_path / "a", passed=True)
    (tmp_path / "a" / "grim_reaper" / "translate.json").unlink()
    failed = verify.verify_batch(tmp_path / "a", ["grim_reaper"], 1, store, "a")
    assert "translate.json" in failed["grim_reaper"]


@pytest.mark.skipif(not os.path.exists(f"/proc/{os.getpid()}/task/{os.getpid()}/children"),
                    reason="needs /proc/<pid>/task/<tid>/children")
def test_peak_rss_adds_up_live_children():
    hold = "b = b\"x\" * (64 << 20); print(flush=True); input()"
    child = subprocess.Popen([sys.executable, "-c", hold],
                             stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    try:
        child.stdout.readline()             # the child holds its 64 MiB now
        sampler = batch.TreeRssSampler()
        sampler.start()
        peak = sampler.stop()
    finally:
        child.communicate(b"\n")
    alone = batch._tree_rss_kib(os.getpid()) / 1024.0
    assert peak >= alone + 60


def test_spec_metric_names_and_units():
    for group in ("end_to_end", "per_layer"):
        names = [m["name"] for m in SPEC[group]]
        assert len(names) == len(set(names))
        for m in SPEC[group]:
            assert NAME.fullmatch(m["name"]), m["name"]
            assert m["unit"]


def test_traced_and_untraced_runs_emit_the_spec_metrics(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "MIN_BATCHES", 1)
    smoke = workloads.Workload("smoke", ("ellipse_area_law", "oracle_selfcheck"), 1)
    lines0, plain = run.measure(smoke, 5, 0, False, tmp_path)
    lines1, traced = run.measure(smoke, 5, 0, True, tmp_path)
    e2e = [m["name"] for m in SPEC["end_to_end"]]
    assert list(plain["metrics"]) == e2e
    assert list(traced["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    for result in (plain, traced):
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
        for name, metric in result["metrics"].items():
            assert NAME.fullmatch(name) and metric["unit"]

    def e2e_line(lines):
        line = next(x for x in lines if x.startswith("end_to_end "))
        return [part.split()[0] for part in line[len("end_to_end "):].split("; ")]

    assert e2e_line(lines0) == e2e_line(lines1)
    assert set(e2e) <= set(e2e_line(lines0))
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == units
