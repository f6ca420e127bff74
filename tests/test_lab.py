"""Scenario lab: config parsing, artifacts, runner reports, CLI exit codes."""

import dataclasses
import json
import os
import re
import shlex
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import curveflow
import curveflow.axisym as ax
import curveflow.curves as cv
import curveflow.flow1d as f1
import curveflow.oracle as oc
import curveflow.rescale as rs
from curveflow.errors import ConfigError, InvalidInputError
from curveflow.lab import artifacts, cli, runner, scenarios

TINY_CIRCLE = """[tiny_circle]
kind = curve-flow
shape = circle
shape.radius = 0.5
n = 96
law.p = 1.0
cfl_factor = 0.5
resample_every = 10
stop_area_fraction = 0.3
analyses = radius-law, area-law
save_snapshots = true
check.radius_rel_tol = 1e-2
check.slope_rel_tol = 0.01
check.extinction_rel_tol = 0.05
"""

TINY_ORACLE = """[oracle_gate]
kind = oracle-check
shape = selfcheck
analyses = selfcheck
check.selfcheck_tol = 1e-6
"""

TINY_SPHERE = """[tiny_sphere]
kind = axi-flow
shape = sphere
shape.r0 = 0.3
n = 96
cfl_factor = 0.5
resample_every = 10
stop_area_fraction = 0.5
analyses = radius-law
save_snapshots = yes
check.radius_rel_tol = 1e-2
"""

GRIM_REAPER = """[reaper]
kind = curve-flow
shape = grim_reaper
shape.half_width = 1.2
n = 41
cfl_factor = 0.4
resample_every = 25
duration = 0.05
analyses = translate
"""

BLOWUP = """[dial]
kind = axi-flow
shape = dumbbell
shape.lobe_r = 1.0
shape.tube_r = 0.15
shape.tube_len = 1.2
n = 200
cfl_factor = 0.4
resample_every = 10
stop_area_fraction = 0.02
analyses = blowup
probe_count = 6
dial_powers = 2.0, 1.0, 0.5
check.dial_classes = plane-like; convex-or-cylinder; cylinder-like
"""

# One axisymmetric flow read by two scenarios: the neck fit and the blow-up dial.
AXI_PAIR = """[{name}_neck]
kind = axi-flow
shape = {shape}
{params}
n = {n}
cfl_factor = 0.4
resample_every = 10
stop_area_fraction = 0.02
analyses = neck

[{name}_dial]
kind = axi-flow
shape = {shape}
{params}
n = {n}
cfl_factor = 0.4
resample_every = 10
stop_area_fraction = 0.02
analyses = blowup
"""
DUMBBELL_PAIR = AXI_PAIR.format(
    name="dumbbell", shape="dumbbell", n=480,
    params="shape.lobe_r = 1.0\nshape.tube_r = 0.15\nshape.tube_len = 1.2")
# 32 samples cannot resolve the tube: run_axi rejects the profile
COARSE_TORUS_PAIR = AXI_PAIR.format(
    name="torus", shape="torus", n=32, params="shape.ring_r = 1.0\nshape.tube_r = 0.25")

# A circle of radius 1.5 around a 0.8 x 0.4 ellipse: they start 0.7 apart.
NESTED_PAIR = """[pair]
kind = curve-flow
shape = nested_pair
shape.outer_radius = 1.5
shape.a = 0.8
shape.b = 0.4
n = 48
law.p = 1.0
cfl_factor = 0.5
resample_every = 10
stop_area_fraction = 0.5
analyses = pair-distance
save_snapshots = true
"""

TINY_ELLIPSE = """[ellipse_{name}]
kind = curve-flow
shape = ellipse
shape.a = 0.6
shape.b = 0.3
n = 64
law.p = 1.0
cfl_factor = 0.5
resample_every = 10
stop_area_fraction = 0.3
analyses = {analysis}
"""
ELLIPSE_PAIR = (TINY_ELLIPSE.format(name="area", analysis="area-law")
                + TINY_ELLIPSE.format(name="roundness", analysis="roundness"))


def tiny_circle_scenario():
    return scenarios.parse_config(TINY_CIRCLE)[0]


def oracle_scenario(text=TINY_ORACLE):
    return scenarios.parse_config(text)[0]


class TestParseConfig:
    def test_empty_document_yields_no_scenarios(self):
        assert scenarios.parse_config("") == []
        assert scenarios.parse_config("# just a comment\n") == []

    def test_round_trip_of_fields(self):
        s = tiny_circle_scenario()
        assert s.name == "tiny_circle"
        assert s.kind == scenarios.KIND_CURVE
        assert s.shape == "circle"
        assert s.shape_params == {"radius": 0.5}
        assert s.n == 96
        assert s.law.p == 1.0
        assert s.config.cfl_factor == 0.5
        assert s.config.stop_area_fraction == 0.3
        assert list(s.analyses) == ["radius-law", "area-law"]
        assert s.checks["radius_rel_tol"] == 1e-2

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="kind"):
            scenarios.parse_config(TINY_CIRCLE.replace("curve-flow", "banana"))

    def test_semantic_error_names_field(self):
        bad = TINY_CIRCLE.replace("law.p = 1.0", "law.p = -1")
        with pytest.raises(ConfigError, match=r"law\.p"):
            scenarios.parse_config(bad)

    @pytest.mark.parametrize("analysis", ["area-law", "roundness"])
    def test_unit_law_analysis_rejects_other_p(self, tmp_path, capsys, analysis):
        # their closed forms hold at p = 1 alone, so the parser, not the run, says so
        text = TINY_ELLIPSE.format(name="p", analysis=analysis).replace(
            "law.p = 1.0", "law.p = 0.333333333333")
        with pytest.raises(ConfigError, match=rf"'{analysis}' needs law\.p = 1"):
            scenarios.parse_config(text)
        cfg = tmp_path / "p.cfg"
        cfg.write_text(text)
        assert cli.main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "law.p" in capsys.readouterr().err
        assert scenarios.parse_config(text.replace(analysis, "norm-length"))

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="wobble"):
            scenarios.parse_config(TINY_CIRCLE + "wobble = 3\n")

    def test_missing_shape_parameter_named(self):
        bad = TINY_CIRCLE.replace("shape.radius = 0.5\n", "")
        with pytest.raises(ConfigError, match=r"shape\.radius"):
            scenarios.parse_config(bad)

    def test_analysis_must_match_kind(self):
        with pytest.raises(ConfigError, match="not available"):
            scenarios.parse_config(TINY_CIRCLE.replace("radius-law, area-law",
                                                       "neck"))

    def test_analysis_may_require_shape(self):
        with pytest.raises(ConfigError, match="grim_reaper"):
            scenarios.parse_config(TINY_CIRCLE.replace("radius-law, area-law",
                                                       "translate"))

    @pytest.mark.parametrize("key", ["cfl_factor", "resample_every"])
    def test_reaper_flow_keys_required(self, key):
        # no hidden default: FlowConfig's resample_every differs from the oracle's
        bad = re.sub(rf"^{key} = .*\n", "", GRIM_REAPER, flags=re.M)
        with pytest.raises(ConfigError, match=f"missing required key {key}"):
            scenarios.parse_config(bad)

    def test_reaper_rejects_a_law(self):
        # the front always moves by curvature, so nothing would read law.p
        assert scenarios.parse_config(GRIM_REAPER)[0].law.p == 1.0
        with pytest.raises(ConfigError, match=r"law\.p is not read.*closed curves"):
            scenarios.parse_config(GRIM_REAPER.replace("n = 41", "n = 41\nlaw.p = 1.0"))

    def test_duplicate_scenario_name(self):
        with pytest.raises(ConfigError, match="duplicate"):
            scenarios.parse_config(TINY_CIRCLE + TINY_CIRCLE)

    def test_syntax_error_reports_line(self):
        with pytest.raises(ConfigError, match="line"):
            scenarios.parse_config("stray value\n[t]\nkind = curve-flow\n")

    def test_non_numeric_value_rejected(self):
        with pytest.raises(ConfigError, match="n must be a number"):
            scenarios.parse_config(TINY_CIRCLE.replace("n = 96", "n = many"))

    @pytest.mark.parametrize("old, new, field", [
        ("n = 96", "n = inf", "n"),
        ("resample_every = 10", "resample_every = 2.5", "resample_every"),
    ])
    def test_integer_field_rejects_non_integers(self, old, new, field):
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            scenarios.parse_config(TINY_CIRCLE.replace(old, new))

    def test_blowup_needs_a_profile_shape(self):
        bad = TINY_CIRCLE.replace("radius-law, area-law", "blowup")
        with pytest.raises(ConfigError, match="'blowup' not available for curve-flow"):
            scenarios.parse_config(bad)

    def test_checks_and_options_are_complete_and_typed(self):
        s = tiny_circle_scenario()
        assert s.checks["radius_time_max"] is None
        assert s.checks["lifetime_max"] is None
        assert s.options == {"save_snapshots": True}
        assert scenarios.parse_config(TINY_ORACLE)[0].options == {}
        dial = scenarios.parse_config(BLOWUP)[0]
        assert dial.options == {"probe_count": 6, "dial_powers": (2.0, 1.0, 0.5),
                                "save_snapshots": False}
        assert dial.checks["dial_classes"] == ("plane-like", "convex-or-cylinder",
                                               "cylinder-like")
        neck = TINY_SPHERE.replace("radius-law", "neck")
        neck = neck.replace("check.radius_rel_tol = 1e-2\n", "")
        assert scenarios.parse_config(neck)[0].checks["neck_ratio_band"] is None
        assert scenarios.parse_config(GRIM_REAPER)[0].options == {"duration": 0.05}

    def test_unknown_check_key_rejected(self):
        # a misspelt tolerance must not fall back to its default
        bad = TINY_ORACLE.replace("check.selfcheck_tol = 1e-6",
                                  "check.selfcheck_tl = 0")
        with pytest.raises(ConfigError, match=r"check\.selfcheck_tl"):
            scenarios.parse_config(bad)

    def test_check_key_of_unrequested_analysis_rejected(self):
        with pytest.raises(ConfigError, match=r"check\.roundness_final.*'roundness'"):
            scenarios.parse_config(TINY_CIRCLE + "check.roundness_final = 0.1\n")

    def test_malformed_check_value_rejected(self):
        bad = TINY_CIRCLE.replace("check.radius_rel_tol = 1e-2",
                                  "check.radius_rel_tol = tight")
        with pytest.raises(ConfigError, match=r"check\.radius_rel_tol must be a finite number"):
            scenarios.parse_config(bad)

    @pytest.mark.parametrize("text, old, new, field", [
        # duration: a positive number, for grim_reaper only
        (GRIM_REAPER, "duration = 0.05", "duration = -0.05", "duration"),
        (GRIM_REAPER, "duration = 0.05", "duration = soon", "duration"),
        (GRIM_REAPER, "duration = 0.05\n", "", "duration"),
        (TINY_CIRCLE, "n = 96", "n = 96\nduration = 0.3", "duration"),
        # probe_count: an integer >= 3
        (BLOWUP, "probe_count = 6", "probe_count = banana", "probe_count"),
        (BLOWUP, "probe_count = 6", "probe_count = 2", "probe_count"),
        (BLOWUP, "probe_count = 6", "probe_count = 4.5", "probe_count"),
        # dial_powers: positive numbers, one per check.dial_classes entry
        (BLOWUP, "dial_powers = 2.0, 1.0, 0.5", "dial_powers = 2.0, -1.0, 0.5",
         "dial_powers"),
        (BLOWUP, "dial_powers = 2.0, 1.0, 0.5", "dial_powers = 2.0, 1.0", "dial_powers"),
        (BLOWUP, "plane-like; convex", "plane-like; convex-like; convex", "dial_powers"),
        # check.dial_classes: known outcomes only
        (BLOWUP, "plane-like;", "flat;", r"check\.dial_classes"),
        # save_snapshots: one of the boolean words
        (TINY_CIRCLE, "save_snapshots = true", "save_snapshots = maybe", "save_snapshots"),
        # an option on a kind that never reads it
        (TINY_CIRCLE, "n = 96", "n = 96\nprobe_count = 6", "probe_count"),
        # check flags: one of the boolean words
        (DUMBBELL_PAIR, "analyses = neck", "analyses = neck\ncheck.mean_convex = 2",
         r"check\.mean_convex"),
        (ELLIPSE_PAIR, "analyses = roundness",
         "analyses = roundness\ncheck.roundness_monotone = 2", r"check\.roundness_monotone"),
        (TINY_ORACLE, "analyses", "save_snapshots = false\nanalyses", "save_snapshots"),
        (GRIM_REAPER, "n = 41", "n = 41\nsave_snapshots = true", "save_snapshots"),
        # no infinite lengths or times
        (TINY_CIRCLE, "shape.radius = 0.5", "shape.radius = inf", r"shape\.radius"),
        (GRIM_REAPER, "duration = 0.05", "duration = inf", "duration"),
        (BLOWUP, "dial_powers = 2.0, 1.0, 0.5", "dial_powers = 2.0, inf, 0.5", "dial_powers"),
        # check keys whose sign would flip the verdict or break the analysis
        (TINY_CIRCLE, "n = 96", "n = 96\ncheck.extinction_target = -1",
         r"check\.extinction_target"),
        (TINY_CIRCLE, "n = 96", "n = 96\ncheck.extinction_target = 0",
         r"check\.extinction_target"),
        (TINY_CIRCLE, "n = 96", "n = 96\ncheck.radius_time_max = -1", r"check\.radius_time_max"),
        (NESTED_PAIR, "n = 48", "n = 48\ncheck.min_separation = -1", r"check\.min_separation"),
    ])
    def test_option_rule_names_the_field(self, text, old, new, field):
        assert old in text
        with pytest.raises(ConfigError, match=field):
            scenarios.parse_config(text.replace(old, new, 1))

    def test_blowup_may_save_snapshots(self):
        dial = scenarios.parse_config(BLOWUP.replace("n = 200", "n = 200\nsave_snapshots = yes"))
        assert dial[0].options["save_snapshots"] is True


class TestBuiltinCatalog:
    def test_thirteen_scenarios(self):
        catalog = scenarios.builtin_catalog()
        assert len(catalog) == 13
        names = [s.name for s in catalog]
        assert len(set(names)) == 13
        for expected in ("circle_law", "ellipse_area_law", "ellipse_roundness",
                         "spiral_grayson", "affine_ellipse", "sphere_law",
                         "dumbbell_pinch", "torus_collapse", "disjoint_nested",
                         "grim_reaper", "blowup_dial", "oracle_selfcheck"):
            assert expected in names

    def test_every_analysis_has_an_artifact(self):
        # each evaluator writes its one artifact and returns its name
        assert set(runner._EVALUATORS) == set(scenarios.ANALYSES)
        for s in scenarios.builtin_catalog():
            assert set(s.analyses) <= set(scenarios.ANALYSES)

    def test_oracle_subset_is_nonempty(self):
        kinds = {s.kind for s in scenarios.builtin_catalog()}
        assert scenarios.KIND_ORACLE in kinds


class TestArtifacts:
    def test_unit_circle_viewbox(self, tmp_path):
        path = tmp_path / "circle.svg"
        artifacts.emit_svg(cv.circle_polygon(1.0, 128), path)
        text = path.read_text()
        assert "<polygon" in text
        view = text.split('viewBox="')[1].split('"')[0]
        x0, y0, w, h = (float(v) for v in view.split())
        assert x0 == pytest.approx(-1.05, abs=1e-9)
        assert y0 == pytest.approx(-1.05, abs=1e-9)
        assert w == pytest.approx(2.1, abs=1e-9)
        assert h == pytest.approx(2.1, abs=1e-9)

    def test_open_polyline_stays_open(self, tmp_path):
        pts = np.column_stack([np.linspace(0, 1, 20), np.linspace(0, 1, 20) ** 2])
        path = tmp_path / "arc.svg"
        artifacts.emit_svg(pts, path)
        text = path.read_text()
        assert "<polyline" in text and "<polygon" not in text

    def test_profile_rendered_as_mirrored_cross_section(self, tmp_path):
        path = tmp_path / "dumbbell.svg"
        artifacts.emit_svg(ax.dumbbell_profile(1.0, 0.2, 1.0, 200), path)
        text = path.read_text()
        assert "<polygon" in text
        view = text.split('viewBox="')[1].split('"')[0]
        x0, y0, w, h = (float(v) for v in view.split())
        # the mirror doubles the vertical extent around the axis
        assert y0 < -0.9 and y0 + h > 0.9

    def test_trajectory_csv_header_and_determinism(self):
        traj = f1.run(cv.circle_polygon(0.4, 64), f1.SpeedLaw(1.0),
                      f1.FlowConfig(cfl_factor=0.5, stop_area_fraction=0.5))
        a = artifacts.trajectory_csv(traj)
        b = artifacts.trajectory_csv(traj)
        assert a == b
        assert a.splitlines()[0] == artifacts.CURVE_CSV_HEADER

    @pytest.mark.parametrize("make", [
        lambda cfg: f1.run(cv.circle_polygon(0.4, 64), f1.SpeedLaw(1.0), cfg),
        lambda cfg: f1.run(cv.peanut_polygon(1.0, 0.15, 64), f1.SpeedLaw(1.0 / 3.0), cfg),
        lambda cfg: ax.run_axi(ax.sphere_profile(0.3, 96), cfg),
        lambda cfg: ax.run_axi(ax.torus_profile(1.0, 0.25, 64), cfg),
        lambda cfg: ax.run_axi(ax.cylinder_profile(0.3, 1.0, 64), cfg),
        lambda cfg: ax.run_axi(ax.dumbbell_profile(1.0, 0.3, 1.0, 256), cfg),
    ], ids=["circle", "peanut-p-third", "sphere", "torus", "cylinder", "dumbbell"])
    def test_save_then_load_trajectory_is_exact(self, tmp_path, make):
        traj = make(f1.FlowConfig(cfl_factor=0.5, stop_area_fraction=0.5))
        artifacts.save_trajectory(tmp_path / "snaps", traj)
        assert (tmp_path / "snaps" / "index.json").exists()
        back = artifacts.load_trajectory(tmp_path / "snaps")
        assert np.array_equal(back.times(), traj.times())
        assert len(back.snapshots) == len(traj.snapshots)
        for s0, s1 in zip(traj.snapshots, back.snapshots):
            assert type(s1.geometry) is type(s0.geometry)
            for f in dataclasses.fields(s0.geometry):
                assert np.array_equal(getattr(s1.geometry, f.name), getattr(s0.geometry, f.name))
        assert back.events == traj.events
        assert back.law == traj.law
        assert artifacts.trajectory_csv(back) == artifacts.trajectory_csv(traj)

    @pytest.mark.parametrize("write", [
        lambda traj, out: artifacts.trajectory_csv(traj),
        lambda traj, out: artifacts.save_trajectory(out / "snaps", traj),
    ], ids=["trajectory-csv", "save-trajectory"])
    def test_front_trajectory_has_no_format(self, tmp_path, write):
        front = oc.evolve_translating_front(oc.grim_reaper(41), 0.02)
        with pytest.raises(InvalidInputError, match="no trajectory format for ndarray"):
            write(front, tmp_path)
        assert not (tmp_path / "snaps").exists()

    def test_one_format_call_matches_per_value_formatting(self):
        """Each artifact is byte-equal to the per-value f-strings it replaced,
        on signed zeros, subnormals, huge and tiny values and bools."""
        def old_points(pts):
            return "\n".join(f"{x:.17g} {y:.17g}" for x, y in pts) + "\n"

        def old_series(header, rows):
            return "\n".join([header] + [",".join(format(float(x), ".17g") for x in row)
                                         for row in rows]) + "\n"

        t = np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)
        octagon = 1e100 * np.column_stack([np.cos(t), np.sin(t)])
        octagon[0] = 1e100, -0.0
        octagon[2] = 5e-324, 1e100
        octagon[4] = -1e100, 1.25e-7
        rng = np.random.default_rng(7)
        tiny = 1e-7 * (octagon / 1e100 + rng.normal(scale=0.01, size=(8, 2)))
        for pts in (octagon, tiny):
            assert cv.format_curve(cv.PlaneCurve(pts)) == old_points(pts)
        for prof in (ax.sphere_profile(2.5e-5, 32), ax.cylinder_profile(3.5e-5, 1e-4, 16)):
            head = ax.format_profile(prof).splitlines()[0]
            assert ax.format_profile(prof) == head + "\n" + old_points(prof.samples)

        pts = np.array([[-0.0, 0.0], [5e-324, 1e300], [1.25e-7, -3.5e-12], [1.0, 2.0]])
        flipped = np.column_stack([pts[:, 0], -pts[:, 1]])
        coords = " ".join(f"{p[0]:.6g},{p[1]:.6g}" for p in flipped)
        assert f'points="{coords}"' in artifacts._svg_document(pts, closed=False)

        rows = [(0.0, -0.0, True), (5e-324, np.float64(1e300), np.False_), (-1.25e-7, 3, 2.5)]
        assert artifacts.series_csv("a,b,c", rows) == old_series("a,b,c", rows)
        assert artifacts.series_csv("a,b,c", []) == "a,b,c\n"

        curve = cv.PlaneCurve(octagon)
        snaps = [f1.Snapshot(0.0, curve, cv.metrics(curve)),
                 f1.Snapshot(5e-324, curve, cv.CurveMetrics(1e300, -0.0, 5e-324, -1.25e-7,
                                                            np.float64(3.0), True))]
        traj = f1.Trajectory(snaps)
        want = old_series(artifacts.CURVE_CSV_HEADER,
                          [(s.time, *dataclasses.astuple(s.metrics)) for s in snaps])
        assert artifacts.trajectory_csv(traj) == want
        prof = ax.sphere_profile(0.5, 32)
        axi = f1.Trajectory([f1.Snapshot(0.0, prof, ax.axi_metrics(prof)),
                             f1.Snapshot(1.0, prof, ax.AxiMetrics(1e300, 5e-324, -0.0, -2e-9,
                                                                  -1.0, 2.0, np.True_))])
        want = old_series(artifacts.AXI_CSV_HEADER,
                          [(s.time, *dataclasses.astuple(s.metrics)) for s in axi.snapshots])
        assert artifacts.trajectory_csv(axi) == want


NAN = float("nan")


@pytest.mark.parametrize("call, error, match", [
    (lambda: f1.FlowConfig(cfl_factor=NAN), InvalidInputError, "cfl_factor"),
    (lambda: scenarios.parse_config(TINY_CIRCLE.replace("cfl_factor = 0.5", "cfl_factor = nan")),
     ConfigError, "cfl_factor"),
    (lambda: f1.FlowConfig(max_curvature_stop=NAN), InvalidInputError, "max_curvature_stop"),
    (lambda: f1.FlowConfig(resample_every=2.5), InvalidInputError, "resample_every"),
    (lambda: f1.FlowConfig(max_steps=12.5), InvalidInputError, "max_steps"),
    (lambda: oc.evolve_translating_front(oc.grim_reaper(41), NAN), InvalidInputError, "duration"),
    (lambda: rs.parabolic_rescale(f1.run(cv.circle_polygon(0.4, 64), f1.SpeedLaw(1.0)),
                                  (0.0, 0.0), NAN, [2.0]), InvalidInputError, "reference time"),
    (lambda: ax.AxiProfile(ax.cylinder_profile(0.3).samples, "cylinder", period=NAN),
     InvalidInputError, "period"),
    (lambda: ax.parse_profile(ax.format_profile(ax.cylinder_profile(0.3)).replace(
        "period=1\n", "period=inf\n")), InvalidInputError, "period"),
    (lambda: scenarios.parse_config(TINY_ORACLE.replace("1e-6", "inf")),
     ConfigError, r"check\.selfcheck_tol must be a finite number"),
    (lambda: scenarios.parse_config(TINY_ORACLE.replace("1e-6", "nan")),
     ConfigError, r"check\.selfcheck_tol must be a finite number"),
    (lambda: scenarios.parse_config(TINY_CIRCLE.replace("radius_rel_tol = 1e-2",
                                                        "radius_rel_tol = -inf")),
     ConfigError, r"check\.radius_rel_tol must be a finite number"),
], ids=["cfl-factor", "scenario-cfl-factor", "curvature-stop", "resample-every-fraction",
        "max-steps-fraction", "front-duration", "rescale-time",
        "profile-period-nan", "profile-period-inf", "check-selfcheck-tol-inf",
        "check-selfcheck-tol-nan", "check-radius-tol-minus-inf"])
def test_non_finite_number_is_rejected_where_it_enters(call, error, match):
    with pytest.raises(error, match=match):
        call()


def scenario_files(root):
    """Every file under root but summary.json (it holds wall times), as bytes."""
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*")
            if p.is_file() and p.name != "summary.json"}


@pytest.fixture
def driver_calls(monkeypatch):
    """Names of the flow drivers the runner calls, one entry per call."""
    calls = []
    for module, name in ((f1, "run"), (f1, "co_evolve"), (ax, "run_axi"),
                         (oc, "evolve_translating_front")):
        def counted(*args, _driver=getattr(module, name), _name=name, **kwargs):
            calls.append(_name)
            return _driver(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return calls


class TestRunner:
    def test_tiny_circle_scenario_passes(self, tmp_path):
        report = runner.run_scenario(tiny_circle_scenario(), tmp_path, {})
        assert report.error is None
        assert report.passed
        assert report.wall_time > 0
        out = tmp_path / "tiny_circle"
        for name in report.artifacts:
            assert (out / name).exists(), name
        assert set(report.artifacts) >= {"trajectory.csv", "radius_law.csv",
                                         "area_law.json", "snapshots/index.json"}

    def test_each_analysis_contributes_exactly_once(self, tmp_path):
        report = runner.run_scenario(tiny_circle_scenario(), tmp_path, {})
        assert report.artifacts.count("radius_law.csv") == 1
        assert report.artifacts.count("area_law.json") == 1
        prefixes = {c.name.split("/")[0] for c in report.checks}
        assert prefixes == {"radius-law", "area-law"}

    def test_evaluators_return_the_artifact_and_write_nothing(self, tmp_path, monkeypatch):
        text = (TINY_CIRCLE + NESTED_PAIR + GRIM_REAPER + TINY_ORACLE
                + TINY_ELLIPSE.format(name="all", analysis="roundness, convexification, "
                                      "eccentricity, norm-length")
                + DUMBBELL_PAIR)
        batch = scenarios.parse_config(text)
        assert {a for s in batch for a in s.analyses} == set(runner._EVALUATORS)
        empty = tmp_path / "cwd"
        empty.mkdir()
        monkeypatch.chdir(empty)
        flows = {}
        for s in batch:
            report = runner.run_scenario(s, tmp_path / "out", flows)
            assert report.error is None, report.error
            flow = flows.get(runner._flow_key(s))
            trajs = flow.trajs if flow else []
            before = sorted(tmp_path.rglob("*"))
            for analysis in s.analyses:
                name, payload, _ = runner._EVALUATORS[analysis](s, *trajs)
                assert name in report.artifacts
                written = (tmp_path / "out" / s.name / name).read_text()
                if isinstance(payload, str):
                    assert written == payload, name
                else:
                    assert written == json.dumps(payload, indent=2, sort_keys=True) + "\n", name
            assert sorted(tmp_path.rglob("*")) == before
            assert list(empty.iterdir()) == []

    @pytest.mark.parametrize("ending", ["crossed-start", "embeddedness-loss"])
    def test_embedded_flags_match_a_test_of_every_snapshot(self, ending):
        """The runner tests only the first snapshot and reads the rest from the
        run's ending; that must equal ``is_embedded`` of each snapshot."""
        bowtie = cv.PlaneCurve([[0, 0], [1, 1], [2, 1], [2, 0], [1, 0], [0, 1],
                                [-1, 1], [-1, 0.5]])
        circle = cv.circle_polygon(1.0, 32)
        if ending == "crossed-start":
            curves, event = [bowtie, circle, circle], f1.EVENT_EXTINCTION
        else:
            curves, event = [circle, circle, bowtie], f1.EVENT_EMBEDDEDNESS_LOSS
        snaps = [f1.Snapshot(float(i), c, cv.metrics(c)) for i, c in enumerate(curves)]
        traj = f1.Trajectory(snaps, [f1.Event(f1.EVENT_CONVEXIFICATION, 0.5), f1.Event(event, 2.0)])
        want = [cv.is_embedded(snap.geometry) for snap in traj.snapshots]
        assert want.count(False) == 1
        assert runner._embedded(traj) == want

    def test_runs_are_bit_identical(self, tmp_path):
        s = tiny_circle_scenario()
        runner.run_scenario(s, tmp_path / "a", {})
        runner.run_scenario(s, tmp_path / "b", {})
        for name in ("trajectory.csv", "radius_law.csv", "area_law.json"):
            left = (tmp_path / "a" / "tiny_circle" / name).read_bytes()
            right = (tmp_path / "b" / "tiny_circle" / name).read_bytes()
            assert left == right, name

    def test_telemetry_file_matches_the_summary_and_repeats(self, tmp_path):
        batch = [tiny_circle_scenario(), scenarios.parse_config(TINY_SPHERE)[0],
                 scenarios.parse_config(GRIM_REAPER)[0], oracle_scenario()]
        _, summary, _ = runner.accept(batch, tmp_path / "a")
        runner.accept(batch, tmp_path / "b")
        circle, sphere, front, oracle = summary["scenarios"]
        for entry, event in ((circle, f1.EVENT_EXTINCTION), (sphere, ax.EVENT_POLE_EXTINCTION),
                             (front, oc.EVENT_HORIZON)):
            on_disk = json.loads((tmp_path / "a" / entry["name"] / "telemetry.json").read_text())
            assert on_disk == entry["telemetry"]
            (stats,) = on_disk["trajectories"]
            assert stats["event"] == event and stats["steps"] > 0
            assert "telemetry.json" not in entry["artifacts"]
        assert oracle["telemetry"] is None
        assert not (tmp_path / "a" / "oracle_gate" / "telemetry.json").exists()
        # no wall times: the telemetry files repeat byte for byte with the rest
        assert scenario_files(tmp_path / "a") == scenario_files(tmp_path / "b")

    def test_nested_pair_writes_one_set_per_curve(self, tmp_path):
        report = runner.run_scenario(scenarios.parse_config(NESTED_PAIR)[0], tmp_path, {})
        assert report.passed, report.error
        assert report.artifacts == [
            f"{stem}_{i}{ext}" for i in (0, 1)
            for stem, ext in (("trajectory", ".csv"), ("initial", ".svg"),
                              ("final", ".svg"), ("snapshots", "/index.json"))
        ] + ["pair_distance.csv"]
        for name in report.artifacts:
            assert (tmp_path / "pair" / name).exists(), name

    def test_runtime_error_is_captured_not_raised(self, tmp_path):
        text = """[bad_dumbbell]
kind = axi-flow
shape = dumbbell
shape.lobe_r = 0.1
shape.tube_r = 0.3
shape.tube_len = 1.0
n = 200
cfl_factor = 0.4
resample_every = 10
stop_area_fraction = 0.02
analyses = neck
"""
        report = runner.run_scenario(scenarios.parse_config(text)[0], tmp_path, {})
        assert not report.passed
        assert report.error is not None
        assert "InvalidInputError" in report.error
        assert report.traceback.startswith("Traceback")
        assert "in dumbbell_profile" in report.traceback

    def test_oracle_scenario_is_fast(self, tmp_path):
        started = time.perf_counter()
        report = runner.run_scenario(oracle_scenario(), tmp_path, {})
        elapsed = time.perf_counter() - started
        assert report.passed
        assert elapsed < 5.0
        payload = json.loads((tmp_path / "oracle_gate"
                              / "oracle_selfcheck.json").read_text())
        assert payload["worst"] < 1e-6

    def test_accept_writes_summary_and_status(self, tmp_path):
        batch = [tiny_circle_scenario(), oracle_scenario()]
        reports, summary, status = runner.accept(batch, tmp_path / "2", workers=2)
        assert status == 0
        assert summary["total"] == 2 and summary["failed"] == 0
        on_disk = json.loads((tmp_path / "2" / "summary.json").read_text())
        assert [s["name"] for s in on_disk["scenarios"]] == ["tiny_circle",
                                                             "oracle_gate"]
        assert set(on_disk["scenarios"][0]) == {
            "name", "passed", "wall_time", "shared_flow", "error", "traceback", "warnings",
            "telemetry", "artifacts", "checks"}
        assert set(on_disk["scenarios"][0]["checks"][0]) == {
            "name", "passed", "measured", "detail", "value", "sense", "tolerance", "margin"}
        # the worker count is ignored
        runner.accept(batch, tmp_path / "1", workers=1)
        assert scenario_files(tmp_path / "2") == scenario_files(tmp_path / "1")

    def test_each_sense_fails_on_a_wrong_tolerance(self, tmp_path):
        # one check set to fail per sense: <, >, == and in
        text = (TINY_CIRCLE.replace("radius_rel_tol = 1e-2", "radius_rel_tol = 1e-12")
                + NESTED_PAIR + "check.min_separation = 1.0\n"
                + DUMBBELL_PAIR.replace("analyses = neck\n",
                                   "analyses = neck\ncheck.event = torus-collapse\n")
                .replace("analyses = blowup\n", "analyses = blowup\ncheck.dial_classes = "
                         "circle-like; convex-or-cylinder; cylinder-like\n"))
        reports, summary, status = runner.accept(scenarios.parse_config(text), tmp_path)
        assert status == 1 and summary["failed"] == 4
        failing = [c for r in reports for c in r.checks if not c.passed]
        assert [(c.name, c.sense) for c in failing] == [
            ("radius-law/max_rel_err", "<"), ("pair-distance/separation", ">"),
            ("neck/event", "=="), ("blowup/dial_h^2", "in")]
        assert [r.error for r in reports] == [None] * 4
        assert [r.passed for r in reports] == [False] * 4
        assert failing[0].margin > 1
        assert [c.margin for c in failing[1:]] == [None] * 3
        assert (failing[2].value, failing[3].value) == ("neck-pinch", "plane-like")

    def test_closed_form_measures_are_the_analyses_figures(self, tmp_path):
        # curvebench's closed_form_rel_err reads these two measured figures
        s = scenarios.parse_config(TINY_CIRCLE + "check.radius_time_max = 0.05\n")[0]
        runner.accept([s], tmp_path)
        (entry,) = json.loads((tmp_path / "summary.json").read_text())["scenarios"]
        measured = {c["name"]: c["measured"] for c in entry["checks"]}
        [traj] = runner._run_flow(runner._flow_key(s))
        assert measured["area-law/slope"] == f1.analyze_area_law(traj).slope
        rows = np.loadtxt(tmp_path / "tiny_circle" / "radius_law.csv", delimiter=",",
                          skiprows=1)
        window = rows[:, 0] <= 0.05
        assert 0 < window.sum() < len(rows)
        assert measured["radius-law/max_rel_err"] == rows[window, 3].max()

    def test_summary_keeps_the_traceback_of_a_failure(self, tmp_path):
        bad = scenarios.parse_config(BLOWUP.replace("tube_r = 0.15", "tube_r = 1.5"))[0]
        runner.accept([bad, oracle_scenario()], tmp_path)
        failed, passed = json.loads((tmp_path / "summary.json").read_text())["scenarios"]
        assert failed["error"].startswith("InvalidInputError: tube radius")
        assert "in dumbbell_profile" in failed["traceback"]
        assert passed["traceback"] is None

    def test_warnings_are_recorded_per_scenario(self, tmp_path, monkeypatch):
        selfcheck = runner._EVALUATORS["selfcheck"]

        def warn_then_check(s):
            if s.name == "oracle_gate":
                warnings.warn("frame 3 skipped", UserWarning)
            return selfcheck(s)

        monkeypatch.setitem(runner._EVALUATORS, "selfcheck", warn_then_check)
        quiet = oracle_scenario(TINY_ORACLE.replace("[oracle_gate]", "[oracle_quiet]"))
        with warnings.catch_warnings(record=True) as shown:
            warnings.simplefilter("always")
            reports, summary, status = runner.accept([oracle_scenario(), quiet], tmp_path)
        assert status == 0 and shown == []
        assert [r.warnings for r in reports] == [["UserWarning: frame 3 skipped"], []]
        on_disk = json.loads((tmp_path / "summary.json").read_text())
        assert [e["warnings"] for e in on_disk["scenarios"]] == [r.warnings for r in reports]

    def test_a_shared_flow_hands_its_warnings_to_every_member(self, tmp_path, monkeypatch):
        run = f1.run

        def warn_then_run(*args, **kwargs):
            warnings.warn("flow warned", RuntimeWarning)
            return run(*args, **kwargs)

        monkeypatch.setattr(f1, "run", warn_then_run)
        reports, _, _ = runner.accept(scenarios.parse_config(ELLIPSE_PAIR), tmp_path)
        assert [r.warnings for r in reports] == [["RuntimeWarning: flow warned"]] * 2
        assert reports[1].shared_flow == reports[0].scenario

    @pytest.mark.parametrize("text, order", [
        (ELLIPSE_PAIR, [0, 1]),
        (DUMBBELL_PAIR, [0, 1]),
        # the pair split around other scenarios
        (DUMBBELL_PAIR + TINY_CIRCLE + TINY_SPHERE + TINY_ORACLE, [0, 2, 3, 1, 4]),
    ], ids=["ellipse", "dumbbell", "dumbbell-split"])
    def test_a_shared_flow_runs_once(self, tmp_path, driver_calls, text, order):
        parsed = scenarios.parse_config(text)
        first, second = parsed[:2]    # the pair that shares one flow
        batch = [parsed[i] for i in order]
        reports, summary, _ = runner.accept(batch, tmp_path / "batch")
        in_batch = len(driver_calls)
        assert [r.error for r in reports] == [None] * len(batch)
        assert [(e["name"], e["shared_flow"]) for e in summary["scenarios"]] == [
            (s.name, first.name if s is second else None) for s in batch]
        for s in batch:
            assert runner.run_scenario(s, tmp_path / "alone", {}).shared_flow is None
        # alone, the pair's second member runs the flow the batch shared
        assert len(driver_calls) - in_batch == in_batch + 1
        files = scenario_files(tmp_path / "batch")
        assert {path.parts[0] for path in files} == {s.name for s in batch}
        assert files == scenario_files(tmp_path / "alone")

    @pytest.mark.parametrize("old, new", [
        ("n = 64", "n = 72"),
        ("law.p = 1.0", "law.p = 0.5"),
        ("stop_area_fraction = 0.3", "stop_area_fraction = 0.4"),
    ], ids=["n", "law.p", "stop_area_fraction"])
    def test_different_flow_inputs_run_apart(self, tmp_path, driver_calls, old, new):
        # norm-length accepts any law.p; area-law and roundness need p = 1
        text = (TINY_ELLIPSE.format(name="area", analysis="area-law")
                + TINY_ELLIPSE.format(name="length", analysis="norm-length").replace(old, new))
        _, summary, _ = runner.accept(scenarios.parse_config(text), tmp_path)
        assert driver_calls == ["run", "run"]
        assert [e["shared_flow"] for e in summary["scenarios"]] == [None, None]

    def test_a_failed_shared_flow_fails_every_member(self, tmp_path, driver_calls):
        batch = scenarios.parse_config(COARSE_TORUS_PAIR) + [oracle_scenario()]
        _, summary, status = runner.accept(batch, tmp_path)
        assert driver_calls == ["run_axi"]
        assert status == 1 and summary["failed"] == 2
        neck, dial, oracle = summary["scenarios"]
        assert neck["error"].startswith("InvalidInputError: initial waist")
        assert "in run_axi" in neck["traceback"]
        assert (dial["error"], dial["traceback"]) == (neck["error"], neck["traceback"])
        assert (neck["shared_flow"], dial["shared_flow"]) == (None, "torus_neck")
        assert oracle["passed"] and oracle["shared_flow"] is None

    def test_accept_fails_on_corrupted_tolerance(self, tmp_path):
        corrupted = oracle_scenario(TINY_ORACLE.replace(
            "check.selfcheck_tol = 1e-6", "check.selfcheck_tol = 0"))
        reports, summary, status = runner.accept([corrupted], tmp_path)
        assert status == 1
        assert summary["failed"] == 1
        assert not reports[0].passed

    def test_format_table_mentions_failures(self, tmp_path):
        corrupted = oracle_scenario(TINY_ORACLE.replace(
            "check.selfcheck_tol = 1e-6", "check.selfcheck_tol = 0"))
        reports, _, _ = runner.accept([corrupted], tmp_path)
        table = runner.format_table(reports)
        assert "oracle_gate" in table
        assert "FAIL" in table
        assert "selfcheck" in table


class TestCli:
    def test_run_command(self, tmp_path, capsys):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY_CIRCLE)
        assert cli.main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "summary.json").exists()
        assert "tiny_circle" in capsys.readouterr().out

    def test_run_rejects_bad_config(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(TINY_CIRCLE.replace("law.p = 1.0", "law.p = -1"))
        assert cli.main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "law.p" in capsys.readouterr().err

    def test_run_rejects_empty_config(self, tmp_path, capsys):
        cfg = tmp_path / "empty.cfg"
        cfg.write_text("# no scenarios\n")
        assert cli.main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "no scenarios" in capsys.readouterr().err

    def test_env_var_sets_output_root(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY_ORACLE)
        monkeypatch.setenv("CURVEFLOW_OUT", str(tmp_path / "from_env"))
        assert cli.main(["run", str(cfg)]) == 0
        assert (tmp_path / "from_env" / "summary.json").exists()
        capsys.readouterr()

    def test_explicit_out_beats_env_var(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY_ORACLE)
        monkeypatch.setenv("CURVEFLOW_OUT", str(tmp_path / "from_env"))
        assert cli.main(["run", str(cfg), "--out", str(tmp_path / "explicit")]) == 0
        assert (tmp_path / "explicit" / "summary.json").exists()
        assert not (tmp_path / "from_env").exists()
        capsys.readouterr()

    def test_accept_kind_filter(self, tmp_path, capsys):
        assert cli.main(["accept", "--kind", "oracle-check",
                         "--out", str(tmp_path / "out")]) == 0
        assert "oracle_selfcheck" in capsys.readouterr().out

    def test_accept_unknown_kind(self, tmp_path, capsys):
        assert cli.main(["accept", "--kind", "nope",
                         "--out", str(tmp_path / "out")]) == 2
        capsys.readouterr()

    def test_run_fails_on_a_failed_check(self, tmp_path, capsys):
        cfg = tmp_path / "corrupted.cfg"
        cfg.write_text(TINY_ORACLE.replace("check.selfcheck_tol = 1e-6",
                                           "check.selfcheck_tol = 0"))
        assert cli.main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1
        capsys.readouterr()

    def test_oracle_selfcheck_command(self, capsys):
        assert cli.main(["oracle", "selfcheck"]) == 0
        out = capsys.readouterr().out
        assert "pass" in out and "worst" in out

    def test_oracle_closed_form_values(self, capsys):
        assert cli.main(["oracle", "circle", "1.0", "0.3"]) == 0
        assert abs(float(capsys.readouterr().out) - 0.6324555320336759) < 1e-12
        assert cli.main(["oracle", "power", "1.0", "0.3333333333333333", "0.3"]) == 0
        assert abs(float(capsys.readouterr().out) - 0.6817316198849862) < 1e-9

    def test_oracle_error_paths(self, capsys):
        assert cli.main(["oracle", "circle", "1.0", "0.6"]) == 2
        assert cli.main(["oracle", "circle", "1.0"]) == 2
        assert cli.main(["oracle", "pretzel", "1.0", "0.1"]) == 2
        assert cli.main(["oracle", "circle", "one", "0.1"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("params", [
        ["circle", "nan", "0.3"], ["circle", "1.0", "nan"], ["sphere", "inf", "0.1"],
        ["power", "nan", "0.5", "0.1"], ["power", "1.0", "0.5", "nan"],
    ])
    def test_oracle_rejects_non_finite_values(self, params, capsys):
        assert cli.main(["oracle", *params]) == 2
        assert "finite" in capsys.readouterr().err

    def test_missing_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main([])
        assert err.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("option", ["--workers", "--catalog"])
    @pytest.mark.parametrize("command", ["run", "accept"])
    def test_removed_option_is_a_usage_error(self, command, option, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main([command, *(["tiny.cfg"] if command == "run" else []), option, "1"])
        assert err.value.code == 2
        assert option in capsys.readouterr().err

    def test_rescale_command_on_saved_run(self, tmp_path, capsys):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY_CIRCLE)
        assert cli.main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
        snaps = tmp_path / "out" / "tiny_circle" / "snapshots"
        index = json.loads((snaps / "index.json").read_text())
        # choose scales whose look-back times 1/scale^2 stay inside the run
        T = index["times"][-1]
        assert cli.main(["rescale", str(snaps), "0,0", str(T),
                         "--scales", "4,6",
                         "--out", str(tmp_path / "frames")]) == 0
        meta = json.loads((tmp_path / "frames" / "frames.json").read_text())
        assert len(meta["frames"]) == 2
        for entry in meta["frames"]:
            assert (tmp_path / "frames" / entry["file"]).exists()
        capsys.readouterr()

    def test_rescale_rejects_plain_directory(self, tmp_path, capsys):
        assert cli.main(["rescale", str(tmp_path), "0,0", "1.0"]) == 2
        assert "index.json" in capsys.readouterr().err

    @pytest.mark.parametrize("corrupt, problem", [
        (lambda index, snaps: index.pop("kind"), "has no kind"),
        (lambda index, snaps: index["times"].append(1.0), "times but"),
        (lambda index, snaps: (snaps / index["snapshots"][1]).unlink(), "missing snapshot"),
        (lambda index, snaps: index["events"][0].pop("location"), "event 0 .* has no location"),
        (lambda index, snaps: index["events"][0].pop("kind"), "event 0 .* has no kind"),
        (lambda index, snaps: index["events"][0].pop("time"), "event 0 .* has no time"),
        (lambda index, snaps: index["events"][0].update(location=5), "event 0 .* location"),
        (lambda index, snaps: index["events"][0].update(location=[1]), "event 0 .* location"),
        (lambda index, snaps: index["events"][0].update(location=[0, "x"]), "event 0 .* location"),
        (lambda index, snaps: index["events"][0].update(time="soon"), "event 0 .* finite time"),
        (lambda index, snaps: index["events"][0].update(time=np.nan), "event 0 .* finite time"),
        (lambda index, snaps: index["times"].__setitem__(1, "0.1"), "times must be .* got '0.1'"),
        (lambda index, snaps: index["times"].__setitem__(2, np.nan), "times must be .* got nan"),
        (lambda index, snaps: index["times"].__setitem__(1, 10**400), "times must be .* got 1000"),
        (lambda index, snaps: index["events"][0].update(time=10**400), "event 0 .* finite time"),
        (lambda index, snaps: index["events"][0].update(location=[0, 10**400]),
         "event 0 .* location"),
        (lambda index, snaps: index.update(times=5), "times must be .* got 5"),
        (lambda index, snaps: index.update(snapshots=5), "snapshots must be .* got 5"),
        (lambda index, snaps: index.update(events=5), "events must be a list, got 5"),
        # the whole index replaced by a JSON string or list that names the three keys
        (lambda index, snaps: index["events"][0].update(kind=["neck-pinch"]),
         "event 0 .* string kind"),
        (lambda index, snaps: index["events"][0].update(kind=3), "event 0 .* string kind"),
        (lambda index, snaps: index.update(law_p="1/3"), "law_p must be a finite number"),
        (lambda index, snaps: index.update(law_p=0), "law.p must be in"),
        (lambda index, snaps: index.update(whole="kind times snapshots"), "JSON object, got str"),
        (lambda index, snaps: index.update(whole=["kind", "times", "snapshots"]),
         "JSON object, got list"),
    ], ids=["no-kind", "extra-time", "missing-file", "event-no-location", "event-no-kind",
            "event-no-time", "location-number", "location-one-number", "location-string",
            "event-time-string", "event-time-nan", "times-string", "times-nan", "times-huge-int",
            "event-time-huge-int", "location-huge-int", "times-number",
            "snapshots-number", "events-number", "event-kind-list", "event-kind-number",
            "law-p-string", "law-p-zero", "index-string", "index-list"])
    def test_bad_index_is_named_and_rescale_exits_2(self, tmp_path, capsys, corrupt, problem):
        traj = f1.run(cv.circle_polygon(0.4, 64), f1.SpeedLaw(1.0),
                      f1.FlowConfig(cfl_factor=0.5, stop_area_fraction=0.5))
        snaps = tmp_path / "snaps"
        artifacts.save_trajectory(snaps, traj)
        index = json.loads((snaps / "index.json").read_text())
        corrupt(index, snaps)
        artifacts.write_json(snaps / "index.json", index.pop("whole", index))
        with pytest.raises(InvalidInputError, match=problem):
            artifacts.load_trajectory(snaps)
        assert cli.main(["rescale", str(snaps), "0,0", "0.1",
                         "--out", str(tmp_path / "frames")]) == 2
        assert re.search(problem, capsys.readouterr().err)


def test_readme_examples_parse():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (ini,) = re.findall(r"^```ini\n(.*?)^```", text, flags=re.M | re.S)
    assert scenarios.parse_config(ini)
    commands = [line for block in re.findall(r"^```sh\n(.*?)^```", text, flags=re.M | re.S)
                for line in block.splitlines() if line.startswith("curveflow ")]
    assert len(commands) >= 5
    parser = cli.build_parser()
    for line in commands:
        try:
            parser.parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")


def run_python(*args):
    """Run a fresh interpreter that imports this curveflow tree."""
    env = dict(os.environ)
    src = str(Path(curveflow.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=120)


class TestImports:
    def test_runner_import_skips_scipy_and_cli(self):
        # In a subprocess, so that no module this test process imported counts.
        # curveflow depends on numpy alone: no scipy module may load.
        proc = run_python("-c", "import sys, curveflow, curveflow.lab.runner; print(sorted("
                          "m for m in sys.modules if m.split('.')[0] == 'scipy'"
                          " or m == 'curveflow.lab.cli'))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_every_resampler_runs_without_scipy(self):
        # sys.modules["scipy"] = None makes any import of scipy raise.
        proc = run_python("-W", "error", "-c", """
import sys
sys.modules["scipy"] = None
from curveflow import axisym as ax, curves as cv, flow1d as f1, oracle as oc, rescale as rs
traj = f1.run(cv.ellipse_polygon(2.0, 1.0, 48), f1.SpeedLaw(1.0),
              f1.FlowConfig(resample_every=5, max_steps=40))
assert traj.stats.resamples > 0, traj.stats
for prof in (ax.sphere_profile(1.0, 48), ax.torus_profile(2.0, 0.5, 48),
             ax.cylinder_profile(0.5, 1.0, 48)):
    ax._axi_resample(prof.samples.T, prof.topology, prof.period, 0.05)
rs._window(ax.sphere_profile(1.0, 48).samples, 10, closed=False)
rs._window(cv.circle_polygon(1.0, 48).vertices, 0, closed=True)
stats = oc.evolve_translating_front(oc.grim_reaper(41), 0.02,
                                    config=f1.FlowConfig(resample_every=1)).stats
assert stats.resamples > 0, stats
print("ok")
""")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "ok"

    def test_cli_as_module_warns_nothing(self):
        proc = run_python("-W", "error::RuntimeWarning", "-m", "curveflow.lab.cli",
                          "oracle", "circle", "1.0", "0.3")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "0.632455532034"
