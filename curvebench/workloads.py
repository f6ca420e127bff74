"""Benchmark workloads and the seeded scenario-file generator.

Every workload is a list of scenarios from the built-in catalog
(``src/curveflow/lab/catalog.cfg``) run as one batch by
``curveflow.lab.runner.accept`` with a fixed worker count.  The seed scales
each shape dimension by its own factor within ``SCALE_SPREAD``; check
targets that are functions of those dimensions follow them.  Every scenario
runs at its catalog ``n`` divided by ``N_DIVISOR``, except those in
``FULL_N``.
"""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass
from pathlib import Path

# Each shape dimension is scaled by a factor drawn from [1 - s, 1 + s].
SCALE_SPREAD = 0.03

# Halving n cuts a scenario's time four- to eightfold, so a batch takes a few
# seconds and one run holds several; their median is what a run reports.
# spiral_grayson keeps its catalog n: at n = 480 its area-law slope check
# fails (relative error 1.05e-2 against a tolerance of 0.005).
N_DIVISOR = 2
FULL_N = frozenset({"spiral_grayson"})


@dataclass(frozen=True)
class Workload:
    name: str
    scenarios: tuple[str, ...]
    workers: int


WORKLOADS = {
    w.name: w
    for w in (
        # Plane-curve stepping and the curves kernels (spline resample,
        # min_distance, is_embedded, metrics) at p = 1, 1/3 and 0.2; no axisym.
        Workload("curves", ("circle_law", "ellipse_area_law", "spiral_grayson",
                            "affine_ellipse", "quintic_root_growth",
                            "disjoint_nested", "grim_reaper"), 1),
        # Axisymmetric stepping, the rescale dial and the largest n (dumbbell);
        # flow1d does no work here.
        Workload("surfaces", ("sphere_law", "torus_collapse", "blowup_dial",
                              "oracle_selfcheck"), 1),
        # The only workload with concurrency and with the catalog's two
        # shared-flow pairs (the 2:1 ellipse twice, the dumbbell twice).
        Workload("batch", ("ellipse_area_law", "ellipse_roundness",
                           "dumbbell_pinch", "blowup_dial", "grim_reaper",
                           "oracle_selfcheck"), 2),
    )
}


def read_catalog(root: Path) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(interpolation=None, delimiters=("=",))
    parser.optionxform = str
    parser.read_string((root / "src" / "curveflow" / "lab" / "catalog.cfg").read_text())
    return parser


def dimension_factor(seed: int, shape: str, key: str, base: str) -> float:
    """Scale factor for one dimension, a pure function of seed and geometry.

    It is keyed by the shape, the dimension and its catalog value rather than
    by the scenario, so scenarios that share a flow in the catalog (the same
    ellipse, the same dumbbell) still share it, and a scenario gets the same
    inputs in every workload.
    """
    digest = hashlib.sha256(f"{seed}|{shape}|{key}|{base}".encode()).digest()
    u = int.from_bytes(digest[:8], "big") / 2.0**64
    return 1.0 + SCALE_SPREAD * (2.0 * u - 1.0)


def _follow_targets(shape: str, items: dict[str, str], scale: dict[str, float]) -> None:
    """Move the check targets that are closed-form functions of the dimensions."""
    if shape == "circle":
        r = float(items["shape.radius"])
        items["check.extinction_target"] = repr(r * r / 2.0)
        if "check.radius_time_max" in items:
            t = float(items["check.radius_time_max"]) * scale["shape.radius"] ** 2
            items["check.radius_time_max"] = repr(t)
    elif shape == "ellipse" and "check.extinction_target" in items:
        items["check.extinction_target"] = repr(
            float(items["shape.a"]) * float(items["shape.b"]) / 2.0)
    elif shape == "sphere" and "check.radius_time_max" in items:
        t = float(items["check.radius_time_max"]) * scale["shape.r0"] ** 2
        items["check.radius_time_max"] = repr(t)


def scenario_items(catalog: configparser.ConfigParser, name: str, seed: int) -> dict[str, str]:
    """The catalog section of one scenario with seeded dimensions and its n."""
    items = dict(catalog.items(name))
    if "n" in items and name not in FULL_N:
        items["n"] = str(int(items["n"]) // N_DIVISOR)
    shape = items["shape"]
    scale = {}
    for key in [k for k in items if k.startswith("shape.")]:
        scale[key] = dimension_factor(seed, shape, key, items[key])
        items[key] = repr(float(items[key]) * scale[key])
    _follow_targets(shape, items, scale)
    return items


def generate_config(root: Path, scenarios, seed: int) -> str:
    """Scenario-file text for the given scenarios; the same seed gives the same text."""
    catalog = read_catalog(root)
    lines = [f"# curvebench scenarios, seed {seed}; dimensions scaled within "
             f"+-{SCALE_SPREAD:g}, n divided by {N_DIVISOR} "
             f"except for {', '.join(sorted(FULL_N))}"]
    for name in scenarios:
        lines.append("")
        lines.append(f"[{name}]")
        lines += [f"{k} = {v}" for k, v in scenario_items(catalog, name, seed).items()]
    return "\n".join(lines) + "\n"
