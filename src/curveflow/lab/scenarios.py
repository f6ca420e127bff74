"""Scenario definitions and the flat key-value configuration format.

One scenario per section; every knob is written out explicitly in the file so
a config fully determines a run with no hidden defaults.  The tables below
declare each shape, analysis, check key and option once; parsing validates a
scenario against them up front, so syntax problems report line numbers and
semantic problems name the offending field.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
from importlib import resources
from typing import Callable, NamedTuple

from .. import axisym as ax
from .. import curves as cv
from .. import oracle as oc
from .. import rescale as rs
from ..errors import ConfigError, InvalidInputError
from ..flow1d import FlowConfig, SpeedLaw

KIND_CURVE = "curve-flow"
KIND_AXI = "axi-flow"
KIND_ORACLE = "oracle-check"
KINDS = (KIND_CURVE, KIND_AXI, KIND_ORACLE)


def _nested_pair(outer_radius: float, a: float, b: float, n: int) -> list[cv.PlaneCurve]:
    return [cv.circle_polygon(outer_radius, n=n), cv.ellipse_polygon(a, b, n=n)]


# shape name -> (builder, parameter names); the runner calls builder(n=n, **params)
CURVE_SHAPES = {
    "circle": (cv.circle_polygon, ("radius",)),
    "ellipse": (cv.ellipse_polygon, ("a", "b")),
    "rectangle": (cv.rectangle_polygon, ("width", "height")),
    "peanut": (cv.peanut_polygon, ("base_radius", "amplitude")),
    "spiral": (cv.spiral_polygon, ("inner_radius", "outer_radius", "winding")),
    "nested_pair": (_nested_pair, ("outer_radius", "a", "b")),
    "grim_reaper": (oc.grim_reaper, ("half_width",)),
}
SHAPES_BY_KIND = {
    KIND_CURVE: CURVE_SHAPES,
    KIND_AXI: ax.PROFILE_SHAPES,
    KIND_ORACLE: {"selfcheck": (None, ())},
}

# blow-up dial outcome -> the limit classifications it accepts
DIAL_ACCEPTS = {
    "plane-like": (rs.CLASS_PLANE,),
    "circle-like": (rs.CLASS_CIRCLE,),
    "cylinder-like": (rs.CLASS_CYLINDER,),
    "convex-like": (rs.CLASS_CONVEX,),
    "convex-or-cylinder": (rs.CLASS_CONVEX, rs.CLASS_CYLINDER),
    "any": (rs.CLASS_PLANE, rs.CLASS_CIRCLE, rs.CLASS_CYLINDER,
            rs.CLASS_CONVEX, rs.CLASS_NONE),
}


class Field(NamedTuple):
    """A typed value: parse raises ValueError unless the text is `what`.

    A default of None turns a check off and makes an option required.
    """
    parse: Callable[[str], object]
    what: str
    default: object = None


def _positive(raw: str) -> float:
    value = float(raw)
    if not 0 < value < math.inf:
        raise ValueError(raw)
    return value


def _probe_count(raw: str) -> int:
    value = float(raw)
    if not (value.is_integer() and value >= 3):
        raise ValueError(raw)
    return int(value)


def _outcomes(raw: str) -> tuple[str, ...]:
    names = tuple(w.strip() for w in raw.split(";"))
    if any(w not in DIAL_ACCEPTS for w in names):
        raise ValueError(raw)
    return names


_BOOLEAN = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _boolean(raw: str) -> bool:
    word = raw.strip().lower()
    if word not in _BOOLEAN:
        raise ValueError(raw)
    return _BOOLEAN[word]


_FLAG = Field(_boolean, "one of " + ", ".join(_BOOLEAN), False)
_POSITIVE = Field(_positive, "a positive number")


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(raw)
    return value


def _non_negative(raw: str) -> float:
    value = _finite(raw)
    if value < 0:
        raise ValueError(raw)
    return value


def _number(default: float | None = None) -> Field:
    return Field(_finite, "a finite number", default)


class Analysis(NamedTuple):
    kinds: tuple[str, ...]
    shapes: tuple[str, ...]
    checks: dict[str, Field] = {}      # read as check.<key>
    options: dict[str, Field] = {}


_ONE_CURVE = ("circle", "ellipse", "rectangle", "peanut", "spiral")
_PROFILES = tuple(ax.PROFILE_SHAPES)

ANALYSES = {
    "radius-law": Analysis((KIND_CURVE, KIND_AXI), ("circle", "sphere"), {
        "radius_rel_tol": _number(1e-3),
        "radius_time_max": _POSITIVE,           # off: every snapshot
    }),
    "area-law": Analysis((KIND_CURVE,), _ONE_CURVE, {
        "slope_rel_tol": _number(0.005),
        "extinction_target": _POSITIVE,         # off: initial area / (2 pi)
        "extinction_rel_tol": _number(0.02),
        "extinction_abs_tol": _number(),        # set: compare absolutely
        "lifetime_max": _number(),
    }),
    "roundness": Analysis((KIND_CURVE,), _ONE_CURVE, {
        "roundness_final": _number(0.02),
        "roundness_max": _number(),
        "roundness_monotone": _FLAG,
        "iso_final_tol": _number(0.01),
    }),
    "convexification": Analysis((KIND_CURVE,), _ONE_CURVE),
    "eccentricity": Analysis((KIND_CURVE,), _ONE_CURVE, {
        "ecc_drift_tol": _number(0.01),
        "ellipse_fit_tol": _number(1e-3),
    }),
    "norm-length": Analysis((KIND_CURVE,), _ONE_CURVE),
    "pair-distance": Analysis((KIND_CURVE,), ("nested_pair",), {
        "min_separation": Field(_non_negative, "a non-negative number", 0.0),
    }),
    "translate": Analysis((KIND_CURVE,), ("grim_reaper",), {
        "translate_dev_tol": _number(5e-3),
    }, {
        "duration": _POSITIVE,
    }),
    "neck": Analysis((KIND_AXI,), _PROFILES, {
        "event": Field(str, "an event name"),
        "neck_ratio_band": _number(),
        "pinch_x_tol": _number(),
        "mean_convex": _FLAG,
        "circle_fit_spacing_factor": _number(),
    }),
    "blowup": Analysis((KIND_AXI,), _PROFILES, {
        "dial_classes": Field(_outcomes, "a ';'-separated list of "
                              + ", ".join(DIAL_ACCEPTS),
                              ("plane-like", "convex-or-cylinder", "cylinder-like")),
    }, {
        "probe_count": Field(_probe_count, "an integer >= 3", 6),
        "dial_powers": Field(lambda raw: tuple(_positive(x) for x in raw.split(",")),
                             "a comma-separated list of positive numbers",
                             (2.0, 1.0, 0.5)),
    }),
    "selfcheck": Analysis((KIND_ORACLE,), ("selfcheck",), {
        "selfcheck_tol": _number(oc.SELFCHECK_TOL),
    }),
}

# analyses whose closed forms hold for curve shortening (law.p = 1) alone
_P_ONE_ANALYSES = ("area-law", "roundness")

# key -> what reads it, for naming a key set where nothing reads it
_OWNER = {key: f"analysis {name!r}" for name, spec in ANALYSES.items()
          for key in [f"check.{k}" for k in spec.checks] + list(spec.options)}
_OWNER["save_snapshots"] = "curve-flow and axi-flow scenarios that keep a trajectory"
_OWNER["law.p"] = "curve-flow scenarios of closed curves"


@dataclass
class Scenario:
    name: str
    kind: str
    shape: str
    shape_params: dict[str, float] = field(default_factory=dict)
    n: int = 0
    law: SpeedLaw = field(default_factory=SpeedLaw)
    config: FlowConfig = field(default_factory=FlowConfig)
    analyses: tuple[str, ...] = ()
    checks: dict[str, object] = field(default_factory=dict)
    options: dict[str, object] = field(default_factory=dict)


def _fail(scenario: str, message: str):
    raise ConfigError(f"scenario [{scenario}]: {message}")


def _require(items: dict[str, str], scenario: str, key: str) -> str:
    if key not in items:
        _fail(scenario, f"missing required key {key}")
    return items.pop(key)


def _typed(items: dict[str, str], scenario: str, key: str, spec: Field, required=False):
    if key not in items and not required:
        return spec.default
    raw = _require(items, scenario, key)
    try:
        return spec.parse(raw)
    except ValueError:
        _fail(scenario, f"{key} must be {spec.what}, got {raw!r}")


def _get_float(items: dict[str, str], scenario: str, key: str) -> float:
    return _typed(items, scenario, key, Field(float, "a number"), required=True)


def _get_int(items: dict[str, str], scenario: str, key: str) -> int:
    val = _get_float(items, scenario, key)
    if not val.is_integer():
        _fail(scenario, f"{key} must be an integer, got {val}")
    return int(val)


def _parse_scenario(name: str, items: dict[str, str]) -> Scenario:
    items = dict(items)
    kind = _require(items, name, "kind")
    if kind not in KINDS:
        _fail(name, f"kind must be one of {', '.join(KINDS)}; got {kind!r}")

    shape = _require(items, name, "shape")
    shapes = SHAPES_BY_KIND[kind]
    if shape not in shapes:
        _fail(name, f"shape for {kind} must be one of "
                    f"{', '.join(sorted(shapes))}; got {shape!r}")

    analyses = tuple(a.strip() for a in _require(items, name, "analyses").split(",")
                     if a.strip())
    if not analyses:
        _fail(name, "analyses must list at least one analysis")
    if len(set(analyses)) != len(analyses):
        _fail(name, "analyses must not repeat")
    checks, options = {}, {}
    for a in analyses:
        spec = ANALYSES.get(a)
        if spec is None or kind not in spec.kinds:
            allowed = [x for x, sp in ANALYSES.items() if kind in sp.kinds]
            _fail(name, f"analysis {a!r} not available for {kind} "
                        f"(choose from {', '.join(allowed)})")
        if shape not in spec.shapes:
            needed = [x for x in spec.shapes if x in shapes]
            _fail(name, f"analysis {a!r} requires shape {' or '.join(needed)} for {kind}")
        for key, check in spec.checks.items():
            checks[key] = _typed(items, name, f"check.{key}", check)
        for key, option in spec.options.items():
            options[key] = _typed(items, name, key, option, required=option.default is None)
    if "dial_powers" in options and len(options["dial_powers"]) != len(checks["dial_classes"]):
        _fail(name, f"dial_powers lists {len(options['dial_powers'])} powers but "
                    f"check.dial_classes lists {len(checks['dial_classes'])} outcomes")
    if kind in (KIND_CURVE, KIND_AXI) and shape != "grim_reaper":
        options["save_snapshots"] = _typed(items, name, "save_snapshots", _FLAG)

    shape_params = {p: _typed(items, name, f"shape.{p}", _POSITIVE, required=True)
                    for p in shapes[shape][1]}

    law, config, n = SpeedLaw(), FlowConfig(), 0
    if kind != KIND_ORACLE:
        n = _get_int(items, name, "n")
        if n < 8:
            _fail(name, "n must be at least 8")
        keys = ("cfl_factor", "resample_every", "stop_area_fraction")
        if shape == "grim_reaper":   # the translating front never stops on area
            keys = keys[:2]          # and always moves by curvature
        elif kind == KIND_CURVE:
            try:
                law = SpeedLaw(_get_float(items, name, "law.p"))
            except InvalidInputError as exc:
                _fail(name, str(exc))
            unit_only = [a for a in analyses if a in _P_ONE_ANALYSES]
            if unit_only and law.p != 1.0:
                _fail(name, f"analysis {unit_only[0]!r} needs law.p = 1, got law.p = {law.p:g}")
        flow_kwargs = {k: (_get_int if k == "resample_every" else _get_float)(items, name, k)
                       for k in keys}
        try:
            config = FlowConfig(**flow_kwargs)
        except InvalidInputError as exc:
            _fail(name, str(exc))

    for key in sorted(items):
        if key in _OWNER:
            _fail(name, f"{key} is not read by this scenario, only by {_OWNER[key]}")
        if key.startswith("check."):
            _fail(name, f"unknown check key {key}")
    if items:
        stray = ", ".join(sorted(items))
        _fail(name, f"unknown key(s): {stray}")

    return Scenario(
        name=name, kind=kind, shape=shape, shape_params=shape_params,
        n=n, law=law, config=config, analyses=analyses,
        checks=checks, options=options,
    )


def parse_config(text: str) -> list[Scenario]:
    """Parse a configuration document into validated scenarios."""
    parser = configparser.ConfigParser(interpolation=None, delimiters=("=",))
    parser.optionxform = str
    try:
        parser.read_string(text)
    except configparser.DuplicateSectionError as exc:
        raise ConfigError(
            f"duplicate scenario name {exc.section!r}"
            + (f" at line {exc.lineno}" if exc.lineno else "")
        ) from exc
    except configparser.Error as exc:
        raise ConfigError(f"syntax error: {exc}") from exc
    scenarios = []
    for section in parser.sections():
        scenarios.append(_parse_scenario(section, dict(parser.items(section))))
    return scenarios


def parse_config_file(path) -> list[Scenario]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


def builtin_catalog_text() -> str:
    return resources.files("curveflow.lab").joinpath("catalog.cfg").read_text()


def builtin_catalog() -> list[Scenario]:
    return parse_config(builtin_catalog_text())
