"""Span tracing of curveflow's public functions, installed from outside ``src/``.

The drivers and the runner look up ``cv.*``, ``axi_metrics``, ``AxiProfile``
and their other collaborators as module attributes at call time, so
rebinding those attributes to timing wrappers reaches calls made inside the
library.  Private names are never wrapped.  Class constructors are timed by
wrapping ``__init__``, which keeps the classes themselves (and every
``isinstance`` check) intact.

Spans are recorded per scenario: ``lab.runner.run_scenario`` opens a fresh
span list on the calling thread and, when it returns, flushes that list to
``<trace_dir>/<scenario>.json`` from whichever process ran it.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

LAYERS = {
    "curveflow.curves": "curves",
    "curveflow.flow1d": "flow1d",
    "curveflow.axisym": "axisym",
    "curveflow.rescale": "rescale",
    "curveflow.oracle": "oracle",
    "curveflow.lab.runner": "lab.runner",
    "curveflow.lab.artifacts": "lab.artifacts",
}
CONSTRUCTORS = (("curveflow.curves", "PlaneCurve"), ("curveflow.axisym", "AxiProfile"))
# Drivers integrate one flow each; their inputs are fingerprinted so repeated
# flows show up in lab.runner.distinct_flow_share.
DRIVERS = ("flow1d.run", "flow1d.co_evolve", "axisym.run_axi",
           "oracle.evolve_translating_front")
SCENARIO_SPAN = "lab.runner.run_scenario"


def _fingerprint(h, obj) -> None:
    if isinstance(obj, np.ndarray):
        h.update(repr((obj.dtype.str, obj.shape)).encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for item in obj:
            _fingerprint(h, item)
        h.update(b"]")
    elif hasattr(obj, "vertices"):
        _fingerprint(h, obj.vertices)
    elif hasattr(obj, "samples"):
        h.update(repr((obj.topology, obj.period)).encode())
        _fingerprint(h, obj.samples)
    else:
        h.update(repr(obj).encode())


def input_fingerprint(name: str, args, kwargs) -> str:
    h = hashlib.sha256(name.encode())
    _fingerprint(h, (list(args), sorted(kwargs.items())))
    return h.hexdigest()[:16]


def _snapshot_count(result) -> int:
    trajs = result if isinstance(result, list) else [result]
    return sum(len(t.snapshots) for t in trajs if hasattr(t, "snapshots"))


class _ThreadState(threading.local):
    def __init__(self):
        self.spans = None       # list of [name, start, end, parent, extra]
        self.stack = []


class Tracer:
    """Records spans of wrapped calls and flushes them per scenario."""

    def __init__(self, trace_dir: Path):
        self.trace_dir = Path(trace_dir)
        self.trace_dir.mkdir(parents=True, exist_ok=True)
        self._local = _ThreadState()
        self._restore = []

    def _record(self, name, fn, args, kwargs):
        local = self._local
        spans = local.spans
        if spans is None:
            return fn(*args, **kwargs)
        extra = None
        if name in DRIVERS:
            extra = {"input": input_fingerprint(name, args, kwargs)}
        idx = len(spans)
        span = [name, 0.0, 0.0, local.stack[-1] if local.stack else -1, extra]
        spans.append(span)
        local.stack.append(idx)
        span[1] = time.monotonic()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.monotonic()
            local.stack.pop()
        if extra is not None:
            extra["snapshots"] = _snapshot_count(result)
        return result

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._record(name, fn, args, kwargs)
        return traced

    def _wrap_scenario(self, fn):
        @functools.wraps(fn)
        def traced(scenario, *args, **kwargs):
            local = self._local
            local.spans, local.stack = [], []
            try:
                return self._record(SCENARIO_SPAN, fn, (scenario, *args), kwargs)
            finally:
                self.flush(scenario.name, local.spans)
                local.spans, local.stack = None, []
        return traced

    def flush(self, scenario: str, spans) -> None:
        payload = {"scenario": scenario, "pid": os.getpid(), "spans": spans}
        path = self.trace_dir / f"{scenario}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload))
        os.replace(tmp, path)

    def _rebind(self, original, wrapped) -> None:
        """Point every curveflow module attribute bound to ``original`` at ``wrapped``."""
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith("curveflow") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapped)

    def install(self) -> None:
        modules = {name: importlib.import_module(name) for name in LAYERS}
        for mod_name, layer in LAYERS.items():
            module = modules[mod_name]
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if value.__module__ != mod_name:
                    continue
                name = f"{layer}.{attr}"
                if name == SCENARIO_SPAN:
                    self._rebind(value, self._wrap_scenario(value))
                else:
                    self._rebind(value, self._wrap(name, value))
        for mod_name, cls_name in CONSTRUCTORS:
            cls = getattr(modules[mod_name], cls_name)
            init = cls.__init__
            self._restore.append((cls, "__init__", init))
            cls.__init__ = self._wrap(f"{LAYERS[mod_name]}.{cls_name}", init)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)


def load_spans(trace_dir: Path) -> dict[str, list]:
    """Scenario name -> its spans, as flushed by ``Tracer.flush``."""
    out = {}
    for path in sorted(Path(trace_dir).glob("*.json")):
        payload = json.loads(path.read_text())
        out[payload["scenario"]] = payload["spans"]
    return out


class SpanStats:
    """Per-name call counts, inclusive and self time, over every scenario."""

    def __init__(self, by_scenario: dict[str, list]):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.scenario_start = {}
        self.scenario_s = {}
        self.driver_inputs = []
        self.snapshots = defaultdict(int)
        self.artifact_write_s = 0.0
        for scenario, spans in by_scenario.items():
            child_time = [0.0] * len(spans)
            for name, start, end, parent, _ in spans:
                if parent >= 0:
                    child_time[parent] += end - start
            for i, (name, start, end, parent, extra) in enumerate(spans):
                self.calls[name] += 1
                self.total[name] += end - start
                self.self_time[name] += end - start - child_time[i]
                if name == SCENARIO_SPAN:
                    self.scenario_start[scenario] = start
                    self.scenario_s[scenario] = end - start
                if extra is not None:
                    self.driver_inputs.append(extra["input"])
                    self.snapshots[name.split(".")[0]] += extra["snapshots"]
            # Time in artifact writers, counted once however deeply they nest.
            for name, start, end, parent, _ in spans:
                if name.startswith("lab.artifacts.") and (
                        parent < 0 or not spans[parent][0].startswith("lab.artifacts.")):
                    self.artifact_write_s += end - start

    def per_call(self, name: str, scale: float) -> float:
        return self.total[name] / self.calls[name] * scale if self.calls[name] else 0.0

    def layer_self(self, layer: str) -> float:
        return sum(v for k, v in self.self_time.items() if k.startswith(layer + "."))
