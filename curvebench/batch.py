"""One benchmark batch in a fresh process.

Set-up (interpreter start, imports, generating and parsing the seeded
scenario file) runs first; then one call of ``curveflow.lab.runner.accept``
runs every scenario, with the fixed reference computation timed just before
and just after it.  Timings go to the
JSON file named by ``--result``; the launcher, ``run.py``, reads them.

    python3 curvebench/batch.py --seed 1 --scenarios circle_law,grim_reaper \
        --workers 1 --out .bench_runs/x --result .bench_runs/x.json [--trace]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import threading
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PAGE_KIB = resource.getpagesize() // 1024


def import_curveflow():
    """Import curveflow from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "curveflow" / "__init__.py").is_file():
        raise SystemExit(f"curvebench: no curveflow sources under {src}")
    sys.path.insert(0, str(src))
    import curveflow
    if Path(curveflow.__file__).resolve().parent != (src / "curveflow").resolve():
        raise SystemExit(f"curvebench: imported curveflow from {curveflow.__file__}")
    from curveflow.lab import runner, scenarios
    return runner, scenarios


def _cpu_s() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _tree_rss_kib(pid: int) -> int:
    """Resident memory of a process and of all its live descendants, in KiB.

    Children are found through ``/proc/<pid>/task/<tid>/children``; where the
    kernel lacks that file, only the process itself is counted.
    """
    total, stack = 0, [pid]
    while stack:
        p = stack.pop()
        try:
            with open(f"/proc/{p}/statm") as fh:
                total += int(fh.read().split()[1]) * PAGE_KIB
            for tid in os.listdir(f"/proc/{p}/task"):
                with open(f"/proc/{p}/task/{tid}/children") as fh:
                    stack += [int(c) for c in fh.read().split()]
        except (OSError, ValueError, IndexError):
            continue    # the process ended while it was read
    return total


class TreeRssSampler(threading.Thread):
    """Peak of the summed resident memory of this process and its children.

    ``RUSAGE_CHILDREN`` gives the peak of the largest reaped child only, so
    children that run at the same time would not add up; sampling the live
    tree every ``PERIOD_S`` does add them.
    """

    PERIOD_S = 0.2

    def __init__(self):
        super().__init__(daemon=True)
        self.peak_kib = 0
        self._stop_event = threading.Event()

    def run(self):
        while True:
            self.peak_kib = max(self.peak_kib, _tree_rss_kib(os.getpid()))
            if self._stop_event.wait(self.PERIOD_S):
                return

    def stop(self) -> float:
        """Stop sampling; the peak in MiB, never below this process's own peak."""
        self._stop_event.set()
        self.join()
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return max(self.peak_kib, own) / 1024.0


def reference_s() -> float:
    """Seconds taken by a fixed computation that runs no curveflow code.

    It mixes the two kinds of work a flow step does: a pure-Python loop and
    numpy stencils on a 256-point closed polygon.  ``run.py`` divides every
    time of the batch by it, which cancels most of the host's changing speed.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_500_000):
        acc += i * i % 7
    theta = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
    x, y = np.cos(theta), np.sin(theta)
    for _ in range(3000):
        xp, xm, yp, ym = np.roll(x, -1), np.roll(x, 1), np.roll(y, -1), np.roll(y, 1)
        acc += float(np.hypot(xp - x, yp - y).mean())
        x = x + 0.2 * (xp - 2.0 * x + xm)
        y = y + 0.2 * (yp - 2.0 * y + ym)
    return time.perf_counter() - t0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scenarios", required=True)
    ap.add_argument("--workers", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    runner, scenarios = import_curveflow()
    sys.path.insert(0, str(HERE))
    import workloads

    names = args.scenarios.split(",")
    args.out.mkdir(parents=True, exist_ok=True)
    config = args.out / "scenarios.cfg"
    config.write_text(workloads.generate_config(ROOT, names, args.seed))
    t_parse = time.monotonic()
    scenario_list = scenarios.parse_config_file(config)
    parse_ms = (time.monotonic() - t_parse) * 1e3
    result = {"setup_end": time.monotonic(), "parse_ms": parse_ms,
              "n": {s.name: s.n for s in scenario_list}}
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer(args.out / "trace")
        tracer.install()
    ref_before = reference_s()
    rss = TreeRssSampler()
    rss.start()
    cpu0 = _cpu_s()
    t0 = time.monotonic()
    runner.accept(scenario_list, args.out / "artifacts", workers=args.workers)
    t1 = time.monotonic()
    cpu1 = _cpu_s()
    peak_rss_mb = rss.stop()
    if tracer is not None:
        tracer.uninstall()
    result.update(batch_start=t0, batch_wall_s=t1 - t0, batch_cpu_s=cpu1 - cpu0,
                  peak_rss_mb=peak_rss_mb, reference_s=ref_before + reference_s())
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
