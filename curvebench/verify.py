"""Output verification for one batch.

A scenario counts as failed when ``summary.json`` lacks it or marks it not
passed, when an artifact it lists is missing, or when one of its CSV files
differs from the digest recorded by an earlier batch of the same code and
seed.  The digest store keys on the seed and scenario, not the workload, so
the same scenario run with one worker in one workload and two in another is
compared too.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path


def csv_digests(scenario_dir: Path) -> dict[str, str]:
    return {
        str(p.relative_to(scenario_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(scenario_dir.rglob("*.csv"))
    }


def check_digests(store: Path, seed: int, scenario: str, digests: dict[str, str],
                  origin: str) -> str | None:
    """Compare with the stored digests of (seed, scenario); store them if new.

    Returns a description of the mismatch, or None.
    """
    path = store / str(seed) / f"{scenario}.json"
    if path.is_file():
        earlier = json.loads(path.read_text())
        if earlier["csv"] != digests:
            differing = sorted(k for k in set(earlier["csv"]) | set(digests)
                               if earlier["csv"].get(k) != digests.get(k))
            return (f"CSV differs from the run recorded by {earlier['origin']}: "
                    + ", ".join(differing))
        return None
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps({"origin": origin, "csv": digests}, sort_keys=True))
    os.replace(tmp, path)
    return None


def verify_batch(out: Path, scenarios, seed: int, store: Path, origin: str) -> dict[str, str]:
    """Scenario name -> reason, for every scenario of the batch that failed."""
    try:
        summary = json.loads((out / "summary.json").read_text())
    except (OSError, ValueError) as exc:
        return {name: f"no readable summary.json: {exc}" for name in scenarios}
    entries = {e["name"]: e for e in summary.get("scenarios", [])}
    failed = {}
    for name in scenarios:
        entry = entries.get(name)
        if entry is None:
            failed[name] = "missing from summary.json"
            continue
        if entry.get("passed") is not True:
            bad = [c["name"] for c in entry.get("checks", []) if not c.get("passed")]
            failed[name] = f"not passed: {entry.get('error') or ', '.join(bad)}"
            continue
        missing = [a for a in entry.get("artifacts", []) if not (out / name / a).is_file()]
        if missing:
            failed[name] = "missing artifacts: " + ", ".join(missing)
            continue
        mismatch = check_digests(store, seed, name, csv_digests(out / name), origin)
        if mismatch:
            failed[name] = mismatch
    return failed


def check_measure(summary: dict, scenario: str, check: str) -> float | None:
    """The measured value of one named check, or None if it did not run."""
    for entry in summary.get("scenarios", []):
        if entry["name"] == scenario:
            for c in entry.get("checks", []):
                if c["name"] == check and isinstance(c["measured"], (int, float)):
                    return float(c["measured"])
    return None
