"""Scenario catalog, batch runner, artifact emission, and the CLI."""

# Not ``cli``: ``python -m curveflow.lab.cli`` would then find it already imported.
from . import artifacts, runner, scenarios

__all__ = ["artifacts", "runner", "scenarios"]
