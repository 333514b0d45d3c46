"""Test-side shortcuts over the scenario runtime."""

from __future__ import annotations

from typing import Dict, List

from repro.runtime import run_scenario
from repro.runtime.spec import ScenarioSpec


def scenario_results(spec: ScenarioSpec, quick: bool = False, **kwargs) -> List[Dict[str, object]]:
    """Run ``spec`` serially in memory and return the per-cell ``result`` dicts.

    Raises if any cell was quarantined: the callers check claims across
    the results and expect every one of them to exist.
    """
    report = run_scenario(spec, workers=1, quick=quick, **kwargs)
    if report.errored:
        raise RuntimeError(
            f"{spec.name}: {report.errored} cell(s) quarantined: {report.quarantined}"
        )
    return [row["result"] for row in report.rows]
