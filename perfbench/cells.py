"""Run one cell, check its outputs, and fold it into a digest.

A cell *fails* when it raises or breaks a conservation invariant:

- total service exceeds the machine's ``capacity()``;
- some task has negative service;
- it fired no more events than it has tasks.

Audit violations are a separate verdict: a cell is *flagged* when its
audit report carries a violation. The benchmark reports flagged cells
as they are measured; it never filters or re-seeds them away.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.scenario import run_scenario

__all__ = ["CellOutcome", "Digest", "run_cell", "check_result"]

clock = time.perf_counter


@dataclass
class CellOutcome:
    """What the benchmark keeps of one cell run."""

    name: str
    wall_s: float
    events: int = 0
    context_switches: int = 0
    problems: list[str] = field(default_factory=list)
    violations: dict[str, int] = field(default_factory=dict)
    #: per-task (name, service) in declaration order
    services: list[tuple[str, float]] = field(default_factory=list)
    #: simulated results: censored sojourn p95 and max |lag| when asked for
    sojourn_p95_s: float | None = None
    max_lag_s: float | None = None

    @property
    def failed(self) -> bool:
        return bool(self.problems)

    @property
    def flagged(self) -> bool:
        return bool(self.violations)


def check_result(result: Any) -> list[str]:
    """Conservation problems of a finished run (empty when it is sound)."""
    problems = []
    services = [task.service for task in result.tasks.values()]
    total = math.fsum(services)
    capacity = result.capacity()
    if total > capacity * (1.0 + 1e-9):
        problems.append(f"total service {total!r} exceeds capacity {capacity!r}")
    negative = [n for n, t in result.tasks.items() if t.service < 0.0]
    if negative:
        problems.append(f"negative service for {sorted(negative)}")
    events = result.machine.engine.events_fired
    if events <= len(result.tasks):
        problems.append(f"{events} events for {len(result.tasks)} tasks")
    return problems


def run_cell(
    scenario: Any, runner: Callable[[Any], Any] = run_scenario
) -> CellOutcome:
    """Run ``scenario`` through ``runner`` and check the result.

    ``wall_s`` covers the runner call only: building, simulating,
    auditing and metric finalize, not the checks.
    """
    start = clock()
    try:
        result = runner(scenario)
    except Exception as exc:  # a failed cell is reported, not fatal
        return CellOutcome(
            scenario.name,
            clock() - start,
            problems=[f"raised {type(exc).__name__}: {exc}"],
        )
    wall = clock() - start
    outcome = CellOutcome(
        scenario.name,
        wall,
        events=result.machine.engine.events_fired,
        context_switches=result.trace.context_switches,
        problems=check_result(result),
        services=[(n, t.service) for n, t in result.tasks.items()],
    )
    report = result.audit_report
    if report is not None:
        outcome.violations = {k: v for k, v in report.counts.items() if v}
    if "sojourn_p95_censored" in result.metrics:
        outcome.sojourn_p95_s = result.metrics["sojourn_p95_censored"]["all"]
    if "max_lag" in result.metrics:
        outcome.max_lag_s = result.metrics["max_lag"]
    return outcome


class Digest:
    """Order-sensitive fingerprint of simulated statistics.

    Covers each cell's name, events fired, context switches and the
    exact (hex) service total of every task, so two runs share a digest
    only when their simulations are bit-identical.
    """

    def __init__(self) -> None:
        self._hash = hashlib.sha256()
        self.cells = 0
        self.events = 0
        self.context_switches = 0

    def add(self, outcome: CellOutcome) -> None:
        self.cells += 1
        self.events += outcome.events
        self.context_switches += outcome.context_switches
        parts = [outcome.name, str(outcome.events), str(outcome.context_switches)]
        parts += [f"{n}={s.hex()}" for n, s in outcome.services]
        parts += outcome.problems
        self._hash.update("\n".join(parts).encode() + b"\0")

    def hexdigest(self) -> str:
        return self._hash.hexdigest()

    def line(self) -> str:
        return (
            f"cells={self.cells} events={self.events} "
            f"context_switches={self.context_switches} "
            f"services_sha256={self.hexdigest()[:16]}"
        )
