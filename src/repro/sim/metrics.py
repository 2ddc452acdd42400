"""Service-share and time-series metrics over simulated runs.

These helpers answer the questions the paper's figures ask: *how much
CPU service did each task get over a window*, *what fraction of the
machine is that*, and *what does the cumulative-service curve look like
over time* (the y-axis of Figs. 1, 4 and 5 after dividing by the
per-iteration cost).
"""

from __future__ import annotations

from bisect import bisect_right
from operator import itemgetter
from typing import Iterable, Sequence

from repro.sim.task import Task

__all__ = [
    "service_at",
    "service_between",
    "share_between",
    "shares",
    "sample_series",
    "iterations_series",
]

_sample_time = itemgetter(0)


def service_at(task: Task, t: float) -> float:
    """Cumulative CPU service of ``task`` at time ``t`` — exact.

    Requires the machine to have been created with
    ``sample_service=True``. Samples are recorded at every charge
    boundary, and each charge covers a *contiguous* run ending at the
    sample time; so between samples ``(t0, s0)`` and ``(t1, s1)`` the
    task was idle on ``[t0, t1 - (s1 - s0)]`` and running (service rate
    1) on the tail. This reconstruction is exact, which matters for
    starvation detection: linear interpolation would smear service over
    idle gaps and hide flat regions like Fig. 4(a)'s starved thread.
    """
    series = task.series
    if not series:
        return 0.0
    idx = bisect_right(series, t, key=_sample_time)
    if idx >= len(series):
        return series[-1][1]
    t1, s1 = series[idx]
    s0 = series[idx - 1][1] if idx > 0 else 0.0
    run_start = t1 - (s1 - s0)
    if t <= run_start:
        return s0
    return s0 + (t - run_start)


def service_between(task: Task, t0: float, t1: float) -> float:
    """CPU service received by ``task`` during [t0, t1)."""
    return max(0.0, service_at(task, t1) - service_at(task, t0))


def share_between(task: Task, t0: float, t1: float, cpus: int) -> float:
    """Fraction of total machine capacity consumed during [t0, t1)."""
    capacity = cpus * (t1 - t0)
    if capacity <= 0:
        return 0.0
    return service_between(task, t0, t1) / capacity


def shares(tasks: Iterable[Task], t0: float, t1: float, cpus: int) -> dict[str, float]:
    """Map task name -> machine share over [t0, t1)."""
    return {t.name: share_between(t, t0, t1, cpus) for t in tasks}


def sample_series(
    task: Task, times: Sequence[float]
) -> list[tuple[float, float]]:
    """Cumulative service sampled at the given times."""
    return [(t, service_at(task, t)) for t in times]


def iterations_series(
    task: Task, times: Sequence[float], iter_rate: float
) -> list[tuple[float, float]]:
    """Cumulative *loop iterations* at the given times.

    The paper plots "number of iterations" for the Inf/dhrystone
    applications; with a calibrated iteration rate (loops per second of
    CPU), iterations = service * iter_rate.
    """
    return [(t, service_at(task, t) * iter_rate) for t in times]
