"""Service lag: windowed deviation from the GMS fluid ideal.

Eq. 2 bounds hold *per interval*, so a scalar end-of-run deviation can
hide transient unfairness (a thread starved for 10 s then repaid looks
fine at the end). These helpers compute the **lag curve** — actual
minus fluid-GMS service as a function of time — and its extremes, which
is how the fairness of a practical scheduler is normally characterized
against its fluid reference.

The fluid state at a sample time does not depend on which task is being
measured, so every entry point is a view over one sweep
(:func:`_lag_columns`) that replays the trace through a single
:class:`FluidGMS` and reads the lag of all requested tasks at each
sample.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Sequence

from repro.core.gms import FluidGMS
from repro.sim import tracing
from repro.sim.machine import Machine
from repro.sim.metrics import service_at
from repro.sim.task import Task

__all__ = ["lag_curve", "max_absolute_lag", "lag_report"]


def _lag_columns(
    machine: Machine, tasks: Sequence[Task], t0: float, t1: float, step: float
) -> tuple[list[float], list[list[float]]]:
    """Sample times over [t0, t1] and, per task, its lag at each of them.

    One time-ordered replay of the runnable-set trace drives one
    :class:`FluidGMS` through the sample grid ``t0, t0 + step, ...``
    (accumulated, up to ``t1`` plus a 1e-9 tolerance). At each sample
    the fluid ideal is advanced to ``min(t, t1)`` and every task's lag
    is ``service_at(task, t) - gms.service_of(task.tid)``. Events later
    than ``t1`` are never applied, so a last sample that overshoots
    ``t1`` by float dust reads the fluid state at ``t1``.
    """
    if step <= 0:
        raise ValueError(f"step must be > 0, got {step}")
    gms = FluidGMS(machine.num_cpus)
    arrive, depart, set_weight = gms.arrive, gms.depart, gms.set_weight
    service_of = gms.service_of
    events = sorted(machine.trace.event_tuples(), key=itemgetter(0))
    n = len(events)
    times: list[float] = []
    columns: list[list[float]] = [[] for _ in tasks]
    watched = list(zip(tasks, columns))
    idx = 0
    t = t0
    while t <= t1 + 1e-9:
        upto = min(t, t1)
        while idx < n and events[idx][0] <= upto:
            time, kind, tid, weight = events[idx]
            if kind in (tracing.ARRIVE, tracing.WAKE):
                arrive(tid, weight, time)
            elif kind in (tracing.BLOCK, tracing.EXIT):
                depart(tid, time)
            elif kind == tracing.WEIGHT:
                set_weight(tid, weight, time)
            idx += 1
        gms.advance_to(upto)
        times.append(t)
        for task, column in watched:
            column.append(service_at(task, t) - service_of(task.tid))
        t += step
    return times, columns


def _max_abs(values: list[float]) -> float:
    return max(map(abs, values), default=0.0)


def lag_curve(
    machine: Machine, task: Task, t0: float, t1: float, step: float = 0.1
) -> list[tuple[float, float]]:
    """(time, actual - GMS service) for one task, sampled every ``step``.

    Requires event recording and service sampling (machine defaults).
    Positive lag = the task is ahead of its fluid entitlement.
    """
    times, (column,) = _lag_columns(machine, [task], t0, t1, step)
    return list(zip(times, column))


def max_absolute_lag(
    machine: Machine, task: Task, t0: float, t1: float, step: float = 0.1
) -> float:
    """Worst |lag| of ``task`` over the window — the fairness bound."""
    _, (column,) = _lag_columns(machine, [task], t0, t1, step)
    return _max_abs(column)


def lag_report(
    machine: Machine, t0: float, t1: float, step: float = 0.1
) -> dict[str, float]:
    """Max |lag| per task name over the window, for every task."""
    tasks = machine.tasks
    _, columns = _lag_columns(machine, tasks, t0, t1, step)
    return {task.name: _max_abs(column) for task, column in zip(tasks, columns)}
