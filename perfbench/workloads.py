"""Seeded input generator for the benchmark workloads.

The benchmark owns its traffic: every cell is built here from the
``--seed`` argument, never from a preset of the program (such as
``server_scenario``), so a change to a preset cannot change what the
benchmark measures. The program only receives the resulting
:class:`~repro.scenario.Scenario` values.

A run repeats *rounds*. Round ``r`` of workload ``w`` under seed ``s``
draws from its own ``random.Random`` stream, so the same
``(w, s, r)`` always yields the same cells, and a faster program simply
completes more rounds of the same sequence.
"""

from __future__ import annotations

import dataclasses
import random

from repro.scenario import (
    Compute,
    Inf,
    InteractiveLoop,
    Kill,
    Scenario,
    SetWeight,
    TaskSpec,
)

__all__ = [
    "WORKLOADS",
    "round_cells",
    "overload_population",
    "random_cell",
    "cell_design",
]

#: the server-family operating point of the ``overload-*`` workloads
OVERLOAD_TASKS = 2500
OVERLOAD_CPUS = 4
OVERLOAD_LOAD = 1.6
MEAN_SERVICE = 0.05
PARETO_SHAPE = 1.5
SERVICE_CAP_FACTOR = 100.0
DRAIN_FACTOR = 1.5
#: (class, weight, probability): three distinct weights, as when
#: shares are set per user class rather than per process
WEIGHT_CLASSES = (("std", 1.0, 0.70), ("pro", 4.0, 0.20), ("ent", 10.0, 0.10))

#: the policies random cells rotate through
CELL_POLICIES = ("sfs", "sfs-heuristic", "sfq")
CELL_DURATION = 10.0
CELL_MAX_TASKS = 12
CELL_MAX_EVENTS = 6
POW2_WEIGHTS = (1.0, 2.0, 4.0, 8.0)
#: fractional part of the golden ratio, for low-discrepancy quanta
GOLDEN = 0.6180339887498949

#: workload name -> what one round holds
WORKLOADS = {
    "overload-exact": "one N=2500 overload population under exact sfs",
    "overload-cheap": "two N=2500 overload populations, each under sfq "
    "and round-robin",
    "audited-churn": "30 audited random cells, rotating through sfs, "
    "sfs-heuristic and sfq",
    "lag-report": "6 random cells with max_lag, jains and shares, rotating "
    "through sfs, sfs-heuristic and sfq",
}


def overload_population(rng: random.Random, name: str) -> Scenario:
    """One open-arrival server population at load 1.6 on 4 CPUs.

    Poisson arrivals, bounded-Pareto demands and three weight classes:
    the distribution of the program's server family, drawn here so the
    benchmark's traffic cannot move with the preset.
    """
    rate = OVERLOAD_LOAD * OVERLOAD_CPUS / MEAN_SERVICE
    scale = MEAN_SERVICE * (PARETO_SHAPE - 1.0) / PARETO_SHAPE
    cap = SERVICE_CAP_FACTOR * MEAN_SERVICE
    names = [c for c, _, _ in WEIGHT_CLASSES]
    probs = [p for _, _, p in WEIGHT_CLASSES]
    weights = {c: w for c, w, _ in WEIGHT_CLASSES}
    t = 0.0
    tasks = []
    for i in range(OVERLOAD_TASKS):
        t += rng.expovariate(rate)
        demand = min(scale * rng.paretovariate(PARETO_SHAPE), cap)
        cls = rng.choices(names, weights=probs)[0]
        tasks.append(
            TaskSpec(
                name=f"{cls}-{i:05d}",
                weight=weights[cls],
                behavior=Compute(demand),
                at=t,
            )
        )
    return Scenario(
        name=name,
        scheduler="sfs",
        cpus=OVERLOAD_CPUS,
        quantum=0.05,
        cost_model="lmbench",
        duration=t * DRAIN_FACTOR,
        tasks=tuple(tasks),
        metrics=("sojourn_p95_censored",),
        service_sample_interval=0.5,
        record_events=False,
    )


def cell_design(offsets: tuple[int, int, float], index: int) -> tuple[int, int, float]:
    """Task count, CPU count and quantum of cell ``index``.

    These three factors set most of a cell's cost, so they are stratified
    rather than drawn independently: over any 44 consecutive cells every
    task count 2..12 meets every CPU count 1..4, and quanta follow a
    low-discrepancy sequence over 0.01..0.2 s. Seeds shift the cycles
    through ``offsets``; everything else about a cell is drawn at
    random. A run then measures nearly the same mix of cell sizes
    whatever its seed, which keeps its figures comparable across seeds.
    """
    tasks_off, cpus_off, quantum_off = offsets
    tasks = 2 + (index + tasks_off) % (CELL_MAX_TASKS - 1)
    cpus = 1 + (index + cpus_off) % 4
    quantum = 0.01 + 0.19 * ((quantum_off + index * GOLDEN) % 1.0)
    return tasks, cpus, quantum


def design_offsets(rng: random.Random) -> tuple[int, int, float]:
    """Per-seed shifts of the :func:`cell_design` cycles."""
    return (rng.randrange(CELL_MAX_TASKS - 1), rng.randrange(4), rng.random())


def random_cell(
    rng: random.Random,
    name: str,
    design: tuple[int, int, float],
) -> Scenario:
    """One small random cell: mixed behaviours, weights and churn.

    ``design`` fixes the task count (2-12), CPU count (1-4) and quantum
    (0.01-0.2 s), see :func:`cell_design`. Tasks rotate through
    ``Inf``, ``Compute`` and ``InteractiveLoop`` from a random first
    kind; each weight, initial or set, is log-uniform over 1e-3..1e3 or
    drawn from {1, 2, 4, 8} with even odds; 0-6 ``SetWeight``/``Kill``
    events; 10 s of simulated time.
    """
    n_tasks, cpus, quantum = design

    def weight() -> float:
        if rng.random() < 0.5:
            return 10.0 ** rng.uniform(-3.0, 3.0)
        return rng.choice(POW2_WEIGHTS)

    tasks = []
    first_kind = rng.randrange(3)
    for i in range(n_tasks):
        # kinds in rotation, so every cell holds a balanced mix
        kind = (first_kind + i) % 3
        if kind == 0:
            behavior = Inf()
        elif kind == 1:
            behavior = Compute(rng.uniform(0.1, 5.0))
        else:
            behavior = InteractiveLoop(
                think_time=rng.uniform(0.05, 0.5),
                burst=rng.uniform(0.005, 0.05),
                seed=rng.randrange(2**31),
            )
        at = 0.0 if rng.random() < 0.5 else rng.uniform(0.0, 5.0)
        tasks.append(
            TaskSpec(name=f"t{i}", weight=weight(), behavior=behavior, at=at)
        )
    events = []
    for _ in range(rng.randint(0, CELL_MAX_EVENTS)):
        target = rng.choice(tasks).name
        at = rng.uniform(0.1, CELL_DURATION - 0.1)
        if rng.random() < 0.7:
            events.append(SetWeight(target, weight(), at))
        else:
            events.append(Kill(target, at))
    return Scenario(
        name=name,
        cpus=cpus,
        quantum=quantum,
        duration=CELL_DURATION,
        tasks=tuple(tasks),
        events=tuple(events),
        record_events=False,
    )


def round_cells(workload: str, seed: int, round_index: int) -> list[Scenario]:
    """The cells of one round, in run order."""
    if workload not in WORKLOADS:
        known = ", ".join(WORKLOADS)
        raise ValueError(f"unknown workload {workload!r}; known: {known}")
    rng = random.Random(f"{workload}/{seed}/{round_index}")
    prefix = f"{workload}-s{seed}-r{round_index}"
    if workload == "overload-exact":
        return [overload_population(rng, f"{prefix}-p0-sfs")]
    if workload == "overload-cheap":
        cells = []
        for k in range(2):
            base = overload_population(rng, "")
            for policy in ("sfq", "round-robin"):
                cells.append(
                    dataclasses.replace(
                        base, name=f"{prefix}-p{k}-{policy}", scheduler=policy
                    )
                )
        return cells
    if workload == "audited-churn":
        count, options = 30, {"audit": True}
    else:
        count = 6
        options = {
            "record_events": True,
            "metrics": ("max_lag", "jains", "shares"),
        }
    offsets = design_offsets(random.Random(f"{workload}/{seed}"))
    cells = []
    for k in range(count):
        index = round_index * count + k
        policy = CELL_POLICIES[index % len(CELL_POLICIES)]
        cell = random_cell(rng, f"{prefix}-c{k}-{policy}", cell_design(offsets, index))
        cells.append(dataclasses.replace(cell, scheduler=policy, **options))
    return cells
