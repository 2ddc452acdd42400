"""Exact SFS's per-phi surplus buckets against the sort path they replace.

The paper's exact SFS recomputes every runnable thread's surplus and
re-sorts the surplus queue whenever the virtual time moves. The
scheduler instead files runnable threads in per-phi lists ordered by
start tag and reads the decision off the list heads. These tests keep
the recompute-and-sort as an oracle and demand the identical thread at
every decision, on generated populations that cover the weight, CPU,
tag-arithmetic and affinity space; plus a hand-built case where
distinct start tags round to one surplus, the deterministic work gate
on an overloaded server population, and the end-of-run drain.
"""

from __future__ import annotations

import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.fixed_point import FixedTags, FloatTags
from repro.core.sfs import SurplusFairScheduler
from repro.scenario.runner import build_machine
from repro.scenario.server import server_scenario
from repro.sim.events import Block, Run
from repro.sim.machine import Machine
from repro.sim.task import Task, TaskState
from repro.workloads.base import GeneratorBehavior
from repro.workloads.cpu_bound import FiniteCompute, Infinite


def sort_path_pick(sched: SurplusFairScheduler, cpu: int) -> Task | None:
    """The decision of the recompute-and-sort path, as the paper has it.

    Every runnable thread's surplus is recomputed against the current
    virtual time, the run queue is sorted by ``(alpha, tid)``, and the
    first thread not on a CPU wins; with an affinity bonus, the CPU's
    previous thread is kept when within the bonus of that minimum.
    """
    v = sched.virtual_time
    surplus = sched.tags.surplus
    ordered = sorted(
        ((surplus(t.phi, t.sched["S"], v), t.tid), t)
        for t in sched._runnable.values()
    )
    best = None
    for (alpha, _), task in ordered:
        if task.state is TaskState.RUNNABLE:
            best, best_alpha = task, alpha
            break
    if best is None or sched.affinity_bonus <= 0:
        return best
    prev = sched.machine.previous_task(cpu)
    if (
        prev is None
        or prev is best
        or prev.state is not TaskState.RUNNABLE
        or prev.tid not in sched._runnable
    ):
        return best
    tags = sched.tags
    bonus = tags.surplus(
        1.0, tags.finish_tag(tags.zero, sched.affinity_bonus, 1.0), tags.zero
    )
    if surplus(prev.phi, prev.sched["S"], v) <= best_alpha + bonus:
        return prev
    return best


def assert_buckets_consistent(sched: SurplusFairScheduler) -> None:
    """Every runnable thread is filed once, under its current phi."""
    assert set(sched._filed) == set(sched._runnable)
    filed = 0
    for phi, bucket in sched._buckets.items():
        assert len(bucket) > 0
        assert bucket.is_sorted()
        for task in bucket:
            assert task.phi == phi
            assert sched._filed[task.tid] == phi
        filed += len(bucket)
    assert filed == len(sched._filed)


class CheckedSFS(SurplusFairScheduler):
    """Exact SFS that checks every decision against the sort path."""

    def __init__(self, **kw):
        super().__init__(**kw)
        self.checked = 0

    def pick_next(self, cpu, now):
        picked = super().pick_next(cpu, now)
        assert_buckets_consistent(self)
        expected = sort_path_pick(self, cpu)
        assert picked is expected, (
            f"bucket pick {picked!r} != sort-path pick {expected!r} "
            f"at t={now} on cpu {cpu}"
        )
        self.checked += 1
        return picked


# ----------------------------------------------------------------------
# the differential property
# ----------------------------------------------------------------------

log_weight = st.floats(min_value=-3.0, max_value=3.0).map(lambda e: 10.0**e)
weight_kinds = {
    "log-uniform": log_weight,
    "powers-of-two": st.sampled_from([1.0, 2.0, 4.0, 8.0]),
    "three-class": st.sampled_from([1.0, 3.0, 10.0]),
}


@st.composite
def behaviours(draw):
    kind = draw(st.sampled_from(["inf", "compute", "interactive"]))
    if kind == "inf":
        return Infinite()
    if kind == "compute":
        return FiniteCompute(draw(st.floats(min_value=0.05, max_value=2.0)))
    bursts = draw(
        st.lists(
            st.tuples(
                st.floats(min_value=0.002, max_value=0.2),
                st.floats(min_value=0.0, max_value=0.3),
            ),
            min_size=1,
            max_size=6,
        )
    )

    def loop():
        for run, sleep in bursts:
            yield Run(run)
            yield Block(sleep)
        yield Run(math.inf)

    return GeneratorBehavior(loop())


@st.composite
def populations(draw):
    weight = weight_kinds[draw(st.sampled_from(sorted(weight_kinds)))]
    n = draw(st.integers(min_value=1, max_value=12))
    arrival = st.floats(min_value=0.0, max_value=1.0)
    tasks = [(draw(weight), draw(behaviours()), draw(arrival)) for _ in range(n)]
    storm = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["setweight", "kill"]),
                st.integers(min_value=0, max_value=n - 1),
                weight,
                st.floats(min_value=0.0, max_value=2.5),
            ),
            max_size=8,
        )
    )
    return tasks, storm


tag_maths = st.sampled_from(["float", "fixed-wrap12", "fixed-wrap16"])


def make_tags(kind):
    if kind == "float":
        return FloatTags()
    return FixedTags(n=4, wrap_bits=int(kind.removeprefix("fixed-wrap")))


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    populations(),
    st.integers(min_value=1, max_value=4),
    tag_maths,
    st.sampled_from([0.0, 0.05]),
    st.booleans(),
    st.floats(min_value=0.01, max_value=0.1),
)
def test_bucket_pick_matches_sort_path(
    population, cpus, tags, bonus, readjust, quantum
):
    tasks, storm = population
    sched = CheckedSFS(
        tag_math=make_tags(tags), affinity_bonus=bonus, readjust=readjust
    )
    machine = Machine(sched, cpus=cpus, quantum=quantum, record_events=False)
    added = [
        machine.add_task(Task(behaviour, weight=w, name=f"t{i}"), at=at)
        for i, (w, behaviour, at) in enumerate(tasks)
    ]
    for op, index, weight, at in storm:
        if op == "setweight":
            machine.set_weight_at(added[index], weight, at)
        else:
            machine.kill_task_at(added[index], at)
    machine.run_until(3.0)
    assert sched.checked == sched.decision_count
    assert_buckets_consistent(sched)


def test_rebases_exercised_under_small_wrap():
    """The fixed-point arm of the property really crosses rebases."""
    sched = CheckedSFS(tag_math=FixedTags(n=4, wrap_bits=12))
    machine = Machine(sched, cpus=2, quantum=0.05, record_events=False)
    for i, w in enumerate((0.01, 1.0, 1.0, 5.0, 40.0)):
        machine.add_task(Task(Infinite(), weight=w, name=f"t{i}"))
    machine.run_until(3.0)
    assert sched.rebase_count > 0
    assert sched.checked == sched.decision_count > 0


# ----------------------------------------------------------------------
# a hand-built equal-surplus run
# ----------------------------------------------------------------------


def test_equal_alpha_run_breaks_tie_by_tid():
    """Distinct start tags whose surplus rounds to one value.

    With phi = 3 and v = 0, ``3 * 0.9`` and ``3 * nextafter(0.9)`` are
    the same double, so the bucket (ordered by start tag) holds the
    larger tid first; the decision must walk the equal-surplus run and
    return the smaller tid, as the (alpha, tid) sort does.
    """
    s_low = 0.9
    s_high = math.nextafter(s_low, 1.0)
    assert 3.0 * s_low == 3.0 * s_high and s_low < s_high

    sched = SurplusFairScheduler(readjust=False)
    Machine(sched, cpus=2)
    first = Task(Infinite(), weight=3.0, name="first")  # smaller tid
    second = Task(Infinite(), weight=3.0, name="second")
    anchor = Task(Infinite(), weight=1.0, name="anchor")  # holds v at 0
    other = Task(Infinite(), weight=1.0, name="other")  # surplus 2.8
    for task in (first, second, anchor, other):
        sched.on_arrival(task, 0.0)
        task.state = TaskState.RUNNABLE
    anchor.state = TaskState.RUNNING
    for task, start in ((first, s_high), (second, s_low), (other, 2.8)):
        task.sched["S"] = start
        sched.start_queue.reposition(task)
        sched._tags_updated(task, 0.0)

    bucket = sched._buckets[3.0]
    assert [t.name for t in bucket] == ["second", "first"]
    assert sched.pick_next(0, 0.0) is first
    assert sort_path_pick(sched, 0) is first
    assert sched.exact_minimum_surplus_task() is first


# ----------------------------------------------------------------------
# deterministic work gate and end-of-run drain
# ----------------------------------------------------------------------


def test_surplus_evaluations_per_decision_gate():
    """Overloaded server population: a handful of evaluations per pick.

    Load 1.6 on 4 CPUs keeps well over 100 threads runnable on average;
    the full recompute evaluated every one of them at nearly every
    decision. The bucket walk evaluates O(g (p + ties)) — three weight
    classes here — so the count stays under 16 per decision however
    long the run queue grows.
    """
    scn = server_scenario(1500, cpus=4, load=1.6, cost_model="lmbench", seed=42)
    machine, _, _ = build_machine(scn)
    sched = machine.scheduler
    runnable = []
    pick = sched.pick_next

    def counting(cpu, now):
        runnable.append(len(sched._runnable))
        return pick(cpu, now)

    sched.pick_next = counting
    machine.run_until(scn.duration)
    assert sum(runnable) / len(runnable) > 100
    assert sched.decision_count == len(runnable)
    assert sched.surplus_evaluations < 16 * sched.decision_count


def test_buckets_drain_when_every_task_exits():
    scn = server_scenario(
        60, cpus=2, seed=13, service_cap_factor=10.0, drain_factor=4.0
    )
    machine, tasks, _ = build_machine(scn)
    machine.run_until(scn.duration)
    assert all(t.state is TaskState.EXITED for t in tasks.values())
    sched = machine.scheduler
    assert sched._buckets == {}
    assert sched._filed == {}
    assert sched.frontier.drain_phi_changes() == []
