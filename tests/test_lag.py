"""Tests for the service-lag analysis (windowed GMS deviation)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.gms as gms_module
from tests.conftest import add_inf
from repro.analysis.lag import lag_curve, lag_report, max_absolute_lag
from repro.core.gms import FluidGMS
from repro.core.sfs import SurplusFairScheduler
from repro.scenario import (
    Compute,
    Inf,
    InteractiveLoop,
    Kill,
    Scenario,
    SetWeight,
    TaskSpec,
    run_scenario,
)
from repro.schedulers.round_robin import RoundRobinScheduler
from repro.schedulers.sfq import StartTimeFairScheduler
from repro.sim.machine import Machine
from repro.sim.metrics import service_at


class TestLagCurve:
    def test_sfs_lag_bounded_by_a_few_quanta(self):
        m = Machine(SurplusFairScheduler(), cpus=2, quantum=0.1)
        tasks = [add_inf(m, w, f"w{w}") for w in (1, 2, 3)]
        m.run_until(20.0)
        for t in tasks:
            assert max_absolute_lag(m, t, 0.0, 20.0) < 0.5, t.name

    def test_lag_curve_starts_near_zero(self):
        m = Machine(SurplusFairScheduler(), cpus=1, quantum=0.1)
        a = add_inf(m, 1, "A")
        add_inf(m, 1, "B")
        m.run_until(5.0)
        curve = lag_curve(m, a, 0.0, 5.0)
        assert abs(curve[0][1]) < 0.11

    def test_sfq_starvation_shows_as_large_negative_lag(self):
        m = Machine(StartTimeFairScheduler(), cpus=2, quantum=0.001)
        t1 = add_inf(m, 1, "T1")
        add_inf(m, 10, "T2")
        add_inf(m, 1, "T3", at=1.0)
        m.run_until(2.0)
        curve = lag_curve(m, t1, 0.0, 2.0, step=0.05)
        assert min(v for _, v in curve) < -0.25

    def test_round_robin_lags_against_weighted_ideal(self):
        # RR ignores a 1:3 weighting: the heavy task falls behind GMS.
        m = Machine(RoundRobinScheduler(), cpus=1, quantum=0.1)
        add_inf(m, 1, "light")
        heavy = add_inf(m, 3, "heavy")
        m.run_until(10.0)
        assert max_absolute_lag(m, heavy, 0.0, 10.0) > 1.0

    def test_lag_report_covers_all_tasks(self):
        m = Machine(SurplusFairScheduler(), cpus=2, quantum=0.1)
        add_inf(m, 1, "A")
        add_inf(m, 2, "B")
        m.run_until(2.0)
        report = lag_report(m, 0.0, 2.0)
        assert set(report) == {"A", "B"}

    def test_step_validation(self):
        # every entry point raises the same error, even on a machine
        # with no tasks
        empty = Machine(SurplusFairScheduler(), cpus=1)
        m = Machine(SurplusFairScheduler(), cpus=1)
        a = add_inf(m, 1, "A")
        m.run_until(1.0)
        for step in (0.0, -0.1):
            calls = [
                lambda: lag_report(empty, 0.0, 1.0, step=step),
                lambda: lag_report(m, 0.0, 1.0, step=step),
                lambda: lag_curve(m, a, 0.0, 1.0, step=step),
                lambda: max_absolute_lag(m, a, 0.0, 1.0, step=step),
            ]
            for call in calls:
                with pytest.raises(ValueError) as err:
                    call()
                assert str(err.value) == f"step must be > 0, got {step}"

    def test_empty_window_reports_zero_per_task(self):
        m = Machine(SurplusFairScheduler(), cpus=1, quantum=0.1)
        a = add_inf(m, 1, "A")
        add_inf(m, 3, "B")
        m.run_until(2.0)
        assert lag_report(m, 1.5, 1.0) == {"A": 0.0, "B": 0.0}
        assert lag_curve(m, a, 1.5, 1.0) == []
        assert max_absolute_lag(m, a, 1.5, 1.0) == 0.0

    def test_events_just_past_the_window_are_not_replayed(self):
        # The accumulated grid 0, 0.1, 0.2, 0.1 + 0.1 + 0.1 overshoots
        # t1 = 0.3 by float dust, and B arrives at exactly that time.
        # The last sample must read the fluid state at t1 without
        # replaying B's arrival (which would move GMS past t1).
        m = Machine(SurplusFairScheduler(), cpus=1, quantum=0.05)
        a = add_inf(m, 1, "A")
        add_inf(m, 1, "B", at=0.1 + 0.1 + 0.1)
        m.run_until(1.0)
        assert 0.1 + 0.1 + 0.1 > 0.3
        curve = lag_curve(m, a, 0.0, 0.3)
        assert [t for t, _ in curve] == [0.0, 0.1, 0.2, 0.1 + 0.1 + 0.1]
        assert set(lag_report(m, 0.0, 0.3)) == {"A", "B"}


def oracle_lag_curve(machine, task, t0, t1, step):
    """The per-task replay: a fresh FluidGMS over the whole trace.

    The reference the one-sweep implementation must match exactly.
    Events are applied up to ``min(t, t1)``, like the sweep, so a grid
    that overshoots t1 by float dust never replays an event past t1.
    """
    if step <= 0:
        raise ValueError(f"step must be > 0, got {step}")
    gms = FluidGMS(machine.num_cpus)
    events = sorted(machine.trace.events, key=lambda e: e.time)
    out = []
    idx = 0
    t = t0
    while t <= t1 + 1e-9:
        while idx < len(events) and events[idx].time <= min(t, t1):
            ev = events[idx]
            if ev.kind in ("arrive", "wake"):
                gms.arrive(ev.tid, ev.weight, ev.time)
            elif ev.kind in ("block", "exit"):
                gms.depart(ev.tid, ev.time)
            elif ev.kind == "weight":
                gms.set_weight(ev.tid, ev.weight, ev.time)
            idx += 1
        gms.advance_to(min(t, t1))
        out.append((t, service_at(task, t) - gms.service_of(task.tid)))
        t += step
    return out


CELL_DURATION = 3.0

weight_st = st.one_of(
    st.floats(min_value=-3.0, max_value=3.0).map(lambda e: 10.0**e),
    st.sampled_from([1.0, 2.0, 4.0, 8.0]),
)
behavior_st = st.one_of(
    st.just(Inf()),
    st.floats(min_value=0.05, max_value=2.0).map(Compute),
    st.builds(
        InteractiveLoop,
        think_time=st.floats(min_value=0.05, max_value=0.5),
        burst=st.floats(min_value=0.005, max_value=0.05),
        seed=st.integers(min_value=0, max_value=2**16),
    ),
)
arrival_st = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=2.0))
event_time_st = st.floats(min_value=0.1, max_value=CELL_DURATION - 0.1)


@st.composite
def cells(draw):
    specs = draw(
        st.lists(st.tuples(weight_st, behavior_st, arrival_st), min_size=2, max_size=8)
    )
    tasks = tuple(
        TaskSpec(name=f"t{i}", weight=w, behavior=b, at=at)
        for i, (w, b, at) in enumerate(specs)
    )
    names = st.sampled_from([t.name for t in tasks])
    churn = st.one_of(
        st.builds(SetWeight, task=names, weight=weight_st, at=event_time_st),
        st.builds(Kill, task=names, at=event_time_st),
    )
    return Scenario(
        name="lag-sweep",
        scheduler=draw(st.sampled_from(["sfs", "sfs-heuristic", "sfq"])),
        cpus=draw(st.integers(min_value=1, max_value=4)),
        quantum=draw(st.floats(min_value=0.01, max_value=0.2)),
        duration=CELL_DURATION,
        tasks=tasks,
        events=tuple(draw(st.lists(churn, max_size=6))),
        record_events=True,
    )


@st.composite
def windows(draw):
    t0 = draw(st.floats(min_value=0.0, max_value=1.5))
    t1 = draw(st.floats(min_value=t0, max_value=CELL_DURATION))
    step = draw(st.floats(min_value=0.013, max_value=0.7))
    return t0, t1, step


class TestOneSweepMatchesPerTaskReplay:
    @settings(max_examples=60, deadline=None)
    @given(cells(), windows())
    def test_bit_identical_to_the_per_task_replay(self, scenario, window):
        m = run_scenario(scenario).machine
        t0, t1, step = window
        want = {t.name: oracle_lag_curve(m, t, t0, t1, step) for t in m.tasks}
        peaks = {
            name: max((abs(v) for _, v in curve), default=0.0)
            for name, curve in want.items()
        }
        assert lag_report(m, t0, t1, step) == peaks
        for task in m.tasks:
            assert lag_curve(m, task, t0, t1, step) == want[task.name]
            assert max_absolute_lag(m, task, t0, t1, step) == peaks[task.name]


class TestSweepWork:
    @staticmethod
    def twelve_task_cell() -> Machine:
        kinds = [Inf(), Compute(1.5), InteractiveLoop(0.2, 0.02, seed=3)]
        tasks = tuple(
            TaskSpec(f"t{i}", weight=(1.0, 2.0, 4.0, 8.0)[i % 4], behavior=kinds[i % 3])
            for i in range(12)
        )
        scenario = Scenario(
            name="lag-work",
            scheduler="sfs",
            cpus=2,
            quantum=0.05,
            duration=5.0,
            tasks=tasks,
            events=(SetWeight("t0", 50.0, 1.0), Kill("t1", 2.0)),
            record_events=True,
        )
        return run_scenario(scenario).machine

    def test_readjust_calls_bounded_by_runnable_set_events(self, monkeypatch):
        m = self.twelve_task_cell()
        calls = 0
        readjust = gms_module.readjust

        def counted(*args):
            nonlocal calls
            calls += 1
            return readjust(*args)

        monkeypatch.setattr(gms_module, "readjust", counted)
        lag_report(m, 0.0, 5.0, step=0.05)
        report_calls = calls
        calls = 0
        max_absolute_lag(m, m.tasks[0], 0.0, 5.0, step=0.05)
        one_task_calls = calls
        events = m.trace.event_count
        assert len(m.tasks) == 12 and events > 12
        assert 0 < report_calls <= events + 1
        # the replay is shared: a 12-task report costs one task's replay
        assert report_calls == one_task_calls
