"""Tests for service metrics and the context-switch cost models."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import add_inf
from repro.core.sfs import SurplusFairScheduler
from repro.sim.costs import (
    DecisionCostParams,
    LMBENCH_COST,
    TESTBED_COST,
    ZERO_COST,
)
from repro.sim.machine import Machine
from repro.sim.metrics import (
    service_at,
    service_between,
    share_between,
    shares,
)
from repro.sim.task import Task
from repro.workloads.cpu_bound import Infinite


def brute_service_at(series, t):
    """Linear-scan reading of a service series, for reference."""
    s0 = 0.0
    for t1, s1 in series:
        if t1 > t:
            run_start = t1 - (s1 - s0)
            return s0 if t <= run_start else s0 + (t - run_start)
        s0 = s1
    return s0


#: (idle gap, run length) per charge; zero gaps make back-to-back runs,
#: zero runs repeat a sample's service
charges = st.lists(
    st.tuples(
        st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=2.0)),
        st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=1.0)),
    ),
    min_size=1,
    max_size=30,
)


class TestServiceAtMatchesLinearScan:
    @settings(max_examples=200, deadline=None)
    @given(charges, st.lists(st.floats(min_value=-1.0, max_value=100.0), max_size=10))
    def test_random_series(self, drawn, extra_queries):
        task = Task(Infinite(), weight=1)
        now = service = 0.0
        queries = [-0.5, 0.0]
        for gap, run in drawn:
            queries.append(now + gap / 2.0)  # inside the idle gap
            now += gap
            queries.append(now)  # the run's start
            now += run
            service += run
            task.series.append((now, service))
            queries.append(now)  # exactly at the sample
        queries += [now + 1e-9, now + 5.0]  # after the last sample
        queries += extra_queries
        for t in queries:
            assert service_at(task, t) == brute_service_at(task.series, t), t


class TestServiceAt:
    def _machine(self):
        return Machine(SurplusFairScheduler(), cpus=1, quantum=0.2)

    def test_exact_on_continuous_run(self):
        m = self._machine()
        t = add_inf(m, 1, "A")
        m.run_until(1.0)
        assert service_at(t, 0.5) == pytest.approx(0.5)

    def test_flat_during_idle_gap(self):
        # Two tasks alternate 0.2s quanta on one CPU; between its quanta
        # a task's service must be exactly flat.
        m = self._machine()
        a = add_inf(m, 1, "A")
        add_inf(m, 1, "B")
        m.run_until(2.0)
        # A runs [0, .2], waits [.2, .4], runs [.4, .6] ...
        assert service_at(a, 0.2) == pytest.approx(0.2)
        assert service_at(a, 0.3) == pytest.approx(0.2)  # flat!
        assert service_at(a, 0.399) == pytest.approx(0.2, abs=1e-6)
        assert service_at(a, 0.5) == pytest.approx(0.3)

    def test_before_first_run(self):
        m = self._machine()
        add_inf(m, 1, "A")
        b = add_inf(m, 1, "B")
        m.run_until(1.0)
        assert service_at(b, 0.05) == pytest.approx(0.0)

    def test_after_last_sample_returns_total(self):
        m = self._machine()
        t = add_inf(m, 1, "A")
        m.run_until(1.0)
        assert service_at(t, 99.0) == pytest.approx(1.0)

    def test_empty_series(self):
        t = Task(Infinite(), weight=1)
        assert service_at(t, 5.0) == 0.0

    def test_service_between_and_share(self):
        m = self._machine()
        a = add_inf(m, 1, "A")
        add_inf(m, 1, "B")
        m.run_until(4.0)
        assert service_between(a, 0.0, 4.0) == pytest.approx(2.0, abs=0.2)
        assert share_between(a, 0.0, 4.0, cpus=1) == pytest.approx(0.5, abs=0.05)

    def test_shares_maps_names(self):
        m = self._machine()
        a = add_inf(m, 1, "A")
        b = add_inf(m, 1, "B")
        m.run_until(2.0)
        result = shares([a, b], 0.0, 2.0, cpus=1)
        assert set(result) == {"A", "B"}
        assert sum(result.values()) == pytest.approx(1.0, abs=0.01)


class TestDecisionCostParams:
    def test_constant_cost(self):
        p = DecisionCostParams(base=2e-6)
        assert p.cost(100) == pytest.approx(2e-6)

    def test_linear_growth(self):
        p = DecisionCostParams(base=1e-6, per_thread=0.1e-6)
        assert p.cost(10) == pytest.approx(2e-6)

    def test_loglinear_term(self):
        p = DecisionCostParams(log_coeff=1e-6)
        assert p.cost(7) == pytest.approx(7e-6 * 3)  # 7 * log2(8)

    def test_negative_counts_clamped(self):
        assert DecisionCostParams(base=1e-6).cost(-5) == pytest.approx(1e-6)


class TestCostModel:
    def test_zero_cost_is_free(self):
        assert ZERO_COST.switch_cost(None, 64.0, 1e-6) == 0.0

    def test_cache_cost_fits_table1(self):
        # Fitted to Table 1: ~14 us at 16 KB, ~176 us at 64 KB.
        assert TESTBED_COST.cache_restore_cost(16) == pytest.approx(14e-6, rel=0.1)
        assert TESTBED_COST.cache_restore_cost(64) == pytest.approx(176e-6, rel=0.1)
        assert TESTBED_COST.cache_restore_cost(0) == 0.0

    def test_switch_cost_composition(self):
        cost = TESTBED_COST.switch_cost(None, 0.0, 2e-6)
        assert cost == pytest.approx(TESTBED_COST.ctx_base + 2e-6)

    def test_lmbench_model_counts_live_tasks(self):
        assert LMBENCH_COST.decision_count_mode == "live"
        assert TESTBED_COST.decision_count_mode == "runnable"

    def test_overhead_charged_to_trace(self):
        m = Machine(
            SurplusFairScheduler(),
            cpus=1,
            quantum=0.1,
            cost_model=TESTBED_COST,
        )
        add_inf(m, 1, "A")
        add_inf(m, 1, "B")
        m.run_until(2.0)
        assert m.trace.overhead_time > 0
        assert m.trace.context_switches >= 18

    def test_no_switch_cost_when_same_task_continues(self):
        m = Machine(
            SurplusFairScheduler(),
            cpus=1,
            quantum=0.1,
            cost_model=TESTBED_COST,
        )
        add_inf(m, 1, "A")  # alone: re-dispatched every quantum
        m.run_until(2.0)
        # Only the initial dispatch is a switch.
        assert m.trace.context_switches == 1
        assert m.trace.dispatches >= 19
