"""Tests for the GMS fluid oracle (§2.2) and trace replay."""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from tests.conftest import add_inf
from repro.core.gms import FluidGMS, replay_trace
from repro.core.sfs import SurplusFairScheduler
from repro.core.weights import readjust
from repro.sim.machine import Machine
from repro.sim.tracing import TraceEvent


class TestRates:
    def test_feasible_weights_share_proportionally(self):
        gms = FluidGMS(cpus=2)
        gms.arrive(1, 1.0, 0.0)
        gms.arrive(2, 2.0, 0.0)
        gms.arrive(3, 1.0, 0.0)
        rates = gms.rates()
        assert rates[1] == pytest.approx(0.5)
        assert rates[2] == pytest.approx(1.0)
        assert rates[3] == pytest.approx(0.5)

    def test_infeasible_weight_capped_at_one_processor(self):
        gms = FluidGMS(cpus=2)
        gms.arrive(1, 1.0, 0.0)
        gms.arrive(2, 100.0, 0.0)
        rates = gms.rates()
        # Eq. 2 over feasible phis: the heavy thread gets exactly one
        # CPU, the light one the other.
        assert rates[2] == pytest.approx(1.0)
        assert rates[1] == pytest.approx(1.0)

    def test_fewer_threads_than_cpus_each_get_full_processor(self):
        gms = FluidGMS(cpus=4)
        gms.arrive(1, 5.0, 0.0)
        gms.arrive(2, 1.0, 0.0)
        rates = gms.rates()
        assert rates[1] == pytest.approx(1.0)
        assert rates[2] == pytest.approx(1.0)

    def test_total_rate_never_exceeds_capacity(self):
        gms = FluidGMS(cpus=2)
        for i, w in enumerate((10, 4, 3, 2, 1)):
            gms.arrive(i, w, 0.0)
        assert sum(gms.rates().values()) <= 2.0 + 1e-9

    def test_work_conserving_when_saturated(self):
        gms = FluidGMS(cpus=2)
        for i in range(3):
            gms.arrive(i, i + 1.0, 0.0)
        assert sum(gms.rates().values()) == pytest.approx(2.0)

    def test_empty_system_has_no_rates(self):
        assert FluidGMS(cpus=2).rates() == {}


class TestIntegration:
    def test_service_integrates_rates(self):
        gms = FluidGMS(cpus=1)
        gms.arrive(1, 1.0, 0.0)
        gms.arrive(2, 3.0, 0.0)
        gms.advance_to(4.0)
        assert gms.service_of(1) == pytest.approx(1.0)
        assert gms.service_of(2) == pytest.approx(3.0)

    def test_departure_stops_service(self):
        gms = FluidGMS(cpus=1)
        gms.arrive(1, 1.0, 0.0)
        gms.arrive(2, 1.0, 0.0)
        gms.depart(2, 2.0)
        gms.advance_to(4.0)
        assert gms.service_of(2) == pytest.approx(1.0)
        assert gms.service_of(1) == pytest.approx(3.0)

    def test_weight_change_reshapes_rates(self):
        gms = FluidGMS(cpus=1)
        gms.arrive(1, 1.0, 0.0)
        gms.arrive(2, 1.0, 0.0)
        gms.set_weight(2, 3.0, 2.0)
        gms.advance_to(6.0)
        # First 2 s split evenly; last 4 s split 1:3.
        assert gms.service_of(1) == pytest.approx(1.0 + 1.0)
        assert gms.service_of(2) == pytest.approx(1.0 + 3.0)

    def test_time_cannot_go_backwards(self):
        gms = FluidGMS(cpus=1)
        gms.advance_to(5.0)
        with pytest.raises(ValueError):
            gms.advance_to(4.0)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            FluidGMS(cpus=0)
        with pytest.raises(ValueError):
            FluidGMS(cpus=1, capacity=0)
        gms = FluidGMS(cpus=1)
        with pytest.raises(ValueError):
            gms.arrive(1, 0.0, 0.0)


class TestReplay:
    def test_replay_simple_timeline(self):
        events = [
            TraceEvent(0.0, "arrive", 1, 1.0),
            TraceEvent(0.0, "arrive", 2, 1.0),
            TraceEvent(5.0, "exit", 2, 1.0),
        ]
        service = replay_trace(events, cpus=1, t_end=10.0)
        assert service[1] == pytest.approx(2.5 + 5.0)
        assert service[2] == pytest.approx(2.5)

    def test_replay_block_and_wake(self):
        events = [
            TraceEvent(0.0, "arrive", 1, 1.0),
            TraceEvent(0.0, "arrive", 2, 1.0),
            TraceEvent(4.0, "block", 2, 1.0),
            TraceEvent(8.0, "wake", 2, 1.0),
        ]
        service = replay_trace(events, cpus=1, t_end=10.0)
        assert service[2] == pytest.approx(2.0 + 1.0)

    def test_replay_of_real_sfs_run_tracks_actual_service(self):
        # The actual SFS allocation stays within a few quanta of the
        # fluid ideal for a static CPU-bound workload.
        m = Machine(SurplusFairScheduler(), cpus=2, quantum=0.1)
        tasks = [add_inf(m, w, f"w{w}") for w in (1, 2, 3)]
        m.run_until(20.0)
        ideal = replay_trace(m.trace.events, 2, 20.0)
        for t in tasks:
            assert t.service == pytest.approx(ideal[t.tid], abs=0.8)

    def test_replay_matches_fluid_gms_spec(self):
        # replay_trace is an incremental reformulation of driving
        # FluidGMS event by event; the two must agree to float
        # rounding on a timeline with churn, weight changes, and an
        # infeasible stretch (weight 50 on 2 CPUs pins a processor).
        events = [
            TraceEvent(0.0, "arrive", 1, 1.0),
            TraceEvent(0.5, "arrive", 2, 3.0),
            TraceEvent(1.0, "arrive", 3, 50.0),
            TraceEvent(1.5, "weight", 2, 5.0),
            TraceEvent(2.0, "block", 1, 1.0),
            TraceEvent(2.5, "wake", 1, 1.0),
            TraceEvent(3.0, "exit", 3, 50.0),
            TraceEvent(3.5, "arrive", 4, 2.0),
            TraceEvent(4.0, "exit", 2, 5.0),
        ]
        fast = replay_trace(events, cpus=2, t_end=5.0)
        gms = FluidGMS(cpus=2)
        for ev in events:
            if ev.kind in ("arrive", "wake"):
                gms.arrive(ev.tid, ev.weight, ev.time)
            elif ev.kind in ("block", "exit"):
                gms.depart(ev.tid, ev.time)
            elif ev.kind == "weight":
                gms.set_weight(ev.tid, ev.weight, ev.time)
        gms.advance_to(5.0)
        spec = gms.services()
        assert fast.keys() == spec.keys()
        for tid in spec:
            assert fast[tid] == pytest.approx(spec[tid], rel=1e-9), tid


class FreshRatesGMS:
    """FluidGMS as specified: the rates are re-derived on every use."""

    def __init__(self, cpus):
        self.p = cpus
        self.weights = {}
        self.service = {}
        self.now = 0.0

    def rates(self):
        if not self.weights:
            return {}
        keys = list(self.weights)
        phis = readjust([self.weights[k] for k in keys], self.p)
        total = sum(phis)
        return {k: min(1.0, self.p * phi / total) for k, phi in zip(keys, phis)}

    def advance_to(self, t):
        dt = t - self.now
        if dt > 0:
            for k, rate in self.rates().items():
                self.service[k] += rate * dt
        self.now = t

    def arrive(self, key, weight, at):
        self.advance_to(at)
        self.weights[key] = weight
        self.service.setdefault(key, 0.0)

    def depart(self, key, at):
        self.advance_to(at)
        self.weights.pop(key, None)

    def set_weight(self, key, weight, at):
        self.advance_to(at)
        if key in self.weights:
            self.weights[key] = weight


keys = st.integers(min_value=0, max_value=5)
gms_weights = st.one_of(
    st.sampled_from([1.0, 2.0, 4.0, 8.0]),
    st.floats(min_value=-3.0, max_value=3.0).map(lambda e: 10.0**e),
)
gaps = st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=2.0))


class CachedRatesMatchFresh(RuleBasedStateMachine):
    """The rate cache is invisible: every step equals a fresh derivation.

    Keys come from a small pool, so departures and weight changes of
    absent keys and re-arrivals of departed ones happen often.
    """

    @initialize(cpus=st.integers(min_value=1, max_value=4))
    def setup(self, cpus):
        self.gms = FluidGMS(cpus)
        self.ref = FreshRatesGMS(cpus)
        self.last_weight = {}
        self.now = 0.0

    def _later(self, gap):
        self.now += gap
        return self.now

    @rule(key=keys, weight=gms_weights, gap=gaps)
    def arrive(self, key, weight, gap):
        at = self._later(gap)
        self.gms.arrive(key, weight, at)
        self.ref.arrive(key, weight, at)
        self.last_weight[key] = weight

    @rule(key=keys, gap=gaps)
    def rearrive_at_last_weight(self, key, gap):
        weight = self.last_weight.get(key, 1.0)
        self.arrive(key, weight, gap)

    @rule(key=keys, gap=gaps)
    def depart(self, key, gap):
        at = self._later(gap)
        self.gms.depart(key, at)
        self.ref.depart(key, at)

    @rule(key=keys, weight=gms_weights, gap=gaps)
    def set_weight(self, key, weight, gap):
        at = self._later(gap)
        self.gms.set_weight(key, weight, at)
        self.ref.set_weight(key, weight, at)
        if key in self.ref.weights:
            self.last_weight[key] = weight

    @rule(gap=gaps)
    def advance_to(self, gap):
        at = self._later(gap)
        self.gms.advance_to(at)
        self.ref.advance_to(at)

    @invariant()
    def services_and_rates_are_exact(self):
        assert self.gms.services() == self.ref.service
        assert self.gms.rates() == self.ref.rates()


CachedRatesMatchFresh.TestCase.settings = settings(
    max_examples=80, stateful_step_count=40, deadline=None
)
TestCachedRatesMatchFresh = CachedRatesMatchFresh.TestCase


def test_rates_returns_a_fresh_dict_callers_may_mutate():
    gms = FluidGMS(cpus=1)
    gms.arrive(1, 1.0, 0.0)
    gms.arrive(2, 3.0, 0.0)
    rates = gms.rates()
    assert rates is not gms.rates()
    rates[1] = 99.0
    del rates[2]
    assert gms.rates() == {1: 0.25, 2: 0.75}
    gms.advance_to(4.0)
    assert gms.services() == {1: 1.0, 2: 3.0}
    assert FluidGMS(cpus=1).rates() is not FluidGMS(cpus=1).rates()
