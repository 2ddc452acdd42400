"""Layer spans for the traced run, recorded from outside the program.

:class:`LayerTracer` runs a cell through the program's own
``run_scenario`` while it temporarily wraps the entry points that
function reaches: ``build_machine``, the engine class ``Machine``
builds (event scheduling, ``run_until`` and every event callback it
fires), ``Machine.run_until``, the ``Scheduler`` hooks, the ``Auditor``
(set-up, observers and ``finalize``), ``SimulationResult``,
``summarize`` and each canned metric it computes. Each span adds its
*self* time (its duration minus the time of the spans nested in it) to
its layer.

A wrapper costs time of its own: the call into it, its bookkeeping and
its clock reads. That cost is kept out of every layer. Each wrapper
reads the clock on entry and on exit, and tells the enclosing span its
full cost, plus a calibrated constant for the part no clock read can
see: the call into it before the first read and the return after the
last. A second calibrated constant takes from the wrapped layer what
its inner clocks see beyond a direct call. Both are measured for each
kind of wrapper, on stand-in calls, when the tracer is made. The wrappers' own cost ends up
in :meth:`LayerTracer.unattributed_s`, and the layer totals plus that
remainder add up to the traced wall.

Layers (module names of the program):

- ``scenario.build``: ``build_machine``;
- ``sim.engine``: the event loop and event scheduling;
- ``sim.machine``: event callbacks (dispatch, charge, vacate, run
  queue, tracing, workload behaviours) minus scheduler and audit time;
- ``sim.scheduler.pick`` / ``.update`` / ``.weight``: the ``pick_next``
  hook, the runnable-set hooks, and ``on_weight_change``;
- ``analysis.audit.stream`` / ``.finalize``: the auditor's set-up and
  observers, and its end-of-run replay;
- ``scenario.result``: ``SimulationResult`` and ``summarize``.

Nothing here changes what the program computes; the benchmark checks
that by comparing the simulation digest of every traced cell with the
untraced run of the same cell.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from collections import Counter
from typing import Any, Callable, Iterator

import repro.analysis.audit as audit_package
import repro.scenario.result as result_module
import repro.scenario.runner as runner
import repro.sim.machine as machine_module
from repro.core.gms import FluidGMS

__all__ = ["LayerTracer", "LAYERS", "UPDATE_HOOKS", "SCHEDULER_COUNTERS"]

#: every layer that receives self time, in report order
LAYERS = (
    "scenario.build",
    "sim.engine",
    "sim.machine",
    "sim.scheduler.pick",
    "sim.scheduler.update",
    "sim.scheduler.weight",
    "analysis.audit.stream",
    "analysis.audit.finalize",
    "scenario.result",
)

#: scheduler hooks timed as ``sim.scheduler.update``
UPDATE_HOOKS = (
    "on_arrival",
    "on_wakeup",
    "on_block",
    "on_preempt",
    "on_exit",
    "choose_victim",
)

#: scheduler instrumentation counters, summed over cells when present
SCHEDULER_COUNTERS = {
    "sim.scheduler.resorts": ("resort_count",),
    "sim.scheduler.frontier.repairs": ("frontier", "repairs"),
    "sim.scheduler.frontier.fast_skips": ("frontier", "fast_skips"),
    "sim.scheduler.frontier.phi_writes": ("frontier", "phi_writes"),
    "sim.scheduler.frontier.scan_steps": ("frontier", "scan_steps"),
    "sim.scheduler.heuristic.widened_scans": ("widened_scans",),
    "sim.scheduler.heuristic.forced_refreshes": ("forced_refreshes",),
}

#: wrapped no-op calls per calibration pass, and passes per tracer
CALIBRATION_CALLS = 2000
CALIBRATION_PASSES = 7

clock = time.perf_counter


#: wrapper kinds with their own calibrated constants
WRAPPER_KINDS = ("call", "fire", "schedule")


def _timed(loop: Callable[[], None]) -> float:
    start = clock()
    loop()
    return clock() - start


class _Callee:
    """Stand-in for a program object whose method a wrapper calls."""

    def hook(self, a: Any, b: Any) -> None:
        return None


class _Queue:
    """Stand-in for the engine base class; ``schedule_at`` returns ``fn``."""

    def schedule_at(self, when: float, fn: Any, *args: Any) -> Any:
        return fn

    def run_until(self, t_end: float) -> None:
        return None


class LayerTracer:
    """Self time per layer and work counters, summed over traced cells."""

    def __init__(self) -> None:
        #: wrapper kind -> (leak, inner) in seconds, see :meth:`_calibrate`
        self.constants: dict[str, tuple[float, float]] = dict.fromkeys(
            WRAPPER_KINDS, (0.0, 0.0)
        )
        self._reset()
        self.constants = self._calibrate()
        self._reset()
        self._patches = self._build_patches()

    def _reset(self) -> None:
        #: layer -> [self seconds, calls]
        self.layers: dict[str, list] = {name: [0.0, 0] for name in LAYERS}
        self.counts: Counter = Counter()
        #: canned metric -> [seconds inside its extractor, calls]
        self.metric_s: dict[str, list] = {
            name: [0.0, 0] for name in result_module.METRICS
        }
        #: seconds inside ``run_scenario`` of traced cells, the traced wall
        self.wall_s = 0.0
        # children's cost of the open spans; index 0 is the root
        self._stack: list[float] = [0.0]
        # [events scheduled, batches, time of the last fired event]
        self._engine_tally: list = [0, 0, None]
        # sum of the runnable-set size over pick_next calls
        self._runnable_total = [0]

    # -- spans ---------------------------------------------------------

    def span(
        self,
        layer: str,
        fn: Callable[..., Any],
        pre: Callable[..., Any] | None = None,
        split: list | None = None,
    ) -> Callable[..., Any]:
        """``fn`` wrapped so that its self time lands in ``layer``.

        ``pre`` runs on the call's arguments before the inner clock
        starts; ``split`` is a second ``[seconds, calls]`` accumulator
        that also receives the self time.
        """
        return self._span(self.layers[layer], fn, pre, split)

    def _span(
        self,
        acc: list,
        fn: Callable[..., Any],
        pre: Callable[..., Any] | None = None,
        split: list | None = None,
    ) -> Callable[..., Any]:
        stack = self._stack
        leak, inner = self.constants["call"]

        def wrapped(*args: Any) -> Any:
            enter = clock()
            if pre is not None:
                pre(*args)
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args)
            finally:
                own = clock() - start - stack.pop() - inner
                acc[0] += own
                acc[1] += 1
                if split is not None:
                    split[0] += own
                    split[1] += 1
                stack[-1] += clock() - enter + leak

        return wrapped

    def _calibrate(self) -> dict[str, tuple[float, float]]:
        """``(leak, inner)`` per wrapper kind, measured on stand-ins.

        Each kind of wrapper is called the way the program calls it:
        a hook span with positional arguments, an event callback with
        a star-argument tuple as the engine fires it, and event
        scheduling as a method. ``leak`` is what a wrapped call costs
        its caller beyond a bare loop and beyond what the wrapper
        reports to it; ``inner`` is what the wrapper books to its layer
        beyond the same call made directly. Each is the median over
        passes. Must run before any real wrapper is built.
        """
        stack = self._stack
        callee = _Callee()
        hook = callee.hook
        args = (1, 2)
        hook_acc = [0.0, 0]
        span = self._span(hook_acc, hook)
        engine = self._engine_class(_Queue)()
        fire = engine.schedule_at(0.0, hook)
        fire_args = (0.0, hook, 1, 2)
        queue = _Queue()
        calls = range(CALIBRATION_CALLS)

        def traced_call() -> None:
            for _ in calls:
                span(1, 2)

        def direct_call() -> None:
            for _ in calls:
                hook(1, 2)

        def traced_fire() -> None:
            for _ in calls:
                fire(*fire_args)

        def direct_fire() -> None:
            for _ in calls:
                hook(*args)

        def traced_schedule() -> None:
            for _ in calls:
                engine.schedule_at(0.0, hook, 1)

        def direct_schedule() -> None:
            for _ in calls:
                queue.schedule_at(0.0, hook, 1)

        def bare() -> None:
            for _ in calls:
                pass

        kinds = {
            "call": (traced_call, direct_call, hook_acc),
            "fire": (traced_fire, direct_fire, self.layers["sim.machine"]),
            "schedule": (
                traced_schedule,
                direct_schedule,
                self.layers["sim.engine"],
            ),
        }
        samples: dict[str, list] = {kind: [] for kind in kinds}
        for _ in range(CALIBRATION_PASSES):
            empty = _timed(bare)
            for kind, (traced, direct, acc) in kinds.items():
                stack[0] = acc[0] = 0.0
                wrapped = _timed(traced)
                charged, own = stack[0], acc[0]
                plain = _timed(direct)
                samples[kind].append(
                    (
                        (wrapped - charged - empty) / CALIBRATION_CALLS,
                        (own - plain + empty) / CALIBRATION_CALLS,
                    )
                )
        return {
            kind: (
                statistics.median(leak for leak, _ in pairs),
                statistics.median(inner for _, inner in pairs),
            )
            for kind, pairs in samples.items()
        }

    def counters(self) -> Counter:
        """Every work counter: span calls per layer, per-event counts."""
        counts = Counter(self.counts)
        for layer, acc in self.layers.items():
            counts[f"{layer}.calls"] = acc[1]
        counts["sim.engine.events_scheduled"] = self._engine_tally[0]
        counts["sim.engine.batches"] = self._engine_tally[1]
        counts["sim.scheduler.pick.runnable_total"] = self._runnable_total[0]
        return counts

    def unattributed_s(self) -> float:
        """Traced wall outside every layer: the wrappers' own cost."""
        return self.wall_s - sum(acc[0] for acc in self.layers.values())

    def times(self) -> dict[str, float]:
        """Every accumulated time so far, in seconds, by name."""
        out = {layer: acc[0] for layer, acc in self.layers.items()}
        out.update({f"metric.{n}": acc[0] for n, acc in self.metric_s.items()})
        out["wall"] = self.wall_s
        return out

    # -- instrumentation ------------------------------------------------

    def _engine_class(self, base: type) -> type:
        """``base`` with event scheduling, the loop and callbacks spanned.

        The event spans are inlined here rather than built with
        :meth:`span`: they run once or twice per simulated event, so
        their cost is most of the tracing overhead. Each has its own
        calibrated constants, see :meth:`_calibrate`.
        """
        stack = self._stack
        fire_leak, fire_inner = self.constants["fire"]
        leak, inner = self.constants["schedule"]
        engine_acc = self.layers["sim.engine"]
        machine_acc = self.layers["sim.machine"]
        schedule = base.schedule_at
        tally = self._engine_tally

        def fire(when: float, fn: Callable[..., Any], *args: Any) -> Any:
            enter = clock()
            if when != tally[2]:
                tally[2] = when
                tally[1] += 1
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args)
            finally:
                machine_acc[0] += clock() - start - stack.pop() - fire_inner
                machine_acc[1] += 1
                stack[-1] += clock() - enter + fire_leak

        class TracedEngine(base):
            # each event fires ``fire(when, fn, *args)``: one shared
            # callback, so scheduling allocates nothing the program's
            # own call would not
            def schedule_at(self, when, fn, *args):
                enter = clock()
                tally[0] += 1
                stack.append(0.0)
                start = clock()
                try:
                    return schedule(self, when, fire, when, fn, *args)
                finally:
                    engine_acc[0] += clock() - start - stack.pop() - inner
                    engine_acc[1] += 1
                    stack[-1] += clock() - enter + leak

            run_until = self.span("sim.engine", base.run_until)

        return TracedEngine

    def _build_machine(self, original: Callable[..., Any]) -> Callable[..., Any]:
        """``build_machine`` spanned, with the machine it returns instrumented."""
        build = self.span("scenario.build", original)

        def build_machine(scenario: Any) -> tuple:
            machine, tasks, drivers = build(scenario)
            if type(machine.engine) is not machine_module.Engine:
                raise RuntimeError(
                    "build_machine no longer builds its engine through "
                    "repro.sim.machine.Engine; the engine layer is untraced"
                )
            self.counts["scenario.tasks_built"] += len(tasks)
            self._instrument_scheduler(machine)
            machine.run_until = self.span("sim.machine", machine.run_until)
            return machine, tasks, drivers

        return build_machine

    def _instrument_scheduler(self, machine: Any) -> None:
        scheduler = machine.scheduler
        runnable = self._runnable_total

        def count_runnable(cpu: int, now: float) -> None:
            runnable[0] += machine.runnable_count

        scheduler.pick_next = self.span(
            "sim.scheduler.pick", scheduler.pick_next, pre=count_runnable
        )
        for hook in UPDATE_HOOKS:
            setattr(
                scheduler,
                hook,
                self.span("sim.scheduler.update", getattr(scheduler, hook)),
            )
        scheduler.on_weight_change = self.span(
            "sim.scheduler.weight", scheduler.on_weight_change
        )

    def _auditor_class(self, base: type) -> type:
        """``base`` with set-up, observers and ``finalize`` spanned."""
        tracer = self
        counts = self.counts

        class TracedAuditor(base):
            def __init__(self, *args: Any, **kwargs: Any) -> None:
                init = super().__init__
                tracer.span(
                    "analysis.audit.stream", lambda: init(*args, **kwargs)
                )()

            def install(self) -> Any:
                machine = self.machine
                observers = (
                    machine.on_dispatch,
                    machine.on_requeue,
                    machine.trace.on_event,
                )
                before = [len(fns) for fns in observers]
                tracer.span("analysis.audit.stream", super().install)()
                for fns, old in zip(observers, before):
                    fns[old:] = [
                        tracer.span("analysis.audit.stream", fn)
                        for fn in fns[old:]
                    ]
                return self

            def finalize(self, t_end: float) -> Any:
                report = tracer.span(
                    "analysis.audit.finalize", super().finalize
                )(t_end)
                counts["analysis.audit.events_replayed"] += report.events_seen
                counts["analysis.audit.violations"] += sum(report.counts.values())
                return report

        return TracedAuditor

    def _counted(self, fn: Callable[..., Any], key: str) -> Callable[..., Any]:
        """``fn`` counted into ``key``, its enclosing span charged only for ``fn``.

        The wrapper opens no span: it tells the enclosing span its own
        cost, so that span's self time still covers ``fn``.
        """
        stack = self._stack
        leak, inner = self.constants["call"]
        counts = self.counts

        def counted(*args: Any) -> Any:
            enter = clock()
            counts[key] += 1
            start = clock()
            try:
                return fn(*args)
            finally:
                work = clock() - start - inner
                stack[-1] += clock() - enter + leak - work

        return counted

    def _build_patches(self) -> list[tuple[Any, str, Any]]:
        """``(owner, attribute, traced value)`` for every wrapped entry point."""
        metrics = {
            name: self.span("scenario.result", fn, split=self.metric_s[name])
            for name, fn in result_module.METRICS.items()
        }
        patches = [
            (machine_module, "Engine", self._engine_class(machine_module.Engine)),
            (runner, "build_machine", self._build_machine(runner.build_machine)),
            (audit_package, "Auditor", self._auditor_class(audit_package.Auditor)),
            (
                runner,
                "SimulationResult",
                self.span("scenario.result", runner.SimulationResult),
            ),
            (runner, "summarize", self.span("scenario.result", runner.summarize)),
            (
                FluidGMS,
                "advance_to",
                self._counted(FluidGMS.advance_to, "scenario.result.gms_advances"),
            ),
        ]
        patches += [(result_module.METRICS, name, fn) for name, fn in metrics.items()]
        return patches

    @contextlib.contextmanager
    def tracing(self) -> Iterator[None]:
        """Inside, the program's entry points record into this tracer."""
        saved = []
        try:
            for owner, name, value in self._patches:
                if isinstance(owner, dict):
                    saved.append((owner, name, owner[name]))
                    owner[name] = value
                else:
                    saved.append((owner, name, getattr(owner, name)))
                    setattr(owner, name, value)
            yield
        finally:
            for owner, name, value in reversed(saved):
                if isinstance(owner, dict):
                    owner[name] = value
                else:
                    setattr(owner, name, value)

    # -- the traced pipeline --------------------------------------------

    def run_cell(self, scenario: Any) -> Any:
        """Run one scenario through ``run_scenario`` with every layer spanned."""
        picks = self.layers["sim.scheduler.pick"][1]
        with self.tracing():
            start = clock()
            try:
                result = runner.run_scenario(scenario)
            finally:
                self.wall_s += clock() - start
        machine = result.machine
        if self.layers["sim.scheduler.pick"][1] - picks != machine.trace.decisions:
            raise RuntimeError(
                "the machine no longer calls scheduler.pick_next through "
                "the instance; the scheduler layer is untraced"
            )
        self._count_machine(machine)
        return result

    def _count_machine(self, machine: Any) -> None:
        counts = self.counts
        trace = machine.trace
        counts["sim.engine.events_fired"] += machine.engine.events_fired
        counts["sim.machine.dispatches"] += trace.dispatches
        counts["sim.machine.context_switches"] += trace.context_switches
        counts["sim.machine.preemptions"] += trace.preemptions
        scheduler = machine.scheduler
        for metric, path in SCHEDULER_COUNTERS.items():
            value: Any = scheduler
            for attr in path:
                value = getattr(value, attr, None)
            if isinstance(value, int):
                counts[metric] += value
