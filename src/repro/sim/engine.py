"""A minimal, deterministic discrete-event engine.

The engine maintains a queue of timestamped callbacks. Events scheduled
at identical times fire in the order they were scheduled (FIFO), which
keeps every simulation in this repository bit-for-bit reproducible.

The engine knows nothing about CPUs or schedulers; the machine layer
(:mod:`repro.sim.machine`) builds on top of it.

:class:`Engine` runs on the calendar queue of :mod:`repro.sim.eventq`,
which batches all same-timestamp events through a single dispatch
pass. ``tests/test_eventq.py`` pins it, event for event, to a binary
heap oracle passed in through the ``queue`` parameter.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.sim.eventq import CalendarEventQueue

__all__ = ["Engine", "EventHandle", "build_info"]


class EventHandle:
    """Handle to a scheduled event; allows O(1) cancellation.

    Cancelled events stay in the queue but are skipped when popped. The
    handle keeps a back-reference to its engine while live so that
    cancellation can maintain the engine's pending-event counter; the
    reference is dropped once the event fires or is cancelled.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "_engine")

    def __init__(self, time: float, seq: int, fn: Callable[..., Any], args: tuple):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self._engine: "Engine | None" = None

    def cancel(self) -> None:
        """Prevent the event from firing (no-op if already fired)."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._engine is not None:
            self._engine._live -= 1
            self._engine = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<EventHandle t={self.time:.6f} {self.fn.__name__} ({state})>"


class Engine:
    """Discrete-event simulation clock and event queue.

    Parameters
    ----------
    queue:
        Event-queue instance to run on; None (the default) builds a
        fresh :class:`~repro.sim.eventq.CalendarEventQueue`. Any object
        with the same ``push`` / ``pop_due`` / ``pop_batch_due`` /
        ``requeue`` methods that yields events in ascending
        ``(time, seq)`` order gives identical behaviour; the tests use
        this to run the engine on a binary-heap oracle.
    """

    def __init__(self, queue=None) -> None:
        self._queue = CalendarEventQueue() if queue is None else queue
        self._now = 0.0
        self._seq = 0
        self._fired = 0
        self._live = 0

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_fired(self) -> int:
        """Number of events processed so far (instrumentation)."""
        return self._fired

    @property
    def pending(self) -> int:
        """Number of not-yet-fired, not-cancelled events — O(1)."""
        return self._live

    def schedule_at(
        self, when: float, fn: Callable[..., Any], *args: Any
    ) -> EventHandle:
        """Schedule ``fn(*args)`` to fire at absolute time ``when``.

        Raises ``ValueError`` if ``when`` is in the past (or NaN);
        simultaneous events fire in scheduling order.
        """
        if not when >= self._now:  # rejects the past and NaN in one test
            raise ValueError(
                f"cannot schedule event in the past: {when} < now {self._now}"
            )
        handle = EventHandle(when, self._seq, fn, args)
        handle._engine = self
        self._seq += 1
        self._live += 1
        self._queue.push(handle)
        return handle

    def schedule_after(
        self, delay: float, fn: Callable[..., Any], *args: Any
    ) -> EventHandle:
        """Schedule ``fn(*args)`` to fire ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        return self.schedule_at(self._now + delay, fn, *args)

    def step(self) -> bool:
        """Fire the next pending event. Returns False if queue is empty."""
        handle = self._queue.pop_due(float("inf"))
        if handle is None:
            return False
        self._now = handle.time
        self._fired += 1
        self._live -= 1
        handle._engine = None  # a later cancel() must not re-decrement
        handle.fn(*handle.args)
        return True

    def _drain(self, t_end: float) -> None:
        """Fire every event with ``time <= t_end``, batch by batch.

        All events sharing a timestamp arrive as one batch from the
        queue and go through a single dispatch pass here — one queue
        operation, then a tight fire loop. Events a callback schedules
        *at the current time* land in a fresh bucket and fire in the
        next batch, which is exactly their ``(time, seq)`` slot since
        their seq is higher than everything already queued at that
        time.
        """
        queue = self._queue
        pop_batch_due = queue.pop_batch_due
        while True:
            batch = pop_batch_due(t_end)
            if batch is None:
                return
            self._now = batch[0].time
            i = 0
            try:
                for i, handle in enumerate(batch):
                    if handle.cancelled:
                        continue
                    # Counters move before the callback runs, exactly as
                    # in step(): a callback reading ``pending`` or
                    # ``events_fired`` must see the same values on either
                    # code path.
                    self._fired += 1
                    self._live -= 1
                    handle._engine = None
                    handle.fn(*handle.args)
            except BaseException:
                # Leave the queue as if the unfired tail had never been
                # popped, so a caller that catches the exception can
                # keep stepping the simulation.
                queue.requeue(batch[i + 1 :], self._now)
                raise

    def run_until(self, t_end: float) -> None:
        """Process all events with time <= ``t_end``; leave now == t_end.

        Events scheduled exactly at ``t_end`` do fire. Raises
        ``ValueError`` if ``t_end`` is in the past (or NaN).
        """
        if not t_end >= self._now:  # rejects the past and NaN in one test
            raise ValueError(f"t_end {t_end} is in the past (now={self._now})")
        self._drain(t_end)
        self._now = t_end

    def run(self, max_events: int | None = None) -> int:
        """Run until the event queue is empty.

        ``max_events`` bounds the number of events fired (a safety valve
        for workloads that regenerate events forever). Returns the number
        of events fired by this call.
        """
        if max_events is None:
            before = self._fired
            self._drain(float("inf"))
            return self._fired - before
        fired = 0
        while fired < max_events and self.step():
            fired += 1
        return fired


def build_info() -> dict:
    """Report which engine build is active (always the pure one).

    ``perfbench`` prints ``build_info()["engine"]`` on every output
    line, so the key stays although there is only one engine.
    """
    return {"engine": "pure"}
