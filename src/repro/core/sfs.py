"""Surplus Fair Scheduling (§2.3, §3.1-3.2 of the paper).

SFS approximates generalized multiprocessor sharing (GMS) with finite
quanta: at each scheduling instance it computes, for every runnable
thread, the *surplus*

.. math:: \\alpha_i = \\phi_i (S_i - v)                  \\qquad (Eq. 4)

— the service thread ``i`` has received beyond what the thread with the
least service has — and runs the thread with the smallest surplus.
Because the surplus depends only on the *start* tag, SFS does not need
to know the quantum length when it schedules, so quanta may end early
when threads block (a property the paper calls out explicitly).

The implementation keeps §3.1's three queues over the runnable
threads —

1. descending user weight (drives the §2.1 weight readjustment scan),
2. ascending start tag (its head *is* the virtual time),
3. the surplus order, from which the decision is read —

but holds queue 3 as **per-phi start-ordered lists** instead of one
list sorted by surplus. The paper re-sorts its surplus queue whenever
``v`` moves, because every surplus depends on ``v``. Among threads that
share one ``phi``, though, the surplus order is the start-tag order for
*every* ``v``: for fixed ``phi > 0`` the IEEE expression
``phi * (S - v)`` never decreases as ``S`` grows (subtraction and
multiplication by a positive constant are both monotone under
round-to-nearest), and neither does the kernel's integer
``phi_scaled * (S - v)``. So each list — keyed by ``(S, tid)``, with
``S`` changing only at a quantum end — holds its threads in surplus
order without ever being re-sorted, and its first schedulable entry has
the list's minimum surplus. Distinct start tags may still round to one
surplus, so the decision walks each list's run of equal surpluses for
the smallest tid, then takes the ``(alpha, tid)`` minimum over the
lists: exactly the thread the full recompute-and-sort would pick, in
O(g (p + ties)) surplus evaluations for ``g`` distinct phis — shares
are usually set per user or class, so ``g`` stays small while the run
queue holds thousands. The lists follow every phi change: the
readjustment frontier reports which threads it re-weighted, and the
``readjust=False`` ablation re-files on the weight change itself.

Invariants maintained (checked by the test suite):

- ``alpha_i >= 0`` for every runnable thread;
- at least one runnable thread has ``alpha_i == 0`` (the one at ``v``);
- on one processor SFS degenerates to SFQ (min surplus == min start tag).
"""

from __future__ import annotations

from repro.core.fixed_point import TagArithmetic
from repro.core.tags import TaggedScheduler
from repro.sim.costs import DecisionCostParams
from repro.sim.runqueue import SortedTaskList
from repro.sim.task import Task, TaskState

__all__ = ["SurplusFairScheduler"]


def _start_tag(task: Task):
    return task.sched["S"]


class SurplusFairScheduler(TaggedScheduler):
    """The exact SFS algorithm (no decision heuristic).

    Parameters
    ----------
    tag_math:
        Float (default) or kernel fixed-point tag arithmetic.
    wake_preempt:
        Allow woken threads to preempt the running thread with the most
        current surplus (see ``TaggedScheduler.choose_victim``).
    readjust:
        Run weight readjustment at every runnable-set change. On by
        default — SFS is defined over feasible instantaneous weights;
        the off switch exists only for ablation experiments.
    affinity_bonus:
        §5 extension ("SFS currently ignores processor affinities"):
        when > 0, a CPU re-runs its previous thread if that thread's
        surplus is within ``affinity_bonus`` seconds of the minimum —
        trading a bounded fairness slack for cache locality (fewer
        migrations). 0 (default) is the paper's exact policy.
    """

    name = "SFS"

    # Calibrated to Table 1 (≈4 us at a 2-entry run queue) and Fig. 7's
    # growth to ≈8 us at 50 processes. The linear term reflects the
    # amortized surplus-update/re-sort cost of §3.2.
    decision_cost_params = DecisionCostParams(base=3.3e-6, per_thread=0.09e-6)

    def __init__(
        self,
        tag_math: TagArithmetic | None = None,
        wake_preempt: bool = True,
        readjust: bool = True,
        affinity_bonus: float = 0.0,
    ) -> None:
        if affinity_bonus < 0:
            raise ValueError(f"affinity_bonus must be >= 0, got {affinity_bonus}")
        super().__init__(
            readjust=readjust, tag_math=tag_math, wake_preempt=wake_preempt
        )
        self.affinity_bonus = affinity_bonus
        #: dispatches that kept the CPU's previous thread thanks to the
        #: affinity bonus (instrumentation for the ablation bench)
        self.affinity_hits = 0
        #: §3.1 queue 1 when readjustment is off; with readjustment on,
        #: the ReadjustmentFrontier owns the descending-weight queue and
        #: :attr:`weight_queue` aliases it (one structure, not two).
        self._own_weight_queue = SortedTaskList(key=lambda t: -t.weight)
        #: §3.1 queue 3: phi -> runnable threads of that phi by (S, tid)
        self._buckets: dict[float, SortedTaskList] = {}
        #: tid -> the phi whose bucket holds the (runnable) task
        self._filed: dict[int, float] = {}
        #: instrumentation: pick_next invocations
        self.decision_count = 0
        #: instrumentation: Eq. 4 surpluses computed by the decisions
        self.surplus_evaluations = 0

    # ------------------------------------------------------------------
    # queue maintenance via TaggedScheduler extension points
    # ------------------------------------------------------------------

    @property
    def weight_queue(self) -> SortedTaskList:
        """§3.1 queue 1: runnable threads by descending user weight.

        Aliases the readjustment frontier's queue when readjustment is
        on (the frontier keeps it sorted through weight changes); SFS
        maintains its own copy only in the ``readjust=False`` ablation.
        """
        if self.frontier is not None:
            return self.frontier.queue
        return self._own_weight_queue

    def _runnable_set_changed(self, task: Task, now: float) -> None:
        tid = task.tid
        if tid in self._runnable:
            if tid not in self._filed and self.frontier is None:
                self._own_weight_queue.add(task)
            self._file(task)
        elif tid in self._filed:
            if self.frontier is None:
                self._own_weight_queue.discard(task)
            self._unfile(task)
        if self.frontier is not None:
            # Readjustment re-weighted other members too (at most O(p)).
            for changed in self.frontier.drain_phi_changes():
                self._file(changed)

    def on_weight_change(self, task: Task, old_weight: float, now: float) -> None:
        # The frontier repositions its queue itself; the ablation copy
        # must be repositioned here or its cached sort order goes stale.
        if self.frontier is None and task.tid in self._filed:
            self._own_weight_queue.reposition(task)
        # Without a frontier, phi = weight moves here and the
        # runnable-set hook re-files the task under its new phi.
        super().on_weight_change(task, old_weight, now)

    def _file(self, task: Task) -> None:
        """File a runnable task under its phi (re-file if phi moved)."""
        phi = task.phi
        filed = self._filed.get(task.tid)
        if filed is not None:
            # sfs-lint: disable=SFS005 (bit-identity: is it under this exact phi?)
            if filed == phi:
                return
            self._leave_bucket(task, filed)
        bucket = self._buckets.get(phi)
        if bucket is None:
            bucket = self._buckets[phi] = SortedTaskList(key=_start_tag)
        bucket.add(task)
        self._filed[task.tid] = phi

    def _unfile(self, task: Task) -> None:
        self._leave_bucket(task, self._filed.pop(task.tid))

    def _leave_bucket(self, task: Task, phi: float) -> None:
        bucket = self._buckets[phi]
        bucket.remove(task)
        if not len(bucket):
            del self._buckets[phi]

    def _tags_updated(self, task: Task, now: float) -> None:
        # A preemption advanced this task's start tag: move it back
        # within its own bucket (its phi did not change).
        phi = self._filed.get(task.tid)
        if phi is not None:
            self._buckets[phi].reposition(task)

    def _after_rebase(self, offset) -> None:
        # A common shift keeps every bucket's order, but the keys each
        # bucket cached at insertion are stale: refresh them in place.
        for bucket in self._buckets.values():
            bucket.resort_insertion()

    # ------------------------------------------------------------------
    # the scheduling decision
    # ------------------------------------------------------------------

    def pick_next(self, cpu: int, now: float) -> Task | None:
        self.decision_count += 1
        self._refresh_vtime()
        best = self._minimum_surplus()
        if best is None or self.affinity_bonus <= 0:
            return best
        return self._apply_affinity(cpu, best)

    def _minimum_surplus(self) -> Task | None:
        """The schedulable thread with the least ``(alpha, tid)``.

        Walks each phi bucket from its head: running threads are
        skipped (at most ``p`` of them), the first schedulable one has
        the bucket's minimum surplus, and the walk continues only along
        the run of equal surpluses, one thread per distinct start tag,
        for the smallest tid. A bucket whose head surplus already
        exceeds the best so far is abandoned after one evaluation.
        """
        surplus = self.tags.surplus
        v = self._vtime
        runnable = TaskState.RUNNABLE
        best: Task | None = None
        best_alpha = None
        best_tid = 0
        evaluations = 0
        for phi, bucket in self._buckets.items():
            tasks = bucket._tasks  # read in place: this loop runs per decision
            n = len(tasks)
            run_alpha = None
            i = 0
            while i < n:
                task = tasks[i]
                i += 1
                if task.state is not runnable:
                    continue
                start = task.sched["S"]
                alpha = surplus(phi, start, v)
                evaluations += 1
                if best is not None and alpha > best_alpha:
                    break  # alpha never decreases along the bucket
                if run_alpha is None:
                    run_alpha = alpha
                # sfs-lint: disable=SFS005 (bit-identity: end of the equal-alpha run)
                elif alpha != run_alpha:
                    break
                if best is None or alpha < best_alpha or task.tid < best_tid:
                    best = task
                    best_alpha = alpha
                    best_tid = task.tid
                # The rest of this start tag's block has the same
                # surplus and larger tids: only a later tag can tie.
                # sfs-lint: disable=SFS005 (bit-identity: same tag, same surplus)
                if i < n and tasks[i].sched["S"] == start:
                    i = bucket.skip_key(i)
        self.surplus_evaluations += evaluations
        return best

    def _apply_affinity(self, cpu: int, best: Task) -> Task:
        """§5 extension: keep the CPU's previous thread when near-tied.

        Both sides of the bonus comparison are *fresh* Eq. 4 surpluses
        computed against one virtual-time snapshot, and ``best`` is the
        fresh minimum the bucket walk just found, so the bonus never
        admits a thread more than ``affinity_bonus`` past it.
        """
        assert self.machine is not None
        prev = self.machine.previous_task(cpu)
        if (
            prev is None
            or prev is best
            or prev.state is not TaskState.RUNNABLE
            or prev.tid not in self._filed
        ):
            return best
        # Express the bonus in surplus units (works for float and
        # fixed-point tag arithmetic alike: surplus of a phi=1 thread
        # one bonus-length past the virtual time).
        bonus = self.tags.surplus(
            1.0,
            self.tags.finish_tag(self.tags.zero, self.affinity_bonus, 1.0),
            self.tags.zero,
        )
        v = self._vtime
        if self.surplus_of(prev, v) <= self.surplus_of(best, v) + bonus:
            self.affinity_hits += 1
            return prev
        return best

    # ------------------------------------------------------------------
    # introspection helpers (used by tests and experiments)
    # ------------------------------------------------------------------

    def surpluses(self) -> dict[int, float]:
        """Fresh Eq. 4 surpluses of all runnable threads, keyed by tid."""
        self._refresh_vtime()
        return {t.tid: self.surplus_of(t) for t in self._runnable.values()}

    def exact_minimum_surplus_task(self) -> Task | None:
        """The schedulable thread with the smallest fresh surplus.

        A brute-force scan of the runnable set that never reads the phi
        buckets, so it stays an independent oracle: the ground truth
        for heuristic accuracy (Fig. 3) and for the ``surplus_order``
        audit. Ties broken by tid like the real decision path.
        """
        self._refresh_vtime()
        best: Task | None = None
        best_key = None
        for task in self._runnable.values():
            if task.state is not TaskState.RUNNABLE:
                continue
            key = (self.surplus_of(task), task.tid)
            if best_key is None or key < best_key:
                best_key = key
                best = task
        return best
