"""Live deadlock watchdog with abort-and-retry recovery.

The post-mortem wait-graph analysis in :mod:`repro.sim.waitgraph` only
runs after the event heap drains — useless for a run that must *survive*
a deadlock.  The watchdog turns the same analysis into a recovery
mechanism: it ticks every ``cycle_budget`` cycles, and when no core has
retired an operation over a whole budget while at least one core sits
blocked, it

1. builds the wait graph and runs cycle detection live;
2. picks a victim — the youngest (highest-id) abortable task in the
   first cycle; aborting the youngest wastes the least completed work
   and, by rule 1, cannot invalidate values already read by others
   (versions below the victim's id are untouched by the rollback);
3. aborts and retries the victim via :meth:`Core.abort_and_retry`,
   backing off exponentially (``backoff_cycles * 2**(attempt-1)``) so
   repeated collisions between the same tasks are spread apart;
4. bounds recovery at ``retry_limit`` attempts per task, after which it
   stands down and lets the run fail with the usual drain-time
   :class:`~repro.errors.DeadlockError` (plus wait-graph report).

When the hang shows no lock cycle — e.g. an injected dropped wake-up —
the watchdog instead *kicks* every waiter queue (bounded by
``kick_limit`` per no-progress streak), which is exactly the lost-wakeup
repair a real runtime performs with a timed re-check.

The watchdog only reschedules its tick while the machine still has
pending events or it just acted, so an armed watchdog never keeps a
finished (or truly dead) simulation alive.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from . import waitgraph

if TYPE_CHECKING:  # pragma: no cover
    from .machine import Machine


class Watchdog:
    """Progress monitor over one machine; armed when ``watchdog_cycles > 0``."""

    __slots__ = (
        "machine",
        "cycle_budget",
        "retry_limit",
        "backoff_cycles",
        "kick_limit",
        "retries",
        "gave_up",
        "_last_retired",
        "_kicks",
        "_stopped",
        "_tick_cb",
    )

    def __init__(
        self,
        machine: "Machine",
        *,
        cycle_budget: int,
        retry_limit: int,
        backoff_cycles: int,
        kick_limit: int,
    ):
        self.machine = machine
        self.cycle_budget = cycle_budget
        self.retry_limit = retry_limit
        self.backoff_cycles = backoff_cycles
        self.kick_limit = kick_limit
        #: Abort attempts per task id (persists across trips: the retry
        #: bound is per task, not per trip).
        self.retries: dict[int, int] = {}
        #: True once recovery was attempted and exhausted; the run is
        #: left to fail with the drain-time deadlock report.
        self.gave_up = False
        self._last_retired = 0
        self._kicks = 0
        self._stopped = False
        self._tick_cb = self._tick

    def start(self) -> None:
        self._last_retired = self.machine.retired_ops
        self.machine.sim.schedule(self.cycle_budget, self._tick_cb)

    def _tick(self) -> None:
        if self._stopped:
            return
        m = self.machine
        if all(core.idle for core in m.cores):
            return  # run finished; let the heap drain
        if m.retired_ops != self._last_retired:
            # Progress: reset the lost-wakeup kick budget and re-arm.
            self._last_retired = m.retired_ops
            self._kicks = 0
            m.sim.schedule(self.cycle_budget, self._tick_cb)
            return
        blocked = [core for core in m.cores if core.blocked]
        if not blocked:
            # No retirement but nothing parked either — a long-latency
            # op (refill trap, big compute) or an injected GC pause is
            # in flight.  Not a hang; keep watching while events remain.
            if m.sim.pending_events:
                m.sim.schedule(self.cycle_budget, self._tick_cb)
            return
        m.stats.watchdog_trips += 1
        self._fire("trip", {"blocked_cores": [c.core_id for c in blocked]})
        acted = self._recover(blocked)
        if acted or m.sim.pending_events:
            m.sim.schedule(self.cycle_budget, self._tick_cb)
        else:
            self._stopped = True

    def _recover(self, blocked: list) -> bool:
        """Attempt one recovery action; returns whether anything was done."""
        m = self.machine
        cycles = waitgraph.find_cycles(m)
        if cycles:
            by_task = {
                core.current.task_id: core
                for core in m.cores
                if core.current is not None
            }
            for cycle in cycles:
                # Youngest first: cheapest rollback, values below its id
                # are untouched so no committed read is invalidated.
                for tid in sorted(cycle, reverse=True):
                    core = by_task.get(tid)
                    if core is None or not core.can_abort:
                        continue
                    if not m.manager.can_abort_task(tid):
                        continue
                    attempt = self.retries.get(tid, 0) + 1
                    if attempt > self.retry_limit:
                        self.gave_up = True
                        self._fire("gave_up", {"task": tid, "attempt": attempt})
                        return False
                    self.retries[tid] = attempt
                    delay = self.backoff_cycles * (1 << (attempt - 1))
                    core.abort_and_retry(delay)
                    self._fire(
                        "abort",
                        {
                            "task": tid,
                            "core": core.core_id,
                            "attempt": attempt,
                            "delay": delay,
                            "cycle_tasks": sorted(cycle),
                        },
                    )
                    return True
            # A cycle exists but no member is abortable (e.g. all parked
            # in rwlock queues): recovery cannot help.
            self.gave_up = True
            self._fire("gave_up", {"cycles": [sorted(c) for c in cycles]})
            return False
        # No lock cycle: the hang may be a lost wake-up (injected or
        # otherwise).  Re-notify every waiter queue, bounded so a truly
        # unresolvable wait (missing producer) cannot ping-pong forever.
        if self._kicks < self.kick_limit:
            kicked = m.manager.kick_waiters()
            if kicked:
                self._kicks += 1
                m.stats.watchdog_kicks += 1
                self._fire("kick", {"woken": kicked})
                return True
        return False

    def _fire(self, event: str, info: dict) -> None:
        for fn in self.machine.events.recovery:
            fn(event, info)
