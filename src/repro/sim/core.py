"""In-order core model executing generator-based task programs.

The paper's platform is a 2-way in-order ARM core (Table II).  The model:

- ``compute n`` retires ``n`` ALU instructions at ``issue_width`` per
  cycle;
- conventional loads/stores are blocking and charge the hierarchy latency;
- versioned operations go through the O-structure manager; a
  :class:`~repro.ostruct.manager.StallSignal` parks the whole core (it is
  in-order) on the address's waiter queue, and the operation retries when
  the address is notified;
- the core issues TASK-BEGIN / TASK-END around each task automatically
  (programs may also issue them explicitly for nested structuring).

Each core owns a FIFO of statically assigned tasks and runs them to
completion in order.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Generator

from ..errors import SimulationError
from ..ostruct import isa
from ..ostruct.manager import StallSignal
from ..runtime.task import TASK_BEGIN_CYCLES, TASK_END_CYCLES, Task
from .fuse import FUSIBLE, make_interpreter

if TYPE_CHECKING:  # pragma: no cover
    from .machine import Machine


class Core:
    """One in-order core; drives task generators through the machine."""

    __slots__ = (
        "core_id",
        "machine",
        "sim",
        "events",
        "queue",
        "current",
        "_gen",
        "_started",
        "_blocked_op",
        "_block_start",
        "_blocked_addr",
        "_blocked_backpressure",
        "_pending_resume",
        "_abort_pending",
        "_restart_delay",
        "_run_block",
        "_fuse_cooldown",
        "busy_cycles",
        "_resume_value",
        "_resume_cb",
        "_retry_cb",
        "_begin_next_cb",
    )

    def __init__(self, core_id: int, machine: "Machine"):
        self.core_id = core_id
        self.machine = machine
        self.sim = machine.sim
        self.events = machine.events
        self.queue: deque[Task] = deque()
        self.current: Task | None = None
        self._gen: Generator[tuple, Any, Any] | None = None
        self._started = False
        # Stall bookkeeping for the op currently blocking this core.
        self._blocked_op: tuple | None = None
        self._block_start: int = 0
        self._blocked_addr: int = 0  # waiter-queue key while parked
        self._blocked_backpressure = False
        # Abort-and-retry state: _pending_resume marks a scheduled
        # _resume event (the core's single outstanding continuation);
        # _abort_pending defers a restart to that stale event so it is
        # consumed instead of racing the fresh generator.
        self._pending_resume = False
        self._abort_pending = False
        self._restart_delay = 0
        # Fused-block interpreter (repro.sim.fuse), built once with all
        # machine-stable state in closure cells; None when
        # ``config.fused`` is off.
        self._run_block = make_interpreter(self) if machine.config.fused else None
        # Congestion backoff: when a block fuses nothing (the very first
        # advance is refused because neighbouring cores keep the event
        # queue hot), skip the next COOLDOWN fusible entries and take the
        # per-op path directly.  Timing-invariant — fusing or not fusing
        # never changes simulated behaviour, only host time.
        self._fuse_cooldown = 0
        self.busy_cycles = 0
        # Pre-bound continuations: the retire path schedules one event per
        # retired op, and allocating a fresh closure (or bound method) for
        # each is pure churn — the core is in-order, so at most one resume
        # and one retry are ever outstanding.
        self._resume_value: Any = None
        self._resume_cb = self._resume
        self._retry_cb = self._retry
        self._begin_next_cb = self._begin_next

    # -- task intake ----------------------------------------------------------

    def enqueue(self, task: Task) -> None:
        self.queue.append(task)

    def start(self) -> None:
        """Kick the core; called once by the machine at run start."""
        if self._started:
            raise SimulationError(f"core {self.core_id} already started")
        self._started = True
        if self.queue:
            self.sim.schedule(0, self._begin_next_cb)

    @property
    def idle(self) -> bool:
        return self.current is None and not self.queue

    @property
    def blocked(self) -> bool:
        return self._blocked_op is not None

    @property
    def can_abort(self) -> bool:
        """A task is in flight and its continuation is ours to cancel.

        True while the core is parked on a waiter queue or awaiting its
        scheduled resume.  Cores parked in a rwlock queue are *not*
        abortable — the lock's grant callback cannot be withdrawn.
        """
        return self.current is not None and (
            self._blocked_op is not None or self._pending_resume
        )

    def describe_block(self) -> str:
        op = self._blocked_op
        task = self.current
        suffix = " (free-list backpressure)" if self._blocked_backpressure else ""
        return (
            f"core {self.core_id} task {task.task_id if task else '?'} "
            f"blocked on {op[0]} @0x{op[1]:x} since cycle {self._block_start}"
            f"{suffix}"
            if op
            else f"core {self.core_id} not blocked"
        )

    # -- task lifecycle ---------------------------------------------------------

    def _schedule_resume(self, delay: int) -> None:
        self._pending_resume = True
        self.sim.schedule(delay, self._resume_cb)

    def _begin_next(self) -> None:
        task = self.queue.popleft()
        self.current = task
        self._gen = task.make_generator()
        self.machine.tracker.begin(task.task_id)
        self.machine.stats.tasks_started += 1
        for fn in self.events.task:
            fn("begin", task.task_id, self.core_id)
        self._resume_value = None
        self._schedule_resume(TASK_BEGIN_CYCLES)

    def _finish_task(self, result: Any) -> None:
        task = self.current
        assert task is not None
        task.result = result
        task.finished = True
        self.machine.tracker.end(task.task_id)
        self.machine.stats.tasks_finished += 1
        for fn in self.events.task:
            fn("end", task.task_id, self.core_id)
        self.current = None
        self._gen = None
        if self.queue:
            self.sim.schedule(TASK_END_CYCLES, self._begin_next_cb)

    # -- execution --------------------------------------------------------------

    def _resume(self) -> None:
        self._pending_resume = False
        if self._abort_pending:
            self._restart()
            return
        value = self._resume_value
        self._resume_value = None
        self._advance(value)

    def _retry(self) -> None:
        if self._abort_pending:
            self._restart()
            return
        op = self._blocked_op
        if op is None:
            # Stale wake-up: the blocked op was aborted away, or a
            # watchdog kick raced a real notification.
            return
        self._execute(op, retry=True)

    def _advance(self, send_value: Any) -> None:
        gen = self._gen
        assert gen is not None
        try:
            op = gen.send(send_value)
        except StopIteration as stop:
            self._finish_task(stop.value)
            return
        run_block = self._run_block
        if run_block is not None:
            if op[0] in FUSIBLE:
                enter = not self._fuse_cooldown
                if not enter:
                    self._fuse_cooldown -= 1
            else:
                # A versioned op enters only when the kernel is idle (the
                # 1-core steady state): on a busy machine the first
                # advance would be refused and the entry wasted.
                sim = self.sim
                enter = (
                    op[0] in isa.VERSIONED_OPS
                    and sim._inline
                    and not (sim._count or sim._over or sim._solo_fn is not None)
                )
            if enter:
                # Fused fast path: drain the run of non-stalling ops
                # starting at ``op`` in this one engine event
                # (repro.sim.fuse).  A lock or task op comes back
                # undispatched and takes the ordinary path below.
                op = run_block(gen, op)
                if op is None:
                    return
        self._execute(op, retry=False)

    def _execute(self, op: tuple, retry: bool) -> None:
        kind = op[0]
        if not retry and kind in isa.VERSIONED_OPS:
            self.machine.stats.versioned_ops += 1
        try:
            latency, result = self._dispatch(op)
        except StallSignal as sig:
            retire = self.events.retire
            if retire:
                for fn in retire:
                    fn(self.core_id, self._current_tid(), op, 0, True)
            self._park(op, sig, retry)
            return
        retire = self.events.retire
        if retire:
            for fn in retire:
                fn(self.core_id, self._current_tid(), op, latency, False)
        if result is _RW_PARKED:
            # Queued on a rwlock; the grant callback resumes the core.
            return
        if self._blocked_op is not None:
            # A previously stalled op finally succeeded.
            stall = self.sim.now - self._block_start
            self.machine.stats.versioned_stall_cycles += stall
            metrics = self.machine.metrics
            if metrics is not None:
                metrics.lock_wait.observe(stall)
            if self._blocked_backpressure:
                self.machine.stats.backpressure_stall_cycles += stall
                self._blocked_backpressure = False
            self._blocked_op = None
        self.machine.retired_ops += 1
        self.busy_cycles += latency
        self._resume_value = result
        self._schedule_resume(latency)

    def _park(self, op: tuple, sig: StallSignal, retry: bool) -> None:
        if self._blocked_op is None:
            # First stall of this op instance.
            self.machine.stats.versioned_stalls += 1
            if sig.vaddr in self.machine.manager.roots:
                self.machine.stats.root_load_stalls += 1
            self._block_start = self.sim.now
        self._blocked_op = op
        self._blocked_addr = sig.wait_addr
        self._blocked_backpressure = sig.backpressure
        self.machine.manager.add_waiter(sig.wait_addr, self._retry_cb)

    # -- abort-and-retry (watchdog / fault-injection recovery) -----------------

    def abort_and_retry(self, delay: int = 0) -> None:
        """Abort the in-flight task and restart it from scratch.

        Rolls the task's memory effects back through the manager
        (releasing its locks, dropping its uncommitted versions), closes
        the generator, and re-runs it after ``delay`` cycles.  An
        in-order core has at most one continuation outstanding; if one
        is already in flight — a scheduled resume, or a wake-up batch
        holding our retry callback — the restart is deferred to that
        event so it is consumed instead of racing the fresh generator.
        """
        task = self.current
        if task is None or not self.can_abort:
            raise SimulationError(
                f"core {self.core_id} has no abortable task in flight"
            )
        m = self.machine
        deferred = self._pending_resume
        if self._blocked_op is not None:
            removed = m.manager.remove_waiter(self._blocked_addr, self._retry_cb)
            # Not registered => a wake-up already popped the callback
            # and will fire it shortly: defer the restart to it.
            deferred = not removed
            stall = self.sim.now - self._block_start
            m.stats.versioned_stall_cycles += stall
            if self._blocked_backpressure:
                m.stats.backpressure_stall_cycles += stall
            self._blocked_op = None
            self._blocked_backpressure = False
        if self._gen is not None:
            self._gen.close()
            self._gen = None
        m.manager.abort_task(self.core_id, task.task_id)
        m.stats.tasks_retried += 1
        for fn in self.events.task:
            fn("abort", task.task_id, self.core_id)
        self._restart_delay = delay
        self._resume_value = None
        if deferred:
            self._abort_pending = True
        else:
            self._restart()

    def _restart(self) -> None:
        """Re-arm the current task's generator after an abort."""
        self._abort_pending = False
        task = self.current
        assert task is not None
        self._gen = task.make_generator()
        for fn in self.events.task:
            fn("begin", task.task_id, self.core_id)
        self._resume_value = None
        self._schedule_resume(self._restart_delay)

    # -- op dispatch --------------------------------------------------------------

    def _dispatch(self, op: tuple) -> tuple[int, Any]:
        m = self.machine
        kind = op[0]
        cid = self.core_id
        if kind == isa.COMPUTE:
            n = op[1]
            m.stats.compute_ops += n
            return -(-n // m.config.issue_width), None  # ceil division
        if kind == isa.LOAD:
            addr = op[1]
            m.page_table.check_conventional(addr)
            m.stats.loads += 1
            return m.hierarchy.access(cid, addr), m.mem.get(addr, 0)
        if kind == isa.STORE:
            addr, value = op[1], op[2]
            m.page_table.check_conventional(addr)
            m.stats.stores += 1
            m.mem[addr] = value
            return m.hierarchy.access(cid, addr, write=True), None
        if kind == isa.LOAD_VERSION:
            return m.manager.load_version(cid, op[1], op[2])
        if kind == isa.LOAD_LATEST:
            return m.manager.load_latest(cid, op[1], op[2])
        if kind == isa.STORE_VERSION:
            tid = self.current.task_id if self.current else None
            return m.manager.store_version(cid, op[1], op[2], op[3], tid)
        if kind == isa.LOCK_LOAD_VERSION:
            return m.manager.lock_load_version(cid, op[1], op[2], self._task_id())
        if kind == isa.LOCK_LOAD_LATEST:
            return m.manager.lock_load_latest(cid, op[1], op[2], self._task_id())
        if kind == isa.UNLOCK_VERSION:
            return m.manager.unlock_version(cid, op[1], op[2], self._task_id(), op[3])
        if kind == isa.TASK_BEGIN:
            m.tracker.begin(op[1])
            return TASK_BEGIN_CYCLES, None
        if kind == isa.TASK_END:
            m.tracker.end(op[1])
            return TASK_END_CYCLES, None
        if kind == isa.RW_ACQUIRE:
            return self._rw_acquire(op[1], op[2])
        if kind == isa.RW_RELEASE:
            return op[1].release(cid, op[2]), None
        raise SimulationError(f"unknown micro-op {kind!r}")

    def _task_id(self) -> int:
        if self.current is None:
            raise SimulationError("locking op outside a task context")
        return self.current.task_id

    def _current_tid(self) -> int | None:
        return self.current.task_id if self.current is not None else None

    def _rw_grant(self, lat: int) -> None:
        """Grant continuation: resume the generator ``lat`` cycles out."""
        self._resume_value = None
        self.sim.schedule(lat, self._resume_cb)

    def _rw_acquire(self, lock, mode: str) -> tuple[int, Any]:
        granted = lock.try_acquire(self.core_id, mode, self._rw_grant)
        if granted is None:
            # Parked in the lock's queue; continuation fires on grant.
            # Raising StallSignal would double-register; instead return a
            # sentinel latency of 0 with a no-op continuation suppressed.
            return 0, _RW_PARKED
        return granted, None


#: Sentinel: the rwlock queued us; the grant callback resumes the core.
_RW_PARKED = object()
