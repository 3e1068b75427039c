"""Machine assembly: cores + memory system + O-structure subsystem.

:class:`Machine` wires every component of the simulated platform together
and is the main entry point of the library::

    from repro import Machine, MachineConfig

    machine = Machine(MachineConfig(num_cores=8))
    machine.submit(tasks)
    stats = machine.run()

A machine is single-use: build, submit, run, inspect stats.  ``run``
drains the event heap and then checks that every task finished — if cores
are still parked on version waiter queues or rwlock queues, the run
deadlocked and a :class:`~repro.errors.DeadlockError` describes exactly
who was waiting on what.

Tracers, span recorders, metrics, the sanitizer, fault injection and
checkpoints all attach through ``machine.events``, one
:class:`~repro.sim.events.EventBus` shared by every component.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Iterable, Sequence

from ..config import MachineConfig
from ..errors import DeadlockError, FreeListExhausted, SimulationError
from ..ostruct.free_list import FreeList
from ..ostruct.gc import GarbageCollector
from ..ostruct.manager import OStructureManager
from ..ostruct.page_table import PageTable
from ..runtime.allocator import VERSION_BLOCK_BASE, SimHeap
from ..runtime.rwlock import SimRWLock
from ..runtime.scheduler import StaticScheduler
from ..runtime.task import Task, TaskTracker
from .core import Core
from .engine import Simulator
from .events import EventBus
from .fuse import FuseStats
from .hierarchy import MemoryHierarchy
from .stats import SimStats

#: Observers called with every newly built machine (see
#: :func:`add_machine_observer`).  Workloads construct their machines
#: internally, so tooling that must attach observability to *someone
#: else's* machine — the ``repro trace`` CLI — registers here.
_machine_observers: list[Callable[["Machine"], None]] = []


def add_machine_observer(fn: Callable[["Machine"], None]) -> None:
    """Call ``fn(machine)`` at the end of every ``Machine.__init__``."""
    _machine_observers.append(fn)


def remove_machine_observer(fn: Callable[["Machine"], None]) -> None:
    _machine_observers.remove(fn)


class Machine:
    """The full simulated platform of Table II plus O-structure support."""

    __slots__ = (
        "config",
        "sim",
        "stats",
        "events",
        "hierarchy",
        "page_table",
        "heap",
        "mem",
        "tracker",
        "free_list",
        "gc",
        "manager",
        "fuse_stats",
        "cores",
        "retired_ops",
        "metrics",
        "checkpointer",
        "rwlocks",
        "_ran",
        "_submitted",
        "watchdog",
        "injector",
        "sanitizer",
    )

    def __init__(
        self,
        config: MachineConfig | None = None,
        *,
        checked: bool | None = None,
        check_interval: int = 256,
    ):
        """``checked`` enables the :mod:`repro.check` sanitizer (defaults
        to ``config.checked``); ``check_interval`` is the number of
        versioned ops between structural-invariant checkpoints."""
        self.config = config or MachineConfig()
        self.sim = Simulator()
        self.stats = SimStats()
        #: The event bus every observer and interposer subscribes to.
        self.events = EventBus()
        self.hierarchy = MemoryHierarchy(self.config, self.stats)
        self.page_table = PageTable()
        self.heap = SimHeap(self.page_table)
        self.mem: dict[int, Any] = {}
        self.tracker = TaskTracker()
        self.free_list = FreeList(
            base_paddr=VERSION_BLOCK_BASE,
            initial_blocks=self.config.free_list_blocks,
            refill_blocks=self.config.refill_blocks,
            max_refills=self.config.free_list_refills,
            stats=self.stats,
            on_refill_page=self.page_table.mark_versioned,
        )
        self.gc = GarbageCollector(
            free_list=self.free_list,
            tracker=self.tracker,
            hierarchy=self.hierarchy,
            stats=self.stats,
            events=self.events,
            watermark=self.config.gc_watermark,
        )
        self.manager = OStructureManager(
            config=self.config,
            sim=self.sim,
            hierarchy=self.hierarchy,
            page_table=self.page_table,
            free_list=self.free_list,
            gc=self.gc,
            stats=self.stats,
            events=self.events,
        )
        #: Fusion telemetry (repro.sim.fuse) — host-side only, kept off
        #: ``SimStats`` so fused and unfused runs stay byte-identical.
        self.fuse_stats = FuseStats()
        self.cores = [Core(i, self) for i in range(self.config.num_cores)]
        #: Micro-ops retired across all cores; the watchdog's progress
        #: signal (a plain int, bumped on the core retire path).
        self.retired_ops = 0
        #: Metrics registry (repro.obs), attached when ``config.metrics``
        #: is set or via ``repro.obs.attach_metrics``.  ``None`` keeps
        #: every instrumented path to a single attribute check.
        self.metrics = None
        #: Epoch checkpointer (repro.recovery), attached externally the
        #: same way metrics are; ``None`` keeps checkpointing at zero
        #: hot-path cost (it only subscribes to the ``tick`` event).
        self.checkpointer = None
        #: Every rwlock built through :meth:`new_rwlock`, so state
        #: capture (repro.recovery) can walk them.
        self.rwlocks: list[SimRWLock] = []
        self._ran = False
        self._submitted = False
        #: Live deadlock watchdog, armed when ``watchdog_cycles > 0``.
        self.watchdog = None
        if self.config.watchdog_cycles > 0:
            from .watchdog import Watchdog

            self.watchdog = Watchdog(
                self,
                cycle_budget=self.config.watchdog_cycles,
                retry_limit=self.config.watchdog_retries,
                backoff_cycles=self.config.watchdog_backoff_cycles,
                kick_limit=self.config.watchdog_kick_limit,
            )
        #: Deterministic fault injector, armed when ``config.faults`` is
        #: non-empty (after the machine observers; see below).
        self.injector = None
        #: The repro.check sanitizer, when checked mode is on.
        self.sanitizer = None
        if self.config.checked if checked is None else checked:
            # Imported here: repro.check subscribes to the bus built
            # above, and importing it at module scope would be circular.
            from ..check.sanitizer import Sanitizer

            self.sanitizer = Sanitizer(self, interval=check_interval)
        if self.config.metrics:
            # Imported here: repro.obs instruments the subsystems built
            # above, and the sim layer must not depend on it statically.
            from ..obs.attach import attach_metrics

            attach_metrics(self)
        for observe in _machine_observers:
            observe(self)
        if self.config.faults:
            # Armed last, so a checkpointer attached by an observer
            # subscribes to ``tick`` first: a marker and a deferred fault
            # due on the same op schedule the marker first, and a crash
            # there still leaves that marker's image behind.  Imported
            # lazily — repro.faults reaches back into the sim layer.
            from ..faults.injector import FaultInjector

            self.injector = FaultInjector(self, self.config.faults)

    # -- convenience constructors ------------------------------------------------

    def new_rwlock(self, name: str = "rwlock") -> SimRWLock:
        lock = SimRWLock(self, name)
        self.rwlocks.append(lock)
        return lock

    # -- task submission -----------------------------------------------------------

    def submit(
        self,
        tasks: Sequence[Task],
        scheduler: StaticScheduler | None = None,
    ) -> None:
        """Statically assign ``tasks`` to cores (round-robin by default).

        Registers every task with the tracker in id order — the paper's
        runtime creates tasks in program order, which is what satisfies
        GC rule 3 (no creation below the lowest live id).
        """
        for task in sorted(tasks, key=lambda t: t.task_id):
            self.tracker.register(task.task_id)
        (scheduler or StaticScheduler()).assign(tasks, self.cores)
        self._submitted = True

    def submit_main(
        self, program: Callable[[int], Generator[tuple, Any, Any]], task_id: int = 0
    ) -> Task:
        """Submit a single main-program generator on core 0.

        Used for sequential (unversioned or versioned) reference runs.
        """
        task = Task(task_id, program)
        self.tracker.register(task.task_id)
        self.cores[0].enqueue(task)
        self._submitted = True
        return task

    # -- running ----------------------------------------------------------------------

    def run(self, max_cycles: int | None = None) -> SimStats:
        """Execute to completion; returns the stats object."""
        if self._ran:
            raise SimulationError("Machine.run() may only be called once")
        if not self._submitted:
            raise SimulationError("no tasks submitted")
        self._ran = True
        for core in self.cores:
            core.start()
        if self.watchdog is not None:
            self.watchdog.start()
        try:
            self.sim.run(until=max_cycles)
        except FreeListExhausted as exc:
            # Terminal allocation failure: attach the wait graph so the
            # report shows who was parked when the last block vanished.
            try:
                from . import waitgraph

                exc.attach_post_mortem(waitgraph.post_mortem(self))
            except Exception:  # pragma: no cover - diagnosis must not mask
                pass
            raise
        self._check_completion(max_cycles)
        self.stats.cycles = self.sim.now
        for core in self.cores:
            self.stats.per_core_cycles[core.core_id] = core.busy_cycles
        if self.sanitizer is not None:
            self.sanitizer.finish()
        return self.stats

    def _check_completion(self, max_cycles: int | None) -> None:
        unfinished = [c for c in self.cores if not c.idle]
        if not unfinished:
            return
        if max_cycles is not None and self.sim.pending_events:
            return  # stopped by the cycle limit, not a deadlock
        if any(
            core._blocked_backpressure for core in unfinished if core.blocked
        ):
            # A core parked on allocation never resumed: the free list
            # stayed exhausted and emergency reclamation never produced a
            # block.  Report it as resource exhaustion, not a lock cycle.
            from . import waitgraph

            raise FreeListExhausted(
                "free-list backpressure never resolved: cores stalled on "
                "version-block allocation and reclamation freed nothing",
                post_mortem=waitgraph.post_mortem(self),
            )
        blocked = []
        for core in unfinished:
            if core.blocked:
                blocked.append(core.describe_block())
            elif core.current is not None:
                blocked.append(
                    f"core {core.core_id} task {core.current.task_id} parked "
                    f"(rwlock queue or un-woken waiter)"
                )
            else:
                blocked.append(f"core {core.core_id} has queued tasks but never ran")
        blocked.extend(self.manager.blocked_waiter_report())
        if self.watchdog is not None and self.watchdog.gave_up:
            blocked.append(
                f"watchdog recovery exhausted: "
                f"{self.config.watchdog_retries} abort-and-retry attempt(s) "
                f"per victim did not break the cycle"
            )
        raise DeadlockError(blocked)

    # -- derived results ------------------------------------------------------------------

    @property
    def cycles(self) -> int:
        return self.sim.now

    def seconds(self) -> float:
        """Simulated wall-clock time at the configured frequency."""
        return self.sim.now / (self.config.clock_ghz * 1e9)


def run_tasks(
    config: MachineConfig,
    task_factory: Callable[["Machine"], Iterable[Task]],
    scheduler: StaticScheduler | None = None,
    max_cycles: int | None = None,
) -> tuple[SimStats, list[Task]]:
    """Build a machine, materialise tasks, run, return (stats, tasks).

    ``task_factory`` receives the machine (so workloads can allocate heap
    memory and register roots) and returns the task list.
    """
    machine = Machine(config)
    tasks = list(task_factory(machine))
    machine.submit(tasks, scheduler)
    stats = machine.run(max_cycles)
    return stats, tasks
