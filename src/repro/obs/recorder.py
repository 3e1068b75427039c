"""Span recording over one machine: tasks, GC phases, recoveries, edges.

The per-op :class:`~repro.sim.trace.Tracer` answers "what did core 3 do
at cycle 12 000?"; a :class:`SpanRecorder` answers the *interval*
questions a timeline viewer needs — when did task 17 run and on which
core, how long was the GC phase that overlapped it, which waiter did the
watchdog abort.  It is an ordinary subscriber of the machine's event
bus (:mod:`repro.sim.events`), so it coexists with a user Tracer, the
sanitizer, other recorders and fault injection:

- its own :class:`Tracer` buffers retired ops for the Perfetto export;
- ``task`` delivers TASK-BEGIN / TASK-END / abort events, which become
  :class:`TaskSpan` intervals per core;
- ``gc_phase`` brackets collection phases (emergency collections are
  instants);
- ``recovery`` captures watchdog trips, aborts, kicks and restores;
- ``retire`` and ``op`` record the version produce→consume relation
  that :mod:`repro.obs.critpath` turns into the critical path (``op``
  carries the version a LOAD-LATEST actually resolved to), and ``drop``
  forgets the produce edges of rolled-back stores.

``finish()`` closes any still-open spans (a deadlocked run leaves its
victims open — exactly what the timeline should show) and ``detach()``
unsubscribes everything.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from ..ostruct import isa
from ..sim.trace import Tracer

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.machine import Machine

_LATEST_OPS = frozenset({isa.LOAD_LATEST, isa.LOCK_LOAD_LATEST})


@dataclass(slots=True)
class TaskSpan:
    """One task execution interval on one core."""

    task: int
    core: int
    start: int
    end: int | None = None
    #: "finished", "aborted", or "open" (never closed — deadlock victim).
    outcome: str = "open"

    @property
    def duration(self) -> int:
        return 0 if self.end is None else self.end - self.start


@dataclass(slots=True)
class GcSpan:
    """One collection phase interval ("phase") or instant ("emergency")."""

    kind: str
    start: int
    end: int | None = None


@dataclass(slots=True)
class RecoveryEvent:
    """One watchdog observation (trip / abort / kick / gave_up)."""

    cycle: int
    event: str
    info: dict


class SpanRecorder:
    """Records spans and dependency edges from one machine's run."""

    def __init__(self, machine: "Machine", capacity: int = 1 << 18):
        self.machine = machine
        self.tracer = Tracer(machine, capacity=capacity)
        self.task_spans: list[TaskSpan] = []
        self.gc_spans: list[GcSpan] = []
        self.recovery_events: list[RecoveryEvent] = []
        #: (vaddr, version) -> (producer task id, cycle).
        self.produces: dict[tuple[int, int], tuple[int | None, int]] = {}
        #: (consumer task id, vaddr, version, cycle).
        self.consumes: list[tuple[int, int, int, int]] = []
        self._open_tasks: dict[int, TaskSpan] = {}  # core -> span
        self._open_gc: GcSpan | None = None
        self._subscriptions = (
            ("retire", self._on_retire),
            ("op", self._on_op),
            ("task", self._on_task),
            ("recovery", self._on_recovery),
            ("gc_phase", self._on_gc_phase),
            # An aborted task's uncommitted versions are rolled back;
            # their produce edges must be forgotten with them, or the
            # critical-path DP would run paths through stores that never
            # happened (the retry re-records the real edge).
            ("drop", self._on_drop),
        )
        for event, fn in self._subscriptions:
            machine.events.subscribe(event, fn)

    # -- subscribers ----------------------------------------------------------

    def _now(self) -> int:
        return self.machine.sim.now

    def _on_task(self, event: str, task_id: int, core_id: int) -> None:
        if event == "begin":
            stale = self._open_tasks.pop(core_id, None)
            if stale is not None:  # defensive: never lose a span
                stale.end = self._now()
            span = TaskSpan(task=task_id, core=core_id, start=self._now())
            self._open_tasks[core_id] = span
            self.task_spans.append(span)
            return
        span = self._open_tasks.pop(core_id, None)
        if span is None:
            return
        span.end = self._now()
        span.outcome = "finished" if event == "end" else "aborted"

    def _on_gc_phase(self, event: str) -> None:
        if event == "start":
            if self._open_gc is None:
                self._open_gc = GcSpan(kind="phase", start=self._now())
                self.gc_spans.append(self._open_gc)
        elif event == "end":
            if self._open_gc is not None:
                self._open_gc.end = self._now()
                self._open_gc = None
        elif event == "emergency":
            now = self._now()
            self.gc_spans.append(GcSpan(kind="emergency", start=now, end=now))

    def _on_recovery(self, event: str, info: dict) -> None:
        self.recovery_events.append(RecoveryEvent(self._now(), event, dict(info)))

    def _on_drop(self, vaddr: int, version: int) -> None:
        self.produces.pop((vaddr, version), None)

    def _on_retire(
        self,
        core: int,
        task: int | None,
        op_tuple: tuple,
        latency: int,
        stalled: bool,
    ) -> None:
        if stalled:
            return
        kind = op_tuple[0]
        if kind == isa.STORE_VERSION:
            self.produces[(op_tuple[1], op_tuple[2])] = (task, self._now())
        elif kind == isa.UNLOCK_VERSION:
            if op_tuple[3] is not None:  # renaming produces a new version
                self.produces[(op_tuple[1], op_tuple[3])] = (task, self._now())
        elif kind in (isa.LOAD_VERSION, isa.LOCK_LOAD_VERSION):
            if task is not None:
                self.consumes.append((task, op_tuple[1], op_tuple[2], self._now()))

    def _on_op(
        self, name: str, args: tuple, result: Any, exc: Exception | None
    ) -> None:
        # LOAD-LATEST ops name a cap, not a version: the consume edge
        # needs the version the lookup resolved to, from the result.
        if exc is not None or name not in _LATEST_OPS:
            return
        core = self.machine.cores[args[0]]
        if core.current is not None:
            self.consumes.append(
                (core.current.task_id, args[1], result[1][0], self._now())
            )

    # -- lifecycle ------------------------------------------------------------

    def finish(self) -> None:
        """Close still-open spans at the current cycle (run over or hung)."""
        now = self._now()
        for span in self._open_tasks.values():
            span.end = now
        self._open_tasks.clear()
        if self._open_gc is not None:
            self._open_gc.end = now
            self._open_gc = None

    def detach(self) -> None:
        """Unsubscribe everything (idempotent); call once the run is over."""
        self.finish()
        self.tracer.detach()
        for event, fn in self._subscriptions:
            self.machine.events.unsubscribe(event, fn)

    # -- summaries ------------------------------------------------------------

    def task_cycles(self) -> dict[int, int]:
        """Total recorded execution cycles per task id (spans summed)."""
        totals: dict[int, int] = {}
        for span in self.task_spans:
            totals[span.task] = totals.get(span.task, 0) + span.duration
        return totals

    def summary(self) -> dict[str, Any]:
        return {
            "task_spans": len(self.task_spans),
            "gc_spans": len(self.gc_spans),
            "recovery_events": len(self.recovery_events),
            "produce_edges": len(self.produces),
            "consume_edges": len(self.consumes),
            "trace": self.tracer.summary(),
        }
