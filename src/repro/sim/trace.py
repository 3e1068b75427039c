"""Execution tracing: per-op event capture for debugging and analysis.

A :class:`Tracer` attached to a machine records one event per retired
micro-op — cycle, core, task, opcode, operands, latency, result — into a
bounded ring buffer.  Filters keep the volume down (by opcode class, by
address range, by core).  This is the moral equivalent of gem5's
``--debug-flags`` tracing and exists for the same reason: when a
protocol deadlocks or produces the wrong answer, the interleaving *is*
the bug report.

Usage::

    machine = Machine(config)
    tracer = Tracer(machine, capacity=10_000, only_versioned=True)
    ...
    machine.run()
    for ev in tracer.events():
        print(ev)
    print(tracer.summary())
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterator

from ..ostruct import isa

if TYPE_CHECKING:  # pragma: no cover
    from .machine import Machine


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One retired micro-op."""

    cycle: int
    core: int
    task: int | None
    op: str
    addr: int | None
    detail: tuple
    latency: int
    stalled: bool

    def __str__(self) -> str:
        addr = f" @0x{self.addr:x}" if self.addr is not None else ""
        stall = " STALLED" if self.stalled else ""
        task = f" t{self.task}" if self.task is not None else ""
        return (
            f"[{self.cycle:>8}] c{self.core}{task} {self.op}{addr} "
            f"lat={self.latency}{stall}"
        )


#: Ops that carry an address as their second element.
_ADDRESSED = frozenset(
    {
        isa.LOAD,
        isa.STORE,
        isa.LOAD_VERSION,
        isa.LOAD_LATEST,
        isa.STORE_VERSION,
        isa.LOCK_LOAD_VERSION,
        isa.LOCK_LOAD_LATEST,
        isa.UNLOCK_VERSION,
    }
)


class Tracer:
    """Bounded ring-buffer trace of a machine's retired micro-ops.

    Accounting invariant: every event that passes the filters counts
    toward ``recorded``; once the ring is full each further event evicts
    the oldest one and counts toward ``dropped``.  Hence at all times::

        recorded == buffered + dropped

    where ``buffered`` (``len(tracer)``) is what ``events()`` can still
    replay.  ``dropped`` therefore counts *evicted-from-the-buffer*
    events, not filtered-out ones — filtered events appear in no counter.
    """

    __slots__ = (
        "machine",
        "_buf",
        "only_versioned",
        "cores",
        "addr_range",
        "dropped",
        "recorded",
        "_op_counts",
    )

    def __init__(
        self,
        machine: "Machine",
        capacity: int = 65536,
        *,
        only_versioned: bool = False,
        cores: set[int] | None = None,
        addr_range: tuple[int, int] | None = None,
    ):
        self.machine = machine
        self._buf: deque[TraceEvent] = deque(maxlen=capacity)
        self.only_versioned = only_versioned
        self.cores = cores
        self.addr_range = addr_range
        self.dropped = 0
        self.recorded = 0
        self._op_counts: Counter[str] = Counter()
        machine.events.subscribe("retire", self._record)

    # -- filtering ------------------------------------------------------------

    def _wants(self, core: int, op: str, addr: int | None) -> bool:
        if self.only_versioned and op not in isa.VERSIONED_OPS:
            return False
        if self.cores is not None and core not in self.cores:
            return False
        if self.addr_range is not None:
            if addr is None:
                return False
            lo, hi = self.addr_range
            if not lo <= addr < hi:
                return False
        return True

    # -- recording (the ``retire`` subscriber) -----------------------------------

    def _record(
        self,
        core: int,
        task: int | None,
        op_tuple: tuple,
        latency: int,
        stalled: bool,
    ) -> None:
        op = op_tuple[0]
        addr = op_tuple[1] if op in _ADDRESSED else None
        if not self._wants(core, op, addr):
            return
        if len(self._buf) == self._buf.maxlen:
            self.dropped += 1
        self.recorded += 1
        self._op_counts[op] += 1
        self._buf.append(
            TraceEvent(
                cycle=self.machine.sim.now,
                core=core,
                task=task,
                op=op,
                addr=addr,
                detail=tuple(op_tuple[1:]),
                latency=latency,
                stalled=stalled,
            )
        )

    # -- inspection -------------------------------------------------------------

    def events(self) -> Iterator[TraceEvent]:
        return iter(self._buf)

    def __len__(self) -> int:
        return len(self._buf)

    def last(self, n: int) -> list[TraceEvent]:
        """The most recent ``n`` events (deadlock post-mortems)."""
        buf = list(self._buf)
        return buf[-n:]

    def for_address(self, addr: int) -> list[TraceEvent]:
        """Every recorded event touching ``addr`` — one location's history."""
        return [e for e in self._buf if e.addr == addr]

    def for_task(self, task_id: int) -> list[TraceEvent]:
        return [e for e in self._buf if e.task == task_id]

    def summary(self) -> dict[str, Any]:
        """Aggregate counts and latency statistics of recorded events.

        The three counters satisfy ``recorded == buffered + dropped``
        (see the class docstring); latency/stall aggregates cover only
        the ``buffered`` events still in the ring.
        """
        lat_total = sum(e.latency for e in self._buf)
        stalls = sum(1 for e in self._buf if e.stalled)
        return {
            "recorded": self.recorded,
            "buffered": len(self._buf),
            "dropped": self.dropped,
            "op_counts": dict(self._op_counts),
            "buffered_latency_total": lat_total,
            "buffered_stalled_ops": stalls,
        }

    def detach(self) -> None:
        """Stop recording.  Idempotent; other subscribers keep running."""
        self.machine.events.unsubscribe("retire", self._record)
