"""Deterministic machine-tier fault injection.

The injector arms a :class:`~repro.faults.spec.FaultSpec` plan against a
live machine as an ordinary subscriber of two events on
``machine.events`` (see :mod:`repro.sim.events`):

- ``tick`` — emitted once per completed versioned operation with the
  manager's op ordinal (``manager.ticks``) — triggers the op-indexed
  faults (``starve-free-list``, ``pause-gc``, ``abort-task``, and the
  environment faults ``crash-machine`` / ``corrupt-block``, which kill
  the run or damage its newest checkpoint image; see repro.recovery);
- ``notify`` — emitted only when a store or unlock finds parked
  waiters — advances the *notify ordinal* used by the wake faults: the
  injector answers ``DROP_WAKE`` for ``drop-wake`` (the notification is
  swallowed) or a delay for ``delay-wake`` (delivery is postponed).
  Because notifications with no parked waiter are never emitted, a
  plan's window always lines up with wake-ups that would actually have
  delivered something.

Both ordinals advance deterministically with the simulation, so a given
``(workload, seed, plan)`` triple always injects the same faults at the
same points — a failed chaos run replays exactly.

Faults are injected *through public recovery surfaces* (the free list's
refill budget, the GC enable bit, the core's abort entry point), so what
is being tested is the machine's actual degradation behaviour, not
injector-private shortcuts.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..ostruct.manager import ALLOC_WAIT, DROP_WAKE
from .spec import FaultSpec, validate_plan

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.machine import Machine

#: Fault kinds triggered by the versioned-op ordinal.
_OP_KINDS = frozenset(
    {"starve-free-list", "pause-gc", "abort-task", "crash-machine", "corrupt-block"}
)
#: Fault kinds triggered by the waiter-notification ordinal.
_WAKE_KINDS = frozenset({"drop-wake", "delay-wake"})


class FaultInjector:
    """Arms a fault plan against one machine for one run."""

    def __init__(self, machine: "Machine", plan: tuple[FaultSpec, ...]):
        validate_plan(plan)
        self.machine = machine
        self.plan = tuple(plan)
        #: Faults actually applied, in firing order.
        self.fired: list[FaultSpec] = []
        #: Faults whose trigger matched but whose target was not
        #: applicable (e.g. an abort-task victim already finished).
        self.skipped: list[FaultSpec] = []
        self.notify_index = 0
        # Op-indexed faults sorted descending by (at, plan position) so
        # the next due fault sits at the end and pops in O(1).
        self._op_faults = sorted(
            (f for f in self.plan if f.kind in _OP_KINDS),
            key=lambda f: (f.at, self.plan.index(f)),
            reverse=True,
        )
        self._wake_faults = [f for f in self.plan if f.kind in _WAKE_KINDS]
        machine.events.subscribe("tick", self._on_tick)
        machine.events.subscribe("notify", self._on_notify)

    def detach(self) -> None:
        """Disarm the plan: unsubscribe from both events (idempotent)."""
        self.machine.events.unsubscribe("tick", self._on_tick)
        self.machine.events.unsubscribe("notify", self._on_notify)

    # -- event subscribers -----------------------------------------------------

    def _on_tick(self, ordinal: int) -> None:
        while self._op_faults and self._op_faults[-1].at <= ordinal:
            self._trigger(self._op_faults.pop(), ordinal)

    def _on_notify(self, vaddr: int) -> object:
        self.notify_index += 1
        idx = self.notify_index
        for f in self._wake_faults:
            if f.at <= idx < f.at + f.span:
                self._record(f)
                if f.kind == "drop-wake":
                    # Swallow the wake-up; the waiters stay parked.  The
                    # watchdog's kick path is the designed recovery.
                    return DROP_WAKE
                # delay-wake: deliver late (a normal wake is delay 1).
                return max(2, f.value)
        return None

    # -- fault actions ---------------------------------------------------------

    def _trigger(self, f: FaultSpec, ordinal: int) -> None:
        m = self.machine
        if f.kind == "starve-free-list":
            m.free_list.set_refill_budget(f.value)
            m.free_list.drain(leave=f.arg)
            self._record(f)
        elif f.kind == "pause-gc":
            m.gc.enabled = False
            m.sim.schedule(max(1, f.value), lambda: self._resume_gc())
            self._record(f)
        elif f.kind == "abort-task":
            # ``tick`` fires mid-dispatch: the victim core may be the one
            # executing right now, so defer the abort to a fresh event.
            m.sim.schedule(0, lambda spec=f: self._abort(spec))
        elif f.kind == "crash-machine":
            # Deferred like the abort so the op in flight completes; the
            # raise then propagates cleanly out of ``sim.run()``.
            m.sim.schedule(0, lambda spec=f: self._crash(spec, ordinal))
        elif f.kind == "corrupt-block":
            self._corrupt(f)

    def _resume_gc(self) -> None:
        m = self.machine
        m.gc.enabled = True
        # Backpressured allocators may have been waiting out the pause.
        if m.manager._waiters.get(ALLOC_WAIT):
            m.manager._notify(ALLOC_WAIT)

    def _abort(self, f: FaultSpec) -> None:
        m = self.machine
        for core in m.cores:
            task = core.current
            if task is None or task.task_id != f.arg:
                continue
            if core.can_abort and m.manager.can_abort_task(task.task_id):
                core.abort_and_retry(max(1, f.value))
                self._record(f)
            else:
                self.skipped.append(f)
            return
        self.skipped.append(f)

    def _crash(self, f: FaultSpec, op_index: int) -> None:
        from ..errors import MachineCrash

        # Environment fault: recorded in ``fired`` but *not* in
        # ``stats.faults_injected`` — the crash kills the run from
        # outside the machine, and the recovered re-run (whose config no
        # longer carries the already-fired crash) must end with stats
        # byte-identical to an uninterrupted run.
        self.fired.append(f)
        raise MachineCrash(
            f"injected crash-machine fault at versioned op {op_index} "
            f"(cycle {self.machine.sim.now})",
            op_index=op_index,
        )

    def _corrupt(self, f: FaultSpec) -> None:
        # Damage the newest checkpoint image on disk (environment fault,
        # same stats rule as _crash: no faults_injected bump).  Recovery
        # must then fall back to the previous valid image — which is the
        # behaviour the CRC guard exists to enable.
        ckpt = getattr(self.machine, "checkpointer", None)
        if ckpt is None:
            self.skipped.append(f)
            return
        images = sorted(ckpt.directory.glob("ckpt-*.img"))
        if not images:
            self.skipped.append(f)
            return
        target = images[-1]
        raw = bytearray(target.read_bytes())
        raw[f.value % len(raw)] ^= 0xFF
        target.write_bytes(bytes(raw))
        self.fired.append(f)

    def _record(self, f: FaultSpec) -> None:
        self.fired.append(f)
        self.machine.stats.faults_injected += 1
