"""The machine's event bus: one named subscriber tuple per event.

Everything that observes or interposes on a simulated machine — the op
:class:`~repro.sim.trace.Tracer`, the :mod:`repro.obs` span recorder and
metrics, the :mod:`repro.check` sanitizer, the :mod:`repro.faults`
injector and the :mod:`repro.recovery` checkpointer — subscribes here.
No component is patched, and detaching a subscriber only removes it from
the tuples it joined, so attach and detach order cannot affect anyone
else.

Each event is a tuple attribute of the bus.  :meth:`EventBus.subscribe`
and :meth:`EventBus.unsubscribe` rebuild that tuple; an emit site reads
it once and skips on a falsy check, so a machine with no subscriber pays
one tuple read per site.  Subscribers fire in attach order.

Subscriber signatures (DESIGN.md §8 item 14 says when each fires):
``tick(ordinal)``, ``op(name, args, result, exc)``, ``notify(vaddr)``,
``retire(core, task, op_tuple, latency, stalled)``,
``task(event, task_id, core_id)``, ``recovery(event, info)``,
``drop(vaddr, version)``, ``shadow(vaddr, version)``,
``reclaim(vaddr, version)`` and ``gc_phase(event)``.

``notify`` is the only event whose return value is read: every
subscriber is asked, and the first non-None answer — a delay of 2 or
more, or :data:`~repro.ostruct.manager.DROP_WAKE` — decides.
"""

from __future__ import annotations

from typing import Callable

from ..errors import SimulationError

#: Every event the bus carries, in documentation order.
EVENTS = (
    "tick",
    "op",
    "notify",
    "retire",
    "task",
    "recovery",
    "drop",
    "shadow",
    "reclaim",
    "gc_phase",
)


class EventBus:
    """Named subscriber tuples shared by every component of one machine."""

    __slots__ = EVENTS

    def __init__(self) -> None:
        for event in EVENTS:
            setattr(self, event, ())

    def _subscribers(self, event: str) -> tuple[Callable, ...]:
        if event not in EVENTS:
            raise SimulationError(
                f"unknown event {event!r}; the bus carries {', '.join(EVENTS)}"
            )
        return getattr(self, event)

    def subscribe(self, event: str, fn: Callable) -> None:
        """Append ``fn`` to ``event``; attaching it twice raises."""
        subs = self._subscribers(event)
        if fn in subs:
            raise SimulationError(f"{fn!r} is already subscribed to {event!r}")
        setattr(self, event, subs + (fn,))

    def unsubscribe(self, event: str, fn: Callable) -> bool:
        """Remove ``fn`` from ``event``; False if it was not subscribed."""
        subs = self._subscribers(event)
        setattr(self, event, tuple(f for f in subs if f != fn))
        return fn in subs
