"""Wire a :class:`~repro.obs.metrics.MetricsRegistry` into a machine.

The instruments live where the events happen — the manager's lookup and
allocation paths, the core's stall-resolution path, the rwlock's grant
path — each behind a single ``metrics is not None`` attribute check.
This module only *connects* them: it creates the registry, hands it to
the manager and machine, and subscribes to the ``shadow``, ``reclaim``
and ``drop`` events that turn into the reclamation-lag histogram.

Attach before ``machine.run()``; instruments attached mid-run simply
miss earlier events.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.machine import Machine


def attach_metrics(machine: "Machine") -> MetricsRegistry:
    """Create a registry and point every instrumented site at it.

    Returns the registry (also available as ``machine.metrics``).
    Idempotent: a machine that already carries a registry keeps it.
    """
    if machine.metrics is not None:
        return machine.metrics
    registry = MetricsRegistry()
    machine.metrics = registry
    machine.manager.metrics = registry

    # GC reclamation lag: cycles between a version becoming shadowed and
    # its block returning to the free list.  The collector knows nothing
    # about simulated time, so the pairing lives here.
    shadow_cycle: dict[tuple[int, int], int] = {}
    sim = machine.sim

    def on_shadow(vaddr: int, version: int) -> None:
        shadow_cycle[(vaddr, version)] = sim.now

    def on_reclaim(vaddr: int, version: int) -> None:
        start = shadow_cycle.pop((vaddr, version), None)
        if start is not None:
            registry.gc_lag.observe(sim.now - start)
        registry.counter("gc_reclaims").inc()

    def on_drop(vaddr: int, version: int) -> None:
        # Abort rollback removed the version outside the GC: it will
        # never be reclaimed, so its shadow timestamp must not leak.
        shadow_cycle.pop((vaddr, version), None)

    events = machine.events
    events.subscribe("shadow", on_shadow)
    events.subscribe("reclaim", on_reclaim)
    events.subscribe("drop", on_drop)
    return registry
