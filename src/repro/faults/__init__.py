"""Deterministic fault injection for the O-structure machine and harness.

Two tiers:

- **Machine tier** (:mod:`repro.faults.injector`): a
  :class:`~repro.faults.spec.FaultSpec` plan carried by
  ``MachineConfig(faults=...)`` starves the version-block free list,
  drops or delays waiter wake-ups, pauses the GC, or aborts a running
  task at a deterministic point — exercising allocation backpressure,
  the emergency collector, the watchdog's kick/abort recovery, and the
  abort-and-retry rollback.
- **Harness tier** (:mod:`repro.faults.harness`): the ``chaos`` sweep
  entry crashes, hangs, or errors a *real* pool worker exactly once —
  exercising the :class:`~repro.harness.runner.SweepRunner` crash
  detection, timeouts, retry-with-backoff, and ``--resume``.

Only the spec layer is imported here; the injector is pulled in lazily
by :class:`~repro.sim.machine.Machine` (it subscribes to the event bus
of the machine it arms), and the harness layer by
:mod:`repro.harness.sweeps`.
"""

from .spec import KINDS, TRANSPARENT_KINDS, FaultSpec, random_plan, validate_plan

__all__ = [
    "KINDS",
    "TRANSPARENT_KINDS",
    "FaultSpec",
    "random_plan",
    "validate_plan",
]
