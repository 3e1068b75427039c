"""Statistics counters collected during simulation.

One :class:`SimStats` instance is shared by the whole machine; components
increment plain integer fields (cheap, no dict hashing on the hot path).
Derived ratios are provided as properties so reports never divide by zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields


@dataclass(slots=True)
class SimStats:
    """Aggregate counters for one simulation run."""

    # Conventional memory system.
    l1_hits: int = 0
    l1_misses: int = 0
    l2_hits: int = 0
    l2_misses: int = 0
    dram_accesses: int = 0
    invalidations: int = 0
    #: Always 0: dirty evictions are not modelled as write-backs (the
    #: field stays so SimStats rows keep their schema).
    writebacks: int = 0

    # Instruction mix.
    compute_ops: int = 0
    loads: int = 0
    stores: int = 0

    # O-structure activity.
    versioned_ops: int = 0
    direct_hits: int = 0
    full_lookups: int = 0
    lookup_blocks_visited: int = 0
    versions_created: int = 0
    versions_locked: int = 0
    versions_unlocked: int = 0
    versioned_stalls: int = 0
    versioned_stall_cycles: int = 0
    root_load_stalls: int = 0
    insertion_retries: int = 0

    # Garbage collection.
    gc_phases: int = 0
    gc_reclaimed: int = 0
    shadowed_registered: int = 0
    free_list_refills: int = 0

    # Fault recovery (allocation backpressure, watchdog, fault injector).
    emergency_gc_phases: int = 0
    backpressure_stalls: int = 0
    backpressure_stall_cycles: int = 0
    watchdog_trips: int = 0
    watchdog_kicks: int = 0
    tasks_retried: int = 0
    faults_injected: int = 0
    checkpoints_reached: int = 0
    gc_pin_kept: int = 0

    # Tasks.
    tasks_started: int = 0
    tasks_finished: int = 0

    # Read-write lock baseline.
    rwlock_read_acquires: int = 0
    rwlock_write_acquires: int = 0
    rwlock_wait_cycles: int = 0

    # Final clock value, filled in by the machine when a run completes.
    cycles: int = 0

    per_core_cycles: dict[int, int] = field(default_factory=dict)

    @property
    def l1_accesses(self) -> int:
        return self.l1_hits + self.l1_misses

    @property
    def l1_hit_rate(self) -> float:
        total = self.l1_accesses
        return self.l1_hits / total if total else 0.0

    @property
    def l1_miss_rate(self) -> float:
        total = self.l1_accesses
        return self.l1_misses / total if total else 0.0

    @property
    def l2_hit_rate(self) -> float:
        total = self.l2_hits + self.l2_misses
        return self.l2_hits / total if total else 0.0

    @property
    def direct_hit_rate(self) -> float:
        """Fraction of versioned lookups served by the compressed L1 line."""
        total = self.direct_hits + self.full_lookups
        return self.direct_hits / total if total else 0.0

    @property
    def versioned_stall_rate(self) -> float:
        """Fraction of versioned ops that blocked at least once."""
        return self.versioned_stalls / self.versioned_ops if self.versioned_ops else 0.0

    @property
    def avg_lookup_walk(self) -> float:
        """Mean version blocks visited per full lookup."""
        return (
            self.lookup_blocks_visited / self.full_lookups
            if self.full_lookups
            else 0.0
        )

    def snapshot(self) -> dict:
        """A plain-dict copy of all counters (for reports and tests).

        ``per_core_cycles`` is copied with *string* keys so a snapshot
        survives a JSON round trip through the result cache unchanged —
        fresh and cached rows stay byte-identical.
        """
        out: dict = {}
        for f in fields(self):
            if f.name == "per_core_cycles":
                continue
            out[f.name] = getattr(self, f.name)
        out["per_core_cycles"] = {
            str(core): cycles
            for core, cycles in sorted(self.per_core_cycles.items())
        }
        out["l1_hit_rate"] = self.l1_hit_rate
        out["l1_miss_rate"] = self.l1_miss_rate
        out["l2_hit_rate"] = self.l2_hit_rate
        out["direct_hit_rate"] = self.direct_hit_rate
        out["versioned_stall_rate"] = self.versioned_stall_rate
        out["avg_lookup_walk"] = self.avg_lookup_walk
        return out
