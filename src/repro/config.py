"""Simulation configuration, defaulting to the paper's Table II platform.

Table II (IPDPS 2018):

==============  ======================================================
Processor       2-way in-order (ARM ISA), 2 GHz
L1 I/D cache    32 KB, 8-way associative, 64 B block, 4 cycles hit
L2 cache        1.5 MB x #cores, shared, 16-way, 64 B block, 35 cycles
Memory          64 GB, 60 ns latency
==============  ======================================================

At 2 GHz, 60 ns of DRAM latency is 120 cycles.  The O-structure specific
knobs (free-list size, GC watermark, compression on/off, injected
versioned-op latency) correspond to the design options evaluated in
Sections III-IV of the paper.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

from .errors import ConfigError

#: Cache block size used throughout the paper (bytes).
BLOCK_SIZE = 64

#: Size of one version block in bytes (Figure 3: 16-byte structure).
VERSION_BLOCK_SIZE = 16

#: Number of compressed version-block entries per 64-byte cache line.
COMPRESSED_ENTRIES_PER_LINE = 8


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


def _watchdog_cycles_default() -> int:
    """Watchdog period from ``REPRO_WATCHDOG_CYCLES`` (0 = disabled)."""
    raw = os.environ.get("REPRO_WATCHDOG_CYCLES", "").strip()
    if not raw:
        return 0
    try:
        cycles = int(raw)
    except ValueError:
        raise ConfigError(
            f"REPRO_WATCHDOG_CYCLES must be an integer, got {raw!r}"
        ) from None
    return max(0, cycles)


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and hit latency of one cache level."""

    size_bytes: int
    ways: int
    block_bytes: int = BLOCK_SIZE
    hit_latency: int = 4

    def __post_init__(self) -> None:
        _require(self.size_bytes > 0, "cache size must be positive")
        _require(self.ways > 0, "cache associativity must be positive")
        _require(_is_pow2(self.block_bytes), "block size must be a power of two")
        _require(
            self.size_bytes % (self.ways * self.block_bytes) == 0,
            "cache size must be divisible by ways*block",
        )
        _require(self.hit_latency >= 0, "hit latency must be non-negative")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.ways * self.block_bytes)


@dataclass(frozen=True)
class MachineConfig:
    """Full platform description; defaults reproduce Table II."""

    num_cores: int = 32
    issue_width: int = 2
    clock_ghz: float = 2.0

    l1: CacheConfig = field(
        default_factory=lambda: CacheConfig(size_bytes=32 * 1024, ways=8, hit_latency=4)
    )
    #: L2 is 1.5 MB *per core*, shared; total size scales with core count.
    l2_kib_per_core: int = 1536
    l2_ways: int = 16
    l2_hit_latency: int = 35
    dram_latency_ns: float = 60.0

    #: Latency penalty for a coherence invalidation / remote transfer.  The
    #: paper notes LLC and cross-core transfers have comparable latency, so
    #: this defaults to the L2 hit latency.
    remote_penalty: int = 35

    # --- O-structure knobs -------------------------------------------------
    #: Extra cycles injected into every versioned operation (Figure 10).
    versioned_op_extra_latency: int = 0
    #: Store compressed version blocks in L1 (Section III-A).  Disabling it
    #: forces every versioned access through a full list lookup (ablation).
    compression_enabled: bool = True
    #: Skip installing traversed blocks in the cache during full lookups
    #: ("avoiding cache pollution", Section III-A).
    pollution_avoidance: bool = True
    #: Keep version-block lists sorted (newest first).  The no-sorting
    #: configuration of Section IV-F appends instead.
    sorted_version_lists: bool = True
    #: Number of version blocks initially carved into the free list.
    free_list_blocks: int = 1 << 16
    #: GC triggers when free blocks drop below this watermark.
    gc_watermark: int = 64
    #: How many times the OS refill handler may grow the free list before
    #: the simulator declares exhaustion.  ``None`` means unlimited.
    free_list_refills: int | None = None
    #: Blocks added per OS refill trap.
    refill_blocks: int = 1 << 12
    #: On allocation pressure (free list empty, refill budget spent),
    #: stall the requesting core and run an emergency collection instead
    #: of raising :class:`FreeListExhausted`; the error is only raised
    #: when reclamation provably cannot free anything.
    allocation_backpressure: bool = True
    #: Live deadlock watchdog period in cycles (0 disables it).  When no
    #: core retires an operation for this many cycles while cores are
    #: blocked, the watchdog runs ``waitgraph.find_cycles`` and recovers
    #: by abort-and-retry of a victim task (lock cycles) or by
    #: re-delivering parked wake-ups (lost-wake hangs).  Defaults from
    #: ``REPRO_WATCHDOG_CYCLES``.
    watchdog_cycles: int = field(default_factory=_watchdog_cycles_default)
    #: Abort-and-retry attempts per task before the watchdog gives up
    #: and lets the drain-time DeadlockError report the hang.
    watchdog_retries: int = 4
    #: Restart delay of the first retry; doubles per attempt
    #: (exponential cycle backoff).
    watchdog_backoff_cycles: int = 128
    #: Wake-up re-deliveries per no-progress streak (lost-wake recovery).
    watchdog_kick_limit: int = 2
    #: Deterministic fault plan: a tuple of
    #: :class:`repro.faults.FaultSpec` armed when the machine is built.
    faults: tuple = ()
    #: Run the machine under the :mod:`repro.check` sanitizer: every
    #: versioned op is diffed against the software reference model and
    #: structural invariants are validated at checkpoints.  Purely a
    #: debugging/validation mode — simulated timing is unchanged, host
    #: time roughly doubles.
    checked: bool = False
    #: Attach a :mod:`repro.obs` metrics registry to the machine:
    #: distributional instruments (version-list walk length, compressed-
    #: line occupancy, GC reclamation lag, lock-wait time, free-list
    #: depth) sampled on the instrumented paths.  Off by default; the
    #: disabled path is a single attribute check per site, so simulated
    #: timing and (to within noise) host time are unchanged.
    metrics: bool = False
    #: Execute runs of non-stalling micro-ops (``compute`` and
    #: conventional ``load``/``store``) through the :mod:`repro.sim.fuse`
    #: fast-path interpreter, retiring a whole run in one engine event.
    #: Simulated behaviour — ``SimStats``, traces, metric snapshots — is
    #: byte-identical either way (enforced by tests/test_fuse.py); this
    #: knob only trades host time for per-op debuggability.
    fused: bool = True

    def __post_init__(self) -> None:
        _require(self.num_cores > 0, "need at least one core")
        _require(self.issue_width > 0, "issue width must be positive")
        _require(self.clock_ghz > 0, "clock must be positive")
        _require(self.l2_kib_per_core > 0, "L2 size must be positive")
        _require(self.l2_ways > 0, "L2 associativity must be positive")
        _require(self.l2_hit_latency >= 0, "L2 latency must be non-negative")
        _require(self.dram_latency_ns > 0, "DRAM latency must be positive")
        _require(self.remote_penalty >= 0, "remote penalty must be non-negative")
        _require(
            self.versioned_op_extra_latency >= 0,
            "injected latency must be non-negative",
        )
        _require(self.free_list_blocks > 0, "free list must start non-empty")
        _require(self.gc_watermark >= 0, "watermark must be non-negative")
        _require(self.refill_blocks > 0, "refill size must be positive")
        _require(self.watchdog_cycles >= 0, "watchdog period must be non-negative")
        _require(self.watchdog_retries >= 0, "watchdog retries must be non-negative")
        _require(
            self.watchdog_backoff_cycles >= 1,
            "watchdog backoff must be at least one cycle",
        )
        _require(
            self.watchdog_kick_limit >= 0,
            "watchdog kick limit must be non-negative",
        )
        if self.faults:
            from .faults.spec import validate_plan

            validate_plan(self.faults)

    @property
    def l2(self) -> CacheConfig:
        """The shared L2 cache configuration (scales with core count)."""
        return CacheConfig(
            size_bytes=self.l2_kib_per_core * 1024 * self.num_cores,
            ways=self.l2_ways,
            hit_latency=self.l2_hit_latency,
        )

    @property
    def dram_latency_cycles(self) -> int:
        """DRAM latency converted to core cycles (60 ns @ 2 GHz = 120)."""
        return round(self.dram_latency_ns * self.clock_ghz)

    def with_cores(self, n: int) -> "MachineConfig":
        """A copy of this configuration with ``n`` cores."""
        return replace(self, num_cores=n)

    def with_l1_kib(self, kib: int) -> "MachineConfig":
        """A copy with a resized L1 (Figure 9 sweep)."""
        return replace(
            self,
            l1=CacheConfig(
                size_bytes=kib * 1024,
                ways=self.l1.ways,
                block_bytes=self.l1.block_bytes,
                hit_latency=self.l1.hit_latency,
            ),
        )

    def with_versioned_latency(self, cycles: int) -> "MachineConfig":
        """A copy injecting ``cycles`` into every versioned op (Figure 10)."""
        return replace(self, versioned_op_extra_latency=cycles)

    def with_watchdog(self, cycles: int, **knobs: int) -> "MachineConfig":
        """A copy with the live deadlock watchdog armed at ``cycles``.

        Extra keyword arguments override the other watchdog knobs
        (``watchdog_retries``, ``watchdog_backoff_cycles``,
        ``watchdog_kick_limit``).
        """
        return replace(self, watchdog_cycles=cycles, **knobs)

    def with_faults(self, *faults) -> "MachineConfig":
        """A copy carrying the given fault plan (see :mod:`repro.faults`)."""
        return replace(self, faults=tuple(faults))

    def with_metrics(self, enabled: bool = True) -> "MachineConfig":
        """A copy with the :mod:`repro.obs` metrics registry attached."""
        return replace(self, metrics=enabled)

    def with_fused(self, enabled: bool = True) -> "MachineConfig":
        """A copy with macro-op fusion on or off (timing-invariant)."""
        return replace(self, fused=enabled)


#: The paper's experimental platform (Table II), 32 cores.
TABLE2 = MachineConfig()
