"""Memory hierarchy glue: per-core L1s, shared L2, DRAM, coherence.

``access`` is the single entry point used by cores and by the O-structure
manager; it returns the access latency in cycles and maintains all
residency, recency, coherence and statistics state.  The ``install``
flag implements the paper's cache-pollution avoidance: blocks fetched
while walking a version-block list are *not* installed in the caches —
only the block holding the requested version is.
"""

from __future__ import annotations

from typing import Callable

from ..config import MachineConfig
from .cache import Cache
from .coherence import Directory
from .dram import Dram
from .stats import SimStats


class MemoryHierarchy:
    """Table II memory system for ``config.num_cores`` cores."""

    __slots__ = ("config", "stats", "l1s", "l2", "dram", "directory", "on_l1_evict")

    def __init__(self, config: MachineConfig, stats: SimStats):
        self.config = config
        self.stats = stats
        self.l1s: list[Cache] = [
            Cache(config.l1, name=f"L1.{i}") for i in range(config.num_cores)
        ]
        self.l2 = Cache(config.l2, name="L2")
        self.dram = Dram(config.dram_latency_cycles, stats)
        self.directory = Directory(self.l1s, stats, config.remote_penalty)
        # Keep the directory consistent when LRU eviction drops a block.
        for i, l1 in enumerate(self.l1s):
            l1.evict_hook = self._make_evict_hook(i)
        #: ``fn(core_id, block)`` called when an L1 drops a block (the
        #: O-structure manager discards compressed version-block lines).
        self.on_l1_evict: Callable[[int, int], None] | None = None

    def _make_evict_hook(self, core_id: int):
        def hook(block: int) -> None:
            self.directory.note_eviction(core_id, block)
            if self.on_l1_evict is not None:
                self.on_l1_evict(core_id, block)

        return hook

    # ------------------------------------------------------------------

    def block_of(self, addr: int) -> int:
        return addr >> 6

    def access(
        self,
        core_id: int,
        addr: int,
        *,
        write: bool = False,
        install: bool = True,
    ) -> int:
        """One memory access from ``core_id``; returns latency in cycles."""
        block = addr >> 6
        l1 = self.l1s[core_id]
        stats = self.stats
        latency = self.config.l1.hit_latency

        if l1.lookup(block):
            stats.l1_hits += 1
            if write:
                latency += self.directory.acquire_exclusive(core_id, block)
                l1.mark_dirty(block)
            return latency

        # L1 miss.
        stats.l1_misses += 1
        latency += self.config.l2_hit_latency
        if self.l2.lookup(block):
            stats.l2_hits += 1
            # A modified copy in a remote L1 adds a cache-to-cache transfer;
            # the paper notes LLC and cross-core latencies are comparable.
            if self.directory.has_remote_copy(core_id, block):
                latency += self.config.remote_penalty if write else 0
        else:
            stats.l2_misses += 1
            latency += self.dram.access()
            if install:
                self.l2.insert(block)

        if write:
            latency += self.directory.acquire_exclusive(core_id, block)

        if install:
            l1.insert(block, dirty=write)
            self.directory.note_fill(core_id, block)
        return latency

    def write_no_fetch(self, core_id: int, addr: int) -> int:
        """Write-allocate without a memory fetch.

        Used when the writer composes the *entire* block content (e.g.
        creating a fresh version block from the free list): the stale
        line need not be read, only ownership acquired.
        """
        block = addr >> 6
        l1 = self.l1s[core_id]
        latency = self.config.l1.hit_latency
        if l1.lookup(block):
            self.stats.l1_hits += 1
        else:
            l1.insert(block, dirty=True)
            self.directory.note_fill(core_id, block)
            self.l2.insert(block)
        latency += self.directory.acquire_exclusive(core_id, block)
        return latency

    def invalidate_everywhere(self, addr: int) -> None:
        """Drop a block from every cache level (used on version reclaim)."""
        block = addr >> 6
        for l1 in self.l1s:
            l1.invalidate(block)
        self.l2.invalidate(block)

    def flush_all(self) -> None:
        """Empty every cache (between experiment phases)."""
        for l1 in self.l1s:
            l1.flush()
        self.l2.flush()
