"""Set-associative cache with LRU replacement.

Used for both the per-core L1s (32 KB, 8-way) and the shared L2
(1.5 MB x cores, 16-way).  The cache tracks block residency and
recency only; data is held functionally by higher layers.  An optional
``evict_hook`` lets the O-structure manager discard compressed
version-block state whenever its backing line leaves the cache (by
eviction *or* coherence invalidation), mirroring the paper's "discard the
compressed version block on a coherence message" policy.

Storage layout: ``_sets`` holds one entry per set, ``None`` until the
set's first fill.  A filled set is one flat list of ``3 * ways`` slots:
the tags (``-1`` marks an empty way), then the LRU stamps, then the dirty
flags, so way ``i``'s stamp is at ``ways + i`` and its dirty flag at
``2 * ways + i``.  Way scans use ``list.index`` bounded to the tag slots,
which runs at C speed over the handful of ways per set; LRU state is an
integer stamp per way (the global tick counter is monotonically
increasing, so stamps are unique and the minimum-stamp way is exactly the
least-recent entry).  A machine therefore pays only for the sets it
touches — a 32-core L2 starts as 49,152 ``None`` slots — and the steady
state stays allocation-free: a hit, an install and an eviction each
mutate list slots in place.
"""

from __future__ import annotations

from typing import Callable

from ..config import CacheConfig


class Cache:
    """One cache level.  Addresses are byte addresses; blocks are 64 B."""

    __slots__ = (
        "config",
        "name",
        "_sets",
        "_blank",
        "_tick",
        "_num_sets",
        "_ways",
        "_block_shift",
        "_resident",
        "evict_hook",
    )

    def __init__(self, config: CacheConfig, name: str = "cache"):
        self.config = config
        self.name = name
        self._num_sets = config.num_sets
        self._ways = ways = config.ways
        self._block_shift = config.block_bytes.bit_length() - 1
        self._sets: list[list | None] = [None] * self._num_sets
        #: An empty set's slots, copied on the set's first fill.
        self._blank: list = [-1] * ways + [0] * ways + [False] * ways
        self._tick = 0
        self._resident = 0
        #: Called with the block number whenever a block leaves this cache.
        self.evict_hook: Callable[[int], None] | None = None

    # -- address helpers ----------------------------------------------------

    def block_of(self, addr: int) -> int:
        """Block number containing byte address ``addr``."""
        return addr >> self._block_shift

    # -- cache operations ---------------------------------------------------

    def lookup(self, block: int) -> bool:
        """True if ``block`` is resident; updates recency on a hit."""
        s = self._sets[block % self._num_sets]
        if s is None:
            return False
        try:
            i = s.index(block, 0, self._ways)
        except ValueError:
            return False
        self._tick += 1
        s[self._ways + i] = self._tick
        return True

    def contains(self, block: int) -> bool:
        """Residency check without touching recency."""
        s = self._sets[block % self._num_sets]
        if s is None:
            return False
        try:
            s.index(block, 0, self._ways)
        except ValueError:
            return False
        return True

    def insert(self, block: int, dirty: bool = False) -> int | None:
        """Install ``block``; returns the evicted block number, if any."""
        ways = self._ways
        k = block % self._num_sets
        s = self._sets[k]
        if s is None:
            s = self._sets[k] = self._blank[:]
        self._tick += 1
        victim: int | None = None
        try:
            i = s.index(block, 0, ways)
        except ValueError:
            try:
                i = s.index(-1, 0, ways)
            except ValueError:
                # Set full: evict the LRU way.  Stamps are unique, so the
                # minimum-stamp way is the least recently used entry.
                i = ways
                best = s[ways]
                for j in range(ways + 1, 2 * ways):
                    if s[j] < best:
                        best = s[j]
                        i = j
                i -= ways
                victim = s[i]
                s[i] = -1
                s[2 * ways + i] = False
                self._resident -= 1
                if self.evict_hook is not None:
                    self.evict_hook(victim)
            s[i] = block
            s[2 * ways + i] = False
            self._resident += 1
        s[ways + i] = self._tick
        if dirty:
            s[2 * ways + i] = True
        return victim

    def mark_dirty(self, block: int) -> None:
        s = self._sets[block % self._num_sets]
        if s is None:
            return
        try:
            i = s.index(block, 0, self._ways)
        except ValueError:
            return
        s[2 * self._ways + i] = True

    def is_dirty(self, block: int) -> bool:
        s = self._sets[block % self._num_sets]
        if s is None:
            return False
        try:
            i = s.index(block, 0, self._ways)
        except ValueError:
            return False
        return s[2 * self._ways + i]

    def invalidate(self, block: int) -> bool:
        """Remove ``block`` if present; returns whether it was resident."""
        s = self._sets[block % self._num_sets]
        if s is None:
            return False
        try:
            i = s.index(block, 0, self._ways)
        except ValueError:
            return False
        s[i] = -1
        s[2 * self._ways + i] = False
        self._resident -= 1
        if self.evict_hook is not None:
            self.evict_hook(block)
        return True

    def flush(self) -> None:
        """Empty the cache (used between experiment phases).

        Blocks leave in set order, ways in order within a set, and each
        one is gone before the evict hook hears of it; emptied sets go
        back to unbuilt.
        """
        sets = self._sets
        hook = self.evict_hook
        for k, s in enumerate(sets):
            if s is None:
                continue
            for i in range(self._ways):
                block = s[i]
                if block != -1:
                    s[i] = -1
                    self._resident -= 1
                    if hook is not None:
                        hook(block)
            sets[k] = None

    def resident(self) -> list[int]:
        """Every resident block, in set order and way order within a set."""
        ways = self._ways
        return [
            block
            for s in self._sets
            if s is not None
            for block in s[:ways]
            if block != -1
        ]

    @property
    def resident_blocks(self) -> int:
        return self._resident

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Cache {self.name} {self.config.size_bytes // 1024}KiB "
            f"{self.config.ways}-way, {self._resident} blocks resident>"
        )
