"""The hardware-managed free list of version blocks (Section III).

Unused version blocks live on a free list.  Allocation pops a block's
physical address; when the count drops below the GC watermark the manager
triggers a collection phase, and when the list is completely empty the
hardware traps to the OS, which carves more memory into version blocks
(``refill_blocks`` at a time) after updating the page table.  The refill
budget can be bounded to make exhaustion testable.

Storage layout: a carve is not materialised block by block.  The most
recent carve is a bump region ``[lo, top)`` that sits at the bottom of
the stack and pops from the top; released paddrs stack above it.  This
is exactly the pop order of an eagerly filled stack (carved paddrs in
ascending order, releases pushed on top), because a carve only happens
once both parts are empty.  The initial carve is therefore as lazy as the
paper's refill trap: a block costs nothing until it is first allocated.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from ..config import VERSION_BLOCK_SIZE
from ..errors import FreeListExhausted

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.stats import SimStats

#: Cycles charged for the OS trap that refills the free list.
REFILL_TRAP_CYCLES = 500


class FreeList:
    """Stack of free version-block physical addresses."""

    __slots__ = (
        "_stats",
        "_free",
        "_lo",
        "_top",
        "_bump",
        "_refill_blocks",
        "_refills_left",
        "_on_refill_page",
    )

    def __init__(
        self,
        *,
        base_paddr: int,
        initial_blocks: int,
        refill_blocks: int,
        max_refills: int | None,
        stats: "SimStats",
        on_refill_page: Callable[[int, int], None] | None = None,
    ):
        """``on_refill_page(start_paddr, nbytes)`` lets the page table mark
        newly carved regions as version-block pages."""
        self._stats = stats
        #: Released paddrs, stacked above the bump region.
        self._free: list[int] = []
        #: The not-yet-allocated part of the latest carve, ``[_lo, _top)``.
        self._lo = self._top = base_paddr
        #: Carve high-water mark: the next carve starts here.
        self._bump = base_paddr
        self._refill_blocks = refill_blocks
        self._refills_left = max_refills
        self._on_refill_page = on_refill_page
        self._carve(initial_blocks, count_refill=False)

    def _carve(self, nblocks: int, count_refill: bool) -> None:
        """Make ``nblocks`` fresh blocks the bump region (stack is empty)."""
        start = self._bump
        self._bump = start + nblocks * VERSION_BLOCK_SIZE
        self._lo = start
        self._top = self._bump
        if self._on_refill_page is not None:
            self._on_refill_page(start, nblocks * VERSION_BLOCK_SIZE)
        if count_refill:
            self._stats.free_list_refills += 1

    @property
    def free_count(self) -> int:
        return len(self._free) + (self._top - self._lo) // VERSION_BLOCK_SIZE

    def paddrs(self) -> list[int]:
        """Every free paddr, bottom of the stack first (the next pop last)."""
        return list(range(self._lo, self._top, VERSION_BLOCK_SIZE)) + self._free

    @property
    def refills_left(self) -> int | None:
        """Remaining OS refills (``None`` = unlimited)."""
        return self._refills_left

    def set_refill_budget(self, budget: int | None) -> None:
        """Replace the remaining refill budget (fault injection)."""
        self._refills_left = budget

    def drain(self, leave: int = 0) -> int:
        """Discard free blocks until only ``leave`` remain (starvation).

        The discarded paddrs are forgotten entirely — exactly what an OS
        reclaiming version-block pages under memory pressure looks like
        to the hardware.  Blocks go from the top of the stack, released
        ones first.  Returns the number of blocks dropped.
        """
        dropped = max(0, self.free_count - max(0, leave))
        released = len(self._free)
        if dropped <= released:
            del self._free[released - dropped :]
        else:
            self._free.clear()
            self._top -= (dropped - released) * VERSION_BLOCK_SIZE
        return dropped

    def allocate(self) -> tuple[int, int]:
        """Pop one free block.

        Returns ``(paddr, extra_latency)``; the latency is non-zero only
        when the OS refill trap fired.  Raises :class:`FreeListExhausted`
        once the refill budget is spent.
        """
        free = self._free
        if free:
            return free.pop(), 0
        if self._top != self._lo:
            self._top -= VERSION_BLOCK_SIZE
            return self._top, 0
        if self._refills_left is not None and self._refills_left <= 0:
            raise FreeListExhausted(
                "version-block free list empty and refill budget exhausted"
            )
        if self._refills_left is not None:
            self._refills_left -= 1
        self._carve(self._refill_blocks, count_refill=True)
        self._top -= VERSION_BLOCK_SIZE
        return self._top, REFILL_TRAP_CYCLES

    def release(self, paddr: int) -> None:
        """Return a reclaimed block to the free list."""
        self._free.append(paddr)
