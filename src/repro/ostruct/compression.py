"""Compressed version-block cache lines (Section III-A, Figure 3).

Eight version blocks compress into one 64-byte cache line:

- an 18-bit **version base** — the upper 18 bits of the lowest version in
  the line;
- a 4-bit **cache-line offset** — the offset of the list head within its
  64-byte line, when cached;
- eight entries of 60 bits each: 32-bit data, 14-bit version offset and
  14-bit lock offset relative to ``base << 14``.

Total: 18 + 4 + 8*60 = 502 bits <= 512.  The only restriction compression
imposes is on the *range* of versions and lockers within one line: all must
fall within ``[base << 14, (base << 14) + 2**14)``.

This module provides both the behavioural representation the O-structure
manager uses (:class:`CompressedLine`: up to 8 :class:`VersionBlock` refs
with internal LRU and the range restriction) and a bit-exact
:meth:`CompressedLine.encode` / :meth:`CompressedLine.decode` pair that
packs the line into a 512-bit integer, demonstrating the layout actually
fits.  The line holds the very blocks linked into the version list, so a
direct hit returns the block and ``encode`` reads data and locker from it.

Encoding conventions (the paper leaves these to the implementation):
offset ``0x3FFF`` in the version-offset field marks an invalid (empty)
entry, and ``0x3FFF`` in the lock-offset field means "unlocked"; both
sentinels shrink the representable offset range to ``[0, 2**14 - 2]``.
"""

from __future__ import annotations

from ..errors import SimulationError
from .version_block import VersionBlock

VERSION_BASE_BITS = 18
LINE_OFFSET_BITS = 4
VERSION_OFFSET_BITS = 14
LOCK_OFFSET_BITS = 14
DATA_BITS = 32
ENTRIES_PER_LINE = 8
ENTRY_BITS = DATA_BITS + VERSION_OFFSET_BITS + LOCK_OFFSET_BITS  # 60
LINE_BITS = VERSION_BASE_BITS + LINE_OFFSET_BITS + ENTRIES_PER_LINE * ENTRY_BITS

#: Sentinel offsets (see module docstring).
INVALID_OFFSET = (1 << VERSION_OFFSET_BITS) - 1
UNLOCKED_OFFSET = (1 << LOCK_OFFSET_BITS) - 1

#: Largest offset a valid entry may carry.
MAX_OFFSET = INVALID_OFFSET - 1

#: Window size covered by one base value.
RANGE = 1 << VERSION_OFFSET_BITS


class CompressedLine:
    """Behavioural model of one compressed version-block line.

    Holds up to :data:`ENTRIES_PER_LINE` ``version -> VersionBlock``
    entries subject to the base-range restriction, which :meth:`put`
    applies to the block's version and locker.  A block's ``value`` must
    fit the 32-bit data field for :meth:`encode`; the behavioural model
    accepts any value (the manager stores simulated pointers, which fit).

    Because the base is the upper bits of the lowest value, a set of
    versions and lockers fits one line exactly when every value lies in
    the same :data:`RANGE`-aligned window at an offset of at most
    :data:`MAX_OFFSET`.  Every resident therefore sits in window ``base``,
    and the range check is a comparison against ``base``, not a scan.
    """

    __slots__ = ("base", "line_offset", "_blocks", "_lru", "_tick")

    def __init__(self, line_offset: int = 0):
        if not 0 <= line_offset < (1 << LINE_OFFSET_BITS):
            raise SimulationError("line offset must fit 4 bits")
        self.base = 0
        self.line_offset = line_offset
        self._blocks: dict[int, VersionBlock] = {}
        self._lru: dict[int, int] = {}
        self._tick = 0

    def __len__(self) -> int:
        return len(self._blocks)

    def __contains__(self, version: int) -> bool:
        return version in self._blocks

    def versions(self) -> list[int]:
        return sorted(self._blocks)

    @property
    def window_start(self) -> int:
        return self.base << VERSION_OFFSET_BITS

    def get(self, version: int) -> VersionBlock | None:
        """Direct-access hit check; refreshes internal LRU on a hit."""
        block = self._blocks.get(version)
        if block is not None:
            self._tick += 1
            self._lru[version] = self._tick
        return block

    def put(self, block: VersionBlock) -> bool:
        """Insert or update a block's entry; False if it cannot be cached.

        Evicts the least-recently-used entry when the line is full, and
        every resident when the new entry lies in another window.  A
        block whose own version/locker pair does not fit one window is
        rejected outright.
        """
        version, locked_by = block.version, block.locked_by
        window = version >> VERSION_OFFSET_BITS
        if (
            window >= 1 << VERSION_BASE_BITS
            or version - (window << VERSION_OFFSET_BITS) > MAX_OFFSET
            or locked_by is not None
            and (
                locked_by >> VERSION_OFFSET_BITS != window
                or locked_by - (window << VERSION_OFFSET_BITS) > MAX_OFFSET
            )
        ):
            return False

        blocks = self._blocks
        if window != self.base:
            # Every resident lies in the old window: none can share a
            # base with the new entry.
            blocks.clear()
            self._lru.clear()
            self.base = window
        elif version not in blocks:
            while len(blocks) >= ENTRIES_PER_LINE:
                self._evict_lru()
        blocks[version] = block
        self._tick += 1
        self._lru[version] = self._tick
        return True

    def _evict_lru(self) -> None:
        victim = min(self._lru, key=self._lru.__getitem__)
        del self._blocks[victim]
        del self._lru[victim]

    def drop(self, version: int) -> None:
        """Remove one entry (e.g. its version block was reclaimed)."""
        self._blocks.pop(version, None)
        self._lru.pop(version, None)

    # -- bit-exact packing ----------------------------------------------------

    def encode(self) -> int:
        """Pack into a 512-bit line image (an int), Figure 3 layout.

        Layout, LSB first: base (18) | line offset (4) | entry0 .. entry7,
        each data (32) | version offset (14) | lock offset (14).  Empty
        slots carry the invalid sentinel.  Values must fit 32 bits.
        """
        lo = self.window_start
        word = self.base | (self.line_offset << VERSION_BASE_BITS)
        shift = VERSION_BASE_BITS + LINE_OFFSET_BITS
        slots = sorted(self._blocks.items())[:ENTRIES_PER_LINE]
        for i in range(ENTRIES_PER_LINE):
            if i < len(slots):
                version, block = slots[i]
                value, locked_by = block.value, block.locked_by
                if not isinstance(value, int) or not 0 <= value < (1 << DATA_BITS):
                    raise SimulationError(
                        f"value {value!r} does not fit the 32-bit data field"
                    )
                voff = version - lo
                loff = UNLOCKED_OFFSET if locked_by is None else locked_by - lo
                if not 0 <= voff <= MAX_OFFSET or not 0 <= loff <= UNLOCKED_OFFSET:
                    raise SimulationError("offset outside compressed window")
            else:
                value, voff, loff = 0, INVALID_OFFSET, UNLOCKED_OFFSET
            entry = value | (voff << DATA_BITS) | (
                loff << (DATA_BITS + VERSION_OFFSET_BITS)
            )
            word |= entry << shift
            shift += ENTRY_BITS
        return word

    @classmethod
    def decode(cls, word: int) -> "CompressedLine":
        """Inverse of :meth:`encode`.

        The image carries no physical addresses, so each entry comes back
        as a fresh :class:`VersionBlock` with ``paddr=0``.
        """
        mask = lambda bits: (1 << bits) - 1  # noqa: E731
        line = cls(line_offset=(word >> VERSION_BASE_BITS) & mask(LINE_OFFSET_BITS))
        line.base = word & mask(VERSION_BASE_BITS)
        lo = line.base << VERSION_OFFSET_BITS
        shift = VERSION_BASE_BITS + LINE_OFFSET_BITS
        for _ in range(ENTRIES_PER_LINE):
            entry = (word >> shift) & mask(ENTRY_BITS)
            shift += ENTRY_BITS
            value = entry & mask(DATA_BITS)
            voff = (entry >> DATA_BITS) & mask(VERSION_OFFSET_BITS)
            loff = (entry >> (DATA_BITS + VERSION_OFFSET_BITS)) & mask(LOCK_OFFSET_BITS)
            if voff == INVALID_OFFSET:
                continue
            block = VersionBlock(lo + voff, value, 0)
            if loff != UNLOCKED_OFFSET:
                block.locked_by = lo + loff
            line._blocks[lo + voff] = block
            line._tick += 1
            line._lru[lo + voff] = line._tick
        return line
