"""Tests for compressed version-block lines, incl. bit-exact round trips.

A line holds :class:`VersionBlock` refs: ``put`` takes a block and
``get`` returns the very block that was put.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.ostruct.compression import (
    ENTRIES_PER_LINE,
    LINE_BITS,
    MAX_OFFSET,
    RANGE,
    CompressedLine,
)
from repro.ostruct.version_block import VersionBlock


def vb(version: int, value=0, locked_by: int | None = None) -> VersionBlock:
    """A version block at a dummy physical address."""
    block = VersionBlock(version, value, 0x1000)
    block.locked_by = locked_by
    return block


def entry(block: VersionBlock | None) -> tuple | None:
    """A cached block's encoded fields, ``(value, locked_by)``."""
    return None if block is None else (block.value, block.locked_by)


def test_layout_fits_one_cache_line():
    # 18 + 4 + 8*60 = 502 bits <= 512 (the paper's packing argument).
    assert LINE_BITS == 502
    assert LINE_BITS <= 512


def test_put_and_get():
    line = CompressedLine()
    block = vb(5, 0xAB)
    assert line.put(block)
    assert line.get(5) is block
    assert line.get(6) is None
    assert 5 in line and 6 not in line


def test_capacity_is_eight_with_lru_eviction():
    line = CompressedLine()
    for v in range(ENTRIES_PER_LINE):
        line.put(vb(v, v, None))
    line.get(0)  # refresh 0
    line.put(vb(100, 100, None))  # evicts LRU = 1
    assert len(line) == ENTRIES_PER_LINE
    assert 0 in line and 1 not in line and 100 in line


def test_version_window_restriction_evicts_far_entries():
    line = CompressedLine()
    line.put(vb(0, 1, None))
    line.put(vb(RANGE + 5, 2, None))  # cannot share a window with version 0
    assert RANGE + 5 in line
    assert 0 not in line


def test_close_versions_share_window():
    # Offsets are relative to the quantized window start (base << 14).
    line = CompressedLine()
    line.put(vb(RANGE, 1, None))
    line.put(vb(RANGE + MAX_OFFSET, 2, None))
    assert RANGE in line and RANGE + MAX_OFFSET in line


def test_versions_straddling_window_boundary_cannot_share():
    # Span fits 14 bits but crosses a base boundary: quantized base of the
    # lower value cannot reach the higher one.
    line = CompressedLine()
    line.put(vb(RANGE - 1, 1, None))
    line.put(vb(RANGE + 1, 2, None))
    assert RANGE + 1 in line
    assert RANGE - 1 not in line


def test_lock_offset_in_window():
    line = CompressedLine()
    assert line.put(vb(50, 7, 52))  # locker close to version: fine
    assert entry(line.get(50)) == (7, 52)


def test_far_locker_rejected():
    line = CompressedLine()
    # Locker so far from the version no single window covers both.
    assert line.put(vb(0, 7, MAX_OFFSET + 10)) is False
    assert 0 not in line


def test_update_existing_entry_lock_state():
    line = CompressedLine()
    line.put(vb(10, 3, None))
    locked = vb(10, 3, 12)
    line.put(locked)
    assert line.get(10) is locked
    assert len(line) == 1


def test_drop():
    line = CompressedLine()
    line.put(vb(1, 1, None))
    line.put(vb(2, 2, None))
    line.drop(1)
    assert 1 not in line and 2 in line
    line.drop(99)  # absent drop is a no-op


def test_base_tracks_lowest_version():
    line = CompressedLine()
    line.put(vb(RANGE * 3 + 7, 0, None))
    assert line.base == 3
    assert line.window_start == RANGE * 3


class TestEncodeDecode:
    def test_round_trip_simple(self):
        line = CompressedLine(line_offset=5)
        line.put(vb(100, 0xDEAD, None))
        line.put(vb(101, 0xBEEF, 102))
        decoded = CompressedLine.decode(line.encode())
        assert decoded.line_offset == 5
        assert entry(decoded.get(100)) == (0xDEAD, None)
        assert entry(decoded.get(101)) == (0xBEEF, 102)
        assert decoded.get(101).paddr == 0  # the image carries no paddrs

    def test_encoded_word_fits_512_bits(self):
        line = CompressedLine()
        for v in range(8):
            line.put(vb(1000 + v, (1 << 32) - 1 - v, 1000 + v + 8))
        word = line.encode()
        assert word < (1 << 512)

    def test_empty_line_round_trip(self):
        decoded = CompressedLine.decode(CompressedLine().encode())
        assert len(decoded) == 0

    def test_non_int_value_rejected_by_encode(self):
        line = CompressedLine()
        line.put(vb(1, "pointer", None))  # behavioural model accepts any value
        with pytest.raises(SimulationError):
            line.encode()

    def test_oversized_value_rejected_by_encode(self):
        line = CompressedLine()
        line.put(vb(1, 1 << 32, None))
        with pytest.raises(SimulationError):
            line.encode()

    def test_bad_line_offset_rejected(self):
        with pytest.raises(SimulationError):
            CompressedLine(line_offset=16)


@given(
    base=st.integers(min_value=0, max_value=(1 << 18) - 2),
    offsets=st.lists(
        st.integers(min_value=0, max_value=MAX_OFFSET - 1),
        unique=True, min_size=1, max_size=8,
    ),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_property_encode_decode_round_trip(base, offsets, data):
    """Any valid entry set survives a bit-exact encode/decode round trip."""
    line = CompressedLine()
    lo = base << 14
    expected = {}
    for off in offsets:
        version = lo + off
        value = data.draw(st.integers(min_value=0, max_value=(1 << 32) - 1))
        lock_off = data.draw(
            st.one_of(st.none(), st.integers(min_value=0, max_value=MAX_OFFSET - 1))
        )
        locked_by = None if lock_off is None else lo + lock_off
        assert line.put(vb(version, value, locked_by))
        expected[version] = (value, locked_by)
    decoded = CompressedLine.decode(line.encode())
    for version, fields in expected.items():
        assert entry(decoded.get(version)) == fields


@given(
    st.lists(st.integers(min_value=0, max_value=1 << 20), min_size=1, max_size=64)
)
@settings(max_examples=150, deadline=None)
def test_property_window_invariant_always_holds(versions):
    """After any put sequence, all residents fit one 2^14 window."""
    line = CompressedLine()
    for v in versions:
        line.put(vb(v, v & 0xFFFF, None))
        resident = line.versions()
        assert len(resident) <= ENTRIES_PER_LINE
        if resident:
            window_start = (min(resident) >> 14) << 14
            assert max(resident) - window_start <= MAX_OFFSET


class _OracleLine:
    """Oracle: the list-building window check the line started from."""

    def __init__(self) -> None:
        self.base = 0
        self.entries: dict[int, VersionBlock] = {}
        self.lru: dict[int, int] = {}
        self.tick = 0

    @staticmethod
    def _fits(vals: list[int]) -> bool:
        if not vals:
            return True
        lo, hi = min(vals), max(vals)
        return hi - ((lo >> 14) << 14) <= MAX_OFFSET and (lo >> 14) < (1 << 18)

    def _values(self) -> list[int]:
        return list(self.entries) + [
            b.locked_by for b in self.entries.values() if b.locked_by is not None
        ]

    def _rebase(self) -> None:
        vals = self._values()
        if vals:
            self.base = min(vals) >> 14

    def _evict_until_fits(self, keep: int) -> None:
        while not self._fits(self._values()):
            victim = min((v for v in self.entries if v != keep), key=self.lru.get)
            del self.entries[victim]
            del self.lru[victim]

    def get(self, version):
        e = self.entries.get(version)
        if e is not None:
            self.tick += 1
            self.lru[version] = self.tick
        return e

    def put(self, block) -> bool:
        version, locked_by = block.version, block.locked_by
        if not self._fits([version] + ([locked_by] if locked_by is not None else [])):
            return False
        if version in self.entries:
            self.entries[version] = block
            self._evict_until_fits(keep=version)
            self.tick += 1
            self.lru[version] = self.tick
        else:
            while len(self.entries) >= ENTRIES_PER_LINE:
                victim = min(self.lru, key=self.lru.get)
                del self.entries[victim]
                del self.lru[victim]
            self.entries[version] = block
            self.tick += 1
            self.lru[version] = self.tick
            self._evict_until_fits(keep=version)
        self._rebase()
        return True

    def drop(self, version) -> None:
        self.entries.pop(version, None)
        self.lru.pop(version, None)
        self._rebase()


# Versions land in a few windows, often at their edges, so lockers and
# neighbours regularly force window evictions and edge rejections as well
# as capacity evictions.
_offsets = st.one_of(
    st.integers(0, RANGE - 1), st.sampled_from([0, 1, MAX_OFFSET - 1, MAX_OFFSET])
)
_line_op = st.tuples(
    st.sampled_from(["put", "put", "get", "drop"]),
    st.tuples(st.integers(0, 3), _offsets).map(lambda p: p[0] * RANGE + p[1]),
    st.one_of(st.none(), st.integers(-3, 3), st.integers(-RANGE, RANGE)),
)


@given(ops=st.lists(_line_op, max_size=80))
@settings(max_examples=200, deadline=None)
def test_property_line_matches_list_oracle(ops):
    """Random put/get/drop keep the same entries, victims and base as the
    list-building implementation."""
    line, oracle = CompressedLine(), _OracleLine()
    for op, version, lock_delta in ops:
        if op == "put":
            locked_by = None if lock_delta is None else max(0, version + lock_delta)
            block = vb(version, version & 0xFFFF, locked_by)
            assert line.put(block) == oracle.put(block)
        elif op == "get":
            assert line.get(version) is oracle.get(version)
        else:
            line.drop(version)
            oracle.drop(version)
        assert list(line._blocks.items()) == list(oracle.entries.items())
        assert line._lru == oracle.lru
        assert line.base == oracle.base
