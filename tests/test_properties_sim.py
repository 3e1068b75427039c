"""Property-based tests of the simulator substrate against pure models."""

from __future__ import annotations

from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import VERSION_BLOCK_SIZE, CacheConfig, MachineConfig
from repro.errors import FreeListExhausted
from repro.ostruct.free_list import REFILL_TRAP_CYCLES, FreeList
from repro.ostruct.page_table import PageTable
from repro.sim.cache import Cache
from repro.sim.hierarchy import MemoryHierarchy
from repro.sim.stats import SimStats


class _LRUModel:
    """Oracle: per-set OrderedDict LRU over explicit way slots.

    A fill takes the lowest free way, so the model also knows the order
    ``flush()`` and ``resident()`` report blocks in: set by set, way by
    way.
    """

    def __init__(self, sets: int, ways: int):
        self.lru = [OrderedDict() for _ in range(sets)]
        self.slots: list[list[int | None]] = [[None] * ways for _ in range(sets)]
        self.dirty: dict[int, bool] = {}
        self.dropped: list[int] = []

    def _set(self, block: int) -> int:
        return block % len(self.lru)

    def lookup(self, block: int) -> bool:
        s = self.lru[self._set(block)]
        if block in s:
            s.move_to_end(block)
            return True
        return False

    def contains(self, block: int) -> bool:
        return block in self.lru[self._set(block)]

    def _drop(self, block: int) -> None:
        k = self._set(block)
        del self.lru[k][block]
        self.slots[k][self.slots[k].index(block)] = None
        del self.dirty[block]
        self.dropped.append(block)

    def insert(self, block: int, dirty: bool) -> int | None:
        k = self._set(block)
        s = self.lru[k]
        victim = None
        if block in s:
            self.dirty[block] = self.dirty[block] or dirty
        else:
            if None not in self.slots[k]:
                victim = next(iter(s))
                self._drop(victim)
            self.slots[k][self.slots[k].index(None)] = block
            self.dirty[block] = dirty
        s[block] = True
        s.move_to_end(block)
        return victim

    def mark_dirty(self, block: int) -> None:
        if self.contains(block):
            self.dirty[block] = True

    def is_dirty(self, block: int) -> bool:
        return self.dirty.get(block, False)

    def invalidate(self, block: int) -> bool:
        if not self.contains(block):
            return False
        self._drop(block)
        return True

    def resident(self) -> list[int]:
        return [b for ways in self.slots for b in ways if b is not None]


_GEOMETRIES = st.sampled_from([(4, 4), (1, 2), (16, 2), (64, 8)])  # (sets, ways)


@given(geometry=_GEOMETRIES, data=st.data())
@settings(max_examples=150, deadline=None)
def test_property_cache_matches_lru_oracle(geometry, data):
    """Hit/miss/eviction, dirty bits and evict-hook order (including the
    order ``flush()`` empties the cache in) equal a textbook LRU."""
    sets, ways = geometry
    cfg = CacheConfig(size_bytes=sets * ways * 64, ways=ways, hit_latency=1)
    cache = Cache(cfg)
    dropped: list[int] = []
    cache.evict_hook = dropped.append
    model = _LRUModel(sets, ways)
    blocks = st.integers(0, 3 * sets * ways)
    ops = data.draw(st.lists(st.tuples(
        st.sampled_from(
            ["lookup", "insert", "insert_dirty", "invalidate", "mark_dirty",
             "is_dirty", "contains"]
        ),
        blocks,
    ), max_size=200))
    for op, block in ops:
        if op == "insert":
            assert cache.insert(block) == model.insert(block, False)
        elif op == "insert_dirty":
            assert cache.insert(block, dirty=True) == model.insert(block, True)
        elif op == "mark_dirty":
            cache.mark_dirty(block)
            model.mark_dirty(block)
        else:
            assert getattr(cache, op)(block) == getattr(model, op)(block)
        assert dropped == model.dropped
    assert cache.resident() == model.resident()
    assert cache.resident_blocks == len(model.resident())
    for block in model.resident():
        assert cache.is_dirty(block) == model.is_dirty(block)
    before = len(dropped)
    cache.flush()
    assert dropped[before:] == model.resident()
    assert cache.resident() == [] and cache.resident_blocks == 0


class _EagerFreeList:
    """Oracle: the free list as one materialised stack of paddrs."""

    def __init__(self, base, initial, refill, max_refills, on_refill_page):
        self.free: list[int] = []
        self.bump = base
        self.refill = refill
        self.refills_left = max_refills
        self.refills = 0
        self.on_refill_page = on_refill_page
        self._carve(initial)

    def _carve(self, n: int) -> None:
        start = self.bump
        for _ in range(n):
            self.free.append(self.bump)
            self.bump += VERSION_BLOCK_SIZE
        self.on_refill_page(start, n * VERSION_BLOCK_SIZE)

    def allocate(self) -> tuple[int, int]:
        if not self.free:
            if self.refills_left is not None and self.refills_left <= 0:
                raise FreeListExhausted("empty")
            if self.refills_left is not None:
                self.refills_left -= 1
            self._carve(self.refill)
            self.refills += 1
            return self.free.pop(), REFILL_TRAP_CYCLES
        return self.free.pop(), 0

    def release(self, paddr: int) -> None:
        self.free.append(paddr)

    def drain(self, leave: int) -> int:
        dropped = max(0, len(self.free) - max(0, leave))
        if dropped:
            del self.free[len(self.free) - dropped :]
        return dropped


_free_list_op = st.one_of(
    st.tuples(st.just("allocate"), st.just(0)),
    st.tuples(st.just("allocate"), st.just(0)),
    st.tuples(st.just("release"), st.integers(0, 50)),
    st.tuples(st.just("drain"), st.integers(-1, 6)),
    st.tuples(st.just("budget"), st.one_of(st.none(), st.integers(0, 3))),
)


@given(
    initial=st.integers(1, 6),
    refill=st.integers(1, 4),
    max_refills=st.one_of(st.none(), st.integers(0, 3)),
    ops=st.lists(_free_list_op, max_size=120),
)
@settings(max_examples=200, deadline=None)
def test_property_free_list_matches_eager_stack(initial, refill, max_refills, ops):
    """The lazily carved free list pops, refills, drains and exhausts
    exactly like an eagerly filled stack."""
    base = 0x8000_0000
    lazy_pages, eager_pages = PageTable(), PageTable()
    stats = SimStats()
    fl = FreeList(
        base_paddr=base, initial_blocks=initial, refill_blocks=refill,
        max_refills=max_refills, stats=stats,
        on_refill_page=lazy_pages.mark_versioned,
    )
    ref = _EagerFreeList(base, initial, refill, max_refills, eager_pages.mark_versioned)
    held: list[int] = []
    for op, arg in ops:
        if op == "allocate":
            try:
                got = fl.allocate()
            except FreeListExhausted:
                with pytest.raises(FreeListExhausted):
                    ref.allocate()
            else:
                assert got == ref.allocate()
                held.append(got[0])
        elif op == "release":
            if held:
                paddr = held.pop(arg % len(held))
                fl.release(paddr)
                ref.release(paddr)
        elif op == "drain":
            assert fl.drain(leave=arg) == ref.drain(arg)
        else:
            fl.set_refill_budget(arg)
            ref.refills_left = arg
        assert fl.free_count == len(ref.free)
        assert fl.paddrs() == ref.free
        assert fl.refills_left == ref.refills_left
        assert stats.free_list_refills == ref.refills
        assert lazy_pages._versioned_pages == eager_pages._versioned_pages


@given(
    accesses=st.lists(
        st.tuples(
            st.integers(0, 3),               # core
            st.integers(0, 40),              # line index
            st.booleans(),                   # write?
        ),
        max_size=300,
    )
)
@settings(max_examples=100, deadline=None)
def test_property_directory_consistent_with_l1_contents(accesses):
    """After any access sequence: directory sharers == actual L1 residency,
    and a written line never stays in two L1s."""
    cfg = MachineConfig(num_cores=4)
    h = MemoryHierarchy(cfg, SimStats())
    for core, line, write in accesses:
        h.access(core, line * 64, write=write)
        if write:
            block = line
            holders = [i for i, l1 in enumerate(h.l1s) if l1.contains(block)]
            assert holders == [core]
    for block in range(41):
        holders = {i for i, l1 in enumerate(h.l1s) if l1.contains(block)}
        assert h.directory.sharers_of(block) == holders


@given(
    stores=st.lists(
        st.tuples(st.integers(0, 3), st.integers(1, 60)),  # (addr idx, version)
        min_size=1,
        max_size=120,
    ),
    phase_points=st.sets(st.integers(0, 119), max_size=6),
)
@settings(max_examples=100, deadline=None)
def test_property_gc_never_reclaims_latest_or_future_reads(stores, phase_points):
    """Random store sequences with GC phases at random points: after every
    phase, every address still answers LOAD-LATEST(inf) with its true
    latest version, and lists stay structurally sound."""
    from tests.test_manager import Rig

    rig = Rig(free_list_blocks=4096, gc_watermark=0)
    latest: dict[int, int] = {}
    seen: dict[int, set[int]] = {}
    for i, (idx, version) in enumerate(stores):
        addr = rig.addr + 4 * idx
        if version in seen.setdefault(idx, set()):
            continue
        seen[idx].add(version)
        rig.manager.store_version(0, addr, version, version * 7)
        latest[idx] = max(latest.get(idx, -1), version)
        if i in phase_points:
            rig.gc.start_phase()
    rig.gc.start_phase()
    for idx, v in latest.items():
        addr = rig.addr + 4 * idx
        _, (got_v, got_val) = rig.manager.load_latest(0, addr, 1 << 30)
        assert got_v == v
        assert got_val == v * 7
        rig.manager.lists[addr].check_invariants()
