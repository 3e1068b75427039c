"""Unit tests for the O-structure manager (direct API, no core in the loop)."""

from __future__ import annotations

import pytest

from repro.config import CacheConfig, MachineConfig
from repro.errors import NotLockedError, ProtectionFault, VersionExistsError
from repro.ostruct.free_list import FreeList
from repro.ostruct.gc import GarbageCollector
from repro.ostruct.manager import OStructureManager, StallSignal
from repro.ostruct.page_table import PageTable
from repro.runtime.allocator import VERSION_BLOCK_BASE, SimHeap
from repro.runtime.task import TaskTracker
from repro.sim.engine import Simulator
from repro.sim.events import EventBus
from repro.sim.hierarchy import MemoryHierarchy
from repro.sim.stats import SimStats


class Rig:
    """A manager wired to real components, driven synchronously."""

    def __init__(self, **cfg_kw):
        self.config = MachineConfig(num_cores=cfg_kw.pop("num_cores", 2), **cfg_kw)
        self.sim = Simulator()
        self.stats = SimStats()
        self.hierarchy = MemoryHierarchy(self.config, self.stats)
        self.page_table = PageTable()
        self.heap = SimHeap(self.page_table)
        self.tracker = TaskTracker()
        self.events = EventBus()
        self.free_list = FreeList(
            base_paddr=VERSION_BLOCK_BASE,
            initial_blocks=self.config.free_list_blocks,
            refill_blocks=self.config.refill_blocks,
            max_refills=None,
            stats=self.stats,
            on_refill_page=self.page_table.mark_versioned,
        )
        self.gc = GarbageCollector(
            free_list=self.free_list,
            tracker=self.tracker,
            hierarchy=self.hierarchy,
            stats=self.stats,
            events=self.events,
            watermark=self.config.gc_watermark,
        )
        self.manager = OStructureManager(
            config=self.config,
            sim=self.sim,
            hierarchy=self.hierarchy,
            page_table=self.page_table,
            free_list=self.free_list,
            gc=self.gc,
            stats=self.stats,
            events=self.events,
        )
        self.addr = self.heap.alloc_versioned(16)


@pytest.fixture
def rig():
    return Rig()


class TestStoreLoad:
    def test_store_then_exact_load(self, rig):
        rig.manager.store_version(0, rig.addr, 1, 111)
        _, value = rig.manager.load_version(0, rig.addr, 1)
        assert value == 111

    def test_all_created_versions_loadable_simultaneously(self, rig):
        for v, val in [(1, 10), (2, 20), (3, 30)]:
            rig.manager.store_version(0, rig.addr, v, val)
        for v, val in [(1, 10), (2, 20), (3, 30)]:
            assert rig.manager.load_version(0, rig.addr, v)[1] == val

    def test_load_uncreated_version_stalls(self, rig):
        rig.manager.store_version(0, rig.addr, 2, 20)
        with pytest.raises(StallSignal):
            rig.manager.load_version(0, rig.addr, 1)

    def test_out_of_sequence_creation(self, rig):
        # Version 2 usable before version 1 exists (the register-renaming analogy).
        rig.manager.store_version(0, rig.addr, 2, 20)
        assert rig.manager.load_version(0, rig.addr, 2)[1] == 20
        rig.manager.store_version(0, rig.addr, 1, 10)
        assert rig.manager.load_version(0, rig.addr, 1)[1] == 10

    def test_store_existing_version_faults(self, rig):
        rig.manager.store_version(0, rig.addr, 1, 10)
        with pytest.raises(VersionExistsError):
            rig.manager.store_version(0, rig.addr, 1, 99)

    def test_duplicate_store_releases_allocated_block(self, rig):
        rig.manager.store_version(0, rig.addr, 1, 10)
        before = rig.free_list.free_count
        with pytest.raises(VersionExistsError):
            rig.manager.store_version(0, rig.addr, 1, 99)
        assert rig.free_list.free_count == before

    def test_load_latest_picks_highest_at_or_below_cap(self, rig):
        for v in [1, 3, 7]:
            rig.manager.store_version(0, rig.addr, v, v * 10)
        assert rig.manager.load_latest(0, rig.addr, 5)[1] == (3, 30)
        assert rig.manager.load_latest(0, rig.addr, 7)[1] == (7, 70)
        assert rig.manager.load_latest(0, rig.addr, 100)[1] == (7, 70)

    def test_load_latest_stalls_when_nothing_at_or_below(self, rig):
        rig.manager.store_version(0, rig.addr, 5, 50)
        with pytest.raises(StallSignal):
            rig.manager.load_latest(0, rig.addr, 4)

    def test_versioned_access_to_conventional_page_faults(self, rig):
        conv = rig.heap.alloc(4)
        with pytest.raises(ProtectionFault):
            rig.manager.load_version(0, conv, 1)
        with pytest.raises(ProtectionFault):
            rig.manager.store_version(0, conv, 1, 0)


class TestLocking:
    def test_lock_load_version(self, rig):
        rig.manager.store_version(0, rig.addr, 1, 10)
        _, value = rig.manager.lock_load_version(0, rig.addr, 1, task_id=5)
        assert value == 10
        assert rig.stats.versions_locked == 1

    def test_locked_version_blocks_exact_load(self, rig):
        rig.manager.store_version(0, rig.addr, 1, 10)
        rig.manager.lock_load_version(0, rig.addr, 1, task_id=5)
        with pytest.raises(StallSignal):
            rig.manager.load_version(1, rig.addr, 1)

    def test_lock_on_other_version_is_ignored_by_exact_load(self, rig):
        rig.manager.store_version(0, rig.addr, 1, 10)
        rig.manager.store_version(0, rig.addr, 2, 20)
        rig.manager.lock_load_version(0, rig.addr, 2, task_id=5)
        # Version 1 unaffected by the lock on version 2 (paper, Section II-A).
        assert rig.manager.load_version(1, rig.addr, 1)[1] == 10

    def test_locked_latest_blocks_capped_load(self, rig):
        rig.manager.store_version(0, rig.addr, 3, 30)
        rig.manager.lock_load_latest(0, rig.addr, 10, task_id=5)
        with pytest.raises(StallSignal):
            rig.manager.load_latest(1, rig.addr, 10)

    def test_double_lock_stalls(self, rig):
        rig.manager.store_version(0, rig.addr, 1, 10)
        rig.manager.lock_load_version(0, rig.addr, 1, task_id=5)
        with pytest.raises(StallSignal):
            rig.manager.lock_load_version(1, rig.addr, 1, task_id=6)

    def test_unlock_releases(self, rig):
        rig.manager.store_version(0, rig.addr, 1, 10)
        rig.manager.lock_load_version(0, rig.addr, 1, task_id=5)
        rig.manager.unlock_version(0, rig.addr, 1, task_id=5)
        assert rig.manager.load_version(1, rig.addr, 1)[1] == 10

    def test_unlock_by_non_holder_faults(self, rig):
        rig.manager.store_version(0, rig.addr, 1, 10)
        rig.manager.lock_load_version(0, rig.addr, 1, task_id=5)
        with pytest.raises(NotLockedError):
            rig.manager.unlock_version(0, rig.addr, 1, task_id=6)

    def test_unlock_unlocked_version_faults(self, rig):
        rig.manager.store_version(0, rig.addr, 1, 10)
        with pytest.raises(NotLockedError):
            rig.manager.unlock_version(0, rig.addr, 1, task_id=5)

    def test_unlock_nonexistent_version_faults(self, rig):
        with pytest.raises(NotLockedError):
            rig.manager.unlock_version(0, rig.addr, 9, task_id=5)

    def test_unlock_with_rename_creates_new_unlocked_version(self, rig):
        rig.manager.store_version(0, rig.addr, 1, 10)
        rig.manager.lock_load_version(0, rig.addr, 1, task_id=5)
        rig.manager.unlock_version(0, rig.addr, 1, task_id=5, new_version=2)
        # The renamed version carries the same value and is unlocked.
        assert rig.manager.load_version(1, rig.addr, 2)[1] == 10
        assert rig.manager.versions_of(rig.addr) == [2, 1]


class TestWaiters:
    def test_store_notifies_waiters(self, rig):
        woken = []
        rig.manager.add_waiter(rig.addr, lambda: woken.append("w"))
        rig.manager.store_version(0, rig.addr, 1, 10)
        rig.sim.run()
        assert woken == ["w"]

    def test_unlock_notifies_waiters(self, rig):
        rig.manager.store_version(0, rig.addr, 1, 10)
        rig.manager.lock_load_version(0, rig.addr, 1, task_id=5)
        woken = []
        rig.manager.add_waiter(rig.addr, lambda: woken.append("w"))
        rig.manager.unlock_version(0, rig.addr, 1, task_id=5)
        rig.sim.run()
        assert woken == ["w"]

    def test_waiters_are_one_shot(self, rig):
        woken = []
        rig.manager.add_waiter(rig.addr, lambda: woken.append("w"))
        rig.manager.store_version(0, rig.addr, 1, 10)
        rig.manager.store_version(0, rig.addr, 2, 20)
        rig.sim.run()
        assert woken == ["w"]

    def test_waiter_report(self, rig):
        rig.manager.add_waiter(rig.addr, lambda: None)
        report = rig.manager.blocked_waiter_report()
        assert len(report) == 1 and "1 waiter" in report[0]


class TestDirectAccess:
    def test_repeat_load_hits_compressed_line(self, rig):
        rig.manager.store_version(0, rig.addr, 1, 10)
        rig.manager.load_version(0, rig.addr, 1)
        before = rig.stats.direct_hits
        lat, _ = rig.manager.load_version(0, rig.addr, 1)
        assert rig.stats.direct_hits == before + 1
        assert lat == rig.config.l1.hit_latency  # single L1 access

    def test_direct_access_disabled_without_compression(self):
        rig = Rig(compression_enabled=False)
        rig.manager.store_version(0, rig.addr, 1, 10)
        rig.manager.load_version(0, rig.addr, 1)
        rig.manager.load_version(0, rig.addr, 1)
        assert rig.stats.direct_hits == 0
        assert rig.stats.full_lookups >= 2

    def test_other_core_misses_direct_and_walks(self, rig):
        rig.manager.store_version(0, rig.addr, 1, 10)
        before = rig.stats.full_lookups
        rig.manager.load_version(1, rig.addr, 1)
        assert rig.stats.full_lookups == before + 1

    def test_remote_store_discards_compressed_line(self, rig):
        rig.manager.store_version(0, rig.addr, 1, 10)
        rig.manager.load_version(0, rig.addr, 1)  # core 0 has direct entry
        rig.manager.store_version(1, rig.addr, 2, 20)  # exclusive write by core 1
        before = rig.stats.direct_hits
        rig.manager.load_version(0, rig.addr, 1)
        # Core 0's compressed line was invalidated: full lookup again.
        assert rig.stats.direct_hits == before

    def test_direct_latest_answers_only_when_head_cached(self, rig):
        for v in [1, 5]:
            rig.manager.store_version(0, rig.addr, v, v)
        rig.manager.load_latest(0, rig.addr, 10)  # caches head (5)
        before = rig.stats.direct_hits
        _, (version, _) = rig.manager.load_latest(0, rig.addr, 10)
        assert version == 5
        assert rig.stats.direct_hits == before + 1
        # A cap below the head cannot be answered directly unless exact.
        with pytest.raises(StallSignal):
            rig.manager.load_latest(0, rig.addr, 0)

    def test_pollution_avoidance_keeps_traversed_blocks_out(self):
        rig = Rig()
        # Create a long list, then look up the tail version from a cold cache.
        for v in range(1, 30):
            rig.manager.store_version(0, rig.addr, v, v)
        rig.hierarchy.flush_all()
        rig.manager._direct[0].clear()
        rig.manager.load_version(0, rig.addr, 1)  # walks the whole list
        lst = rig.manager.lists[rig.addr]
        found_line = next(b.paddr >> 6 for b in lst if b.version == 1)
        l1 = rig.hierarchy.l1s[0]
        for b in lst:
            line = b.paddr >> 6
            if line == found_line:
                assert l1.contains(line)  # the requested version installs
            else:
                assert not l1.contains(line)  # traversed blocks do not

    def test_pollution_avoidance_off_installs_traversed_blocks(self):
        rig = Rig(pollution_avoidance=False)
        for v in range(1, 10):
            rig.manager.store_version(0, rig.addr, v, v)
        rig.hierarchy.flush_all()
        rig.manager._direct[0].clear()
        rig.manager.load_version(0, rig.addr, 1)
        lst = rig.manager.lists[rig.addr]
        l1 = rig.hierarchy.l1s[0]
        assert all(l1.contains(b.paddr >> 6) for b in lst)

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="known modelling fault: a compressed line is filled while its "
        "root block is absent from the L1 and survives the block's re-install",
    )
    def test_no_direct_hit_for_version_cached_while_root_absent(self):
        # In a direct-mapped L1 the new block's write-allocate can evict
        # the root line the store just fetched; the version is then cached
        # in a compressed line that no L1 holds (Section III-A).
        rig = Rig(num_cores=1, l1=CacheConfig(size_bytes=1024, ways=1, hit_latency=4))
        l1 = rig.hierarchy.l1s[0]
        root = rig.addr >> 6
        for v in range(1, 200):
            rig.manager.store_version(0, rig.addr, v, v)
            if not l1.contains(root):
                break
        else:
            pytest.fail("no store evicted the root line")
        # A full lookup of an older version re-installs the root line.
        rig.manager.load_version(0, rig.addr, v - 1)
        assert l1.contains(root)
        before = rig.stats.direct_hits
        rig.manager.load_version(0, rig.addr, v)
        assert rig.stats.direct_hits == before, (
            f"v{v} was cached while the root line was absent, yet served "
            f"as a direct hit"
        )


class TestLifecycle:
    def test_free_ostructure_returns_blocks(self, rig):
        for v in range(1, 6):
            rig.manager.store_version(0, rig.addr, v, v)
        before = rig.free_list.free_count
        freed = rig.manager.free_ostructure(rig.addr)
        assert freed == 5
        assert rig.free_list.free_count == before + 5
        assert rig.manager.versions_of(rig.addr) == []

    def test_free_with_locked_version_faults(self, rig):
        rig.manager.store_version(0, rig.addr, 1, 10)
        rig.manager.lock_load_version(0, rig.addr, 1, task_id=3)
        with pytest.raises(ProtectionFault):
            rig.manager.free_ostructure(rig.addr)

    def test_free_with_waiters_faults(self, rig):
        rig.manager.store_version(0, rig.addr, 1, 10)
        rig.manager.add_waiter(rig.addr, lambda: None)
        with pytest.raises(ProtectionFault):
            rig.manager.free_ostructure(rig.addr)

    def test_free_unknown_address_is_zero(self, rig):
        assert rig.manager.free_ostructure(rig.addr + 4) == 0

    def test_address_reusable_after_free(self, rig):
        rig.manager.store_version(0, rig.addr, 1, 10)
        rig.manager.free_ostructure(rig.addr)
        rig.manager.store_version(0, rig.addr, 1, 99)
        assert rig.manager.load_version(0, rig.addr, 1)[1] == 99

    def test_head_bit_check_faults_on_interior_entry(self, rig):
        for v in [1, 2]:
            rig.manager.store_version(0, rig.addr, v, v)
        interior = rig.manager.lists[rig.addr].head.next
        with pytest.raises(ProtectionFault):
            rig.manager.check_head(interior)
