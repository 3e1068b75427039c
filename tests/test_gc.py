"""Tests for the shadowed/pending-list garbage collector (Section III-B)."""

from __future__ import annotations

import pytest

from repro.config import MachineConfig
from repro.errors import SimulationError
from tests.test_manager import Rig


@pytest.fixture
def rig():
    # Small free list so watermark logic is reachable.
    return Rig(free_list_blocks=64, gc_watermark=8)


def stored(rig, n, start=1):
    for v in range(start, start + n):
        rig.manager.store_version(0, rig.addr, v, v)


class TestShadowRegistration:
    def test_new_version_shadows_previous(self, rig):
        stored(rig, 2)
        assert rig.gc.shadowed_count == 1
        assert rig.stats.shadowed_registered == 1

    def test_first_version_shadows_nothing(self, rig):
        stored(rig, 1)
        assert rig.gc.shadowed_count == 0

    def test_block_registered_only_once(self, rig):
        stored(rig, 2)
        # Re-registering the same block is a no-op.
        lst = rig.manager.lists[rig.addr]
        old = next(b for b in lst if b.version == 1)
        rig.gc.register_shadowed(old, lst, 2)
        assert rig.gc.shadowed_count == 1

    def test_rename_on_unlock_shadows_old_version(self, rig):
        stored(rig, 1)
        rig.manager.lock_load_version(0, rig.addr, 1, task_id=1)
        rig.manager.unlock_version(0, rig.addr, 1, task_id=1, new_version=2)
        assert rig.gc.shadowed_count == 1


class TestPhases:
    def test_phase_reclaims_when_no_active_tasks(self, rig):
        stored(rig, 5)  # versions 1..5; 1..4 shadowed
        before = rig.free_list.free_count
        rig.gc.start_phase()
        assert rig.stats.gc_phases == 1
        assert rig.stats.gc_reclaimed == 4
        assert rig.free_list.free_count == before + 4
        assert rig.manager.versions_of(rig.addr) == [5]

    def test_phase_waits_for_old_tasks(self, rig):
        rig.tracker.begin(1)
        stored(rig, 3)  # task 1 still active
        rig.gc.start_phase()
        # Pending: v1 (shadowed by 2) and v2 (shadowed by 3), so the
        # recorded bound is 3; oldest active = 1: no reclaim.
        assert rig.gc.pending_count == 2
        assert rig.stats.gc_reclaimed == 0
        rig.tracker.begin(2)
        rig.tracker.end(1)
        # Oldest active (2) still at or below the bound (readers of v2
        # can hold any id below its shadower, 3): still held.
        assert rig.stats.gc_reclaimed == 0
        rig.tracker.begin(4)
        rig.tracker.end(2)
        # Oldest active (4) is now above the bound: finalized.
        assert rig.stats.gc_reclaimed == 2
        assert rig.gc.pending_count == 0
        rig.tracker.end(4)

    def test_versions_shadowed_during_phase_wait_for_next(self, rig):
        rig.tracker.begin(1)
        stored(rig, 2)  # shadowed: version 1
        rig.gc.start_phase()
        stored(rig, 1, start=3)  # shadows version 2 mid-phase
        assert rig.gc.shadowed_count == 1  # version 2 parked in shadowed list
        assert rig.gc.pending_count == 1  # version 1 pending
        rig.tracker.begin(3)  # above v1's shadower (2): does not hold it
        rig.tracker.end(1)
        assert rig.stats.gc_reclaimed == 1  # only version 1
        assert sorted(rig.manager.versions_of(rig.addr), reverse=True) == [3, 2]
        rig.tracker.end(3)

    def test_locked_pending_block_is_kept(self, rig):
        stored(rig, 2)
        rig.manager.lock_load_version(0, rig.addr, 1, task_id=7)
        rig.gc.start_phase()
        assert rig.stats.gc_reclaimed == 0
        assert rig.gc.shadowed_count == 1  # returned to shadowed list
        assert rig.manager.versions_of(rig.addr) == [2, 1]

    def test_reclaimed_version_no_longer_loadable(self, rig):
        from repro.ostruct.manager import StallSignal

        stored(rig, 3)
        rig.gc.start_phase()
        with pytest.raises(StallSignal):
            rig.manager.load_version(0, rig.addr, 1)
        # Latest still fine.
        assert rig.manager.load_latest(0, rig.addr, 10)[1] == (3, 3)

    def test_reclaim_drops_compressed_entries(self, rig):
        stored(rig, 3)
        rig.manager.load_version(0, rig.addr, 1)  # caches version 1
        rig.gc.start_phase()
        line = rig.manager._direct[0][rig.addr >> 6][rig.addr]
        assert line.versions() == [3]

    def test_watermark_triggers_phase(self):
        rig = Rig(free_list_blocks=16, gc_watermark=8)
        stored(rig, 12)  # free list drops below 8 along the way
        assert rig.stats.gc_phases >= 1
        # With no active tasks the phases finalize immediately.
        assert rig.stats.gc_reclaimed > 0

    def test_no_trigger_above_watermark(self):
        rig = Rig(free_list_blocks=1024, gc_watermark=4)
        stored(rig, 10)
        assert rig.stats.gc_phases == 0

    def test_disabled_collector_never_triggers(self):
        rig = Rig(free_list_blocks=16, gc_watermark=8)
        rig.gc.enabled = False
        stored(rig, 12)
        assert rig.stats.gc_phases == 0

    def test_start_phase_idempotent_while_active(self, rig):
        rig.tracker.begin(1)
        stored(rig, 3)
        rig.gc.start_phase()
        rig.gc.start_phase()  # already active: no-op
        assert rig.stats.gc_phases == 1
        rig.tracker.end(1)


class TestSafety:
    def test_gc_never_reclaims_reachable_version(self):
        """Versions readable by an active task survive collection.

        Task 3 is active; versions 1 and 2 exist with 2 shadowing 1.  Any
        phase started now must not reclaim version 2 (task 3 may read it
        via LOAD-LATEST), and once finalization waits for task 3's end,
        version 1 is also protected until then.
        """
        rig = Rig(free_list_blocks=64, gc_watermark=8)
        rig.tracker.begin(3)
        rig.manager.store_version(0, rig.addr, 1, 10)
        rig.manager.store_version(0, rig.addr, 2, 20)
        rig.gc.start_phase()
        # Task 3 can still load-latest and must see version 2.
        assert rig.manager.load_latest(0, rig.addr, 3)[1] == (2, 20)
        rig.tracker.end(3)

    def test_stress_many_locations(self):
        rig = Rig(free_list_blocks=128, gc_watermark=16)
        addrs = [rig.addr + 4 * i for i in range(8)]
        for round_ in range(1, 40):
            for a in addrs:
                rig.manager.store_version(0, a, round_, round_)
        # GC ran and every location's latest version survived.
        assert rig.stats.gc_phases >= 1
        for a in addrs:
            assert rig.manager.load_latest(0, a, 100)[1] == (39, 39)
        for a in addrs:
            rig.manager.lists[a].check_invariants()


class TestTracker:
    def test_rule3_enforced(self, rig):
        rig.tracker.begin(5)
        with pytest.raises(SimulationError):
            rig.tracker.begin(4)
        rig.tracker.begin(6)  # above the floor: fine
        rig.tracker.end(5)
        rig.tracker.end(6)

    def test_double_begin_rejected(self, rig):
        rig.tracker.begin(5)
        with pytest.raises(SimulationError):
            rig.tracker.begin(5)

    def test_end_of_inactive_rejected(self, rig):
        with pytest.raises(SimulationError):
            rig.tracker.end(9)

    def test_window_queries(self, rig):
        t = rig.tracker
        assert t.lowest_active() is None and t.highest_active() is None
        t.begin(3)
        t.begin(7)
        assert t.lowest_active() == 3 and t.highest_active() == 7
        assert t.max_seen == 7
        t.end(3)
        assert t.lowest_active() == 7


class TestFinalizeEdges:
    """Edge cases of ``_finalize``: kept blocks, bounds, freed addresses."""

    def test_kept_locked_block_recollected_after_unlock(self, rig):
        stored(rig, 2)
        rig.manager.lock_load_version(0, rig.addr, 1, task_id=7)
        rig.gc.start_phase()  # v1 locked -> kept for a later phase
        assert rig.stats.gc_reclaimed == 0
        assert rig.gc.shadowed_count == 1
        assert not rig.gc.phase_active
        rig.manager.unlock_version(0, rig.addr, 1, task_id=7)
        rig.gc.start_phase()
        assert rig.stats.gc_reclaimed == 1
        assert rig.manager.versions_of(rig.addr) == [2]

    def test_kept_head_block_recollected_once_shadowed_again(self, rig):
        stored(rig, 1)
        lst = rig.manager.lists[rig.addr]
        # Defensive path: queue the current head (never happens through
        # store_version, but _finalize must refuse to reclaim a head).
        rig.gc.register_shadowed(lst.head, lst, 2)
        rig.gc.start_phase()
        assert rig.stats.gc_reclaimed == 0
        assert rig.gc.shadowed_count == 1
        stored(rig, 1, start=2)  # now v1 really is shadowed by v2
        rig.gc.start_phase()
        assert rig.stats.gc_reclaimed == 1
        assert rig.manager.versions_of(rig.addr) == [2]

    def test_phase_with_no_active_tasks_bounds_by_max_seen(self, rig):
        t = rig.tracker
        t.register(2)
        t.register(3)
        t.begin(3)
        stored(rig, 3)
        t.end(3)
        # No task is *executing*, but queued task 2 is live and max_seen
        # is 3: the phase must hold its pending blocks for task 2.
        rig.gc.start_phase()
        assert rig.gc.phase_active
        assert rig.stats.gc_reclaimed == 0
        t.begin(2)
        assert rig.manager.load_latest(0, rig.addr, 2)[1] == (2, 2)
        t.end(2)
        assert rig.stats.gc_reclaimed == 2
        assert not rig.gc.phase_active

    def test_ended_high_task_still_bounds_phase(self, rig):
        # Regression: the phase bound must be max_seen, not the highest
        # *currently active* id.  Task 3 begins, shadows v1, and ends
        # before the phase starts; queued task 2 can still reach v1 via
        # LOAD-LATEST(2), so v1 must survive until task 2 ends.
        t = rig.tracker
        for tid in (1, 2, 3):
            t.register(tid)
        t.begin(1)
        t.begin(3)
        rig.manager.store_version(0, rig.addr, 1, "a")
        rig.manager.store_version(0, rig.addr, 3, "c")  # shadows v1
        t.end(3)
        rig.gc.start_phase()
        t.end(1)
        assert rig.stats.gc_reclaimed == 0
        assert rig.gc.pending_count == 1
        assert rig.manager.load_latest(0, rig.addr, 2)[1] == (1, "a")
        t.begin(2)
        t.end(2)
        assert rig.stats.gc_reclaimed == 1
        assert rig.manager.versions_of(rig.addr) == [3]


class TestFreeInteraction:
    """free_ostructure must purge GC queues (double-release regression)."""

    def test_free_purges_shadowed_list(self, rig):
        rig.tracker.begin(1)
        stored(rig, 3)
        assert rig.gc.shadowed_count == 2
        rig.manager.free_ostructure(rig.addr)
        assert rig.gc.shadowed_count == 0
        before = rig.free_list.free_count
        rig.gc.start_phase()  # nothing shadowed: no-op
        rig.tracker.end(1)
        assert rig.stats.gc_reclaimed == 0
        assert rig.free_list.free_count == before
        free = rig.free_list.paddrs()
        assert len(free) == len(set(free))

    def test_free_during_phase_purges_pending(self, rig):
        rig.tracker.begin(1)
        stored(rig, 3)
        rig.gc.start_phase()
        assert rig.gc.pending_count == 2
        rig.manager.free_ostructure(rig.addr)
        assert rig.gc.pending_count == 0
        before = rig.free_list.free_count
        rig.tracker.begin(2)
        rig.tracker.end(1)  # phase finalizes with an empty pending list
        assert not rig.gc.phase_active
        assert rig.stats.gc_reclaimed == 0
        assert rig.free_list.free_count == before
        free = rig.free_list.paddrs()
        assert len(free) == len(set(free))

    def test_forget_address_returns_purge_count(self, rig):
        rig.tracker.begin(1)
        stored(rig, 4)
        assert rig.gc.forget_address(rig.addr) == 3
        assert rig.gc.forget_address(rig.addr) == 0


class TestMemoSafety:
    """A core's compressed line must never serve a reclaimed or freed block."""

    def test_reclaimed_version_not_served_from_memo(self, rig):
        stored(rig, 3)
        # Prime core 0's compressed line with v1.
        assert rig.manager.load_version(0, rig.addr, 1)[1] == 1
        rig.gc.start_phase()  # reclaims v1 and v2
        assert rig.stats.gc_reclaimed == 2
        from repro.ostruct.manager import StallSignal

        with pytest.raises(StallSignal):
            rig.manager.load_version(0, rig.addr, 1)
        with pytest.raises(StallSignal):
            rig.manager.load_version(0, rig.addr, 2)
        # The surviving head is still served, through any path.
        assert rig.manager.load_version(0, rig.addr, 3)[1] == 3

    def test_memo_not_stale_after_free_and_realloc(self, rig):
        stored(rig, 2)
        assert rig.manager.load_version(0, rig.addr, 1)[1] == 1
        rig.manager.free_ostructure(rig.addr)
        # Same vaddr, new structure: core 0's old compressed line must
        # not leak the freed block's value.
        rig.manager.store_version(0, rig.addr, 1, "fresh")
        assert rig.manager.load_version(0, rig.addr, 1)[1] == "fresh"
