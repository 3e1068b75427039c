"""Tests for the structural invariant checker.

Each test seeds one specific corruption into otherwise-healthy machine
state and asserts ``check_invariants`` names it.  The corruptions mirror
the real failure modes the checker exists for: stale compressed-line
entries after a reclaim, replaced cached blocks, double-released paddrs, GC
queue entries outliving their list.
"""

from __future__ import annotations

import pytest

from repro import Machine, MachineConfig
from repro.check import check_invariants
from repro.ostruct.version_block import VersionBlock


@pytest.fixture
def m() -> Machine:
    return Machine(MachineConfig(num_cores=2, gc_watermark=0))


def primed(m: Machine, versions: int = 3) -> int:
    addr = m.heap.alloc_versioned(4)
    for v in range(1, versions + 1):
        m.manager.store_version(0, addr, v, f"val{v}")
    return addr


class TestHealthy:
    def test_fresh_machine(self, m):
        assert check_invariants(m) == []

    def test_after_traffic(self, m):
        addr = primed(m)
        m.manager.load_version(0, addr, 1)
        m.manager.load_latest(1, addr, 99)
        m.manager.lock_load_version(0, addr, 2, task_id=5)
        assert check_invariants(m) == []

    def test_after_gc_phase(self, m):
        primed(m)
        m.gc.start_phase()  # reclaims the two shadowed versions
        assert m.stats.gc_reclaimed == 2
        assert check_invariants(m) == []

    def test_after_free(self, m):
        addr = primed(m)
        m.manager.free_ostructure(addr)
        assert check_invariants(m) == []


class TestCorruptions:
    def test_unsorted_version_list(self, m):
        addr = primed(m)
        lst = m.manager.lists[addr]
        # Swap the stored version ids so the list order is wrong.
        lst.head.version, lst.head.next.version = (
            lst.head.next.version,
            lst.head.version,
        )
        assert any("version list" in p for p in check_invariants(m))

    def test_duplicate_free_paddr(self, m):
        primed(m)
        m.free_list.release(m.free_list.paddrs()[0])
        assert any("duplicate paddrs" in p for p in check_invariants(m))

    def test_linked_block_on_free_list(self, m):
        addr = primed(m)
        m.free_list.release(m.manager.lists[addr].head.paddr)
        assert any("both linked" in p for p in check_invariants(m))

    def test_stale_compressed_entry_after_removal(self, m):
        # The exact shape of the "skipped invalidation on reclaim" bug.
        addr = primed(m)
        lst = m.manager.lists[addr]
        block, _ = lst.find_exact(1)
        lst.remove(block)
        problems = check_invariants(m)
        assert any("reclaimed" in p for p in problems)

    def test_replaced_compressed_entry(self, m):
        # A line caching a different block than the one linked under the
        # same version would serve a value the list no longer holds.
        addr = primed(m)
        line = m.manager._direct[0][addr >> 6][addr]
        impostor = VersionBlock(2, "forged", 0)
        line.put(impostor)
        assert line.get(2) is impostor
        problems = check_invariants(m)
        assert any("v2" in p and "replaced" in p for p in problems)

    def test_compressed_entry_outlives_free(self, m):
        addr = primed(m)
        # Free behind the compressed caches' back.
        lines = m.manager._direct[0][addr >> 6]
        saved = dict(lines)
        m.manager.free_ostructure(addr)
        lines.update(saved)
        assert any("outlives" in p for p in check_invariants(m))

    def test_gc_entry_paddr_freed(self, m):
        primed(m)
        assert m.gc.shadowed_count == 2
        block, _ = m.gc._shadowed[0]
        m.free_list.release(block.paddr)
        assert any(
            "already on the free list" in p for p in check_invariants(m)
        )

    def test_gc_entry_detached(self, m):
        addr = primed(m)
        lst = m.manager.lists[addr]
        block, _ = m.gc._shadowed[0]
        lst.remove(block)
        assert any("detached" in p for p in check_invariants(m))

    def test_gc_entry_lost_flag(self, m):
        primed(m)
        block, _ = m.gc._shadowed[0]
        block.shadowed = False
        assert any("shadowed flag" in p for p in check_invariants(m))

    def test_waiter_on_non_versioned_page(self, m):
        m.manager._waiters[0x10] = [lambda: None]
        assert any("non-versioned" in p for p in check_invariants(m))
