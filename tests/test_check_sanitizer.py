"""End-to-end sanitizer tests: clean runs, fault injection, reporting.

The fault-injection tests are the acceptance criterion for the sanitizer:
each one disables a specific piece of correctness machinery (memo/cache
invalidation on GC reclaim, the GC age bound) and asserts the sanitizer
catches the resulting misbehaviour that a plain run would silently
accept.
"""

from __future__ import annotations

import pickle

import pytest

from repro import Machine, MachineConfig, Task, Versioned
from repro.check import CheckViolation
from repro.check.sanitizer import Sanitizer
from repro.ostruct.manager import StallSignal
from repro.sim.events import EVENTS


def small_checked(**kw) -> Machine:
    kw.setdefault("num_cores", 2)
    kw.setdefault("free_list_blocks", 64)
    return Machine(MachineConfig(**kw), checked=True, check_interval=4)


class TestCleanRuns:
    def test_producer_consumer_clean(self):
        m = small_checked()
        cell = Versioned(m.heap.alloc_versioned(1))

        def producer(tid, cell):
            yield cell.store_ver(0, 42)

        def consumer(tid, cell):
            value = yield cell.load_ver(0)
            return value

        tasks = [Task(0, producer, cell), Task(1, consumer, cell)]
        m.submit(tasks)
        m.run()
        assert tasks[1].result == 42
        assert m.sanitizer.ops_checked == 2
        assert m.sanitizer.checkpoints_run >= 1
        assert m.sanitizer.oracle.ops_mirrored == 2

    def test_rename_and_locks_clean(self):
        m = small_checked()
        cell = Versioned(m.heap.alloc_versioned(1))

        def chain(tid, cell):
            yield cell.store_ver(0, 7)
            for v in range(4):
                yield cell.lock_load_ver(v)
                yield cell.unlock_ver(v, v + 1)  # rename: hand-over-hand

        def reader(tid, cell):
            value = yield cell.load_ver(4)
            return value

        tasks = [Task(0, chain, cell), Task(1, reader, cell)]
        m.submit(tasks)
        m.run()
        assert tasks[1].result == 7

    def test_direct_manager_ops_checked(self):
        # The wrappers also guard direct manager calls (no cores involved).
        m = small_checked()
        addr = m.heap.alloc_versioned(4)
        m.manager.store_version(0, addr, 1, "a")
        assert m.manager.load_version(0, addr, 1)[1] == "a"
        with pytest.raises(StallSignal):
            m.manager.load_version(0, addr, 9)
        m.sanitizer.check_now()
        m.sanitizer.finish()

    def test_free_ostructure_mirrored(self):
        m = small_checked()
        addr = m.heap.alloc_versioned(4)
        m.manager.store_version(0, addr, 1, "a")
        m.manager.store_version(0, addr, 2, "b")
        m.manager.free_ostructure(addr)
        assert addr not in m.sanitizer.oracle.tables
        m.sanitizer.finish()


class TestFaultInjection:
    def _primed_machine(self):
        """Three versions; v1 cached in the L1 direct path and memo."""
        m = small_checked(gc_watermark=0)  # no auto phases
        addr = m.heap.alloc_versioned(4)
        for v, val in ((1, "a"), (2, "b"), (3, "c")):
            m.manager.store_version(0, addr, v, val)
        assert m.manager.load_version(0, addr, 1)[1] == "a"
        return m, addr

    def test_skipped_reclaim_invalidation_caught(self):
        # THE acceptance-criterion fault: drop the manager's reclaim callback
        # so GC'd versions linger in compressed lines and the PR-1 memo.
        m, addr = self._primed_machine()
        m.gc.on_reclaim = None
        m.gc.start_phase()  # no live tasks: reclaims v1 and v2 at once
        assert m.stats.gc_reclaimed == 2
        with pytest.raises(CheckViolation) as ei:
            m.manager.load_version(0, addr, 1)
        assert ei.value.kind == "divergence"
        assert any("does not exist" in p for p in ei.value.problems)

    def test_skipped_reclaim_invalidation_fails_invariants_too(self):
        # Even before any load, the stale compressed entry (and memo)
        # violate the structural invariants.
        m, addr = self._primed_machine()
        m.gc.on_reclaim = None
        m.gc.start_phase()
        with pytest.raises(CheckViolation) as ei:
            m.sanitizer.check_now()
        assert ei.value.kind == "invariant-checkpoint"
        assert any("reclaimed" in p for p in ei.value.problems)

    def test_unbroken_machine_stalls_instead(self):
        # Control: with the hook in place the same sequence is clean —
        # the load of the reclaimed version parks on the waiter queue.
        m, addr = self._primed_machine()
        m.gc.start_phase()
        assert m.stats.gc_reclaimed == 2
        with pytest.raises(StallSignal):
            m.manager.load_version(0, addr, 1)
        m.sanitizer.check_now()
        m.sanitizer.finish()

    def test_unsafe_gc_bound_caught(self):
        # Simulate the pre-fix GC bound (highest *active* id instead of
        # max_seen): the reclaim audit must flag the reachable version.
        m = small_checked(gc_watermark=0)
        addr = m.heap.alloc_versioned(4)
        t = m.tracker
        for tid in (1, 2, 3):
            t.register(tid)
        t.begin(1)
        t.begin(3)
        m.manager.store_version(0, addr, 1, "a")
        m.manager.store_version(0, addr, 3, "c")  # shadows v1
        t.end(3)
        m.gc.start_phase()
        t.end(1)
        # Fixed bound (max_seen == 3) holds the block for queued task 2.
        assert m.gc.pending_count == 1
        assert m.stats.gc_reclaimed == 0
        # Re-impose the buggy bound and force finalization.
        m.gc._recorded_youngest = 1  # what highest_active() recorded
        with pytest.raises(CheckViolation) as ei:
            m.gc._try_finalize()
        assert ei.value.kind == "gc-safety"
        assert any("live task 2" in p for p in ei.value.problems)


class TestReporting:
    def _violation(self) -> CheckViolation:
        m = small_checked()
        addr = m.heap.alloc_versioned(4)
        m.manager.store_version(0, addr, 1, "a")
        m.gc.on_reclaim = None
        m.manager.store_version(0, addr, 2, "b")
        m.manager.store_version(0, addr, 3, "c")
        m.gc.start_phase()
        with pytest.raises(CheckViolation) as ei:
            m.manager.load_version(0, addr, 1)
        return ei.value

    def test_report_structure(self):
        v = self._violation()
        text = v.render()
        assert "sanitizer violation [divergence]" in text
        assert "op:" in text
        # Direct manager calls retire no core ops, so the tail is empty
        # here; the wait-graph post-mortem is always attached.
        assert "wait graph" in text
        assert "no blocked cores" in text

    def test_render_includes_trace_tail_when_present(self):
        v = CheckViolation(
            "divergence",
            ["hw=1 reference=2"],
            op=("load_version", 0x40, 1),
            cycle=99,
            ops_checked=12,
            trace_tail=["[      42] c0 t1 store_version @0x40 lat=3"],
            post_mortem="no blocked cores",
        )
        text = v.render()
        assert "trace tail:" in text
        assert "store_version" in text
        assert "cycle 99" in text

    def test_machine_run_violation_carries_trace_tail(self):
        # Through the cores the auto-attached tracer records the
        # interleaving, and the report tail shows it.
        m = small_checked(gc_watermark=0)
        cell = Versioned(m.heap.alloc_versioned(1))

        def writer(tid, cell):
            for v in range(3):
                yield cell.store_ver(v, v)
            # Mimic a reclaim that skips cache invalidation: drop v0
            # from the backing list (mirrored into the reference), but
            # leave the compressed-line entry and memo stale.
            lst = m.manager.lists[cell.addr]
            block, _ = lst.find_exact(0)
            lst.remove(block)
            m.sanitizer.oracle.mirror_reclaim(cell.addr, 0)
            yield cell.load_ver(0)

        m.submit([Task(1, writer, cell)])
        with pytest.raises(CheckViolation) as ei:
            m.run()
        assert ei.value.trace_tail
        assert any("store_version" in line for line in ei.value.trace_tail)

    def test_pickle_round_trip(self):
        # Violations cross the sweep runner's process-pool boundary.
        v = self._violation()
        clone = pickle.loads(pickle.dumps(v))
        assert isinstance(clone, CheckViolation)
        assert clone.kind == v.kind
        assert clone.problems == v.problems
        assert clone.op == v.op
        assert clone.render() == v.render()


class TestInstallUninstall:
    def test_uninstall_restores_manager(self):
        m = small_checked()
        addr = m.heap.alloc_versioned(4)
        mgr = m.manager
        assert m.sanitizer._on_op in m.events.op
        m.sanitizer.detach()
        # Nothing was patched: unsubscribing leaves the bus empty, and
        # ops reach no oracle.
        assert all(getattr(m.events, event) == () for event in EVENTS)
        mirrored = m.sanitizer.oracle.ops_mirrored
        mgr.store_version(0, addr, 1, "a")
        assert m.sanitizer.oracle.ops_mirrored == mirrored

    def test_checked_flag_via_config(self):
        m = Machine(MachineConfig(num_cores=2, checked=True))
        assert m.sanitizer is not None
        m2 = Machine(MachineConfig(num_cores=2))
        assert m2.sanitizer is None
        # Explicit argument overrides the config either way.
        m3 = Machine(MachineConfig(num_cores=2, checked=True), checked=False)
        assert m3.sanitizer is None
