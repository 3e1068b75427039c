"""Tests for the software O-structure runtime (real threads)."""

from __future__ import annotations

import random
import threading
import time

import pytest

from repro.errors import NotLockedError, SimulationError, VersionExistsError
from repro.sw import SWOStructure, SWRuntime
from repro.sw.ostructure import SWTimeout


class TestSWOStructureBasics:
    def test_store_and_exact_load(self):
        o = SWOStructure()
        o.store_version(1, "a")
        assert o.load_version(1) == "a"

    def test_duplicate_store_rejected(self):
        o = SWOStructure()
        o.store_version(1, "a")
        with pytest.raises(VersionExistsError):
            o.store_version(1, "b")

    def test_load_latest_caps(self):
        o = SWOStructure()
        for v in (1, 3, 7):
            o.store_version(v, v * 10)
        assert o.load_latest(5) == (3, 30)
        assert o.load_latest(7) == (7, 70)

    def test_load_uncreated_times_out(self):
        o = SWOStructure()
        with pytest.raises(SWTimeout):
            o.load_version(9, timeout=0.05)

    def test_load_latest_below_everything_times_out(self):
        o = SWOStructure()
        o.store_version(5, "x")
        with pytest.raises(SWTimeout):
            o.load_latest(4, timeout=0.05)

    def test_lock_blocks_readers_of_that_version(self):
        o = SWOStructure()
        o.store_version(1, "a")
        o.lock_load_version(1, task_id=7)
        with pytest.raises(SWTimeout):
            o.load_version(1, timeout=0.05)
        # Other versions unaffected.
        o.store_version(2, "b")
        assert o.load_version(2) == "b"

    def test_unlock_wrong_holder_rejected(self):
        o = SWOStructure()
        o.store_version(1, "a")
        o.lock_load_version(1, task_id=7)
        with pytest.raises(NotLockedError):
            o.unlock_version(1, task_id=8)

    def test_unlock_with_rename(self):
        o = SWOStructure()
        o.store_version(1, "a")
        o.lock_load_version(1, task_id=7)
        o.unlock_version(1, task_id=7, new_version=2)
        assert o.load_version(2) == "a"
        assert o.versions() == [1, 2]

    def test_rename_collision_rejected(self):
        o = SWOStructure()
        o.store_version(1, "a")
        o.store_version(2, "b")
        o.lock_load_version(1, task_id=7)
        with pytest.raises(VersionExistsError):
            o.unlock_version(1, task_id=7, new_version=2)

    def test_failed_rename_keeps_the_lock(self):
        # The hardware manager stores the renamed copy before it releases
        # the lock, so a rename onto an existing version leaves v1 held.
        o = SWOStructure()
        o.store_version(1, "a")
        o.store_version(2, "b")
        o.lock_load_version(1, task_id=7)
        with pytest.raises(VersionExistsError):
            o.unlock_version(1, task_id=7, new_version=2)
        assert o.dump() == {1: ("a", 7), 2: ("b", None)}
        o.unlock_version(1, task_id=7)
        assert o.load_version(1) == "a"

    def test_locker_introspection(self):
        o = SWOStructure()
        o.store_version(1, "a")
        assert not o.is_locked(1)
        o.lock_load_version(1, task_id=9)
        assert o.is_locked(1)
        assert o.locker_of(1) == 9

    def test_reclaim_below_keeps_boundary_and_locked(self):
        o = SWOStructure()
        for v in range(1, 8):
            o.store_version(v, v)
        o.lock_load_version(2, task_id=1)
        removed = o.reclaim_below(6)
        # Keeps 6 (the LOAD-LATEST(6) target), 7 and the locked version 2.
        assert set(o.versions()) == {2, 6, 7}
        assert removed == 4
        o.unlock_version(2, task_id=1)

    def test_reclaim_keeps_highest_below_floor_when_floor_uncreated(self):
        o = SWOStructure()
        for v in (1, 3, 5):
            o.store_version(v, v)
        o.reclaim_below(4)  # floor task reads latest <= 4 == version 3
        assert set(o.versions()) == {3, 5}
        assert o.load_latest(4) == (3, 3)


class TestSWOStructureThreads:
    def test_blocking_load_wakes_on_store(self):
        o = SWOStructure()
        result = {}

        def consumer():
            result["value"] = o.load_version(1, timeout=5)

        t = threading.Thread(target=consumer)
        t.start()
        time.sleep(0.02)
        o.store_version(1, 99)
        t.join(timeout=5)
        assert result["value"] == 99

    def test_timeout_is_one_deadline_under_write_traffic(self):
        # Stores of other versions wake the waiter every 50 ms; each wake
        # must not restart the 0.3 s timeout.
        o = SWOStructure()
        stop = threading.Event()

        def writer():
            for v in range(40):  # one store every 50 ms for 2 s
                if stop.wait(0.05):
                    return
                o.store_version(v, v)

        t = threading.Thread(target=writer)
        t.start()
        try:
            start = time.monotonic()
            with pytest.raises(SWTimeout):
                o.load_version(10**6, timeout=0.3)
            assert time.monotonic() - start < 1.0
        finally:
            stop.set()
            t.join(timeout=5)
        assert not t.is_alive()

    def test_blocked_latest_sees_version_created_while_waiting(self):
        o = SWOStructure()
        o.store_version(1, "old")
        o.lock_load_version(1, task_id=0)
        result = {}

        def reader():
            result["got"] = o.load_latest(10, timeout=5)

        t = threading.Thread(target=reader)
        t.start()
        time.sleep(0.02)
        o.store_version(5, "new")  # appears while the reader waits
        t.join(timeout=5)
        assert result["got"] == (5, "new")
        o.unlock_version(1, task_id=0)

    def test_lock_contention_serializes(self):
        o = SWOStructure()
        o.store_version(1, 0)
        order = []

        def worker(wid):
            o.lock_load_version(1, task_id=wid, timeout=5)
            order.append(wid)
            time.sleep(0.01)
            o.unlock_version(1, task_id=wid)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert sorted(order) == [0, 1, 2, 3]

    def test_hand_over_hand_chain_across_threads(self):
        # N threads, each extending the chain in task order.
        o = SWOStructure()
        o.store_version(0, [])
        n = 8

        def worker(tid):
            value = o.lock_load_version(tid, task_id=tid, timeout=10)
            o.unlock_version(tid, task_id=tid)
            o.store_version(tid + 1, value + [tid])

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(n)]
        # Start in reverse order to prove version waiting does the ordering.
        for t in reversed(threads):
            t.start()
        for t in threads:
            t.join(timeout=20)
        assert o.load_version(n) == list(range(n))


class TestSWTimeoutContext:
    def test_exact_load_context(self):
        o = SWOStructure("cell")
        o.store_version(1, "a")
        with pytest.raises(SWTimeout) as exc_info:
            o.load_version(5, timeout=0.05)
        exc = exc_info.value
        assert exc.address == "cell"
        assert exc.op == "load-version"
        assert exc.wanted == 5
        assert exc.latest == 1
        assert exc.holder is None
        assert exc.timeout == 0.05
        assert exc.context == {
            "address": "cell", "op": "load-version", "wanted": 5,
            "latest": 1, "timeout": 0.05,
        }

    def test_latest_load_reports_lock_holder(self):
        o = SWOStructure("cell")
        o.store_version(3, "x")
        o.lock_load_version(3, task_id=9)
        with pytest.raises(SWTimeout) as exc_info:
            o.load_latest(5, timeout=0.05)
        exc = exc_info.value
        assert exc.op == "load-latest"
        assert exc.cap == 5
        assert exc.wanted is None
        assert exc.latest == 3
        assert exc.holder == 9  # the candidate <= cap is locked by task 9
        o.unlock_version(3, task_id=9)

    def test_lock_ops_carry_their_own_op_names(self):
        o = SWOStructure("cell")
        with pytest.raises(SWTimeout) as e1:
            o.lock_load_version(1, task_id=2, timeout=0.05)
        assert e1.value.op == "lock-load-version"
        with pytest.raises(SWTimeout) as e2:
            o.lock_load_latest(1, task_id=2, timeout=0.05)
        assert e2.value.op == "lock-load-latest"

    def test_str_is_backward_compatible(self):
        o = SWOStructure("cell")
        with pytest.raises(SWTimeout) as exc_info:
            o.load_version(9, timeout=0.05)
        # Pre-context message, byte for byte.
        assert str(exc_info.value) == (
            "cell: blocked operation timed out after 0.05s"
        )
        # describe() appends the structured fields.
        assert "op=load-version" in exc_info.value.describe()
        assert "wanted=9" in exc_info.value.describe()

    def test_bare_construction_has_empty_context(self):
        exc = SWTimeout("boom")
        assert exc.context == {}
        assert exc.describe() == "boom"


class TestTryBlockingParity:
    """The non-blocking ``try_*`` probes must agree with their blocking
    twins: a probe hit is exactly a value the blocking form would have
    returned at that instant, and a probe miss is exactly a state the
    blocking form would have waited on."""

    def test_probe_miss_iff_blocking_waits(self):
        o = SWOStructure()
        # Uncreated version: both forms refuse.
        assert o.try_load_version(1) is None
        with pytest.raises(SWTimeout):
            o.load_version(1, timeout=0.02)
        # Created: both forms agree on the value.
        o.store_version(1, "a")
        assert o.try_load_version(1) == ("a",)
        assert o.load_version(1) == "a"
        # Locked: both forms refuse again.
        o.lock_load_version(1, task_id=7)
        assert o.try_load_version(1) is None
        with pytest.raises(SWTimeout):
            o.load_version(1, timeout=0.02)
        assert o.try_load_latest(5) is None
        with pytest.raises(SWTimeout):
            o.load_latest(5, timeout=0.02)
        o.unlock_version(1, task_id=7)
        assert o.try_load_latest(5) == (1, "a")
        assert o.load_latest(5) == (1, "a")

    def test_try_lock_twins_take_the_lock_like_blocking_ones(self):
        o = SWOStructure()
        o.store_version(2, "b")
        assert o.try_lock_load_version(2, task_id=1) == ("b",)
        assert o.locker_of(2) == 1
        # A second locker (either form) must now be refused.
        assert o.try_lock_load_version(2, task_id=2) is None
        assert o.try_lock_load_latest(9, task_id=2) is None
        with pytest.raises(SWTimeout):
            o.lock_load_version(2, task_id=2, timeout=0.02)
        o.unlock_version(2, task_id=1)
        assert o.try_lock_load_latest(9, task_id=2) == (2, "b")
        o.unlock_version(2, task_id=2)

    def test_parity_under_concurrent_writers_and_droppers(self):
        # One writer extends the version chain (value == version), one
        # dropper reclaims shadowed history, many probers hammer both
        # API forms.  Every value either form returns must equal its
        # version number — any disagreement is a parity bug.
        o = SWOStructure()
        o.store_version(0, 0)
        stop = threading.Event()
        errors: list[str] = []

        def writer():
            v = 1
            while not stop.is_set():
                o.store_version(v, v)
                v += 1
                time.sleep(0.0003)

        def dropper():
            while not stop.is_set():
                versions = o.versions()
                if len(versions) > 8:
                    o.reclaim_below(versions[-4])
                time.sleep(0.001)

        def prober(pid: int):
            rng = random.Random(1000 + pid)
            while not stop.is_set():
                cap = rng.randint(0, 1 << 20)
                hit = o.try_load_latest(cap)
                if hit is not None:
                    v, val = hit
                    if v > cap or val != v:
                        errors.append(f"try_load_latest({cap}) -> {hit}")
                versions = o.versions()
                if versions:
                    v = rng.choice(versions)
                    hit = o.try_load_version(v)
                    # A miss is legal (dropped or freshly locked), but a
                    # hit must carry the immutable value.
                    if hit is not None and hit[0] != v:
                        errors.append(f"try_load_version({v}) -> {hit}")
                hit = o.try_lock_load_latest(1 << 20, task_id=pid)
                if hit is not None:
                    v, val = hit
                    if val != v:
                        errors.append(f"try_lock_load_latest -> {hit}")
                    o.unlock_version(v, task_id=pid)

        def blocking_reader():
            while not stop.is_set():
                v, val = o.load_latest(1 << 20, timeout=5)
                if val != v:
                    errors.append(f"load_latest -> ({v}, {val})")

        threads = (
            [threading.Thread(target=writer), threading.Thread(target=dropper)]
            + [threading.Thread(target=prober, args=(i,)) for i in range(4)]
            + [threading.Thread(target=blocking_reader)]
        )
        for t in threads:
            t.start()
        time.sleep(0.4)
        stop.set()
        for t in threads:
            t.join(timeout=10)
        assert errors == []
        # Post-quiescence: both forms agree on every surviving version.
        for v in o.versions():
            assert o.try_load_version(v) == (v,)
            assert o.load_version(v, timeout=1) == v
        gone = max(o.versions()) + 100
        assert o.try_load_version(gone) is None
        with pytest.raises(SWTimeout):
            o.load_version(gone, timeout=0.02)


class TestSWRuntime:
    def test_spawn_returns_result(self):
        with SWRuntime(num_workers=2) as rt:
            fut = rt.spawn(0, lambda ctx: ctx.task_id * 2)
            assert fut.result(timeout=5) == 0

    def test_rule3_enforced(self):
        with SWRuntime(num_workers=2) as rt:
            gate = rt.new_ostructure("gate")

            def waiting(ctx):
                return gate.load_version(0, timeout=5)

            rt.spawn(5, waiting)
            with pytest.raises(SimulationError):
                rt.spawn(4, lambda ctx: None)
            gate.store_version(0, "go")

    def test_duplicate_spawn_rejected(self):
        with SWRuntime(num_workers=2) as rt:
            gate = rt.new_ostructure("gate")
            rt.spawn(1, lambda ctx: gate.load_version(0, timeout=5))
            with pytest.raises(SimulationError):
                rt.spawn(1, lambda ctx: None)
            gate.store_version(0, 1)

    def test_gc_reclaims_under_live_floor(self):
        with SWRuntime(num_workers=2) as rt:
            cell = rt.new_ostructure("c")
            for v in range(10):
                cell.store_version(v, v)
            gate = rt.new_ostructure("gate")

            def pinned(ctx):
                return gate.load_version(0, timeout=10)

            fut = rt.spawn(8, pinned)  # floor = 8
            reclaimed = rt.collect()
            assert reclaimed > 0
            # Everything task 8 may read survives.
            assert cell.load_latest(8) == (8, 8)
            gate.store_version(0, "done")
            fut.result(timeout=5)

    def test_collect_without_live_tasks_is_noop(self):
        with SWRuntime(num_workers=1) as rt:
            cell = rt.new_ostructure("c")
            for v in range(5):
                cell.store_version(v, v)
            assert rt.collect() == 0
            assert cell.versions() == [0, 1, 2, 3, 4]

    def test_spawn_after_shutdown_rejected(self):
        rt = SWRuntime(num_workers=1)
        rt.shutdown()
        with pytest.raises(SimulationError):
            rt.spawn(0, lambda ctx: None)

    def test_periodic_gc_fires(self):
        with SWRuntime(num_workers=2, gc_every=4) as rt:
            cell = rt.new_ostructure("c")
            cell.store_version(0, 0)

            def writer(ctx):
                cell.store_version(ctx.task_id + 1, ctx.task_id)

            futs = [rt.spawn(t, writer) for t in range(1, 20)]
            for f in futs:
                f.result(timeout=10)
            assert rt.gc_runs >= 1
