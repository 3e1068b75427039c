"""Integration tests: cores executing task programs on the full machine."""

from __future__ import annotations

import pytest

from repro import (
    DeadlockError,
    Machine,
    MachineConfig,
    ProtectionFault,
    SimulationError,
    StaticScheduler,
    Task,
    Versioned,
)
from repro.ostruct import isa


def run_single(machine, body, *args, task_id=0):
    task = Task(task_id, body, *args)
    machine.submit([task])
    machine.run()
    return task


class TestConventionalOps:
    def test_load_store_roundtrip(self, uni_machine):
        addr = uni_machine.heap.alloc(8)

        def prog(tid):
            yield isa.store(addr, 123)
            return (yield isa.load(addr))

        task = run_single(uni_machine, prog)
        assert task.result == 123
        assert uni_machine.stats.loads == 1
        assert uni_machine.stats.stores == 1

    def test_uninitialised_memory_reads_zero(self, uni_machine):
        addr = uni_machine.heap.alloc(8)

        def prog(tid):
            return (yield isa.load(addr))

        assert run_single(uni_machine, prog).result == 0

    def test_compute_charges_issue_width(self):
        m = Machine(MachineConfig(num_cores=1, issue_width=2))

        def prog(tid):
            yield isa.compute(10)

        start_overhead = 20 + 0  # TASK_BEGIN_CYCLES
        run_single(m, prog)
        # 10 instructions at 2/cycle = 5 cycles, after task-begin overhead.
        assert m.cycles == start_overhead + 5

    def test_conventional_store_to_versioned_page_faults(self, uni_machine):
        vaddr = uni_machine.heap.alloc_versioned(1)

        def prog(tid):
            yield isa.store(vaddr, 1)

        with pytest.raises(ProtectionFault):
            run_single(uni_machine, prog)


class TestVersionedExecution:
    def test_cross_core_producer_consumer_stalls_then_wakes(self):
        m = Machine(MachineConfig(num_cores=2))
        cell = Versioned(m.heap.alloc_versioned(1))

        def producer(tid):
            yield isa.compute(2000)  # delay so the consumer stalls first
            yield cell.store_ver(0, 7)

        def consumer(tid):
            return (yield cell.load_ver(0))

        tasks = [Task(0, producer), Task(1, consumer)]
        m.submit(tasks)
        stats = m.run()
        assert tasks[1].result == 7
        assert stats.versioned_stalls >= 1
        assert stats.versioned_stall_cycles > 0

    def test_lock_handoff_between_tasks(self):
        # The Figure 1 ordered-entry pattern: each task exact-locks its own
        # version and the unlock renames to the successor's version.
        m = Machine(MachineConfig(num_cores=2))
        cell = Versioned(m.heap.alloc_versioned(1))

        def t0(tid):
            yield cell.store_ver(0, 100)
            yield cell.lock_load_ver(tid)  # version 0
            yield isa.compute(5000)
            yield cell.unlock_ver(tid, tid + 1)  # rename to version 1

        def t1(tid):
            value = yield cell.lock_load_ver(tid)  # waits for version 1
            yield cell.unlock_ver(tid)
            return value

        tasks = [Task(0, t0), Task(1, t1)]
        m.submit(tasks)
        m.run()
        # Task 1 saw the renamed version carrying task 0's value.
        assert tasks[1].result == 100
        assert m.manager.versions_of(cell.addr) == [1, 0]

    def test_load_latest_reevaluates_after_unlock(self):
        # A waiter blocked on a locked latest must observe a version
        # created *while it was waiting* if that version is newer.
        m = Machine(MachineConfig(num_cores=2))
        cell = Versioned(m.heap.alloc_versioned(1))

        def t0(tid):
            yield cell.store_ver(0, 1)
            yield cell.lock_load_ver(0)
            yield isa.compute(4000)
            yield cell.store_ver(1, 2)  # newer version appears
            yield cell.unlock_ver(0)

        def t1(tid):
            yield isa.compute(1000)  # arrive while version 0 is locked
            ver, value = yield cell.load_last(tid)
            return (ver, value)

        tasks = [Task(0, t0), Task(1, t1)]
        m.submit(tasks)
        stats = m.run()
        assert tasks[1].result == (1, 2)
        assert stats.versioned_stalls >= 1  # t1 really blocked on the lock

    def test_deadlock_detected_with_diagnostics(self):
        m = Machine(MachineConfig(num_cores=1))
        cell = Versioned(m.heap.alloc_versioned(1))

        def prog(tid):
            yield cell.load_ver(99)  # never created

        m.submit([Task(0, prog)])
        with pytest.raises(DeadlockError) as exc:
            m.run()
        assert "blocked on load_version" in str(exc.value)

    def test_self_deadlock_on_double_lock(self):
        m = Machine(MachineConfig(num_cores=1))
        cell = Versioned(m.heap.alloc_versioned(1))

        def prog(tid):
            yield cell.store_ver(0, 1)
            yield cell.lock_load_ver(0)
            yield cell.lock_load_ver(0)  # stalls forever on own lock

        m.submit([Task(0, prog)])
        with pytest.raises(DeadlockError):
            m.run()

    def test_figure10_injected_latency_slows_versioned_ops(self):
        def build(extra):
            m = Machine(MachineConfig(num_cores=1, versioned_op_extra_latency=extra))
            cell = Versioned(m.heap.alloc_versioned(1))

            def prog(tid):
                for v in range(50):
                    yield cell.store_ver(v, v)
                for v in range(50):
                    yield cell.load_ver(v)

            m.submit([Task(0, prog)])
            m.run()
            return m.cycles

        assert build(10) > build(0)

    def test_injected_latency_does_not_slow_conventional_ops(self):
        def build(extra):
            m = Machine(MachineConfig(num_cores=1, versioned_op_extra_latency=extra))
            addr = m.heap.alloc(400)

            def prog(tid):
                for i in range(50):
                    yield isa.store(addr + 8 * i, i)

            m.submit([Task(0, prog)])
            m.run()
            return m.cycles

        assert build(10) == build(0)


class TestTaskManagement:
    def test_tasks_run_in_queue_order_per_core(self, uni_machine):
        order = []

        def body(tid):
            order.append(tid)
            yield isa.compute(1)

        uni_machine.submit([Task(i, body) for i in range(5)])
        uni_machine.run()
        assert order == [0, 1, 2, 3, 4]

    def test_round_robin_spreads_tasks(self):
        m = Machine(MachineConfig(num_cores=4))
        ran_on = {}

        def body(tid):
            yield isa.compute(1)

        tasks = [Task(i, body) for i in range(8)]
        m.submit(tasks, StaticScheduler("round_robin"))
        for core in m.cores:
            for t in core.queue:
                ran_on[t.task_id] = core.core_id
        assert ran_on == {i: i % 4 for i in range(8)}

    def test_block_scheduler(self):
        plan = StaticScheduler("block").plan(8, 4)
        assert plan == [0, 0, 1, 1, 2, 2, 3, 3]

    def test_tracker_counts(self, machine):
        def body(tid):
            yield isa.compute(1)

        machine.submit([Task(i, body) for i in range(6)])
        stats = machine.run()
        assert stats.tasks_started == 6
        assert stats.tasks_finished == 6
        assert machine.tracker.active_ids == frozenset()

    def test_machine_single_use(self, uni_machine):
        def body(tid):
            yield isa.compute(1)

        uni_machine.submit([Task(0, body)])
        uni_machine.run()
        with pytest.raises(SimulationError):
            uni_machine.run()

    def test_run_without_submit_rejected(self, uni_machine):
        with pytest.raises(SimulationError):
            uni_machine.run()

    def test_undeclared_attribute_rejected(self, uni_machine):
        # Every machine attribute is declared in __slots__; a typo'd or
        # ad-hoc attribute fails instead of silently attaching.
        with pytest.raises(AttributeError):
            uni_machine.checkpointr = None
        uni_machine.checkpointer = None

    def test_max_cycles_stops_early_without_deadlock_error(self):
        m = Machine(MachineConfig(num_cores=1))

        def prog(tid):
            for _ in range(1000):
                yield isa.compute(100)

        m.submit([Task(0, prog)])
        m.run(max_cycles=500)
        assert m.cycles == 500


class TestRWLock:
    def test_readers_share(self):
        m = Machine(MachineConfig(num_cores=2))
        lock = m.new_rwlock()
        hold_times = {}

        def reader(tid):
            yield isa.rw_acquire(lock, "r")
            hold_times[tid] = (m.sim.now, None)
            yield isa.compute(1000)
            hold_times[tid] = (hold_times[tid][0], m.sim.now)
            yield isa.rw_release(lock, "r")

        tasks = [Task(0, reader), Task(1, reader)]
        m.submit(tasks)
        m.run()
        (a0, e0), (a1, e1) = hold_times[0], hold_times[1]
        assert a0 < e1 and a1 < e0  # overlapping critical sections

    def test_writer_excludes_writer(self):
        m = Machine(MachineConfig(num_cores=2))
        lock = m.new_rwlock()
        spans = {}

        def writer(tid):
            yield isa.rw_acquire(lock, "w")
            start = m.sim.now
            yield isa.compute(1000)
            spans[tid] = (start, m.sim.now)
            yield isa.rw_release(lock, "w")

        tasks = [Task(0, writer), Task(1, writer)]
        m.submit(tasks)
        stats = m.run()
        (s0, e0), (s1, e1) = spans[0], spans[1]
        assert e0 <= s1 or e1 <= s0  # disjoint critical sections
        assert stats.rwlock_write_acquires == 2
        assert stats.rwlock_wait_cycles > 0

    def test_writer_excludes_reader(self):
        m = Machine(MachineConfig(num_cores=2))
        lock = m.new_rwlock()
        events = []

        def writer(tid):
            yield isa.rw_acquire(lock, "w")
            events.append(("w-in", m.sim.now))
            yield isa.compute(2000)
            events.append(("w-out", m.sim.now))
            yield isa.rw_release(lock, "w")

        def reader(tid):
            yield isa.compute(100)  # let the writer get there first
            yield isa.rw_acquire(lock, "r")
            events.append(("r-in", m.sim.now))
            yield isa.rw_release(lock, "r")

        m.submit([Task(0, writer), Task(1, reader)])
        m.run()
        w_out = next(t for e, t in events if e == "w-out")
        r_in = next(t for e, t in events if e == "r-in")
        assert r_in >= w_out

    def test_release_without_hold_rejected(self):
        m = Machine(MachineConfig(num_cores=1))
        lock = m.new_rwlock()

        def prog(tid):
            yield isa.rw_release(lock, "r")

        m.submit([Task(0, prog)])
        with pytest.raises(SimulationError):
            m.run()


class TestAllocator:
    def test_regions_disjoint(self, machine):
        a = machine.heap.alloc(64)
        b = machine.heap.alloc_versioned(16)
        assert abs(a - b) > 1 << 20

    def test_versioned_allocation_marks_pages(self, machine):
        addr = machine.heap.alloc_versioned(4)
        assert machine.page_table.is_versioned(addr)
        assert machine.page_table.is_versioned(addr + 12)

    def test_alignment(self, machine):
        machine.heap.alloc(3)
        b = machine.heap.alloc(8, align=64)
        assert b % 64 == 0

    def test_usage_accounting(self, machine):
        machine.heap.alloc(100)
        machine.heap.alloc_versioned(25)
        assert machine.heap.conventional_used >= 100
        assert machine.heap.versioned_used >= 100  # 25 words * 4 bytes

    def test_bad_sizes_rejected(self, machine):
        from repro import AllocationError

        with pytest.raises(AllocationError):
            machine.heap.alloc(0)
        with pytest.raises(AllocationError):
            machine.heap.alloc_versioned(-1)
