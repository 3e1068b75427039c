"""Tests for the execution tracer."""

from __future__ import annotations

from repro import Machine, MachineConfig, Task, Versioned
from repro.ostruct import isa
from repro.sim.trace import TraceEvent, Tracer


def simple_machine():
    m = Machine(MachineConfig(num_cores=2))
    cell = Versioned(m.heap.alloc_versioned(1))
    conv = m.heap.alloc(64)
    return m, cell, conv


def test_records_ops_in_order():
    m, cell, conv = simple_machine()
    tracer = Tracer(m)

    def prog(tid):
        yield isa.store(conv, 1)
        yield cell.store_ver(0, 2)
        yield cell.load_ver(0)

    m.submit([Task(0, prog)])
    m.run()
    ops = [e.op for e in tracer.events()]
    assert ops == ["store", "store_version", "load_version"]
    cycles = [e.cycle for e in tracer.events()]
    assert cycles == sorted(cycles)


def test_only_versioned_filter():
    m, cell, conv = simple_machine()
    tracer = Tracer(m, only_versioned=True)

    def prog(tid):
        yield isa.store(conv, 1)
        yield isa.compute(10)
        yield cell.store_ver(0, 2)

    m.submit([Task(0, prog)])
    m.run()
    assert [e.op for e in tracer.events()] == ["store_version"]


def test_core_filter():
    m, cell, conv = simple_machine()
    tracer = Tracer(m, cores={1})

    def prog(tid):
        yield isa.compute(5)

    m.submit([Task(0, prog), Task(1, prog)])  # round-robin: cores 0 and 1
    m.run()
    assert all(e.core == 1 for e in tracer.events())
    assert len(tracer) == 1


def test_addr_range_filter():
    m, cell, conv = simple_machine()
    tracer = Tracer(m, addr_range=(cell.addr, cell.addr + 4))

    def prog(tid):
        yield isa.store(conv, 1)
        yield cell.store_ver(0, 2)

    m.submit([Task(0, prog)])
    m.run()
    assert [e.op for e in tracer.events()] == ["store_version"]


def test_stall_events_marked():
    m, cell, conv = simple_machine()
    tracer = Tracer(m, only_versioned=True)

    def producer(tid):
        yield isa.compute(3000)
        yield cell.store_ver(0, 7)

    def consumer(tid):
        yield cell.load_ver(0)

    m.submit([Task(0, producer), Task(1, consumer)])
    m.run()
    stalled = [e for e in tracer.events() if e.stalled]
    assert stalled and stalled[0].op == "load_version"
    # The eventual success is recorded too.
    ok = [e for e in tracer.events() if e.op == "load_version" and not e.stalled]
    assert ok


def test_ring_buffer_drops_oldest():
    m, cell, conv = simple_machine()
    tracer = Tracer(m, capacity=4)

    def prog(tid):
        for i in range(10):
            yield isa.compute(1)

    m.submit([Task(0, prog)])
    m.run()
    assert len(tracer) == 4
    assert tracer.dropped == 6
    assert tracer.recorded == 10


def test_for_address_and_for_task():
    m, cell, conv = simple_machine()
    tracer = Tracer(m)

    def prog(tid):
        yield cell.store_ver(tid, tid)

    m.submit([Task(0, prog), Task(1, prog)])
    m.run()
    history = tracer.for_address(cell.addr)
    assert len(history) == 2
    assert len(tracer.for_task(1)) >= 1


def test_summary():
    m, cell, conv = simple_machine()
    tracer = Tracer(m)

    def prog(tid):
        yield isa.compute(4)
        yield isa.store(conv, 1)

    m.submit([Task(0, prog)])
    m.run()
    s = tracer.summary()
    assert s["recorded"] == 2
    assert s["op_counts"] == {"compute": 1, "store": 1}
    assert s["buffered_latency_total"] > 0


def test_detach_stops_recording():
    m, cell, conv = simple_machine()
    tracer = Tracer(m)
    tracer.detach()

    def prog(tid):
        yield isa.compute(4)

    m.submit([Task(0, prog)])
    m.run()
    assert len(tracer) == 0


def test_event_str_is_readable():
    ev = TraceEvent(cycle=12, core=1, task=3, op="load_version",
                    addr=0x4000_0000, detail=(0x4000_0000, 2), latency=4,
                    stalled=False)
    text = str(ev)
    assert "c1" in text and "t3" in text and "load_version" in text
    assert "0x40000000" in text


def test_accounting_invariant_holds_under_eviction_and_filters():
    # recorded == buffered + dropped at all times; filtered events
    # appear in no counter.
    m, cell, conv = simple_machine()
    tracer = Tracer(m, capacity=3, only_versioned=True)

    def prog(tid):
        for i in range(5):
            yield isa.compute(1)        # filtered: counts nowhere
            yield cell.store_ver(i, i)  # recorded: 5 total, ring of 3

    m.submit([Task(0, prog)])
    m.run()
    s = tracer.summary()
    assert s["recorded"] == 5
    assert s["buffered"] == 3
    assert s["dropped"] == 2
    assert s["recorded"] == s["buffered"] + s["dropped"]
    assert len(tracer) == s["buffered"]


# ---------------------------------------------------------------------------
# Several ``retire`` subscribers on one machine.
# ---------------------------------------------------------------------------


class TestHookChaining:
    def test_two_tracers_both_record(self):
        m, cell, conv = simple_machine()
        first = Tracer(m)
        second = Tracer(m, only_versioned=True)

        def prog(tid):
            yield isa.store(conv, 1)
            yield cell.store_ver(0, 2)

        m.submit([Task(0, prog)])
        m.run()
        assert [e.op for e in first.events()] == ["store", "store_version"]
        assert [e.op for e in second.events()] == ["store_version"]

    def test_detach_in_either_order_leaves_machine_clean(self):
        for order in ((0, 1), (1, 0)):
            m, cell, conv = simple_machine()
            tracers = [Tracer(m), Tracer(m)]
            tracers[order[0]].detach()
            survivor = tracers[order[1]]
            assert m.events.retire == (survivor._record,)
            survivor.detach()
            assert m.events.retire == ()

    def test_survivor_still_records_after_peer_detach(self):
        m, cell, conv = simple_machine()
        first = Tracer(m)
        second = Tracer(m)
        first.detach()

        def prog(tid):
            yield isa.compute(2)

        m.submit([Task(0, prog)])
        m.run()
        assert len(first) == 0
        assert len(second) == 1

    def test_double_attach_raises(self):
        import pytest

        from repro.errors import SimulationError

        m, cell, conv = simple_machine()
        tracer = Tracer(m)
        with pytest.raises(SimulationError):
            m.events.subscribe("retire", tracer._record)
        # The failed attach left the subscriber tuple as it was.
        assert m.events.retire == (tracer._record,)


# ---------------------------------------------------------------------------
# Property: recorded == buffered + dropped, always.
# ---------------------------------------------------------------------------

from hypothesis import given, settings
from hypothesis import strategies as st


@given(
    capacity=st.integers(min_value=1, max_value=8),
    only_versioned=st.booleans(),
    cores=st.sampled_from([None, {0}, {1}, {0, 1}]),
    use_addr_range=st.booleans(),
    n_ops=st.integers(min_value=0, max_value=12),
    detach_after=st.integers(min_value=0, max_value=14),
)
@settings(max_examples=60, deadline=None)
def test_accounting_invariant_property(
    capacity, only_versioned, cores, use_addr_range, n_ops, detach_after
):
    """recorded == buffered + dropped under every filter combination,
    eviction pressure, and a mid-run detach()."""
    m, cell, conv = simple_machine()
    addr_range = (cell.addr, cell.addr + 4) if use_addr_range else None
    tracer = Tracer(
        m, capacity=capacity, only_versioned=only_versioned,
        cores=cores, addr_range=addr_range,
    )
    fired = 0

    def checking_hook(core, task, op_tuple, latency, stalled):
        nonlocal fired
        fired += 1
        # Invariant holds after every single event, not just at the end.
        assert tracer.recorded == len(tracer) + tracer.dropped
        if fired == detach_after:
            tracer.detach()

    m.events.subscribe("retire", checking_hook)

    def prog(tid):
        for i in range(n_ops):
            which = i % 3
            if which == 0:
                yield isa.compute(1)
            elif which == 1:
                yield isa.store(conv, i)
            else:
                yield cell.store_ver(tid * 100 + i, i)

    tasks = [Task(0, prog), Task(1, prog)]
    m.submit(tasks)
    if n_ops:
        m.run()
    s = tracer.summary()
    assert s["recorded"] == s["buffered"] + s["dropped"]
    assert s["buffered"] == len(tracer)
    assert s["buffered"] <= capacity
    if cores is not None:
        assert all(e.core in cores for e in tracer.events())
    if only_versioned:
        assert all(e.op in isa.VERSIONED_OPS for e in tracer.events())
    if addr_range is not None:
        assert all(
            e.addr is not None and addr_range[0] <= e.addr < addr_range[1]
            for e in tracer.events()
        )
