"""The machine event bus: subscriber tuples, emit points, attach order.

Every observer and interposer — Tracer, SpanRecorder, Sanitizer,
Checkpointer, FaultInjector, metrics — is an ordinary subscriber of
``machine.events``; these tests pin the bus contract and show that no
attach/detach order lets one consumer disturb another.
"""

from __future__ import annotations

import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Machine, MachineConfig, Task, Versioned
from repro.check.sanitizer import Sanitizer
from repro.errors import (
    DeadlockError,
    MachineCrash,
    SimulationError,
    VersionExistsError,
)
from repro.faults import FaultSpec
from repro.faults.injector import FaultInjector
from repro.obs import SpanRecorder
from repro.ostruct import isa
from repro.ostruct.manager import DROP_WAKE, StallSignal
from repro.recovery.checkpoint import Checkpointer, load_images
from repro.sim.events import EVENTS, EventBus
from repro.sim.machine import add_machine_observer, remove_machine_observer
from repro.sim.trace import Tracer


def _bus_is_empty(m: Machine) -> bool:
    return all(getattr(m.events, event) == () for event in EVENTS)


# ---------------------------------------------------------------------------
# The bus itself.
# ---------------------------------------------------------------------------


class TestEventBus:
    def test_every_event_starts_empty(self):
        bus = EventBus()
        assert all(getattr(bus, event) == () for event in EVENTS)

    def test_subscribers_fire_in_attach_order_and_detach_in_any(self):
        bus = EventBus()
        seen = []
        first = lambda v: seen.append(("first", v))  # noqa: E731
        second = lambda v: seen.append(("second", v))  # noqa: E731
        bus.subscribe("tick", first)
        bus.subscribe("tick", second)
        for fn in bus.tick:
            fn(7)
        assert seen == [("first", 7), ("second", 7)]
        assert bus.unsubscribe("tick", first)
        assert bus.tick == (second,)
        assert not bus.unsubscribe("tick", first)  # already gone
        assert bus.unsubscribe("tick", second)
        assert bus.tick == ()

    def test_double_attach_raises_and_leaves_tuple_intact(self):
        bus = EventBus()
        fn = lambda *a: None  # noqa: E731
        bus.subscribe("drop", fn)
        with pytest.raises(SimulationError):
            bus.subscribe("drop", fn)
        assert bus.drop == (fn,)

    def test_unknown_event_raises(self):
        bus = EventBus()
        with pytest.raises(SimulationError, match="unknown event"):
            bus.subscribe("trace_hook", lambda *a: None)
        with pytest.raises(SimulationError, match="unknown event"):
            bus.unsubscribe("nope", lambda *a: None)

    def test_a_fresh_machine_has_an_empty_bus(self):
        assert _bus_is_empty(Machine(MachineConfig(num_cores=2)))


class TestManagerIsClosed:
    def test_methods_cannot_be_replaced_on_the_instance(self):
        m = Machine(MachineConfig(num_cores=1))
        with pytest.raises(AttributeError):
            m.manager.load_version = lambda *a: (0, None)

    def test_metrics_is_still_a_settable_data_attribute(self):
        m = Machine(MachineConfig(num_cores=1))
        sentinel = object()
        m.manager.metrics = sentinel
        assert m.manager.metrics is sentinel


# ---------------------------------------------------------------------------
# Emit points.
# ---------------------------------------------------------------------------


def _machine(num_cores: int = 2, **kw) -> tuple[Machine, Versioned]:
    m = Machine(MachineConfig(num_cores=num_cores, **kw))
    return m, Versioned(m.heap.alloc_versioned(1))


class TestEmitPoints:
    def test_op_reports_outcomes_and_internal_calls(self):
        m, cell = _machine()
        seen = []
        m.events.subscribe(
            "op", lambda name, args, result, exc: seen.append((name, args, exc))
        )
        mgr = m.manager
        mgr.store_version(0, cell.addr, 1, "a")
        with pytest.raises(VersionExistsError):
            mgr.store_version(0, cell.addr, 1, "b")
        with pytest.raises(StallSignal):
            mgr.load_version(0, cell.addr, 2)
        mgr.lock_load_version(0, cell.addr, 1, task_id=1)
        mgr.unlock_version(0, cell.addr, 1, 1, new_version=3)
        names = [name for name, _, _ in seen]
        # The renaming unlock reports its own store first, as it happens.
        assert names == [
            isa.STORE_VERSION,
            isa.STORE_VERSION,
            isa.LOAD_VERSION,
            isa.LOCK_LOAD_VERSION,
            isa.STORE_VERSION,
            isa.UNLOCK_VERSION,
        ]
        assert isinstance(seen[1][2], VersionExistsError)
        assert isinstance(seen[2][2], StallSignal)
        assert seen[4][1] == (0, cell.addr, 3, "a", 1)
        assert seen[5][1] == (0, cell.addr, 1, 1, 3)

    def test_tick_carries_the_manager_ordinal(self):
        m, cell = _machine()
        ticks = []
        m.events.subscribe("tick", ticks.append)
        m.manager.store_version(0, cell.addr, 1, "a")
        m.manager.load_version(0, cell.addr, 1)
        with pytest.raises(StallSignal):  # a stalled op completes nothing
            m.manager.load_version(0, cell.addr, 5)
        assert ticks == [1, 2] and m.manager.ticks == 2

    def _parked_consumer(self, notify):
        """A consumer parked on v0 of a cell, then the producer's store."""
        m, cell = _machine()
        asked = []

        def on_notify(vaddr):
            asked.append(vaddr)
            return notify

        m.events.subscribe("notify", on_notify)

        def producer(tid):
            yield isa.compute(50)
            yield cell.store_ver(0, 42)

        def consumer(tid):
            return (yield cell.load_ver(0))

        tasks = [Task(0, producer), Task(1, consumer)]
        m.submit(tasks)
        return m, cell, asked, tasks

    def test_notify_is_asked_only_when_waiters_are_parked(self):
        m, cell, asked, tasks = self._parked_consumer(None)
        m.run()
        assert asked == [cell.addr]  # the store with a parked consumer
        assert tasks[1].result == 42

    def test_notify_delay_postpones_the_wake(self):
        served = []
        for delay in (None, 40):
            m, cell, _, tasks = self._parked_consumer(delay)
            m.events.subscribe(
                "retire",
                lambda core, task, op, lat, stalled, m=m: served.append(m.sim.now)
                if task == 1 and not stalled
                else None,
            )
            m.run()
            assert tasks[1].result == 42
        assert served[1] - served[0] == 39

    def test_notify_drop_leaves_waiters_parked_until_a_kick(self):
        m, cell, asked, tasks = self._parked_consumer(DROP_WAKE)
        with pytest.raises(DeadlockError):
            m.run()
        assert m.manager.waiter_count(cell.addr) == 1
        # kick_waiters bypasses the notify event: nothing is asked again.
        assert m.manager.kick_waiters() == 1
        m.sim.run()
        assert asked == [cell.addr]
        assert tasks[1].result == 42


# ---------------------------------------------------------------------------
# Regressions: detaching one consumer must not disturb another.
# ---------------------------------------------------------------------------


def _latest_reader(cell: Versioned):
    def prog(tid):
        yield cell.store_ver(1, 1)
        return (yield cell.load_last(1))

    return prog


class TestDetachRegressions:
    def test_recorder_keeps_latest_edges_after_a_later_sanitizer_uninstalls(self):
        edges = []
        for with_sanitizer in (False, True):
            m, cell = _machine(1)
            rec = SpanRecorder(m)
            if with_sanitizer:
                Sanitizer(m).detach()
            m.submit([Task(1, _latest_reader(cell))])
            m.run()
            edges.append(rec.consumes)
        alone, after_uninstall = edges
        assert len(alone) == 1  # the LOAD-LATEST consume edge
        assert after_uninstall == alone

    def test_detached_checkpointer_ignores_ticks_of_a_later_injector(self, tmp_path):
        m, cell = _machine(1)
        ck = Checkpointer(m, tmp_path, 1)
        FaultInjector(m, (FaultSpec(kind="starve-free-list", at=10**9),))
        ck.detach()
        m.submit([Task(1, _latest_reader(cell))])
        stats = m.run()
        assert stats.checkpoints_reached == 0
        assert ck.captured == []
        assert list(tmp_path.iterdir()) == []


class TestSameTickOrder:
    def test_marker_on_the_crash_op_is_written_before_the_crash(self, tmp_path):
        # The machine arms its config fault plan after its observers, so
        # an observer-attached checkpointer's marker event is scheduled
        # before the deferred crash on the same op: its image survives.
        state = {}

        def observe(machine):
            state["ckpt"] = Checkpointer(machine, tmp_path, 4)

        add_machine_observer(observe)
        try:
            m, cell = _machine(1, faults=(FaultSpec("crash-machine", at=8),))
        finally:
            remove_machine_observer(observe)
        assert m.events.tick == (state["ckpt"]._on_tick, m.injector._on_tick)

        def prog(tid):
            for v in range(1, 12):
                yield cell.store_ver(v, v)

        m.submit([Task(1, prog)])
        with pytest.raises(MachineCrash) as ei:
            m.run()
        assert ei.value.op_index == 8
        assert state["ckpt"].captured == [1, 2]


# ---------------------------------------------------------------------------
# Property: attach/detach order never changes what a consumer records.
# ---------------------------------------------------------------------------

CONSUMERS = ("tracer", "recorder", "sanitizer", "checkpointer", "injector")

#: Triggers beyond any ordinal the workload reaches: the injector is
#: subscribed to ``tick`` and ``notify`` (and counts notifications) but
#: never changes the run.
_TRANSPARENT_PLAN = (
    FaultSpec(kind="starve-free-list", at=10**9),
    FaultSpec(kind="drop-wake", at=10**9),
)

_EVERY = 3


def _chain_machine() -> tuple[Machine, list[Task]]:
    """Two cores, one renaming baton and one produce/consume chain.

    Tasks park on their predecessors' versions (exercising ``notify``),
    every unlock renames (an internal store), and each task ends with a
    LOAD-LATEST (a resolved consume edge).  The GC watermark is zero so
    no phase runs: a checkpoint's epoch pin then changes nothing either.
    """
    m = Machine(MachineConfig(num_cores=2, gc_watermark=0))
    a = Versioned(m.heap.alloc_versioned(1))
    baton = Versioned(m.heap.alloc_versioned(1))

    def prog(tid):
        if tid == 0:
            yield a.store_ver(0, 1)
            yield baton.store_ver(0, 0)
            return 0
        v = yield a.load_ver(tid - 1)
        yield isa.compute(3)
        yield a.store_ver(tid, v + 1)
        x = yield baton.lock_load_ver(tid - 1)
        yield baton.unlock_ver(tid - 1, tid)
        _, w = yield a.load_last(tid)
        return v + x + w

    return m, [Task(tid, prog) for tid in range(6)]


def _attach(name: str, m: Machine, directory: str):
    if name == "tracer":
        return Tracer(m)
    if name == "recorder":
        return SpanRecorder(m)
    if name == "sanitizer":
        return Sanitizer(m)
    if name == "checkpointer":
        return Checkpointer(m, directory, _EVERY)
    return FaultInjector(m, _TRANSPARENT_PLAN)


def _record(name: str, consumer, directory: str):
    if name == "tracer":
        return list(consumer.events())
    if name == "recorder":
        consumer.finish()
        return (
            consumer.task_spans,
            consumer.gc_spans,
            consumer.recovery_events,
            consumer.produces,
            consumer.consumes,
            list(consumer.tracer.events()),
        )
    if name == "sanitizer":
        return consumer.ops_checked, consumer.oracle.ops_mirrored
    if name == "checkpointer":
        images, corrupt = load_images(directory, every=_EVERY)
        return consumer.captured, {k: ck.digest for k, ck in images.items()}, corrupt
    return consumer.fired, consumer.skipped, consumer.notify_index


def _bus_size(m: Machine) -> int:
    return sum(len(getattr(m.events, event)) for event in EVENTS)


def _run(actions: list[tuple[str, str]]) -> tuple[Machine, dict]:
    """Apply attach/detach ``actions``, run, record what stayed attached.

    After every detach the bus holds exactly the subscriptions of the
    consumers still attached.
    """
    with tempfile.TemporaryDirectory() as directory:
        m, tasks = _chain_machine()
        live, added = {}, {}
        for verb, name in actions:
            if verb == "attach":
                before = _bus_size(m)
                live[name] = _attach(name, m, directory)
                added[name] = _bus_size(m) - before
            else:
                live.pop(name).detach()
                assert _bus_size(m) == sum(added[n] for n in live)
        m.submit(tasks)
        m.run()
        records = {name: _record(name, c, directory) for name, c in live.items()}
        records["results"] = [t.result for t in tasks]
        return m, records


_solo_cache: dict[str, object] = {}


def _solo(name: str):
    """What ``name`` records attached alone ("results": nothing attached)."""
    if name not in _solo_cache:
        actions = [] if name == "results" else [("attach", name)]
        _solo_cache[name] = _run(actions)[1][name]
    return _solo_cache[name]


@st.composite
def _actions(draw):
    """Every consumer attached once, in random order; a random subset is
    detached again, each at a random point after its attach."""
    actions = [("attach", name) for name in draw(st.permutations(CONSUMERS))]
    for name in draw(st.sets(st.sampled_from(CONSUMERS))):
        after = actions.index(("attach", name)) + 1
        at = draw(st.integers(min_value=after, max_value=len(actions)))
        actions.insert(at, ("detach", name))
    return actions


@settings(max_examples=25, deadline=None)
@given(actions=_actions())
def test_attach_detach_order_never_changes_a_consumers_record(actions):
    m, records = _run(actions)
    for name, record in records.items():
        assert record == _solo(name), f"{name} disturbed by {actions}"
    if len(records) == 1:  # only "results": everything was detached
        assert _bus_is_empty(m)


@settings(max_examples=15, deadline=None)
@given(
    attach=st.permutations(CONSUMERS),
    detach=st.permutations(CONSUMERS),
)
def test_detaching_everything_leaves_a_fresh_machine(attach, detach):
    with tempfile.TemporaryDirectory() as directory:
        m, tasks = _chain_machine()
        live = {name: _attach(name, m, directory) for name in attach}
        for name in detach:
            live.pop(name).detach()
        assert _bus_is_empty(m)
        m.submit(tasks)
        stats = m.run().snapshot()
    fresh, fresh_tasks = _chain_machine()
    fresh.submit(fresh_tasks)
    assert stats == fresh.run().snapshot()
