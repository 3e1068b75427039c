"""Tests for span recording, Perfetto export and critical-path analysis."""

from __future__ import annotations

import json

from repro import Machine, MachineConfig, Task, Versioned
from repro.faults import FaultSpec
from repro.obs import SpanRecorder, chrome_trace, critical_path, dependency_edges
from repro.obs.critpath import format_critical_path
from repro.obs.perfetto import write_chrome_trace
from repro.ostruct import isa
from repro.sim.events import EVENTS
from repro.sim.trace import Tracer


def simple_machine(num_cores: int = 2, **kw):
    m = Machine(MachineConfig(num_cores=num_cores, **kw))
    cell = Versioned(m.heap.alloc_versioned(1))
    return m, cell


def chain_machine():
    """Three tasks in a produce→consume chain: 1 → 2 → 3."""
    m, cell = simple_machine()

    def t1(tid):
        yield isa.compute(20)
        yield cell.store_ver(1, 10)

    def t2(tid):
        v = yield cell.load_ver(1)
        yield isa.compute(20)
        yield cell.store_ver(2, v + 1)

    def t3(tid):
        v = yield cell.load_ver(2)
        return v

    tasks = [Task(1, t1), Task(2, t2), Task(3, t3)]
    m.submit(tasks)
    return m, tasks


class TestSpanRecorder:
    def test_task_spans_cover_execution(self):
        m, tasks = chain_machine()
        rec = SpanRecorder(m)
        m.run()
        rec.finish()
        assert len(rec.task_spans) == 3
        by_task = {s.task: s for s in rec.task_spans}
        assert set(by_task) == {1, 2, 3}
        for span in rec.task_spans:
            assert span.outcome == "finished"
            assert span.end is not None and span.end > span.start
        # The chain serialises: task 2 cannot finish before task 1 stores.
        assert by_task[2].end > by_task[1].start

    def test_produce_consume_edges(self):
        m, tasks = chain_machine()
        rec = SpanRecorder(m)
        m.run()
        assert dependency_edges(rec) == {(1, 2), (2, 3)}

    def test_latest_family_consumes_resolved_version(self):
        m, cell = simple_machine()

        def producer(tid):
            yield cell.store_ver(1, 42)

        def consumer(tid):
            v, val = yield cell.load_last(5)  # resolves to version 1
            return (v, val)

        tasks = [Task(1, producer), Task(2, consumer)]
        m.submit(tasks)
        rec = SpanRecorder(m)
        m.run()
        assert tasks[1].result == (1, 42)
        assert (1, 2) in dependency_edges(rec)

    def test_gc_spans_recorded_under_pressure(self):
        m = Machine(MachineConfig(
            num_cores=1, free_list_blocks=8, gc_watermark=4,
            refill_blocks=8, free_list_refills=2,
        ))
        cell = Versioned(m.heap.alloc_versioned(1))

        def writer(tid):
            yield cell.store_ver(tid, tid)

        m.submit([Task(i, writer) for i in range(1, 40)])
        rec = SpanRecorder(m)
        m.run()
        rec.finish()
        phases = [s for s in rec.gc_spans if s.kind == "phase"]
        assert phases
        for span in phases:
            assert span.end is not None and span.end >= span.start
        assert m.stats.gc_phases >= len(phases)

    def test_recovery_events_from_watchdog_kick(self):
        # A dropped wake-up parks a consumer forever; the armed watchdog
        # notices the stalled machine and re-delivers the wake.
        m = Machine(MachineConfig(
            num_cores=2, watchdog_cycles=500,
            faults=(FaultSpec(kind="drop-wake", at=1, span=2),),
        ))
        cell = Versioned(m.heap.alloc_versioned(1))

        def producer(tid):
            yield isa.compute(200)
            yield cell.store_ver(1, 7)

        def consumer(tid):
            v = yield cell.load_ver(1)
            return v

        tasks = [Task(1, producer), Task(2, consumer)]
        m.submit(tasks)
        rec = SpanRecorder(m)
        m.run()
        assert tasks[1].result == 7
        events = {e.event for e in rec.recovery_events}
        assert "trip" in events
        assert "kick" in events

    def test_aborted_task_span_outcome(self):
        m = Machine(MachineConfig(
            num_cores=2, watchdog_cycles=1_000, watchdog_retries=4,
        ))
        a = Versioned(m.heap.alloc_versioned(1))
        b = Versioned(m.heap.alloc_versioned(1))
        m.manager.store_version(0, a.addr, 0, 1)
        m.manager.store_version(0, b.addr, 0, 2)

        def t1(tid):
            yield a.lock_load_ver(0)
            yield isa.compute(50)
            yield b.lock_load_ver(0)
            yield a.unlock_ver(0)
            yield b.unlock_ver(0)

        def t2(tid):
            yield b.lock_load_ver(0)
            yield isa.compute(50)
            yield a.lock_load_ver(0)
            yield b.unlock_ver(0)
            yield a.unlock_ver(0)

        m.submit([Task(1, t1), Task(2, t2)])
        rec = SpanRecorder(m)
        m.run()  # ABBA cycle recovered by abort-and-retry
        aborted = [s for s in rec.task_spans if s.outcome == "aborted"]
        assert aborted
        victim = aborted[0].task
        # The victim re-ran to completion: a later finished span exists.
        assert any(
            s.task == victim and s.outcome == "finished"
            and s.start >= aborted[0].end
            for s in rec.task_spans
        )
        assert any(e.event == "abort" for e in rec.recovery_events)

    def test_two_recorders_both_record(self):
        m, cell = simple_machine()
        first = SpanRecorder(m)
        second = SpanRecorder(m)

        def prog(tid):
            yield cell.store_ver(1, 1)
            return (yield cell.load_last(1))

        m.submit([Task(1, prog)])
        m.run()
        for rec in (first, second):
            rec.finish()
            assert [s.task for s in rec.task_spans] == [1]
            assert (cell.addr, 1) in rec.produces
            assert [c[:3] for c in rec.consumes] == [(1, cell.addr, 1)]
        assert first.summary() == second.summary()

    def test_detach_restores_all_hooks(self):
        m, cell = simple_machine()
        rec = SpanRecorder(m)
        rec.detach()
        rec.detach()  # idempotent
        # Every bus tuple is empty again: nothing was patched, so
        # unsubscribing is all there is to undo.
        assert all(getattr(m.events, event) == () for event in EVENTS)
        SpanRecorder(m)  # attaching again is fine

    def test_coexists_with_user_tracer(self):
        m, cell = simple_machine()
        user = Tracer(m, only_versioned=True)
        rec = SpanRecorder(m)

        def prog(tid):
            yield cell.store_ver(1, 1)

        m.submit([Task(1, prog)])
        m.run()
        assert [e.op for e in user.events()] == ["store_version"]
        assert rec.task_spans and rec.produces


class TestPerfettoExport:
    def _recorded_run(self):
        m, tasks = chain_machine()
        rec = SpanRecorder(m)
        m.run()
        rec.finish()
        return rec

    def test_round_trips_as_chrome_trace_json(self, tmp_path):
        rec = self._recorded_run()
        path = write_chrome_trace(rec, tmp_path / "trace.json")
        doc = json.loads(path.read_text())
        assert isinstance(doc["traceEvents"], list)
        for ev in doc["traceEvents"]:
            assert ev["ph"] in ("X", "i", "M")
            assert "pid" in ev and "name" in ev
            if ev["ph"] == "X":
                assert ev["ts"] >= 0 and ev["dur"] >= 0
        assert doc == chrome_trace(rec)  # file is the exact document

    def test_thread_metadata_names_all_tracks(self):
        rec = self._recorded_run()
        doc = chrome_trace(rec)
        meta = {
            ev["args"]["name"]: ev.get("tid")
            for ev in doc["traceEvents"]
            if ev["ph"] == "M" and ev["name"] == "thread_name"
        }
        cores = rec.machine.config.num_cores
        assert meta["gc"] == cores
        assert meta["watchdog"] == cores + 1
        for core_id in range(cores):
            assert meta[f"core {core_id}"] == core_id

    def test_op_events_nest_inside_their_task_span(self):
        rec = self._recorded_run()
        doc = chrome_trace(rec)
        spans = {}
        for ev in doc["traceEvents"]:
            if ev.get("cat") == "task":
                spans.setdefault(ev["args"]["task"], []).append(
                    (ev["ts"], ev["ts"] + ev["dur"])
                )
        assert spans
        for ev in doc["traceEvents"]:
            if ev.get("cat") != "op" or ev["args"]["task"] is None:
                continue
            lo, hi = ev["ts"], ev["ts"] + ev["dur"]
            assert any(
                start <= lo and hi <= end
                for start, end in spans[ev["args"]["task"]]
            ), f"op at [{lo},{hi}] outside task {ev['args']['task']} spans"

    def test_stalls_and_gc_emit_instants_and_spans(self):
        m = Machine(MachineConfig(
            num_cores=1, free_list_blocks=8, gc_watermark=4,
            refill_blocks=8, free_list_refills=2,
        ))
        cell = Versioned(m.heap.alloc_versioned(1))

        def writer(tid):
            yield cell.store_ver(tid, tid)

        m.submit([Task(i, writer) for i in range(1, 40)])
        rec = SpanRecorder(m)
        m.run()
        rec.finish()
        doc = chrome_trace(rec)
        cats = {ev.get("cat") for ev in doc["traceEvents"]}
        assert "gc" in cats
        gc_tid = m.config.num_cores
        assert all(
            ev["tid"] == gc_tid
            for ev in doc["traceEvents"] if ev.get("cat") == "gc"
        )


class TestCriticalPath:
    def test_chain_is_the_critical_path(self):
        m, tasks = chain_machine()
        rec = SpanRecorder(m)
        m.run()
        rec.finish()
        result = critical_path(rec)
        assert result["chain"] == [1, 2, 3]
        assert result["tasks"] == 3
        assert result["edges"] == 2
        weights = rec.task_cycles()
        assert result["length_cycles"] == sum(weights.values())
        assert result["makespan"] == m.sim.now
        assert result["total_task_cycles"] == sum(weights.values())

    def test_independent_tasks_have_no_edges(self):
        m, cell = simple_machine()

        def prog(tid):
            yield cell.store_ver(tid, tid)

        m.submit([Task(1, prog), Task(2, prog)])
        rec = SpanRecorder(m)
        m.run()
        rec.finish()
        result = critical_path(rec)
        assert result["edges"] == 0
        assert len(result["chain"]) == 1  # heaviest single task

    def test_format_renders_tables(self):
        m, tasks = chain_machine()
        rec = SpanRecorder(m)
        m.run()
        rec.finish()
        text = format_critical_path(critical_path(rec), rec)
        assert "critical path" in text
        assert "longest chain" in text
